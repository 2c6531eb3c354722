import numpy as np
import pytest

from perturbmpm import ConfigError, load_model, parse_config, write_pgm, \
    write_tensor
from perturbmpm.config import unaries_from_pgm_maps


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_minimal_config_defaults(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, "dims = 4\nlabels = 2\n"))
    assert cfg.dims == (4,)
    assert cfg.n_labels == 2
    assert cfg.n_samples == 200
    assert cfg.threshold == 0.0
    assert cfg.backend == "exact"
    assert cfg.seed == 0
    assert cfg.max_iterations == 10
    assert cfg.convergence_tol == 1e-5


def test_full_config(tmp_path):
    text = """
# a comment
dims = 2 3
labels = 2
kernel = 1.0 2.0 2.0
kernel = 0.5 1.0   # second kernel
seed = 7
samples = 50
backend = lattice
threshold = 0.25
iterations = 20
tol = 1e-6
epsilon = 0.1
delta = 0.05
"""
    cfg = parse_config(write_cfg(tmp_path, text))
    assert cfg.dims == (2, 3)
    assert cfg.kernels == ((1.0, (2.0, 2.0)), (0.5, (1.0,)))
    assert cfg.backend == "lattice"
    assert cfg.epsilon == 0.1
    echo = cfg.echo()
    assert "required_sample_size" in echo
    assert "backend = lattice" in echo


def test_unknown_key_diagnostic(tmp_path):
    path = write_cfg(tmp_path, "dims = 4\nlabels = 2\nbogus = 1\n")
    with pytest.raises(ConfigError) as exc:
        parse_config(path)
    assert "bogus" in str(exc.value)
    assert ":3:" in str(exc.value)


def test_malformed_value_diagnostics(tmp_path):
    for text, needle in [
        ("dims = x\nlabels = 2\n", "dims"),
        ("dims = 4\nlabels = 1\n", "labels"),
        ("dims = 4\nlabels = 2\nbackend = gpu\n", "backend"),
        ("dims = 4\nlabels = 2\nkernel = 1.0\n", "kernel"),
        ("dims = 4\nlabels = 2\nepsilon = 0.1\n", "delta"),
        ("dims = 4\nlabels = 2\nsamples = 0\n", "samples"),
        ("dims = 4\nlabels = 2\nnot a kv line\n", "key"),
        ("labels = 2\n", "dims"),
    ]:
        with pytest.raises(ConfigError) as exc:
            parse_config(write_cfg(tmp_path, text))
        assert needle in str(exc.value)


def test_missing_file():
    with pytest.raises(ConfigError):
        parse_config("/nonexistent/run.cfg")


def test_kernel_sigma_count_mismatch(tmp_path):
    path = write_cfg(tmp_path, "dims = 2 2 2\nlabels = 2\nkernel = 1.0 1.0 2.0\n")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_load_model_uniform_unaries(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, "dims = 3\nlabels = 4\n"))
    model = load_model(cfg)
    assert model.unary.shape == (3, 4)
    assert np.allclose(model.unary, np.log(4.0))


def test_load_model_unary_tensor(tmp_path):
    unary = np.random.default_rng(0).random((6, 2))
    write_tensor(tmp_path / "u.pmt", unary)
    cfg = parse_config(write_cfg(
        tmp_path, "dims = 2 3\nlabels = 2\nunary = u.pmt\nkernel = 1.0 1.0\n"))
    model = load_model(cfg)
    assert np.array_equal(model.unary, unary)
    assert len(model.kernels) == 1


def test_load_model_unary_shape_mismatch(tmp_path):
    write_tensor(tmp_path / "u.pmt", np.zeros((5, 2)))
    cfg = parse_config(write_cfg(
        tmp_path, "dims = 2 3\nlabels = 2\nunary = u.pmt\n"))
    with pytest.raises(ConfigError):
        load_model(cfg)


def test_prob_map_loading(tmp_path):
    img0 = np.array([[200, 50], [0, 255]], dtype=np.uint8)
    img1 = 255 - img0
    write_pgm(tmp_path / "a.pgm", img0)
    write_pgm(tmp_path / "b.pgm", img1)
    cfg = parse_config(write_cfg(
        tmp_path, "dims = 2 2\nlabels = 2\nprob_map = a.pgm b.pgm\n"))
    model = load_model(cfg)
    p = np.exp(-model.unary)
    assert p[0, 0] == pytest.approx(200 / 255)
    assert np.allclose(p.sum(axis=1), 1.0)


def test_prob_map_validation(tmp_path):
    write_pgm(tmp_path / "a.pgm", np.zeros((2, 2)))
    with pytest.raises(ConfigError):
        unaries_from_pgm_maps([tmp_path / "a.pgm"], (3, 3))
    path = write_cfg(
        tmp_path, "dims = 2 2\nlabels = 2\nprob_map = a.pgm\n")
    with pytest.raises(ConfigError):
        parse_config(path)
    path = write_cfg(
        tmp_path,
        "dims = 2 2\nlabels = 2\nunary = u.pmt\nprob_map = a.pgm b.pgm\n")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_echo_round_trips(tmp_path):
    cfg = parse_config(write_cfg(
        tmp_path, "dims = 2 3\nlabels = 2\nkernel = 1.0 2.0\nseed = 5\n"))
    again = parse_config(write_cfg(tmp_path, cfg.echo(), name="echo.cfg"))
    assert again.dims == cfg.dims
    assert again.kernels == cfg.kernels
    assert again.seed == cfg.seed
    assert again.n_samples == cfg.n_samples


def test_seed_outside_philox_keys_is_located(tmp_path):
    for seed in ("-3", str(2 ** 64)):
        path = write_cfg(tmp_path, f"dims = 4\nlabels = 2\nseed = {seed}\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(path)
        assert str(exc.value).startswith(f"{path}:3: seed: ")
    path = write_cfg(tmp_path, f"dims = 4\nlabels = 2\nseed = {2 ** 64 - 1}\n")
    assert parse_config(path).seed == 2 ** 64 - 1


def test_non_finite_numbers_are_rejected(tmp_path):
    for line in ("tol = nan", "threshold = inf", "kernel = 1.0 nan",
                 "kernel = 1e400 1.0"):
        path = write_cfg(tmp_path, f"dims = 4\nlabels = 2\n{line}\n")
        with pytest.raises(ConfigError, match=":3: .*finite"):
            parse_config(path)
