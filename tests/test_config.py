import collections
import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from perturbmpm import ConfigError, DenseCrfModel, ModelShapeError, \
    RunConfig, build_grid_model, corrected_label_volume, load_model, \
    parse_config, required_sample_size, write_pgm, write_tensor
from perturbmpm import config
from perturbmpm.config import unaries_from_pgm_maps
from perturbmpm.meanfield import BACKENDS, InferenceConfig


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


@pytest.mark.parametrize("source", ["unary = u.pmt", "prob_map = a.pgm b.pgm"])
def test_echo_text_with_every_key(tmp_path, source):
    text = f"""dims = 2 3
labels = 2
{source}
kernel = 1.0 2.0 2.5
kernel = 0.5 1.5
seed = 18446744073709551615
samples = 50
backend = lattice
threshold = 0.25
iterations = 20
tol = 1e-06
epsilon = 0.1
delta = 0.05
"""
    cfg = parse_config(write_cfg(tmp_path, text))
    assert cfg.echo() == text + "# required_sample_size = 220"


# an explicit id names the key and the rule its case checks
@pytest.mark.parametrize("fields, message", [
    pytest.param(dict(dims=(0,), n_labels=1, backend="gpu", threshold=-2.0),
                 "dims: grid dims must be one or more positive sizes, "
                 "got (0,)",
                 id="fields0-dims: dimensions must be positive"),
    (dict(dims=(), n_labels=2), "dims: missing value"),
    (dict(dims=(4,), n_labels=1), "labels: need at least 2 labels"),
    pytest.param(dict(dims=(4,), n_labels=2, backend="gpu"),
                 "backend: backend must be one of exact, lattice, got 'gpu'",
                 id="fields3-backend: must be one of exact, lattice"),
    pytest.param(dict(dims=(4,), n_labels=2, threshold=-2.0),
                 "threshold: threshold must be a number in [0, inf), "
                 "got -2.0", id="fields4-threshold: must be non-negative"),
    (dict(dims=(4,), n_labels=2, threshold=float("nan")),
     "threshold: expected a finite number"),
    (dict(dims=(4,), n_labels=2, convergence_tol=float("inf")),
     "tol: expected a finite number"),
    pytest.param(dict(dims=(4,), n_labels=2, n_samples=0),
                 "samples: n_samples must be an integer >= 1, got 0",
                 id="fields7-samples: must be >= 1"),
    (dict(dims=(4,), n_labels=2, n_samples=2.5),
     "samples: expected an integer"),
    pytest.param(dict(dims=(4,), n_labels=2, max_iterations=0),
                 "iterations: max_iterations must be an integer in "
                 "[1, 2**63), got 0", id="fields9-iterations: must be >= 1"),
    (dict(dims=(4,), n_labels=2, seed=-1), "seed: seed must be an integer"),
    pytest.param(dict(dims=(4,), n_labels=2, kernels=((1.0, ()),)),
                 "kernel: kernel has 0 sigmas for a 1-d grid (expected 1)",
                 id="fields11-kernel: expected a weight and at least one "
                 "sigma"),
    pytest.param(dict(dims=(4,), n_labels=2, kernels=((-1.0, (1.0,)),)),
                 "kernel: kernel weight must be finite and non-negative, "
                 "got -1.0",
                 id="fields12-kernel: weight must be >= 0 and sigmas > 0"),
    pytest.param(dict(dims=(4, 4, 4), n_labels=2,
                      kernels=((1.0, (1.0, 2.0)),)),
                 "kernel: kernel has 2 sigmas for a 3-d grid (expected 1 "
                 "or 3)", id="fields13-kernel has 2 sigmas for a 3-d grid"),
    pytest.param(dict(dims=(4,), n_labels=2, epsilon=1.5, delta=0.1),
                 "epsilon: epsilon must be a number in (0, 1), got 1.5",
                 id="fields14-epsilon: must lie in (0, 1)"),
    (dict(dims=(4,), n_labels=2, delta=0.1),
     "epsilon and delta must be given together"),
    (dict(dims=(4,), n_labels=2, unary_path="u.pmt",
          prob_map_paths=("a.pgm", "b.pgm")),
     "'unary' and 'prob_map' are mutually exclusive"),
    (dict(dims=(4,), n_labels=2, prob_map_paths=("a.pgm",)),
     "prob_map needs 2 images, got 1"),
    pytest.param(dict(dims=(4,), n_labels=2, kernels=((1.0, 2.0),)),
                 "kernel: '1.0 2.0' reads as (1.0, (2.0,)), not (1.0, 2.0)",
                 id="fields18-kernel: sigmas must be a tuple, got 2.0"),
    # values that their echo does not give back
    (dict(dims=(4,), n_labels=2, n_samples="5"),
     "samples: '5' reads as 5, not '5'"),
    (dict(dims="4 4", n_labels=2), "dims: '4 4' reads as (4, 4), not '4 4'"),
    (dict(dims=(4,), n_labels=2, prob_map_paths=("a b.pgm", "c.pgm")),
     "prob_map: 'a b.pgm c.pgm' reads as ('a', 'b.pgm', 'c.pgm'), "
     "not ('a b.pgm', 'c.pgm')"),
])
def test_run_config_checks_itself(fields, message):
    with pytest.raises(ConfigError) as exc:
        RunConfig(**fields)
    assert str(exc.value).startswith(message)


def _grid_model(dims, weight, sigmas):
    unary = np.zeros((int(np.prod(dims)), 2))
    return build_grid_model(dims, 2, unary, [(weight, sigmas)])


# each rule is stated once, by the code that takes the value: a bad file
# value and a library call that passes it break the same rule text
@pytest.mark.parametrize("lines, line, key, call", [
    ("dims = 0 3", 1, "dims",
     lambda: DenseCrfModel((0, 3), 2, np.zeros((0, 2)))),
    ("labels = 1", 2, "labels",
     lambda: DenseCrfModel((4,), 1, np.zeros((4, 1)))),
    ("kernel = -1 1", 3, "kernel", lambda: _grid_model((4,), -1.0, 1.0)),
    ("kernel = 1 0", 3, "kernel", lambda: _grid_model((4,), 1.0, 0.0)),
    # the sigma count needs the dims, so it is checked once the file is
    # read, and the error names the kernel line
    pytest.param("dims = 2 3 4\nkernel = 1 1 2", 3, "kernel",
                 lambda: _grid_model((2, 3, 4), 1.0, (1.0, 2.0)),
                 id="dims = 2 3 4\nkernel = 1 1 2-None-kernel-<lambda>"),
    ("threshold = -1.0", 3, "threshold",
     lambda: corrected_label_volume(np.zeros(4), np.zeros(4), -1.0, 1)),
    ("epsilon = 0.0\ndelta = 0.05", 3, "epsilon",
     lambda: required_sample_size(0.0, 0.05)),
    ("epsilon = 0.1\ndelta = 1.0", 4, "delta",
     lambda: required_sample_size(0.1, 1.0))])
def test_a_file_and_a_library_call_break_one_rule_text(tmp_path, lines,
                                                        line, key, call):
    with pytest.raises((ValueError, ModelShapeError)) as rule:
        call()
    given = dict(item.split(" = ") for item in lines.split("\n"))
    text = "".join(f"{k} = {v}\n" for k, v in
                   {"dims": "4", "labels": "2", **given}.items())
    path = write_cfg(tmp_path, text)
    with pytest.raises(ConfigError) as exc:
        parse_config(path)
    assert str(exc.value) == f"{path}:{line}: {key}: {rule.value}"


def test_each_value_is_checked_once(tmp_path, monkeypatch):
    calls = []
    for key, setting in config._SETTINGS.items():
        def counted(value, key=key, check=setting.check):
            calls.append(key)
            return check(value)
        monkeypatch.setitem(config._SETTINGS, key,
                            dataclasses.replace(setting, check=counted))
    text = """dims = 2 3
labels = 2
unary = u.pmt
kernel = 1.0 2.0 2.5
kernel = 0.5 1.5
seed = 7
samples = 50
backend = lattice
threshold = 0.25
iterations = 20
tol = 1e-06
epsilon = 0.1
delta = 0.05
"""
    parse_config(write_cfg(tmp_path, text))
    keys = [line.split(" = ")[0] for line in text.splitlines()]
    assert collections.Counter(calls) == collections.Counter(keys)


# the first line in file order whose value its owner rejects is named,
# ahead of a format error on a later line and the whole file's rules
@pytest.mark.parametrize("text, line, message", [
    ("dims = 4\nlabels = 2\nseed = -1\nbogus = 1", 3, "seed: seed must be"),
    ("dims = 4\nthreshold = -1\nseed = -1", 2, "threshold: threshold must"),
    ("dims = 4\nlabels = 2\nsamples = 0\nsamples = 2", 3,
     "samples: n_samples must be"),
    ("dims = 4\nlabels = 2\ndelta = 2.0", 3, "delta: delta must be"),
    ("dims = 2 2\nlabels = 2\nkernel = 1 1\nkernel = 1 1 1 1\n"
     "unary = u.pmt\nprob_map = a.pgm b.pgm", 4,
     "kernel: kernel has 3 sigmas"),
], ids=["before-unknown-key", "before-missing-key", "before-duplicate-key",
        "before-epsilon-with-delta", "sigma-count-before-unary-or-prob-map"])
def test_the_first_rejected_line_is_named(tmp_path, text, line, message):
    path = write_cfg(tmp_path, text + "\n")
    with pytest.raises(ConfigError) as exc:
        parse_config(path)
    assert str(exc.value).startswith(f"{path}:{line}: {message}")


def test_iteration_caps_must_fit_int64(tmp_path):
    for cap in (2 ** 63, 10 ** 20 - 1):
        with pytest.raises(ConfigError, match=r"^iterations: max_iterations "
                           r"must be an integer in \[1, 2\*\*63\)"):
            RunConfig(dims=(4,), n_labels=2, max_iterations=cap)
        with pytest.raises(ValueError, match="max_iterations"):
            InferenceConfig(max_iterations=cap)
    with pytest.raises(ValueError, match="max_iterations"):
        InferenceConfig(max_iterations=np.uint64(2 ** 63))
    cfg = parse_config(write_cfg(
        tmp_path, f"dims = 4\nlabels = 2\niterations = {2 ** 63 - 1}\n"))
    assert cfg.sampling().inference.max_iterations == 2 ** 63 - 1


def test_override_is_checked_like_a_file_value(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, "dims = 4\nlabels = 2\n"))
    assert cfg.override(samples=5, threshold=0.5).value("samples") == 5
    with pytest.raises(ConfigError, match=r"^threshold: threshold must be "
                       r"a number in \[0, inf\), got -1\.0$"):
        cfg.override(threshold=-1.0)


finite = dict(allow_nan=False, allow_infinity=False)
paths = st.from_regex(r"[a-z][a-z0-9_.]{0,8}", fullmatch=True)


@st.composite
def run_configs(draw):
    dims = tuple(draw(st.lists(st.integers(1, 64), min_size=1, max_size=3)))
    n_labels = draw(st.integers(2, 5))
    source = draw(st.sampled_from(["uniform", "unary", "prob_map"]))
    sigma = st.floats(min_value=0, exclude_min=True, **finite)
    kernels = draw(st.lists(st.tuples(
        st.floats(min_value=0, **finite),
        st.sampled_from([1, len(dims)]).flatmap(
            lambda k: st.tuples(*[sigma] * k))), max_size=3))
    fraction = st.floats(0, 1, exclude_min=True, exclude_max=True)
    accuracy = draw(st.none() | st.tuples(fraction, fraction))
    return RunConfig(
        dims=dims, n_labels=n_labels,
        unary_path=draw(paths) if source == "unary" else None,
        prob_map_paths=tuple(draw(st.lists(
            paths, min_size=n_labels, max_size=n_labels)))
        if source == "prob_map" else None,
        kernels=tuple(kernels),
        seed=draw(st.integers(0, 2 ** 64 - 1)),
        n_samples=draw(st.integers(1, 10 ** 6)),
        backend=draw(st.sampled_from(BACKENDS)),
        threshold=draw(st.floats(min_value=0, **finite)),
        max_iterations=draw(st.integers(1, 1000)),
        convergence_tol=draw(st.floats(min_value=0, **finite)),
        epsilon=accuracy and accuracy[0], delta=accuracy and accuracy[1])


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(run_configs())
def test_echo_parses_back_to_an_equal_config(tmp_path, cfg):
    again = parse_config(write_cfg(tmp_path, cfg.echo()))
    assert dataclasses.replace(again, base_dir=cfg.base_dir) == cfg
