import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perturbmpm import SyntheticExperimentConfig, read_pgm, read_tensor, \
    write_pgm, write_tensor
from perturbmpm.cli import _build_parser, main


@pytest.fixture
def model_cfg(tmp_path):
    unary = np.random.default_rng(0).random((16, 2))
    write_tensor(tmp_path / "u.pmt", unary)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dims = 4 4\nlabels = 2\nunary = u.pmt\n"
                   "kernel = 1.0 1.0\nsamples = 30\nseed = 3\n")
    return cfg


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 1


def test_version(capsys):
    assert main(["--version"]) == 0
    assert "pmpm" in capsys.readouterr().out


def test_unknown_flag_is_usage_error(model_cfg):
    assert main(["sample", "--model", str(model_cfg), "--bogus"]) == 1


def run_in_process(calls, out, capsys, fresh_parser=False):
    """Run each argv of calls through one process's `main`, in turn, with
    outputs under out; returns each call's exit code, stdout and stderr,
    and the bytes of every file out then holds.  fresh_parser rebuilds the
    parser before every call."""
    results = []
    for argv in calls:
        if fresh_parser:
            _build_parser.cache_clear()
        code = main([str(a) for a in argv])
        results.append((code, *capsys.readouterr()))
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    return results, files


def test_in_process_calls_carry_no_state(model_cfg, tmp_path, capsys):
    assert _build_parser() is _build_parser()
    out = tmp_path / "out"
    out.mkdir()
    model = ["--model", model_cfg]
    calls = [["sample", *model, "--seed", "5", "--out", out / "a.pmt"],
             ["sample", *model, "--out", out / "b.pmt"],
             ["sample", *model, "--seed", "3", "--out", out / "c.pmt"],
             ["infer", *model, "--out", out / "q.pmt", "--csv", out / "q.csv"],
             ["infer", *model, "--out", out / "r.pmt"],
             ["sample", *model, "--bogus"],
             ["infer", "--model", tmp_path / "nope.cfg", "--out", out / "x"],
             ["uncertainty", *model, "--out", out / "h.pmt"]]
    results, files = run_in_process(calls, out, capsys)
    assert [code for code, _, _ in results] == [0, 0, 0, 0, 0, 1, 2, 0]
    # without --seed, the config's seed (3), not the last call's
    assert files["b.pmt"] == files["c.pmt"] != files["a.pmt"]
    # without --csv, no CSV
    assert [name for name in files if name.startswith("r.")] == \
        ["r.pmt", "r.pmt.manifest.txt"]
    for name in list(files):
        (out / name).unlink()
    assert run_in_process(calls, out, capsys, fresh_parser=True) == \
        (results, files)


def test_infer_writes_marginals(model_cfg, tmp_path, capsys):
    out = tmp_path / "q.pmt"
    csv = tmp_path / "q.csv"
    assert main(["infer", "--model", str(model_cfg), "--out", str(out),
                 "--csv", str(csv)]) == 0
    q = read_tensor(out)
    assert q.shape == (16, 2)
    assert np.allclose(q.sum(axis=1), 1.0)
    assert csv.read_text().startswith("voxel,label,probability")
    assert (tmp_path / "q.pmt.manifest.txt").exists()


@pytest.mark.parametrize("command, shape", [("infer", (16, 2)),
                                            ("uncertainty", (16,))])
def test_csv_values_are_the_tensor_bitwise(model_cfg, tmp_path, command,
                                           shape):
    out, csv = tmp_path / "t.pmt", tmp_path / "t.csv"
    assert main([command, "--model", str(model_cfg), "--out", str(out),
                 "--csv", str(csv)]) == 0
    lines = csv.read_bytes().split(b"\r\n")
    assert lines[-1] == b""
    rows = [line.decode().split(",") for line in lines[1:-1]]
    keys = np.array([[int(k) for k in row[:-1]] for row in rows])
    values = np.array([float(row[-1]) for row in rows])
    tensor = read_tensor(out)
    assert tensor.shape == shape
    assert np.array_equal(keys, np.argwhere(np.ones(shape, dtype=bool)))
    assert np.array_equal(values.view(np.uint64),
                          tensor.ravel().view(np.uint64))


def test_infer_reports_iteration_cap(model_cfg, tmp_path, capsys):
    model_cfg.write_text(model_cfg.read_text() + "iterations = 2\n")
    assert main(["infer", "--model", str(model_cfg),
                 "--out", str(tmp_path / "q.pmt")]) == 0
    out = capsys.readouterr().out
    assert "stopped at the 2-iteration cap without converging" in out
    assert "converged in" not in out


def test_infer_reports_convergence(model_cfg, tmp_path, capsys):
    model_cfg.write_text(model_cfg.read_text() + "iterations = 200\n")
    assert main(["infer", "--model", str(model_cfg),
                 "--out", str(tmp_path / "q.pmt")]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    n_iter = int(first.split("converged in ")[1].split()[0])
    assert 2 < n_iter < 200


def test_sample_writes_u32_stack(model_cfg, tmp_path):
    out = tmp_path / "s.pmt"
    assert main(["sample", "--model", str(model_cfg),
                 "--out", str(out)]) == 0
    s = read_tensor(out)
    assert s.dtype == np.uint32
    assert s.shape == (30, 16)
    assert s.max() <= 1


def test_sample_flag_overrides(model_cfg, tmp_path):
    out = tmp_path / "s.pmt"
    assert main(["sample", "--model", str(model_cfg), "--samples", "5",
                 "--out", str(out)]) == 0
    assert read_tensor(out).shape == (5, 16)


def test_sample_deterministic_bitwise(model_cfg, tmp_path):
    a = tmp_path / "a.pmt"
    b = tmp_path / "b.pmt"
    for out in (a, b):
        assert main(["sample", "--model", str(model_cfg),
                     "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.pmt.manifest.txt").read_text() == \
        (tmp_path / "b.pmt.manifest.txt").read_text()
    c = tmp_path / "c.pmt"
    assert main(["sample", "--model", str(model_cfg), "--seed", "99",
                 "--out", str(c)]) == 0
    assert a.read_bytes() != c.read_bytes()


def test_sample_reports_the_required_sample_size(model_cfg, tmp_path,
                                                 capsys):
    model_cfg.write_text(model_cfg.read_text()
                         + "epsilon = 0.1\ndelta = 0.05\n")
    assert main(["sample", "--model", str(model_cfg),
                 "--out", str(tmp_path / "s.pmt")]) == 0
    assert "required_sample_size(eps=0.1, delta=0.05, m=2) = 220" in \
        capsys.readouterr().out.splitlines()


def test_uncertainty_outputs(model_cfg, tmp_path):
    out = tmp_path / "h.pmt"
    heat = tmp_path / "h.pgm"
    assert main(["uncertainty", "--model", str(model_cfg), "--out", str(out),
                 "--heatmap", str(heat)]) == 0
    h = read_tensor(out)
    assert h.shape == (16,)
    assert np.all(h >= 0) and np.all(h <= 1.0 + 1e-12)
    img, _ = read_pgm(heat)
    assert img.shape == (4, 4)


def test_missing_config_is_data_error(tmp_path):
    assert main(["infer", "--model", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "q.pmt")]) == 2


def test_bad_tensor_is_data_error(tmp_path):
    (tmp_path / "u.pmt").write_bytes(b"garbage")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dims = 2\nlabels = 2\nunary = u.pmt\n")
    assert main(["infer", "--model", str(cfg),
                 "--out", str(tmp_path / "q.pmt")]) == 2


def test_capacity_error_exit_code(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dims = 8193\nlabels = 2\nkernel = 1.0 1.0\n")
    assert main(["oracle-check", "--n", "40"]) == 3
    # the exact backend's 8193 x 8193 axis factor is over its matrix guard
    out = tmp_path / "q.pmt"
    assert main(["infer", "--model", str(cfg), "--out", str(out)]) == 3
    assert list(tmp_path.iterdir()) == [cfg]


def test_impossible_allocation_is_capacity_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dims = 128 128\nlabels = 2\nsamples = 100000000\n")
    out = tmp_path / "o.pmt"
    # the (samples, voxels) label array would take 11.9 TiB; numpy refuses
    # the request before anything is sampled
    assert main(["sample", "--model", str(cfg), "--out", str(out)]) == 3
    assert "pmpm: capacity error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


def test_oracle_check_prints_tv(capsys):
    assert main(["oracle-check", "--n", "5", "--samples", "2000"]) == 0
    out = capsys.readouterr().out
    assert "TV" in out


def test_synth_experiment_csv(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    assert main(["synth-experiment", "--out", str(out), "--grids", "4",
                 "--samples", "10", "50", "--inits", "2"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n_voxels,n_samples,sampled_error,mean_field_error"
    assert len(lines) == 3


def test_synth_experiment_defaults_are_the_configs():
    args = _build_parser().parse_args(["synth-experiment", "--out", "c.csv"])
    assert SyntheticExperimentConfig(
        tuple(args.grids), tuple(args.samples), args.inits, args.seed) == \
        SyntheticExperimentConfig()


@pytest.mark.parametrize("argv", [
    ["oracle-check", "--n", "21", "--samples", "10000"],
    ["synth-experiment", "--grids", "6", "25", "--samples", "10",
     "--inits", "3"]])
def test_oracle_commands_exit_3_before_sampling(tmp_path, capsys,
                                                monkeypatch, argv):
    calls = []
    for module in ("cli", "evaluation"):
        monkeypatch.setattr(f"perturbmpm.{module}.perturb_and_mpm",
                            lambda *args: calls.append(args))
    if argv[0] == "synth-experiment":
        argv = argv + ["--out", str(tmp_path / "c.csv")]
    assert main(argv) == 3
    assert "pmpm: capacity error:" in capsys.readouterr().err
    assert calls == []
    assert list(tmp_path.iterdir()) == []


def write_biomarker_inputs(tmp_path, n=12):
    for tag, n_tumor in (("pre", 8), ("post", 3)):
        p1 = np.where(np.arange(n) < n_tumor, 1.0 - 1e-9, 1e-9)
        probs = np.stack([1 - p1, p1], axis=1)
        write_tensor(tmp_path / f"{tag}_u.pmt", -np.log(probs))
        (tmp_path / f"{tag}.cfg").write_text(
            f"dims = {n}\nlabels = 2\nunary = {tag}_u.pmt\nsamples = 50\n")
        truth = (np.arange(n) < n_tumor).astype(np.uint32)
        write_tensor(tmp_path / f"{tag}_truth.pmt", truth)
    return ["biomarker",
            "--pre-model", str(tmp_path / "pre.cfg"),
            "--post-model", str(tmp_path / "post.cfg"),
            "--truth-pre", str(tmp_path / "pre_truth.pmt"),
            "--truth-post", str(tmp_path / "post_truth.pmt")]


def test_biomarker_command(tmp_path):
    out = tmp_path / "report.csv"
    assert main(write_biomarker_inputs(tmp_path) + ["--out", str(out)]) == 0
    header, row = out.read_text().splitlines()
    assert "eor_corrected" in header
    values = dict(zip(header.split(","), row.split(",")))
    assert float(values["truth_eor"]) == pytest.approx((8 - 3) / 8)
    manifest = (tmp_path / "report.csv.manifest.txt").read_text()
    post = manifest[manifest.index("  post:"):]
    assert "    unary = post_u.pmt" in post
    assert str(tmp_path / "pre_truth.pmt") in manifest
    assert str(tmp_path / "post_truth.pmt") in manifest


def test_biomarker_rejects_differing_sampling_settings(tmp_path, capsys):
    argv = write_biomarker_inputs(tmp_path)
    post = tmp_path / "post.cfg"
    post.write_text(post.read_text()
                    + "seed = 4\nbackend = lattice\nthreshold = 0.5\n")
    assert main(argv + ["--out", str(tmp_path / "r.csv")]) == 2
    err = capsys.readouterr().err
    assert "seed, backend, threshold" in err
    assert not (tmp_path / "r.csv").exists()
    # a command-line override applies to both models alike
    post.write_text(post.read_text().replace("seed = 4\n", ""))
    assert main(argv + ["--backend", "exact", "--out",
                        str(tmp_path / "r.csv")]) == 2
    assert "differ in threshold" in capsys.readouterr().err


def test_biomarker_rejects_truth_of_wrong_size(tmp_path, capsys):
    argv = write_biomarker_inputs(tmp_path)
    write_tensor(tmp_path / "post_truth.pmt", np.zeros(13, dtype=np.uint32))
    assert main(argv + ["--out", str(tmp_path / "r.csv")]) == 2
    assert "post_truth.pmt: truth has 13 voxels" in capsys.readouterr().err


@pytest.mark.parametrize("truth", [np.full(12, 7, dtype=np.uint32),
                                   np.full(12, 0.5)])
def test_biomarker_rejects_truth_labels_out_of_range(tmp_path, capsys,
                                                     monkeypatch, truth):
    argv = write_biomarker_inputs(tmp_path)
    write_tensor(tmp_path / "pre_truth.pmt", truth)
    monkeypatch.setattr("perturbmpm.cli.run_biomarker_experiment",
                        lambda *args, **kwargs: pytest.fail("sampled"))
    out = tmp_path / "r.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert "pre_truth.pmt: truth labels must lie in [0, 2)" in \
        capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "r.csv.manifest.txt").exists()


def test_seed_flag_outside_philox_keys_is_data_error(model_cfg, tmp_path,
                                                      capsys):
    out = str(tmp_path / "s.pmt")
    for argv in (["sample", "--model", str(model_cfg), "--out", out],
                 ["oracle-check", "--n", "3", "--samples", "10"],
                 ["synth-experiment", "--out", out, "--grids", "3",
                  "--samples", "5", "--inits", "1"]):
        for seed in ("-3", str(2 ** 64)):
            assert main(argv + ["--seed", seed]) == 2
            assert "seed must be an integer in [0, 2**64)" in \
                capsys.readouterr().err


def test_cli_import_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(__file__).resolve().parent.parent / "src"),
        env.get("PYTHONPATH")]))
    code = ("import sys, perturbmpm.cli; print(sorted("
            "m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("flag, value", [
    ("--threshold", "-1"), ("--threshold", "nan"), ("--threshold", "inf"),
    ("--samples", "0")])
@pytest.mark.parametrize("command", ["uncertainty", "biomarker"])
def test_invalid_override_is_data_error(model_cfg, tmp_path, capsys,
                                        command, flag, value):
    out = tmp_path / "out"
    if command == "uncertainty":
        argv = ["uncertainty", "--model", str(model_cfg)]
    else:
        argv = write_biomarker_inputs(tmp_path)
    assert main(argv + [flag, value, "--out", str(out)]) == 2
    assert f"pmpm: error: {flag[2:]}: " in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "out.manifest.txt").exists()


def test_heatmap_on_non_2d_grid_writes_nothing(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dims = 2 2 2\nlabels = 2\nsamples = 5\n")
    out = tmp_path / "h.pmt"
    assert main(["uncertainty", "--model", str(cfg), "--out", str(out),
                 "--heatmap", str(tmp_path / "h.pgm")]) == 2
    assert "PGM heatmaps require a 2-d grid" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


@pytest.mark.parametrize("dims, images, message", [
    ("2 2 2", [np.zeros((2, 2))] * 2,
     "PGM probability maps require a 2-d grid"),
    ("2 2", [np.zeros((2, 2)), np.array([[9, 9], [0, 9]])],
     "probability maps assign zero mass at some voxel")])
def test_unusable_probability_maps_are_data_errors(tmp_path, capsys, dims,
                                                   images, message):
    for name, image in zip("ab", images):
        write_pgm(tmp_path / f"{name}.pgm", image)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"dims = {dims}\nlabels = 2\nprob_map = a.pgm b.pgm\n")
    out = tmp_path / "q.pmt"
    assert main(["infer", "--model", str(cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("label", ["5", "2", "-1"])
def test_biomarker_rejects_target_label_out_of_range(tmp_path, capsys, label):
    argv = write_biomarker_inputs(tmp_path)
    out = tmp_path / "r.csv"
    assert main(argv + ["--target-label", label, "--out", str(out)]) == 2
    assert f"--target-label must lie in [0, 2), got {label}" in \
        capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("backend", ["exact", "lattice"])
@pytest.mark.parametrize("command", ["infer", "uncertainty"])
def test_an_iteration_cap_beyond_int64_is_a_data_error(
        model_cfg, tmp_path, capsys, command, backend):
    cfg = tmp_path / "big.cfg"
    cfg.write_text(model_cfg.read_text()
                   + f"backend = {backend}\niterations = {10 ** 20 - 1}\n")
    out = tmp_path / "t.pmt"
    assert main([command, "--model", str(cfg), "--out", str(out)]) == 2
    assert "iterations: must be < 2**63" in capsys.readouterr().err
    assert not out.exists()
