"""End-to-end acceptance checks.

Each test prints a single [PASS]/[FAIL] line (visible with `pytest -s` or
on failure) and asserts the documented tolerance.
"""
import time

import numpy as np
import pytest

import perturbmpm as pm
from perturbmpm.cli import main
from perturbmpm.evaluation import random_grid_model


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_01_gumbel_max_fidelity():
    """Selection frequencies reproduce the softmax distribution."""
    target = np.array([0.6, 0.3, 0.1])
    theta = -np.log(target)
    t0 = time.time()
    draws = pm.gumbel_max_select_many(theta, 0, 10 ** 6)
    elapsed = time.time() - t0
    freqs = np.bincount(draws, minlength=3) / len(draws)
    dev = np.abs(freqs - target).max()
    report("gumbel-max fidelity",
           dev <= 0.005 and elapsed < 5.0,
           f"max deviation {dev:.5f} (tol 0.005), {elapsed:.1f}s (budget 5s)")


def test_02_full_order_perturbation_exact():
    """Full-order perturbed MAP draws follow the Gibbs distribution."""
    rng = np.random.default_rng(7)
    p0 = rng.random(6)
    unary = pm.unaries_from_probabilities(np.stack([p0, 1 - p0], axis=1))
    model = pm.build_grid_model((2, 3), 2, unary, [(1.0, 1.0)])
    exact = pm.exact_marginals(pm.enumerate_gibbs(model))
    t0 = time.time()
    draws = pm.perturb_and_map_full_order_many(
        model, 0, 10 ** 5)
    elapsed = time.time() - t0
    emp = pm.empirical_marginals(pm.SampleSet(draws, 2))
    tv = pm.voxelwise_total_variation(emp, exact).max()
    report("full-order perturbation",
           tv <= 0.02 and elapsed < 60.0,
           f"worst voxel TV {tv:.5f} (tol 0.02), {elapsed:.1f}s (budget 60s)")


@pytest.mark.slow
def test_03_error_curve_trends():
    """Sampled-marginal error converges and undercuts plain mean field."""
    t0 = time.time()
    cfg = pm.SyntheticExperimentConfig(
        sample_counts=(10, 50, 100, 1000, 10000, 100000))
    curve = pm.run_synthetic_experiment(cfg)
    elapsed = time.time() - t0
    converges = all(
        curve.row(n, 100000).sampled_error <= curve.row(n, 10).sampled_error
        for n in cfg.grid_sizes)
    undercuts = all(
        r.sampled_error <= r.mean_field_error
        for r in curve.rows if r.n_voxels in (9, 12) and r.n_samples >= 50)
    ok = converges and undercuts and elapsed < 1800
    if not ok:
        for r in curve.rows:
            print(f"  N={r.n_voxels} T={r.n_samples} "
                  f"sampled={r.sampled_error:.4f} mf={r.mean_field_error:.4f}")
    report("error-curve trends", ok,
           f"converges={converges} undercuts-mean-field={undercuts} "
           f"{elapsed:.0f}s (budget 1800s)")


def test_04_hoeffding_coverage():
    """185 samples keep a Bernoulli(0.5) estimate within 0.1 (95% coverage)."""
    size = pm.required_sample_size(0.1, 0.05, 1)
    assert size == 185
    model = pm.DenseCrfModel((1,), 2, np.zeros((1, 2)))
    t0 = time.time()
    failures = 0
    for rep in range(1000):
        run = pm.perturb_and_mpm(model, pm.SamplingConfig(size, seed=rep))
        f_hat = pm.empirical_marginals(run)[0, 0]
        if abs(f_hat - 0.5) >= 0.1:
            failures += 1
    elapsed = time.time() - t0
    rate = failures / 1000
    report("hoeffding coverage",
           rate <= 0.05 and elapsed < 10.0,
           f"miss rate {rate:.4f} (tol 0.05) at |S|={size}, "
           f"{elapsed:.1f}s (budget 10s)")


def test_05_entropy_bound():
    """Entropy differences never exceed the TV-based bound; known ceiling."""
    rng = np.random.default_rng(0)
    violations = 0
    for m in (2, 3, 4, 8):
        p = rng.dirichlet(np.ones(m), size=1000)
        q = rng.dirichlet(np.ones(m), size=1000)
        tv = pm.voxelwise_total_variation(p, q)
        gap = np.abs(pm.entropy_map(p) - pm.entropy_map(q))
        bound = np.array([pm.entropy_error_bound(min(t, 1.0), m) for t in tv])
        violations += int(np.sum(gap > bound + 1e-12))
    ceiling = pm.entropy_error_bound(1.0, 4)
    ok = violations == 0 and abs(ceiling - 1.585) <= 1e-3
    report("entropy bound", ok,
           f"{violations} violations; m=4 TV=1 ceiling {ceiling:.4f} "
           f"(target 1.585 +- 1e-3)")


def test_06_mean_field_correctness():
    """Exact softmax on factorized models; KL descent on coupled grids."""
    from scipy.special import softmax

    rng = np.random.default_rng(1)
    single = pm.DenseCrfModel((1,), 3, rng.random((1, 3)))
    q1, _ = pm.mean_field_infer(single)
    err1 = np.abs(q1 - softmax(-single.unary, axis=1)).max()
    free = pm.DenseCrfModel((5,), 2, rng.random((5, 2)))
    q2, _ = pm.mean_field_infer(free)
    err2 = np.abs(q2 - softmax(-free.unary, axis=1)).max()
    worst_rise = -np.inf
    for n in (4, 6, 9, 12):
        for seed in range(5):
            for w in (0.5, 1.0, 2.0):
                model = random_grid_model(n, seed, kernel_weight=w)
                dist = pm.enumerate_gibbs(model)
                solver = pm.MeanField(model)
                q = softmax(-model.unary, axis=1)
                prev = pm.kl_product_vs_exact(q, model, dist)
                for _ in range(10):
                    q = solver.step(q)
                    cur = pm.kl_product_vs_exact(q, model, dist)
                    worst_rise = max(worst_rise, cur - prev)
                    prev = cur
    ok = err1 <= 1e-12 and err2 <= 1e-12 and worst_rise <= 1e-6
    report("mean-field correctness", ok,
           f"softmax errors {err1:.2e}/{err2:.2e} (tol 1e-12), "
           f"worst KL increase {worst_rise:.2e} (tol 1e-6)")


def test_07_backend_equivalence():
    """Lattice backend matches the exact backend and stays fast."""
    rng = np.random.default_rng(0)
    yy, xx = np.mgrid[0:32, 0:32]
    disk = ((yy - 16) ** 2 + (xx - 16) ** 2 <= 81).astype(float)
    p1 = np.clip(0.2 + 0.6 * disk + rng.normal(0.0, 0.15, (32, 32)),
                 0.02, 0.98).ravel()
    unary = pm.unaries_from_probabilities(np.stack([1 - p1, p1], axis=1))
    model = pm.build_grid_model((32, 32), 2, unary, [(1.0, 1.0)])
    qe, _ = pm.mean_field_infer(model, pm.InferenceConfig(backend="exact"))
    ql, _ = pm.mean_field_infer(model, pm.InferenceConfig(backend="lattice"))
    dev = np.abs(qe - ql).max()

    probs = np.random.default_rng(1).dirichlet(np.ones(4), size=128 * 128)
    big = pm.build_grid_model((128, 128), 4,
                              pm.unaries_from_probabilities(probs),
                              [(1.0, 1.0)])
    t0 = time.time()
    pm.mean_field_infer(big, pm.InferenceConfig(
        max_iterations=10, convergence_tol=0.0, backend="lattice"))
    elapsed = time.time() - t0
    report("backend equivalence",
           dev <= 0.01 and elapsed < 10.0,
           f"32x32 max-abs {dev:.5f} (tol 0.01); 128x128 4-label 10-iter "
           f"{elapsed:.1f}s (budget 10s)")


def test_08_paired_map_mpm_consistency():
    """Shared-noise MAP and MPM marginals differ by at most the hamming rate."""
    worst_margin = -np.inf
    detail = []
    for n in (6, 9):
        for seed in (0, 1):
            model = random_grid_model(n, seed, kernel_weight=2.0)
            maps = pm.perturb_and_map_order1_many(model, seed=seed,
                                                  count=10 ** 4)
            mpm = pm.perturb_and_mpm(model, pm.SamplingConfig(10 ** 4,
                                                              seed=seed))
            f_map = pm.empirical_marginals(pm.SampleSet(maps, 2))
            f_mpm = pm.empirical_marginals(mpm)
            tv = pm.total_variation(f_map, f_mpm)
            ham = float(np.mean(maps != mpm.labels))
            worst_margin = max(worst_margin, tv - ham)
            detail.append(f"N={n}/seed={seed}: tv={tv:.4f} ham={ham:.4f}")
    report("paired MAP/MPM consistency",
           worst_margin <= 0.02,
           f"worst tv-hamming margin {worst_margin:.4f} (tol 0.02); "
           + "; ".join(detail))


def test_09_biomarker_correction():
    """Dropping high-entropy voxels shrinks the residual-volume error."""
    for a, b, want in ((100.0, 0.0, 1.0), (100.0, 100.0, 0.0),
                       (100.0, 40.0, 0.6)):
        assert pm.compute_eor(a, b) == want
    truth_pre = np.array([1] * 30 + [0] * 20)
    truth_post = np.array([1] * 6 + [0] * 44)

    def planted(truth, wrong):
        probs = np.full((len(truth), 2), 1e-9)
        probs[np.arange(len(truth)), truth] = 1.0
        for i in wrong:
            probs[i] = (0.35, 0.65) if truth[i] == 0 else (0.65, 0.35)
        return pm.DenseCrfModel(
            (len(truth),), 2,
            pm.unaries_from_probabilities(
                probs / probs.sum(axis=1, keepdims=True)))

    pre_model = planted(truth_pre, wrong=[30, 31, 32, 33])
    post_model = planted(truth_post, wrong=[6, 7, 8, 9])
    rep = pm.run_biomarker_experiment(
        pre_model, post_model, truth_pre, truth_post,
        pm.SamplingConfig(200, seed=0), target_label=1, threshold=0.1)
    ok = rep.rtv_error_corrected < rep.rtv_error
    report("biomarker correction", ok,
           f"RTV error corrected {rep.rtv_error_corrected:.2f} < "
           f"uncorrected {rep.rtv_error:.2f}")


def test_10_bitwise_determinism(tmp_path):
    """Re-running every stochastic pipeline reproduces identical bytes."""
    unary = np.random.default_rng(0).random((16, 2))
    pm.write_tensor(tmp_path / "u.pmt", unary)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dims = 4 4\nlabels = 2\nunary = u.pmt\n"
                   "kernel = 1.0 1.0\nsamples = 40\nseed = 5\n")
    jobs = [
        ["sample", "--model", str(cfg), "--out", None],
        ["uncertainty", "--model", str(cfg), "--out", None],
        ["infer", "--model", str(cfg), "--out", None],
        ["synth-experiment", "--grids", "4", "--samples", "20",
         "--inits", "2", "--out", None],
    ]
    identical = True
    for k, job in enumerate(jobs):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{k}_{tag}.out"
            argv = [a if a is not None else str(out) for a in job]
            assert main(argv) == 0
            outs.append(out.read_bytes())
        identical = identical and outs[0] == outs[1]
    report("bitwise determinism", identical,
           f"{len(jobs)} pipelines re-run with identical seeds")


def test_11_exact_grid_scale():
    """The exact backend solves a 128x128 4-label grid without an N x N
    matrix, within the time the lattice budget allows."""
    probs = np.random.default_rng(1).dirichlet(np.ones(4), size=128 * 128)
    big = pm.build_grid_model((128, 128), 4,
                              pm.unaries_from_probabilities(probs),
                              [(1.0, 1.0)])
    t0 = time.time()
    q, n_iter = pm.mean_field_infer(big, pm.InferenceConfig(
        max_iterations=10, convergence_tol=0.0, backend="exact"))
    elapsed = time.time() - t0
    rows = np.abs(q.sum(axis=1) - 1.0).max()
    report("exact grid scale",
           n_iter == 10 and rows <= 1e-12 and elapsed < 5.0,
           f"128x128 4-label 10-iter {elapsed:.2f}s (budget 5s), "
           f"row-sum error {rows:.1e}")
