import math
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.special import softmax

from perturbmpm import (CapacityError, DenseCrfModel, GaussianKernel,
                        InferenceConfig, MeanField, ModelShapeError,
                        PermutohedralLattice, SamplingConfig,
                        build_grid_model, grid_coordinates, mean_field_infer,
                        mpm_decode, perturb_and_mpm)
import perturbmpm.gumbel as gumbel
import perturbmpm.lattice as lattice_module
import perturbmpm.meanfield as meanfield


def grid_model(n=4, weight=1.0, seed=0):
    rng = np.random.default_rng(seed)
    unary = rng.random((n, 2))
    return build_grid_model((n,), 2, unary, [(weight, 1.0)])


def assert_marginal_field(q, atol=1e-9):
    """q is a row-stochastic (N, m) field."""
    assert q.ndim == 2
    assert np.all(q >= -atol) and np.all(q <= 1 + atol)
    assert np.max(np.abs(q.sum(axis=1) - 1.0)) <= atol


def test_init_is_softmax_of_negated_unaries():
    model = grid_model()
    q = meanfield._bind_softmax(model.unary, np.empty_like(model.unary))()
    assert np.allclose(q, softmax(-model.unary, axis=1))
    assert_marginal_field(q)


def test_zero_kernel_fixed_point_is_softmax():
    rng = np.random.default_rng(3)
    unary = rng.random((5, 3))
    model = DenseCrfModel((5,), 3, unary)
    q, n_iter = mean_field_infer(model, InferenceConfig())
    assert np.allclose(q, softmax(-unary, axis=1), atol=1e-12)
    assert n_iter == 1


def test_single_node_exact():
    unary = np.array([[0.2, 1.1, 0.4]])
    model = DenseCrfModel((1,), 3, unary)
    q, _ = mean_field_infer(model)
    assert np.allclose(q, softmax(-unary, axis=1), atol=1e-12)


def test_message_pass_exact_brute_force():
    model = grid_model(n=3, weight=1.3)
    q = softmax(-model.unary, axis=1)
    msgs = MeanField(model).messages(q)
    from perturbmpm import kernel_weight
    for i in range(3):
        for l in range(2):
            want = sum(kernel_weight(model.kernels[0], i, j) * (1 - q[j, l])
                       for j in range(3) if j != i)
            assert msgs[i, l] == pytest.approx(want)


def brute_force_messages(model, q):
    """sum_{j != i} k(i, j) (1 - q_j(l)), kernel by kernel, from the
    features of every voxel pair."""
    out = np.zeros(np.shape(q))
    for kernel in model.kernels:
        z = ((kernel.features[:, None, :] - kernel.features[None, :, :])
             / kernel.bandwidths)
        k = kernel.weight * np.exp(-0.5 * (z ** 2).sum(axis=2))
        np.fill_diagonal(k, 0.0)
        out += k.sum(axis=1)[:, None] - np.einsum("ij,...jl->...il", k, q)
    return out


def random_marginals(shape, seed):
    return np.random.default_rng(seed).dirichlet(np.ones(shape[-1]),
                                                 size=shape[:-1])


@pytest.mark.parametrize("dims, kernels", [
    ((17,), [(1.3, 2.0)]),
    ((6, 9), [(1.0, (1.5, 3.0)), (0.7, (4.0, 0.8))]),
    ((3, 4, 5), [(0.9, (1.0, 2.0, 1.5))]),
    ((4, 1, 5), [(1.1, (0.7, 1.0, 2.5))]),
    ((1, 7), [(2.0, 1.2)]),
])
def test_grid_kernel_messages_match_brute_force(dims, kernels):
    n = int(np.prod(dims))
    model = build_grid_model(dims, 3, np.zeros((n, 3)), kernels)
    passer = MeanField(model)
    # no N x N matrix unless one axis holds the whole grid
    sizes = [f.shape[0] for op in passer._operators for f, _ in op.args[0]]
    assert (n in sizes) == (sum(d > 1 for d in dims) <= 1)
    for shape in ((n, 3), (5, n, 3)):
        q = random_marginals(shape, seed=len(shape))
        err = np.abs(passer.messages(q) - brute_force_messages(model, q))
        assert err.max() <= 1e-12


def test_far_pairs_underflow_to_zero():
    dims = (60, 3)
    reversed_grid = GaussianKernel(0.5, grid_coordinates(dims)[::-1],
                                   (1.5, 1.5))
    model = build_grid_model(dims, 2, np.zeros((180, 2)),
                             [(1.0, 1.5), reversed_grid])
    passer = MeanField(model)
    tiny = np.finfo(np.float64).tiny
    for k in (op.args[0][0][0] for op in passer._operators):
        assert k.min() == 0.0
        assert np.all((k == 0.0) | (k >= tiny))
    q = random_marginals((180, 2), seed=4)
    err = np.abs(passer.messages(q) - brute_force_messages(model, q))
    assert err.max() <= 1e-12


def test_weighted_axis_factors_hold_no_subnormal_entry():
    # weight 0.25 scales entries just above the smallest normal double
    # below it; the cut-off comes after the weight
    kernel = GaussianKernel(0.25, grid_coordinates((96, 96)), (1.01, 1.01))
    tiny = np.finfo(np.float64).tiny
    for k, _ in meanfield._exact_links((96, 96), 3, kernel):
        assert k.min() == 0.0
        assert np.all((k == 0.0) | (k >= tiny))


@pytest.mark.parametrize("reorder", ["permuted", "random"])
def test_non_grid_features_take_dense_path(reorder):
    dims = (4, 5)
    rng = np.random.default_rng(6)
    coords = grid_coordinates(dims)
    features = (coords[rng.permutation(20)] if reorder == "permuted"
                else rng.random((20, 2)) * 4.0)
    kernels = [GaussianKernel(0.8, features, (1.5, 2.0)), (1.2, (1.0, 2.5))]
    model = build_grid_model(dims, 3, np.zeros((20, 3)), kernels)
    passer = MeanField(model)
    assert [[f.shape for f, _ in op.args[0]] for op in passer._operators] \
        == [[(20, 20)], [(4, 4), (5, 5)]]
    for shape in ((20, 3), (4, 20, 3)):
        q = random_marginals(shape, seed=7)
        err = np.abs(passer.messages(q) - brute_force_messages(model, q))
        assert err.max() <= 1e-12


@pytest.mark.parametrize("backend", ["exact", "lattice"])
@pytest.mark.parametrize("dims", [(1,), (1, 1)])
def test_single_voxel_messages_match_brute_force(dims, backend):
    model = build_grid_model(dims, 3, np.zeros((1, 3)),
                             [(1.3, 2.0), (0.4, 0.7)])
    passer = MeanField(model, InferenceConfig(backend=backend))
    for shape in ((1, 3), (5, 1, 3)):
        q = random_marginals(shape, seed=len(shape))
        err = np.abs(passer.messages(q) - brute_force_messages(model, q))
        assert err.max() <= 1e-12


@pytest.mark.parametrize("m", [2, 3, 5])
def test_lattice_messages_match_every_channel_filtered(m):
    dims = (6, 7)
    model = build_grid_model(dims, m, np.zeros((42, m)),
                             [(1.3, (1.5, 2.0)), (0.6, 3.0)])
    solver = MeanField(model, InferenceConfig(backend="lattice"))
    lattices = [PermutohedralLattice(k.scaled_features())
                for k in model.kernels]
    weight = sum(k.weight for k in model.kernels)
    for shape in ((42, m), (4, 42, m)):
        q = random_marginals(shape, seed=m)
        stacked = np.moveaxis(1.0 - q, -2, 0)  # every channel, one call
        want = sum(k.weight * lattice.filter(stacked.reshape(42, -1))
                   for k, lattice in zip(model.kernels, lattices))
        want = np.moveaxis(want.reshape(stacked.shape), 0, -2)
        want -= weight * (1.0 - q)
        assert np.abs(solver.messages(q) - want).max() <= 1e-12


def test_exact_matrix_over_guard_raises_before_allocating():
    model = build_grid_model((8193,), 2, np.zeros((8193, 2)), [(1.0, 1.0)])
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            MeanField(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 8193 ** 2 > meanfield.MAX_MATRIX_VALUES
    assert peak < 8 * 8193 ** 2 // 100


def test_step_rows_sum_to_one():
    model = grid_model(n=6, weight=2.0)
    q = MeanField(model).step(softmax(-model.unary, axis=1))
    assert_marginal_field(q)


def test_step_rejects_wrong_shape():
    model = grid_model()
    with pytest.raises(ModelShapeError):
        MeanField(model).step(np.zeros((3, 2)))


@pytest.mark.parametrize("backend", ["exact", "lattice"])
@pytest.mark.parametrize("shape", [(32, 2), (16, 3), (16,)])
def test_messages_and_step_reject_wrong_shapes(backend, shape):
    model = grid_model(n=16)
    solver = MeanField(model, InferenceConfig(backend=backend))
    q = np.full(shape, 0.5)
    for call in (solver.messages, solver.step):
        with pytest.raises(ModelShapeError, match="does not match model"):
            call(q)


@pytest.mark.parametrize("backend", ["exact", "lattice"])
def test_infer_takes_only_a_batch_of_unary_fields(backend):
    model = grid_model(n=16)
    solver = MeanField(model, InferenceConfig(backend=backend))
    for shape in ((16, 2), (1, 32, 2), (2, 16, 3), (1, 1, 16, 2)):
        with pytest.raises(ModelShapeError, match="does not match model"):
            solver.infer(np.zeros(shape))
    q, iterations, converged = solver.infer(np.zeros((0, 16, 2)))
    assert (q.shape, iterations.shape, converged.shape) == \
        ((0, 16, 2), (0,), (0,))


def test_sample_values_count_every_lattice():
    model = build_grid_model((8, 8), 3, np.zeros((64, 3)),
                             [(1.0, 1.0), (0.5, 2.0)])
    vertices = [PermutohedralLattice(kernel.scaled_features()).n_lattice
                for kernel in model.kernels]
    lattice = MeanField(model, InferenceConfig(backend="lattice"))
    assert lattice.sample_values == 3 * 64 + 2 * sum(vertices)
    assert MeanField(model).sample_values == 3 * 64


def test_infer_reaches_fixed_point():
    model = grid_model(n=5, weight=0.8, seed=7)
    cfg = InferenceConfig(max_iterations=200, convergence_tol=1e-12)
    q, n_iter = mean_field_infer(model, cfg)
    q_next = MeanField(model).step(q)
    assert np.abs(q_next - q).max() < 1e-10
    assert n_iter < 200


def test_batched_matches_sequential():
    model = grid_model(n=5, weight=1.0, seed=1)
    rng = np.random.default_rng(9)
    unaries = rng.random((7, 5, 2))
    cfg = InferenceConfig()
    passer = MeanField(model, cfg)
    q_batch, it_batch, ok_batch = passer.infer(unaries)
    for t in range(7):
        q_one, it_one, ok_one = passer.infer(unaries[t:t + 1])
        assert np.array_equal(q_batch[t], q_one[0])
        assert it_batch[t] == it_one[0]
        assert ok_batch[t] == ok_one[0]


def test_batched_matches_sequential_on_2d_grid():
    model = build_grid_model((5, 7), 3, np.zeros((35, 3)),
                             [(1.5, (1.0, 2.0))])
    unaries = np.random.default_rng(2).random((6, 35, 3))
    cfg = InferenceConfig(max_iterations=30)
    passer = MeanField(model, cfg)
    q_batch, it_batch, ok_batch = passer.infer(unaries)
    for t in range(6):
        q_one, it_one, ok_one = passer.infer(unaries[t:t + 1])
        assert np.array_equal(q_batch[t], q_one[0])
        assert (it_batch[t], ok_batch[t]) == (it_one[0], ok_one[0])


def test_infer_batched_reports_convergence():
    model = grid_model(n=5, weight=1.0, seed=1)
    unaries = np.random.default_rng(3).random((2, 5, 2))
    _, iterations, converged = MeanField(
        model, InferenceConfig(max_iterations=2)).infer(unaries)
    assert iterations.tolist() == [2, 2] and not converged.any()
    _, iterations, converged = MeanField(
        model, InferenceConfig(max_iterations=200)).infer(unaries)
    assert converged.all() and np.all(iterations < 200)


def test_mpm_decode_tie_breaks_low():
    q = np.array([[0.5, 0.5], [0.2, 0.8], [0.8, 0.2]])
    assert mpm_decode(q).tolist() == [0, 1, 0]


@pytest.mark.parametrize("m", [2, 3, 5, 8, 9])
def test_mpm_decode_bitwise_equals_argmax(m):
    rng = np.random.default_rng(m)
    q = rng.random((4, 30, m))
    q[0, :5] = 0.5                           # every label tied
    q[0, 5:10, -1] = q[0, 5:10].max(-1)      # a tie with the first label
    q[0, 5:10, 0] = q[0, 5:10, -1]
    top = q[1, :10].max(-1) + 1.0            # a tie between later labels
    q[1, :10, m // 2] = top
    q[1, :10, m - 1] = top
    q[2, :5] = -0.0                          # signed zeros tie too
    q[2, :5, m - 1] = 0.0
    for field in (q[1, 3], q[1], q):         # 1-d, 2-d and 3-d
        got, want = mpm_decode(field), np.argmax(field, axis=-1)
        assert np.array_equal(got, want)
        assert np.shape(got) == np.shape(want)
        assert got.dtype == want.dtype == np.intp


def test_mpm_decode_nan_rule():
    nan = np.nan
    q = np.array([[nan, 0.2, 0.9],    # a NaN first: label 0
                  [0.1, nan, 0.9],    # the argmax of the entries before it
                  [0.1, 0.5, nan],
                  [0.5, 0.5, nan],
                  [nan, nan, nan]])
    assert mpm_decode(q).tolist() == [0, 0, 1, 0, 0]
    assert mpm_decode(q[:, :2]).tolist() == [0, 0, 1, 0, 0]


def reference_infer(solver, unaries):
    """MeanField.infer as a plain loop: per-sample max |change| by
    .max(axis=(1, 2)), gathering and scattering the active rows."""
    cfg = solver.cfg
    q = reduction_softmax_neg(unaries)
    t = q.shape[0]
    iterations = np.full(t, cfg.max_iterations)
    active = np.arange(t)
    for it in range(cfg.max_iterations):
        q_new = reduction_softmax_neg(unaries[active]
                                      + solver.messages(q[active]))
        delta = np.abs(q_new - q[active]).max(axis=(1, 2))
        q[active] = q_new
        done = delta < cfg.convergence_tol
        iterations[active[done]] = it + 1
        active = active[~done]
        if active.size == 0:
            break
    converged = np.ones(t, dtype=bool)
    converged[active] = False
    return q, iterations, converged


@pytest.mark.parametrize("backend", ["exact", "lattice"])
def test_infer_equals_reference_loop(backend):
    model = build_grid_model((4, 5), 3, np.zeros((20, 3)),
                             [(0.8, (1.0, 2.0))])
    rng = np.random.default_rng(4)
    # unaries from flat to peaked: entries converge at different sweeps
    unaries = rng.normal(size=(12, 20, 3)) * np.geomspace(
        0.05, 20.0, 12)[:, None, None]
    cfg = InferenceConfig(max_iterations=25, convergence_tol=1e-9,
                          backend=backend)
    solver = MeanField(model, cfg)
    got = solver.infer(unaries)
    want = reference_infer(solver, unaries)
    assert len(set(got[1].tolist())) >= 4 and got[2].any()
    for a, b in zip(got, want):
        assert np.array_equal(a, b) and a.dtype == b.dtype
    for lone in (unaries[:1], unaries[-1:], model.unary[None]):
        for a, b in zip(solver.infer(lone), reference_infer(solver, lone)):
            assert np.array_equal(a, b)


def test_inference_config_validation():
    with pytest.raises(ValueError):
        InferenceConfig(max_iterations=0)
    with pytest.raises(ValueError):
        InferenceConfig(convergence_tol=-1.0)
    with pytest.raises(ValueError):
        InferenceConfig(backend="magic")


def lattice_sampling_model():
    unary = np.random.default_rng(3).random((12, 3))
    return build_grid_model((3, 4), 3, unary, [(1.0, 1.5)])


def test_lattice_filter_calls_hold_at_most_the_budgets_samples(monkeypatch):
    model = lattice_sampling_model()
    cfg = SamplingConfig(100, seed=2,
                         inference=InferenceConfig(backend="lattice"))
    monkeypatch.setattr(gumbel, "_BATCH_VALUES",
                        10 * MeanField(model, cfg.inference).sample_values)
    channels = []
    original = PermutohedralLattice.filter

    def recording(self, values, *buffers):
        channels.append(1 if values.ndim == 1 else values.shape[1])
        return original(self, values, *buffers)

    monkeypatch.setattr(PermutohedralLattice, "filter", recording)
    perturb_and_mpm(model, cfg)
    assert max(channels) == 10 * 2


def test_lattice_sampling_bitwise_across_batch_sizes():
    model = lattice_sampling_model()
    cfg = SamplingConfig(100, seed=2,
                         inference=InferenceConfig(backend="lattice"))
    whole = perturb_and_mpm(model, cfg, batch_size=2048)
    assert np.array_equal(whole.labels,
                          perturb_and_mpm(model, cfg, batch_size=7).labels)


@pytest.mark.parametrize("backend", ["exact", "lattice"])
def test_reused_solver_matches_fresh_bitwise(backend):
    model = build_grid_model((4, 6), 3, np.zeros((24, 3)),
                             [(1.2, (1.0, 2.0)), (0.5, 3.0)])
    cfg = InferenceConfig(max_iterations=15, backend=backend)
    solver = MeanField(model, cfg)
    for seed in range(3):
        unaries = np.random.default_rng(seed).random((4, 24, 3))
        q = random_marginals((24, 3), seed=seed)
        for got, want in zip(solver.infer(unaries),
                             MeanField(model, cfg).infer(unaries)):
            assert np.array_equal(got, want)
        assert np.array_equal(solver.step(q), MeanField(model, cfg).step(q))


@pytest.mark.parametrize("backend", ["exact", "lattice"])
def test_wrappers_equal_solver_methods_bitwise(backend):
    model = grid_model(n=7, weight=1.5, seed=2)
    cfg = InferenceConfig(max_iterations=30, backend=backend)
    solver = MeanField(model, cfg)
    q = softmax(-model.unary, axis=1)
    fresh = MeanField(model, InferenceConfig(backend=backend))
    assert np.array_equal(fresh.step(q), solver.step(q))
    q_one, iterations, _ = solver.infer(model.unary[None])
    q_wrap, n_iter = mean_field_infer(model, cfg)
    assert np.array_equal(q_wrap, q_one[0])
    assert n_iter == iterations[0]


@pytest.mark.parametrize("backend", ["exact", "lattice"])
def test_messages_without_kernels_keep_shape(backend):
    model = DenseCrfModel((2, 3), 4, np.zeros((6, 4)))
    solver = MeanField(model, InferenceConfig(backend=backend))
    for shape in ((6, 4), (5, 6, 4)):
        msgs = solver.messages(random_marginals(shape, seed=1))
        assert msgs.shape == shape and not msgs.any()


def reduction_softmax_neg(e):
    """softmax(-e) with numpy's last-axis reductions."""
    out = np.exp(e.min(-1, keepdims=True) - e)
    return out / out.sum(-1, keepdims=True)


@pytest.mark.parametrize("m", [2, 3, 5, 8, 9])
def test_softmax_neg_bitwise_equals_reduction_form(m):
    e = np.random.default_rng(m).normal(size=(6, 50, m))
    e[0] *= 1e3
    e[1, :10, 1:] = e[1, :10, :1]       # rows tied throughout
    e[1, 10:20, -1] = e[1, 10:20, 0]    # one tie with the first label
    e[2, :10, m // 2] = np.inf          # a zero-probability label
    # bound once, then rerun on new contents, as each sweep reruns it
    for shape in (e.shape, e.shape[1:], (m,)):
        field = np.empty(shape)
        out = np.empty(shape)
        in_place = meanfield._bind_softmax(field, field,
                                           np.empty(shape[:-1]))
        into = meanfield._bind_softmax(field, out)
        for k in range(e.shape[0]):
            rows = np.roll(e.reshape(-1, m), -50 * k, axis=0)
            np.copyto(field, rows[:math.prod(shape[:-1])].reshape(shape))
            want = reduction_softmax_neg(field)
            assert into() is out and np.array_equal(out, want)
            if shape == e.shape and k == 0:
                assert np.all(out[2, :10, m // 2] == 0.0)
            assert in_place() is field and np.array_equal(field, want)


@pytest.mark.parametrize("backend", ["exact", "lattice"])
def test_bound_softmax_follows_a_shrinking_reordered_active_set(
        monkeypatch, backend):
    model = build_grid_model((4, 5), 3, np.zeros((20, 3)),
                             [(0.8, (1.0, 2.0))])
    rng = np.random.default_rng(7)
    # flat to peaked unaries, shuffled: entries converge at different
    # sweeps, some before entries behind them, so the slots reorder
    unaries = rng.normal(size=(12, 20, 3)) * rng.permutation(
        np.geomspace(0.05, 20.0, 12))[:, None, None]
    cfg = InferenceConfig(max_iterations=25, convergence_tol=1e-9,
                          backend=backend)
    solver = MeanField(model, cfg)
    want = reference_infer(solver, unaries)
    first = want[1] == want[1].min()
    assert np.flatnonzero(first)[0] < np.flatnonzero(~first)[-1]
    runs = []
    original = meanfield._bind_softmax

    def recording(e, out, scratch=None):
        run = original(e, out, scratch)

        def counted():
            runs.append(e.shape[0])
            return run()
        return counted

    monkeypatch.setattr(meanfield, "_bind_softmax", recording)
    got = solver.infer(unaries)
    for a, b in zip(got, want):
        assert np.array_equal(a, b) and a.dtype == b.dtype
    # the start's softmax, then each sweep's over its active entries alone
    iterations = want[1]
    active = [np.count_nonzero(iterations > it)
              for it in range(iterations.max())]
    assert runs == [len(unaries)] + active and len(set(active)) >= 4


@pytest.mark.parametrize("dims, backend, n_samples", [
    ((32, 32), "exact", 40), ((3, 4), "lattice", 100)])
def test_sampled_labels_bitwise_equal_reduction_softmax(
        monkeypatch, dims, backend, n_samples):
    n = int(np.prod(dims))
    unary = np.random.default_rng(5).random((n, 3)) * 2.0
    model = build_grid_model(dims, 3, unary, [(1.5, 1.0), (0.5, 3.0)])
    cfg = SamplingConfig(n_samples, seed=4,
                         inference=InferenceConfig(backend=backend))
    sliced = perturb_and_mpm(model, cfg).labels
    in_place = []

    def reduction_bound(e, out, scratch=None):
        def run():
            in_place.append(out is e)
            out[...] = reduction_softmax_neg(e)
            return out
        return run

    # every softmax a solve runs is bound here: each solve's first, from
    # the unaries into q, and the sweeps', in place
    monkeypatch.setattr(meanfield, "_bind_softmax", reduction_bound)
    assert np.array_equal(sliced, perturb_and_mpm(model, cfg).labels)
    assert any(in_place) and not all(in_place)


def test_split_lattice_filter_calls_hold_at_most_a_workers_share(monkeypatch):
    model = lattice_sampling_model()
    cfg = SamplingConfig(100, seed=2,
                         inference=InferenceConfig(backend="lattice"))
    monkeypatch.setattr(gumbel, "_BATCH_VALUES",
                        10 * MeanField(model, cfg.inference).sample_values)
    monkeypatch.setattr(gumbel, "_SPLIT_VALUES", 0)
    monkeypatch.setattr(gumbel, "_workers", lambda: 2)
    channels = []
    original = PermutohedralLattice.filter

    def recording(self, values, *buffers):
        channels.append(1 if values.ndim == 1 else values.shape[1])
        return original(self, values, *buffers)

    monkeypatch.setattr(PermutohedralLattice, "filter", recording)
    perturb_and_mpm(model, cfg)
    # two workers: each batch holds at most half the budget's 10 samples
    assert max(channels) == 5 * 2


def test_inference_config_rejects_a_bool_iteration_cap():
    with pytest.raises(ValueError, match="max_iterations"):
        InferenceConfig(max_iterations=True)


def test_split_sampling_starts_no_threads_in_its_filters(monkeypatch):
    model = build_grid_model((9, 8), 3,
                             np.random.default_rng(6).random((72, 3)),
                             [(1.0, 2.0)])
    cfg = SamplingConfig(12, seed=3,
                         inference=InferenceConfig(backend="lattice"))
    reference = perturb_and_mpm(model, cfg, batch_size=1).labels
    monkeypatch.setattr(gumbel, "_SPLIT_VALUES", 0)
    monkeypatch.setattr(gumbel, "_workers", lambda: 2)
    monkeypatch.setattr(lattice_module, "_VECTOR_CHANNELS", 64)
    inside = threading.local()
    apply, start = meanfield._lattice_apply, threading.Thread.start
    starts = []  # True for a thread started inside a lattice filter

    def marked_apply(*args):
        run = apply(*args)

        def marked_run():
            inside.on = True
            try:
                return run()
            finally:
                inside.on = False

        return marked_run

    def recording_start(thread):
        starts.append(getattr(inside, "on", False))
        start(thread)

    monkeypatch.setattr(meanfield, "_lattice_apply", marked_apply)
    monkeypatch.setattr(threading.Thread, "start", recording_start)
    routines = set()
    loaded = lattice_module._sparsetools()

    class Recorder:
        def __getattr__(self, name):
            routines.add(name)
            return getattr(loaded, name)

    monkeypatch.setattr(lattice_module, "_sparsetools", Recorder)
    run = perturb_and_mpm(model, cfg, batch_size=3)
    assert starts == [False]  # the sampling split's helper only
    assert routines == {"csr_matvec"}  # every filter ran as vectors
    assert np.array_equal(run.labels, reference)


@pytest.mark.parametrize("backend", ["exact", "lattice"])
def test_infer_equals_reference_loop_when_early_entries_converge_first(
        backend):
    model = build_grid_model((4, 5), 3, np.zeros((20, 3)),
                             [(0.8, (1.0, 2.0))])
    # unaries from peaked to flat: an entry converges while later ones,
    # in later slots, are still active
    unaries = np.random.default_rng(4).normal(size=(12, 20, 3)) \
        * np.geomspace(20.0, 0.05, 12)[:, None, None]
    cfg = InferenceConfig(max_iterations=25, convergence_tol=1e-9,
                          backend=backend)
    solver = MeanField(model, cfg)
    got = solver.infer(unaries)
    want = reference_infer(solver, unaries)
    assert got[1][0] < got[1].max() and got[2].any() and not got[2].all()
    for a, b in zip(got, want):
        assert np.array_equal(a, b) and a.dtype == b.dtype


# Above a solve's workspace, tracemalloc sees numpy's iterator buffers for
# the strided label views (64 KiB an operand) and the O(T) arrays: 137 KiB
# at most on these solves.
_SOLVE_SLACK = 160 << 10


def _solve_peak(model, cfg, unaries):
    """tracemalloc peak of one MeanField.infer batch; the unaries (in
    sampling, the noise buffer) exist before tracing starts."""
    solver = MeanField(model, cfg)
    tracemalloc.start()
    try:
        _, iterations, converged = solver.infer(unaries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, iterations, converged


def _unaries(t, n, m, part_converged):
    """Random unaries; for a part-converged batch, from peaked to flat, so
    that entries converge at different sweeps, early entries first."""
    u = np.random.default_rng(1).normal(size=(t, n, m))
    return u * np.geomspace(20.0, 0.05, t)[:, None, None] if part_converged \
        else u


def _assert_part_converged(iterations, converged, part_converged):
    if part_converged:  # some entry left while later ones stayed active
        assert converged.any() and not converged.all()
        assert iterations[0] < iterations.max()
    else:
        assert not converged.any()


@pytest.mark.parametrize("part_converged", [False, True])
def test_lattice_solve_holds_q_two_work_buffers_and_a_row_buffer(
        part_converged):
    t, m, dims = 16, 3, (64, 64)
    n = 64 * 64
    model = build_grid_model(dims, m, np.random.default_rng(0).random((n, m)),
                             [(0.05 if part_converged else 0.25, 3.0)])
    vertices = PermutohedralLattice(
        model.kernels[0].scaled_features()).n_lattice
    cfg = InferenceConfig(max_iterations=30 if part_converged else 2,
                          convergence_tol=1e-4, backend="lattice")
    peak, iterations, converged = _solve_peak(
        model, cfg, _unaries(t, n, m, part_converged))
    _assert_part_converged(iterations, converged, part_converged)
    work = 8 * t * max(m * n, (m - 1) * vertices)  # W1 and W2, each
    assert peak <= 8 * t * n * m + 2 * work + 8 * t * n + _SOLVE_SLACK


@pytest.mark.parametrize("dims, part_converged", [
    ((128, 128), False), ((64, 64), True)])
def test_exact_solve_holds_at_most_three_and_a_quarter_fields(
        dims, part_converged):
    t, m = 16, 4
    n = int(np.prod(dims))
    model = build_grid_model(dims, m, np.random.default_rng(0).random((n, m)),
                             [(1.0, 1.0)])
    cfg = InferenceConfig(max_iterations=40 if part_converged else 2,
                          convergence_tol=1e-4)
    peak, iterations, converged = _solve_peak(
        model, cfg, _unaries(t, n, m, part_converged))
    _assert_part_converged(iterations, converged, part_converged)
    # q, W1 and W2 of one field each, and the (T, N) row buffer
    assert peak <= 3.25 * 8 * t * n * m + _SOLVE_SLACK
