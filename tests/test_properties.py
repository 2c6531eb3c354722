"""Property-based checks of the library's structural invariants."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import softmax

from perturbmpm import (DenseCrfModel, InferenceConfig,
                        SampleSet, build_grid_model, empirical_marginals,
                        energy, entropy_error_bound, entropy_map,
                        MeanField, mean_field_infer,
                        iteration_noise, pairwise_matrix,
                        required_sample_size, total_variation,
                        voxelwise_total_variation)

unary_arrays = hnp.arrays(
    np.float64, st.tuples(st.integers(1, 6), st.integers(2, 4)),
    elements=st.floats(-5, 5))


def make_model(unary, weight):
    n = unary.shape[0]
    kernels = [(weight, 1.0)] if weight > 0 else []
    return build_grid_model((n,), unary.shape[1], unary, kernels)


@given(unary_arrays, st.floats(0, 3))
def test_step_rows_stochastic(unary, weight):
    model = make_model(unary, weight)
    q = MeanField(model).step(softmax(-model.unary, axis=1))
    assert np.all(q >= 0) and np.all(q <= 1)
    assert np.abs(q.sum(axis=1) - 1.0).max() < 1e-9


@given(unary_arrays)
def test_zero_kernel_step_is_fixed_point(unary):
    model = DenseCrfModel((unary.shape[0],), unary.shape[1], unary)
    q0 = softmax(-model.unary, axis=1)
    q1 = MeanField(model).step(q0)
    assert np.abs(q1 - q0).max() < 1e-12


@given(unary_arrays, st.floats(0, 3), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25)
def test_perturbation_preserves_structure(unary, weight, seed):
    model = make_model(unary, weight)
    perturbed = model.with_unary(
        model.unary - iteration_noise(seed, 0, model.unary.shape))
    assert perturbed.unary.shape == model.unary.shape
    assert perturbed.kernels == model.kernels
    assert np.all(np.isfinite(perturbed.unary))


@given(unary_arrays, st.floats(0, 3))
def test_pairwise_matrix_symmetric_nonnegative(unary, weight):
    model = make_model(unary, weight)
    mat = pairwise_matrix(model)
    assert np.allclose(mat, mat.T)
    assert np.all(mat >= 0)


@given(unary_arrays)
def test_energy_bounds(unary):
    model = make_model(unary, 1.0)
    n, m = unary.shape
    rng = np.random.default_rng(0)
    lab = rng.integers(0, m, n)
    e = energy(model, lab)
    # unary part alone bounds energy from below; full pair mass from above
    lo = unary.min(axis=1).sum()
    hi = unary.max(axis=1).sum() + 0.5 * pairwise_matrix(model).sum()
    assert lo - 1e-9 <= e <= hi + 1e-9


@given(st.integers(1, 8), st.integers(2, 4), st.integers(1, 30),
       st.integers(0, 2 ** 16))
@settings(max_examples=25)
def test_empirical_marginals_stochastic(n, m, t, seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, m, (t, n))
    f = empirical_marginals(SampleSet(labels, m))
    assert f.shape == (n, m)
    assert np.abs(f.sum(axis=1) - 1.0).max() < 1e-12
    assert np.abs(f * t - np.round(f * t)).max() < 1e-9


@given(st.integers(2, 5), st.integers(1, 200), st.integers(0, 2 ** 16))
@settings(max_examples=25)
def test_entropy_gap_never_exceeds_bound(m, rows, seed):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(m), size=rows)
    q = rng.dirichlet(np.ones(m), size=rows)
    tv = voxelwise_total_variation(p, q)
    gap = np.abs(entropy_map(p) - entropy_map(q))
    bound = np.array([entropy_error_bound(min(t, 1.0), m) for t in tv])
    assert np.all(gap <= bound + 1e-12)


@given(st.floats(0.01, 0.5), st.floats(0.001, 0.5), st.integers(1, 16))
def test_required_sample_size_monotone(epsilon, delta, m):
    base = required_sample_size(epsilon, delta, m)
    assert base >= 1
    assert required_sample_size(epsilon / 2, delta, m) >= base
    assert required_sample_size(epsilon, delta / 2, m) >= base
    assert required_sample_size(epsilon, delta, m + 1) >= base


@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(2, 4)),
                  elements=st.floats(0.01, 1.0)))
def test_total_variation_properties(weights):
    p = weights / weights.sum(axis=1, keepdims=True)
    assert total_variation(p, p) == 0.0
    q = np.roll(p, 1, axis=1)
    tv = voxelwise_total_variation(p, q)
    assert np.all(tv >= 0) and np.all(tv <= 1 + 1e-12)
    assert np.allclose(tv, voxelwise_total_variation(q, p))


@given(unary_arrays, st.floats(0, 2))
@settings(max_examples=20)
def test_infer_convergence_flag_consistent(unary, weight):
    model = make_model(unary, weight)
    cfg = InferenceConfig(max_iterations=50, convergence_tol=1e-8)
    q, n_iter = mean_field_infer(model, cfg)
    assert 1 <= n_iter <= 50
    if n_iter < 50:
        assert np.abs(MeanField(model).step(q) - q).max() < 1e-6
