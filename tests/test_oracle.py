import tracemalloc

import numpy as np
import pytest
from scipy.special import softmax

from perturbmpm import (CapacityError, DenseCrfModel, InferenceConfig,
                        MeanField, SampleSet, SamplingConfig, build_grid_model,
                        decode_labeling, empirical_marginals, energy,
                        enumerate_gibbs, exact_map, exact_marginals,
                        kl_product_vs_exact,
                        mean_field_infer, n_states,
                        perturb_and_map_full_order_many,
                        perturb_and_map_order1_many, perturb_and_mpm,
                        total_variation)
from perturbmpm.evaluation import random_grid_model
import perturbmpm.gumbel as gumbel
import perturbmpm.oracle as oracle


def test_labeling_codes_round_trip():
    assert decode_labeling(0, 3, 3).tolist() == [0, 0, 0]
    # voxel 0 is the least significant digit
    assert decode_labeling(1, 3, 3).tolist() == [1, 0, 0]
    assert decode_labeling(3, 3, 3).tolist() == [0, 1, 0]


def test_n_states():
    model = random_grid_model(4, 0)
    assert n_states(model) == 16


def test_enumerated_energies_match_energy_function():
    model = random_grid_model(4, 1)
    dist = enumerate_gibbs(model)
    for code in range(16):
        lab = decode_labeling(code, 4, 2)
        assert dist.energies[code] == pytest.approx(energy(model, lab))


COUPLED_MODELS = [
    random_grid_model(12, 4, kernel_weight=2.0),
    build_grid_model((3, 3), 3, np.random.default_rng(6).random((9, 3)),
                     [(1.5, 1.0), (0.7, 2.0)])]


@pytest.mark.parametrize("model", COUPLED_MODELS)
def test_pair_energies_match_energy_function_on_random_labelings(model):
    energies = oracle._all_energies(model)
    codes = np.random.default_rng(7).integers(0, len(energies), 200)
    for code in codes:
        lab = decode_labeling(code, model.n_voxels, model.n_labels)
        assert abs(energies[code] - energy(model, lab)) <= 1e-12


@pytest.mark.parametrize("model", COUPLED_MODELS)
def test_exact_marginals_match_sum_over_decoded_labelings(model):
    dist = enumerate_gibbs(model)
    n, m = model.n_voxels, model.n_labels
    labs = decode_labeling(np.arange(len(dist.probabilities)), n, m)
    # each labeling's probability added to its label at every voxel
    direct = np.zeros((n, m))
    np.add.at(direct, (np.arange(n), labs), dist.probabilities[:, None])
    assert np.abs(exact_marginals(dist) - direct).max() <= 1e-12


def test_probabilities_normalised_and_boltzmann():
    model = random_grid_model(5, 2)
    dist = enumerate_gibbs(model)
    assert dist.probabilities.sum() == pytest.approx(1.0)
    ratio = dist.probabilities[3] / dist.probabilities[17]
    assert ratio == pytest.approx(
        np.exp(dist.energies[17] - dist.energies[3]))


def test_zero_kernel_marginals_are_independent_softmax():
    rng = np.random.default_rng(8)
    unary = rng.random((4, 3))
    model = DenseCrfModel((4,), 3, unary)
    marg = exact_marginals(enumerate_gibbs(model))
    assert np.allclose(marg, softmax(-unary, axis=1), atol=1e-12)


def test_exact_map_minimises_energy():
    model = random_grid_model(5, 3)
    dist = enumerate_gibbs(model)
    lab = exact_map(model)
    assert energy(model, lab) == pytest.approx(dist.energies.min())


def test_full_order_perturbation_is_exact_gibbs():
    model = random_grid_model(5, 5)
    dist = enumerate_gibbs(model)
    draws = perturb_and_map_full_order_many(model, 1, 50_000)
    emp = empirical_marginals(SampleSet(draws, 2))
    assert total_variation(emp, exact_marginals(dist)) < 0.01


def test_full_order_draw_t_is_argmin_of_noise_block_t():
    from perturbmpm.gumbel import _noise

    model = random_grid_model(4, 2)
    energies = enumerate_gibbs(model).energies
    draws = perturb_and_map_full_order_many(model, 5, 30)
    for t in range(30):
        code = np.argmin(energies - _noise(5, t, t + 1, (energies.size,))[0])
        assert np.array_equal(draws[t], decode_labeling(code, 4, 2))


def test_order1_many_shares_noise_with_perturbed_mpm():
    model = random_grid_model(4, 6)
    maps = perturb_and_map_order1_many(model, seed=9, count=40)
    mpm = perturb_and_mpm(model, SamplingConfig(40, seed=9))
    assert maps.shape == (40, 4)
    # with a weak kernel most paired decodes coincide
    agreement = np.mean(np.all(maps == mpm.labels, axis=1))
    assert agreement > 0.5


def test_order1_draw_t_is_exact_map_of_perturbation_t(monkeypatch):
    from perturbmpm.gumbel import _noise

    unary = np.random.default_rng(2).random((6, 3))
    model = build_grid_model((2, 3), 3, unary, [(1.0, 1.0)])
    monkeypatch.setattr(gumbel, "_BATCH_VALUES", 3 * 3 ** 6)  # 3 a batch
    draws = perturb_and_map_order1_many(model, 5, 10)
    for t in range(10):
        noise = _noise(5, t, t + 1, (6, 3))[0]
        assert np.array_equal(draws[t],
                              exact_map(model.with_unary(unary - noise)))


def test_order1_many_peak_is_one_batch_past_enumeration():
    unary = np.random.default_rng(1).random((18, 2))
    model = build_grid_model((18,), 2, unary, [(1.0, 1.0)])
    peaks = []
    for run in (lambda: enumerate_gibbs(model),
                lambda: perturb_and_map_order1_many(model, 0, 20)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # beyond what enumeration holds, one batch of perturbed energies
    assert peaks[1] <= peaks[0] + 8 * gumbel._BATCH_VALUES


def test_capacity_guards():
    big = DenseCrfModel((25,), 2, np.zeros((25, 2)))
    with pytest.raises(CapacityError):
        enumerate_gibbs(big)
    mid = DenseCrfModel((21,), 2, np.zeros((21, 2)))
    with pytest.raises(CapacityError):
        perturb_and_map_full_order_many(mid, 0, 1)


@pytest.mark.parametrize("dims, m", [((4, 4), 2), ((3, 3), 3)])
@pytest.mark.parametrize("weight", [1.0, 3.0])
def test_free_energy_plus_log_z_is_kl(dims, m, weight):
    unary = np.random.default_rng(m).normal(size=(int(np.prod(dims)), m))
    model = build_grid_model(dims, m, unary, [(weight, 1.0)])
    dist = enumerate_gibbs(model)
    solver = MeanField(model, InferenceConfig(max_iterations=30))
    fixed_point = solver.infer(unary[None])[0][0]
    for q in (fixed_point, softmax(-unary, axis=1)):
        assert solver.free_energy(q) + dist.log_partition == \
            pytest.approx(kl_product_vs_exact(q, model, dist), abs=1e-9)
    # one value a field, and an exact 0 marginal counts 0 log 0 as 0
    hard = np.eye(m)[np.arange(len(unary)) % m]
    both = solver.free_energy(np.stack([fixed_point, hard]))
    assert both.shape == (2,)
    assert both[1] + dist.log_partition == \
        pytest.approx(kl_product_vs_exact(hard, model, dist), abs=1e-9)


def test_kl_non_negative_and_zero_for_exact_product():
    model = random_grid_model(5, 7)
    dist = enumerate_gibbs(model)
    q, _ = mean_field_infer(model)
    assert kl_product_vs_exact(q, model, dist) >= -1e-12
    # zero-kernel model: the exact distribution is a product, KL hits 0
    free = DenseCrfModel((4,), 2, np.random.default_rng(3).random((4, 2)))
    fdist = enumerate_gibbs(free)
    fq, _ = mean_field_infer(free)
    assert abs(kl_product_vs_exact(fq, free, fdist)) < 1e-10
