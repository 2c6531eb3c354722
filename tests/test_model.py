import numpy as np
import pytest

from perturbmpm import (DenseCrfModel, GaussianKernel, ModelShapeError,
                        build_grid_model, energy, grid_coordinates,
                        kernel_matrix, kernel_weight, pairwise_matrix,
                        unaries_from_probabilities)


def small_model(weight=1.0):
    unary = np.array([[0.1, 0.9], [0.5, 0.5], [0.8, 0.2]])
    return build_grid_model((3,), 2, unary, [(weight, 1.0)])


def test_kernel_weight_symmetric_and_decaying():
    coords = grid_coordinates((4,))
    k = GaussianKernel(2.0, coords, np.array([1.0]))
    assert kernel_weight(k, 0, 0) == pytest.approx(2.0)
    assert kernel_weight(k, 0, 1) == pytest.approx(2.0 * np.exp(-0.5))
    assert kernel_weight(k, 0, 2) == pytest.approx(2.0 * np.exp(-2.0))
    assert kernel_weight(k, 1, 3) == kernel_weight(k, 3, 1)


def test_kernel_matrix_matches_pairwise_entries():
    model = small_model(weight=1.5)
    mat = kernel_matrix(model.kernels[0])
    for i in range(3):
        for j in range(3):
            assert mat[i, j] == pytest.approx(
                kernel_weight(model.kernels[0], i, j))
    assert np.allclose(mat, pairwise_matrix(model))


def test_energy_unary_only():
    unary = np.array([[0.1, 0.9], [0.5, 0.5]])
    model = DenseCrfModel((2,), 2, unary)
    assert energy(model, [0, 1]) == pytest.approx(0.1 + 0.5)
    assert energy(model, [1, 0]) == pytest.approx(0.9 + 0.5)


def test_energy_counts_each_pair_once():
    model = small_model()
    mat = pairwise_matrix(model)
    lab = np.array([0, 1, 0])
    expected = model.unary[[0, 1, 2], lab].sum() + mat[0, 1] + mat[1, 2]
    assert energy(model, lab) == pytest.approx(expected)
    assert energy(model, [0, 0, 0]) == pytest.approx(
        model.unary[:, 0].sum())


def test_energy_two_node_hand_value():
    model = build_grid_model((2,), 2, np.zeros((2, 2)), [(0.5, 1.0)])
    assert energy(model, [0, 0]) == 0.0
    assert energy(model, [0, 1]) == pytest.approx(0.5 * np.exp(-0.5))


def test_energy_relabeling_symmetry():
    rng = np.random.default_rng(5)
    unary = rng.random((4, 3))
    model = build_grid_model((4,), 3, unary, [(1.0, 1.0)])
    perm = np.array([2, 0, 1])
    permuted = model.with_unary(unary[:, np.argsort(perm)])
    lab = np.array([0, 2, 1, 1])
    assert energy(model, lab) == pytest.approx(energy(permuted, perm[lab]))


def test_energy_rejects_bad_labelings():
    model = small_model()
    with pytest.raises(ModelShapeError):
        energy(model, [0, 1])
    with pytest.raises(ModelShapeError):
        energy(model, [0, 1, 2])


def test_grid_coordinates_row_major():
    coords = grid_coordinates((2, 3))
    assert coords.shape == (6, 2)
    assert coords[0].tolist() == [0.0, 0.0]
    assert coords[1].tolist() == [0.0, 1.0]
    assert coords[3].tolist() == [1.0, 0.0]


def test_build_grid_model_scalar_bandwidth_broadcast():
    unary = np.zeros((6, 2))
    model = build_grid_model((2, 3), 2, unary, [(1.0, 2.0)])
    assert model.kernels[0].bandwidths.tolist() == [2.0, 2.0]


def test_unaries_from_probabilities_clamped():
    p = np.array([[0.0, 1.0]])
    psi = unaries_from_probabilities(p)
    assert np.all(np.isfinite(psi))
    assert psi[0, 0] == pytest.approx(-np.log(1e-12))
    assert unaries_from_probabilities([[0.5, 0.5]])[0, 0] == pytest.approx(
        np.log(2.0))


def test_model_validation():
    with pytest.raises(ModelShapeError):
        DenseCrfModel((2,), 2, np.zeros((3, 2)))
    with pytest.raises(ModelShapeError):
        DenseCrfModel((2,), 1, np.zeros((2, 1)))
    with pytest.raises(ModelShapeError):
        DenseCrfModel((0,), 2, np.zeros((0, 2)))
    with pytest.raises(ModelShapeError):
        DenseCrfModel((2,), 2, np.array([[np.inf, 0.0], [0.0, 0.0]]))
    with pytest.raises(ModelShapeError):
        GaussianKernel(-1.0, np.zeros((2, 1)), np.ones(1))
    with pytest.raises(ModelShapeError):
        GaussianKernel(1.0, np.zeros((2, 1)), np.zeros(1))
    with pytest.raises(ModelShapeError, match="expected a 2-d array"):
        DenseCrfModel((2,), 2, np.zeros((2, 2, 1)))
    with pytest.raises(ModelShapeError, match="does not match 1 bandwidths"):
        GaussianKernel(1.0, np.zeros((2, 2)), np.ones(1))
    with pytest.raises(ModelShapeError, match="features must be finite"):
        GaussianKernel(1.0, np.array([[0.0], [np.nan]]), np.ones(1))
    with pytest.raises(ModelShapeError, match="3 feature rows, expected 2"):
        DenseCrfModel((2,), 2, np.zeros((2, 2)),
                      (GaussianKernel(1.0, np.zeros((3, 1)), np.ones(1)),))


@pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf, -1e-300])
def test_kernel_rejects_a_weight_the_config_parser_rejects(weight):
    with pytest.raises(ModelShapeError, match="weight"):
        GaussianKernel(weight, np.zeros((2, 1)), np.ones(1))
    with pytest.raises(ModelShapeError, match="weight"):
        build_grid_model((4,), 2, np.zeros((4, 2)), [(weight, 1.0)])


def test_model_arrays_are_immutable():
    model = small_model()
    with pytest.raises(ValueError):
        model.unary[0, 0] = 5.0


def test_with_unary_preserves_kernels():
    model = small_model()
    swapped = model.with_unary(np.zeros((3, 2)))
    assert swapped.kernels == model.kernels
    assert np.all(swapped.unary == 0.0)
    assert model.unary[0, 0] == pytest.approx(0.1)
