import math

import numpy as np
import pytest

from perturbmpm import (binary_entropy, entropy_error_bound, entropy_map,
                        hamming_loss, monte_carlo_tv, required_sample_size,
                        total_variation, voxelwise_total_variation)
from perturbmpm.tensorio import write_uncertainty_csv


def test_hamming_loss():
    assert hamming_loss([0, 1, 2], [0, 1, 2]) == 0.0
    assert hamming_loss([0, 1, 2], [0, 0, 2]) == pytest.approx(1 / 3)
    assert hamming_loss([0, 0], [1, 1]) == 1.0
    with pytest.raises(ValueError):
        hamming_loss([0, 1], [0, 1, 2])


def test_voxelwise_total_variation():
    p = np.array([[1.0, 0.0], [0.5, 0.5]])
    q = np.array([[0.0, 1.0], [0.5, 0.5]])
    assert voxelwise_total_variation(p, q).tolist() == [1.0, 0.0]
    assert total_variation(p, q) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        total_variation(p, q[:1])


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("n_samples", [100, 1000, 10000])
def test_monte_carlo_tv_matches_simulated_draws(m, n_samples):
    rng = np.random.default_rng(m)
    p = rng.dirichlet(np.ones(m), size=40)
    # 200 runs of n_samples iid draws at every voxel, each scored against p
    counts = rng.multinomial(n_samples, p, size=(200, 40))
    simulated = np.mean([total_variation(c / n_samples, p) for c in counts])
    assert monte_carlo_tv(p, n_samples) == pytest.approx(simulated, rel=0.05)
    # a certain label has no Monte Carlo error
    assert monte_carlo_tv(np.eye(m), n_samples) == 0.0


def test_entropy_map_bits():
    marg = np.array([[0.5, 0.5], [1.0, 0.0], [0.25, 0.75]])
    h = entropy_map(marg)
    assert h[0] == pytest.approx(1.0)
    assert h[1] == 0.0
    assert h[2] == pytest.approx(binary_entropy(0.25))
    uniform4 = np.full((3, 4), 0.25)
    assert np.allclose(entropy_map(uniform4), 2.0)


def test_zero_entropies_are_positive_zero(tmp_path):
    marg = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.25, 0.25],
                     [0.0, 1.0, 0.0]])
    h = entropy_map(marg)
    assert not np.any(np.signbit(h))
    assert h[3] == 0.0 and h[2] == 1.5
    assert not np.signbit(entropy_map(np.array([0.0, 1.0])))  # a lone voxel
    path = tmp_path / "h.csv"
    write_uncertainty_csv(path, h)
    rows = path.read_text().splitlines()
    assert rows[1:] == ["0,0.0", "1,0.0", "2,1.5", "3,0.0"]


def test_binary_entropy():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0)
    assert binary_entropy(0.3) == binary_entropy(0.7)
    with pytest.raises(ValueError):
        binary_entropy(1.5)


def test_required_sample_size_reference_value():
    # ceil(ln(2 / 0.05) / (2 * 0.01)) = ceil(184.44...) = 185
    assert required_sample_size(0.1, 0.05, 1) == 185
    assert required_sample_size(0.1, 0.05, 2) == \
        math.ceil(math.log(4 / 0.05) / 0.02)
    # tighter accuracy or confidence needs more samples
    assert required_sample_size(0.05, 0.05) > 185
    assert required_sample_size(0.1, 0.01) > 185
    with pytest.raises(ValueError):
        required_sample_size(0.0, 0.05)
    with pytest.raises(ValueError):
        required_sample_size(0.1, 1.0)
    with pytest.raises(ValueError):
        required_sample_size(0.1, 0.05, 0)


def test_required_sample_size_beyond_float_range():
    # log(8) / (2 * 1e-400): a float quotient overflows, the count does not
    huge = required_sample_size(1e-200, 0.5, 2)
    assert len(str(huge)) == 401 and str(huge).startswith("10397207708399")
    assert required_sample_size(0.5, 5e-324) == \
        math.ceil((math.log(2.0) - math.log(5e-324)) / 0.5)


def test_entropy_bound_ceiling():
    # m = 4, TV = 1: log2(3) + h(1) = 1.585 bits
    assert entropy_error_bound(1.0, 4) == pytest.approx(1.585, abs=1e-3)
    assert entropy_error_bound(0.0, 4) == 0.0
    assert entropy_error_bound(1.0, 2) == 0.0  # log2(1) = 0, h(1) = 0
    with pytest.raises(ValueError):
        entropy_error_bound(1.5, 4)
    with pytest.raises(ValueError):
        entropy_error_bound(0.5, 1)


def test_entropy_bound_dominates_random_pairs():
    rng = np.random.default_rng(0)
    for m in (2, 3, 4, 8):
        p = rng.dirichlet(np.ones(m), size=200)
        q = rng.dirichlet(np.ones(m), size=200)
        tv = 0.5 * np.abs(p - q).sum(axis=1)
        gap = np.abs(entropy_map(p) - entropy_map(q))
        bounds = np.array([entropy_error_bound(t, m) for t in tv])
        assert np.all(gap <= bounds + 1e-12)
