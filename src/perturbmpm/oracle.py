"""Brute-force ground truth for tiny models.

Everything here enumerates all m^N labelings directly: exact Gibbs
probabilities, exact marginals, exact MAP, and perturbed-MAP sampling in
both the full-order (one Gumbel per labeling, exact by the Gumbel-max
trick) and order-1 (unaries only) variants.  A labeling's code has voxel i
as its base-m digit i, voxel 0 least significant, and every table holds one
value per code in code order; viewed as (m^(N-1-i), m, m^i), its middle
axis is voxel i's label.  Capacity guards keep this at desk scale; it
exists to validate the approximate samplers, not to be clever.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .errors import CapacityError, ModelShapeError
from .gumbel import _perturb, gumbel_max_select_many
from .model import DenseCrfModel, pairwise_matrix

MAX_ENUM_STATES = 2 ** 24
MAX_PERTURB_STATES = 2 ** 20


def n_states(model: DenseCrfModel) -> int:
    return model.n_labels ** model.n_voxels


def decode_labeling(codes, n_voxels: int, n_labels: int) -> np.ndarray:
    """Mixed-radix decode; voxel 0 is the least significant digit."""
    codes = np.asarray(codes, dtype=np.int64)
    digits = (codes[..., None] // n_labels ** np.arange(n_voxels)) % n_labels
    return digits


def _digit(table: np.ndarray, i: int, m: int) -> np.ndarray:
    """View of a table whose last axis is in code order as (..., higher
    digits, digit i, lower digits); writes to it reach the table."""
    return table.reshape(*table.shape[:-1], -1, m, m ** i)


def _pair_energies(model: DenseCrfModel) -> np.ndarray:
    """Pairwise energy of every labeling, in code order, grown a voxel at a
    time: voxel j is the leading digit of an (m, m^j) table, and each pair
    i < j adds k_ij on the labelings where digits i and j differ."""
    total = n_states(model)
    if total > MAX_ENUM_STATES:
        raise CapacityError(
            f"{model.n_labels}^{model.n_voxels} = {total} labelings exceeds "
            f"the enumeration guard of {MAX_ENUM_STATES}")
    m = model.n_labels
    pair = pairwise_matrix(model)
    differ = 1.0 - np.eye(m)
    e = np.zeros(1)
    for j in range(model.n_voxels):
        grown = np.empty((m, e.size))
        grown[:] = e
        for i in range(j):
            view = _digit(grown, i, m)
            view += pair[i, j] * differ[:, None, :, None]
        e = grown.reshape(-1)
    return e


def _add_unaries(e: np.ndarray, unary: np.ndarray) -> np.ndarray:
    """Add each voxel's unary on its digit of e, in place: e is (m^N,) with
    unary (N, m), or a batch (B, m^N) with unaries (B, N, m)."""
    m = unary.shape[-1]
    for i in range(unary.shape[-2]):
        view = _digit(e, i, m)
        view += unary[..., i, None, :, None]
    return e


def _all_energies(model: DenseCrfModel) -> np.ndarray:
    """Energies of every labeling, in labeling-code order."""
    return _add_unaries(_pair_energies(model), model.unary)


@dataclasses.dataclass(frozen=True)
class ExactDistribution:
    """Fully enumerated Gibbs distribution of a tiny model."""

    n_voxels: int
    n_labels: int
    log_partition: float
    probabilities: np.ndarray  # (m^N,) indexed by labeling code
    energies: np.ndarray       # (m^N,) matching energies

    def __post_init__(self):
        probs = np.asarray(self.probabilities)
        if abs(probs.sum() - 1.0) > 1e-9:
            raise ModelShapeError("probabilities do not sum to 1")


def enumerate_gibbs(model: DenseCrfModel) -> ExactDistribution:
    """Enumerate every labeling and normalise with log-sum-exp."""
    energies = _all_energies(model)
    # log Z = log(1 + s) - E_min, where s sums exp(E_min - E) over every
    # labeling but the (first) minimum-energy one
    lowest = np.argmin(energies)
    shifted = np.exp(energies[lowest] - energies)
    shifted[lowest] = 0.0
    log_z = float(np.log1p(shifted.sum()) - energies[lowest])
    probabilities = np.exp(-energies - log_z)
    return ExactDistribution(model.n_voxels, model.n_labels, log_z,
                             probabilities, energies)


def exact_marginals(dist: ExactDistribution) -> np.ndarray:
    """Per-voxel marginals P(x_i = l) by direct summation."""
    p, m = dist.probabilities, dist.n_labels
    return np.stack([_digit(p, i, m).sum(axis=(0, 2))
                     for i in range(dist.n_voxels)])


def _exact_maps(e: np.ndarray, unaries: np.ndarray) -> np.ndarray:
    """Exact MAP labelings (B, N) of a batch of unaries (B, N, m), added in
    place to e (B, m^N), each row the pairwise energy of every labeling;
    ties break toward the lowest code."""
    return decode_labeling(np.argmin(_add_unaries(e, unaries), axis=1),
                           *unaries.shape[1:])


def exact_map(model: DenseCrfModel) -> np.ndarray:
    """Global energy minimiser; ties break toward the lowest labeling code."""
    return _exact_maps(_pair_energies(model)[None], model.unary[None])[0]


def _check_full_order(model: DenseCrfModel) -> None:
    """Raise CapacityError when model has too many labelings to perturb
    each one; this guard is tighter than enumeration's."""
    total = n_states(model)
    if total > MAX_PERTURB_STATES:
        raise CapacityError(
            f"{total} labelings exceeds the full-order perturbation guard "
            f"of {MAX_PERTURB_STATES}")


def _full_order_draws(energies: np.ndarray, model: DenseCrfModel, seed: int,
                      count: int) -> np.ndarray:
    """Full-order draws of model from its labelings' energies in code order
    (`_all_energies`, or an ExactDistribution's), which this reuses."""
    return decode_labeling(gumbel_max_select_many(energies, seed, count),
                           model.n_voxels, model.n_labels)


def perturb_and_map_full_order_many(model: DenseCrfModel, seed: int,
                                    count: int) -> np.ndarray:
    """Exact Gibbs draws: perturb every labeling's energy with draw t of
    the seed, take the argmin (Gumbel-max over the labelings)."""
    _check_full_order(model)
    return _full_order_draws(_all_energies(model), model, seed, count)


def perturb_and_map_order1_many(model: DenseCrfModel, seed: int,
                                count: int) -> np.ndarray:
    """Order-1 perturbed MAP draws: perturb unaries only, then exact MAP.

    Sample t uses draw t of the seed, so a perturb_and_mpm run with the
    same seed sees exactly the same perturbations (paired decodes).
    """
    pair = _pair_energies(model)
    return _perturb(seed, count, model.unary.shape, pair.size, lambda g:
                    _exact_maps(np.tile(pair, (len(g), 1)),
                                np.subtract(model.unary, g, out=g)),
                    row=(model.n_voxels,))


def kl_product_vs_exact(q: np.ndarray, model: DenseCrfModel,
                        dist: ExactDistribution) -> float:
    """KL(Q || P) of a product field Q against the enumerated Gibbs P."""
    q = np.asarray(q)
    safe = np.clip(q, 1e-300, 1.0)
    neg_entropy = float((q * np.log(safe)).sum())
    expected_unary = float((q * model.unary).sum())
    expected_pair = 0.0
    if model.kernels:
        pair = pairwise_matrix(model)
        agree = q @ q.T
        disagree = 1.0 - agree
        np.fill_diagonal(disagree, 0.0)
        expected_pair = 0.5 * float((pair * disagree).sum())
    return neg_entropy + expected_unary + expected_pair + dist.log_partition
