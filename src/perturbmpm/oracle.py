"""Brute-force ground truth for tiny models.

Everything here enumerates all m^N labelings directly: exact Gibbs
probabilities, exact marginals, exact MAP, inverse-CDF Gibbs sampling, and
perturbed-MAP sampling in both the full-order (one Gumbel per labeling,
exact by the Gumbel-max trick) and order-1 (unaries only) variants.
Capacity guards keep this at desk scale; it exists to validate the
approximate samplers, not to be clever.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .errors import CapacityError, ModelShapeError
from .gumbel import _BATCH_VALUES, _noise, _uniforms, gumbel_max_select_many
from .model import DenseCrfModel, pairwise_matrix

MAX_ENUM_STATES = 2 ** 24
MAX_PERTURB_STATES = 2 ** 20
_CHUNK = 1 << 16


def n_states(model: DenseCrfModel) -> int:
    return model.n_labels ** model.n_voxels


def decode_labeling(codes, n_voxels: int, n_labels: int) -> np.ndarray:
    """Mixed-radix decode; voxel 0 is the least significant digit."""
    codes = np.asarray(codes, dtype=np.int64)
    digits = (codes[..., None] // n_labels ** np.arange(n_voxels)) % n_labels
    return digits


def encode_labeling(labeling: np.ndarray, n_labels: int) -> int:
    labeling = np.asarray(labeling, dtype=np.int64)
    return int((labeling * n_labels ** np.arange(labeling.shape[0])).sum())


def _all_energies(model: DenseCrfModel) -> np.ndarray:
    """Energies of every labeling, in labeling-code order."""
    total = n_states(model)
    if total > MAX_ENUM_STATES:
        raise CapacityError(
            f"{model.n_labels}^{model.n_voxels} = {total} labelings exceeds "
            f"the enumeration guard of {MAX_ENUM_STATES}")
    # each pair i < j once: the sum over all pairs less the same-label
    # ones, sum_l (onehot_l @ half) . onehot_l
    half = np.triu(pairwise_matrix(model), 1) if model.kernels else None
    n = model.n_voxels
    energies = np.empty(total)
    for start in range(0, total, _CHUNK):
        codes = np.arange(start, min(start + _CHUNK, total))
        states = decode_labeling(codes, n, model.n_labels)
        e = np.take_along_axis(
            model.unary[None, :, :],
            states[:, :, None], axis=2)[:, :, 0].sum(axis=1)
        if half is not None:
            e += half.sum()
            for label in range(model.n_labels):
                onehot = (states == label).astype(np.float64)
                e -= ((onehot @ half) * onehot).sum(axis=1)
        energies[start:len(codes) + start] = e
    return energies


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
    n, m = dist.n_voxels, dist.n_labels
    out = np.zeros((n, m))
    total = len(dist.probabilities)
    for start in range(0, total, _CHUNK):
        codes = np.arange(start, min(start + _CHUNK, total))
        states = decode_labeling(codes, n, m)
        probs = dist.probabilities[codes]
        for i in range(n):
            out[i] += np.bincount(states[:, i], weights=probs, minlength=m)
    return out


def exact_map(model: DenseCrfModel) -> np.ndarray:
    """Global energy minimiser; ties break toward the lowest labeling code."""
    energies = _all_energies(model)
    return decode_labeling(int(np.argmin(energies)),
                           model.n_voxels, model.n_labels)


def exact_gibbs_sample_many(dist: ExactDistribution, seed: int,
                            count: int) -> np.ndarray:
    """Exact Gibbs draws via inverse CDF over the enumerated table; draw t
    takes its uniform from the seed's counter block t."""
    cdf = np.cumsum(dist.probabilities)
    u = _uniforms(seed, 0, count, ())
    codes = np.searchsorted(cdf, u, side="right")
    codes = np.minimum(codes, len(cdf) - 1)
    return decode_labeling(codes, dist.n_voxels, dist.n_labels)


def perturb_and_map_full_order_many(model: DenseCrfModel, seed: int,
                                    count: int) -> np.ndarray:
    """Exact Gibbs draws: perturb every labeling's energy with draw t of
    the seed, take the argmin (Gumbel-max over the labelings)."""
    total = n_states(model)
    if total > MAX_PERTURB_STATES:
        raise CapacityError(
            f"{total} labelings exceeds the full-order perturbation guard "
            f"of {MAX_PERTURB_STATES}")
    return decode_labeling(
        gumbel_max_select_many(_all_energies(model), seed, count),
        model.n_voxels, model.n_labels)


def perturb_and_map_order1_many(model: DenseCrfModel, seed: int,
                                count: int) -> np.ndarray:
    """Order-1 perturbed MAP draws: perturb unaries only, then exact MAP.

    Sample t uses draw t of the seed, so a perturb_and_mpm run with the
    same seed sees exactly the same perturbations (paired decodes).
    """
    # the pairwise energy of every labeling: its energy under zero unaries
    base_pair = _all_energies(model.with_unary(np.zeros_like(model.unary)))
    total = len(base_pair)
    n, m = model.n_voxels, model.n_labels
    out = np.empty((count, n), dtype=np.int64)
    batch = max(1, _BATCH_VALUES // total)
    for start in range(0, count, batch):
        stop = min(start + batch, count)
        perturbed = model.unary[None] - _noise(seed, start, stop, (n, m))
        e = np.broadcast_to(base_pair, (stop - start, total)).copy()
        for i in range(n):
            # voxel i's label is axis 2 of the codes viewed as
            # (draw, higher digits, digit i, lower digits)
            by_digit = e.reshape(stop - start, -1, m, m ** i)
            by_digit += perturbed[:, i, None, :, None]
        out[start:stop] = decode_labeling(np.argmin(e, axis=1), n, m)
    return out


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
