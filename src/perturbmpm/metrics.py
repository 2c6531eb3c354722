"""Label-map and marginal-field metrics, entropy uncertainty, bound formulas.

Entropy quantities use log base 2 (bits); the Hoeffding-derived sample size
uses the natural log, matching the exponential in the concentration bound.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import _check_integer, _check_number


def hamming_loss(x1: np.ndarray, x2: np.ndarray) -> float:
    """Fraction of voxels where the two label maps disagree."""
    x1 = np.asarray(x1)
    x2 = np.asarray(x2)
    if x1.shape != x2.shape:
        raise ValueError(f"label map shapes differ: {x1.shape} vs {x2.shape}")
    return float(np.mean(x1 != x2))


def voxelwise_total_variation(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per-voxel TV distance 0.5 * sum_l |P(x_i=l) - Q(x_i=l)|."""
    p = np.asarray(p)
    q = np.asarray(q)
    if p.shape != q.shape:
        raise ValueError(f"marginal field shapes differ: {p.shape} vs {q.shape}")
    return 0.5 * np.abs(p - q).sum(axis=-1)


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """Voxel-averaged total variation distance between marginal fields."""
    return float(voxelwise_total_variation(p, q).mean())


def monte_carlo_tv(marginals: np.ndarray, n_samples: int) -> float:
    """Expected voxel-averaged TV between the label frequencies of n_samples
    iid draws and their own limit marginals: the mean over voxels of
    1/2 sum_l sqrt(2 p (1 - p) / (pi T)), E|p_hat - p| under the normal
    approximation of each label's count."""
    _check_integer("n_samples", n_samples, 1)
    p = np.asarray(marginals)
    return float(0.5 * np.sqrt(2.0 * p * (1.0 - p) / (math.pi * n_samples))
                 .sum(axis=-1).mean())


def entropy_map(marginals: np.ndarray) -> np.ndarray:
    """Per-voxel Shannon entropy in bits, with 0 * log 0 := 0; a zero
    entropy is +0.0."""
    p = np.asarray(marginals)
    safe = np.where(p > 0, p, 1.0)
    # 0.0 - s is -s bitwise, except that a sum of zeros gives +0.0, not -0.0
    return 0.0 - (p * np.log2(safe)).sum(axis=-1)


def binary_entropy(p: float) -> float:
    """h(p) = -p log2 p - (1-p) log2(1-p), with h(0) = h(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if p in (0.0, 1.0):
        return 0.0
    return float(-p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p))


def check_accuracy(name: str, value: float) -> None:
    """Raise ValueError naming the argument unless value, the epsilon or
    delta of `required_sample_size`, is a number in (0, 1)."""
    _check_number(name, value, 0, 1, low_open=True)


def required_sample_size(epsilon: float, delta: float, m: int = 1) -> int:
    """Samples needed so every one of m label frequencies is within epsilon
    of its mean with probability at least 1 - delta (Hoeffding + union)."""
    check_accuracy("epsilon", epsilon)
    check_accuracy("delta", delta)
    _check_integer("m", m, 1)
    # ceil(log_term / (2 epsilon^2)) in exact integer arithmetic: for
    # epsilon below about 1e-154 a float quotient overflows, though the
    # count is still a finite integer.
    log_term = math.log(2.0 * m) - math.log(delta)
    num, den = log_term.as_integer_ratio()
    a, b = float(epsilon).as_integer_ratio()
    return -(-num * b * b // (2 * den * a * a))


def entropy_error_bound(tv: float, m: int) -> float:
    """Upper bound on |H(P) - H(Q)| in bits given their TV distance."""
    if not 0.0 <= tv <= 1.0:
        raise ValueError("tv must lie in [0, 1]")
    _check_integer("m", m, 2)
    return tv * math.log2(m - 1) + binary_entropy(tv)
