"""Reference computations written apart from the program under test.

Everything here uses numpy alone: the Gibbs enumeration of tiny models,
a mean-field solver whose Gaussian messages are computed as exact
separable products on the grid, dense Gaussian sums for lattice probes,
and readers for the tensor and PGM files the CLI writes.  None of it
imports perturbmpm, so a fault in the program cannot hide in its own
reference.
"""
from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

PROB_CLAMP = 1e-12


def softmax_neg(e: np.ndarray) -> np.ndarray:
    """Row-wise softmax of -e over the last axis."""
    z = -e - (-e).max(axis=-1, keepdims=True)
    w = np.exp(z)
    return w / w.sum(axis=-1, keepdims=True)


def unaries_from_pixels(pixels: list[np.ndarray]) -> np.ndarray:
    """(N, m) potentials -log p from per-label 8-bit probability maps,
    renormalised per voxel and clamped away from 0 and 1."""
    stack = np.stack([p.astype(np.float64).ravel() / 255.0 for p in pixels],
                     axis=1)
    p = stack / stack.sum(axis=1, keepdims=True)
    return -np.log(np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP))


def axis_kernels(dims, sigmas) -> list[np.ndarray]:
    """Per-axis Gaussian factors exp(-0.5 ((a - b) / sigma)^2)."""
    out = []
    for d, s in zip(dims, sigmas):
        a = np.arange(d, dtype=np.float64)
        out.append(np.exp(-0.5 * ((a[:, None] - a[None, :]) / s) ** 2))
    return out


def dense_kernel(dims, weight: float, sigmas) -> np.ndarray:
    """(N, N) kernel matrix over a row-major grid, built from coordinates."""
    axes = np.meshgrid(*[np.arange(d, dtype=np.float64) for d in dims],
                       indexing="ij")
    f = np.stack([a.ravel() / s for a, s in zip(axes, sigmas)], axis=1)
    sq = np.zeros((f.shape[0], f.shape[0]))
    for k in range(f.shape[1]):
        sq += (f[:, None, k] - f[None, :, k]) ** 2
    return weight * np.exp(-0.5 * sq)


def separable_filter(values: np.ndarray, dims, factors) -> np.ndarray:
    """sum_j k(i, j) v_j for a separable grid kernel; values are (N, c)."""
    c = values.shape[1]
    grid = values.reshape(*dims, c)
    for axis, f in enumerate(factors):
        grid = np.moveaxis(np.tensordot(f, grid, axes=([1], [axis])), 0, axis)
    return grid.reshape(-1, c)


def mean_field(unary: np.ndarray, dims, weight: float, sigmas,
               max_iterations: int, tol: float) -> tuple[np.ndarray, int]:
    """Parallel Potts mean field with exact Gaussian messages.

    msg(i, l) = sum_{j != i} k(i, j) (1 - Q_j(l)); stops after the sweep
    whose largest change is below tol, or after max_iterations sweeps.
    """
    factors = axis_kernels(dims, sigmas)
    ones = np.ones((unary.shape[0], 1))
    row_mass = weight * (separable_filter(ones, dims, factors) - 1.0)
    q = softmax_neg(unary)
    for it in range(1, max_iterations + 1):
        kq = weight * (separable_filter(q, dims, factors) - q)
        q_new = softmax_neg(unary + row_mass - kq)
        delta = np.abs(q_new - q).max()
        q = q_new
        if delta < tol:
            return q, it
    return q, max_iterations


def enumerate_marginals(unary: np.ndarray, pair: np.ndarray) -> np.ndarray:
    """Exact Gibbs marginals of a tiny Potts model by listing every state.

    ``pair`` is the (N, N) kernel matrix; each unordered pair i < j adds
    pair[i, j] when the two labels differ.
    """
    n, m = unary.shape
    codes = np.arange(m ** n, dtype=np.int64)
    states = (codes[:, None] // m ** np.arange(n)) % m
    energy = unary[np.arange(n), states].sum(axis=1)
    for i in range(n):
        differ = states[:, i + 1:] != states[:, i:i + 1]
        energy += differ @ pair[i, i + 1:]
    logp = -energy - (-energy).max()
    p = np.exp(logp)
    p /= p.sum()
    out = np.empty((n, m))
    for i in range(n):
        out[i] = np.bincount(states[:, i], weights=p, minlength=m)
    return out


def hoeffding_radius(n_samples: int, n_estimates: int, delta: float) -> float:
    """Half-width eps such that all n_estimates frequencies lie within eps
    of their means with probability at least 1 - delta."""
    return math.sqrt(math.log(2.0 * n_estimates / delta) / (2.0 * n_samples))


def tv(p: np.ndarray, q: np.ndarray) -> float:
    """Voxel-averaged total variation distance."""
    return float(0.5 * np.abs(p - q).sum(axis=-1).mean())


def read_pmt(path) -> np.ndarray:
    """Read a PMPM tensor: magic, u16 version, u16 dtype, u32 rank, u64 dims."""
    data = Path(path).read_bytes()
    if data[:4] != b"PMPM":
        raise ValueError(f"{path}: bad magic")
    version, code, rank = struct.unpack_from("<HHI", data, 4)
    dims = struct.unpack_from(f"<{rank}Q", data, 12)
    dtype = {0: "<f8", 1: "<u4"}[code]
    payload = data[12 + 8 * rank:]
    return np.frombuffer(payload, dtype=dtype).reshape(dims)


def write_pgm(path, image: np.ndarray) -> None:
    img = np.asarray(image, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        fh.write(img.tobytes())


def read_pgm(path) -> np.ndarray:
    data = Path(path).read_bytes()
    head = data.split(maxsplit=4)
    if head[0] != b"P5":
        raise ValueError(f"{path}: not a binary PGM")
    width, height = int(head[1]), int(head[2])
    return np.frombuffer(data[-width * height:], dtype=np.uint8).reshape(
        height, width)
