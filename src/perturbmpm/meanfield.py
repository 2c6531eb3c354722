"""Mean-field approximation of the dense CRF and MPM decoding.

The marginal update is the parallel (synchronous) form

    Q'_i(l) = softmax_l( -psi_u(i, l) - sum_k msg_k(i, l) )
    msg_k(i, l) = sum_{j != i} k(i, j) * (1 - Q_j(l))        (Potts)

with two interchangeable message-passing backends.  The exact backend
sums every kernel without approximation: a Gaussian over the grid
coordinates factors into one d x d matrix per grid axis, so its messages
cost O(N * sum(dims)) per label channel; a kernel over any other features
is a dense N x N matrix product, O(N^2) per channel.  The lattice backend
approximates the sums with a permutohedral-lattice filter.
"""
from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .errors import ModelShapeError
from .lattice import PermutohedralLattice
from .model import DenseCrfModel, GaussianKernel, kernel_matrix

BACKENDS = ("exact", "lattice")
# Kernel entries below the smallest normal double (voxel pairs about 38
# bandwidths apart) are set to zero: each moves a message by less than
# 1e-307, and subnormal operands slow BLAS down several-fold.
_TINY = np.finfo(np.float64).tiny
# Samples stacked into the channels of one lattice filter call.  The
# filter's working set grows with its channel count (about 2.5 MiB a
# sample on a 64x64 3-label grid), so batches are filtered in slices.
_FILTER_SAMPLES = 32


@dataclasses.dataclass(frozen=True)
class InferenceConfig:
    max_iterations: int = 10
    convergence_tol: float = 1e-5
    backend: str = "exact"

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.convergence_tol < 0:
            raise ValueError("convergence_tol must be non-negative")
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}")


def _softmax_neg(e: np.ndarray) -> np.ndarray:
    """softmax(-e) over the last axis, shifted by each row's minimum."""
    out = e.min(axis=-1, keepdims=True) - e
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def mean_field_init(model: DenseCrfModel) -> np.ndarray:
    """Initial marginals: per-voxel softmax of negative unaries."""
    return _softmax_neg(model.unary)


def _lattice_apply(lattice: PermutohedralLattice, q: np.ndarray) -> np.ndarray:
    """Filter marginals of shape (N, m) or (T, N, m), channel-wise, at most
    _FILTER_SAMPLES samples per filter call."""
    if q.ndim == 2:
        return lattice.filter(q)
    t, n, m = q.shape
    parts = []
    for start in range(0, t, _FILTER_SAMPLES):
        part = q[start:start + _FILTER_SAMPLES]
        k = len(part)
        stacked = np.ascontiguousarray(part.transpose(1, 0, 2)).reshape(n, k * m)
        parts.append(lattice.filter(stacked).reshape(n, k, m).transpose(1, 0, 2))
    # one slice is returned as a view, so it costs no copy
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _grid_factors(dims: tuple[int, ...],
                  kernel: GaussianKernel) -> list[np.ndarray] | None:
    """Per-axis factors of a kernel whose features are grid_coordinates(dims).

    Returns exp(-0.5 ((a - b) / sigma)^2), d x d, for each axis longer
    than 1 (their product over the axes is the unweighted kernel), or None
    when the kernel has other features.
    """
    if kernel.features.shape[1] != len(dims):
        return None
    grid = kernel.features.reshape(*dims, len(dims))
    factors = []
    for axis, (d, sigma) in enumerate(zip(dims, kernel.bandwidths)):
        coordinate = np.arange(d, dtype=np.float64)
        shape = [1] * len(dims)
        shape[axis] = d
        if not (grid[..., axis] == coordinate.reshape(shape)).all():
            return None
        if d > 1:
            a = coordinate / sigma
            f = np.exp(-0.5 * (a[:, None] - a[None, :]) ** 2)
            f[f < _TINY] = 0.0
            factors.append(f)
    return factors


class _MessagePasser:
    """Per-model message computation, reusable across many marginal fields.

    The exact backend keeps the weighted per-axis factors of each grid
    kernel and sums every other kernel into one dense matrix; a kernel on
    a grid with a single axis longer than 1 has one factor, which is its
    dense matrix, so it joins the dense sum.
    """

    def __init__(self, model: DenseCrfModel, backend: str):
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}")
        self.model = model
        self.backend = backend
        if backend == "exact":
            self._init_exact(model)
        else:
            ones = np.ones(model.n_voxels)
            self._filters = []
            for kernel in model.kernels:
                lattice = PermutohedralLattice(kernel.scaled_features())
                neighbour_mass = kernel.weight * (lattice.filter(ones) - 1.0)
                self._filters.append((kernel, lattice, neighbour_mass))

    def _init_exact(self, model: DenseCrfModel) -> None:
        dims, m = model.dims, model.n_labels
        dense = None
        row_mass = np.zeros(model.n_voxels)
        self._grid = []          # weighted per-axis factors, one list a kernel
        self._grid_weight = 0.0  # summed weights of the grid kernels
        for kernel in model.kernels:
            factors = _grid_factors(dims, kernel)
            if factors is not None and len(factors) > 1:
                factors[0] = kernel.weight * factors[0]
                self._grid.append(factors)
                self._grid_weight += kernel.weight
                mass = functools.reduce(np.multiply.outer,
                                        [f.sum(axis=1) for f in factors])
                row_mass += mass.ravel() - kernel.weight
                continue
            if factors:
                k = kernel.weight * factors[0]
            else:
                k = kernel_matrix(kernel)
                k[k < _TINY] = 0.0
            dense = k if dense is None else dense + k
        if dense is not None:
            np.fill_diagonal(dense, 0.0)
            row_mass += dense.sum(axis=1)
        self._dense = dense
        self._row_mass = row_mass[:, None]
        # (batch, axis length, trailing voxels x labels) of each long axis,
        # so one matmul applies that axis's factor to a C-ordered field
        self._axis_shapes = [(-1, d, math.prod(dims[a + 1:]) * m)
                             for a, d in enumerate(dims) if d > 1]

    def messages(self, q: np.ndarray) -> np.ndarray:
        """Summed Potts messages for marginals of shape (..., N, m)."""
        if self.backend == "exact":
            if self._dense is None and not self._grid:
                return np.zeros_like(q)
            out = self._row_mass
            if self._dense is not None:
                out = out - np.matmul(self._dense, q)
            if self._grid:
                out = out + self._grid_weight * q
                for factors in self._grid:
                    kq = q
                    for f, shape in zip(factors, self._axis_shapes):
                        kq = np.matmul(f, kq.reshape(shape))
                    out -= kq.reshape(q.shape)
            return out
        total = np.zeros_like(q)
        for kernel, lattice, neighbour_mass in self._filters:
            neigh = kernel.weight * (_lattice_apply(lattice, q) - q)
            total += neighbour_mass[..., :, None] - neigh
        return total


def mean_field_step(model: DenseCrfModel, q: np.ndarray, backend: str = "exact",
                    passer: _MessagePasser | None = None) -> np.ndarray:
    """One parallel mean-field sweep; rows of the result sum to 1."""
    q = np.asarray(q)
    if q.shape[-2:] != (model.n_voxels, model.n_labels):
        raise ModelShapeError(
            f"marginal field shape {q.shape} does not match model")
    if passer is None:
        passer = _MessagePasser(model, backend)
    return _softmax_neg(model.unary + passer.messages(q))


def _infer_batched(model: DenseCrfModel, unaries: np.ndarray,
                   cfg: InferenceConfig,
                   passer: _MessagePasser | None = None
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean-field inference for a batch of unary fields sharing the kernels.

    Converged batch entries are frozen so results are identical to running
    each entry on its own.  Returns (marginals, iterations, converged) with
    shapes (T, N, m), (T,) and (T,); an entry that never changed by less
    than the tolerance stops at the iteration cap with converged False.
    """
    if passer is None:
        passer = _MessagePasser(model, cfg.backend)
    q = _softmax_neg(unaries)
    t = q.shape[0]
    iterations = np.full(t, cfg.max_iterations, dtype=np.int64)
    active = np.arange(t)
    for it in range(cfg.max_iterations):
        # while every entry is active, skip the gather and the scatter
        every = active.size == t
        q_active = q if every else q[active]
        u_active = unaries if every else unaries[active]
        q_new = _softmax_neg(u_active + passer.messages(q_active))
        delta = np.abs(q_new - q_active).max(axis=(1, 2))
        if every:
            q = q_new
        else:
            q[active] = q_new
        done = delta < cfg.convergence_tol
        iterations[active[done]] = it + 1
        active = active[~done]
        if active.size == 0:
            break
    converged = np.ones(t, dtype=bool)
    converged[active] = False
    return q, iterations, converged


def mean_field_infer(model: DenseCrfModel, cfg: InferenceConfig | None = None
                     ) -> tuple[np.ndarray, int]:
    """Iterate mean-field sweeps to convergence; returns (Q, n_iterations)."""
    if cfg is None:
        cfg = InferenceConfig()
    q, iterations, _ = _infer_batched(model, model.unary[None, :, :], cfg)
    return q[0], int(iterations[0])


def mpm_decode(q: np.ndarray) -> np.ndarray:
    """Per-voxel argmax labels; ties break toward the lowest label index."""
    return np.argmax(q, axis=-1)


def check_marginal_field(q: np.ndarray, atol: float = 1e-9) -> None:
    """Raise if q is not a row-stochastic (N, m) field."""
    q = np.asarray(q)
    if q.ndim != 2:
        raise ModelShapeError("marginal field must be 2-d")
    if np.any(q < -atol) or np.any(q > 1 + atol):
        raise ModelShapeError("marginal entries outside [0, 1]")
    if np.max(np.abs(q.sum(axis=1) - 1.0)) > atol:
        raise ModelShapeError("marginal rows do not sum to 1")
