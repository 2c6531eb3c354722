"""Mean-field approximation of the dense CRF and MPM decoding.

The marginal update is the parallel (synchronous) form

    Q'_i(l) = softmax_l( -psi_u(i, l) - sum_k msg_k(i, l) )
    msg_k(i, l) = sum_{j != i} k(i, j) * (1 - Q_j(l))        (Potts)

`MeanField` is the one solver: built once per model and backend, it
computes every backend's messages with that formula, as the sum over the
kernels of K applied to P = 1 - Q with the i = j term removed.  The exact
backend sums every kernel without approximation: a Gaussian over the grid
coordinates factors into one d x d matrix per grid axis, so its messages
cost O(N * sum(dims)) per label channel; a kernel over any other features
joins one dense N x N matrix with a zeroed diagonal, O(N^2) per channel.
The lattice backend approximates each kernel's sums with a
permutohedral-lattice filter.
"""
from __future__ import annotations

import dataclasses
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


@dataclasses.dataclass(frozen=True)
class InferenceConfig:
    max_iterations: int = 10
    convergence_tol: float = 1e-5
    backend: str = "exact"

    def __post_init__(self):
        if not isinstance(self.max_iterations, (int, np.integer)) \
                or self.max_iterations < 1:
            raise ValueError("max_iterations must be an integer >= 1, "
                             f"got {self.max_iterations!r}")
        if not 0 <= self.convergence_tol < math.inf:
            raise ValueError("convergence_tol must be finite and "
                             f"non-negative, got {self.convergence_tol!r}")
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}")


def _softmax_neg(e: np.ndarray) -> np.ndarray:
    """softmax(-e) over the last axis, shifted by each row's minimum."""
    out = e.min(axis=-1, keepdims=True) - e
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def _lattice_apply(lattice: PermutohedralLattice, q: np.ndarray) -> np.ndarray:
    """Filter marginals of shape (..., N, m) channel-wise in one call."""
    stacked = np.moveaxis(q, -2, 0)
    out = lattice.filter(stacked.reshape(stacked.shape[0], -1))
    return np.moveaxis(out.reshape(stacked.shape), 0, -2)


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


class MeanField:
    """Parallel mean-field inference on one model with one backend.

    Built once per model; `messages`, `step` and `infer` reuse its kernel
    operators for any number of marginal fields.  On the exact backend a
    grid kernel keeps its weighted per-axis factors, and every other
    kernel joins one dense matrix; a kernel on a grid with a single axis
    longer than 1 has one factor, which is its dense matrix.  On the
    lattice backend each kernel keeps its permutohedral lattice.
    """

    def __init__(self, model: DenseCrfModel, cfg: InferenceConfig | None = None):
        self.model = model
        self.cfg = InferenceConfig() if cfg is None else cfg
        self._dense = None   # summed non-grid kernels, zero diagonal
        self._grid = []      # (weight, weighted per-axis factors) a kernel
        self._lattices = []  # (weight, lattice) a kernel
        # (batch, axis length, trailing voxels x labels) of each long axis,
        # so one matmul applies that axis's factor to a C-ordered field
        dims = model.dims
        self._axis_shapes = [(-1, d, math.prod(dims[a + 1:]) * model.n_labels)
                             for a, d in enumerate(dims) if d > 1]
        if self.cfg.backend == "lattice":
            self._lattices = [
                (kernel.weight, PermutohedralLattice(kernel.scaled_features()))
                for kernel in model.kernels]
            return
        for kernel in model.kernels:
            factors = _grid_factors(dims, kernel)
            if factors is not None and len(factors) > 1:
                factors[0] = kernel.weight * factors[0]
                self._grid.append((kernel.weight, factors))
                continue
            if factors:
                k = kernel.weight * factors[0]
            else:
                k = kernel_matrix(kernel)
                k[k < _TINY] = 0.0
            self._dense = k if self._dense is None else self._dense + k
        if self._dense is not None:
            np.fill_diagonal(self._dense, 0.0)

    @property
    def sample_values(self) -> int:
        """Values one marginal field stacks: m * (N + lattice vertices)."""
        vertices = sum(lattice.n_lattice for _, lattice in self._lattices)
        return self.model.n_labels * (self.model.n_voxels + vertices)

    def _terms(self, p: np.ndarray):
        """Each kernel (the dense ones as one) applied to p without its
        i = j term, as a fresh array the caller may overwrite."""
        if self._dense is not None:
            yield np.matmul(self._dense, p)
        for weight, factors in self._grid:
            kp = p
            for f, shape in zip(factors, self._axis_shapes):
                kp = np.matmul(f, kp.reshape(shape))
            kp = kp.reshape(p.shape)
            kp -= weight * p
            yield kp
        for weight, lattice in self._lattices:
            kp = _lattice_apply(lattice, p)
            kp -= p
            kp *= weight
            yield kp

    def messages(self, q: np.ndarray) -> np.ndarray:
        """Summed Potts messages sum_{j != i} k(i, j) (1 - q_j) for
        marginals of shape (..., N, m)."""
        q = np.asarray(q)
        total = None
        for term in self._terms(1.0 - q):
            if total is None:
                total = term
            else:
                total += term
        return np.zeros_like(q) if total is None else total

    def step(self, q: np.ndarray) -> np.ndarray:
        """One parallel mean-field sweep; rows of the result sum to 1."""
        q = np.asarray(q)
        if q.shape[-2:] != (self.model.n_voxels, self.model.n_labels):
            raise ModelShapeError(
                f"marginal field shape {q.shape} does not match model")
        return _softmax_neg(self.model.unary + self.messages(q))

    def infer(self, unaries: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Mean-field inference for a batch of unary fields of shape
        (T, N, m) sharing the model's kernels.

        Converged batch entries are frozen so results are identical to
        running each entry on its own.  Returns (marginals, iterations,
        converged) with shapes (T, N, m), (T,) and (T,); an entry that
        never changed by less than the tolerance stops at the iteration
        cap with converged False.
        """
        cfg = self.cfg
        q = _softmax_neg(unaries)
        t = q.shape[0]
        iterations = np.full(t, cfg.max_iterations, dtype=np.int64)
        active = np.arange(t)
        for it in range(cfg.max_iterations):
            # while every entry is active, skip the gather and the scatter
            every = active.size == t
            q_active = q if every else q[active]
            u_active = unaries if every else unaries[active]
            q_new = _softmax_neg(u_active + self.messages(q_active))
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


def mean_field_init(model: DenseCrfModel) -> np.ndarray:
    """Initial marginals: per-voxel softmax of negative unaries."""
    return _softmax_neg(model.unary)


def mean_field_step(model: DenseCrfModel, q: np.ndarray,
                    backend: str = "exact") -> np.ndarray:
    """One parallel mean-field sweep; rows of the result sum to 1."""
    return MeanField(model, InferenceConfig(backend=backend)).step(q)


def mean_field_infer(model: DenseCrfModel, cfg: InferenceConfig | None = None
                     ) -> tuple[np.ndarray, int]:
    """Iterate mean-field sweeps to convergence; returns (Q, n_iterations)."""
    q, iterations, _ = MeanField(model, cfg).infer(model.unary[None])
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
