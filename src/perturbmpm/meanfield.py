"""Mean-field approximation of the dense CRF and MPM decoding.

The marginal update is the parallel (synchronous) form

    Q'_i(l) = softmax_l( -psi_u(i, l) - sum_k msg_k(i, l) )
    msg_k(i, l) = sum_{j != i} k(i, j) * (1 - Q_j(l))        (Potts)

`MeanField` is the one solver: built once per model and backend, it holds
one operator per kernel, P -> w K P with the i = j term kept, and computes
every backend's messages with that formula: a kernel is w at i = j, so the
messages for P = 1 - Q are sum_k w_k K_k P - (sum_k w_k) P.  On the exact
backend a Gaussian over the grid coordinates factors into one d x d matrix
per grid axis longer than 1, so its operator costs O(N * sum(dims)) per
label channel; a kernel over any other features is its dense N x N matrix,
O(N^2) per channel.  A matrix over MAX_MATRIX_VALUES entries raises
CapacityError before it is allocated.  The lattice backend approximates
each kernel's sums with a permutohedral-lattice filter, and filters only
m - 1 of the m label channels: P = 1 - Q for row-stochastic Q has rows
summing to m - 1, so for the linear filter the last channel is
w K P_m = (m - 1) w K 1 - sum_{l < m} w K P_l, with the row mass K 1 kept
from the lattice's calibration.  The exact backend filters all m, since
its cost is per matrix product, not per channel.  A lattice call of at
most two channels filters them one at a time, as vectors, where the
lattice is large enough for scipy's single-vector product to pay.

Every per-voxel operation across the label axis iterates voxels
innermost: the softmax folds its min and sum over the label slices and
runs its subtract and divide on label-first views in their C order, MPM
decoding is a strict > fold over the label slices, and the convergence
test takes each field's max |change| as one segment reduction over the
flattened batch.  numpy would otherwise run an inner loop m = 2-3
elements long per voxel.  These are the same elementwise operations in
the same order, and max and argmax are exact, so the bits are those of
numpy's last-axis forms.
"""
from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .errors import CapacityError, ModelShapeError
from .lattice import PermutohedralLattice
from .model import DenseCrfModel, GaussianKernel, kernel_matrix

BACKENDS = ("exact", "lattice")
# Iteration caps must be below this: sweep counts are int64.
_ITERATION_LIMIT = 2 ** 63
# Kernel entries below the smallest normal double (voxel pairs about 38
# bandwidths apart) are set to zero: each moves a message by less than
# 1e-307, and subnormal operands slow BLAS down several-fold.
_TINY = np.finfo(np.float64).tiny
# Largest d x d axis factor or N x N kernel matrix the exact backend builds:
# 512 MiB of float64, and building it takes a few such temporaries more.
MAX_MATRIX_VALUES = 1 << 26
# numpy sums a reduced axis of 8 or more terms pairwise, not in order
_PAIRWISE_LABELS = 8
# transposes, by ndim, that move the last (label) axis first
_LABELS_FIRST = tuple((ndim - 1, *range(ndim - 1)) for ndim in range(65))
# A lattice filter call of at most _VECTOR_CHANNELS channels, on a lattice
# of at least _VECTOR_VERTICES vertices, filters them one at a time as
# vectors: scipy's single-vector product runs about three times faster
# per channel than its product over two columns (31 against 98 us a blur
# product on an 8307-vertex lattice).  Two vector filters against one
# two-channel call (medians of 300 alternating calls, 2-core VM) took
# 1.05-1.13x as long at 705-861 vertices, 0.99-1.06x at 1127-1151,
# 0.90-0.98x at 1388-2211 and 0.71-0.82x at 3164-41716; three took
# 1.2-1.6x as long up to 2211 vertices and 0.91-0.98x at 8k-42k.
_VECTOR_CHANNELS = 2
_VECTOR_VERTICES = 1 << 10


@dataclasses.dataclass(frozen=True)
class InferenceConfig:
    max_iterations: int = 10
    convergence_tol: float = 1e-5
    backend: str = "exact"

    def __post_init__(self):
        if not isinstance(self.max_iterations, (int, np.integer)) \
                or isinstance(self.max_iterations, bool) \
                or not 1 <= self.max_iterations < _ITERATION_LIMIT:
            raise ValueError("max_iterations must be an integer in "
                             f"[1, 2**63), got {self.max_iterations!r}")
        if not 0 <= self.convergence_tol < math.inf:
            raise ValueError("convergence_tol must be finite and "
                             f"non-negative, got {self.convergence_tol!r}")
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}")


def _over_labels(ufunc, a: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """ufunc reduced over the last (label) axis of a, m >= 2; labels is
    a's label-first view (_LABELS_FIRST).

    Below _PAIRWISE_LABELS labels it folds the label slices in order,
    elementwise, so numpy's inner loops run over voxels, not over m
    labels.  min is exact, and numpy sums fewer than 8 terms in order, so
    the bits match ufunc.reduce's; from 8 labels its sum is pairwise, and
    the reduction itself is used.
    """
    if labels.shape[0] >= _PAIRWISE_LABELS:
        return ufunc.reduce(a, axis=-1)
    out = ufunc(labels[0], labels[1], out=...)  # an array even when 0-d
    for label in range(2, labels.shape[0]):
        ufunc(out, labels[label], out=out)
    return out


def _softmax_neg(e: np.ndarray) -> np.ndarray:
    """softmax(-e) over the last axis (m >= 2 labels), shifted by each
    row's minimum.

    The subtract and the divide run on label-first views in their C
    order, voxels innermost; the output keeps e's label-last layout.
    """
    first = _LABELS_FIRST[e.ndim]
    labels = e.transpose(first)
    out = np.empty_like(e, order="C")
    out_labels = out.transpose(first)
    np.subtract(_over_labels(np.minimum, e, labels), labels,
                out=out_labels, order="C")
    np.exp(out, out=out)
    np.divide(out_labels, _over_labels(np.add, out, out_labels),
              out=out_labels, order="C")
    return out


def _lattice_apply(weight, lattice, mass, p: np.ndarray) -> np.ndarray:
    """w times the filter of fields (..., N, m) whose rows sum to m - 1.

    The first m - 1 channels are filtered by _filter_channels; the last
    is mass, (m - 1) w K 1, less their sum.
    """
    head = np.moveaxis(p[..., :-1], -2, 0)
    kp = _filter_channels(lattice, head.reshape(head.shape[0], -1))
    kp *= weight
    out = np.empty((*head.shape[:-1], p.shape[-1]))
    out[..., :-1] = kp.reshape(head.shape)
    out = np.moveaxis(out, 0, -2)
    last = out[..., -1]
    last[...] = mass
    for label in range(p.shape[-1] - 1):
        last -= out[..., label]
    return out


def _filter_channels(lattice, channels: np.ndarray) -> np.ndarray:
    """lattice.filter of (N, c) channels: one channel at a time, passed
    1-D so that scipy runs its single-vector product, when c is at most
    _VECTOR_CHANNELS and the lattice has at least _VECTOR_VERTICES
    vertices, else in one call.  The filter treats each channel on its
    own, so the bits are the same either way.
    """
    c = channels.shape[1]
    if c > _VECTOR_CHANNELS or lattice.n_lattice < _VECTOR_VERTICES:
        return lattice.filter(channels)
    out = np.empty(channels.shape)
    for k in range(c):
        out[:, k] = lattice.filter(channels[:, k])
    return out


def _exact_links(dims, n_labels: int, kernel: GaussianKernel) -> list:
    """Links (matrix, shape) of one kernel's exact operator p -> w K p; p
    passes through each in turn as matrix @ p.reshape(shape).

    A kernel over grid_coordinates(dims) has one d x d factor per axis
    longer than 1, exp(-0.5 ((a - b) / sigma)^2), the first one weighted,
    with shape (batch, d, trailing voxels x labels).  Any other kernel,
    and a grid with no axis longer than 1, has its dense N x N matrix.
    """
    n = math.prod(dims)
    grid = kernel.features.T.reshape(-1, *dims)  # axis a: its coordinates
    on_grid = grid.shape[0] == len(dims) and not np.count_nonzero(
        grid != np.indices(dims))
    axes = [a for a, d in enumerate(dims) if d > 1] if on_grid else []
    size = max((dims[a] for a in axes), default=n)
    if size * size > MAX_MATRIX_VALUES:
        raise CapacityError(
            f"a {size} x {size} kernel matrix exceeds the exact backend's "
            f"guard of {MAX_MATRIX_VALUES} values; use the lattice backend")
    if not axes:
        k = kernel_matrix(kernel)
        k[k < _TINY] = 0.0
        return [(k, (-1, n, n_labels))]
    links = []
    for a in axes:
        x = np.arange(dims[a], dtype=np.float64) / kernel.bandwidths[a]
        f = np.subtract.outer(x, x)
        f *= f  # bitwise (x_i - x_j) ** 2
        f *= -0.5
        np.exp(f, out=f)
        f[f < _TINY] = 0.0
        if a == axes[0]:
            f *= kernel.weight
        links.append((f, (-1, dims[a], math.prod(dims[a + 1:]) * n_labels)))
    return links


def _max_abs_change(new: np.ndarray, old: np.ndarray,
                    starts: np.ndarray) -> np.ndarray:
    """max |new - old| over each segment of the flattened fields that
    starts at starts; the difference lives only inside this call."""
    d = np.subtract(new, old).reshape(-1)
    return np.maximum.reduceat(np.abs(d, out=d), starts)


def _chain(links, p: np.ndarray) -> np.ndarray:
    """p passed through each (matrix, shape) link in turn."""
    kp = p
    for matrix, shape in links:
        kp = matrix @ kp.reshape(shape)
    return kp.reshape(p.shape)


class MeanField:
    """Parallel mean-field inference on one model with one backend.

    Built once per model; `messages`, `step` and `infer` reuse its kernel
    operators, one p -> w K p a kernel (a chain of matrices on the exact
    backend, a weighted lattice filter of m - 1 channels on the lattice
    backend), for any number of marginal fields.
    """

    def __init__(self, model: DenseCrfModel, cfg: InferenceConfig | None = None):
        self.model = model
        self.cfg = InferenceConfig() if cfg is None else cfg
        self._operators = []  # p -> w K p, one a kernel
        self._vertices = 0    # lattice vertices over every kernel
        for kernel in model.kernels:
            if self.cfg.backend == "lattice":
                lattice = PermutohedralLattice(kernel.scaled_features())
                self._vertices += lattice.n_lattice
                mass = ((model.n_labels - 1) * kernel.weight
                        * lattice.row_mass)
                self._operators.append(functools.partial(
                    _lattice_apply, kernel.weight, lattice, mass))
            else:
                self._operators.append(functools.partial(
                    _chain, _exact_links(model.dims, model.n_labels, kernel)))
        # a kernel is w at i = j; messages drop those terms as one
        self._self_weight = sum(kernel.weight for kernel in model.kernels)

    @property
    def sample_values(self) -> int:
        """Values one marginal field stacks: m * N, plus (m - 1) * the
        lattice vertices that its filtered channels fill."""
        m = self.model.n_labels
        return m * self.model.n_voxels + (m - 1) * self._vertices

    def messages(self, q: np.ndarray) -> np.ndarray:
        """Summed Potts messages sum_{j != i} k(i, j) (1 - q_j) for
        marginals of shape (..., N, m); rows must sum to 1, which the
        lattice backend's last channel relies on."""
        p = 1.0 - np.asarray(q)
        terms = [operator(p) for operator in self._operators]
        p *= -self._self_weight  # p's buffer becomes the sum
        for term in terms:
            p += term
        return p

    def step(self, q: np.ndarray) -> np.ndarray:
        """One parallel mean-field sweep; rows of the result sum to 1."""
        q = np.asarray(q)
        if q.shape[-2:] != (self.model.n_voxels, self.model.n_labels):
            raise ModelShapeError(
                f"marginal field shape {q.shape} does not match model")
        return self._sweep(q, self.model.unary)

    def _sweep(self, q: np.ndarray, unaries: np.ndarray) -> np.ndarray:
        """softmax(-(unaries + messages(q))), the sum taken in place."""
        e = self.messages(q)
        e += unaries
        return _softmax_neg(e)

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
        starts = np.arange(0, q.size, math.prod(q.shape[1:]))
        iterations = np.full(t, cfg.max_iterations, dtype=np.int64)
        active = np.arange(t)
        for it in range(cfg.max_iterations):
            # while every entry is active, skip the gather and the scatter
            every = active.size == t
            q_active = q if every else q[active]
            q_new = self._sweep(q_active, unaries if every else unaries[active])
            delta = _max_abs_change(q_new, q_active, starts[:active.size])
            if every:
                q = q_new
            else:
                q[active] = q_new
            done = delta < cfg.convergence_tol
            if np.count_nonzero(done):
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
    """Per-voxel argmax labels of (..., m >= 2) marginals, as np.intp;
    ties break toward the lowest label index.

    A strict > fold over the label slices, voxels innermost: label l wins
    where q_l exceeds the running maximum of q_0 .. q_{l-1}.  A NaN never
    compares greater and makes the running maximum NaN, so a row holding
    NaN decodes as the argmax of its entries before its first NaN (label 0
    when that is q_0); np.argmax would return the first NaN's index.
    """
    q = np.asarray(q)
    labels = q.transpose(_LABELS_FIRST[q.ndim])
    # out=... keeps a 1-d q's result an array, as np.maximum's out= needs
    out = np.greater(labels[1], labels[0], out=...).astype(np.intp)
    best = labels[0]
    for label in range(2, labels.shape[0]):
        best = np.maximum(best, labels[label - 1])
        np.maximum(out, np.multiply(labels[label] > best, label,
                                    dtype=np.intp), out=out)
    return out


def check_marginal_field(q: np.ndarray, atol: float = 1e-9) -> None:
    """Raise if q is not a row-stochastic (N, m) field."""
    q = np.asarray(q)
    if q.ndim != 2:
        raise ModelShapeError("marginal field must be 2-d")
    if np.any(q < -atol) or np.any(q > 1 + atol):
        raise ModelShapeError("marginal entries outside [0, 1]")
    if np.max(np.abs(q.sum(axis=1) - 1.0)) > atol:
        raise ModelShapeError("marginal rows do not sum to 1")
