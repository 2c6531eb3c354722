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
its cost is per matrix product, not per channel.

Every per-voxel operation across the label axis iterates voxels
innermost: the softmax folds its min and sum over the label slices and
runs its subtract and divide on label-first views in their C order, MPM
decoding is a strict > fold over the label slices, and the convergence
test takes each field's max |change| as one segment reduction over the
flattened batch.  numpy would otherwise run an inner loop m = 2-3
elements long per voxel.  These are the same elementwise operations in
the same order, and max and argmax are exact, so the bits are those of
numpy's last-axis forms.

A solve runs in one workspace that `infer` allocates per call: the
marginals q, two flat work buffers of max(T N m, T (m - 1) L) values for
T fields and the largest lattice's L vertices (L = 0 on the exact
backend), and one (T, N) buffer for the softmax's row folds; a model of
two kernels or more adds a third work buffer.  Each kernel operator is
bound once to the active fields and the buffers (`_chain`,
`_lattice_apply`), so a sweep allocates nothing: exact links run as
np.matmul(..., out=) between the work buffers, the lattice's m - 1
channels are made from q in the first and filtered through both
(PermutohedralLattice.filter's buffers), and the messages, the unaries,
the in-place softmax and the convergence test's differences share the
same two.  The softmax is bound the same way (`_bind_softmax`): its
label-first views, their label slices and the row buffer's slots are
made once for each set of active fields, when the solve starts and
again after an entry converges, not on every sweep.  Floating-point sums
keep their operands and order, so the bits are those of the allocating
forms.
"""
from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .errors import (MAX_MATRIX_VALUES, CapacityError, ModelShapeError,
                     _check_integer)
from .lattice import PermutohedralLattice
from .model import DenseCrfModel, GaussianKernel, kernel_matrix

BACKENDS = ("exact", "lattice")
# Iteration caps must be below this: sweep counts are int64.
_ITERATION_LIMIT = 2 ** 63
# Weighted kernel entries below the smallest normal double (voxel pairs
# about 38 bandwidths apart) are set to zero: each moves a message by less
# than 1e-307, and subnormal operands slow BLAS down several-fold.
_TINY = np.finfo(np.float64).tiny
# numpy sums a reduced axis of 8 or more terms pairwise, not in order
_PAIRWISE_LABELS = 8
# transposes, by ndim, that move the last (label) axis first
_LABELS_FIRST = tuple((ndim - 1, *range(ndim - 1)) for ndim in range(65))


@dataclasses.dataclass(frozen=True)
class InferenceConfig:
    max_iterations: int = 10
    convergence_tol: float = 1e-5
    backend: str = "exact"

    def __post_init__(self):
        _check_integer("max_iterations", self.max_iterations, 1, 63)
        if not 0 <= self.convergence_tol < math.inf:
            raise ValueError("convergence_tol must be finite and "
                             f"non-negative, got {self.convergence_tol!r}")
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}")


def _over_labels(ufunc, a: np.ndarray, labels: np.ndarray, out: np.ndarray):
    """Bind ufunc reduced over the last (label) axis of a, m >= 2, to out;
    labels is a's label-first view (_LABELS_FIRST).  The function returned
    writes the reduction into out and returns out.

    Below _PAIRWISE_LABELS labels it folds the label slices in order,
    elementwise, so numpy's inner loops run over voxels, not over m
    labels.  min is exact, and numpy sums fewer than 8 terms in order, so
    the bits match ufunc.reduce's; from 8 labels its sum is pairwise, and
    the reduction itself is used.
    """
    if labels.shape[0] >= _PAIRWISE_LABELS:
        return functools.partial(ufunc.reduce, a, -1, out=out)
    # [label, ...] keeps a 1-d a's slices 0-d views, not copied scalars
    first, second, *rest = [labels[label, ...]
                            for label in range(labels.shape[0])]

    def run():
        ufunc(first, second, out=out)
        for label in rest:
            ufunc(out, label, out=out)
        return out

    return run


def _bind_softmax(e: np.ndarray, out: np.ndarray,
                  scratch: np.ndarray | None = None):
    """Bind softmax(-e) over the last axis (m >= 2 labels), shifted by
    each row's minimum, to out (which may be e): the function returned
    writes it into out and returns out.  scratch, of shape e.shape[:-1]
    and allocated when None, holds the row minimum and then the row sum.

    The label-first views, their label slices and the folds over them are
    made here once, so a sweep that reuses the binding derives none of
    them.  The subtract and the divide run on label-first views in their
    C order, voxels innermost; the output keeps e's label-last layout.
    """
    first = _LABELS_FIRST[e.ndim]
    labels = e.transpose(first)
    if scratch is None:
        scratch = np.empty(e.shape[:-1], out.dtype)
    out_labels = labels if out is e else out.transpose(first)
    low = _over_labels(np.minimum, e, labels, scratch)
    total = _over_labels(np.add, out, out_labels, scratch)

    def run():
        np.subtract(low(), labels, out=out_labels, order="C")
        np.exp(out, out=out)
        np.divide(out_labels, total(), out=out_labels, order="C")
        return out

    return run


def _lattice_apply(weight, lattice, mass, q: np.ndarray, x: np.ndarray,
                   y: np.ndarray):
    """Bind one kernel's lattice operator to fields q of shape (..., N, m),
    whose rows sum to 1, and to the flat work buffers x and y: the
    function returned writes w times the filter of 1 - q into y, as q's
    shape, returns that view, and leaves 1 - q in x.

    The first m - 1 channels 1 - q_l are written straight from q into x,
    as one (N, c) block, and filtered in one call with x and y as the
    filter's buffers, which puts the result in their place; the last is
    mass, (m - 1) w K 1, less their sum.
    """
    *lead, n, m = q.shape
    c = (m - 1) * math.prod(lead)
    block = x[:n * c].reshape(n, *lead, m - 1)
    channels = np.moveaxis(block, 0, -2)  # q's layout, (..., N, m - 1)
    values = block.reshape(n, c)
    e = y[:q.size].reshape(q.shape)
    labels = [e[..., label] for label in range(m)]
    p = x[:q.size].reshape(q.shape)

    def run():
        np.subtract(1.0, q[..., :-1], out=channels)
        lattice.filter(values, (x, y))
        np.multiply(channels, weight, out=e[..., :-1])
        last = labels[-1]
        last[...] = mass
        for label in labels[:-1]:
            last -= label
        np.subtract(1.0, q, out=p)
        return e

    return run


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
    links = [] if axes else [(kernel_matrix(kernel), (-1, n, n_labels))]
    for a in axes:
        x = np.arange(dims[a], dtype=np.float64) / kernel.bandwidths[a]
        f = np.subtract.outer(x, x)
        f *= f  # bitwise (x_i - x_j) ** 2
        f *= -0.5
        np.exp(f, out=f)
        if a == axes[0]:
            f *= kernel.weight
        links.append((f, (-1, dims[a], math.prod(dims[a + 1:]) * n_labels)))
    for f, _ in links:  # weighted, so the cut-off leaves no subnormal
        f[f < _TINY] = 0.0
    return links


def _chain(links, q: np.ndarray, x: np.ndarray, y: np.ndarray):
    """Bind one kernel's exact operator, its (matrix, shape) links, to
    fields q and to the flat work buffers x and y: the function returned
    writes w K (1 - q) into y, as q's shape, returns that view, and leaves
    1 - q in x.

    p = 1 - q passes through each link in turn as np.matmul(matrix,
    p.reshape(shape), out=...), the products alternating between the
    buffers and starting where the last one lands in y.  A single link
    leaves 1 - q in x untouched; a longer chain writes it there again.
    """
    n = q.size
    src, dst = (x, y) if len(links) % 2 else (y, x)
    p = src[:n].reshape(q.shape)
    products = []
    for matrix, shape in links:
        products.append((matrix, src[:n].reshape(shape),
                         dst[:n].reshape(shape)))
        src, dst = dst, src
    left = None if len(links) == 1 else x[:n].reshape(q.shape)
    e = y[:n].reshape(q.shape)

    def run():
        np.subtract(1.0, q, out=p)
        for matrix, a, b in products:
            np.matmul(matrix, a, out=b)
        if left is not None:  # the products overwrote p
            np.subtract(1.0, q, out=left)
        return e

    return run


class MeanField:
    """Parallel mean-field inference on one model with one backend.

    Built once per model; `messages`, `step` and `infer` reuse its kernel
    operators, one q -> w K (1 - q) a kernel (a chain of matrices on the
    exact backend, a weighted lattice filter of m - 1 channels on the
    lattice backend), for any number of marginal fields.  Each call
    takes its fields through `_fields`, which checks their shape and
    allocates the call's work buffers; the solver keeps none, so it
    serves any number of threads.  `sample_values` is the values one
    marginal field stacks: m N, plus (m - 1) times the lattice vertices
    over every kernel, which its filtered channels fill.
    """

    def __init__(self, model: DenseCrfModel, cfg: InferenceConfig | None = None):
        self.model = model
        self.cfg = InferenceConfig() if cfg is None else cfg
        self._operators = []  # q, x, y -> w K (1 - q) in y, one a kernel
        vertices = []         # each lattice's vertices (lattice backend)
        for kernel in model.kernels:
            if self.cfg.backend == "lattice":
                lattice = PermutohedralLattice(kernel.scaled_features())
                vertices.append(lattice.n_lattice)
                mass = ((model.n_labels - 1) * kernel.weight
                        * lattice.row_mass)
                self._operators.append(functools.partial(
                    _lattice_apply, kernel.weight, lattice, mass))
            else:
                self._operators.append(functools.partial(
                    _chain, _exact_links(model.dims, model.n_labels, kernel)))
        m, n = model.n_labels, model.n_voxels
        self.sample_values = m * n + (m - 1) * sum(vertices)
        # each work buffer's values a field: its m channels, or the m - 1
        # filtered ones over the largest lattice's vertices
        self._work_values = max(m * n, (m - 1) * max(vertices, default=0))
        # a kernel is w at i = j; messages drop those terms as one
        self._self_weight = sum(kernel.weight for kernel in model.kernels)

    def _bind(self, q: np.ndarray, x: np.ndarray, y: np.ndarray,
              z: np.ndarray | None = None):
        """Bind the messages of fields q to the flat work buffers x, y and
        z (z only for two kernels or more): the function returned writes
        messages(q) into y, as q's shape, and returns that view; x and z
        are overwritten.  The first kernel's term lands in y beside 1 - q
        in x, which becomes the self term there; later terms land in z."""
        e = y[:q.size].reshape(q.shape)
        p = x[:q.size].reshape(q.shape)
        weight = -self._self_weight
        ops = self._operators
        first = ops[0](q, x, y) if ops else None
        rest = [op(q, x, z) for op in ops[1:]]

        def run():
            if first is None:  # no kernel: the self term alone, 0
                np.subtract(1.0, q, out=e)
                return np.multiply(e, weight, out=e)
            first()
            np.add(e, np.multiply(p, weight, out=p), out=e)
            for term in rest:
                np.add(e, term(), out=e)
            return e

        return run

    def _fields(self, q, batch: bool = False):
        """The one entry of `messages`, `step` and `infer`: q as an array
        of fields, (..., N, m), or (T, N, m) when batch; flat work buffers
        x and y of `_work_values` values a field; and bind, which binds the
        messages of fields of at most q's size to x, y and, on a model of
        two kernels or more, a third buffer (`_bind`).  Raises
        ModelShapeError for any other shape."""
        q = np.asarray(q)
        n, m = self.model.n_voxels, self.model.n_labels
        if q.shape[-2:] != (n, m) or batch and q.ndim != 3:
            raise ModelShapeError(
                f"field shape {q.shape} does not match model, which takes "
                f"({'T' if batch else '...'}, {n}, {m})")
        size = q.size // (n * m) * self._work_values
        x, y, *z = [np.empty(size)
                    for _ in range(2 if len(self._operators) < 2 else 3)]
        return q, x, y, lambda fields: self._bind(fields, x, y, *z)

    def messages(self, q: np.ndarray) -> np.ndarray:
        """Summed Potts messages sum_{j != i} k(i, j) (1 - q_j) for
        marginals of shape (..., N, m); rows must sum to 1, which the
        lattice backend's last channel relies on."""
        q, _, y, bind = self._fields(q)
        e = bind(q)()
        return e if e.size == y.size else e.copy()

    def step(self, q: np.ndarray) -> np.ndarray:
        """One parallel mean-field sweep; rows of the result sum to 1."""
        e = self.messages(q)
        e += self.model.unary
        return _bind_softmax(e, e)()

    def infer(self, unaries: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Mean-field inference for a batch of unary fields of shape
        (T, N, m) sharing the model's kernels; any other shape raises
        ModelShapeError.

        Converged batch entries are frozen so results are identical to
        running each entry on its own.  Returns (marginals, iterations,
        converged) with shapes (T, N, m), (T,) and (T,); an entry that
        never changed by less than the tolerance stops at the iteration
        cap with converged False.

        The solve allocates its workspace once: q, the `_fields`
        buffers and one (T, N) buffer for the softmax's label folds, and
        only reads unaries.  The active entries fill q's first slots; an
        entry that converges moves behind them once, in the copy that
        stores its last sweep, and the slots go back to entry order at the
        end.  Once an active entry sits in another entry's slot, each
        sweep reads the active unaries through one np.take.
        """
        cfg = self.cfg
        unaries, x, y, bind = self._fields(unaries, batch=True)
        t = unaries.shape[0]
        field = math.prod(unaries.shape[1:])
        q = np.empty(unaries.shape)
        rows = np.empty(unaries.shape[:-1])
        _bind_softmax(unaries, q, rows)()
        starts = np.arange(0, q.size, field)
        iterations = np.full(t, cfg.max_iterations, dtype=np.int64)
        order = np.arange(t)  # the entry each slot holds
        k = t                 # active entries, in slots [0, k)
        in_order = True       # order == arange(t)
        flat = q.reshape(-1)

        def active(k):
            """Views of the first k slots, flat views of their fields in
            q, in y (where messages lands) and in x, their messages, and
            the in-place softmax of those messages in y."""
            size = k * field
            e = y[:size].reshape(q[:k].shape)
            return (q[:k], unaries[:k], starts[:k], flat[:size], y[:size],
                    x[:size], bind(q[:k]), _bind_softmax(e, e, rows[:k]))

        qk, uk, sk, qf, ef, d, messages, softmax = active(t)
        for it in range(cfg.max_iterations):
            e = messages()
            e += uk if in_order else np.take(
                unaries, order[:k], axis=0, out=d.reshape(e.shape),
                mode="clip")
            softmax()
            # each entry's max |change|, one segment of the flat fields
            np.abs(np.subtract(ef, qf, out=d), out=d)
            done = np.maximum.reduceat(d, sk) < cfg.convergence_tol
            if not np.count_nonzero(done):
                qk[...] = e
                continue
            slots = order[:k]
            iterations[slots[done]] = it + 1
            keep = np.flatnonzero(~done)
            moved = np.concatenate((keep, np.flatnonzero(done)))
            np.take(e, moved, axis=0, out=qk, mode="clip")
            order[:k] = slots[moved]
            k = keep.size
            if k == 0:
                break
            # moved is the identity when the converged slots were the last
            in_order = in_order and keep[-1] == k - 1
            qk, uk, sk, qf, ef, d, messages, softmax = active(k)
        converged = np.ones(t, dtype=bool)
        converged[order[:k]] = False
        if not in_order:
            back = x[:q.size].reshape(q.shape)
            back[order] = q
            np.copyto(q, back)
        return q, iterations, converged


def mean_field_infer(model: DenseCrfModel, cfg: InferenceConfig | None = None
                     ) -> tuple[np.ndarray, int]:
    """Iterate mean-field sweeps to convergence; returns (Q, n_iterations).

    Builds a new MeanField on every call, which costs 14-23 us on a
    12-voxel chain before any sweep runs; repeated solves of one model
    should build MeanField once and call its `infer`."""
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

