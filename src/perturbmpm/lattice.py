"""Permutohedral lattice for fast approximate high-dimensional Gaussian filtering.

The filter evaluates, for every point i with feature vector f_i,

    out_i = sum_j exp(-0.5 * ||f_i - f_j||^2) * v_j

over all points j (including i itself), where features are pre-scaled so the
Gaussian has unit bandwidth.  The splat/blur/slice scheme runs in O(N * d)
per value channel instead of O(N^2).

Each stage is a CSR operator, arrays (`_Csr`) that numpy builds once per
lattice: the slice S^T (N x L, the d+1 barycentric weights of each
point's enclosing simplex), the splat S, its transpose, and one blur
operator 0.5 I + 0.25 (P+ + P-) per lattice axis, where a neighbour
outside the vertex set is no entry.  A filter call is x = S v, N_BLUR
rounds of x = B_axis x over the axes, and gain * S^T x.
Sparse-times-dense products sum each channel on its own in a fixed
order, so a column's result does not depend on how many columns share
the call.  The products alternate between two flat buffers, the
caller's or the filter's own: each zero-fills its output and calls
csr_matvec or csr_matvecs from scipy's compiled sparsetools extension,
the routines that scipy's `matrix @ x` calls on a new zeroed array, so
the bits are scipy's and no product allocates; a call of two channels
runs them one at a time, as vectors, where csr_matvec is the faster.
The arrays are those scipy's csr_matrix would hold, index dtype
included, and the extension is loaded on its own (`_sparsetools`): the
scipy.sparse package, which takes a quarter of a second and 20 MiB to
import, is never imported.
The blur operators may hold at most MAX_MATRIX_VALUES entries together;
a point set whose lattice would need more raises CapacityError while its
vertex rings grow, or at the latest before that blur is allocated.

Two departures from the textbook single-pass scheme, both for accuracy:

* The blur stage runs ``N_BLUR`` passes of a [1, 2, 1]/4 kernel along each
  lattice direction, with features pre-scaled by sqrt(0.125 + 0.75 * N_BLUR)
  so the effective bandwidth stays at 1.  More passes give a more Gaussian
  profile; the lattice vertex set is expanded by N_BLUR - 1 neighbour rings
  so blurred mass is not truncated.  The rings are grown breadth-first,
  one at a time, by sorted merging: a ring's neighbour codes are sorted,
  repeats dropped by comparing each code with the one before it, and the
  codes not yet grown merged into the sorted vertex set at the positions
  a binary search finds.  No hash set is built.
* The pipeline's global gain is arbitrary, so it is calibrated once at
  construction against exact Gaussian row masses at N_PROBES probe points.
  Filter outputs are then directly comparable to the brute-force kernel sum.
  The calibrated filter of ones, each point's row mass, is kept as
  ``row_mass``.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from .errors import MAX_MATRIX_VALUES, CapacityError

# Empirical variance of the splat/slice interpolation and of one blur pass,
# in lattice units (measured from the filter's impulse response).
_SPLAT_VARIANCE = 0.125
_BLUR_VARIANCE = 0.75
N_BLUR = 12
N_PROBES = 32
_INT32_MAX = np.iinfo(np.int32).max
# Most channels a filter call runs as vectors: csr_matvec took 31 us a
# blur product on an 8307-vertex lattice, csr_matvecs over two columns
# 98; three vectors took 0.91-0.98x one 3-column call (2-core VM).
_VECTOR_CHANNELS = 2


class _Csr(NamedTuple):
    """A CSR operator's arrays, as scipy's csr_matrix holds them."""
    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray


class PermutohedralLattice:
    """Splat/blur/slice Gaussian filter over a fixed point set."""

    def __init__(self, features: np.ndarray):
        features = np.ascontiguousarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError("features must be an (N, d) array")
        self.n_points, self.d = features.shape
        scale = np.sqrt(_SPLAT_VARIANCE + _BLUR_VARIANCE * N_BLUR)
        self._build(features * scale)
        self.gain = 1.0  # so that raw is the uncalibrated filter of ones
        raw = self.filter(np.ones(self.n_points))
        self.gain = self._calibrate(features, raw)
        # filter(ones), bitwise: filter returns gain * (slice @ lattice)
        self.row_mass = self.gain * raw

    # -- construction -----------------------------------------------------

    def _build(self, features: np.ndarray) -> None:
        n, d = features.shape
        # Rotate/scale onto the hyperplane sum(x) = 0 in d+1 dimensions.
        inv_std = np.sqrt(2.0 / 3.0) * (d + 1)
        axis_scale = inv_std / np.sqrt(np.arange(1, d + 1) * np.arange(2, d + 2))
        cf = features * axis_scale

        elevated = np.empty((n, d + 1))
        sm = np.zeros(n)
        for i in range(d, 0, -1):
            elevated[:, i] = sm - i * cf[:, i - 1]
            sm += cf[:, i - 1]
        elevated[:, 0] = sm
        # from 2**52 on no fraction bits place a point inside its simplex
        if not np.abs(elevated).max(initial=0.0) < 2.0 ** 52:
            raise ValueError("lattice key range too large to encode")

        # Nearest lattice point with coordinates that are multiples of d+1,
        # then repair the zero-sum constraint using the coordinate ranks.
        greedy = np.rint(elevated / (d + 1)) * (d + 1)
        diff = elevated - greedy
        order = np.argsort(-diff, axis=1, kind="stable")
        rank = np.empty_like(order)
        np.put_along_axis(
            rank, order,
            np.broadcast_to(np.arange(d + 1), order.shape).copy(), axis=1)
        coord_sum = np.rint(greedy.sum(axis=1) / (d + 1)).astype(np.int64)
        rank = rank + coord_sum[:, None]
        low = rank < 0
        greedy[low] += d + 1
        rank[low] += d + 1
        high = rank > d
        greedy[high] -= d + 1
        rank[high] -= d + 1

        # Barycentric coordinates inside the enclosing simplex.
        bary = np.zeros((n, d + 2))
        delta = (elevated - greedy) / (d + 1)
        rows = np.arange(n)
        for i in range(d + 1):
            bary[rows, d - rank[:, i]] += delta[:, i]
            bary[rows, d + 1 - rank[:, i]] -= delta[:, i]
        bary[:, 0] += 1.0 + bary[:, d + 1]

        # Simplex vertex keys; only the first d coordinates are stored.
        greedy_i = np.rint(greedy).astype(np.int64)
        keys = np.empty((n, d + 1, d), dtype=np.int64)
        for rem in range(d + 1):
            canonical = np.where(rank[:, :d] < d + 1 - rem, rem, rem - (d + 1))
            keys[:, rem, :] = greedy_i[:, :d] + canonical
        flat_keys = keys.reshape(-1, d)

        # Keys are encoded as single integers (mixed-radix over a bounding
        # box padded for the neighbour-ring growth) so that deduplication
        # and neighbour lookups are plain sorted-integer operations.
        offsets = []
        for axis in range(d + 1):
            off = np.ones(d, dtype=np.int64)
            if axis < d:
                off[axis] = -d
            offsets.append(off)
        margin = (N_BLUR + 1) * d
        lo = flat_keys.min(axis=0) - margin
        span = flat_keys.max(axis=0) + margin + 1 - lo
        if np.prod(span, dtype=np.float64) > 2 ** 62:
            raise ValueError("lattice key range too large to encode")
        strides = np.empty(d, dtype=np.int64)
        strides[-1] = 1
        for i in range(d - 2, -1, -1):
            strides[i] = strides[i + 1] * span[i + 1]
        off_codes = np.array([off @ strides for off in offsets])

        codes = (flat_keys - lo) @ strides
        vertices = _grow(_distinct(codes), off_codes, N_BLUR - 1)
        n_lattice = self.n_lattice = len(vertices)

        # Slice: row i holds the barycentric weights of point i's d+1
        # enclosing simplex vertices.  The splat is its transpose: the
        # entries grouped by vertex, in the slice's order within a vertex,
        # which is the order scipy's .T.tocsr() gives.
        index = _index_dtype(n, n_lattice, codes.size)
        columns = np.searchsorted(vertices, codes).astype(index, copy=False)
        weights = bary[:, : d + 1].ravel()
        self._slice = _Csr((n, n_lattice),
                           np.arange(0, codes.size + 1, d + 1, dtype=index),
                           columns, weights)
        order = np.argsort(columns, kind="stable")
        indptr = np.zeros(n_lattice + 1, dtype=index)
        np.cumsum(np.bincount(columns, minlength=n_lattice), out=indptr[1:])
        self._splat = _Csr((n_lattice, n), indptr,
                           (order // (d + 1)).astype(index), weights[order])
        self._blur = []
        for off in off_codes:
            budget = MAX_MATRIX_VALUES - sum(b.data.size for b in self._blur)
            self._blur.append(_blur_matrix(vertices, off, budget))

    # -- filtering --------------------------------------------------------

    def filter(self, values: np.ndarray, buffers=None) -> np.ndarray:
        """Gaussian-filter per-point values; accepts (N,) or (N, c).

        buffers are two flat float64 arrays of at least max(L, N) * c
        values each, L the vertex count, that the filter overwrites; it
        allocates them when None.  The splat writes into the second, the
        blurs alternate between the two, and the slice writes the result
        into the first, which is returned as a view.  values may be a view
        of the first buffer, never of the second.  A call of 2 to
        _VECTOR_CHANNELS channels first copies each into its own
        max(L, N)-value segment of the second buffer and filters it there
        as a vector, in its segments of both buffers with their roles
        swapped; the results are copied back in (N, c) order.
        """
        sparsetools = _sparsetools()
        vals = np.ascontiguousarray(values, dtype=np.float64)
        n, size = self.n_points, max(self.n_lattice, self.n_points)
        if vals.shape[0] != n:
            raise ValueError("value count does not match lattice points")
        c = math.prod(vals.shape[1:])
        if buffers is None:
            buffers = [np.empty(size * c) for _ in range(2)]
        # sparsetools writes through raw pointers and checks no bounds
        for buffer in buffers:
            if not (isinstance(buffer, np.ndarray) and buffer.ndim == 1
                    and buffer.dtype == np.float64 and buffer.size >= size * c
                    and buffer.flags.c_contiguous and buffer.flags.writeable):
                raise ValueError("filter buffers must be two writeable, "
                                 f"C-contiguous float64 vectors of at least "
                                 f"{size * c} values")
        first, second = buffers
        if np.may_share_memory(vals, second):
            raise ValueError("filter values must not share the second buffer")
        vectors = 1 < c <= _VECTOR_CHANNELS
        if vectors:
            columns = second[:size * c].reshape(c, size)
            columns[:, :n] = vals.reshape(n, c).T
            chains = [(1, column[:n], first[k * size:(k + 1) * size], column)
                      for k, column in enumerate(columns)]
        else:
            chains = [(c, vals.reshape(-1), second, first)]
        for width, x, work, dest in chains:
            lattice = _product(sparsetools, self._splat, width, x,
                               work[:self.n_lattice * width])
            spare = dest[:self.n_lattice * width]
            for _ in range(N_BLUR):
                for blur in self._blur:
                    lattice, spare = _product(sparsetools, blur, width,
                                              lattice, spare), lattice
            # N_BLUR is even, so the blurs end in work
            _product(sparsetools, self._slice, width, lattice,
                     dest[:n * width])
        out = first[:vals.size].reshape(n, c)
        if vectors:
            out[...] = columns[:, :n].T
        out *= self.gain
        return out.reshape(vals.shape)

    # -- calibration ------------------------------------------------------

    def _calibrate(self, features: np.ndarray, raw: np.ndarray) -> float:
        """Match the filter's global gain to exact Gaussian row masses,
        given the uncalibrated filter of ones."""
        probes = np.unique(
            np.linspace(0, self.n_points - 1,
                        min(N_PROBES, self.n_points)).astype(int))
        sq = np.zeros((probes.size, self.n_points))
        for column in features.T:
            sq += (column[probes, None] - column[None, :]) ** 2
        sq *= -0.5
        exact_mass = np.exp(sq, out=sq).sum(axis=1)
        return float(np.median(exact_mass / raw[probes]))


def _product(sparsetools, matrix, c: int, x: np.ndarray, out: np.ndarray
             ) -> np.ndarray:
    """out = matrix @ x for a CSR matrix and c columns of dense x, both
    flat and C-ordered; returns out.

    This is scipy's own product without the allocation: scipy zero-fills
    a new output and calls the same private sparsetools routine,
    csr_matvec for one column, (n,) or (n, 1), and csr_matvecs for more,
    so the bits are the same.
    """
    out.fill(0.0)
    rows, cols = matrix.shape
    if c == 1:
        sparsetools.csr_matvec(rows, cols, matrix.indptr, matrix.indices,
                               matrix.data, x, out)
    else:
        sparsetools.csr_matvecs(rows, cols, c, matrix.indptr, matrix.indices,
                                matrix.data, x, out)
    return out


def _blur_matrix(vertices: np.ndarray, off: int, budget: int) -> _Csr:
    """The CSR blur along one lattice axis of step code off: row j holds
    0.5 at j and 0.25 at j's + and - neighbours where they are vertices.
    Raises CapacityError, before it allocates them, when its entries
    would be more than budget.

    One binary search finds every vertex's + neighbour; the - neighbours
    are its inverse, since k is the - neighbour of j exactly when j is
    the + neighbour of k.
    """
    n = vertices.size
    shifted = vertices + off
    plus = np.minimum(np.searchsorted(vertices, shifted), n - 1)
    has_plus = vertices[plus] == shifted
    plus = plus[has_plus]
    entries = n + 2 * plus.size
    if entries > budget:
        _over_budget(f"{n} vertices")
    index = _index_dtype(n, entries)
    has_minus = np.zeros(n, dtype=bool)
    has_minus[plus] = True
    # row j: j, then its + neighbour, then its - neighbour, where they exist
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(1 + has_plus + has_minus, out=indptr[1:])
    self_at = indptr[:-1]
    indices = np.empty(entries, dtype=index)
    indices[self_at] = np.arange(n)
    indices[self_at[has_plus] + 1] = plus
    # the - neighbour of vertex plus[i] is the i-th vertex with a + one
    indices[indptr[1:][plus] - 1] = np.flatnonzero(has_plus)
    data = np.full(entries, 0.25)
    data[self_at] = 0.5
    return _Csr((n, n), indptr, indices, data)


def _index_dtype(*sizes: int) -> type:
    """The index dtype scipy gives a CSR matrix whose shape and entry
    count are at most max(sizes): int32 while that fits."""
    return np.int32 if max(sizes) <= _INT32_MAX else np.int64


def _over_budget(what: str):
    raise CapacityError(
        f"the lattice's blur operators over {what} would hold more than "
        f"{MAX_MATRIX_VALUES} entries; use the exact backend or wider "
        "kernel bandwidths")


def _sparsetools():
    """scipy's compiled sparsetools extension, loaded without importing
    scipy or scipy.sparse, under its own name so that a later import of
    scipy.sparse reuses it (and the one scipy.sparse loaded is reused)."""
    name = "scipy.sparse._sparsetools"
    module = sys.modules.get(name)
    if module is None:
        scipy = importlib.util.find_spec("scipy")
        spec = scipy and importlib.machinery.PathFinder.find_spec(
            name, [os.path.join(path, "sparse")
                   for path in scipy.submodule_search_locations or ()])
        if spec is None:
            raise ImportError(f"cannot find scipy's compiled extension {name}",
                              name=name)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return module


def _distinct(codes: np.ndarray) -> np.ndarray:
    """codes sorted, each value once: a sort and a comparison of every
    code with the one before it."""
    codes = np.sort(codes)
    keep = np.empty(codes.size, dtype=bool)
    keep[:1] = True
    np.not_equal(codes[1:], codes[:-1], out=keep[1:])
    return codes[keep]


def _grow(seeds: np.ndarray, off_codes: np.ndarray, rings: int) -> np.ndarray:
    """Sorted codes of every vertex within `rings` lattice steps of the
    sorted, distinct `seeds`.

    Breadth-first, one ring at a time: ring k+1 is the distinct neighbours
    of ring k that are not yet grown, found by binary search in the sorted
    grown set and merged into it at those positions, so the set stays
    sorted and no round hashes or re-sorts it.  Before it forms a ring's
    neighbours it raises CapacityError if the blurs' rows of the vertices
    grown so far would already hold more than MAX_MATRIX_VALUES entries.
    """
    steps = np.concatenate([off_codes, -off_codes])
    grown = ring = seeds
    for done in range(rings):
        # ring k+1 gives every grown vertex all of its neighbours, so each
        # row of each of the off_codes.size blurs will hold 3 entries
        if 3 * off_codes.size * grown.size > MAX_MATRIX_VALUES:
            _over_budget(f"{grown.size} vertices after {done} of {rings} "
                         "rings")
        near = _distinct((ring[:, None] + steps).ravel())
        pos = np.searchsorted(grown, near)
        new = grown[np.minimum(pos, grown.size - 1)] != near
        ring = near[new]
        grown = np.insert(grown, pos[new], ring)
    return grown
