"""Permutohedral lattice for fast approximate high-dimensional Gaussian filtering.

The filter evaluates, for every point i with feature vector f_i,

    out_i = sum_j exp(-0.5 * ||f_i - f_j||^2) * v_j

over all points j (including i itself), where features are pre-scaled so the
Gaussian has unit bandwidth.  The splat/blur/slice scheme runs in O(N * d)
per value channel instead of O(N^2).

Each stage is a sparse (CSR) matrix built once per lattice: the slice
S^T (N x L, the d+1 barycentric weights of each point's enclosing
simplex), the splat S, and one blur matrix 0.5 I + 0.25 (P+ + P-) per
lattice axis, where a neighbour outside the vertex set is no entry.  A
filter call is x = S v, N_BLUR rounds of x = B_axis x over the axes, and
gain * S^T x.  Sparse-times-dense products sum each channel on its own
in a fixed order, so a column's result does not depend on how many
columns share the call.

Two departures from the textbook single-pass scheme, both for accuracy:

* The blur stage runs ``N_BLUR`` passes of a [1, 2, 1]/4 kernel along each
  lattice direction, with features pre-scaled by sqrt(0.125 + 0.75 * N_BLUR)
  so the effective bandwidth stays at 1.  More passes give a more Gaussian
  profile; the lattice vertex set is expanded by N_BLUR - 1 neighbour rings
  (grown breadth-first, one ring at a time) so blurred mass is not
  truncated.
* The pipeline's global gain is arbitrary, so it is calibrated once at
  construction against exact Gaussian row masses at N_PROBES probe points.
  Filter outputs are then directly comparable to the brute-force kernel sum.
  The calibrated filter of ones, each point's row mass, is kept as
  ``row_mass``.
"""
from __future__ import annotations

import numpy as np

# Empirical variance of the splat/slice interpolation and of one blur pass,
# in lattice units (measured from the filter's impulse response).
_SPLAT_VARIANCE = 0.125
_BLUR_VARIANCE = 0.75
N_BLUR = 12
N_PROBES = 32


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
        from scipy import sparse

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
        vertices = _grow(np.unique(codes), off_codes, N_BLUR - 1)
        n_lattice = self.n_lattice = len(vertices)

        # Slice: row i holds the barycentric weights of point i's d+1
        # enclosing simplex vertices; the splat is its transpose.
        self._slice = sparse.csr_matrix(
            (bary[:, : d + 1].ravel(), np.searchsorted(vertices, codes),
             np.arange(0, codes.size + 1, d + 1)), shape=(n, n_lattice))
        self._splat = self._slice.T.tocsr()
        # One blur matrix per lattice axis; row j holds 0.5 at j and 0.25
        # at each of its two neighbours along the axis that exist.
        self._blur = []
        for off in off_codes:
            cols = [np.arange(n_lattice)]
            for shifted in (vertices + off, vertices - off):
                pos = np.minimum(np.searchsorted(vertices, shifted), n_lattice - 1)
                cols.append(np.where(vertices[pos] == shifted, pos, -1))
            cols = np.stack(cols, axis=1)
            found = cols >= 0
            weights = np.broadcast_to([0.5, 0.25, 0.25], cols.shape)[found]
            indptr = np.concatenate([[0], np.cumsum(found.sum(axis=1))])
            self._blur.append(sparse.csr_matrix(
                (weights, cols[found], indptr), shape=(n_lattice, n_lattice)))

    # -- filtering --------------------------------------------------------

    def filter(self, values: np.ndarray) -> np.ndarray:
        """Gaussian-filter per-point values; accepts (N,) or (N, c)."""
        vals = np.ascontiguousarray(values, dtype=np.float64)
        if vals.shape[0] != self.n_points:
            raise ValueError("value count does not match lattice points")
        lattice = self._splat @ vals
        for _ in range(N_BLUR):
            for blur in self._blur:
                lattice = blur @ lattice
        return self.gain * (self._slice @ lattice)

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


def _grow(seeds: np.ndarray, off_codes: np.ndarray, rings: int) -> np.ndarray:
    """Sorted codes of every vertex within `rings` lattice steps of `seeds`.

    Breadth-first: ring k+1 is the unique neighbours of ring k minus rings
    k and k-1 (a neighbour of a ring-k vertex lies in ring k-1, k or k+1),
    so each round touches only the newest ring, not the whole set.
    """
    steps = np.concatenate([off_codes, -off_codes])
    grown = [seeds]
    previous, ring = seeds[:0], seeds
    for _ in range(rings):
        nxt = np.unique((ring[:, None] + steps).ravel())
        nxt = nxt[~np.isin(nxt, ring) & ~np.isin(nxt, previous)]
        previous, ring = ring, nxt
        grown.append(ring)
    return np.sort(np.concatenate(grown))
