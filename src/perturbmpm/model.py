"""Dense CRF model: unary potentials, Gaussian pairwise kernels, Gibbs energy.

Labels are 0-indexed integers 0..m-1.  Unary potentials are stored in nats
as psi_u = -log(p_u); lower values mean more likely.  Pairwise potentials
use a Potts compatibility mu(l, l') = 1{l != l'} weighted by a mixture of
diagonal-bandwidth Gaussian kernels over per-voxel feature vectors.
"""
from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from .errors import ModelShapeError

PROB_CLAMP = 1e-12


def _frozen_array(values, dtype=np.float64, ndim=None) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    if ndim is not None and arr.ndim != ndim:
        raise ModelShapeError(f"expected a {ndim}-d array, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


# The rules of a grid model's values, each stated once: the model classes,
# build_grid_model and the config reader all call them.

def check_dims(dims: tuple[int, ...]) -> None:
    """Raise ModelShapeError unless dims is a grid of one or more axes,
    each of positive size."""
    if not dims or min(dims) < 1:
        raise ModelShapeError(
            f"grid dims must be one or more positive sizes, got {dims}")


def check_labels(n_labels: int) -> None:
    """Raise ModelShapeError unless there are at least 2 labels."""
    if n_labels < 2:
        raise ModelShapeError(f"need at least 2 labels, got {n_labels}")


def check_kernel(weight: float, bandwidths) -> None:
    """Raise ModelShapeError unless the weight is finite and non-negative
    and every bandwidth (sigma) positive and finite."""
    if not 0 <= weight < np.inf:  # False for NaN too
        raise ModelShapeError(
            f"kernel weight must be finite and non-negative, got {weight!r}")
    if not all(0 < sigma < np.inf for sigma in bandwidths):
        raise ModelShapeError("kernel bandwidths must be positive and finite")


def check_sigma_count(count: int, ndims: int) -> None:
    """Raise ModelShapeError unless a grid kernel has one sigma for every
    axis, or one for all of them."""
    if count not in (1, ndims):
        expected = "1" if ndims == 1 else f"1 or {ndims}"
        raise ModelShapeError(f"kernel has {count} sigmas for a {ndims}-d "
                              f"grid (expected {expected})")


@dataclasses.dataclass(frozen=True)
class GaussianKernel:
    """Weighted Gaussian kernel: w * exp(-0.5 * sum_d ((f_i - f_j) / sigma_d)^2)."""

    weight: float
    features: np.ndarray    # (N, D) per-voxel feature vectors
    bandwidths: np.ndarray  # (D,) per-dimension standard deviations

    def __post_init__(self):
        features = _frozen_array(np.atleast_2d(self.features), ndim=2)
        bandwidths = _frozen_array(np.atleast_1d(self.bandwidths), ndim=1)
        check_kernel(self.weight, bandwidths)
        if features.shape[1] != bandwidths.shape[0]:
            raise ModelShapeError(
                f"feature dimension {features.shape[1]} does not match "
                f"{bandwidths.shape[0]} bandwidths")
        if not np.all(np.isfinite(features)):
            raise ModelShapeError("kernel features must be finite")
        with np.errstate(over="ignore", invalid="ignore"):
            scaled = features / bandwidths
            span = np.ptp(scaled, axis=0) if len(scaled) else 0.0
            if not np.isfinite(np.dot(span, span)):  # largest squared distance
                raise ModelShapeError("kernel bandwidths too small: "
                                      "(features / bandwidths) span overflows")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "bandwidths", bandwidths)
        object.__setattr__(self, "weight", float(self.weight))

    @property
    def n_voxels(self) -> int:
        return self.features.shape[0]

    def scaled_features(self) -> np.ndarray:
        """Features divided by bandwidths (unit-bandwidth Gaussian space)."""
        return self.features / self.bandwidths


@dataclasses.dataclass(frozen=True)
class DenseCrfModel:
    """Fully connected CRF over a voxel grid with Potts compatibility."""

    dims: tuple[int, ...]
    n_labels: int
    unary: np.ndarray              # (N, m) potentials in nats
    kernels: tuple[GaussianKernel, ...] = ()

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        check_dims(dims)
        check_labels(self.n_labels)
        unary = _frozen_array(self.unary, ndim=2)
        n = int(np.prod(dims))
        if unary.shape != (n, self.n_labels):
            raise ModelShapeError(
                f"unary shape {unary.shape} does not match grid with "
                f"{n} voxels and {self.n_labels} labels")
        if not np.all(np.isfinite(unary)):
            raise ModelShapeError("unary potentials must be finite")
        kernels = tuple(self.kernels)
        for k in kernels:
            if k.n_voxels != n:
                raise ModelShapeError(
                    f"kernel has {k.n_voxels} feature rows, expected {n}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "n_labels", int(self.n_labels))
        object.__setattr__(self, "unary", unary)
        object.__setattr__(self, "kernels", kernels)

    @property
    def n_voxels(self) -> int:
        return self.unary.shape[0]

    def with_unary(self, unary: np.ndarray) -> "DenseCrfModel":
        """Copy of this model with replaced unary potentials."""
        return DenseCrfModel(self.dims, self.n_labels, unary, self.kernels)


def kernel_weight(kernel: GaussianKernel, i: int, j: int) -> float:
    """Kernel value between voxels i and j; symmetric, in [0, weight]."""
    z = (kernel.features[i] - kernel.features[j]) / kernel.bandwidths
    return kernel.weight * float(np.exp(-0.5 * np.dot(z, z)))


def kernel_matrix(kernel: GaussianKernel) -> np.ndarray:
    """Full (N, N) kernel matrix; O(N^2), intended for small models."""
    f = kernel.scaled_features()
    sq = np.zeros((f.shape[0], f.shape[0]))
    for column in f.T:
        sq += (column[:, None] - column[None, :]) ** 2
    return kernel.weight * np.exp(-0.5 * sq)


def pairwise_matrix(model: DenseCrfModel) -> np.ndarray:
    """Sum of all kernel matrices of the model."""
    n = model.n_voxels
    total = np.zeros((n, n))
    for kernel in model.kernels:
        total += kernel_matrix(kernel)
    return total


def energy(model: DenseCrfModel, labeling: np.ndarray) -> float:
    """Gibbs energy of a labeling; each unordered voxel pair counted once."""
    labeling = np.asarray(labeling)
    if labeling.shape != (model.n_voxels,):
        raise ModelShapeError(
            f"labeling has shape {labeling.shape}, expected ({model.n_voxels},)")
    if labeling.min(initial=0) < 0 or labeling.max(initial=0) >= model.n_labels:
        raise ModelShapeError("labeling contains out-of-range labels")
    e = float(model.unary[np.arange(model.n_voxels), labeling].sum())
    if model.kernels:
        pair = pairwise_matrix(model)
        neq = labeling[:, None] != labeling[None, :]
        e += 0.5 * float((pair * neq).sum())
    return e


def grid_coordinates(dims: Sequence[int]) -> np.ndarray:
    """(N, D) voxel coordinates of a row-major grid."""
    axes = [np.arange(d, dtype=np.float64) for d in dims]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def build_grid_model(dims: Sequence[int], n_labels: int, unary: np.ndarray,
                     kernels: Sequence = ()) -> DenseCrfModel:
    """Build a grid CRF with spatial kernel features from voxel coordinates.

    ``kernels`` entries are either ready GaussianKernel objects or
    (weight, bandwidths) pairs; bandwidths may be one value, applied to
    every grid dimension.
    """
    dims = tuple(int(d) for d in dims)
    coords = grid_coordinates(dims)
    built = []
    for spec in kernels:
        if isinstance(spec, GaussianKernel):
            built.append(spec)
            continue
        weight, bandwidths = spec
        bandwidths = np.atleast_1d(np.asarray(bandwidths, dtype=np.float64))
        check_sigma_count(len(bandwidths), len(dims))
        built.append(GaussianKernel(weight, coords, np.broadcast_to(
            bandwidths, (len(dims),))))
    return DenseCrfModel(dims, n_labels, unary, tuple(built))


def unaries_from_probabilities(probabilities: np.ndarray) -> np.ndarray:
    """Convert per-voxel label probabilities to potentials psi = -log(p).

    Probabilities are clamped to [1e-12, 1 - 1e-12] to keep potentials finite.
    """
    p = np.clip(np.asarray(probabilities, dtype=np.float64),
                PROB_CLAMP, 1.0 - PROB_CLAMP)
    return -np.log(p)
