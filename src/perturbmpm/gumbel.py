"""Gumbel perturbation sampling: the package's one noise source, the
perturb-then-decode sampling loop, and empirical marginal estimation.

All sampling noise comes from one counter-based generator keyed by the
seed (Philox; Salmon et al. 2011, "Parallel Random Numbers: As Easy as
1, 2, 3").  Draw t of a seed is the fixed counter block t: ceil(size / 4)
counter steps of four 64-bit words each, one standard uniform per word,
with the unused tail of the last step dropped.  A batch of draws
[start, stop) is one generator placed at counter start * blocks and one
draw, and the bits of draw t do not depend on how the draws are batched.

Uniforms become Gumbel draws through -log(-log(u)) minus the Euler
constant, so the noise has zero mean.  Selection and decoding minimise
potentials, so wherever noise perturbs a quantity that is subsequently
arg-minimised, the draw is subtracted: argmin_j(theta_j - g_j) with
max-stable Gumbel g equals argmax_j(g_j - theta_j), which selects label j
with probability exp(-theta_j) / sum_j' exp(-theta_j') exactly.  (Adding
a max-stable draw and arg-minimising does not reproduce that softmax; the
bias is measurable for three or more labels.)
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import ModelShapeError
from .meanfield import InferenceConfig, MeanField, mpm_decode
from .model import DenseCrfModel

EULER_GAMMA = 0.5772156649015329
_UNIFORM_CLAMP = 1e-15
_WORDS_PER_STEP = 4  # Philox4x64 yields four 64-bit words per counter step


def check_seed(seed: int) -> None:
    """Raise ValueError unless seed is an integer in [0, 2**64)."""
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")


def _uniforms(seed: int, start: int, stop: int, shape) -> np.ndarray:
    """Standard uniforms of draws [start, stop) of a seed, one row a draw;
    the result has shape (stop - start, *shape)."""
    shape = tuple(shape) if np.iterable(shape) else (int(shape),)
    size = math.prod(shape)
    blocks = -(-size // _WORDS_PER_STEP)
    bits = np.random.Philox(key=int(seed), counter=int(start) * blocks)
    words = np.random.Generator(bits).random(
        (stop - start, _WORDS_PER_STEP * blocks))
    return words[:, :size].reshape((stop - start, *shape))


def _noise(seed: int, start: int, stop: int, shape) -> np.ndarray:
    """Zero-mean Gumbel draws [start, stop) of a seed, (stop - start, *shape)."""
    u = np.clip(_uniforms(seed, start, stop, shape),
                _UNIFORM_CLAMP, 1.0 - _UNIFORM_CLAMP)
    return -np.log(-np.log(u)) - EULER_GAMMA


def iteration_noise(seed: int, t: int, shape) -> np.ndarray:
    """Gumbel noise field of sampling iteration t: draw t of the seed.

    Every draw has its own counter block, so iterations can run in any
    order or batching and still reproduce bit-identically.
    """
    return _noise(seed, t, t + 1, shape)[0]


def gumbel_max_select_many(theta: np.ndarray, seed: int,
                           count: int) -> np.ndarray:
    """Sample ``count`` label indices from softmax(-theta) via Gumbel
    perturbation; draw t is the seed's noise for iteration t."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim != 1 or not np.all(np.isfinite(theta)):
        raise ValueError("theta must be a finite 1-d vector")
    return np.argmin(theta[None, :] - _noise(seed, 0, count, theta.shape),
                     axis=1)


@dataclasses.dataclass(frozen=True)
class SamplingConfig:
    n_samples: int
    seed: int = 0
    inference: InferenceConfig = dataclasses.field(default_factory=InferenceConfig)

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        check_seed(self.seed)


@dataclasses.dataclass(frozen=True)
class SampleSet:
    """Aggregated decoded label maps, one row per sampling iteration."""

    labels: np.ndarray  # (T, N) integer label maps
    n_labels: int

    def __post_init__(self):
        labels = np.array(self.labels, dtype=np.int64)
        if labels.ndim != 2:
            raise ModelShapeError("sample labels must be a (T, N) array")
        if labels.size and (labels.min() < 0 or labels.max() >= self.n_labels):
            raise ModelShapeError("sample labels out of range")
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.labels.shape[0]

    @property
    def n_voxels(self) -> int:
        return self.labels.shape[1]

    def prefix(self, count: int) -> "SampleSet":
        return SampleSet(self.labels[:count], self.n_labels)


def perturb_and_mpm(model: DenseCrfModel, cfg: SamplingConfig,
                    batch_size: int = 2048) -> SampleSet:
    """Draw approximate Gibbs samples: perturb unaries, mean-field, decode.

    Iteration t uses draw t of cfg.seed, so the result is reproducible
    bit-for-bit regardless of batching.
    """
    solver = MeanField(model, cfg.inference)
    n, m = model.n_voxels, model.n_labels
    out = np.empty((cfg.n_samples, n), dtype=np.int64)
    for start in range(0, cfg.n_samples, batch_size):
        stop = min(start + batch_size, cfg.n_samples)
        noise = _noise(cfg.seed, start, stop, (n, m))
        q = solver.infer(model.unary[None] - noise)[0]
        out[start:stop] = mpm_decode(q)
    return SampleSet(out, m)


def empirical_marginals(samples: SampleSet) -> np.ndarray:
    """Per-voxel label frequencies of a sample set; rows sum to 1."""
    if len(samples) == 0:
        raise ValueError("empty sample set")
    t, n = samples.labels.shape
    m = samples.n_labels
    flat = samples.labels + np.arange(n)[None, :] * m
    counts = np.bincount(flat.ravel(), minlength=n * m).reshape(n, m)
    return counts / float(t)
