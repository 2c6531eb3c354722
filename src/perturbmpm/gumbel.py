"""Gumbel perturbation sampling: noise generation, unary perturbation,
the perturb-then-decode sampling loop, and empirical marginal estimation.

Noise is drawn by transforming standard uniforms with -log(-log(u)); with
the Euler-constant shift enabled the draws have zero mean.  Selection and
decoding minimise potentials, so wherever noise perturbs a quantity that is
subsequently arg-minimised, the draw is subtracted: argmin_j(theta_j - g_j)
with max-stable Gumbel g equals argmax_j(g_j - theta_j), which selects
label j with probability exp(-theta_j) / sum_j' exp(-theta_j') exactly.
(Adding a max-stable draw and arg-minimising does not reproduce that
softmax; the bias is measurable for three or more labels.)
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .errors import ModelShapeError
from .meanfield import InferenceConfig, _infer_batched, _MessagePasser, mpm_decode
from .model import DenseCrfModel

EULER_GAMMA = 0.5772156649015329
_UNIFORM_CLAMP = 1e-15


def _gumbel_transform(u: np.ndarray, euler_shift: bool) -> np.ndarray:
    u = np.clip(u, _UNIFORM_CLAMP, 1.0 - _UNIFORM_CLAMP)
    g = -np.log(-np.log(u))
    return g - EULER_GAMMA if euler_shift else g


class GumbelSampler:
    """Deterministic Gumbel noise stream seeded by a 64-bit integer."""

    def __init__(self, seed: int, euler_shift: bool = True):
        self.seed = int(seed)
        self.euler_shift = bool(euler_shift)
        self._rng = np.random.default_rng(self.seed)

    def field(self, shape) -> np.ndarray:
        """Next i.i.d. Gumbel draws of the given shape from the stream."""
        return _gumbel_transform(self._rng.random(shape), self.euler_shift)

    def uniform(self, shape) -> np.ndarray:
        """Next standard-uniform draws from the stream."""
        return self._rng.random(shape)


class ZeroNoiseSampler:
    """Degenerate sampler emitting all zeros; useful for identity checks."""

    euler_shift = False

    def field(self, shape) -> np.ndarray:
        return np.zeros(shape)

    def uniform(self, shape) -> np.ndarray:
        return np.full(shape, 0.5)


def sample_gumbel(sampler: GumbelSampler, count: int) -> np.ndarray:
    """Vector of ``count`` i.i.d. Gumbel draws from the sampler's stream."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return sampler.field(count)


def iteration_noise(seed: int, t: int, shape, euler_shift: bool = True) -> np.ndarray:
    """Gumbel noise field for sampling iteration t, derived from (seed, t).

    Streams for distinct iterations are independent, so iterations can run
    in any order (or concurrently) and still reproduce bit-identically.
    """
    rng = np.random.default_rng([int(seed), int(t)])
    return _gumbel_transform(rng.random(shape), euler_shift)


def perturb_unaries(model: DenseCrfModel, sampler) -> DenseCrfModel:
    """Model with unaries perturbed by an i.i.d. Gumbel field; input unchanged."""
    noise = sampler.field((model.n_voxels, model.n_labels))
    return model.with_unary(model.unary - noise)


def gumbel_max_select(theta: np.ndarray, sampler) -> int:
    """Sample a label index from softmax(-theta) via Gumbel perturbation."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim != 1 or not np.all(np.isfinite(theta)):
        raise ValueError("theta must be a finite 1-d vector")
    g = sampler.field(theta.shape)
    return int(np.argmin(theta - g))


def gumbel_max_select_many(theta: np.ndarray, sampler, count: int) -> np.ndarray:
    """Vector of ``count`` independent gumbel_max_select draws."""
    theta = np.asarray(theta, dtype=np.float64)
    g = sampler.field((count, theta.shape[0]))
    return np.argmin(theta[None, :] - g, axis=1)


@dataclasses.dataclass(frozen=True)
class SamplingConfig:
    n_samples: int
    seed: int = 0
    inference: InferenceConfig = dataclasses.field(default_factory=InferenceConfig)
    euler_shift: bool = True

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")


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

    Iteration t uses the noise stream derived from (cfg.seed, t), so the
    result is reproducible bit-for-bit regardless of batching.
    """
    passer = _MessagePasser(model, cfg.inference.backend)
    n, m = model.n_voxels, model.n_labels
    out = np.empty((cfg.n_samples, n), dtype=np.int64)
    for start in range(0, cfg.n_samples, batch_size):
        stop = min(start + batch_size, cfg.n_samples)
        noise = np.stack([
            iteration_noise(cfg.seed, t, (n, m), cfg.euler_shift)
            for t in range(start, stop)])
        q = _infer_batched(model, model.unary[None] - noise,
                           cfg.inference, passer)[0]
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
