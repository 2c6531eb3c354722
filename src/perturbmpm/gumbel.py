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
import os

import numpy as np

from .errors import ModelShapeError, _check_integer
from .meanfield import InferenceConfig, MeanField, mpm_decode
from .model import DenseCrfModel

EULER_GAMMA = 0.5772156649015329
_UNIFORM_CLAMP = 1e-15
_WORDS_PER_STEP = 4  # Philox4x64 yields four 64-bit words per counter step
# Values one sampling batch may stack into one array: 16 MiB of float64.
_BATCH_VALUES = 1 << 21
# Values (draws times the values a draw adds) a sampling call must stack
# before its batches run on several CPUs: smaller batches spend their time
# in numpy dispatch, which holds the GIL, and each thread adds a malloc arena.
_SPLIT_VALUES = 1 << 18


def check_seed(seed: int) -> None:
    """Raise ValueError unless seed is an integer in [0, 2**64)."""
    _check_integer("seed", seed, 0, 64)


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
    g = _uniforms(seed, start, stop, shape)
    # -log(-log(u)) - EULER_GAMMA of the clipped u, in u's own buffer
    np.clip(g, _UNIFORM_CLAMP, 1.0 - _UNIFORM_CLAMP, out=g)
    np.log(g, out=g)
    np.negative(g, out=g)
    np.log(g, out=g)
    np.negative(g, out=g)
    g -= EULER_GAMMA
    return g


def iteration_noise(seed: int, t: int, shape) -> np.ndarray:
    """Gumbel noise field of sampling iteration t: draw t of the seed.

    Every draw has its own counter block, so iterations can run in any
    order or batching and still reproduce bit-identically.
    """
    check_seed(seed)
    _check_integer("t", t, 0)
    return _noise(seed, t, t + 1, shape)[0]


def gumbel_max_select_many(theta: np.ndarray, seed: int,
                           count: int) -> np.ndarray:
    """Sample ``count`` label indices from softmax(-theta) via Gumbel
    perturbation; draw t is the seed's noise for iteration t."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim != 1 or not theta.size or not np.all(np.isfinite(theta)):
        raise ValueError("theta must be a finite non-empty 1-d vector")
    return _perturb(seed, count, theta.shape, theta.size, lambda g: np.argmin(
        np.subtract(theta, g, out=g), axis=1))


@dataclasses.dataclass(frozen=True)
class SamplingConfig:
    n_samples: int
    seed: int = 0
    inference: InferenceConfig = dataclasses.field(default_factory=InferenceConfig)

    def __post_init__(self):
        _check_integer("n_samples", self.n_samples, 1)
        check_seed(self.seed)


def _read_only(a) -> bool:
    """True for an array whose data no array can write: it and every
    array it views are read-only, down to the one owning the data."""
    while isinstance(a, np.ndarray) and not a.flags.writeable:
        if a.base is None:
            return True
        a = a.base
    return False


@dataclasses.dataclass(frozen=True)
class SampleSet:
    """Aggregated decoded label maps, one row per sampling iteration."""

    labels: np.ndarray  # (T, N) integer label maps
    n_labels: int

    def __post_init__(self):
        labels = self.labels
        # an int64 array no one can write to is kept as is; anything else
        # is copied, so later writes to the caller's array never reach it
        if not (_read_only(labels) and labels.dtype == np.int64):
            labels = np.array(labels, dtype=np.int64)
            labels.setflags(write=False)
        if labels.ndim != 2:
            raise ModelShapeError("sample labels must be a (T, N) array")
        if labels.size and (labels.min() < 0 or labels.max() >= self.n_labels):
            raise ModelShapeError("sample labels out of range")
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.labels.shape[0]

    @property
    def n_voxels(self) -> int:
        return self.labels.shape[1]

    def prefix(self, count: int) -> "SampleSet":
        """The first count samples, 0 <= count <= len(self)."""
        if not 0 <= count <= len(self):
            raise ValueError(f"prefix count must be in [0, {len(self)}], "
                             f"got {count!r}")
        return SampleSet(self.labels[:count], self.n_labels)


def _workers() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else every CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _drain(run, starts, workers: int) -> None:
    """run(start) for every start, on the calling thread and workers - 1
    helper threads taking starts from one shared iterator.  The first
    exception stops every thread from taking more and reaches the caller."""
    import threading
    from concurrent.futures import ThreadPoolExecutor

    starts = iter(starts)
    lock = threading.Lock()
    failed = threading.Event()

    def loop():
        try:
            while not failed.is_set():
                with lock:
                    start = next(starts, None)
                if start is None:
                    return
                run(start)
        except BaseException:
            failed.set()
            raise

    with ThreadPoolExecutor(workers - 1) as pool:
        helpers = [pool.submit(loop) for _ in range(workers - 1)]
        loop()
    for helper in helpers:
        helper.result()


def _perturb(seed: int, count: int, shape, values: int, decode, row=(),
             cap: int | None = None) -> np.ndarray:
    """A (count, *row) int64 array whose rows [start, stop) are
    decode(_noise(seed, start, stop, shape)), the decoded draws of a seed;
    decode may overwrite the noise.  A draw adds `values` values to the
    largest array a batch stacks, and batches hold at most cap draws,
    where given, and _BATCH_VALUES // values, at least one.  A call
    stacking at least _SPLIT_VALUES values whose budget fits a draw per
    CPU runs its batches on every CPU of the affinity mask, each of at most
    ceil(count / workers) and _BATCH_VALUES // (workers * values) draws,
    so the batches in flight share the budget.  Draw t's bits depend on
    neither its batch nor its thread.  A bad seed or count raises
    ValueError naming it.
    """
    check_seed(seed)
    _check_integer("count", count, 0)
    workers = _workers()
    if count * values < _SPLIT_VALUES or _BATCH_VALUES // values < workers:
        workers = 1
    batch = max(1, min(cap or count, -(-count // workers),
                       _BATCH_VALUES // (workers * values)))
    out = np.empty((count, *row), dtype=np.int64)

    def run(start):  # each batch writes its own rows of out
        stop = min(start + batch, count)
        out[start:stop] = decode(_noise(seed, start, stop, shape))

    starts = range(0, count, batch)
    workers = min(workers, len(starts))
    if workers > 1:
        _drain(run, starts, workers)
    else:
        for start in starts:
            run(start)
    return out


def perturb_and_mpm(model: DenseCrfModel, cfg: SamplingConfig,
                    batch_size: int = 2048) -> SampleSet:
    """Draw approximate Gibbs samples: perturb unaries, mean-field, decode;
    sample t decodes draw t of cfg.seed, at most batch_size a batch."""
    _check_integer("batch_size", batch_size, 1)
    solver = MeanField(model, cfg.inference)  # shared read-only by threads

    def decode(noise):  # the unaries are subtracted into the noise buffer
        return mpm_decode(solver.infer(
            np.subtract(model.unary, noise, out=noise))[0])

    out = _perturb(cfg.seed, cfg.n_samples, model.unary.shape,
                   solver.sample_values, decode, row=(model.n_voxels,),
                   cap=batch_size)
    out.setflags(write=False)
    return SampleSet(out, model.n_labels)


def empirical_marginals(samples: SampleSet) -> np.ndarray:
    """Per-voxel label frequencies of a sample set; rows sum to 1."""
    if len(samples) == 0:
        raise ValueError("empty sample set")
    t, n = samples.labels.shape
    m = samples.n_labels
    flat = samples.labels + np.arange(n)[None, :] * m
    counts = np.bincount(flat.ravel(), minlength=n * m).reshape(n, m)
    return counts / float(t)
