"""Run configuration: a small key=value text format and model loading.

Schema (one `key = value` per line, '#' comments, blank lines ignored):

    dims       = 32 32           grid dimensions (required)
    labels     = 4               number of labels (required)
    unary      = potentials.pmt  PMPM tensor of (N, m) potentials in nats
    prob_map   = a.pgm b.pgm     per-label probability maps (one PGM each)
    kernel     = 1.0 1.0         weight, then 1 or ndims sigmas (repeatable)
    seed       = 7               noise key
    samples    = 500             sample count
    backend    = lattice         exact | lattice
    threshold  = 0.25            uncertainty threshold in bits
    iterations = 20              mean-field sweep cap
    tol        = 1e-6            mean-field convergence tolerance
    epsilon    = 0.1             optional; with delta, reports the sample
    delta      = 0.05            size needed for that accuracy

`unary` and `prob_map` are mutually exclusive; with neither, unaries are
uniform.  Relative paths resolve against the config file's directory.
Other keys default to their `RunConfig` field's default.

This module states only the file's format: a missing value, integer or
finite-number syntax, unknown and duplicate keys, `unary` against
`prob_map`, one `prob_map` image a label, and `epsilon` only with `delta`.
Every other rule is stated once, by the code that takes the value, and
quoted after the key and a file's line, as in `run.cfg:3: samples:
n_samples must be an integer >= 1, got 0`:

- `model`: `dims`, `labels` and `kernel` (`check_dims`, `check_labels`,
  `check_kernel`, `check_sigma_count`).  The model, once loaded, also
  rejects a sigma under about 1e-154 times the grid's extent (on the
  lattice backend, 1.2e-8 on a 4 x 4 grid).
- `gumbel`: `seed` (`check_seed`) and `samples` (`SamplingConfig`).
- `meanfield.InferenceConfig`: `backend`, `iterations` and `tol`.
- `evaluation.check_threshold`: `threshold`.
- `metrics.check_accuracy`: `epsilon` and `delta`.

`RunConfig` keeps only values its echo gives back, so a file, a flag
(`RunConfig.override`) and a caller are checked alike.

Where each check runs: `parse_config`'s line loop applies the syntax,
key and missing-value rules as it reads each line; `RunConfig.__post_init__`
then runs every owner's check once a value, the sigma count, and the
rules between keys.  Only when that fails does `parse_config` run the
owners' checks again, line by line in file order, to name the first line
rejected (`path:line: key: message`); an error no line explains is
reported as `path: message`.
"""
from __future__ import annotations

import dataclasses
import math
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .errors import ConfigError, ModelShapeError
from .evaluation import check_threshold
from .gumbel import SamplingConfig, check_seed
from .meanfield import InferenceConfig
from .metrics import check_accuracy, required_sample_size
from .model import DenseCrfModel, build_grid_model, check_dims, \
    check_kernel, check_labels, check_sigma_count, unaries_from_probabilities
from .tensorio import read_pgm, read_tensor


@dataclasses.dataclass(frozen=True)
class RunConfig:
    dims: tuple[int, ...]
    n_labels: int
    unary_path: str | None = None
    prob_map_paths: tuple[str, ...] | None = None
    kernels: tuple[tuple[float, tuple[float, ...]], ...] = ()
    seed: int = SamplingConfig.seed
    n_samples: int = 200
    backend: str = InferenceConfig.backend
    threshold: float = 0.0
    max_iterations: int = InferenceConfig.max_iterations
    convergence_tol: float = InferenceConfig.convergence_tol
    epsilon: float | None = None
    delta: float | None = None
    base_dir: str = "."

    def __post_init__(self):
        for key, value in self._lines():
            text = _text(value)
            setting = _SETTINGS[key]
            try:
                read = setting.read(text)
                setting.check(read)
                if read != value:  # such as the string "5" for samples
                    raise ValueError(f"{text!r} reads as {read!r}, not "
                                     f"{value!r}")
            except _REJECTED as exc:
                raise ConfigError(f"{key}: {exc}") from None
        for _, sigmas in self.kernels:
            try:
                check_sigma_count(len(sigmas), len(self.dims))
            except ModelShapeError as exc:
                raise ConfigError(f"kernel: {exc}") from None
        if self.unary_path and self.prob_map_paths:
            raise ConfigError("'unary' and 'prob_map' are mutually exclusive")
        if self.prob_map_paths and len(self.prob_map_paths) != self.n_labels:
            raise ConfigError(f"prob_map needs {self.n_labels} images, "
                              f"got {len(self.prob_map_paths)}")
        if (self.epsilon is None) != (self.delta is None):
            raise ConfigError("epsilon and delta must be given together")

    def _lines(self):
        """(key, value) pairs, one a config line; unset keys have none."""
        for key, setting in _SETTINGS.items():
            value = getattr(self, setting.field)
            if setting.repeated:
                yield from ((key, item) for item in value)
            elif value is not None:
                yield key, value

    @property
    def n_voxels(self) -> int:
        return int(np.prod(self.dims))

    def value(self, key: str):
        """The value of a config key."""
        return getattr(self, _SETTINGS[key].field)

    def override(self, **values) -> "RunConfig":
        """A copy with the given keys set, checked like file values; this
        config itself when none is given."""
        if not values:
            return self
        return dataclasses.replace(self, **{
            _SETTINGS[key].field: value for key, value in values.items()})

    def sampling(self) -> SamplingConfig:
        return SamplingConfig(self.n_samples, self.seed, InferenceConfig(
            self.max_iterations, self.convergence_tol, self.backend))

    def echo(self) -> str:
        """Canonical text form with every default resolved."""
        lines = [f"{key} = {_text(value)}" for key, value in self._lines()]
        if self.epsilon is not None:
            need = required_sample_size(self.epsilon, self.delta, self.n_labels)
            lines.append(f"# required_sample_size = {need}")
        return "\n".join(lines)


def _text(value) -> str:
    """A value as config text, tuple items space-separated."""
    return " ".join(map(_text, value)) if isinstance(value, tuple) \
        else str(value)


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


def _float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _kernel(text: str) -> tuple[float, tuple[float, ...]]:
    weight, *sigmas = map(_float, text.split())
    return weight, tuple(sigmas)


# What an owner's check raises for a value it rejects.
_REJECTED = (ValueError, ModelShapeError)


@dataclasses.dataclass(frozen=True)
class _Setting:
    field: str
    parse: Callable[[str], Any]  # text to value, or ValueError
    check: Callable[[Any], Any] = lambda value: None  # raises _REJECTED
    repeated: bool = False  # one tuple item per config line

    def read(self, text: str):
        """The value of a config line's text, by the file format alone;
        raises ValueError if the text is missing or malformed."""
        if not text:
            raise ValueError("missing value")
        return self.parse(text)


# Config keys in file and echo order.
_SETTINGS = {
    "dims": _Setting("dims", lambda text: tuple(map(_int, text.split())),
                     check_dims),
    "labels": _Setting("n_labels", _int, check_labels),
    "unary": _Setting("unary_path", str),
    "prob_map": _Setting("prob_map_paths", lambda text: tuple(text.split())),
    "kernel": _Setting("kernels", _kernel, lambda v: check_kernel(*v),
                       repeated=True),
    "seed": _Setting("seed", _int, check_seed),
    "samples": _Setting("n_samples", _int, SamplingConfig),
    "backend": _Setting("backend", str, lambda v: InferenceConfig(backend=v)),
    "threshold": _Setting("threshold", _float, check_threshold),
    "iterations": _Setting("max_iterations", _int,
                           lambda v: InferenceConfig(max_iterations=v)),
    "tol": _Setting("convergence_tol", _float,
                    lambda v: InferenceConfig(convergence_tol=v)),
    "epsilon": _Setting("epsilon", _float,
                        lambda v: check_accuracy("epsilon", v)),
    "delta": _Setting("delta", _float, lambda v: check_accuracy("delta", v)),
}


def _fail(path, lines, lineno: int | None, message: str, dims=None):
    """Raise ConfigError `path:lineno: message`, or `path: message` with no
    line, unless the owner of a value in `lines`, (lineno, key, value) in
    file order, rejects it: then the first such line is named, with its
    owner's message.  Given the grid's dims, a kernel line's sigma count
    is checked after every owner, as `RunConfig` checks it."""
    checks = [(n, key, _SETTINGS[key].check, value)
              for n, key, value in lines]
    if dims is not None:
        checks += [(n, key, check_sigma_count, len(value[1]), len(dims))
                   for n, key, value in lines if key == "kernel"]
    for n, key, check, *args in checks:
        try:
            check(*args)
        except _REJECTED as exc:
            lineno, message = n, f"{key}: {exc}"
            break
    where = path if lineno is None else f"{path}:{lineno}"
    raise ConfigError(f"{where}: {message}")


def parse_config(path) -> RunConfig:
    """Parse a run configuration file into a `RunConfig`, which checks
    each value once.

    The line loop applies the file-format rules alone.  An error names
    the first line, in file order, whose value its owner rejects, ahead of
    a format error on a later line and of the rules of the whole file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"{path}: no such config file")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    lines: list = []  # (lineno, key, value) of each line read, in order
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            _fail(path, lines, lineno,
                  f"expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        setting = _SETTINGS.get(key)
        if setting is None:
            _fail(path, lines, lineno, f"unknown key {key!r}")
        if key in values and not setting.repeated:
            _fail(path, lines, lineno, f"{key}: duplicate key")
        try:
            value = setting.read(value)
        except ValueError as exc:
            _fail(path, lines, lineno, f"{key}: {exc}")
        lines.append((lineno, key, value))
        values[key] = (*values.get(key, ()), value) if setting.repeated \
            else value
    for key, setting in _SETTINGS.items():
        # a field without a default is no class attribute, and required
        if key not in values and not hasattr(RunConfig, setting.field):
            _fail(path, lines, None, f"missing required key {key!r}")
    try:
        return RunConfig(base_dir=str(path.parent), **{
            _SETTINGS[key].field: value for key, value in values.items()})
    except ConfigError as exc:
        _fail(path, lines, None, str(exc), values["dims"])


def unaries_from_pgm_maps(paths, dims) -> np.ndarray:
    """Stack per-label PGM probability maps into (N, m) potentials.

    Pixel p/max_val is the label probability; rows are renormalised so each
    voxel's probabilities sum to 1 before taking -log.
    """
    if len(dims) != 2:
        raise ConfigError("PGM probability maps require a 2-d grid")
    probs = []
    for p in paths:
        img, max_val = read_pgm(p)
        if img.shape != tuple(dims):
            raise ConfigError(
                f"{p}: image is {img.shape}, config grid is {tuple(dims)}")
        probs.append(img.astype(np.float64).ravel() / max_val)
    stack = np.stack(probs, axis=1)
    totals = stack.sum(axis=1, keepdims=True)
    if np.any(totals <= 0):
        raise ConfigError("probability maps assign zero mass at some voxel")
    return unaries_from_probabilities(stack / totals)


def load_model(cfg: RunConfig) -> DenseCrfModel:
    """Build the CRF described by a parsed configuration."""
    n, m = cfg.n_voxels, cfg.n_labels
    base = Path(cfg.base_dir)
    if cfg.unary_path:
        unary = read_tensor(base / cfg.unary_path)
        if unary.shape != (n, m):
            raise ConfigError(
                f"{cfg.unary_path}: unary tensor is {unary.shape}, "
                f"expected ({n}, {m})")
        unary = unary.astype(np.float64)
    elif cfg.prob_map_paths:
        unary = unaries_from_pgm_maps(
            [base / p for p in cfg.prob_map_paths], cfg.dims)
    else:
        unary = np.full((n, m), -np.log(1.0 / m))
    return build_grid_model(cfg.dims, m, unary, cfg.kernels)
