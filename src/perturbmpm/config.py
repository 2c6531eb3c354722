"""Run configuration: a small key=value text format and model loading.

Schema (one `key = value` per line, '#' comments, blank lines ignored):

    dims      = 32 32            grid dimensions (required)
    labels    = 4                number of labels (required)
    unary     = potentials.pmt   PMPM tensor of (N, m) potentials in nats
    prob_map  = a.pgm b.pgm      per-label probability maps (one PGM each)
    kernel    = 1.0 1.0          weight then one sigma per dim (repeatable)
    seed      = 0                noise key, 0 <= seed < 2**64
    samples   = 200
    backend   = exact            exact | lattice
    threshold = 0.0              uncertainty threshold in bits
    iterations = 10
    tol       = 1e-5
    epsilon   = 0.1              optional; with delta, reports the sample
    delta     = 0.05             size needed for that accuracy

`unary` and `prob_map` are mutually exclusive; with neither, unaries are
uniform.  Relative paths resolve against the config file's directory.
"""
from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .gumbel import check_seed
from .meanfield import BACKENDS, InferenceConfig
from .metrics import required_sample_size
from .model import DenseCrfModel, build_grid_model, unaries_from_probabilities
from .tensorio import read_pgm, read_tensor

_KNOWN_KEYS = ("dims", "labels", "unary", "prob_map", "kernel", "seed",
               "samples", "backend", "threshold", "iterations", "tol",
               "epsilon", "delta")


@dataclasses.dataclass(frozen=True)
class RunConfig:
    dims: tuple[int, ...]
    n_labels: int
    unary_path: str | None = None
    prob_map_paths: tuple[str, ...] = ()
    kernels: tuple[tuple[float, tuple[float, ...]], ...] = ()
    seed: int = 0
    n_samples: int = 200
    backend: str = "exact"
    threshold: float = 0.0
    max_iterations: int = 10
    convergence_tol: float = 1e-5
    epsilon: float | None = None
    delta: float | None = None
    base_dir: str = "."

    @property
    def n_voxels(self) -> int:
        return int(np.prod(self.dims))

    def inference(self) -> InferenceConfig:
        return InferenceConfig(self.max_iterations, self.convergence_tol,
                               self.backend)

    def echo(self) -> str:
        """Canonical text form with every default resolved."""
        lines = [
            "dims = " + " ".join(str(d) for d in self.dims),
            f"labels = {self.n_labels}",
        ]
        if self.unary_path:
            lines.append(f"unary = {self.unary_path}")
        if self.prob_map_paths:
            lines.append("prob_map = " + " ".join(self.prob_map_paths))
        for weight, sigmas in self.kernels:
            lines.append("kernel = " + " ".join(
                repr(v) for v in (weight, *sigmas)))
        lines += [
            f"seed = {self.seed}",
            f"samples = {self.n_samples}",
            f"backend = {self.backend}",
            f"threshold = {self.threshold!r}",
            f"iterations = {self.max_iterations}",
            f"tol = {self.convergence_tol!r}",
        ]
        if self.epsilon is not None and self.delta is not None:
            lines += [
                f"epsilon = {self.epsilon!r}",
                f"delta = {self.delta!r}",
                "# required_sample_size = "
                f"{required_sample_size(self.epsilon, self.delta, self.n_labels)}",
            ]
        return "\n".join(lines)


def _fail(path, lineno: int, message: str):
    raise ConfigError(f"{path}:{lineno}: {message}")


def _parse_int(path, lineno, key, text):
    try:
        return int(text)
    except ValueError:
        _fail(path, lineno, f"{key}: expected an integer, got {text!r}")


def _parse_float(path, lineno, key, text):
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        _fail(path, lineno, f"{key}: expected a finite number, got {text!r}")
    return value


def parse_config(path) -> RunConfig:
    """Parse and validate a run configuration file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"{path}: no such config file")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    fields: dict = {"kernel": [], "prob_map": ()}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            _fail(path, lineno, f"expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KNOWN_KEYS:
            _fail(path, lineno, f"unknown key {key!r}")
        if not value:
            _fail(path, lineno, f"{key}: missing value")
        if key != "kernel" and key in fields and key != "prob_map":
            _fail(path, lineno, f"{key}: duplicate key")
        if key == "dims":
            dims = tuple(_parse_int(path, lineno, key, v)
                         for v in value.split())
            if any(d < 1 for d in dims):
                _fail(path, lineno, "dims: dimensions must be positive")
            fields["dims"] = dims
        elif key == "labels":
            labels = _parse_int(path, lineno, key, value)
            if labels < 2:
                _fail(path, lineno, "labels: need at least 2 labels")
            fields["labels"] = labels
        elif key == "kernel":
            parts = [_parse_float(path, lineno, key, v) for v in value.split()]
            if len(parts) < 2:
                _fail(path, lineno,
                      "kernel: expected a weight and at least one sigma")
            weight, sigmas = parts[0], tuple(parts[1:])
            if weight < 0 or any(s <= 0 for s in sigmas):
                _fail(path, lineno,
                      "kernel: weight must be >= 0 and sigmas > 0")
            fields["kernel"].append((weight, sigmas))
        elif key == "prob_map":
            if fields["prob_map"]:
                _fail(path, lineno, "prob_map: duplicate key")
            fields["prob_map"] = tuple(value.split())
        elif key in ("seed", "samples", "iterations"):
            v = _parse_int(path, lineno, key, value)
            if key == "seed":
                try:
                    check_seed(v)
                except ValueError as exc:
                    _fail(path, lineno, f"seed: {exc}")
            elif v < 1:
                _fail(path, lineno, f"{key}: must be >= 1")
            fields[key] = v
        elif key == "backend":
            if value not in BACKENDS:
                _fail(path, lineno,
                      f"backend: must be one of {', '.join(BACKENDS)}")
            fields[key] = value
        else:  # unary, threshold, tol, epsilon, delta
            if key == "unary":
                fields[key] = value
            else:
                v = _parse_float(path, lineno, key, value)
                if key == "threshold" and v < 0:
                    _fail(path, lineno, "threshold: must be non-negative")
                if key == "tol" and v < 0:
                    _fail(path, lineno, "tol: must be non-negative")
                if key in ("epsilon", "delta") and not 0 < v < 1:
                    _fail(path, lineno, f"{key}: must lie in (0, 1)")
                fields[key] = v
    if "dims" not in fields:
        raise ConfigError(f"{path}: missing required key 'dims'")
    if "labels" not in fields:
        raise ConfigError(f"{path}: missing required key 'labels'")
    if fields.get("unary") and fields["prob_map"]:
        raise ConfigError(
            f"{path}: 'unary' and 'prob_map' are mutually exclusive")
    n_labels = fields["labels"]
    if fields["prob_map"] and len(fields["prob_map"]) != n_labels:
        raise ConfigError(
            f"{path}: prob_map needs {n_labels} images, "
            f"got {len(fields['prob_map'])}")
    if (fields.get("epsilon") is None) != (fields.get("delta") is None):
        raise ConfigError(f"{path}: epsilon and delta must be given together")
    ndims = len(fields["dims"])
    for weight, sigmas in fields["kernel"]:
        if len(sigmas) not in (1, ndims):
            raise ConfigError(
                f"{path}: kernel has {len(sigmas)} sigmas for a "
                f"{ndims}-d grid (expected 1 or {ndims})")
    return RunConfig(
        dims=fields["dims"], n_labels=n_labels,
        unary_path=fields.get("unary"),
        prob_map_paths=fields["prob_map"],
        kernels=tuple(fields["kernel"]),
        seed=fields.get("seed", 0),
        n_samples=fields.get("samples", 200),
        backend=fields.get("backend", "exact"),
        threshold=fields.get("threshold", 0.0),
        max_iterations=fields.get("iterations", 10),
        convergence_tol=fields.get("tol", 1e-5),
        epsilon=fields.get("epsilon"), delta=fields.get("delta"),
        base_dir=str(path.parent))


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
