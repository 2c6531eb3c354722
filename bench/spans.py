"""Spans around the program's public functions, recorded from outside.

``Tracer.installed()`` replaces each traced function, wherever a
perturbmpm module binds it, by a wrapper that records a span; leaving the
block puts the originals back, so untraced rounds run unwrapped code.  A
target that no longer exists (a later change removed or renamed it) is
skipped with a note on stderr and its span is simply absent.
"""
from __future__ import annotations

import contextlib
import importlib
import os
import sys
import time


def _nbytes_of_path(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _manifest_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(str(args[0]) + ".manifest.txt")}


def _kernel_counts(args, kwargs, result):
    n, d = args[0].features.shape
    return {"intermediate_bytes": n * n * d * 8}


def _sample_counts(args, kwargs, result):
    model, cfg = args[0], args[1]
    return {"samples": cfg.n_samples, "n": model.n_voxels,
            "m": model.n_labels, "backend": cfg.inference.backend}


def _states_counts(args, kwargs, result):
    return {"states": len(result.probabilities)}


def _lattice_build_counts(args, kwargs, result):
    return {"vertices": args[0].n_lattice}


def _filter_counts(args, kwargs, result):
    lattice, values = args[0], args[1]
    channels = 1 if values.ndim == 1 else values.shape[1]
    return {"channels": channels,
            "work_bytes": (lattice.n_lattice + 1) * channels * 8}


# (span name, "module:attribute path", counter)
TARGETS = (
    ("gumbel.sample", "perturbmpm.gumbel:perturb_and_mpm", _sample_counts),
    ("gumbel.noise", "perturbmpm.gumbel:iteration_noise", None),
    ("gumbel.marginals", "perturbmpm.gumbel:empirical_marginals", None),
    ("meanfield.infer", "perturbmpm.meanfield:mean_field_infer", None),
    ("meanfield.decode", "perturbmpm.meanfield:mpm_decode", None),
    ("model.kernel_matrix", "perturbmpm.model:kernel_matrix", _kernel_counts),
    ("lattice.build", "perturbmpm.lattice:PermutohedralLattice.__init__",
     _lattice_build_counts),
    ("lattice.filter", "perturbmpm.lattice:PermutohedralLattice.filter",
     _filter_counts),
    ("oracle.enumerate", "perturbmpm.oracle:enumerate_gibbs", _states_counts),
    ("oracle.enumerate", "perturbmpm.oracle:exact_marginals", None),
    ("metrics.entropy", "perturbmpm.metrics:entropy_map", None),
    ("config.load", "perturbmpm.config:parse_config", None),
    ("config.load", "perturbmpm.config:load_model", None),
    ("tensorio.write", "perturbmpm.tensorio:write_tensor", _nbytes_of_path),
    ("tensorio.write", "perturbmpm.tensorio:write_pgm", _nbytes_of_path),
    ("tensorio.write", "perturbmpm.tensorio:write_manifest", _manifest_bytes),
    ("tensorio.csv", "perturbmpm.tensorio:write_marginals_csv",
     _nbytes_of_path),
    ("tensorio.csv", "perturbmpm.tensorio:write_uncertainty_csv",
     _nbytes_of_path),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.counts = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; spans nest by call order."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.notes: list[str] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), parent)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def _wrapper(self, name, func, counter):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name) as record:
                result = func(*args, **kwargs)
            if counter is not None:
                record.counts.update(counter(args, kwargs, result))
            return result

        traced.__wrapped__ = func
        return traced

    def _resolve(self, target):
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            return owner, attr, getattr(owner, attr)
        except (ImportError, AttributeError):
            return None

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        patched = []
        modules = [m for n, m in list(sys.modules.items())
                   if n == "perturbmpm" or n.startswith("perturbmpm.")]
        try:
            for name, target, counter in TARGETS:
                found = self._resolve(target)
                if found is None:
                    note = f"trace: {target} not found; span {name} dropped"
                    if note not in self.notes:
                        self.notes.append(note)
                        print(note, file=sys.stderr)
                    continue
                owner, attr, func = found
                wrapper = self._wrapper(name, func, counter)
                if isinstance(owner, type):
                    sites = [owner]
                else:
                    sites = [m for m in modules
                             if any(v is func for v in vars(m).values())]
                for site in sites:
                    for key, value in list(vars(site).items()):
                        if value is func:
                            setattr(site, key, wrapper)
                            patched.append((site, key, func))
            yield self
        finally:
            for site, key, func in reversed(patched):
                setattr(site, key, func)
