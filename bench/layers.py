"""Per-layer metrics of a traced run, from the spans in bench/spans.py and
two probes the benchmark makes itself after the rounds, untraced.

Times and counts are per round (traced rounds only).  Only spans inside a
`timed.*` block count, so the layer figures break down the calls that the
end-to-end metrics time; the oracle, which never runs in a timed block,
is the exception.  A layer's time sums its outermost spans; lattice
filters run inside a lattice build (the gain calibration) count as build
time.
"""
from __future__ import annotations

import json

import numpy as np

import perturbmpm as pm

PROBE_DRAWS = 8      # perturbed unary fields per probe model
PROBE_VOXELS = 64    # voxels where the lattice is checked against dense sums
MIB = float(1 << 20)


# Spans whose self time is mean-field work rather than a traced layer;
# trace.coverage looks through them to the layer spans they hold.
SOLVERS = ("gumbel.sample", "meanfield.infer")


def _inside(spans, span, test) -> bool:
    parent = span.parent
    while parent is not None:
        if test(spans[parent].name):
            return True
        parent = spans[parent].parent
    return False


def _timed(name) -> bool:
    return name.startswith("timed.")


def _children(spans):
    kids = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            kids[s.parent].append(i)
    return kids


def iteration_probe(workload, draws=PROBE_DRAWS):
    """Mean-field sweep counts on perturbed unaries, made with the public
    iteration_noise exactly as the sampler makes them."""
    cfg = pm.InferenceConfig(backend=workload.backend)
    counts = []
    for model, seed in workload.probe_models():
        shape = (model.n_voxels, model.n_labels)
        for t in range(draws):
            noisy = model.with_unary(model.unary
                                     - pm.iteration_noise(seed, t, shape))
            counts.append(pm.mean_field_infer(noisy, cfg)[1])
    counts = np.array(counts)
    return float(counts.mean()), float(np.mean(counts >= cfg.max_iterations))


def lattice_error(workload, seed=0) -> float:
    """Largest relative error of the lattice filter against dense Gaussian
    sums, at probe voxels of the workload's first model."""
    model = workload.probe_models()[0][0]
    f = model.kernels[0].scaled_features()
    values = np.random.default_rng(seed).random(f.shape[0]) + 0.5
    filtered = pm.PermutohedralLattice(f).filter(values)
    probes = np.unique(np.linspace(0, f.shape[0] - 1,
                                   PROBE_VOXELS).astype(int))
    sq = ((f[probes, None, :] - f[None, :, :]) ** 2).sum(axis=2)
    dense = np.exp(-0.5 * sq) @ values
    return float(np.max(np.abs(filtered[probes] - dense) / dense))


def per_layer(workload, tracer, rounds: int, overhead) -> dict:
    spans = tracer.spans
    kids = _children(spans)

    def outer(name, also_outside=None, timed=True):
        return [s for s in spans if s.name == name
                and not _inside(spans, s, name.__eq__)
                and not (also_outside
                         and _inside(spans, s, also_outside.__eq__))
                and (not timed or _inside(spans, s, _timed))]

    def seconds(name, also_outside=None, timed=True):
        return sum(s.duration for s in outer(name, also_outside, timed)) / rounds

    def count(name, key=None, also_outside=None, timed=True):
        found = outer(name, also_outside, timed)
        if key is None:
            return len(found) / rounds
        return sum(s.counts.get(key, 0) for s in found) / rounds

    def largest(name, key):
        return max((s.counts.get(key, 0) for s in outer(name)), default=0)

    def self_time(i):
        return spans[i].duration - sum(spans[k].duration for k in kids[i])

    def layer_time(i):
        """Time of the layer spans under span i, looking through solvers."""
        return sum(layer_time(k) if spans[k].name in SOLVERS
                   else spans[k].duration for k in kids[i])

    sampling = [i for i, s in enumerate(spans) if s.name == "gumbel.sample"
                and _inside(spans, s, _timed)]
    solve_s = sum(self_time(i) for i in sampling) / rounds

    iterations_mean, capped_frac = iteration_probe(workload)
    flops = solve_exact = 0.0
    for i in sampling:
        c = spans[i].counts
        if c.get("backend") == "exact":
            flops += 2.0 * c["n"] ** 2 * c["m"] * c["samples"] * iterations_mean
            solve_exact += self_time(i)
    timed = [i for i, s in enumerate(spans) if _timed(s.name)]
    timed_total = sum(spans[i].duration for i in timed)
    covered = sum(layer_time(i) for i in timed)

    return {
        "gumbel.noise_s": (seconds("gumbel.noise"), "s/round"),
        "gumbel.noise_calls": (count("gumbel.noise"), "count/round"),
        "gumbel.marginals_s": (seconds("gumbel.marginals"), "s/round"),
        "meanfield.solve_s": (solve_s, "s/round"),
        "meanfield.message_gflops": (
            flops / solve_exact / 1e9 if solve_exact else 0.0, "GFLOP/s"),
        "meanfield.iterations_mean": (iterations_mean, "sweeps"),
        "meanfield.capped_frac": (capped_frac, "fraction"),
        "meanfield.decode_s": (seconds("meanfield.decode"), "s/round"),
        "model.kernel_matrix_s": (seconds("model.kernel_matrix"), "s/round"),
        "model.kernel_matrix_mib": (
            largest("model.kernel_matrix", "intermediate_bytes") / MIB, "MiB"),
        "lattice.build_s": (seconds("lattice.build"), "s/round"),
        "lattice.vertices": (largest("lattice.build", "vertices"), "count"),
        "lattice.filter_s": (seconds("lattice.filter", "lattice.build"),
                             "s/round"),
        "lattice.filter_calls": (
            count("lattice.filter", None, "lattice.build"), "count/round"),
        "lattice.filter_channels": (
            count("lattice.filter", "channels", "lattice.build"),
            "count/round"),
        "lattice.work_mib": (largest("lattice.filter", "work_bytes") / MIB,
                             "MiB"),
        "lattice.max_rel_err": (lattice_error(workload), "ratio"),
        "oracle.enumerate_s": (seconds("oracle.enumerate", timed=False),
                               "s/round"),
        "oracle.states": (count("oracle.enumerate", "states", timed=False),
                          "count/round"),
        "metrics.entropy_s": (seconds("metrics.entropy"), "s/round"),
        "config.load_s": (seconds("config.load"), "s/round"),
        "tensorio.write_s": (seconds("tensorio.write"), "s/round"),
        "tensorio.csv_s": (seconds("tensorio.csv"), "s/round"),
        "tensorio.bytes_written": (
            (count("tensorio.write", "bytes") + count("tensorio.csv", "bytes")),
            "B/round"),
        "trace.coverage": (covered / timed_total if timed_total else 0.0,
                           "fraction"),
        "trace.overhead_s": (float(np.median(overhead)), "s/round"),
    }


def dump_spans(tracer, path) -> None:
    """Write every span as JSON: name, start, end, parent index, counts."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps([
        {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
         "counts": s.counts} for s in tracer.spans]))
