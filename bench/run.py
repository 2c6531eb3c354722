#!/usr/bin/env python3
"""perturbmpm benchmark: one workload per process, metrics as JSON.

    python3 bench/run.py --workload chain-oracle --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Run from the repository root.  The program is imported from ./src.  The
last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``.  Scratch
files go to ./.bench_out and are removed at exit, except the span dump of
a traced run.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
NAMES = ("chain-oracle", "phantom-exact", "phantom-lattice")
SETUP_REPEATS = 5
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> int:
    """Pin BLAS to one thread; must precede the numpy import.  On a shared
    2-core machine a second thread times the scheduler, not the program."""
    for var in BLAS_VARS:
        os.environ[var] = "1"
    return 1


def import_cli() -> None:
    """A fresh interpreter importing the CLI, as `pmpm` does."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import perturbmpm.cli"],
                   env=env, check=True, cwd=ROOT)


def run_rounds(workload, rec, seconds, tracer=None):
    """Whole rounds until `seconds` have passed.  Traced runs pair every
    traced round with an untraced one, to measure the tracing overhead."""
    rounds, overhead = 0, []
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        rec.tracer = None
        workload.round(rec)
        if tracer is not None:
            t1 = time.perf_counter()
            rec.tracer = tracer
            with tracer.installed():
                workload.round(rec)
            overhead.append((time.perf_counter() - t1) - (t1 - t0))
        rounds += 1
    return rounds, overhead


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "perturbmpm" / "__init__.py").is_file():
        print(f"bench: no program source at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    threads = pin_threads()
    sys.path.insert(0, str(SRC))
    import perturbmpm
    if Path(perturbmpm.__file__).resolve().parent != SRC / "perturbmpm":
        print(f"bench: imported {perturbmpm.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from clock import Clock
    from spans import Tracer
    from workloads import WORKLOADS, Recorder
    import layers

    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        clock = Clock()
        setups = []
        for _ in range(SETUP_REPEATS):
            clock.tick(force=True)
            t0 = time.perf_counter()
            import_cli()
            workload.setup()
            setups.append((t0, time.perf_counter()))
        clock.tick(force=True)
        workload.prepare_reference()
        tracer = Tracer() if args.trace else None
        rec = Recorder(clock)
        rounds, overhead = run_rounds(workload, rec, args.seconds, tracer)
        clock.tick(force=True)
        if tracer is None:
            setup_s = statistics.median(clock.seconds(iv) for iv in setups)
            metrics = {"setup_s": (setup_s, "s"),
                       **workload.metrics(clock),
                       "peak_rss_mib": (resource.getrusage(
                           resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")}
        else:
            metrics = layers.per_layer(workload, tracer, rounds, overhead)
            layers.dump_spans(tracer, OUT / f"trace-{args.workload}-"
                                            f"seed{args.seed}.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"{args.workload}: seed {args.seed}, {rounds} rounds, "
          f"BLAS threads {threads}, {len(clock.samples)} reference samples, "
          f"{clock.scale():.4f} reference s per wall s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": rec.correct, "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


def run_one(name, seed, seconds, trace) -> dict:
    """Run one workload in a fresh process and return its JSON result.
    Its other output lines are printed; a failed run raises RuntimeError."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    print("\n".join(lines[:-1]))
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{name} seed {seed} exited {proc.returncode}")
    return json.loads(lines[-1])


def run_all(args) -> int:
    """Each workload in a fresh process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        try:
            result = run_one(name, args.seed, args.seconds, args.trace)
        except RuntimeError as err:
            print(f"bench: {err}", file=sys.stderr)
            return 1
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
