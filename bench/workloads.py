"""The benchmark's workloads: inputs made from a seed, rounds of operations
on the program, and checks of every output against bench/reference.py.

An operation is one call into the program together with the checks on
what it returned.  A round runs the same operations every time; a run
repeats whole rounds until its time is up.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import sys
import time
import traceback

import numpy as np

import perturbmpm as pm
from perturbmpm import cli

import reference as ref
from phantom import N_LABELS, make_phantom


def child_seed(seed: int, *keys: int) -> int:
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


class Recorder:
    """Counts operations, failures and failed checks of one run."""

    def __init__(self, clock):
        self.clock = clock  # a clock.Clock, sampled before every operation
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.tracer = None  # a spans.Tracer while a traced round runs

    @contextlib.contextmanager
    def timed(self, name: str):
        """Time the program call inside the block; yields a one-item list
        that holds its wall interval (t0, t1) once the block ends, for
        clock.Clock.seconds."""
        interval = []
        span = (self.tracer.span("timed." + name) if self.tracer
                else contextlib.nullcontext())
        with span:
            t0 = time.perf_counter()
            yield interval
            interval.append((t0, time.perf_counter()))

    @contextlib.contextmanager
    def op(self, name: str):
        """One operation; an exception from it counts the operation failed."""
        self.clock.tick()
        self.attempted += 1
        span = (self.tracer.span("op." + name) if self.tracer
                else contextlib.nullcontext())
        try:
            with span:
                yield
        except Exception:
            self.failed += 1
            print(f"operation {name} failed:", file=sys.stderr)
            traceback.print_exc()

    def check(self, ok, message: str) -> None:
        if not ok:
            self.correct = False
            print(f"check failed: {message}", file=sys.stderr)


# -- chain-oracle ----------------------------------------------------------

CHAIN_VOXELS = 12
CHAIN_WEIGHT = 2.0
CHAIN_SIGMA = 1.0
N_CHAINS = 96          # enough chains that mean TV is steady across seeds
CHAIN_SAMPLES = 1000
ZERO_SAMPLES = 10000   # the zero-coupling chain, checked by Hoeffding
DETERMINISM_SAMPLES = 2000
INFER_REPEATS = 40
HOEFFDING_DELTA = 1e-6
# Mean-field settings asked of the program wherever the benchmark checks
# its marginals against reference.mean_field.
MF_ITERATIONS = 10
MF_TOL = 1e-5
MF_CONFIG = pm.InferenceConfig(max_iterations=MF_ITERATIONS,
                               convergence_tol=MF_TOL)


class ChainOracle:
    """Random binary 12-voxel chains against their exact Gibbs marginals."""

    backend = "exact"

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        self.seeds = [child_seed(self.seed, k) for k in range(N_CHAINS)]
        self.models = [pm.random_grid_model(CHAIN_VOXELS, s, CHAIN_WEIGHT,
                                            CHAIN_SIGMA) for s in self.seeds]
        self.zero_seed = child_seed(self.seed, N_CHAINS)
        self.zero_model = pm.random_grid_model(CHAIN_VOXELS, self.zero_seed,
                                               0.0)

    def prepare_reference(self) -> None:
        pair = ref.dense_kernel((CHAIN_VOXELS,), CHAIN_WEIGHT, (CHAIN_SIGMA,))
        self.exact = [ref.enumerate_marginals(m.unary, pair)
                      for m in self.models]
        self.mean_field = [ref.mean_field(m.unary, (CHAIN_VOXELS,),
                                          CHAIN_WEIGHT, (CHAIN_SIGMA,),
                                          MF_ITERATIONS, MF_TOL)[0]
                           for m in self.models]
        self.zero_exact = ref.softmax_neg(self.zero_model.unary)
        self.sample_calls = []  # wall intervals, see Recorder.timed
        self.infer_calls = []
        self.tv = []

    def round(self, rec: Recorder) -> None:
        for model, exact in zip(self.models, self.exact):
            with rec.op("oracle"):
                got = pm.exact_marginals(pm.enumerate_gibbs(model))
                rec.check(np.abs(got - exact).max() < 1e-12,
                          "program oracle differs from own enumeration")
        tvs = []
        for model, seed, exact in zip(self.models, self.seeds, self.exact):
            with rec.op("sample"):
                cfg = pm.SamplingConfig(CHAIN_SAMPLES, seed=seed)
                with rec.timed("sample") as interval:
                    samples = pm.perturb_and_mpm(model, cfg)
                self.sample_calls += interval
                with rec.timed("marginals"):
                    freq = pm.empirical_marginals(samples)
                rec.check(samples.labels.shape == (CHAIN_SAMPLES, CHAIN_VOXELS)
                          and np.allclose(freq.sum(axis=1), 1.0),
                          "sample set has wrong shape or marginals")
                tvs.append(ref.tv(freq, exact))
        self.tv.append(float(np.mean(tvs)))
        for model, expected in zip(self.models, self.mean_field):
            with rec.op("infer"):
                with rec.timed("infer") as interval:
                    for _ in range(INFER_REPEATS):
                        q, _ = pm.mean_field_infer(model, MF_CONFIG)
                self.infer_calls += interval
                worst = np.abs(q - expected).max()
                rec.check(worst < 1e-12, f"mean field differs by {worst:.3g}")
        with rec.op("zero-coupling"):
            freq = pm.empirical_marginals(pm.perturb_and_mpm(
                self.zero_model,
                pm.SamplingConfig(ZERO_SAMPLES, seed=self.zero_seed)))
            radius = ref.hoeffding_radius(ZERO_SAMPLES, freq.size,
                                          HOEFFDING_DELTA)
            gap = np.abs(freq - self.zero_exact).max()
            rec.check(gap <= radius, f"zero-coupling gap {gap:.4f} exceeds "
                                     f"Hoeffding radius {radius:.4f}")
        with rec.op("determinism"):
            cfg = pm.SamplingConfig(DETERMINISM_SAMPLES, seed=self.seeds[0])
            a = pm.perturb_and_mpm(self.models[0], cfg, batch_size=2048)
            b = pm.perturb_and_mpm(self.models[0], cfg, batch_size=700)
            rec.check(np.array_equal(a.labels, b.labels),
                      "labels depend on batch_size")

    def metrics(self, clock) -> dict:
        """Times in reference seconds, see bench/clock.py."""
        rates = [CHAIN_SAMPLES / clock.seconds(iv) for iv in self.sample_calls]
        infer = [clock.seconds(iv) / INFER_REPEATS for iv in self.infer_calls]
        return {"samples_per_s": (float(np.median(rates)), "samples/s"),
                "infer_s": (float(np.median(infer)), "s"),
                "oracle_tv": (float(np.median(self.tv)), "TV")}

    def probe_models(self):
        """(model, sampling seed) pairs behind samples_per_s."""
        return list(zip(self.models, self.seeds))


# -- phantoms ---------------------------------------------------------------

INFER_CALLS = 8
UNCERTAINTY_CALLS = 3
ENTROPY_RATIO = 2.0      # wrong-voxel over right-voxel mean entropy, at least
LATTICE_MEAN_TOL = 0.01  # mean |Q_lattice - Q_exact| over voxels and labels
LATTICE_AGREE = 0.99     # share of voxels whose MPM label matches exact
WINDOW_DIMS = (2, 4)     # oracle-scale windows: 3^8 labelings each
N_WINDOWS = 48
WINDOW_SAMPLES = 500
WINDOW_PHANTOM_SEED = 0  # windows come from this fixed phantom, see README


def _read_csv_column(path, column: int) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([float(r[column]) for r in rows])


class Phantom:
    """A tumour phantom through `pmpm infer` and `pmpm uncertainty`."""

    def __init__(self, size, backend, weight, sigma, n_samples, seed,
                 workdir):
        self.size = size
        self.backend = backend
        self.weight = weight
        self.sigma = sigma
        self.n_samples = n_samples
        self.seed = seed
        self.dir = workdir

    def setup(self) -> None:
        self.truth, maps = make_phantom(self.size, self.seed)
        self.maps = maps
        names = []
        for label, image in enumerate(maps):
            names.append(f"p{label}.pgm")
            ref.write_pgm(self.dir / names[-1], image)
        self.config = self.dir / "phantom.cfg"
        self.config.write_text(
            f"dims = {self.size} {self.size}\n"
            f"labels = {N_LABELS}\n"
            f"prob_map = {' '.join(names)}\n"
            f"kernel = {self.weight!r} {self.sigma!r}\n"
            f"seed = {self.seed}\n"
            f"samples = {self.n_samples}\n"
            f"backend = {self.backend}\n"
            f"iterations = {MF_ITERATIONS}\n"
            f"tol = {MF_TOL!r}\n")

    def prepare_reference(self) -> None:
        dims = (self.size, self.size)
        self.unary = ref.unaries_from_pixels(self.maps)
        self.q_ref, _ = ref.mean_field(self.unary, dims, self.weight,
                                       (self.sigma, self.sigma),
                                       MF_ITERATIONS, MF_TOL)
        self.windows = self._windows()
        self.sample_calls = []  # wall intervals, see Recorder.timed
        self.infer_calls = []
        self.tv = []

    def _windows(self):
        """(model, exact marginals) of oracle-scale windows on the tumour
        border of the fixed window phantom, with this workload's kernel.

        The windows do not depend on the seed: TV on windows of one
        phantom varies between phantoms by about 20% even over 192
        windows, because phantoms differ in how ambiguous their maps are.
        """
        truth, maps = make_phantom(self.size, WINDOW_PHANTOM_SEED)
        unary = ref.unaries_from_pixels(maps).reshape(
            self.size, self.size, N_LABELS)
        border = np.zeros_like(truth, dtype=bool)
        border[:, :-1] |= truth[:, :-1] != truth[:, 1:]
        border[:-1, :] |= truth[:-1, :] != truth[1:, :]
        h, w = WINDOW_DIMS
        rows, cols = np.nonzero(border[:self.size - h + 1, :self.size - w + 1])
        pick = np.random.default_rng(WINDOW_PHANTOM_SEED).choice(
            len(rows), N_WINDOWS, replace=False)
        pair = ref.dense_kernel(WINDOW_DIMS, self.weight,
                                (self.sigma, self.sigma))
        out = []
        for r, c in zip(rows[pick], cols[pick]):
            u = unary[r:r + h, c:c + w].reshape(-1, N_LABELS)
            model = pm.build_grid_model(WINDOW_DIMS, N_LABELS, u,
                                        [(self.weight, self.sigma)])
            out.append((model, ref.enumerate_marginals(u, pair)))
        return out

    def _pmpm(self, rec, *argv):
        """Wall interval of one in-process `pmpm` call; raises on failure."""
        with contextlib.redirect_stdout(io.StringIO()):
            with rec.timed(argv[0]) as interval:
                code = cli.main([str(a) for a in argv])
        if code != 0:
            raise RuntimeError(f"pmpm {argv[0]} exited {code}")
        return interval[0]

    def round(self, rec: Recorder) -> None:
        d = self.dir
        q = None
        for _ in range(INFER_CALLS):
            with rec.op("infer"):
                self.infer_calls.append(self._pmpm(
                    rec, "infer", "--model", self.config, "--out", d / "q.pmt",
                    "--csv", d / "q.csv"))
                q = ref.read_pmt(d / "q.pmt")
                self._check_marginals(rec, q)
                rec.check(np.array_equal(_read_csv_column(d / "q.csv", 2),
                                         q.ravel()),
                          "marginals CSV differs from the tensor")
        for _ in range(UNCERTAINTY_CALLS):
            with rec.op("uncertainty"):
                self.sample_calls.append(self._pmpm(
                    rec, "uncertainty", "--model", self.config,
                    "--out", d / "h.pmt", "--heatmap", d / "h.pgm",
                    "--csv", d / "h.csv"))
                self._check_entropy(rec, ref.read_pmt(d / "h.pmt"), d, q)
        tvs = []
        for k, (model, exact) in enumerate(self.windows):
            with rec.op("window-oracle"):
                got = pm.exact_marginals(pm.enumerate_gibbs(model))
                rec.check(np.abs(got - exact).max() < 1e-12,
                          "program oracle differs from own enumeration")
                cfg = pm.SamplingConfig(WINDOW_SAMPLES,
                                        seed=child_seed(self.seed, 2, k))
                tvs.append(ref.tv(pm.empirical_marginals(
                    pm.perturb_and_mpm(model, cfg)), exact))
        self.tv.append(float(np.mean(tvs)))

    def _check_marginals(self, rec, q) -> None:
        rec.check(q.shape == self.q_ref.shape, f"marginals shape {q.shape}")
        diff = np.abs(q - self.q_ref)
        if self.backend == "exact":
            rec.check(diff.max() < 1e-9,
                      f"exact marginals differ by {diff.max():.3g}")
        else:
            agree = np.mean(q.argmax(1) == self.q_ref.argmax(1))
            rec.check(diff.mean() <= LATTICE_MEAN_TOL and agree >= LATTICE_AGREE,
                      f"lattice marginals: mean diff {diff.mean():.4f}, "
                      f"label agreement {agree:.4f}")

    def _check_entropy(self, rec, h, d, q) -> None:
        top = math.log2(N_LABELS)
        rec.check(h.shape == (self.size * self.size,) and np.all(np.isfinite(h))
                  and h.min() >= 0.0 and h.max() <= top + 1e-12,
                  "entropy outside [0, log2 m]")
        pixels = np.rint(np.clip(h / top, 0.0, 1.0) * 255.0)
        rec.check(np.array_equal(ref.read_pgm(d / "h.pgm").ravel(), pixels),
                  "heatmap is not the rescaled entropy")
        rec.check(np.array_equal(_read_csv_column(d / "h.csv", 1), h),
                  "entropy CSV differs from the tensor")
        wrong = q.argmax(1) != self.truth.ravel()
        ratio = h[wrong].mean() / max(h[~wrong].mean(), 1e-300)
        rec.check(wrong.any() and ratio >= ENTROPY_RATIO,
                  f"entropy on wrong voxels only {ratio:.2f}x that on "
                  "correct ones")

    def metrics(self, clock) -> dict:
        """Times in reference seconds, see bench/clock.py."""
        sample = [clock.seconds(iv) for iv in self.sample_calls]
        infer = [clock.seconds(iv) for iv in self.infer_calls]
        return {"samples_per_s": (self.n_samples / float(np.median(sample)),
                                  "samples/s"),
                "infer_s": (float(np.median(infer)), "s"),
                "oracle_tv": (float(np.median(self.tv)), "TV")}

    def probe_models(self):
        model = pm.load_model(pm.parse_config(self.config))
        return [(model, self.seed)]


WORKLOADS = {
    "chain-oracle": lambda seed, d: ChainOracle(seed),
    "phantom-exact": lambda seed, d: Phantom(32, "exact", 1.0, 1.5, 16,
                                             seed, d),
    "phantom-lattice": lambda seed, d: Phantom(64, "lattice", 0.25, 3.0, 32,
                                               seed, d),
}
