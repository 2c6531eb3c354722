"""Command-line entry point.

Subcommands: infer, sample, uncertainty, synth-experiment, biomarker,
oracle-check.  Exit codes: 0 success, 1 usage error, 2 data or format
error, 3 capacity exceeded.  Identical invocations on identical inputs
produce bitwise-identical outputs; every output file gets a sidecar
manifest recording the resolved configuration and seed.
"""
from __future__ import annotations

import argparse
import functools
import sys
import textwrap

import numpy as np

from . import __version__
from .config import load_model, parse_config
from .errors import CapacityError, ConfigError, FormatError, ModelShapeError
from .evaluation import SyntheticExperimentConfig, random_grid_model, \
    run_biomarker_experiment, run_synthetic_experiment
from .gumbel import SampleSet, SamplingConfig, empirical_marginals, \
    perturb_and_mpm
from .meanfield import BACKENDS, MeanField, mpm_decode
from .metrics import entropy_error_bound, entropy_map, hamming_loss, \
    required_sample_size, total_variation
from .oracle import _check_full_order, _full_order_draws, enumerate_gibbs, \
    exact_map, exact_marginals, kl_product_vs_exact, \
    perturb_and_map_order1_many
from .tensorio import entropy_heatmap_image, read_tensor, \
    write_biomarker_csv, write_error_curve_csv, write_manifest, \
    write_marginals_csv, write_pgm, write_tensor, write_uncertainty_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CAPACITY = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of this process, built on first use: argparse
    formats every argument as it is added, so a build costs more than most
    runs' parsing.  Parsing leaves the parser as it was (each call gets a
    fresh namespace), so repeated in-process `main` calls share it."""
    parser = _Parser(prog="pmpm",
                     description="Approximate CRF sampling by Gumbel "
                                 "perturbation and mean-field MPM decoding.")
    parser.add_argument("--version", action="version",
                        version=f"pmpm {__version__}")
    sub = parser.add_subparsers(dest="command")

    def model_cmd(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--model", required=True, help="model config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--backend", choices=BACKENDS,
                       default=None, help="override the config backend")
        return p

    p = model_cmd("infer", "mean-field marginals and MPM labeling")
    p.add_argument("--out", required=True, help="output marginals (.pmt)")
    p.add_argument("--csv", help="also export marginals as CSV")

    p = model_cmd("sample", "draw perturbed-MPM samples")
    p.add_argument("--samples", type=int, default=None,
                   help="override the config sample count")
    p.add_argument("--out", required=True,
                   help="output (T, N) u32 label tensor (.pmt)")

    p = model_cmd("uncertainty", "entropy uncertainty map from samples")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--threshold", type=float, default=None,
                   help="override the config uncertainty threshold")
    p.add_argument("--out", required=True, help="entropy tensor (.pmt)")
    p.add_argument("--heatmap", help="also export an 8-bit PGM heatmap")
    p.add_argument("--csv", help="also export per-voxel entropy as CSV")

    p = sub.add_parser("synth-experiment",
                       help="sampler-vs-oracle error curves on random grids")
    p.add_argument("--out", required=True, help="error-curve CSV path")
    synth = SyntheticExperimentConfig
    p.add_argument("--grids", type=int, nargs="+", default=synth.grid_sizes)
    p.add_argument("--samples", type=int, nargs="+",
                   default=synth.sample_counts)
    p.add_argument("--inits", type=int, default=synth.n_inits)
    p.add_argument("--seed", type=int, default=synth.base_seed)

    p = sub.add_parser("biomarker",
                       help="uncertainty-corrected resection volumes")
    p.add_argument("--pre-model", required=True)
    p.add_argument("--post-model", required=True)
    p.add_argument("--truth-pre", required=True, help="label tensor (.pmt)")
    p.add_argument("--truth-post", required=True, help="label tensor (.pmt)")
    p.add_argument("--target-label", type=int, default=1)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--backend", choices=BACKENDS, default=None)
    p.add_argument("--out", required=True, help="report CSV path")

    p = sub.add_parser("oracle-check",
                       help="compare samplers against the exact oracle")
    p.add_argument("--n", type=int, default=6, help="grid size")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    return parser


def _resolve(cfg, args):
    """Apply command-line overrides to a parsed RunConfig, which checks
    them like file values."""
    return cfg.override(**{
        key: getattr(args, key) for key in ("seed", "backend", "samples",
                                            "threshold")
        if getattr(args, key, None) is not None})


# Config keys that `biomarker` applies to both models.
_SHARED_KEYS = ("seed", "samples", "backend", "iterations", "tol",
                "threshold")


def _cmd_infer(args) -> int:
    cfg = _resolve(parse_config(args.model), args)
    model = load_model(cfg)
    inference = cfg.sampling().inference
    q, iterations, converged = MeanField(model, inference).infer(
        model.unary[None])
    q = q[0]
    write_tensor(args.out, q)
    write_manifest(args.out, "infer", cfg.echo(), __version__)
    if args.csv:
        write_marginals_csv(args.csv, q)
        write_manifest(args.csv, "infer", cfg.echo(), __version__)
    labels = mpm_decode(q)
    if converged[0]:
        status = f"converged in {iterations[0]} iterations"
    else:
        status = (f"stopped at the {inference.max_iterations}-iteration cap "
                  "without converging")
    counts = np.bincount(labels, minlength=model.n_labels).tolist()
    print(f"{status}; label counts {counts}")
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_sample(args) -> int:
    cfg = _resolve(parse_config(args.model), args)
    model = load_model(cfg)
    samples = perturb_and_mpm(model, cfg.sampling())
    write_tensor(args.out, samples.labels.astype(np.uint32))
    write_manifest(args.out, "sample", cfg.echo(), __version__)
    print(f"wrote {len(samples)} samples of {samples.n_voxels} voxels "
          f"to {args.out}")
    if cfg.epsilon is not None:
        need = required_sample_size(cfg.epsilon, cfg.delta, model.n_labels)
        print(f"required_sample_size(eps={cfg.epsilon}, delta={cfg.delta}, "
              f"m={model.n_labels}) = {need}")
    return EXIT_OK


def _cmd_uncertainty(args) -> int:
    cfg = _resolve(parse_config(args.model), args)
    if args.heatmap and len(cfg.dims) != 2:
        raise ConfigError("PGM heatmaps require a 2-d grid")
    model = load_model(cfg)
    samples = perturb_and_mpm(model, cfg.sampling())
    marginals = empirical_marginals(samples)
    entropy = entropy_map(marginals)
    write_tensor(args.out, entropy)
    write_manifest(args.out, "uncertainty", cfg.echo(), __version__)
    if args.heatmap:
        write_pgm(args.heatmap,
                  entropy_heatmap_image(entropy, model.n_labels, cfg.dims))
        write_manifest(args.heatmap, "uncertainty", cfg.echo(), __version__)
    if args.csv:
        write_uncertainty_csv(args.csv, entropy)
        write_manifest(args.csv, "uncertainty", cfg.echo(), __version__)
    flagged = int(np.sum(entropy > cfg.threshold))
    print(f"{flagged} of {model.n_voxels} voxels above "
          f"threshold {cfg.threshold} bits")
    return EXIT_OK


def _cmd_synth_experiment(args) -> int:
    cfg = SyntheticExperimentConfig(
        grid_sizes=tuple(args.grids), sample_counts=tuple(args.samples),
        n_inits=args.inits, base_seed=args.seed)
    curve = run_synthetic_experiment(cfg)
    write_error_curve_csv(args.out, curve)
    write_manifest(args.out, "synth-experiment", cfg.echo(), __version__)
    for row in curve.rows:
        print(f"N={row.n_voxels:4d} T={row.n_samples:7d} "
              f"sampled={row.sampled_error:.6f} "
              f"mean_field={row.mean_field_error:.6f}")
    return EXIT_OK


def _cmd_biomarker(args) -> int:
    pre_cfg = _resolve(parse_config(args.pre_model), args)
    post_cfg = _resolve(parse_config(args.post_model), args)
    differ = [key for key in _SHARED_KEYS
              if pre_cfg.value(key) != post_cfg.value(key)]
    if differ:
        raise ConfigError(
            "--pre-model and --post-model configs must agree on how both "
            f"are sampled; they differ in {', '.join(differ)}")
    truths = []
    for path, cfg in ((args.truth_pre, pre_cfg), (args.truth_post, post_cfg)):
        truth = read_tensor(path)
        if truth.size != cfg.n_voxels:
            raise FormatError(
                f"{path}: truth has {truth.size} voxels, its model has "
                f"{cfg.n_voxels}")
        if not np.isin(truth, np.arange(cfg.n_labels)).all():
            raise FormatError(
                f"{path}: truth labels must lie in [0, {cfg.n_labels})")
        truths.append(truth.ravel())
    report = run_biomarker_experiment(
        load_model(pre_cfg), load_model(post_cfg), *truths,
        pre_cfg.sampling(), args.target_label,
        threshold=pre_cfg.threshold)
    write_biomarker_csv(args.out, report)
    manifest = []
    for tag, cfg in (("pre", pre_cfg), ("post", post_cfg)):
        manifest += [f"{tag}:", textwrap.indent(cfg.echo(), "  ")]
    manifest += [f"truth_pre = {args.truth_pre}",
                 f"truth_post = {args.truth_post}",
                 f"target_label = {args.target_label}"]
    write_manifest(args.out, "biomarker", "\n".join(manifest), __version__)
    print(f"EOR {report.eor:.4f} (corrected {report.eor_corrected:.4f}, "
          f"truth {report.truth_eor:.4f})")
    print(f"residual volume error {report.rtv_error:.2f} "
          f"(corrected {report.rtv_error_corrected:.2f})")
    return EXIT_OK


def _cmd_oracle_check(args) -> int:
    cfg = SamplingConfig(args.samples, seed=args.seed)
    model = random_grid_model(args.n, args.seed)
    # the full-order sampler's state guard first: it is the tighter one
    _check_full_order(model)
    dist = enumerate_gibbs(model)
    full = _full_order_draws(dist.energies, model, args.seed, args.samples)
    exact = exact_marginals(dist)
    tv_full = total_variation(
        empirical_marginals(SampleSet(full, model.n_labels)), exact)
    run = perturb_and_mpm(model, cfg)
    mpm = empirical_marginals(run)
    tv_mpm = total_variation(mpm, exact)
    # The error split: order-1 perturb-and-MAP decodes the sampler's noise
    # by exact MAP in place of mean field, draw t for draw t, so its TV to
    # exact is the perturbation's term and its TV to the sampler mean
    # field's.
    order1 = perturb_and_map_order1_many(model, args.seed, args.samples)
    order1_marginals = empirical_marginals(SampleSet(order1, model.n_labels))
    solver = MeanField(model, cfg.inference)
    q = solver.infer(model.unary[None])[0][0]
    print(f"N={args.n} T={args.samples}")
    print(f"TV(full-order perturbation, exact) = {tv_full:.6f}")
    print(f"TV(perturbed MPM, exact)           = {tv_mpm:.6f}")
    print("TV(order-1 perturb-and-MAP, exact) = "
          f"{total_variation(order1_marginals, exact):.6f}")
    print("TV(perturbed MPM, order-1 MAP)     = "
          f"{total_variation(mpm, order1_marginals):.6f}; paired Hamming "
          f"loss {hamming_loss(run.labels, order1):.6f}")
    print(f"TV(mean field, exact)              = "
          f"{total_variation(q, exact):.6f}; KL(mean field || exact) "
          f"{kl_product_vs_exact(q, model, dist):.6f}; free energy + log Z "
          f"{solver.free_energy(q) + dist.log_partition:.6f}")
    print("entropy error bound at TV(perturbed MPM, exact) = "
          f"{entropy_error_bound(tv_mpm, model.n_labels):.6f} bits")
    print(f"exact MAP = {' '.join(map(str, exact_map(model)))}")
    return EXIT_OK


_COMMANDS = {
    "infer": _cmd_infer,
    "sample": _cmd_sample,
    "uncertainty": _cmd_uncertainty,
    "synth-experiment": _cmd_synth_experiment,
    "biomarker": _cmd_biomarker,
    "oracle-check": _cmd_oracle_check,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (CapacityError, MemoryError) as exc:
        # a MemoryError is numpy refusing an array too large to allocate
        print(f"pmpm: capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (ConfigError, FormatError, ModelShapeError, ValueError,
            OSError) as exc:
        print(f"pmpm: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
