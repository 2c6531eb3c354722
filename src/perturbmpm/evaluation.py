"""Experiment harnesses: synthetic-grid validation of the sampler against
the exact oracle, uncertainty-quality confusion analysis, and
uncertainty-corrected resection biomarkers on synthetic volumes.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import CapacityError, _check_integer, _check_number
from .gumbel import SamplingConfig, check_seed, empirical_marginals, \
    perturb_and_mpm
from .meanfield import InferenceConfig, mean_field_infer, mpm_decode
from .metrics import entropy_map, total_variation
from .model import DenseCrfModel, build_grid_model, unaries_from_probabilities
from .oracle import MAX_ENUM_STATES, enumerate_gibbs, exact_marginals

# The synthetic experiment's chain models and their mean-field settings.
_KERNEL_WEIGHT = 2.0
_KERNEL_BANDWIDTH = 1.0
_INFERENCE = InferenceConfig()


@dataclasses.dataclass(frozen=True)
class SyntheticExperimentConfig:
    grid_sizes: tuple[int, ...] = (6, 9, 12)
    sample_counts: tuple[int, ...] = (10, 100, 1000, 10000)
    n_inits: int = 20
    base_seed: int = 0

    def __post_init__(self):
        if not (self.grid_sizes and self.sample_counts):
            raise ValueError("need at least one grid size and sample count")
        for name, values in (("grid size", self.grid_sizes),
                             ("sample count", self.sample_counts),
                             ("n_inits", [self.n_inits])):
            for value in values:
                _check_integer(name, value, 1)
        check_seed(self.base_seed)
        n = max(self.grid_sizes)
        if n >= MAX_ENUM_STATES.bit_length():  # 2^n > MAX_ENUM_STATES
            raise CapacityError(f"grid size {n}: 2^{n} labelings exceed the "
                                f"enumeration guard of {MAX_ENUM_STATES}")

    def echo(self) -> str:
        """Manifest text: every field, then the fixed model and inference
        settings."""
        fields = dataclasses.asdict(self)
        fields.update(kernel_weight=_KERNEL_WEIGHT,
                      kernel_bandwidth=_KERNEL_BANDWIDTH,
                      inference=dataclasses.asdict(_INFERENCE))
        return "\n".join(f"{k} = {v!r}" for k, v in fields.items())


@dataclasses.dataclass(frozen=True)
class ErrorCurveRow:
    n_voxels: int
    n_samples: int
    sampled_error: float     # 2·TV (mean L1), empirical marginals vs exact
    mean_field_error: float  # 2·TV (mean L1), unperturbed Q vs exact


@dataclasses.dataclass(frozen=True)
class ErrorCurve:
    rows: tuple[ErrorCurveRow, ...]

    def row(self, n_voxels: int, n_samples: int) -> ErrorCurveRow:
        for r in self.rows:
            if r.n_voxels == n_voxels and r.n_samples == n_samples:
                return r
        raise KeyError((n_voxels, n_samples))


def _experiment_seed(base_seed: int, n: int, init: int) -> int:
    ss = np.random.SeedSequence([int(base_seed), int(n), int(init)])
    return int(ss.generate_state(1)[0])


def random_grid_model(n: int, seed: int, kernel_weight: float = 1.0,
                      kernel_bandwidth: float = 1.0) -> DenseCrfModel:
    """Binary 1-d grid with uniform-random unary probabilities and a
    Potts + spatial Gaussian pairwise term."""
    rng = np.random.default_rng(seed)
    p0 = rng.random(n)
    probs = np.stack([p0, 1.0 - p0], axis=1)
    unary = unaries_from_probabilities(probs)
    kernels = [(kernel_weight, kernel_bandwidth)] if kernel_weight > 0 else []
    return build_grid_model((n,), 2, unary, kernels)


def run_synthetic_experiment(cfg: SyntheticExperimentConfig) -> ErrorCurve:
    """Compare empirical perturbed-MPM marginals and unperturbed mean-field
    marginals against enumerated exact marginals over random unary draws,
    each scored as twice its voxel-averaged total variation (mean L1).

    Each sample count scores a prefix of one run of the largest count.
    """
    counts = sorted(set(int(s) for s in cfg.sample_counts))
    rows = []
    for n in cfg.grid_sizes:
        sampled, unperturbed = [], []
        for init in range(cfg.n_inits):
            seed = _experiment_seed(cfg.base_seed, n, init)
            model = random_grid_model(n, seed, _KERNEL_WEIGHT,
                                      _KERNEL_BANDWIDTH)
            exact = exact_marginals(enumerate_gibbs(model))
            q, _ = mean_field_infer(model, _INFERENCE)
            unperturbed.append(2 * total_variation(q, exact))
            run = perturb_and_mpm(model, SamplingConfig(
                counts[-1], seed=seed, inference=_INFERENCE))
            sampled.append([2 * total_variation(
                empirical_marginals(run.prefix(s)), exact) for s in counts])
        rows += (ErrorCurveRow(n, s, float(np.mean(errors)),
                               float(np.mean(unperturbed)))
                 for s, errors in zip(counts, zip(*sampled)))
    return ErrorCurve(tuple(rows))


@dataclasses.dataclass(frozen=True)
class UncertaintyConfusion:
    tp: int  # misclassified and uncertain
    fn: int  # misclassified and certain
    fp: int  # correctly classified and uncertain
    tn: int  # correctly classified and certain

    @property
    def sensitivity(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else float("nan")

    @property
    def specificity(self) -> float:
        return self.tn / (self.tn + self.fp) if self.tn + self.fp else float("nan")


def check_threshold(threshold: float) -> None:
    """Raise ValueError unless the uncertainty threshold, in bits, is a
    number in [0, inf)."""
    _check_number("threshold", threshold, 0, math.inf)


def uncertainty_confusion(pred: np.ndarray, truth: np.ndarray,
                          uncertainty: np.ndarray, threshold: float = 0.0,
                          roi: np.ndarray | None = None) -> UncertaintyConfusion:
    """Cross-tabulate misclassification against thresholded uncertainty.

    A voxel is uncertain when its uncertainty exceeds the threshold; the
    default threshold 0 flags any non-zero uncertainty.
    """
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    uncertainty = np.asarray(uncertainty)
    if not pred.shape == truth.shape == uncertainty.shape:
        raise ValueError("pred, truth and uncertainty must share a shape")
    check_threshold(threshold)
    mask = np.ones(pred.shape, dtype=bool) if roi is None else np.asarray(roi, bool)
    if mask.shape != pred.shape:
        raise ValueError("roi mask shape does not match")
    wrong = (pred != truth)[mask]
    uncertain = (uncertainty > threshold)[mask]
    return UncertaintyConfusion(
        tp=int(np.sum(wrong & uncertain)),
        fn=int(np.sum(wrong & ~uncertain)),
        fp=int(np.sum(~wrong & uncertain)),
        tn=int(np.sum(~wrong & ~uncertain)))


def compute_eor(v_pre: float, v_post: float) -> float:
    """Extent of resection (V_pre - V_post) / V_pre; 1 = complete resection."""
    _check_number("preoperative volume", v_pre, 0, math.inf, low_open=True)
    _check_number("postoperative volume", v_post, 0, math.inf)
    return (v_pre - v_post) / v_pre


def corrected_label_volume(pred: np.ndarray, uncertainty: np.ndarray,
                           threshold: float, target_label: int) -> float:
    """Voxel count of the target label over the voxels at or below the
    uncertainty threshold; threshold 0 excludes all non-zero uncertainty."""
    pred = np.asarray(pred)
    uncertainty = np.asarray(uncertainty)
    if pred.shape != uncertainty.shape:
        raise ValueError("pred and uncertainty must share a shape")
    check_threshold(threshold)
    keep = (pred == target_label) & (uncertainty <= threshold)
    return float(np.sum(keep))


def label_volume(pred: np.ndarray, target_label: int) -> float:
    """Voxel count of the target label."""
    return float(np.sum(np.asarray(pred) == target_label))


@dataclasses.dataclass(frozen=True)
class BiomarkerReport:
    truth_v_pre: float
    truth_v_post: float
    truth_eor: float
    v_pre: float
    v_post: float
    eor: float
    v_pre_corrected: float
    v_post_corrected: float
    eor_corrected: float

    @property
    def rtv_error(self) -> float:
        return abs(self.v_post - self.truth_v_post)

    @property
    def rtv_error_corrected(self) -> float:
        return abs(self.v_post_corrected - self.truth_v_post)

    @property
    def eor_error(self) -> float:
        return abs(self.eor - self.truth_eor)

    @property
    def eor_error_corrected(self) -> float:
        return abs(self.eor_corrected - self.truth_eor)


def run_biomarker_experiment(pre_model: DenseCrfModel,
                             post_model: DenseCrfModel,
                             truth_pre: np.ndarray, truth_post: np.ndarray,
                             cfg: SamplingConfig, target_label: int,
                             threshold: float = 0.0) -> BiomarkerReport:
    """Estimate resection biomarkers from sampled segmentations of the pre-
    and postoperative models, with and without uncertainty correction.

    The segmentation is the consensus (argmax) of the empirical marginals;
    the corrected volumes drop voxels whose entropy exceeds the threshold.
    A bad threshold or target label, or a preoperative truth without the
    target label, raises ValueError before any sampling.
    """
    check_threshold(threshold)
    _check_integer("target_label", target_label, 0)
    if target_label >= min(pre_model.n_labels, post_model.n_labels):
        raise ValueError(f"target_label {target_label!r} is not a label of "
                         "both models")
    truth_v_pre = label_volume(truth_pre, target_label)
    truth_v_post = label_volume(truth_post, target_label)
    truth_eor = compute_eor(truth_v_pre, truth_v_post)
    volumes = []
    for mdl in (pre_model, post_model):
        marginals = empirical_marginals(perturb_and_mpm(mdl, cfg))
        seg = mpm_decode(marginals)
        corrected = corrected_label_volume(seg, entropy_map(marginals),
                                           threshold, target_label)
        volumes.append((label_volume(seg, target_label), corrected))
    (v_pre, v_pre_c), (v_post, v_post_c) = volumes
    return BiomarkerReport(
        truth_v_pre=truth_v_pre, truth_v_post=truth_v_post,
        truth_eor=truth_eor,
        v_pre=v_pre, v_post=v_post, eor=compute_eor(v_pre, v_post),
        v_pre_corrected=v_pre_c, v_post_corrected=v_post_c,
        eor_corrected=compute_eor(v_pre_c, v_post_c))
