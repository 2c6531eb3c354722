"""Experiment harnesses: synthetic-grid validation of the sampler against
the exact oracle, uncertainty-quality confusion analysis, and
uncertainty-corrected resection biomarkers on synthetic volumes.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .gumbel import SamplingConfig, empirical_marginals, perturb_and_mpm
from .meanfield import InferenceConfig, mean_field_infer, mpm_decode
from .metrics import entropy_map
from .model import DenseCrfModel, build_grid_model, unaries_from_probabilities
from .oracle import enumerate_gibbs, exact_marginals

_LOG_CLAMP = 1e-12
# The synthetic experiment's chain models and their mean-field settings.
_KERNEL_WEIGHT = 2.0
_KERNEL_BANDWIDTH = 1.0
_INFERENCE = InferenceConfig()


@dataclasses.dataclass(frozen=True)
class SyntheticExperimentConfig:
    grid_sizes: tuple[int, ...] = (6, 9, 12)
    sample_counts: tuple[int, ...] = (10, 50, 100, 1000, 10000, 100000, 1000000)
    n_inits: int = 20
    base_seed: int = 0
    log_scale: bool = False         # compare log-probabilities instead

    def __post_init__(self):
        if any(n < 1 for n in self.grid_sizes) or not self.grid_sizes:
            raise ValueError("grid sizes must be positive")
        if any(s < 1 for s in self.sample_counts) or not self.sample_counts:
            raise ValueError("sample counts must be positive")
        if self.n_inits < 1:
            raise ValueError("n_inits must be >= 1")

    def echo(self) -> str:
        """Manifest text: every field, with the fixed model and inference
        settings listed ahead of log_scale."""
        fields = dataclasses.asdict(self)
        log_scale = fields.pop("log_scale")
        fields.update(kernel_weight=_KERNEL_WEIGHT,
                      kernel_bandwidth=_KERNEL_BANDWIDTH,
                      inference=dataclasses.asdict(_INFERENCE),
                      log_scale=log_scale)
        return "\n".join(f"{k} = {v!r}" for k, v in fields.items())


@dataclasses.dataclass(frozen=True)
class ErrorCurveRow:
    n_voxels: int
    n_samples: int
    sampled_error: float     # mean l1 distance, empirical marginals vs exact
    mean_field_error: float  # mean l1 distance, unperturbed Q vs exact


@dataclasses.dataclass(frozen=True)
class ErrorCurve:
    rows: tuple[ErrorCurveRow, ...]

    def row(self, n_voxels: int, n_samples: int) -> ErrorCurveRow:
        for r in self.rows:
            if r.n_voxels == n_voxels and r.n_samples == n_samples:
                return r
        raise KeyError((n_voxels, n_samples))


def _l1_error(estimate: np.ndarray, exact: np.ndarray, log_scale: bool) -> float:
    if log_scale:
        a = np.log(np.clip(estimate, _LOG_CLAMP, None))
        b = np.log(np.clip(exact, _LOG_CLAMP, None))
        return float(np.abs(a - b).sum(axis=1).mean())
    return float(np.abs(estimate - exact).sum(axis=1).mean())


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
    marginals against enumerated exact marginals over random unary draws.

    Each sample count scores a prefix of one run of the largest count.
    """
    counts = sorted(set(int(s) for s in cfg.sample_counts))
    max_count = counts[-1]
    sampled = {(n, s): [] for n in cfg.grid_sizes for s in counts}
    unperturbed = {n: [] for n in cfg.grid_sizes}
    for n in cfg.grid_sizes:
        for init in range(cfg.n_inits):
            seed = _experiment_seed(cfg.base_seed, n, init)
            model = random_grid_model(n, seed, _KERNEL_WEIGHT,
                                      _KERNEL_BANDWIDTH)
            exact = exact_marginals(enumerate_gibbs(model))
            q, _ = mean_field_infer(model, _INFERENCE)
            unperturbed[n].append(_l1_error(q, exact, cfg.log_scale))
            run = perturb_and_mpm(model, SamplingConfig(
                max_count, seed=seed, inference=_INFERENCE))
            for s in counts:
                f_hat = empirical_marginals(run.prefix(s))
                sampled[n, s].append(_l1_error(f_hat, exact, cfg.log_scale))
    rows = tuple(
        ErrorCurveRow(n, s, float(np.mean(sampled[n, s])),
                      float(np.mean(unperturbed[n])))
        for n in cfg.grid_sizes for s in counts)
    return ErrorCurve(rows)


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


def _check_threshold(threshold: float) -> None:
    """Raise ValueError unless threshold is a finite number >= 0."""
    if not (np.isfinite(threshold) and threshold >= 0):
        raise ValueError(
            f"threshold must be a finite number >= 0, got {threshold!r}")


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
    _check_threshold(threshold)
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
    if v_pre <= 0:
        raise ValueError("preoperative volume must be positive")
    if v_post < 0:
        raise ValueError("postoperative volume must be non-negative")
    return (v_pre - v_post) / v_pre


def corrected_label_volume(pred: np.ndarray, uncertainty: np.ndarray,
                           threshold: float, target_label: int) -> float:
    """Voxel count of the target label over the voxels at or below the
    uncertainty threshold; threshold 0 excludes all non-zero uncertainty."""
    pred = np.asarray(pred)
    uncertainty = np.asarray(uncertainty)
    if pred.shape != uncertainty.shape:
        raise ValueError("pred and uncertainty must share a shape")
    _check_threshold(threshold)
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
    """
    segs = {}
    for tag, mdl in (("pre", pre_model), ("post", post_model)):
        samples = perturb_and_mpm(mdl, cfg)
        marginals = empirical_marginals(samples)
        segs[tag] = (mpm_decode(marginals), entropy_map(marginals))
    (pre_seg, pre_u), (post_seg, post_u) = segs["pre"], segs["post"]
    truth_v_pre = label_volume(truth_pre, target_label)
    truth_v_post = label_volume(truth_post, target_label)
    v_pre = label_volume(pre_seg, target_label)
    v_post = label_volume(post_seg, target_label)
    v_pre_c = corrected_label_volume(pre_seg, pre_u, threshold, target_label)
    v_post_c = corrected_label_volume(post_seg, post_u, threshold,
                                      target_label)
    return BiomarkerReport(
        truth_v_pre=truth_v_pre, truth_v_post=truth_v_post,
        truth_eor=compute_eor(truth_v_pre, truth_v_post),
        v_pre=v_pre, v_post=v_post, eor=compute_eor(v_pre, v_post),
        v_pre_corrected=v_pre_c, v_post_corrected=v_post_c,
        eor_corrected=compute_eor(v_pre_c, v_post_c))
