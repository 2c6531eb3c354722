import numpy as np
import pytest

import perturbmpm.evaluation as evaluation
from perturbmpm import (CapacityError, DenseCrfModel, SamplingConfig,
                        SyntheticExperimentConfig, compute_eor,
                        corrected_label_volume, empirical_marginals,
                        enumerate_gibbs, exact_marginals, label_volume,
                        mean_field_infer, perturb_and_mpm,
                        run_biomarker_experiment, run_synthetic_experiment,
                        total_variation, uncertainty_confusion,
                        unaries_from_probabilities)
from perturbmpm.evaluation import random_grid_model


def test_random_grid_model_shape_and_determinism():
    a = random_grid_model(6, 3)
    b = random_grid_model(6, 3)
    assert a.n_voxels == 6
    assert a.n_labels == 2
    assert np.array_equal(a.unary, b.unary)
    assert not np.array_equal(a.unary, random_grid_model(6, 4).unary)
    # psi(x=0) = -log p, psi(x=1) = -log(1-p)
    p = np.exp(-a.unary)
    assert np.allclose(p.sum(axis=1), 1.0)


def test_synthetic_experiment_tiny():
    cfg = SyntheticExperimentConfig(grid_sizes=(4,), sample_counts=(10, 200),
                                    n_inits=3)
    curve = run_synthetic_experiment(cfg)
    assert len(curve.rows) == 2
    r10 = curve.row(4, 10)
    r200 = curve.row(4, 200)
    assert r200.sampled_error <= r10.sampled_error
    assert r10.mean_field_error == r200.mean_field_error
    with pytest.raises(KeyError):
        curve.row(4, 999)


def test_synthetic_experiment_scores_twice_the_total_variation():
    curve = run_synthetic_experiment(SyntheticExperimentConfig(
        grid_sizes=(4,), sample_counts=(10, 200), n_inits=1, base_seed=7))
    seed = evaluation._experiment_seed(7, 4, 0)
    model = random_grid_model(4, seed, evaluation._KERNEL_WEIGHT,
                              evaluation._KERNEL_BANDWIDTH)
    exact = exact_marginals(enumerate_gibbs(model))
    q, _ = mean_field_infer(model, evaluation._INFERENCE)
    run = perturb_and_mpm(model, SamplingConfig(
        200, seed=seed, inference=evaluation._INFERENCE))
    for count in (10, 200):
        row = curve.row(4, count)
        assert row.mean_field_error == 2 * total_variation(q, exact)
        assert row.sampled_error == 2 * total_variation(
            empirical_marginals(run.prefix(count)), exact)


def test_config_validation():
    with pytest.raises(ValueError):
        SyntheticExperimentConfig(grid_sizes=())
    with pytest.raises(ValueError):
        SyntheticExperimentConfig(sample_counts=(0,))
    with pytest.raises(ValueError):
        SyntheticExperimentConfig(n_inits=0)
    for kwargs in (dict(grid_sizes=(True,)), dict(grid_sizes=(6.0,)),
                   dict(sample_counts=(10, 2.0)), dict(n_inits=True),
                   dict(n_inits=2.5), dict(base_seed=-1),
                   dict(base_seed=2 ** 64)):
        with pytest.raises(ValueError, match="must be an integer"):
            SyntheticExperimentConfig(**kwargs)
    # 2^25 labelings is over the enumeration guard, and so is 2^(10^9),
    # which the check never forms
    for sizes in ((6, 25), (10 ** 9,)):
        with pytest.raises(CapacityError, match="enumeration guard"):
            SyntheticExperimentConfig(grid_sizes=sizes)
    SyntheticExperimentConfig(grid_sizes=(24,))


def test_uncertainty_confusion_counts():
    pred = np.array([0, 0, 1, 1])
    truth = np.array([0, 1, 1, 0])
    unc = np.array([0.0, 0.9, 0.8, 0.0])
    c = uncertainty_confusion(pred, truth, unc, threshold=0.5)
    assert (c.tp, c.fn, c.fp, c.tn) == (1, 1, 1, 1)
    assert c.sensitivity == 0.5
    assert c.specificity == 0.5


def test_uncertainty_confusion_roi_and_validation():
    pred = np.array([0, 1])
    truth = np.array([1, 1])
    unc = np.array([1.0, 0.0])
    c = uncertainty_confusion(pred, truth, unc, roi=np.array([True, False]))
    assert (c.tp, c.fn, c.fp, c.tn) == (1, 0, 0, 0)
    assert np.isnan(c.specificity)
    with pytest.raises(ValueError):
        uncertainty_confusion(pred, truth, unc[:1])


@pytest.mark.parametrize("threshold", [-1.0, float("nan"), float("inf"),
                                       -float("inf")])
def test_thresholds_must_be_finite_and_non_negative(threshold):
    pred = truth = np.array([0, 1])
    unc = np.array([1.0, 0.0])
    with pytest.raises(ValueError, match="^threshold must be"):
        uncertainty_confusion(pred, truth, unc, threshold=threshold)
    with pytest.raises(ValueError, match="^threshold must be"):
        corrected_label_volume(pred, unc, threshold, 1)


def test_uncertainty_confusion_rejects_a_mis_shaped_roi():
    pred = truth = unc = np.zeros(4)
    for roi in (np.ones(3, bool), np.ones((2, 2), bool)):
        with pytest.raises(ValueError, match="roi mask shape"):
            uncertainty_confusion(pred, truth, unc, roi=roi)


def test_compute_eor_examples():
    assert compute_eor(10.0, 0.0) == 1.0
    assert compute_eor(10.0, 5.0) == 0.5
    assert compute_eor(8.0, 2.0) == 0.75
    with pytest.raises(ValueError):
        compute_eor(0.0, 0.0)
    with pytest.raises(ValueError):
        compute_eor(1.0, -1.0)


def test_label_volumes():
    pred = np.array([1, 1, 0, 1])
    unc = np.array([0.0, 0.7, 0.0, 0.1])
    assert label_volume(pred, 1) == 3.0
    assert corrected_label_volume(pred, unc, 0.5, 1) == 2.0
    assert corrected_label_volume(pred, unc, 0.0, 1) == 1.0
    with pytest.raises(ValueError):
        corrected_label_volume(pred, unc[:2], 0.5, 1)


def _planted_model(truth, wrong, n_labels=2):
    """Confident correct unaries everywhere except ambiguous planted errors."""
    n = len(truth)
    probs = np.full((n, n_labels), 1e-6)
    for i in range(n):
        probs[i, truth[i]] = 1.0
    for i in wrong:
        probs[i, :] = 0.35
        probs[i, 1 - truth[i]] = 0.65
    probs /= probs.sum(axis=1, keepdims=True)
    return DenseCrfModel((n,), n_labels, unaries_from_probabilities(probs))


def test_biomarker_correction_improves_rtv():
    truth_pre = np.array([1] * 20 + [0] * 10)
    truth_post = np.array([1] * 4 + [0] * 26)
    # errors planted at voxels that will be ambiguous, hence high entropy
    pre_model = _planted_model(truth_pre, wrong=[20, 21, 22])
    post_model = _planted_model(truth_post, wrong=[4, 5, 6])
    report = run_biomarker_experiment(
        pre_model, post_model, truth_pre, truth_post,
        SamplingConfig(200, seed=0), target_label=1, threshold=0.1)
    assert report.rtv_error_corrected < report.rtv_error
    assert report.truth_eor == pytest.approx(compute_eor(20.0, 4.0))


@pytest.mark.parametrize("threshold, target_label, message", [
    (float("nan"), 1, "^threshold must be"),
    (-1.0, 1, "^threshold must be"),
    (0.1, -1, "^target_label -1 is not a label"),
    (0.1, 2, "^target_label 2 is not a label")])
def test_biomarker_inputs_are_checked_before_sampling(
        monkeypatch, threshold, target_label, message):
    truth = np.array([1] * 3 + [0] * 3)
    model = _planted_model(truth, wrong=[3])
    calls = []
    monkeypatch.setattr(evaluation, "perturb_and_mpm",
                        lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=message):
        run_biomarker_experiment(model, model, truth, truth,
                                 SamplingConfig(20, seed=0),
                                 target_label=target_label,
                                 threshold=threshold)
    assert calls == []
