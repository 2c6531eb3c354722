"""The CSV exports against the csv.writer form they replaced, byte for byte."""
import csv
import tracemalloc

import numpy as np
import pytest

from perturbmpm.evaluation import BiomarkerReport, ErrorCurve, ErrorCurveRow
from perturbmpm.tensorio import write_biomarker_csv, write_error_curve_csv, \
    write_marginals_csv, write_uncertainty_csv

_EDGES = [0.0, 1.0, 5e-324, 1e-05, 1e16, -0.0, float("nan"), float("inf"),
          -float("inf"), -5e-324]


# -- the reference: one csv.writer row per value --------------------------

def _marginals_ref(path, marginals):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["voxel", "label", "probability"])
        for i, row in enumerate(np.asarray(marginals)):
            for l, p in enumerate(row):
                writer.writerow([i, l, repr(float(p))])


def _uncertainty_ref(path, entropy):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["voxel", "entropy_bits"])
        for i, h in enumerate(np.asarray(entropy)):
            writer.writerow([i, repr(float(h))])


def _error_curve_ref(path, curve):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n_voxels", "n_samples", "sampled_error",
                         "mean_field_error"])
        for row in curve.rows:
            writer.writerow([row.n_voxels, row.n_samples,
                             repr(row.sampled_error),
                             repr(row.mean_field_error)])


def _biomarker_ref(path, report):
    fields = ["truth_v_pre", "truth_v_post", "truth_eor", "v_pre", "v_post",
              "eor", "v_pre_corrected", "v_post_corrected", "eor_corrected",
              "rtv_error", "rtv_error_corrected", "eor_error",
              "eor_error_corrected"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        writer.writerow([repr(float(getattr(report, f))) for f in fields])


def _same_bytes(tmp_path, write, reference, data):
    write(tmp_path / "new.csv", data)
    reference(tmp_path / "ref.csv", data)
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "ref.csv").read_bytes()
    return new


# -- fields ---------------------------------------------------------------

def _fields():
    rng = np.random.default_rng(7)
    return {
        "random": rng.dirichlet(np.ones(3), size=50),
        "edges": np.array([_EDGES, _EDGES[::-1]]),
        "one-voxel": np.array([[0.25, 0.75]]),
        "one-value": np.array([[0.5]]),
        "one-label": rng.random((9, 1)),
        "empty": np.zeros((0, 3)),
        "float32": rng.random((5, 2)).astype(np.float32),
        # 40 002 values: two full blocks and a ragged third
        "multi-block": rng.dirichlet(np.ones(3), size=13_334),
        # 16 384 // 7 = 2 340 voxels a block: blocks end mid-file, at no
        # multiple of a power of ten
        "seven-label": rng.dirichlet(np.ones(7), size=5_000),
        # more labels than a block holds values: one voxel a block
        "wide": rng.dirichlet(np.ones(16_385), size=2),
        "non-contiguous": rng.random((8, 6))[::2, ::2],
    }


@pytest.mark.parametrize("name", list(_fields()))
def test_marginals_csv_bytes_match_csv_writer(tmp_path, name):
    q = _fields()[name]
    data = _same_bytes(tmp_path, write_marginals_csv, _marginals_ref, q)
    assert data.count(b"\r\n") == q.size + 1


@pytest.mark.parametrize("name", list(_fields()))
def test_uncertainty_csv_bytes_match_csv_writer(tmp_path, name):
    h = _fields()[name].ravel()
    data = _same_bytes(tmp_path, write_uncertainty_csv, _uncertainty_ref, h)
    assert data.count(b"\r\n") == h.size + 1


@pytest.mark.parametrize("errors", [
    [(0.1, 0.2)],
    [(e, _EDGES[-1 - k]) for k, e in enumerate(_EDGES)],
    [(float(a), float(b))
     for a, b in np.random.default_rng(3).random((40_000, 2))],
])
def test_error_curve_csv_bytes_match_csv_writer(tmp_path, errors):
    curve = ErrorCurve(tuple(
        ErrorCurveRow(4 + k % 5, 10 * (k + 1), a, b)
        for k, (a, b) in enumerate(errors)))
    _same_bytes(tmp_path, write_error_curve_csv, _error_curve_ref, curve)


@pytest.mark.parametrize("seed", [0, 1])
def test_biomarker_csv_bytes_match_csv_writer(tmp_path, seed):
    n = len(BiomarkerReport.__dataclass_fields__)
    values = np.random.default_rng(seed).random(n)
    # the first fields are edges; seed 1 takes those seed 0 leaves out
    edges = _EDGES[:n] if seed == 0 else _EDGES[-n:]
    values[:len(edges)] = edges
    report = BiomarkerReport(*values.tolist())
    _same_bytes(tmp_path, write_biomarker_csv, _biomarker_ref, report)


def test_marginals_csv_memory_is_one_block(tmp_path):
    q = np.random.default_rng(0).dirichlet(np.ones(3), size=110_592)
    tracemalloc.start()
    try:
        write_marginals_csv(tmp_path / "q.csv", q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
