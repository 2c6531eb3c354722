import importlib.util
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from perturbmpm import CapacityError, PermutohedralLattice, grid_coordinates
from perturbmpm import lattice as lattice_module
from perturbmpm.cli import main


def exact_gauss(features, values):
    f = np.asarray(features, dtype=np.float64)
    sq = ((f[:, None, :] - f[None, :, :]) ** 2).sum(axis=2)
    return np.exp(-0.5 * sq) @ values


def test_filter_matches_exact_small_grid():
    feats = grid_coordinates((8, 8))
    lattice = PermutohedralLattice(feats)
    rng = np.random.default_rng(0)
    values = rng.random((64, 3))
    got = lattice.filter(values)
    want = exact_gauss(feats, values)
    norm_err = np.abs(got - want).max() / np.abs(want).max()
    assert norm_err < 0.02


def test_filter_1d_values_shape():
    feats = grid_coordinates((5, 5))
    lattice = PermutohedralLattice(feats)
    out = lattice.filter(np.ones(25))
    assert out.shape == (25,)
    assert np.all(out >= 1.0 - 1e-6)


def test_row_mass_is_the_filter_of_ones_bitwise():
    lattice = PermutohedralLattice(grid_coordinates((9, 8)) / 2.0)
    assert np.array_equal(lattice.row_mass, lattice.filter(np.ones(72)))


def test_filter_linear():
    feats = grid_coordinates((6, 6))
    lattice = PermutohedralLattice(feats)
    rng = np.random.default_rng(1)
    a = rng.random(36)
    b = rng.random(36)
    combined = lattice.filter(2.0 * a - 0.5 * b)
    assert np.allclose(combined,
                       2.0 * lattice.filter(a) - 0.5 * lattice.filter(b),
                       atol=1e-9)


def test_filter_wide_bandwidth_approaches_sum():
    feats = grid_coordinates((4, 4)) / 1000.0
    lattice = PermutohedralLattice(feats)
    values = np.arange(16, dtype=np.float64)
    out = lattice.filter(values)
    assert np.allclose(out, values.sum(), rtol=0.01)


def test_filter_deterministic():
    feats = grid_coordinates((7, 7))
    values = np.linspace(0.0, 1.0, 49)
    a = PermutohedralLattice(feats).filter(values)
    b = PermutohedralLattice(feats).filter(values)
    assert np.array_equal(a, b)


def test_rejects_bad_values_shape():
    lattice = PermutohedralLattice(grid_coordinates((3, 3)))
    with pytest.raises(ValueError):
        lattice.filter(np.ones(5))


def test_rejects_features_that_are_not_2d():
    for features in (np.zeros(4), np.zeros((2, 2, 2))):
        with pytest.raises(ValueError, match=r"\(N, d\) array"):
            PermutohedralLattice(features)


@pytest.mark.parametrize("features", [grid_coordinates((4, 4)) / 1e-17,
                                      np.array([[0.0], [1e16]])])
def test_rejects_coordinates_too_far_apart_to_encode(features):
    with pytest.raises(ValueError, match="lattice key range too large"):
        PermutohedralLattice(features)


def test_filter_columns_are_independent_bitwise():
    lattice = PermutohedralLattice(grid_coordinates((20, 24)) / 2.0)
    values = np.random.default_rng(2).random((480, 96))
    out = lattice.filter(values)
    for k in range(96):
        assert np.array_equal(out[:, k], lattice.filter(values[:, [k]])[:, 0])
        assert np.array_equal(out[:, k], lattice.filter(values[:, k]))


def test_filter_many_channels_matches_exact():
    feats = grid_coordinates((12, 10)) / 1.5
    values = np.random.default_rng(3).random((120, 64))
    got = PermutohedralLattice(feats).filter(values)
    want = exact_gauss(feats, values)
    assert np.abs(got - want).max() / np.abs(want).max() < 0.02


def grow_all_rings(seeds, off_codes, rings):
    vertices = seeds
    for _ in range(rings):
        vertices = np.unique(np.concatenate(
            [vertices] + [vertices + c for c in off_codes]
            + [vertices - c for c in off_codes]))
    return vertices


@pytest.mark.parametrize("features", [
    grid_coordinates((9, 7)) / 2.0,
    np.random.default_rng(4).normal(0.0, 2.0, (60, 3)),
])
def test_frontier_growth_matches_all_rings_growth(features, monkeypatch):
    calls = []
    grow = lattice_module._grow

    def recording_grow(seeds, off_codes, rings):
        vertices = grow(seeds, off_codes, rings)
        calls.append((seeds, off_codes, rings, vertices))
        return vertices

    monkeypatch.setattr(lattice_module, "_grow", recording_grow)
    lattice = PermutohedralLattice(features)
    (seeds, off_codes, rings, vertices), = calls
    assert rings == lattice_module.N_BLUR - 1
    assert np.array_equal(vertices, grow_all_rings(seeds, off_codes, rings))
    assert lattice.n_lattice == len(vertices)


def bfs_grow(seeds, off_codes, rings):
    """Every code within `rings` steps of the seeds, by a plain set BFS."""
    steps = [int(c) for c in off_codes] + [-int(c) for c in off_codes]
    grown = frontier = {int(c) for c in seeds}
    for _ in range(rings):
        frontier = {c + s for c in frontier for s in steps} - grown
        grown = grown | frontier
    return np.array(sorted(grown), dtype=np.int64)


def lattice_steps(d, span):
    """The d + 1 lattice axis step codes of a box of side `span`."""
    strides = span ** np.arange(d - 1, -1, -1, dtype=np.int64)
    offsets = np.ones((d + 1, d), dtype=np.int64)
    offsets[np.arange(d), np.arange(d)] = -d
    return offsets @ strides


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("rings", [0, 1, 2, 3])
def test_grow_equals_a_set_bfs(d, rings):
    span = 64
    rng = np.random.default_rng(10 * d + rings)
    keys = rng.integers(20, 44, size=(25, d))  # repeats and near neighbours
    seeds = np.unique(keys @ (span ** np.arange(d - 1, -1, -1)))
    off_codes = lattice_steps(d, span)
    grown = lattice_module._grow(seeds, off_codes, rings)
    assert grown.dtype == np.int64
    assert np.array_equal(grown, bfs_grow(seeds, off_codes, rings))


def test_distinct_equals_unique():
    for codes in (np.array([], dtype=np.int64), np.array([5]),
                  np.random.default_rng(1).integers(-9, 9, 200)):
        assert np.array_equal(lattice_module._distinct(codes),
                              np.unique(codes))


def previous_grow(seeds, off_codes, rings):
    """The ring growth the builder used before sorted merging."""
    steps = np.concatenate([off_codes, -off_codes])
    grown = [seeds]
    previous, ring = seeds[:0], seeds
    for _ in range(rings):
        nxt = np.unique((ring[:, None] + steps).ravel())
        nxt = nxt[~np.isin(nxt, ring) & ~np.isin(nxt, previous)]
        previous, ring = ring, nxt
        grown.append(ring)
    return np.sort(np.concatenate(grown))


def previous_blur_matrix(vertices, off, budget):
    """The blur matrix the builder made with two binary searches."""
    from scipy import sparse

    n_lattice = len(vertices)
    cols = [np.arange(n_lattice)]
    for shifted in (vertices + off, vertices - off):
        pos = np.minimum(np.searchsorted(vertices, shifted), n_lattice - 1)
        cols.append(np.where(vertices[pos] == shifted, pos, -1))
    cols = np.stack(cols, axis=1)
    found = cols >= 0
    weights = np.broadcast_to([0.5, 0.25, 0.25], cols.shape)[found]
    indptr = np.concatenate([[0], np.cumsum(found.sum(axis=1))])
    return sparse.csr_matrix((weights, cols[found], indptr),
                             shape=(n_lattice, n_lattice))


@pytest.mark.parametrize("features", [
    grid_coordinates((9, 7)) / 1.5,
    grid_coordinates((5, 4, 6)) / 0.8,
    np.random.default_rng(4).normal(0.0, 2.0, (60, 3)),
])
def test_builder_equals_the_previous_builder(features, monkeypatch):
    lattice = PermutohedralLattice(features)
    monkeypatch.setattr(lattice_module, "_distinct", np.unique)
    monkeypatch.setattr(lattice_module, "_grow", previous_grow)
    monkeypatch.setattr(lattice_module, "_blur_matrix", previous_blur_matrix)
    previous = PermutohedralLattice(features)
    assert lattice.n_lattice == previous.n_lattice
    assert lattice.gain == previous.gain
    assert np.array_equal(lattice.row_mass, previous.row_mass)
    pairs = [(lattice._slice, previous._slice),
             (lattice._splat, previous._splat),
             *zip(lattice._blur, previous._blur, strict=True)]
    for got, want in pairs:
        for part in ("data", "indices", "indptr"):
            a, b = getattr(got, part), getattr(want, part)
            assert a.dtype == b.dtype and np.array_equal(a, b)


def as_scipy(operator):
    """scipy's CSR matrix over one of the lattice's operators' arrays."""
    from scipy import sparse

    return sparse.csr_matrix(
        (operator.data, operator.indices, operator.indptr),
        shape=operator.shape)


def scipy_filter(lattice, values):
    """The filter as a chain of scipy's own sparse products."""
    x = as_scipy(lattice._splat) @ values
    for _ in range(lattice_module.N_BLUR):
        for blur in lattice._blur:
            x = as_scipy(blur) @ x
    return lattice.gain * (as_scipy(lattice._slice) @ x)


# a regular grid, whose rings make L > N, and dense random points, L < N
LATTICES = {"grid": lambda: grid_coordinates((9, 8)) / 2.0,
            "dense": lambda: np.random.default_rng(0).random((1000, 2)) * 0.3,
            "grid 3-D": lambda: grid_coordinates((5, 4, 6)) / 0.8}


@pytest.mark.parametrize("points", sorted(LATTICES))
def test_operators_are_the_arrays_scipy_made(points):
    """The operators hold the arrays and index dtypes that scipy's
    csr_matrix over the builder's int64 arrays, and the slice's
    .T.tocsr(), hold; sparsetools checks no bounds, so they must also
    pass scipy's full format check."""
    from scipy import sparse

    lattice = PermutohedralLattice(LATTICES[points]())
    assert (lattice.n_lattice < lattice.n_points) == (points == "dense")
    n, d = lattice.n_points, lattice.d
    want_slice = sparse.csr_matrix(
        (lattice._slice.data, lattice._slice.indices.astype(np.int64),
         np.arange(0, n * (d + 1) + 1, d + 1)),
        shape=(n, lattice.n_lattice))
    pairs = [(lattice._slice, want_slice),
             (lattice._splat, want_slice.T.tocsr())]
    for blur in lattice._blur:
        pairs.append((blur, sparse.csr_matrix(
            (blur.data, blur.indices.astype(np.int64),
             blur.indptr.astype(np.int64)), shape=blur.shape)))
    for got, want in pairs:
        want.check_format(full_check=True)
        assert got.shape == want.shape
        for part in ("data", "indices", "indptr"):
            a, b = getattr(got, part), getattr(want, part)
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert got.indices.dtype == np.int32


@pytest.mark.parametrize("points", sorted(LATTICES))
@pytest.mark.parametrize("columns", [None, 1, 2, 32])
def test_buffered_products_equal_scipys(points, columns):
    """The private sparsetools calls give scipy's own products bitwise,
    write nothing past their output, and ignore what the buffer held."""
    lattice = PermutohedralLattice(LATTICES[points]())
    tail = () if columns is None else (columns,)
    c = 1 if columns is None else columns
    rng = np.random.default_rng(c)
    for matrix in [lattice._splat, *lattice._blur, lattice._slice]:
        x = rng.normal(size=(matrix.shape[1], *tail))
        rows = matrix.shape[0]
        buffer = np.full(rows * c + 5, np.nan)
        got = lattice_module._product(lattice_module._sparsetools(), matrix,
                                      c, x.reshape(-1), buffer[:rows * c])
        want = as_scipy(matrix) @ x
        assert want.shape == (rows, *tail)
        assert got.tobytes() == want.tobytes()
        assert np.isnan(buffer[rows * c:]).all()
    values = rng.normal(size=(lattice.n_points, *tail))
    size = max(lattice.n_lattice, lattice.n_points) * c
    buffers = (np.full(size, np.nan), np.full(size, np.nan))
    want = scipy_filter(lattice, values)
    for got in (lattice.filter(values), lattice.filter(values, buffers)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # values may be a view of the first buffer: the splat reads it first
    inside = buffers[0][:values.size].reshape(values.shape)
    inside[...] = values
    got = lattice.filter(inside, buffers)
    assert got.tobytes() == want.tobytes()


def record_routines(monkeypatch):
    """The name of every sparsetools routine the lattice calls, in order."""
    calls = []
    loaded = lattice_module._sparsetools()

    class Recorder:
        def __getattr__(self, name):
            calls.append(name)
            return getattr(loaded, name)

    monkeypatch.setattr(lattice_module, "_sparsetools", Recorder)
    return calls


@pytest.mark.parametrize("scale, large", [(2.0, True), (1.5, False)])
@pytest.mark.parametrize("columns, routine", [
    (None, "csr_matvec"), (1, "csr_matvec"), (2, "csr_matvec"),
    (3, "csr_matvecs"), (32, "csr_matvecs")])
def test_filter_runs_vectors_for_one_or_two_channels(monkeypatch, scale,
                                                     large, columns, routine):
    """One or two channels run scipy's single-vector product, whatever
    the lattice's size; three or more run its product over columns."""
    dims = (9, 8) if large else (3, 4)
    lattice = PermutohedralLattice(grid_coordinates(dims) / scale)
    assert (lattice.n_lattice >= 1024) == large
    calls = record_routines(monkeypatch)
    tail = () if columns is None else (columns,)
    lattice.filter(np.ones((lattice.n_points, *tail)))
    chains = 1 if routine == "csr_matvecs" else columns or 1
    assert calls == [routine] * chains * (2 + lattice_module.N_BLUR
                                          * len(lattice._blur))


def test_filter_rejects_buffers_it_could_overrun():
    lattice = PermutohedralLattice(grid_coordinates((9, 8)) / 2.0)
    values = np.ones((72, 2))
    size = 2 * lattice.n_lattice
    good = np.empty(size)
    for bad in [(np.empty(size - 1), good), (good, np.empty(size - 1)),
                (np.empty(size, dtype=np.float32), good),
                (np.empty(2 * size)[::2], good),
                (np.empty((size, 1)), good)]:
        with pytest.raises(ValueError, match="buffers"):
            lattice.filter(values, bad)
    with pytest.raises(ValueError, match="second buffer"):
        lattice.filter(good[:144].reshape(72, 2), (np.empty(size), good))


def run_fresh(code):
    """Run code in a new interpreter that imports the package from src;
    returns its standard output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(__file__).resolve().parent.parent / "src"),
        env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_lattice_run_loads_no_scipy_package():
    """A lattice solve loads scipy's sparsetools extension alone, and a
    later import of scipy.sparse reuses it and still multiplies right."""
    out = run_fresh("""
import sys
import numpy as np
import perturbmpm as pm
model = pm.build_grid_model((12, 10), 3,
                            np.random.default_rng(0).random((120, 3)),
                            [(0.5, 2.0)])
pm.MeanField(model, pm.InferenceConfig(backend="lattice")).infer(
    model.unary[None])
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
loaded = sys.modules["scipy.sparse._sparsetools"]
import scipy.sparse
from scipy.sparse import _sparsetools
assert _sparsetools is loaded
a = np.random.default_rng(1).normal(size=(40, 30))
a[a < 0.5] = 0.0
x = np.random.default_rng(2).normal(size=(30, 3))
matrix = scipy.sparse.csr_matrix(a)
assert np.allclose(matrix @ x, a @ x, rtol=0, atol=1e-12)
assert np.allclose(matrix @ x[:, 0], a @ x[:, 0], rtol=0, atol=1e-12)
assert np.allclose((matrix.T @ matrix).toarray(), a.T @ a, rtol=0, atol=1e-12)
""")
    assert out == "['scipy.sparse._sparsetools']"


def test_loader_reuses_the_extension_scipy_sparse_loaded():
    assert run_fresh("""
import scipy.sparse
from scipy.sparse import _sparsetools
from perturbmpm import lattice
print(lattice._sparsetools() is _sparsetools)
""") == "True"


def test_loader_names_the_extension_it_cannot_find(monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.sparse._sparsetools",
                        raising=False)
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    with pytest.raises(ImportError, match=r"scipy\.sparse\._sparsetools"):
        lattice_module._sparsetools()


@pytest.mark.parametrize("dims", [(4,) * 5, (3,) * 6])
def test_lattice_over_the_blur_guard_exits_3_early(tmp_path, capsys, dims):
    """Unit-bandwidth grids in 5 and 6 dimensions grow millions of
    vertices; the ring growth stops well before gigabytes."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"dims = {' '.join(map(str, dims))}\nlabels = 2\n"
                   f"kernel = 1.0{' 1' * len(dims)}\nbackend = lattice\n")
    tracemalloc.start()
    try:
        code = main(["infer", "--model", str(cfg),
                     "--out", str(tmp_path / "q.pmt")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "blur operators" in capsys.readouterr().err
    assert peak < 600 << 20
    assert not (tmp_path / "q.pmt").exists()


def test_blur_guard_counts_every_axis_before_allocating(monkeypatch):
    features = grid_coordinates((9, 7)) / 2.0
    n_lattice = PermutohedralLattice(features).n_lattice
    entries = sum(b.data.size for b in PermutohedralLattice(features)._blur)
    # the rings alone stay under a guard of the blurs' exact entry count
    monkeypatch.setattr(lattice_module, "MAX_MATRIX_VALUES", entries)
    PermutohedralLattice(features)
    monkeypatch.setattr(lattice_module, "MAX_MATRIX_VALUES", entries - 1)
    with pytest.raises(CapacityError, match=f"{n_lattice} vertices"):
        PermutohedralLattice(features)


@pytest.mark.parametrize("shape, sigma, vertices", [
    ((64, 64), 3.0, 8307), ((32, 32, 32), 3.0, 146146)])
def test_lattices_under_the_blur_guard_build(shape, sigma, vertices):
    lattice = PermutohedralLattice(grid_coordinates(shape) / sigma)
    assert lattice.n_lattice == vertices
    assert sum(b.data.size for b in lattice._blur) \
        <= lattice_module.MAX_MATRIX_VALUES
