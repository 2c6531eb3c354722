import numpy as np
import pytest

from perturbmpm import PermutohedralLattice, grid_coordinates
from perturbmpm import lattice as lattice_module


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


def previous_blur_matrix(vertices, off):
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


def scipy_filter(lattice, values):
    """The filter as a chain of scipy's own sparse products."""
    x = lattice._splat @ values
    for _ in range(lattice_module.N_BLUR):
        for blur in lattice._blur:
            x = blur @ x
    return lattice.gain * (lattice._slice @ x)


# a regular grid, whose rings make L > N, and dense random points, L < N
LATTICES = {"grid": lambda: grid_coordinates((9, 8)) / 2.0,
            "dense": lambda: np.random.default_rng(0).random((1000, 2)) * 0.3}


@pytest.mark.parametrize("points", sorted(LATTICES))
@pytest.mark.parametrize("columns", [None, 1, 2, 32])
def test_buffered_products_equal_scipys(points, columns):
    """The private sparsetools calls give scipy's own products bitwise,
    write nothing past their output, and ignore what the buffer held."""
    from scipy.sparse import _sparsetools

    lattice = PermutohedralLattice(LATTICES[points]())
    assert (lattice.n_lattice < lattice.n_points) == (points == "dense")
    tail = () if columns is None else (columns,)
    c = 1 if columns is None else columns
    rng = np.random.default_rng(c)
    for matrix in [lattice._splat, *lattice._blur, lattice._slice]:
        x = rng.normal(size=(matrix.shape[1], *tail))
        rows = matrix.shape[0]
        buffer = np.full(rows * c + 5, np.nan)
        got = lattice_module._product(_sparsetools, matrix, c, x.reshape(-1),
                                      buffer[:rows * c])
        want = matrix @ x
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
