import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import perturbmpm.gumbel as gumbel
from perturbmpm import cli
from perturbmpm.gumbel import check_seed
from perturbmpm import (EULER_GAMMA, InferenceConfig, MeanField,
                        ModelShapeError, SampleSet, SamplingConfig,
                        build_grid_model, empirical_marginals,
                        enumerate_gibbs, gumbel_max_select_many,
                        iteration_noise, mean_field_infer, mpm_decode,
                        perturb_and_map_full_order_many,
                        perturb_and_map_order1_many, perturb_and_mpm)
from perturbmpm.evaluation import random_grid_model


def test_gumbel_moments():
    g = iteration_noise(0, 0, 200_000)
    # shifted draws have mean 0 and variance pi^2 / 6
    assert abs(g.mean()) < 0.01
    assert abs(g.var() - np.pi ** 2 / 6.0) < 0.02


def test_sampler_reproducible():
    a = iteration_noise(42, 0, (3, 4))
    b = iteration_noise(42, 0, (3, 4))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, iteration_noise(43, 0, (3, 4)))


def test_iteration_noise_streams_independent_of_order():
    shapes = [(2, 3)] * 4
    forward = [iteration_noise(7, t, s) for t, s in enumerate(shapes)]
    backward = [iteration_noise(7, t, shapes[t])
                for t in reversed(range(4))][::-1]
    for f, b in zip(forward, backward):
        assert np.array_equal(f, b)
    assert not np.array_equal(forward[0], forward[1])


def test_select_matches_softmax():
    theta = -np.log(np.array([0.6, 0.3, 0.1]))
    draws = gumbel_max_select_many(theta, 1, 100_000)
    freqs = np.bincount(draws, minlength=3) / len(draws)
    assert np.abs(freqs - [0.6, 0.3, 0.1]).max() < 0.01


def test_select_single_draw_range():
    theta = np.array([0.5, 0.1])
    labels = {gumbel_max_select_many(theta, s, 1)[0] for s in range(20)}
    assert labels <= {0, 1}
    assert len(labels) == 2


def test_select_many_bitwise_across_budgets(monkeypatch):
    theta = np.random.default_rng(6).random(7)
    reference = gumbel_max_select_many(theta, 4, 1000)
    for budget in (1, 7 * 3, 7 * 100 + 5):
        monkeypatch.setattr(gumbel, "_BATCH_VALUES", budget)
        assert np.array_equal(gumbel_max_select_many(theta, 4, 1000),
                              reference)


def test_select_rejects_bad_theta():
    with pytest.raises(ValueError):
        gumbel_max_select_many(np.array([[1.0, 2.0]]), 0, 1)
    with pytest.raises(ValueError):
        gumbel_max_select_many(np.array([np.nan, 0.0]), 0, 1)


def test_perturb_unaries_leaves_input_unchanged():
    unary = np.random.default_rng(1).random((4, 3))
    model = build_grid_model((4,), 3, unary)
    perturbed = model.with_unary(model.unary - iteration_noise(5, 0, (4, 3)))
    assert np.array_equal(model.unary, unary)
    assert not np.array_equal(perturbed.unary, unary)


def test_sample_set_validation_and_prefix():
    s = SampleSet(np.array([[0, 1], [1, 1], [0, 0]]), 2)
    assert len(s) == 3
    assert s.n_voxels == 2
    assert len(s.prefix(2)) == 2
    with pytest.raises(ModelShapeError):
        SampleSet(np.array([[0, 2]]), 2)
    with pytest.raises(ModelShapeError):
        SampleSet(np.array([0, 1]), 2)


def test_sample_set_prefix_takes_only_counts_it_holds():
    s = SampleSet(np.array([[0, 1], [1, 1], [0, 0]]), 2)
    assert len(s.prefix(0)) == 0
    assert np.array_equal(s.prefix(3).labels, s.labels)
    for count in (-1, -3, 4, True, 2.0):
        with pytest.raises(ValueError, match="prefix count"):
            s.prefix(count)


def test_sample_set_copies_only_labels_someone_can_write(monkeypatch):
    held = np.array([[0, 1], [1, 0]])
    s = SampleSet(held, 2)
    held[0, 0] = 1
    assert s.labels[0, 0] == 0
    # a read-only view of an array its caller can still write is copied
    view = held.view()
    view.setflags(write=False)
    s = SampleSet(view, 2)
    held[1, 1] = 1
    assert s.labels[1, 1] == 0
    frozen = np.array([[0, 1], [1, 0]])
    frozen.setflags(write=False)
    assert SampleSet(frozen, 2).labels is frozen
    assert SampleSet(frozen, 2).prefix(1).labels.base is frozen
    # perturb_and_mpm hands its own label array over
    given = []

    def recording(labels, n_labels):
        given.append(labels)
        return SampleSet(labels, n_labels)

    monkeypatch.setattr(gumbel, "SampleSet", recording)
    run = perturb_and_mpm(build_grid_model((4,), 2, np.zeros((4, 2))),
                          SamplingConfig(5))
    assert run.labels is given[0]


def test_perturb_and_mpm_shapes_and_determinism():
    model = build_grid_model((4,), 2,
                             np.random.default_rng(2).random((4, 2)),
                             [(1.0, 1.0)])
    cfg = SamplingConfig(50, seed=3)
    a = perturb_and_mpm(model, cfg)
    b = perturb_and_mpm(model, cfg)
    assert a.labels.shape == (50, 4)
    assert np.array_equal(a.labels, b.labels)
    c = perturb_and_mpm(model, cfg, batch_size=7)
    assert np.array_equal(a.labels, c.labels)


def test_perturb_and_mpm_matches_manual_iteration():
    model = build_grid_model((3,), 2,
                             np.random.default_rng(4).random((3, 2)),
                             [(0.5, 1.0)])
    cfg = SamplingConfig(5, seed=11)
    run = perturb_and_mpm(model, cfg)
    for t in range(5):
        noise = iteration_noise(11, t, (3, 2))
        q, _ = mean_field_infer(model.with_unary(model.unary - noise),
                                cfg.inference)
        assert np.array_equal(run.labels[t], mpm_decode(q))


def test_empirical_marginals_counts():
    s = SampleSet(np.array([[0, 1], [0, 0], [1, 1], [0, 1]]), 2)
    f = empirical_marginals(s)
    assert np.allclose(f, [[0.75, 0.25], [0.25, 0.75]])
    with pytest.raises(ValueError):
        empirical_marginals(SampleSet(np.empty((0, 2), dtype=int), 2))


def test_sampling_config_validation():
    with pytest.raises(ValueError):
        SamplingConfig(0)


def test_sampling_config_rejects_seeds_outside_philox_keys():
    SamplingConfig(1, seed=2 ** 64 - 1)
    for seed in (-1, 2 ** 64, 1.5):
        with pytest.raises(ValueError, match="seed"):
            SamplingConfig(1, seed=seed)


def test_draw_t_is_philox_counter_block_t():
    # 3 x 3 = 9 uniforms take ceil(9 / 4) = 3 counter steps of four words
    words = np.random.Generator(np.random.Philox(key=5)).random(4 * 3 * 4)
    for t in range(4):
        u = words[12 * t:12 * t + 9].reshape(3, 3)
        expected = -np.log(-np.log(u)) - EULER_GAMMA
        assert np.array_equal(iteration_noise(5, t, (3, 3)), expected)


def test_iteration_noise_is_the_samplers_noise():
    from perturbmpm.gumbel import _noise

    block = _noise(13, 0, 50, (5, 3))
    for t in (0, 1, 17, 49):
        assert np.array_equal(iteration_noise(13, t, (5, 3)), block[t])
    assert np.array_equal(_noise(13, 17, 50, (5, 3)), block[17:])


@pytest.mark.parametrize("shape", [(4096, 3), (4095, 3)])
def test_noise_is_computed_in_the_uniforms_buffer(shape):
    u = gumbel._uniforms(3, 5, 9, shape)
    expected = -np.log(-np.log(np.clip(
        u, gumbel._UNIFORM_CLAMP, 1.0 - gumbel._UNIFORM_CLAMP))) - EULER_GAMMA
    tracemalloc.start()
    try:
        g = gumbel._noise(3, 5, 9, shape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(g, expected)
    # the uniforms' one buffer, at most 3 padding words a draw over g
    assert peak < g.nbytes + 4 * 8 * len(g) + 4096


def test_perturb_and_mpm_bitwise_across_batch_sizes():
    model = build_grid_model((2, 3), 3,
                             np.random.default_rng(5).random((6, 3)),
                             [(1.0, 1.0)])
    cfg = SamplingConfig(2100, seed=21)
    reference = perturb_and_mpm(model, cfg).labels
    for batch_size in (1, 7, 700):
        run = perturb_and_mpm(model, cfg, batch_size=batch_size)
        assert np.array_equal(run.labels, reference)


@pytest.mark.parametrize("batch_size", [0, -1, True, False, 2.0, "8", None])
def test_perturb_and_mpm_rejects_bad_batch_sizes(batch_size):
    model = build_grid_model((2, 3), 3, np.zeros((6, 3)), [(1.0, 1.0)])
    with pytest.raises(ValueError, match="batch_size"):
        perturb_and_mpm(model, SamplingConfig(5), batch_size=batch_size)


def test_perturb_and_mpm_takes_numpy_integer_batch_sizes():
    model = build_grid_model((2, 3), 3, np.zeros((6, 3)), [(1.0, 1.0)])
    cfg = SamplingConfig(5, seed=3)
    assert np.array_equal(perturb_and_mpm(model, cfg, np.int64(2)).labels,
                          perturb_and_mpm(model, cfg).labels)


@pytest.mark.parametrize("make, name", [
    (lambda: InferenceConfig(convergence_tol=float("nan")), "convergence_tol"),
    (lambda: InferenceConfig(convergence_tol=float("inf")), "convergence_tol"),
    (lambda: InferenceConfig(max_iterations=2.5), "max_iterations"),
    (lambda: InferenceConfig(max_iterations=10.0), "max_iterations"),
    (lambda: SamplingConfig(n_samples=2.5), "n_samples"),
])
def test_library_configs_reject_what_config_files_reject(make, name):
    with pytest.raises(ValueError, match=name):
        make()


# Arrays of a batch's size (noise, unaries, marginals, messages, lattice
# channels) that sampling holds at once: about six were measured.
_LIVE_ARRAYS = 8


@pytest.mark.parametrize("backend", ["exact", "lattice"])
def test_sampling_peak_is_bounded_by_the_batch_budget(monkeypatch, backend):
    model = build_grid_model((64, 64), 3,
                             np.random.default_rng(0).random((4096, 3)),
                             [(3.0, 3.0)])
    cfg = SamplingConfig(24, seed=1,
                         inference=InferenceConfig(backend=backend))
    monkeypatch.setattr(gumbel, "_BATCH_VALUES", 1 << 17)
    # the budget splits the 24 samples into batches of 10 or 3
    per_batch = gumbel._BATCH_VALUES // MeanField(
        model, cfg.inference).sample_values
    assert 1 < per_batch < 24
    tracemalloc.start()
    try:
        run = perturb_and_mpm(model, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _LIVE_ARRAYS * 8 * gumbel._BATCH_VALUES + run.labels.nbytes
    assert np.array_equal(run.labels,
                          perturb_and_mpm(model, cfg, batch_size=1).labels)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                    reason="no affinity mask on this platform")
def test_workers_are_the_affinity_mask():
    assert gumbel._workers() == len(os.sched_getaffinity(0))


def _force_split(monkeypatch, workers):
    """Every perturb_and_mpm call whose budget fits a sample per worker
    runs its batches on `workers` threads."""
    monkeypatch.setattr(gumbel, "_SPLIT_VALUES", 0)
    monkeypatch.setattr(gumbel, "_workers", lambda: workers)


def test_split_gate(monkeypatch):
    calls = []

    def serial(run, starts, workers):
        calls.append(workers)
        for start in starts:
            run(start)

    monkeypatch.setattr(gumbel, "_drain", serial)
    monkeypatch.setattr(gumbel, "_workers", lambda: 2)
    model = build_grid_model((4,), 2, np.zeros((4, 2)))
    values = MeanField(model).sample_values
    monkeypatch.setattr(gumbel, "_SPLIT_VALUES", 10 * values)
    perturb_and_mpm(model, SamplingConfig(9))  # stacks too little
    assert calls == []
    perturb_and_mpm(model, SamplingConfig(10))
    assert calls == [2]
    monkeypatch.setattr(gumbel, "_BATCH_VALUES", values)  # one sample fits
    perturb_and_mpm(model, SamplingConfig(10))
    assert calls == [2]


_GRID = build_grid_model((3, 4), 3, np.random.default_rng(8).random((12, 3)),
                         [(1.0, 1.5)])
_CHAIN = random_grid_model(12, 4, kernel_weight=2.0)


def _mpm(backend):
    cfg = InferenceConfig(backend=backend)
    return (lambda count: perturb_and_mpm(
        _GRID, SamplingConfig(count, seed=9, inference=cfg)).labels,
        MeanField(_GRID, cfg).sample_values)


# each sampler over its draws (perturb_and_mpm by backend), and the
# values one draw adds to a batch
SAMPLERS = {
    "exact": _mpm("exact"),
    "lattice": _mpm("lattice"),
    "order1": (lambda count: perturb_and_map_order1_many(_CHAIN, 9, count),
               2 ** 12),
    "full-order": (lambda count: perturb_and_map_full_order_many(
        enumerate_gibbs(_CHAIN), 9, count), 2 ** 12),
    "select": (lambda count: gumbel_max_select_many(
        np.random.default_rng(6).random(7), 9, count), 7),
}


@pytest.mark.parametrize("sampler", SAMPLERS)
def test_threaded_sampling_is_bitwise_serial(monkeypatch, sampler):
    sample, values = SAMPLERS[sampler]
    monkeypatch.setattr(gumbel, "_workers", lambda: 1)
    monkeypatch.setattr(gumbel, "_BATCH_VALUES", values)  # a draw a batch
    reference = sample(20)
    for workers in (1, 2, 3, 24):  # 24 is more workers than draws
        _force_split(monkeypatch, workers)
        for draws in (1, 7, 20):  # a batch's draws, ceil(20 / workers) at most
            monkeypatch.setattr(gumbel, "_BATCH_VALUES",
                                draws * workers * values)
            assert np.array_equal(sample(20), reference)


def _record_batches(monkeypatch):
    """The (start, stop) of every batch perturb_and_mpm draws noise for."""
    batches = []
    noise = gumbel._noise

    def recording(seed, start, stop, shape):
        batches.append((start, stop))
        return noise(seed, start, stop, shape)

    monkeypatch.setattr(gumbel, "_noise", recording)
    return batches


def test_threads_take_every_batch_once(monkeypatch):
    _force_split(monkeypatch, 8)  # more workers than cores
    batches = _record_batches(monkeypatch)
    model = build_grid_model((4,), 2,
                             np.random.default_rng(3).random((4, 2)),
                             [(1.0, 1.0)])
    cfg = SamplingConfig(400, seed=4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run = perturb_and_mpm(model, cfg, batch_size=1)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(start for start, _ in batches) == list(range(400))
    monkeypatch.setattr(gumbel, "_workers", lambda: 1)
    assert np.array_equal(run.labels,
                          perturb_and_mpm(model, cfg, batch_size=1).labels)


def _fail_in_a_helper(monkeypatch, exc):
    """Make the batches helper threads decode raise exc.  The calling
    thread's batches wait until one has, so a helper always gets one."""
    raised = threading.Event()
    decode = gumbel.mpm_decode

    def failing(q):
        if threading.current_thread() is threading.main_thread():
            raised.wait(timeout=60)
            return decode(q)
        raised.set()
        raise exc

    _force_split(monkeypatch, 2)
    monkeypatch.setattr(gumbel, "mpm_decode", failing)
    return raised


def test_helper_exception_reaches_the_caller(monkeypatch):
    raised = _fail_in_a_helper(monkeypatch, RuntimeError("in a helper"))
    model = build_grid_model((4,), 2, np.zeros((4, 2)))
    with pytest.raises(RuntimeError, match="in a helper"):
        perturb_and_mpm(model, SamplingConfig(6), batch_size=1)
    assert raised.is_set()


def test_sample_maps_a_helpers_memory_error_to_exit_3(monkeypatch, tmp_path):
    raised = _fail_in_a_helper(monkeypatch, MemoryError())
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dims = 4 4\nlabels = 2\nkernel = 1.0 1.0\n"
                   "samples = 30\nseed = 3\n")
    out = tmp_path / "s.pmt"
    assert cli.main(["sample", "--model", str(cfg), "--out", str(out)]) == 3
    assert raised.is_set()
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("backend", ["exact", "lattice"])
def test_split_sampling_peak_is_bounded_by_the_batch_budget(monkeypatch,
                                                            backend):
    model = build_grid_model((64, 64), 3,
                             np.random.default_rng(0).random((4096, 3)),
                             [(3.0, 3.0)])
    cfg = SamplingConfig(24, seed=1,
                         inference=InferenceConfig(backend=backend))
    monkeypatch.setattr(gumbel, "_BATCH_VALUES", 1 << 17)
    _force_split(monkeypatch, 2)
    per_batch = gumbel._BATCH_VALUES // MeanField(
        model, cfg.inference).sample_values
    assert 2 <= per_batch < 24
    batches = _record_batches(monkeypatch)
    tracemalloc.start()
    try:
        run = perturb_and_mpm(model, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the two batches in flight share the one budget
    assert max(stop - start for start, stop in batches) == per_batch // 2
    assert peak <= _LIVE_ARRAYS * 8 * gumbel._BATCH_VALUES + run.labels.nbytes
    monkeypatch.setattr(gumbel, "_workers", lambda: 1)
    assert np.array_equal(run.labels,
                          perturb_and_mpm(model, cfg, batch_size=1).labels)


# each entry point taking a seed, over that seed and its count or draw
_SEEDED = {
    "select": (lambda seed, count: gumbel_max_select_many(
        np.zeros(2), seed, count), "count"),
    "full-order": (lambda seed, count: perturb_and_map_full_order_many(
        enumerate_gibbs(random_grid_model(3, 0)), seed, count), "count"),
    "order1": (lambda seed, count: perturb_and_map_order1_many(
        random_grid_model(3, 0), seed, count), "count"),
    "noise": (lambda seed, t: iteration_noise(seed, t, 3), "t"),
}


@pytest.mark.parametrize("entry", _SEEDED)
@pytest.mark.parametrize("seed, count, bad", [
    (1.5, 1, "seed"), (True, 1, "seed"), (-1, 1, "seed"),
    (2 ** 64, 1, "seed"), (0, 2.5, "count"), (0, True, "count"),
    (0, -1, "count")])
def test_samplers_check_their_seed_and_count(entry, seed, count, bad):
    sample, count_name = _SEEDED[entry]
    name = count_name if bad == "count" else "seed"
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        sample(seed, count)


def test_configs_reject_bools_as_integers():
    with pytest.raises(ValueError, match="n_samples"):
        SamplingConfig(True)
    with pytest.raises(ValueError, match="seed"):
        SamplingConfig(1, seed=True)
    with pytest.raises(ValueError, match="seed"):
        check_seed(False)
