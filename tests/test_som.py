import dataclasses
import gc
import hashlib
import json
import math
import re
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import somblocks as sb
from somblocks import som
from somblocks.som import PeStats, SomError, _train_weights, map_to_json

from conftest import fixture_path, make_map, map_cells, random_map


def flat_dataset(v, n):
    return sb.Dataset(samples=np.tile(np.asarray(v, dtype=float), (n, 1)),
                      labels=None, attribute_names=[f"a{i}" for i in range(len(v))])


def test_identical_samples_fixed_point():
    ds = flat_dataset([1.0, 2.0, 3.0], 10)
    m = sb.train(ds, sb.SomConfig(rows=2, cols=2, epochs=40, seed=3))
    winner = m.counts[m.counts > 0]
    assert len(winner) == 1 and winner[0] == 10
    # every cell that was ever updated converged onto the sample value
    updated = [w for w in m.weights if np.linalg.norm(w - ds.samples[0]) < 2.0]
    for w in updated:
        assert np.linalg.norm(w - ds.samples[0]) < 1e-6
    assert sb.quantization_error(m, ds) < 1e-6


def test_training_is_deterministic():
    rng = np.random.default_rng(0)
    ds = sb.Dataset(samples=rng.normal(0, 1, size=(40, 3)), labels=None,
                    attribute_names=["a", "b", "c"])
    cfg = sb.SomConfig(rows=3, cols=3, epochs=30, seed=99)
    assert sb.train(ds, cfg) == sb.train(ds, cfg)


def kmeans_oracle(samples, k, iters=200):
    """Plain Lloyd's iteration, seeded from the first k distinct samples."""
    centers = samples[:k].copy()
    for _ in range(iters):
        d = ((samples[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = d.argmin(axis=1)
        new = np.stack([samples[assign == i].mean(axis=0) for i in range(k)])
        if np.allclose(new, centers):
            break
        centers = new
    return assign


def test_two_clusters_match_two_means_oracle():
    rng = np.random.default_rng(1)
    a = rng.normal(0, 0.2, size=(25, 2))
    b = rng.normal(50, 0.2, size=(25, 2))
    samples = np.vstack([a, b])
    ds = sb.Dataset(samples=samples, labels=None, attribute_names=["x", "y"])
    m = sb.train(ds, sb.SomConfig(rows=1, cols=2, epochs=60, seed=5))
    som_groups = {frozenset(pe.member_ids) for pe in map_cells(m) if pe.n > 0}
    assign = kmeans_oracle(samples, 2)
    km_groups = {frozenset(np.nonzero(assign == i)[0].tolist()) for i in range(2)}
    assert som_groups == km_groups


def test_quantization_error_properties(iris):
    cfg = sb.SomConfig(rows=5, cols=5, seed=1)
    trained = sb.train(iris, cfg)
    initial = sb.initialize(iris, cfg)
    qe_t, qe_i = sb.quantization_error(trained, iris), sb.quantization_error(initial, iris)
    assert qe_t >= 0 and qe_i >= 0
    assert qe_t < qe_i
    with pytest.raises(SomError, match="^map has 4 attributes, data has 3$"):
        bad = sb.Dataset(samples=iris.samples[:, :3], labels=None,
                         attribute_names=iris.attribute_names[:3])
        sb.quantization_error(trained, bad)
    with pytest.raises(SomError, match="^map holds 150 samples, data has 100$"):
        sb.quantization_error(trained, sb.Dataset(samples=iris.samples[:100], labels=None,
                                                  attribute_names=iris.attribute_names))


def test_member_lists_partition_the_dataset(iris):
    m = sb.train(iris, sb.SomConfig(rows=4, cols=4, epochs=40, seed=7))
    seen = [i for pe in map_cells(m) for i in pe.member_ids]
    assert sorted(seen) == list(range(iris.n_samples))
    assert m.n_samples == iris.n_samples


def reference_plain_som(samples, cfg):
    """Loop-by-loop SOM without the conscience bias (gamma = 0 oracle)."""
    rng = np.random.default_rng(cfg.seed)
    n_pes = cfg.rows * cfg.cols
    weights = samples[rng.integers(0, len(samples), size=n_pes)].astype(float).copy()
    for epoch in range(cfg.epochs):
        if cfg.epochs > 1:
            lr = cfg.lr_start + (cfg.lr_end - cfg.lr_start) * epoch / (cfg.epochs - 1)
        else:
            lr = cfg.lr_start
        hw = cfg.half_width_at(epoch)
        for idx in rng.permutation(len(samples)):
            x = samples[idx]
            d2 = ((weights - x) ** 2).sum(axis=1)
            win = int(np.argmin(d2))
            wr, wc = divmod(win, cfg.cols)
            for p in range(n_pes):
                r, c = divmod(p, cfg.cols)
                if abs(r - wr) <= hw and abs(c - wc) <= hw:
                    weights[p] = weights[p] + lr * (x - weights[p])
    return weights


def test_gamma_zero_is_plain_nearest_pe():
    rng = np.random.default_rng(2)
    samples = rng.normal(0, 1, size=(12, 2))
    ds = sb.Dataset(samples=samples, labels=None, attribute_names=["x", "y"])
    cfg = sb.SomConfig(rows=2, cols=2, epochs=3, conscience_gamma=0.0, seed=4)
    m = sb.train(ds, cfg)
    ref = reference_plain_som(samples, cfg)
    assert np.allclose(m.weights, ref, atol=1e-12)


def _reference_train(dataset, config):
    """The training loop written with plain array expressions: a boolean
    neighborhood mask and a fancy-index gather and scatter per presentation.
    Returns the trained weights and the conscience win frequencies."""
    samples = dataset.samples
    n, m = samples.shape
    n_pes = config.rows * config.cols
    rng = np.random.default_rng(config.seed)

    weights = samples[rng.integers(0, n, size=n_pes)].astype(float).copy()
    pe_r = np.arange(n_pes) // config.cols
    pe_c = np.arange(n_pes) % config.cols
    freq = np.full(n_pes, 1.0 / n_pes)
    beta, gamma = config.conscience_beta, config.conscience_gamma

    for epoch in range(config.epochs):
        if config.epochs > 1:
            lr = config.lr_start + (config.lr_end - config.lr_start) * epoch / (config.epochs - 1)
        else:
            lr = config.lr_start
        hw = config.half_width_at(epoch)
        for idx in rng.permutation(n):
            x = samples[idx]
            d2 = ((weights - x) ** 2).sum(axis=1)
            winner = int(np.argmin(d2 - gamma * (1.0 / n_pes - freq)))
            freq += beta * (-freq)
            freq[winner] += beta
            hood = (np.abs(pe_r - pe_r[winner]) <= hw) & (np.abs(pe_c - pe_c[winner]) <= hw)
            weights[hood] += lr * (x - weights[hood])
    return weights, freq


@st.composite
def training_cases(draw):
    """A dataset, a config and the chunk byte budget to train them with:
    the real one, or one that holds 0 to 16 presentations (0 means one), so
    that training crosses chunk boundaries within n <= 40 samples."""
    n = draw(st.integers(1, 40))
    M = draw(st.integers(1, 10))                # 8 and up: numpy's pairwise row sum
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples = rng.normal(0.0, draw(st.sampled_from([0.3, 1.0, 5.0])), size=(n, M))
    if draw(st.booleans()):
        samples = np.round(samples)             # repeated values: distance ties
    rows, cols = draw(st.tuples(st.integers(1, 6), st.integers(1, 7))
                      .filter(lambda shape: shape[0] * shape[1] >= 2))
    widths = sorted(draw(st.lists(st.integers(0, 9), min_size=1, max_size=4)), reverse=True)
    fracs = [0.0] + sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=len(widths) - 1,
                                         max_size=len(widths) - 1)))
    lr_start = draw(st.floats(0.01, 1.0))
    config = sb.SomConfig(
        rows=rows, cols=cols, epochs=draw(st.integers(1, 6)),
        lr_start=lr_start, lr_end=draw(st.floats(0.001, lr_start)),
        neighborhood_schedule=tuple(zip(fracs, widths)),
        conscience_beta=draw(st.sampled_from([0.0, 1e-4]) | st.floats(0.0, 0.5)),
        conscience_gamma=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 10.0)),
        seed=draw(st.integers(0, 2**64 - 1)))
    budget = draw(st.just(som._CHUNK_BYTES) | st.integers(1, 16 * 8 * rows * cols * M))
    names = [f"a{j}" for j in range(M)]
    return sb.Dataset(samples=samples, labels=None, attribute_names=names), config, budget


def _fixed_case(rows, cols, schedule, gamma=1.0, n=9, m=3, epochs=4):
    """A fixed training case, n samples of m attributes on a rows x cols map,
    trained with the real chunk byte budget."""
    samples = np.random.default_rng(rows * 10 + cols).normal(0.0, 1.0, size=(n, m))
    config = sb.SomConfig(rows=rows, cols=cols, epochs=epochs, neighborhood_schedule=schedule,
                          conscience_beta=0.05, conscience_gamma=gamma, seed=rows + cols)
    names = [f"a{j}" for j in range(m)]
    return sb.Dataset(samples=samples, labels=None, attribute_names=names), config, som._CHUNK_BYTES


# Every sample's first attribute is -0.0, and so is the first weight of
# each cell initialized from one; a cell outside the winner's square must
# keep that sign, which adding a zero step would turn to +0.0.
_SIGNED_ZEROS = (
    sb.Dataset(samples=np.array([[-0.0, 0.0], [-0.0, 0.5], [-0.0, 1.0]]), labels=None,
               attribute_names=["a0", "a1"]),
    sb.SomConfig(rows=1, cols=12, epochs=2, neighborhood_schedule=((0.0, 1),),
                 conscience_beta=0.0, seed=3),
    som._CHUNK_BYTES)

# Samples of 9 attributes on a 6x7 map fill a chunk of the real budget with
# this many presentations.
_CHUNK = som._chunk_rows(10**9, 6 * 7 * 9)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=training_cases())
@example(case=_fixed_case(1, 7, ((0.0, 0),)))
@example(case=_fixed_case(1, 7, ((0.0, 1),), gamma=2.5))
@example(case=_fixed_case(1, 7, ((0.0, 9),)))
@example(case=_fixed_case(6, 1, ((0.0, 2), (0.5, 1)), gamma=0.0))
@example(case=_fixed_case(5, 5, ((0.0, 2),)))    # centre-column boxes span full rows
@example(case=_fixed_case(6, 7, ((0.0, 1), (0.5, 0)), n=_CHUNK - 1, m=9, epochs=2))
@example(case=_fixed_case(6, 7, ((0.0, 1), (0.5, 0)), n=_CHUNK, m=9, epochs=2))
@example(case=_fixed_case(6, 7, ((0.0, 1), (0.5, 0)), n=_CHUNK + 1, m=9, epochs=2))
@example(case=_fixed_case(2, 2, ((0.0, 1),), n=3, m=som._CHUNK_BYTES // 32 + 1, epochs=2))
@example(case=_SIGNED_ZEROS)
def test_train_matches_reference_loop_bit_for_bit(case):
    dataset, config, budget = case
    with mock.patch.object(som, "_CHUNK_BYTES", budget):
        weights, freq = _train_weights(dataset, config)
    ref_weights, ref_freq = _reference_train(dataset, config)
    assert weights.tobytes() == ref_weights.tobytes()
    assert freq.tobytes() == ref_freq.tobytes()


def test_train_keeps_the_bits_of_a_wide_map(iris):
    """The 10x10 Iris map that the sweep benchmarks train, whose update
    stretches hold 10 cells a row, keeps the bits the 2-D slice update gave
    it: the sha256 of its weights, then its conscience frequencies."""
    weights, freq = _train_weights(iris, sb.SomConfig(rows=10, cols=10, seed=2))
    digest = hashlib.sha256(weights.tobytes() + freq.tobytes()).hexdigest()
    assert digest == "48cf6b66847ce8301fb20d92924e4b2b174e94ee7bc458165e06c9afd14c875e"


@pytest.mark.parametrize("row_floats", [1, 6 * 7 * 9, som._CHUNK_BYTES // 8,
                                        som._CHUNK_BYTES // 8 + 1, 10**8])
def test_chunk_stays_within_its_byte_budget_and_holds_a_sample(row_floats):
    rows = som._chunk_rows(10**9, row_floats)
    assert rows >= 1
    assert rows * row_floats * 8 <= max(som._CHUNK_BYTES, row_floats * 8)
    assert (rows + 1) * row_floats * 8 > som._CHUNK_BYTES
    assert som._chunk_rows(5, row_floats) == min(rows, 5)


def _tied_case():
    """Rounded samples of 9 attributes, so that cells tie for nearest."""
    samples = np.round(np.random.default_rng(8).normal(0.0, 1.5, size=(57, 9)))
    dataset = sb.Dataset(samples=samples, labels=None, attribute_names=[f"a{j}" for j in range(9)])
    return dataset, sb.SomConfig(rows=4, cols=6, epochs=5, seed=8)


@pytest.mark.parametrize("case", ["iris 5x5", "tied 4x6"])
def test_nearest_cells_a_sample_at_a_time_match_the_real_budget(iris, case):
    if case == "iris 5x5":
        dataset, config = iris, sb.SomConfig(rows=5, cols=5, seed=1)
    else:
        dataset, config = _tied_case()
    full = sb.train(dataset, config)
    assert som._chunk_rows(dataset.n_samples, full.weights.size) == dataset.n_samples
    with mock.patch.object(som, "_CHUNK_BYTES", 1):
        one_by_one = sb.train(dataset, config)
    assert one_by_one == full
    assert map_to_json(one_by_one) == map_to_json(full)


def _cells(view, base):
    """The cells of the (P, M) base array that a flat view of it spans."""
    start = (view.ctypes.data - base.ctypes.data) // base.itemsize
    return np.arange(start, start + view.size) // base.shape[1]


@pytest.mark.parametrize("rows, cols", [(1, 12), (5, 5), (6, 7), (2, 40)])
@pytest.mark.parametrize("hw", [0, 1, 2, 3])
def test_each_update_reads_x_minus_w_on_the_cells_it_writes(rows, cols, hw):
    m = 3
    weights, diff = np.zeros((rows * cols, m)), np.zeros((rows * cols, m))
    hoods = som._neighborhoods(weights, diff, cols, hw)
    assert len(hoods) == rows * cols
    r, c = np.divmod(np.arange(rows * cols), cols)
    for winner, (box, step, mask, x_box) in enumerate(hoods):
        wr, wc = divmod(winner, cols)
        square = (abs(r - wr) <= hw) & (abs(c - wc) <= hw)
        assert np.shares_memory(box, weights) and np.shares_memory(x_box, diff)
        cells = _cells(box, weights)
        assert _cells(x_box, diff).tolist() == cells.tolist() and x_box.shape == box.shape
        held = abs(r - wr) <= hw if hw else np.arange(rows * cols) == winner
        assert cells.tolist() == np.repeat(np.flatnonzero(held), m).tolist()
        assert step.shape == box.shape
        assert not (np.shares_memory(step, weights) or np.shares_memory(step, diff))
        if square[cells].all():
            assert mask is True
        else:
            assert mask.dtype == bool and mask.tolist() == square[cells].tolist()


def _trainable_bound(n, m):
    return math.sqrt(np.finfo(float).max / (8 * max(n, m)))


_HUGE_RNG = np.random.default_rng(29)
# each overflowed numpy's sums of squares or means before training refused it
HUGE = {
    "N(0, 1e200)": _HUGE_RNG.normal(0.0, 1e200, size=(40, 2)),
    "+-1e308": np.array([[1e308], [-1e308], [0.0]]),
    "near 1e307": 1e307 * (1.0 + _HUGE_RNG.random((150, 1))),
}


@pytest.mark.parametrize("samples", HUGE.values(), ids=HUGE)
@pytest.mark.parametrize("build", [sb.train, sb.initialize], ids=["train", "initialize"])
def test_training_refuses_values_its_sums_could_overflow(samples, build):
    names = ["big", "b"][:samples.shape[1]]
    dataset = sb.Dataset(samples=samples, labels=None, attribute_names=names)
    bound = _trainable_bound(*samples.shape)
    message = (f"attribute 'big' has a value beyond {bound:.6g} in magnitude, which training "
               f"could overflow")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SomError, match=f"^{re.escape(message)}$"):
            build(dataset, sb.SomConfig(rows=2, cols=2, epochs=3, seed=1))


@pytest.mark.parametrize("n, m", [(40, 3), (5, 20), (3, 1)])
def test_training_takes_values_up_to_its_bound(n, m):
    bound = _trainable_bound(n, m)
    signs = np.where(np.random.default_rng(n * m).random((n, m)) < 0.5, -1.0, 1.0)
    signs[0], signs[1] = 1.0, -1.0                  # every attribute spans 2 * bound
    names = [f"a{j}" for j in range(m)]
    config = sb.SomConfig(rows=3, cols=3, epochs=4, lr_start=1.0, lr_end=1.0,
                          neighborhood_schedule=((0.0, 3),), conscience_gamma=5.0, seed=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trained = sb.train(sb.Dataset(samples=bound * signs, labels=None,
                                      attribute_names=names), config)
        assert np.isfinite(trained.stds).all() and np.abs(trained.weights).max() <= bound
        # one value a step past the bound is refused, naming its attribute
        samples = bound * signs
        samples[-1, -1] = np.nextafter(bound, math.inf)
        beyond = sb.Dataset(samples=samples, labels=None, attribute_names=names)
        with pytest.raises(SomError, match=f"^attribute '{names[-1]}' has a value beyond "):
            sb.initialize(beyond, config)


def test_save_load_round_trip(tmp_path, iris):
    m = sb.train(iris, sb.SomConfig(rows=3, cols=3, epochs=20, seed=11))
    path = tmp_path / "m.json"
    sb.save_map(m, path)
    assert sb.load_map(path) == m


def test_config_off_every_default_survives_save_and_load(tmp_path, iris):
    config = sb.SomConfig(rows=2, cols=3, epochs=4, lr_start=0.7, lr_end=0.02,
                          neighborhood_schedule=((0.0, 1), (0.5, 0)),
                          conscience_beta=2e-4, conscience_gamma=0.5, seed=7)
    for f in dataclasses.fields(sb.SomConfig):
        assert f.default is dataclasses.MISSING or getattr(config, f.name) != f.default
    path = tmp_path / "m.json"
    sb.save_map(sb.train(iris, config), path)
    assert sb.load_map(path).config == config


def test_numpy_scalar_settings_are_kept_as_python_numbers(tmp_path, iris):
    # numpy scalars pass the checks; kept as given they would not serialize,
    # and an int where a float goes would write other bytes than that float
    config = sb.SomConfig(rows=np.int64(3), cols=np.int32(2), epochs=np.int64(3),
                          lr_start=np.float32(0.5), lr_end=np.float64(0.01),
                          conscience_beta=np.float32(1e-4), conscience_gamma=np.int64(1),
                          seed=np.uint64(5))
    for f in dataclasses.fields(config):
        if f.type in (int, float):
            assert type(getattr(config, f.name)) is f.type, f.name
    m = sb.train(iris, config)
    rebuilt = dataclasses.replace(m, rows=np.int64(3), cols=np.int64(2), pes=tuple(map_cells(m)))
    assert (type(rebuilt.rows), type(rebuilt.cols)) == (int, int)
    path = tmp_path / "m.json"
    for each in (m, rebuilt):
        sb.save_map(each, path)
        assert sb.load_map(path) == m
    ones = [dataclasses.replace(config, lr_start=one) for one in (1, 1.0)]
    assert ones[0] == ones[1]
    assert map_to_json(sb.train(iris, ones[0])) == map_to_json(sb.train(iris, ones[1]))


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["config"].pop("epochs"), "config is missing epochs$"),
    (lambda doc: doc["config"].update(sigma=1.0), "config has unknown keys sigma$"),
])
def test_load_refuses_a_config_key_set_other_than_the_fields(tmp_path, edit, message):
    with pytest.raises(SomError, match=message):
        sb.load_map(_broken_map(tmp_path, edit))


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["pes"][3].pop("n"), "cell 3 is missing n$"),
    (lambda doc: doc["pes"][3].update(sigma=1.0), "cell 3 has unknown keys sigma$"),
])
def test_load_refuses_a_cell_key_set_other_than_the_fields(tmp_path, edit, message):
    with pytest.raises(SomError, match=message):
        sb.load_map(_broken_map(tmp_path, edit))


def _fixture_text(name):
    with open(fixture_path(name), encoding="utf-8") as f:
        return f.read()


def _fixture_doc():
    return json.loads(_fixture_text("iris_map_seed2.json"))


def test_map_stacks_its_cells_into_read_only_arrays(fixture_map):
    m = fixture_map
    cells = _fixture_doc()["pes"]      # the records the map was built from
    assert any(pe["n"] == 0 for pe in cells)
    for k, pe in enumerate(cells):
        assert m.weights[k].tolist() == pe["weight"]
        assert m.counts[k] == pe["n"]
        assert m.means[k].tolist() == (pe["mean"] if pe["n"] else [0.0] * 4)
        assert m.stds[k].tolist() == (pe["std"] if pe["n"] else [0.0] * 4)
        assert (m.assignment[pe["member_ids"]] == k).all()
    assert m.member_ids.tolist() == [i for pe in cells for i in pe["member_ids"]]
    with pytest.raises(ValueError):
        m.means[0, 0] = 1.0
    k = next(k for k, pe in enumerate(cells) if pe["n"] > 1)
    pes = map_cells(m)
    pes[k] = dataclasses.replace(pes[k], member_ids=pes[k].member_ids[::-1])
    assert dataclasses.replace(m, pes=tuple(pes)) != m     # member order counts
    assert dataclasses.replace(m, pes=map_cells(m)) == m


@pytest.mark.parametrize("r, c", [(-1, 0), (0, 7), (5, 0)])
def test_cell_outside_the_grid_is_refused(fixture_map, r, c):
    # without the check, (-1, 0) wrapped to cell (4, 0), (0, 7) ran on to
    # cell (1, 2) and (5, 0) fell through to a bare IndexError
    with pytest.raises(SomError, match=rf"cell \({r}, {c}\) is outside the 5x5 grid"):
        fixture_map.pe(r, c)


def test_map_keeps_none_of_its_input_records():
    m = make_map([[0.0, 1.0], [None, 3.0]])
    pes = map_cells(m)
    probe = weakref.ref(pes[0])
    rebuilt = sb.SomMap(rows=m.rows, cols=m.cols, pes=tuple(pes), config=m.config)
    del pes
    gc.collect()
    assert probe() is None
    assert rebuilt == m and not hasattr(rebuilt, "pes")


def test_map_stacks_array_cells_into_float_tables_of_its_own():
    m = make_map([[0.0, 1.0], [None, 3.0]], s=2.0)
    pes = [dataclasses.replace(pe, weight=pe.weight.astype(np.int64),
                               mean=None if pe.mean is None else pe.mean.astype(np.int32),
                               std=None if pe.std is None else pe.std.copy())
           for pe in map_cells(m)]
    rebuilt = sb.SomMap(rows=m.rows, cols=m.cols, pes=tuple(pes), config=m.config)
    assert rebuilt == m and map_to_json(rebuilt) == map_to_json(m)
    for name in ("weights", "means", "stds"):
        assert getattr(rebuilt, name).dtype == np.float64
    pes[0].std[0] = 5.0                 # the caller's arrays stay the caller's
    assert pes[0].std.flags.writeable and rebuilt.stds[0, 0] == 2.0


def _round_trips(m):
    rebuilt = sb.SomMap(rows=m.rows, cols=m.cols, pes=tuple(map_cells(m)), config=m.config)
    assert rebuilt == m
    assert map_to_json(rebuilt) == map_to_json(m)


def test_map_rebuilt_from_its_own_cells_is_equal(fixture_map, seed1_map):
    for m, name in ((fixture_map, "iris_map_seed2.json"), (seed1_map, "iris_map_seed1.json")):
        _round_trips(m)
        assert map_to_json(m) == _fixture_text(name)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), M=st.integers(1, 4))
def test_random_map_rebuilt_from_its_own_cells_is_equal(seed, M):
    _round_trips(random_map(np.random.default_rng(seed), M=M, empty_prob=0.3))


def test_a_map_is_unequal_to_anything_else(fixture_map):
    assert (fixture_map == "x") is False
    assert fixture_map != 5


def test_load_rejects_truncated_file(tmp_path):
    dst = tmp_path / "trunc.json"
    dst.write_text(_fixture_text("iris_map_seed2.json")[:500], encoding="utf-8")
    with pytest.raises(SomError, match="malformed"):
        sb.load_map(dst)


def test_load_names_a_file_that_is_not_utf8(tmp_path):
    dst = tmp_path / "binary.json"
    dst.write_bytes(b"\xff\xfe{}")
    with pytest.raises(SomError, match=f"^{re.escape(str(dst))}: malformed map file: 'utf-8'"):
        sb.load_map(dst)


def test_load_skips_a_byte_order_mark(tmp_path, fixture_map):
    dst = tmp_path / "bom.json"
    dst.write_bytes(b"\xef\xbb\xbf" + _fixture_text("iris_map_seed2.json").encode("utf-8"))
    assert np.array_equal(sb.load_map(dst).weights, fixture_map.weights)


def test_load_rejects_version_mismatch(tmp_path):
    doc = _fixture_doc()
    doc["format_version"] = 999
    p = tmp_path / "v.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(SomError, match="version"):
        sb.load_map(p)


def test_committed_fixture_loads(fixture_map, seed1_map):
    for m in (fixture_map, seed1_map):
        assert m.rows == 5 and m.cols == 5
        assert m.n_samples == 150


def test_config_validation():
    with pytest.raises(SomError):
        sb.SomConfig(rows=1, cols=1)
    with pytest.raises(SomError):
        sb.SomConfig(rows=2, cols=2, lr_start=0.1, lr_end=0.5)
    for lr_start, lr_end in ((3.0, 0.01), (1.5, 1.2), (0.5, 0.0), (0.5, -0.1)):
        with pytest.raises(SomError, match="1 >= lr_start >= lr_end > 0"):
            sb.SomConfig(rows=3, cols=3, lr_start=lr_start, lr_end=lr_end)
    assert sb.SomConfig(rows=2, cols=2, lr_start=1.0, lr_end=1.0).lr_start == 1.0
    with pytest.raises(SomError):
        sb.SomConfig(rows=2, cols=2, epochs=0)
    with pytest.raises(SomError):
        sb.SomConfig(rows=2, cols=2, neighborhood_schedule=((0.0, 1), (0.5, 2)))
    with pytest.raises(SomError):
        sb.SomConfig(rows=2, cols=2, neighborhood_schedule=((0.2, 1),))
    with pytest.raises(SomError, match="^schedule fractions must ascend; half-widths non-neg"):
        sb.SomConfig(rows=2, cols=2, neighborhood_schedule=((0.0, 2), (0.6, 1), (0.3, 0)))
    for schedule in (5, "0:2", {}):
        with pytest.raises(SomError, match=re.escape(
                f"neighborhood_schedule must be a sequence of pairs, got {schedule!r}")):
            sb.SomConfig(rows=2, cols=2, neighborhood_schedule=schedule)
    for pair, shown in (((0.0,), "(0.0,)"), ([0.0, 2, 1], "(0.0, 2, 1)"), (5, "5")):
        with pytest.raises(SomError, match=re.escape(
                f"neighborhood_schedule pairs are (fraction, integer half-width), got {shown}")):
            sb.SomConfig(rows=2, cols=2, neighborhood_schedule=(pair,))
    for frac in (math.nan, math.inf, 1.5, -0.5):
        with pytest.raises(SomError, match="neighborhood_schedule fractions must be finite "
                                           r"and in \[0, 1\]"):
            sb.SomConfig(rows=2, cols=2, neighborhood_schedule=((0.0, 2), (frac, 1)))
    assert sb.SomConfig(rows=2, cols=2, neighborhood_schedule=((0.0, 1), (1.0, 0))
                        ).neighborhood_schedule == ((0.0, 1), (1.0, 0))
    for pair in ((0.0, 2.5), (0.0, True), (0.0, "2"), (0.0, None), ("0", 2), (True, 2)):
        with pytest.raises(SomError, match=re.escape(
                f"neighborhood_schedule pairs are (fraction, integer half-width), got {pair!r}")):
            sb.SomConfig(rows=2, cols=2, neighborhood_schedule=(pair, (0.6, 0)))
    assert sb.SomConfig(rows=2, cols=2, neighborhood_schedule=((0, np.int64(1)), (0.5, 0))
                        ).neighborhood_schedule == ((0.0, 1), (0.5, 0))
    for field in ("conscience_beta", "conscience_gamma"):
        for value in (math.nan, math.inf, -math.inf, -1e-3):
            with pytest.raises(SomError, match=f"{field} must be finite and non-negative"):
                sb.SomConfig(rows=2, cols=2, **{field: value})
    for field, value in (("rows", 2.5), ("cols", 2.0), ("epochs", 2.5), ("seed", 1.5),
                         ("seed", True), ("rows", "3")):
        with pytest.raises(SomError, match=f"{field} must be an integer, got {value!r}"):
            sb.SomConfig(**{"rows": 2, "cols": 2, field: value})
    for field, value in (("lr_start", "0.5"), ("lr_end", None), ("conscience_beta", True),
                         ("conscience_gamma", False), ("conscience_gamma", [1.0])):
        with pytest.raises(SomError, match=re.escape(f"{field} must be a number, got {value!r}")):
            sb.SomConfig(**{"rows": 2, "cols": 2, field: value})
    assert sb.SomConfig(rows=np.int64(2), cols=2, conscience_beta=0.0,
                        conscience_gamma=0.0, seed=np.uint64(2**63)).seed == 2**63


def _broken_map(tmp_path, edit):
    doc = _fixture_doc()
    edit(doc)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _first_occupied(doc):
    return next(k for k, pe in enumerate(doc["pes"]) if pe["n"] > 1)


def _first_empty(doc):
    return next(k for k, pe in enumerate(doc["pes"]) if pe["n"] == 0)


def _set(field, value, cell=None):
    def edit(doc):
        k = _first_occupied(doc) if cell is None else cell
        doc["pes"][k][field] = value(doc["pes"][k]) if callable(value) else value
    return edit


def _set_every(field, value):
    def edit(doc):
        for pe in doc["pes"]:
            pe[field] = value(pe)
    return edit


def _duplicate_member(doc):
    k = _first_occupied(doc)
    ids = doc["pes"][k]["member_ids"]
    ids[1] = ids[0]


def _on_empty(field, value):
    def edit(doc):
        doc["pes"][_first_empty(doc)][field] = value
    return edit


def _member_one_as_true(doc):
    for pe in doc["pes"]:
        pe["member_ids"] = [True if i == 1 else i for i in pe["member_ids"]]


def _member_two_as_float(doc):
    for pe in doc["pes"]:
        pe["member_ids"] = [2.0 if i == 2 else i for i in pe["member_ids"]]


CELL_FAULTS = pytest.mark.parametrize("edit, message", [
    (_set("mean", [1.0, 2.0, 3.0]), r"cell \d+: mean has shape \(3,\)"),
    (_set("std", [0.1]), r"cell \d+: std has shape \(1,\)"),
    (_set("weight", [0.0, 1.0], cell=7), r"cell 7: weight has shape \(2,\), expected \(4,\)"),
    (_set("n", -5), r"cell \d+: n must be a non-negative integer"),
    (_set("n", lambda pe: pe["n"] + 1), r"cell \d+: n is \d+ but member_ids lists \d+"),
    (_set("n", True), r"cell \d+: n must be a non-negative integer, got True"),
    (_set("r", 4, cell=0), r"cell 0: r/c \(4, 0\) do not match its position \(0, 0\)"),
    (_set("c", 3, cell=7), r"cell 7: r/c \(1, 3\) do not match its position \(1, 2\)"),
    (_set("mean", None), r"cell \d+: mean has shape None"),
    (_set("mean", [float("nan")] * 4), r"cell \d+: mean has a non-finite value"),
    (_duplicate_member, r"cell \d+: member id \d+ is also in cell \d+"),
    (_set("member_ids", lambda pe: [999] + pe["member_ids"][1:]),
     r"cell \d+: member id 999 is outside 0..149"),
    (_member_one_as_true, r"cell 24: member id True is not an integer"),
    (_member_two_as_float, r"cell \d+: member id 2\.0 is not an integer"),
    (_set_every("weight", lambda pe: [pe["weight"]]),
     r"cell 0: weight must be a non-empty 1-D array, got shape \(1, 4\)$"),
    (_set_every("weight", lambda pe: []),
     r"cell 0: weight must be a non-empty 1-D array, got shape \(0,\)$"),
    (lambda doc: doc.update(rows=4), r"grid 4x5 differs from the config's 5x5"),
    (lambda doc: doc["config"].update(neighborhood_schedule=[[0.0, 2.5], [0.6, 0]]),
     r"neighborhood_schedule pairs are \(fraction, integer half-width\), got \(0\.0, 2\.5\)$"),
    (lambda doc: doc.update(rows=5.0), r"rows must be an integer, got 5\.0"),
    (lambda doc: doc.update(cols=True), r"cols must be an integer, got True"),
    (_on_empty("mean", [0.0] * 4), r"cell \d+: mean must be null for an empty cell$"),
    (_on_empty("std", [0.0] * 4), r"cell \d+: std must be null for an empty cell$"),
    (_set("weight", lambda pe: ["2"] + pe["weight"][1:]),
     r"cell \d+: weight must hold numbers, got '2'$"),
    (_set("std", lambda pe: [-0.1] + pe["std"][1:]), r"cell \d+: std has a negative value$"),
    (_set("r", False, cell=0), r"cell 0: r/c \(False, 0\) do not match its position \(0, 0\)$"),
    (lambda doc: doc["config"].update(conscience_gamma=False),
     r"conscience_gamma must be a number, got False$"),
    (lambda doc: doc["config"].update(neighborhood_schedule=[[0.0]]),
     r"neighborhood_schedule pairs are \(fraction, integer half-width\), got \(0\.0,\)$"),
])


@CELL_FAULTS
def test_load_rejects_inconsistent_cells(tmp_path, edit, message):
    with pytest.raises(SomError, match=message):
        sb.load_map(_broken_map(tmp_path, edit))


@CELL_FAULTS
def test_map_built_in_memory_rejects_inconsistent_cells(tmp_path, edit, message):
    path = _broken_map(tmp_path, edit)
    doc = json.loads(path.read_text(encoding="utf-8"))
    pes = tuple(PeStats(r=rec["r"], c=rec["c"], weight=np.array(rec["weight"]),
                        member_ids=tuple(rec["member_ids"]), n=rec["n"],
                        mean=None if rec["mean"] is None else np.array(rec["mean"]),
                        std=None if rec["std"] is None else np.array(rec["std"]))
                for rec in doc["pes"])
    with pytest.raises(SomError, match=message) as built:
        sb.SomMap(rows=doc["rows"], cols=doc["cols"], pes=pes,
                  config=sb.SomConfig(**doc["config"]))
    with pytest.raises(SomError) as loaded:
        sb.load_map(path)
    assert str(loaded.value) == f"{path}: {built.value}"


def _set_first(field, value):
    return _set(field, lambda pe: [value] + pe[field][1:])


@pytest.mark.parametrize("edit, message", [
    (_set_first("weight", True), r"cell \d+: weight must hold numbers, got True"),
    (_set_first("mean", False), r"cell \d+: mean must hold numbers, got False"),
    (_set_first("std", [0.1]), r"cell \d+: std must hold numbers, got \[0\.1\]"),
    (_set("weight", [[1.0], [1.0, 2.0]], cell=3), r"cell 3: weight must hold numbers, got \[1\.0\]"),
    (_set("weight", "x", cell=3), r"cell 3: weight must hold numbers, got 'x'"),
    (_set("member_ids", 5), r"cell \d+: member_ids must be a list, got 5"),
    (_set("member_ids", {}), r"cell \d+: member_ids must be a list, got \{\}"),
    (lambda doc: doc.update(seed=2.5), r"seed 2\.5 differs from the config's 2"),
    (lambda doc: doc.update(seed=True), r"seed True differs from the config's 2"),
    (lambda doc: doc.pop("seed"), "map file is missing seed"),
    (lambda doc: doc.update(extra=1), "map file has unknown keys extra"),
    (lambda doc: doc.update(format_version=True), "unsupported map format version"),
    (lambda doc: doc.update(pes={}), r"pes must be a list of cell records, got \{\}"),
    (lambda doc: doc["pes"].__setitem__(3, [1]), r"cell 3 must be a JSON object, got \[1\]"),
    (lambda doc: doc.update(config=5), "config must be a JSON object, got 5"),
])
def test_load_names_the_field_that_holds_a_bad_value(tmp_path, edit, message):
    path = _broken_map(tmp_path, edit)
    with pytest.raises(SomError) as refused:
        sb.load_map(path)
    assert re.fullmatch(f"{re.escape(str(path))}: {message}", str(refused.value))


@pytest.mark.parametrize("weight, message", [
    ([True], "must hold numbers, got True"),
    ([0.0, False], "must hold numbers, got False"),
    (np.array([True]), "must hold numbers, got True"),
    (["1"], "must hold numbers, got '1'"),
    ("1", "must hold numbers, got '1'"),
    (np.array(["1"]), "must hold numbers, got '1'"),
    (np.array([1.0], dtype=object), "must hold numbers, got array([1.0], dtype=object)"),
    (1.0, "must be a non-empty 1-D array, got shape ()"),
])
def test_map_built_in_memory_refuses_a_weight_that_is_not_numbers(weight, message):
    m = make_map([[0.0, 1.0]], n_members=1)
    pes = map_cells(m)
    pes[1] = dataclasses.replace(pes[1], weight=weight)
    with pytest.raises(SomError, match=f"^cell 1: weight {re.escape(message)}$"):
        dataclasses.replace(m, pes=tuple(pes))


def test_load_rejects_the_wide_mean_negative_count_map(tmp_path):
    # such a map used to load and only fail inside numpy when partitioned
    def edit(doc):
        pe = doc["pes"][_first_occupied(doc)]
        pe["mean"] = [1.0, 2.0, 3.0]
        pe["n"] = -5
    with pytest.raises(SomError, match="cell"):
        sb.load_map(_broken_map(tmp_path, edit))


def test_map_checks_its_grid_on_construction():
    m = make_map([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
    with pytest.raises(SomError, match="grid 3x2 differs from the config's 2x3"):
        dataclasses.replace(m, rows=3, cols=2, pes=tuple(map_cells(m)))
    with pytest.raises(SomError, match="5 cells do not tile the 2x3 grid"):
        dataclasses.replace(m, pes=tuple(map_cells(m)[:5]))
    pes = map_cells(m)
    pes[4] = dataclasses.replace(pes[4], r=0, c=1)
    with pytest.raises(SomError, match=r"cell 4: r/c \(0, 1\) do not match its position \(1, 1\)"):
        dataclasses.replace(m, pes=tuple(pes))
    one = PeStats(r=0, c=0, weight=np.zeros(1), member_ids=(), n=0, mean=None, std=None)
    with pytest.raises(SomError, match="grid 1x1 differs from the config's 1x2"):
        sb.SomMap(rows=1, cols=1, pes=(one,), config=sb.SomConfig(rows=1, cols=2))


def test_map_refuses_a_bool_count():
    with pytest.raises(SomError, match="^cell 0: n must be a non-negative integer, got True$"):
        make_map([[0.0, 1.0]], n_members=True)


def test_numpy_member_ids_stack_like_python_ints():
    m = make_map([[0.0, 1.0, 2.0]], n_members=2)
    ids = ((4, 0), (5, 2), (1, 3))
    maps = [dataclasses.replace(m, pes=tuple(
        dataclasses.replace(pe, member_ids=tuple(map(kind, cell_ids)))
        for pe, cell_ids in zip(map_cells(m), ids))) for kind in (int, np.int64)]
    for built in maps:
        assert built.member_ids.dtype == built.assignment.dtype == np.intp
        assert built.member_ids.tolist() == [4, 0, 5, 2, 1, 3]
        assert built.assignment.tolist() == [0, 2, 1, 2, 0, 1]


@pytest.mark.parametrize("ids, message", [
    (((0, 1), (1, "x"), (4, 5)), "cell 1: member id 1 is also in cell 0"),
    (((0, 1), (2.0, 1), (4, 5)), r"cell 1: member id 2\.0 is not an integer"),
    (((0, 1), (2, 3), (9, 0)), r"cell 2: member id 9 is outside 0\.\.5"),
    (((0, 1), (2, 3), (4, np.int64(-1))), r"cell 2: member id np\.int64\(-1\) is outside"),
    (((3, 1), (2, 3), (4, 5)), "cell 1: member id 3 is also in cell 0"),
    (((0, 1), (2, True), (4, 5)), r"cell 1: member id True is not an integer"),
    (((0, 1), (2, 3), (4, np.True_)), r"cell 2: member id np\.True_ is not an integer"),
    (((0, 1), 23, (4, 5)), "cell 1: member_ids must be a list, got 23"),
    (((0, 1), np.array([2, 3]), (4, 5)), r"cell 1: member_ids must be a list, got array"),
])
def test_member_id_faults_name_the_first_in_cell_order(ids, message):
    m = make_map([[0.0, 1.0, 2.0]], n_members=2)
    pes = tuple(dataclasses.replace(pe, member_ids=cell_ids) for pe, cell_ids in zip(map_cells(m), ids))
    with pytest.raises(SomError, match=f"^{message}"):
        dataclasses.replace(m, pes=pes)
