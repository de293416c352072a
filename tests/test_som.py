import dataclasses
import gc
import json
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import somblocks as sb
from somblocks.som import PeStats, SomError, _stats_from_weights, map_to_json

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
    with pytest.raises(SomError):
        bad = sb.Dataset(samples=iris.samples[:, :3], labels=None,
                         attribute_names=iris.attribute_names[:3])
        sb.quantization_error(trained, bad)


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
    neighborhood mask and a fancy-index gather and scatter per presentation."""
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
    return _stats_from_weights(dataset, config, weights)


@st.composite
def training_cases(draw):
    n = draw(st.integers(1, 30))
    M = draw(st.integers(1, 5))
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
    names = [f"a{j}" for j in range(M)]
    return sb.Dataset(samples=samples, labels=None, attribute_names=names), config


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=training_cases())
def test_train_matches_reference_loop_bit_for_bit(case):
    dataset, config = case
    assert map_to_json(sb.train(dataset, config)) == map_to_json(_reference_train(dataset, config))


def test_save_load_round_trip(tmp_path, iris):
    m = sb.train(iris, sb.SomConfig(rows=3, cols=3, epochs=20, seed=11))
    path = tmp_path / "m.json"
    sb.save_map(m, path)
    assert sb.load_map(path) == m


def _fixture_text(name):
    with open(fixture_path(name)) as f:
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


def test_map_keeps_none_of_its_input_records():
    m = make_map([[0.0, 1.0], [None, 3.0]])
    pes = map_cells(m)
    probe = weakref.ref(pes[0])
    rebuilt = sb.SomMap(rows=m.rows, cols=m.cols, pes=tuple(pes), config=m.config)
    del pes
    gc.collect()
    assert probe() is None
    assert rebuilt == m and not hasattr(rebuilt, "pes")


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


def test_load_rejects_truncated_file(tmp_path):
    dst = tmp_path / "trunc.json"
    dst.write_text(_fixture_text("iris_map_seed2.json")[:500])
    with pytest.raises(SomError, match="malformed"):
        sb.load_map(dst)


def test_load_rejects_version_mismatch(tmp_path):
    doc = _fixture_doc()
    doc["format_version"] = 999
    p = tmp_path / "v.json"
    p.write_text(json.dumps(doc))
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


def _broken_map(tmp_path, edit):
    doc = _fixture_doc()
    edit(doc)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    return path


def _first_occupied(doc):
    return next(k for k, pe in enumerate(doc["pes"]) if pe["n"] > 1)


def _set(field, value, cell=None):
    def edit(doc):
        k = _first_occupied(doc) if cell is None else cell
        doc["pes"][k][field] = value(doc["pes"][k]) if callable(value) else value
    return edit


def _duplicate_member(doc):
    k = _first_occupied(doc)
    ids = doc["pes"][k]["member_ids"]
    ids[1] = ids[0]


CELL_FAULTS = pytest.mark.parametrize("edit, message", [
    (_set("mean", [1.0, 2.0, 3.0]), r"cell \d+: mean has shape \(3,\)"),
    (_set("std", [0.1]), r"cell \d+: std has shape \(1,\)"),
    (_set("weight", [0.0, 1.0], cell=7), r"cell 7: weight has shape \(2,\), expected \(4,\)"),
    (_set("n", -5), r"cell \d+: n must be a non-negative integer"),
    (_set("n", lambda pe: pe["n"] + 1), r"cell \d+: n is \d+ but member_ids lists \d+"),
    (_set("r", 4, cell=0), r"cell 0: r/c \(4, 0\) do not match its position \(0, 0\)"),
    (_set("c", 3, cell=7), r"cell 7: r/c \(1, 3\) do not match its position \(1, 2\)"),
    (_set("mean", None), r"cell \d+: mean has shape None"),
    (_set("mean", [float("nan")] * 4), r"cell \d+: mean has a non-finite value"),
    (_duplicate_member, r"cell \d+: member id \d+ is also in cell \d+"),
    (_set("member_ids", lambda pe: [999] + pe["member_ids"][1:]),
     r"cell \d+: member id 999 is outside 0..149"),
    (lambda doc: doc.update(rows=4), r"grid 4x5 differs from the config's 5x5"),
])


@CELL_FAULTS
def test_load_rejects_inconsistent_cells(tmp_path, edit, message):
    with pytest.raises(SomError, match=message):
        sb.load_map(_broken_map(tmp_path, edit))


@CELL_FAULTS
def test_map_built_in_memory_rejects_inconsistent_cells(tmp_path, edit, message):
    path = _broken_map(tmp_path, edit)
    doc = json.loads(path.read_text())
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


@pytest.mark.parametrize("ids, message", [
    (((0, 1), (1, "x"), (4, 5)), "cell 1: member id 1 is also in cell 0"),
    (((0, 1), (2.0, 1), (4, 5)), r"cell 1: member id 2\.0 is outside 0\.\.5"),
    (((0, 1), (2, 3), (9, 0)), r"cell 2: member id 9 is outside 0\.\.5"),
    (((0, 1), (2, 3), (4, np.int64(-1))), r"cell 2: member id np\.int64\(-1\) is outside"),
    (((3, 1), (2, 3), (4, 5)), "cell 1: member id 3 is also in cell 0"),
])
def test_member_id_faults_name_the_first_in_cell_order(ids, message):
    m = make_map([[0.0, 1.0, 2.0]], n_members=2)
    pes = tuple(dataclasses.replace(pe, member_ids=cell_ids) for pe, cell_ids in zip(map_cells(m), ids))
    with pytest.raises(SomError, match=f"^{message}"):
        dataclasses.replace(m, pes=pes)
