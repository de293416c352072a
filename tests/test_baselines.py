import math

import numpy as np
import pytest

import somblocks as sb
from somblocks.baselines import BaselineError
from somblocks.partition import validate_partition

from conftest import make_map, random_map


def test_identical_neighbors_have_zero_strength():
    m = make_map([[1.0, 1.0]], s=0.2)
    b = sb.umatrix_boundaries(m)
    assert b.h[0, 0] == 0.0


def test_unit_vector_strength():
    m = make_map([[np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0, 0.0])]], s=0.2)
    b = sb.umatrix_boundaries(m)
    assert b.h[0, 0] == pytest.approx(math.sqrt(2))
    assert b.h.shape == (1, 1) and b.v.shape == (0, 2)


def test_empty_pe_edges_are_absent():
    m = make_map([[1.0, None, 2.0]], s=0.2)
    b = sb.umatrix_boundaries(m)
    assert np.isnan(b.h[0, 0]) and np.isnan(b.h[0, 1])


def test_boundaries_need_two_occupied_cells():
    m = make_map([[1.0, None]], s=0.2)
    with pytest.raises(BaselineError):
        sb.umatrix_boundaries(m)


def test_fixture_max_strength_separates_setosa(fixture_map, iris):
    b = sb.umatrix_boundaries(fixture_map)
    classes, counts = fixture_map.class_counts(iris.labels)
    setosa = classes.index("setosa")

    majority_of = counts.argmax(axis=1)

    def majority(r, c):
        k = r * fixture_map.cols + c
        return int(majority_of[k]) if fixture_map.counts[k] else None

    edges = []
    for r in range(fixture_map.rows):
        for c in range(fixture_map.cols - 1):
            if not np.isnan(b.h[r, c]):
                edges.append((b.h[r, c], majority(r, c), majority(r, c + 1)))
    for r in range(fixture_map.rows - 1):
        for c in range(fixture_map.cols):
            if not np.isnan(b.v[r, c]):
                edges.append((b.v[r, c], majority(r, c), majority(r + 1, c)))
    strength, ca, cb = max(edges, key=lambda e: e[0])
    assert (ca == setosa) != (cb == setosa)


def test_threshold_infinite_keeps_one_block():
    m = make_map([[0.0, 3.0], [6.0, 9.0]], s=0.2)
    p = sb.threshold_partition(m, math.inf)
    assert p.n_blocks == 1


def test_threshold_zero_splits_distinct_means():
    m = make_map([[0.0, 1.0], [2.0, 3.0]], s=0.2)
    p = sb.threshold_partition(m, 0.0)
    assert p.n_blocks == 4


def test_threshold_rejects_negative():
    m = make_map([[0.0, 1.0]], s=0.2)
    with pytest.raises(BaselineError):
        sb.threshold_partition(m, -0.1)


def test_threshold_fixture_has_fragile_multiblock_setting(fixture_map, iris):
    hit = None
    for T in np.linspace(0.3, 1.2, 90):
        p = sb.threshold_partition(fixture_map, float(T))
        if p.n_blocks >= 5:
            rep = sb.score(p, fixture_map, iris.labels)
            if rep.p_o >= 0.6:
                lo = sb.threshold_partition(fixture_map, float(T) * 0.95).n_blocks
                hi = sb.threshold_partition(fixture_map, float(T) * 1.05).n_blocks
                if lo != p.n_blocks or hi != p.n_blocks:
                    hit = (float(T), p.n_blocks, rep.p_o)
                    break
    assert hit is not None


def test_threshold_block_count_monotone(fixture_map):
    rng = np.random.default_rng(21)
    maps = [fixture_map] + [random_map(rng, M=2) for _ in range(8)]
    for m in maps:
        strengths = np.concatenate([np.ravel(sb.umatrix_boundaries(m).h),
                                    np.ravel(sb.umatrix_boundaries(m).v)])
        top = np.nanmax(strengths) * 1.2 if np.any(np.isfinite(strengths)) else 1.0
        counts = [sb.threshold_partition(m, float(T)).n_blocks
                  for T in np.linspace(0.0, top, 40)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        for T in np.linspace(0.0, top, 12):
            validate_partition(sb.threshold_partition(m, float(T)))


def test_oracle_single_class_map(iris):
    m = sb.train(iris, sb.SomConfig(rows=2, cols=2, epochs=20, seed=1))
    p = sb.oracle_partition(m, ["same"] * 150)
    assert p.n_blocks == 1


def test_oracle_tie_goes_to_lowest_class():
    # cell (0, 0) holds members a, a, b, b: a tie that goes to class a
    m = make_map([[0.0, 1.0]], s=0.2, n_members=4)
    assert sb.oracle_partition(m, list("aabb") + list("aaaa")).n_blocks == 1
    assert sb.oracle_partition(m, list("aabb") + list("bbbb")).n_blocks == 2
    assert sb.oracle_partition(m, list("ccbb") + list("bbbb")).n_blocks == 1


def test_oracle_fixture_quality(fixture_map, iris):
    p = sb.oracle_partition(fixture_map, iris.labels)
    validate_partition(p)
    rep = sb.score(p, fixture_map, iris.labels)
    assert 0.94 <= rep.p_o <= 1.0
    assert 0.92 <= rep.kappa <= 1.0


def test_oracle_absorbs_empty_cells_into_lowest_adjacent_block():
    labels = ["a"] * 5 + ["b"] * 5
    m = make_map([[0.0, None, 9.0]], s=0.2, n_members=5)
    p = sb.oracle_partition(m, labels)
    assert p.n_blocks == 2
    assert p.block_of[0, 1] == p.block_of[0, 0]  # absorbed into block 0
    validate_partition(p)


def test_oracle_requires_labels(fixture_map):
    with pytest.raises(BaselineError):
        sb.oracle_partition(fixture_map, None)


def test_oracle_beats_every_threshold_partition(fixture_map, iris):
    oracle_acc = sb.score(sb.oracle_partition(fixture_map, iris.labels),
                          fixture_map, iris.labels).p_o
    for T in np.linspace(0.0, 3.5, 30):
        acc = sb.score(sb.threshold_partition(fixture_map, float(T)),
                       fixture_map, iris.labels).p_o
        assert oracle_acc >= acc - 1e-12
