import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import somblocks as sb
from somblocks.bayes_cost import BlockCosts
from somblocks.partition import (Partition, PartitionError, Region, _inner_cells, _label_grid,
                                 _quadtree, _region_mask, _subdivide, _walk_partitions,
                                 enumerate_connected_partitions, load_partition, save_partition,
                                 validate_partition)

from conftest import make_map, map_cells, plain_params, random_map


def test_region_validation():
    with pytest.raises(PartitionError):
        Region(2, 2, 0, 1)


def test_quadtree_keeps_uniform_2x2_whole():
    m = make_map([[1.0, 1.0], [1.0, 1.0]], s=1.0)
    params = plain_params(R=10.0)
    whole = sb.block_cost_for_pes(map_cells(m), params)
    singletons = 4 * math.log(10.0)
    assert whole == pytest.approx(4.713, abs=1e-3)
    assert singletons == pytest.approx(9.210, abs=1e-3)
    leaves = sb.quadtree_split(m, params)
    assert leaves == [Region(0, 2, 0, 2)]


def test_quadtree_singleton_region_is_leaf():
    m = make_map([[1.0, 9.0]], s=0.1)
    leaves = sb.quadtree_split(m, plain_params(R=10.0))
    for leaf in leaves:
        assert leaf.r1 - leaf.r0 >= 1 and leaf.c1 - leaf.c0 >= 1
    covered = sorted(cell for leaf in leaves for cell in leaf.cells())
    assert covered == [(0, 0), (0, 1)]


def quadrant_map():
    mg = [[0, 0, 10, 10], [0, 0, 10, 10], [20, 20, 30, 30], [20, 20, 30, 30]]
    return make_map(mg, s=0.5), plain_params(R=60.0)


def test_quadtree_splits_four_quadrants_once():
    m, params = quadrant_map()
    leaves = sb.quadtree_split(m, params)
    assert sorted((l.r0, l.r1, l.c0, l.c1) for l in leaves) == [
        (0, 2, 0, 2), (0, 2, 2, 4), (2, 4, 0, 2), (2, 4, 2, 4)]


def _reference_split(region, cost, cols):
    """quadtree_split's recursion as it was before it walked a tree built
    once per grid shape: Regions and masks are made afresh at every node."""
    if region.r1 - region.r0 == 1 and region.c1 - region.c0 == 1:
        return [region]
    subs = _subdivide(region)
    whole = cost(_region_mask(region, cols))
    parts = math.fsum(cost(_region_mask(s, cols)) for s in subs)
    if whole > parts:
        out = []
        for s in subs:
            out.extend(_reference_split(s, cost, cols))
        return out
    return [region]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 9), cols=st.integers(1, 9),
       exponent=st.sampled_from(sb.bayes_cost.RANGE_EXPONENTS),
       rule=st.sampled_from(sorted(sb.bayes_cost.N_SCALE_RULES)),
       f_R=st.floats(0.01, 30.0), f_sigma=st.floats(0.1, 10.0))
@example(seed=1, rows=1, cols=7, exponent="per_block", rule="unit", f_R=0.01, f_sigma=1.0)
@example(seed=2, rows=7, cols=1, exponent="per_pe", rule="sqrt", f_R=0.01, f_sigma=1.0)
@example(seed=3, rows=5, cols=9, exponent="per_block", rule="unit", f_R=0.01, f_sigma=0.5)
def test_quadtree_walk_matches_the_region_recursion(seed, rows, cols, exponent, rule, f_R,
                                                    f_sigma):
    assume(rows * cols >= 2)        # a map has at least two cells
    rng = np.random.default_rng(seed)
    M = int(rng.integers(1, 4))
    m = random_map(rng, rows=rows, cols=cols, M=M, empty_prob=0.2)
    params = sb.CostParams(R=rng.uniform(1.0, 50.0, M), sigma_floor=rng.uniform(0.02, 0.6, M),
                           sigma_const=float(rng.uniform(0.5, 4.0)),
                           n_scale_rule=sb.bayes_cost.N_SCALE_RULES[rule],
                           range_exponent=exponent, f_R=f_R, f_sigma=f_sigma)

    def recording(seen):
        costs = BlockCosts(m, params)
        cost = costs.cost
        costs.cost = lambda mask: seen.append(mask) or cost(mask)
        return costs

    walked, expected = [], []
    leaves = sb.quadtree_split(m, params, recording(walked))
    assert leaves == _reference_split(Region(0, rows, 0, cols), recording(expected).cost, cols)
    assert walked == expected                   # the same masks, in the same order
    assert sb.quadtree_split(m, params) == leaves
    assert _quadtree(rows, cols) is _quadtree(rows, cols)


def test_merge_joins_equal_singletons():
    m = make_map([[0.0, 0.0]], s=1.0)
    params = plain_params(R=10.0)
    joined = sb.block_cost_for_pes(map_cells(m), params)
    separate = 2 * math.log(10.0)
    assert joined == pytest.approx(3.222, abs=1e-3)
    assert separate == pytest.approx(4.605, abs=1e-3)
    p = sb.merge_regions([Region(0, 1, 0, 1), Region(0, 1, 1, 2)], m, params)
    assert p.n_blocks == 1


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), exponent=st.sampled_from(sb.bayes_cost.RANGE_EXPONENTS))
def test_merge_ignores_the_order_of_its_regions(seed, exponent):
    rng = np.random.default_rng(seed)
    m = random_map(rng, M=int(rng.integers(1, 4)), empty_prob=0.2)
    params = plain_params(M=m.n_attributes, R=float(rng.uniform(2.0, 40.0)), exponent=exponent)
    singletons = [Region(r, r + 1, c, c + 1) for r in range(m.rows) for c in range(m.cols)]
    p = sb.partition_som(m, params)
    assert Partition.from_labels(p.block_of, p.cost) == p      # blocks in canonical order
    for tiling in (sb.quadtree_split(m, params), singletons):
        expected = sb.merge_regions(tiling, m, params)
        for _ in range(3):
            shuffled = [tiling[i] for i in rng.permutation(len(tiling))]
            assert sb.merge_regions(shuffled, m, params) == expected   # cost included


def _reference_merge(regions, som_map, params):
    """merge_regions as it was before it scanned neighbours only and skipped
    joins from block statistics: every later block is tested, and every
    adjacent pair is costed."""
    rows, cols = som_map.rows, som_map.cols
    cost = BlockCosts(som_map, params).cost
    inner = _inner_cells(rows, cols)
    grid = (1 << (rows * cols)) - 1
    blocks = []
    for region in regions:
        mask = _region_mask(region, cols)
        near = (mask << cols | mask >> cols
                | (mask & inner) << 1 | (mask >> 1) & inner) & grid
        blocks.append(((region.c0, region.r0), mask, near))
    changed = True
    while changed:
        changed = False
        blocks.sort(key=lambda block: block[0])
        i = 0
        while i < len(blocks):
            key, mask, near = blocks[i]
            j = i + 1
            while j < len(blocks):
                other_key, other, other_near = blocks[j]
                if near & other:
                    joined = mask | other
                    if cost(joined) < cost(mask) + cost(other):
                        key = (min(key[0], other_key[0]), min(key[1], other_key[1]))
                        mask, near = joined, near | other_near
                        blocks[i] = (key, mask, near)
                        del blocks[j]
                        changed = True
                        continue
                j += 1
            i += 1
    masks = [mask for _, mask, _ in blocks]
    total = math.fsum(cost(mask) for mask in masks)
    masks.sort(key=lambda mask: mask & -mask)
    return Partition(block_of=_label_grid(masks, rows, cols), n_blocks=len(masks), cost=total)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), exponent=st.sampled_from(sb.bayes_cost.RANGE_EXPONENTS),
       rule=st.sampled_from(sorted(sb.bayes_cost.N_SCALE_RULES)),
       f_R=st.floats(0.03, 30.0), f_sigma=st.floats(0.1, 10.0),
       start=st.sampled_from(["quadtree", "singletons"]))
def test_merge_matches_the_plain_scan(seed, exponent, rule, f_R, f_sigma, start):
    rng = np.random.default_rng(seed)
    M = int(rng.integers(1, 4))
    m = random_map(rng, M=M, empty_prob=0.25)
    params = sb.CostParams(R=rng.uniform(1.0, 50.0, M), sigma_floor=rng.uniform(0.02, 0.6, M),
                           sigma_const=float(rng.uniform(0.5, 4.0)),
                           n_scale_rule=sb.bayes_cost.N_SCALE_RULES[rule],
                           range_exponent=exponent, f_R=f_R, f_sigma=f_sigma)
    if start == "quadtree":
        tiling = sb.quadtree_split(m, params)
    else:
        tiling = [Region(r, r + 1, c, c + 1) for r in range(m.rows) for c in range(m.cols)]
    assert sb.merge_regions(tiling, m, params) == _reference_merge(tiling, m, params)


def test_merge_respects_gap_criterion():
    # keep separate iff gap^2 > 2 sigma^2 ln(R / (sigma sqrt(2 pi)))
    sigma, R = 1.0, 10.0
    crit = math.sqrt(2 * sigma**2 * math.log(R / (sigma * math.sqrt(2 * math.pi))))
    wide = crit * 1.3
    m = make_map([[0.0, wide, 2 * wide]], s=sigma)
    tiling = [Region(0, 1, c, c + 1) for c in range(3)]
    p = sb.merge_regions(tiling, m, plain_params(R=R))
    assert p.n_blocks == 3
    narrow = crit * 0.5
    m2 = make_map([[0.0, narrow, 2 * narrow]], s=sigma)
    p2 = sb.merge_regions(tiling, m2, plain_params(R=R))
    assert p2.n_blocks == 1


def test_merge_single_region_unchanged():
    m = make_map([[1.0, 2.0], [3.0, 4.0]], s=0.5)
    p = sb.merge_regions([Region(0, 2, 0, 2)], m, plain_params(R=10.0))
    assert p.n_blocks == 1


def test_merge_rejects_bad_tilings():
    m = make_map([[1.0, 2.0], [3.0, 4.0]], s=0.5)
    params = plain_params(R=10.0)
    tiles = "regions must tile the grid exactly once"
    cases = [
        ([Region(0, 2, 0, 1)], tiles),                                         # gap
        ([Region(0, 2, 0, 1), Region(1, 2, 1, 2)], tiles),                     # gap
        ([Region(0, 2, 0, 2), Region(0, 1, 1, 2)], tiles),                     # overlap
        ([Region(0, 2, 0, 2), Region(2, 3, 0, 1)], "region outside grid"),
        ([Region(0, 2, 0, 2), Region(0, 1, 0, 3)], "region outside grid"),
        ([Region(-1, 1, 0, 1), Region(1, 2, 0, 2)], "region outside grid"),
        # an overlap before a region outside the grid: the outside one is named
        ([Region(0, 2, 0, 2), Region(0, 1, 0, 1), Region(0, 1, 2, 3)], "region outside grid"),
    ]
    for regions, message in cases:
        with pytest.raises(PartitionError, match=f"^{message}$"):
            sb.merge_regions(regions, m, params)


def test_partition_som_uniform_map_is_one_block():
    m = make_map([[2.0] * 4] * 4, s=1.0)
    p = sb.partition_som(m, plain_params(R=10.0))
    assert p.n_blocks == 1
    validate_partition(p)


def test_partition_som_single_occupied_cell():
    m = make_map([[None, None], [None, 3.0]], s=0.2)
    params = plain_params(R=10.0)
    p = sb.partition_som(m, params)
    assert p.n_blocks == 1
    assert p.cost == pytest.approx(math.log(10.0))


def test_fixture_map_partitions_into_three_blocks(fixture_map, iris_params):
    p = sb.partition_som(fixture_map, iris_params)
    assert p.n_blocks == 3
    validate_partition(p)


def test_enumeration_counts():
    assert isinstance(enumerate_connected_partitions(2, 2), list)
    assert sum(1 for _ in enumerate_connected_partitions(1, 2)) == 2
    assert sum(1 for _ in enumerate_connected_partitions(2, 2)) == 12
    assert sum(1 for _ in enumerate_connected_partitions(3, 3)) == 1434
    # hand check of the 2x2 set: 1 whole + 4 triples + 2 two-pairs
    #                            + 4 pair-plus-singletons + 1 all-singleton
    sizes = {}
    for labels in enumerate_connected_partitions(2, 2):
        k = len(set(labels))
        sizes[k] = sizes.get(k, 0) + 1
    assert sizes == {1: 1, 2: 6, 3: 4, 4: 1}


def test_exhaustive_on_1x2():
    m = make_map([[0.0, 8.0]], s=0.1)
    p = sb.exhaustive_partition(m, plain_params(R=10.0))
    assert p.n_blocks == 2
    validate_partition(p)


def test_exhaustive_rejects_large_grids(fixture_map, iris_params):
    with pytest.raises(PartitionError, match="cell_limit"):
        sb.exhaustive_partition(fixture_map, iris_params)


def _count_connected_partitions(rows: int, cols: int) -> int:
    """Connected-partition count of a grid, by a transfer matrix.

    Cells are added in row-major order.  A state is the last cols cells, each
    as (block, piece), a piece being a connected part of its block so far,
    both numbered by first occurrence.  A block may lie in several pieces
    while each still has a cell in the state; a piece that leaves the state
    must be its whole block.
    """
    states = {(): 1}
    for k in range(rows * cols):
        following = {}
        for front, ways in states.items():
            near = front[:1] if len(front) == cols else ()   # the cell above
            near += front[-1:] if k % cols else ()           # the cell to the left
            for block in {b for b, _ in front} | {"new"}:
                joined = {piece for b, piece in near if b == block}
                piece = min(joined) if joined else "new"
                cells = [(b, piece if q in joined else q) for b, q in front] + [(block, piece)]
                if len(cells) > cols:
                    gone_block, gone_piece = cells.pop(0)
                    if (all(q != gone_piece for _, q in cells)
                            and any(b == gone_block for b, _ in cells)):
                        continue
                blocks, pieces = {}, {}
                key = tuple((blocks.setdefault(b, len(blocks)), pieces.setdefault(q, len(pieces)))
                            for b, q in cells)
                following[key] = following.get(key, 0) + ways
        states = following
    # at the end every block must be one piece: as many pieces as blocks
    return sum(ways for front, ways in states.items()
               if len(set(front)) == len({b for b, _ in front}))


@pytest.mark.parametrize("shape", [(1, 2), (2, 2), (1, 5), (2, 3), (3, 3), (2, 5), (3, 4),
                                   (4, 3), (2, 6)], ids="{0[0]}x{0[1]}".format)
def test_transfer_matrix_count_matches_the_walk(shape):
    count = [0]
    _walk_partitions(*shape, lambda labels, parts: count.__setitem__(0, count[0] + 1))
    assert _count_connected_partitions(*shape) == count[0]


def test_exhaustive_matches_quadrants_and_greedy_4x4():
    # 1,691,690 partitions; the bounded search visits a few thousand of them
    assert _count_connected_partitions(4, 4) == 1691690
    m, params = quadrant_map()
    best = sb.exhaustive_partition(m, params, cell_limit=16)
    assert np.array_equal(best.block_of,
                          [[0, 0, 1, 1], [0, 0, 1, 1], [2, 2, 3, 3], [2, 2, 3, 3]])
    greedy = sb.partition_som(m, params)
    assert np.array_equal(greedy.block_of, best.block_of)
    assert greedy.cost == pytest.approx(best.cost, abs=1e-9)


def _reference_exhaustive(som_map, params):
    """exhaustive_partition as it was before it bounded its walk: score every
    connected partition and keep the first cheapest."""
    rows, cols = som_map.rows, som_map.cols
    mask_cost = BlockCosts(som_map, params).cost
    state = {"cost": math.inf, "labels": None}

    def visit(labels, parts):
        total = math.fsum(map(mask_cost, parts))
        if total < state["cost"] or (total == state["cost"] and tuple(labels) < state["labels"]):
            state["cost"] = total
            state["labels"] = tuple(labels)

    _walk_partitions(rows, cols, visit)
    best_cost, best_labels = state["cost"], state["labels"]

    block_of = np.array(best_labels, dtype=int).reshape(rows, cols)
    return Partition(block_of=block_of, n_blocks=len(set(best_labels)), cost=best_cost)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(shape=st.sampled_from([(1, 2), (2, 1), (1, 3), (2, 2), (1, 4), (2, 3), (3, 2), (3, 3)]),
       seed=st.integers(0, 2**32 - 1), M=st.integers(1, 3), empty=st.floats(0.0, 0.3),
       spread=st.floats(0.01, 3.0), exponent=st.sampled_from(sb.bayes_cost.RANGE_EXPONENTS),
       rule=st.sampled_from(sorted(sb.bayes_cost.N_SCALE_RULES)),
       f_R=st.floats(0.1, 10.0), f_sigma=st.floats(0.2, 5.0))
@example(shape=(3, 4), seed=1, M=2, empty=0.1, spread=2.0, exponent="per_block", rule="unit",
         f_R=1.0, f_sigma=1.0)
@example(shape=(3, 4), seed=2, M=1, empty=0.0, spread=0.5, exponent="per_pe", rule="unit",
         f_R=0.3, f_sigma=2.0)
@example(shape=(3, 4), seed=3, M=3, empty=0.3, spread=1.0, exponent="per_block", rule="sqrt",
         f_R=8.0, f_sigma=0.5)
@example(shape=(2, 5), seed=4, M=2, empty=0.2, spread=0.05, exponent="per_block", rule="unit",
         f_R=0.1, f_sigma=1.5)
@example(shape=(2, 5), seed=5, M=1, empty=0.0, spread=3.0, exponent="per_pe", rule="sqrt",
         f_R=10.0, f_sigma=0.8)
@example(shape=(4, 3), seed=6, M=2, empty=0.1, spread=1.0, exponent="per_block", rule="unit",
         f_R=1.0, f_sigma=1.0)
@example(shape=(2, 6), seed=7, M=2, empty=0.1, spread=1.5, exponent="per_pe", rule="unit",
         f_R=0.5, f_sigma=1.0)
def test_bounded_oracle_matches_the_plain_walk(shape, seed, M, empty, spread, exponent, rule,
                                                f_R, f_sigma):
    # spread sets how far cell means scatter against cell stds of 0.1-0.8:
    # small spreads make joins nearly free, where a loose bound would cut
    rng = np.random.default_rng(seed)
    rows, cols = shape
    means = rng.normal(0.0, spread, (rows, cols, M))
    grid = [[None if (r or c) and rng.random() < empty else means[r, c] for c in range(cols)]
            for r in range(rows)]
    m = make_map(grid, n_members=3, stds=rng.uniform(0.1, 0.8, (rows, cols, M)).tolist())
    params = sb.CostParams(R=rng.uniform(2.0, 40.0, M), sigma_floor=np.full(M, 1e-9),
                           n_scale_rule=sb.bayes_cost.N_SCALE_RULES[rule],
                           range_exponent=exponent, f_R=f_R, f_sigma=f_sigma)
    best = sb.exhaustive_partition(m, params, cell_limit=12)
    assert best == _reference_exhaustive(m, params)   # cost bits included


def test_oracle_recosts_the_heuristic_partition_it_starts_from(monkeypatch):
    # The heuristic's partition seeds the bounded walk.  A cost it misstates,
    # or a block it leaves disconnected, must not decide the answer.
    real = sb.partition_som
    seeds = []

    def misstated(som_map, params, costs=None):
        p = real(som_map, params, costs)
        seeds.append(p)
        return Partition(block_of=p.block_of, n_blocks=p.n_blocks, cost=-1e9)

    monkeypatch.setattr("somblocks.partition.partition_som", misstated)
    params = plain_params(R=20.0, M=2)
    rng = np.random.default_rng(31)
    for _ in range(4):
        m = random_map(rng, rows=3, cols=3, M=2)
        assert sb.exhaustive_partition(m, params) == _reference_exhaustive(m, params)
    assert len(seeds) == 4

    # the ends of a 1x3 strip agree; joining them across the middle would
    # be cheapest, but that block is not connected
    m = make_map([[0.0, 9.0, 0.0]], s=0.4)
    params = plain_params(R=30.0)
    monkeypatch.setattr("somblocks.partition.partition_som",
                        lambda *args: Partition(np.array([[0, 1, 0]]), 2, cost=-1e9))
    best = sb.exhaustive_partition(m, params)
    assert best == _reference_exhaustive(m, params)
    assert sb.partition_cost(Partition(np.array([[0, 1, 0]]), 2), m, params) < best.cost


def synthetic_families(rng):
    yield "stripes", make_map([[0.0, 0.0, 0.0], [9.0, 9.0, 9.0], [9.0, 9.0, 9.0]], s=0.4)
    yield "quadrants", make_map([[0.0, 9.0], [18.0, 27.0]], s=0.4)
    yield "uniform", make_map([[1.0] * 3] * 3, s=0.6)
    for i in range(3):
        yield f"random{i}", random_map(rng, rows=3, cols=3, M=1, empty_prob=0.0)


def test_greedy_matches_exhaustive_on_structured_families():
    rng = np.random.default_rng(12)
    params = plain_params(R=30.0)
    for name, m in synthetic_families(rng):
        best = sb.exhaustive_partition(m, params, cell_limit=9)
        greedy = sb.partition_som(m, params)
        gap = greedy.cost - best.cost
        assert gap >= -1e-9, name
        if name in ("stripes", "quadrants", "uniform"):
            assert np.array_equal(greedy.block_of, best.block_of), name


def test_greedy_never_loses_to_trivial_partitions():
    rng = np.random.default_rng(3)
    for _ in range(25):
        m = random_map(rng, M=2)
        params = plain_params(M=2, R=20.0)
        p = sb.partition_som(m, params)
        validate_partition(p)
        singles = Partition.from_labels(
            np.arange(m.rows * m.cols).reshape(m.rows, m.cols))
        whole = Partition.from_labels(np.zeros((m.rows, m.cols), dtype=int))
        bound = min(sb.partition_cost(singles, m, params),
                    sb.partition_cost(whole, m, params))
        assert p.cost <= bound + 1e-9


def test_merge_is_idempotent_on_its_output():
    rng = np.random.default_rng(8)
    for _ in range(10):
        m = random_map(rng, rows=3, cols=4, M=1, empty_prob=0.0)
        params = plain_params(R=15.0)
        p = sb.partition_som(m, params)
        # re-run the merge over the blocks of the final partition
        again_cost = math.fsum(
            sb.block_cost_for_pes([m.pe(r, c) for r, c in p.block_cells(b)], params)
            for b in range(p.n_blocks))
        assert again_cost == pytest.approx(p.cost, abs=1e-9)
        joined_better = False
        for a in range(p.n_blocks):
            for b in range(a + 1, p.n_blocks):
                ca = sb.block_cost_for_pes([m.pe(r, c) for r, c in p.block_cells(a)], params)
                cb = sb.block_cost_for_pes([m.pe(r, c) for r, c in p.block_cells(b)], params)
                cells = p.block_cells(a) + p.block_cells(b)
                adjacent = any((r + dr, c + dc) in set(p.block_cells(b))
                               for r, c in p.block_cells(a)
                               for dr, dc in ((0, 1), (0, -1), (1, 0), (-1, 0)))
                if adjacent:
                    cu = sb.block_cost_for_pes([m.pe(r, c) for r, c in cells], params)
                    if cu < ca + cb:
                        joined_better = True
        assert not joined_better


def test_partition_file_round_trip(tmp_path):
    p = Partition.from_labels(np.array([[0, 0, 1], [2, 2, 1]]), cost=12.5)
    path = tmp_path / "p.json"
    save_partition(p, path, params_echo={"k": 1})
    q = load_partition(path)
    assert q == p
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(PartitionError):
        load_partition(bad)


def test_validate_partition_rejects_disconnected():
    p = Partition(block_of=np.array([[0, 1], [1, 0]]), n_blocks=2)
    with pytest.raises(PartitionError, match="edge-connected"):
        validate_partition(p)
