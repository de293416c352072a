import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import somblocks as sb
from somblocks.bayes_cost import BlockCosts, _mask_cells
from somblocks.partition import (Partition, PartitionError, _inner_cells, _label_grid,
                                 _label_masks, _merge_record, _quadtree, _region_mask,
                                 _subdivide, _walk_partitions, component_labels,
                                 enumerate_connected_partitions, flood, load_partition,
                                 partition_to_json, save_partition, validate_partition)

from conftest import make_map, map_cells, plain_params, random_map


def test_quadtree_keeps_uniform_2x2_whole():
    m = make_map([[1.0, 1.0], [1.0, 1.0]], s=1.0)
    params = plain_params(R=10.0)
    whole = sb.block_cost_for_pes(map_cells(m), params)
    singletons = 4 * math.log(10.0)
    assert whole == pytest.approx(4.713, abs=1e-3)
    assert singletons == pytest.approx(9.210, abs=1e-3)
    leaves = sb.quadtree_split(BlockCosts(m, params))
    assert leaves == [0b1111]


def test_quadtree_singleton_region_is_leaf():
    m = make_map([[1.0, 9.0]], s=0.1)
    leaves = sb.quadtree_split(BlockCosts(m, plain_params(R=10.0)))
    for leaf in leaves:
        assert leaf > 0
    covered = sorted(divmod(k, m.cols) for leaf in leaves for k in _mask_cells(leaf))
    assert covered == [(0, 0), (0, 1)]


def quadrant_map():
    mg = [[0, 0, 10, 10], [0, 0, 10, 10], [20, 20, 30, 30], [20, 20, 30, 30]]
    return make_map(mg, s=0.5), plain_params(R=60.0)


def test_quadtree_splits_four_quadrants_once():
    m, params = quadrant_map()
    leaves = sb.quadtree_split(BlockCosts(m, params))
    assert sorted(leaves) == sorted(_region_mask(bounds, 4) for bounds in [
        (0, 2, 0, 2), (0, 2, 2, 4), (2, 4, 0, 2), (2, 4, 2, 4)])


def _reference_split(bounds, cost, cols):
    """quadtree_split's recursion as it was before it walked a tree built
    once per grid shape: quadrants and masks are made afresh at every node.
    bounds is (r0, r1, c0, c1); returns the leaves' masks."""
    r0, r1, c0, c1 = bounds
    mask = _region_mask(bounds, cols)
    if r1 - r0 == 1 and c1 - c0 == 1:
        return [mask]
    subs = _subdivide(bounds)
    whole = cost(mask)
    parts = math.fsum(cost(_region_mask(s, cols)) for s in subs)
    if whole > parts:
        out = []
        for s in subs:
            out.extend(_reference_split(s, cost, cols))
        return out
    return [mask]


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
                           range_exponent=exponent).scaled(f_R=f_R, f_sigma=f_sigma)

    def recording(seen):
        costs = BlockCosts(m, params)
        cost = costs.cost
        costs.cost = lambda mask: seen.append(mask) or cost(mask)
        return costs

    walked, expected = [], []
    leaves = sb.quadtree_split(recording(walked))
    assert leaves == _reference_split((0, rows, 0, cols), recording(expected).cost, cols)
    assert walked == expected                   # the same masks, in the same order
    assert sb.quadtree_split(BlockCosts(m, params)) == leaves
    assert _quadtree(rows, cols) is _quadtree(rows, cols)


def test_merge_joins_equal_singletons():
    m = make_map([[0.0, 0.0]], s=1.0)
    params = plain_params(R=10.0)
    joined = sb.block_cost_for_pes(map_cells(m), params)
    separate = 2 * math.log(10.0)
    assert joined == pytest.approx(3.222, abs=1e-3)
    assert separate == pytest.approx(4.605, abs=1e-3)
    p = sb.merge_regions([0b01, 0b10], BlockCosts(m, params))
    assert p.n_blocks == 1


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), exponent=st.sampled_from(sb.bayes_cost.RANGE_EXPONENTS))
def test_merge_ignores_the_order_of_its_regions(seed, exponent):
    rng = np.random.default_rng(seed)
    m = random_map(rng, M=int(rng.integers(1, 4)), empty_prob=0.2)
    params = plain_params(M=m.n_attributes, R=float(rng.uniform(2.0, 40.0)), exponent=exponent)
    singletons = [1 << k for k in range(m.rows * m.cols)]
    p = sb.partition_som(m, params)
    assert Partition.from_labels(p.block_of, p.cost) == p      # blocks in canonical order
    for tiling in (sb.quadtree_split(BlockCosts(m, params)), singletons):
        expected = sb.merge_regions(tiling, BlockCosts(m, params))
        for _ in range(3):
            shuffled = [tiling[i] for i in rng.permutation(len(tiling))]
            # a fresh engine each time: no merge reads costs another one cached
            assert sb.merge_regions(shuffled, BlockCosts(m, params)) == expected   # cost included


def _reference_record(mask, rows, cols):
    """A block's merge record read from its list of cells: ((first column,
    first row), one past the last column, mask, the cells next to one)."""
    cells = [(k // cols, k % cols) for k in _mask_cells(mask)]
    near = 0
    for r, c in cells:
        for r2, c2 in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if 0 <= r2 < rows and 0 <= c2 < cols:
                near |= 1 << (r2 * cols + c2)
    return ((min(c for _, c in cells), min(r for r, _ in cells)),
            max(c for _, c in cells) + 1, mask, near)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_a_merge_record_is_read_from_the_blocks_cells(seed):
    # any nonzero mask, connected or not, sparse or dense
    rng = np.random.default_rng(seed)
    rows, cols = (int(v) for v in rng.integers(1, 9, 2))
    cells = rng.random(rows * cols) < rng.uniform(0.0, 1.0)
    cells[rng.integers(rows * cols)] = True
    mask = sum(1 << k for k in np.flatnonzero(cells).tolist())
    record = _merge_record(mask, cols, _inner_cells(rows, cols), (1 << rows * cols) - 1)
    assert record == _reference_record(mask, rows, cols)


@pytest.mark.parametrize("rows, cols", [(1, 1), (1, 7), (7, 1), (3, 4), (5, 5), (6, 9)])
def test_every_quadtree_node_holds_its_rectangles_merge_record(rows, cols):
    stack = [_quadtree(rows, cols)]
    while stack:
        block, _, children = stack.pop()
        assert block == _reference_record(block[2], rows, cols)
        stack.extend(children)


def _reference_merge(masks, som_map, params):
    """merge_regions without its two shortcuts: every later block is tested,
    not only those up to the first that starts right of the block's last
    column, and every adjacent pair is costed, with no join_rejected.  Each
    block's key, (first column, first row), is read from its list of cells."""
    rows, cols = som_map.rows, som_map.cols
    cost = BlockCosts(som_map, params).cost
    inner = _inner_cells(rows, cols)
    grid = (1 << (rows * cols)) - 1
    blocks = []
    for mask in masks:
        cells = _mask_cells(mask)
        key = (min(k % cols for k in cells), min(k // cols for k in cells))
        near = (mask << cols | mask >> cols
                | (mask & inner) << 1 | (mask >> 1) & inner) & grid
        blocks.append((key, mask, near))
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
                           range_exponent=exponent).scaled(f_R=f_R, f_sigma=f_sigma)
    costs = BlockCosts(m, params)
    if start == "quadtree":
        tiling = sb.quadtree_split(costs)
    else:
        tiling = [1 << k for k in range(m.rows * m.cols)]
    assert sb.merge_regions(tiling, costs) == _reference_merge(tiling, m, params)


def test_a_merged_blocks_key_takes_the_first_row_of_either_side():
    # Costs set by hand on a 4x3 grid, and every join costed.  The first pass
    # joins blocks that start in column 0; the union's key must take their
    # smaller first row, which orders the next pass.  With the larger row the
    # merge ends at 0 0 0 / 1 0 0 / 1 0 0 / 1 1 1, cost 2.
    m = make_map([[0.0] * 3] * 4)
    costs = BlockCosts(m, plain_params())
    costs.cost = {1: 1, 2: 7, 3: 4, 72: 4, 73: 6, 180: 8, 183: 1, 256: 2, 439: 1, 511: 6,
                  512: 2, 584: 6, 3072: 2, 3255: 7, 3584: 0, 3656: 1, 4023: 0,
                  4095: 7}.__getitem__
    costs.join_rejected = lambda a, b: False
    tiling = list(_label_masks([0, 1, 2, 3, 2, 2, 3, 2, 4, 5, 6, 6]).values())
    p = sb.merge_regions(tiling, costs)
    assert (p.signature(), p.cost) == ((0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0), 4.0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), exponent=st.sampled_from(sb.bayes_cost.RANGE_EXPONENTS),
       rule=st.sampled_from(sorted(sb.bayes_cost.N_SCALE_RULES)), f_R=st.floats(0.1, 20.0))
def test_partition_som_matches_the_checked_split_and_merge(seed, exponent, rule, f_R):
    # partition_som hands the split's leaves to the merge unchecked; the
    # public steps, on a second fresh engine, check them and decide the same
    rng = np.random.default_rng(seed)
    M = int(rng.integers(1, 4))
    m = random_map(rng, M=M, empty_prob=0.25)
    params = sb.CostParams(R=rng.uniform(1.0, 50.0, M), sigma_floor=rng.uniform(0.02, 0.6, M),
                           sigma_const=float(rng.uniform(0.5, 4.0)),
                           n_scale_rule=sb.bayes_cost.N_SCALE_RULES[rule],
                           range_exponent=exponent).scaled(f_R=f_R)
    own, public = BlockCosts(m, params), BlockCosts(m, params)
    p = sb.partition_som(m, params, own)
    q = sb.merge_regions(sb.quadtree_split(public), public)
    assert (p.signature(), p.n_blocks, p.cost.hex()) == (q.signature(), q.n_blocks, q.cost.hex())
    assert [end.hex() for end in own.interval] == [end.hex() for end in public.interval]
    assert type(p.n_blocks) is int and type(p.cost) is float
    assert p.block_of.dtype.kind == "i" and not p.block_of.flags.writeable
    assert np.array_equal(Partition.from_labels(p.block_of).block_of, p.block_of)
    validate_partition(p)


@pytest.mark.parametrize("rows, cols", [(1, 12), (12, 1), (3, 10)])
@pytest.mark.parametrize("start", ["quadtree", "singletons"])
@pytest.mark.parametrize("exponent", sb.bayes_cost.RANGE_EXPONENTS)
@pytest.mark.parametrize("rule", sorted(sb.bayes_cost.N_SCALE_RULES))
def test_merge_matches_the_plain_scan_on_strips_and_wide_grids(rows, cols, start, exponent,
                                                               rule):
    # maps wide enough that a block's scan stops well before the last block
    rng = np.random.default_rng(rows * 100 + cols)
    for _ in range(4):
        M = int(rng.integers(1, 4))
        m = random_map(rng, rows=rows, cols=cols, M=M, empty_prob=0.25)
        params = sb.CostParams(R=rng.uniform(1.0, 50.0, M),
                               sigma_floor=rng.uniform(0.02, 0.6, M),
                               sigma_const=float(rng.uniform(0.5, 4.0)),
                               n_scale_rule=sb.bayes_cost.N_SCALE_RULES[rule],
                               range_exponent=exponent).scaled(
            f_R=float(rng.uniform(0.03, 30.0)), f_sigma=float(rng.uniform(0.1, 10.0)))
        costs = BlockCosts(m, params)
        if start == "quadtree":
            tiling = sb.quadtree_split(costs)
        else:
            tiling = [1 << k for k in range(rows * cols)]
        assert sb.merge_regions(tiling, costs) == _reference_merge(tiling, m, params)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), exponent=st.sampled_from(sb.bayes_cost.RANGE_EXPONENTS),
       rule=st.sampled_from(sorted(sb.bayes_cost.N_SCALE_RULES)),
       f_R=st.floats(0.03, 30.0), open_share=st.floats(0.2, 0.9))
def test_merge_matches_the_plain_scan_on_connected_tilings(seed, exponent, rule, f_R,
                                                          open_share):
    # tilings by blocks of any connected shape: the components of random open edges
    rng = np.random.default_rng(seed)
    M = int(rng.integers(1, 4))
    m = random_map(rng, M=M, empty_prob=0.25)
    params = sb.CostParams(R=rng.uniform(1.0, 50.0, M), sigma_floor=rng.uniform(0.02, 0.6, M),
                           sigma_const=float(rng.uniform(0.5, 4.0)),
                           n_scale_rule=sb.bayes_cost.N_SCALE_RULES[rule],
                           range_exponent=exponent).scaled(f_R=f_R)
    h = rng.random((m.rows, m.cols - 1)) < open_share
    v = rng.random((m.rows - 1, m.cols)) < open_share
    labels = component_labels(np.ones((m.rows, m.cols), dtype=bool), h, v)
    tiling = list(_label_masks(Partition.from_labels(labels).block_of.ravel().tolist()).values())
    assert sb.merge_regions(tiling, BlockCosts(m, params)) == _reference_merge(tiling, m, params)


@pytest.mark.parametrize("exponent", sb.bayes_cost.RANGE_EXPONENTS)
@pytest.mark.parametrize("rule", sorted(sb.bayes_cost.N_SCALE_RULES))
def test_a_join_whose_precision_underflows_is_costed(rule, exponent):
    # floors of 1e100 give each cell w = 1e-200, so the join's H = S_a S_b /
    # (S_a + S_b) underflows to 0 and join_rejected leaves the join to the cost
    m = make_map([[0.0, 1.0]])
    params = sb.CostParams(R=[10.0], sigma_floor=[1e100],
                           n_scale_rule=sb.bayes_cost.N_SCALE_RULES[rule], range_exponent=exponent)
    costs = BlockCosts(m, params)
    assert not costs.join_rejected(0b01, 0b10)
    assert sb.merge_regions([0b01, 0b10], costs) == _reference_merge([0b01, 0b10], m, params)


def test_merge_respects_gap_criterion():
    # keep separate iff gap^2 > 2 sigma^2 ln(R / (sigma sqrt(2 pi)))
    sigma, R = 1.0, 10.0
    crit = math.sqrt(2 * sigma**2 * math.log(R / (sigma * math.sqrt(2 * math.pi))))
    wide = crit * 1.3
    m = make_map([[0.0, wide, 2 * wide]], s=sigma)
    tiling = [0b001, 0b010, 0b100]
    p = sb.merge_regions(tiling, BlockCosts(m, plain_params(R=R)))
    assert p.n_blocks == 3
    narrow = crit * 0.5
    m2 = make_map([[0.0, narrow, 2 * narrow]], s=sigma)
    p2 = sb.merge_regions(tiling, BlockCosts(m2, plain_params(R=R)))
    assert p2.n_blocks == 1


def test_merge_single_region_unchanged():
    m = make_map([[1.0, 2.0], [3.0, 4.0]], s=0.5)
    p = sb.merge_regions([0b1111], BlockCosts(m, plain_params(R=10.0)))
    assert p.n_blocks == 1


def test_merge_rejects_bad_tilings():
    m = make_map([[1.0, 2.0], [3.0, 4.0]], s=0.5)     # cells 0 1 / 2 3
    costs = BlockCosts(m, plain_params(R=10.0))
    gap = "blocks leave cells of the grid uncovered"
    cases = [
        ([0b0101], gap),
        ([0b0101, 0b1000], gap),
        ([0b1111, 0b0010], "block 1 overlaps an earlier block"),
        ([0b1111, 1 << 4], "block 1 has a cell outside the 2x2 grid"),
        ([0b0011, 0b111100], "block 1 has a cell outside the 2x2 grid"),
        ([1 << 9, 0b1111], "block 0 has a cell outside the 2x2 grid"),
        # an overlap before a mask outside the grid: the outside one is named
        ([0b1111, 0b0001, 1 << 4], "block 2 has a cell outside the 2x2 grid"),
        ([True, 0b1110], "block 0 must be an integer mask, got True"),
        ([0b0011, 12.0], "block 1 must be an integer mask, got 12.0"),
        ([0b1111, 0], "block 1 must be a positive mask, got 0"),
        ([-1, 0b1111], "block 0 must be a positive mask, got -1"),
        ([0b1001, 0b0010, 0b0100], "block 0 is not edge-connected"),
        # each mask is checked before the tiling as a whole
        ([0b0011, 0b0011, 0b0110], "block 2 is not edge-connected"),
    ]
    for masks, message in cases:
        with pytest.raises(PartitionError, match=f"^{re.escape(message)}$"):
            sb.merge_regions(masks, costs)


def test_merge_takes_numpy_integer_masks():
    m = make_map([[1.0, 1.1], [5.0, 5.1]], s=0.5)
    params = plain_params(R=10.0)
    for tiling in ([0b0011, 0b1100], [1, 2, 4, 8]):
        # a fresh engine each: the int merge must not read costs the np.int64 one cached
        p = sb.merge_regions([np.int64(mask) for mask in tiling], BlockCosts(m, params))
        assert p == sb.merge_regions(tiling, BlockCosts(m, params))        # cost included
    assert p.n_blocks == 2


def test_partition_som_uniform_map_is_one_block():
    m = make_map([[2.0] * 4] * 4, s=1.0)
    p = sb.partition_som(m, plain_params(R=10.0))
    assert p.n_blocks == 1
    validate_partition(p)


@pytest.mark.parametrize("exponent", ["per_block", "per_pe"])
def test_partition_som_single_occupied_cell(exponent):
    m = make_map([[None, None], [None, 3.0]], s=0.2)
    params = plain_params(R=10.0, exponent=exponent)
    costs = sb.BlockCosts(m, params)
    p = sb.partition_som(m, params, costs)
    assert p.n_blocks == 1
    # one cell pays the prior once under per_block, for no further cell under per_pe
    assert p.cost == pytest.approx(math.log(10.0) if exponent == "per_block" else 0.0)
    # no decision changes the count of occupied blocks, so none bounds f_R
    assert costs.interval == [-math.inf, math.inf]


def test_fixture_map_partitions_into_three_blocks(fixture_map, iris_params):
    p = sb.partition_som(fixture_map, iris_params)
    assert p.n_blocks == 3
    validate_partition(p)


def test_a_partition_is_unequal_to_anything_else():
    p = sb.Partition.from_labels([[0, 1]])
    assert (p == "x") is False
    assert p != 5


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


WALK_SHAPES = [(1, 2), (2, 2), (1, 5), (2, 3), (3, 3), (2, 5), (3, 4), (4, 3), (2, 6)]


@pytest.mark.parametrize("shape", WALK_SHAPES, ids="{0[0]}x{0[1]}".format)
def test_transfer_matrix_count_matches_the_walk(shape):
    count = [0]
    _walk_partitions(*shape, lambda labels, parts: count.__setitem__(0, count[0] + 1))
    assert _count_connected_partitions(*shape) == count[0]


@pytest.mark.parametrize("shape", WALK_SHAPES, ids="{0[0]}x{0[1]}".format)
def test_walk_cuts_a_stranded_piece_when_it_closes(shape):
    # A walk that cut a stranded block piece only later (say when its row
    # completes) would place many cells below each dead branch: 20.7 per
    # partition on 2x6.
    visits, grows = [0], [0]

    def grow(acc, k, old, new):
        grows[0] += 1
        return acc

    _walk_partitions(*shape, lambda labels, parts: visits.__setitem__(0, visits[0] + 1), grow)
    assert grows[0] < 2 * visits[0]


@pytest.mark.parametrize("shape", [(3, 3), (3, 4), (2, 6)], ids="{0[0]}x{0[1]}".format)
def test_walk_floods_each_closed_block_once(monkeypatch, shape):
    # The seal test depends only on the cell placed and the closed block, so
    # the walk floods each such pair once: 435, 2,631 and 1,961 floods for
    # the 1,434, 27,780 and 17,316 partitions here, where flooding at every
    # placement took 6,438, 137,162 and 92,471.
    floods, visits = [0], [0]

    def counted(*args):
        floods[0] += 1
        return flood(*args)

    monkeypatch.setattr("somblocks.partition.flood", counted)
    _walk_partitions(*shape, lambda labels, parts: visits.__setitem__(0, visits[0] + 1))
    assert 0 < 3 * floods[0] < visits[0]


def _connected_labelings(rows: int, cols: int) -> list[tuple]:
    """Every restricted-growth labeling of the grid that validate_partition
    accepts, in lexicographic order."""
    n = rows * cols
    labels = [0] * n
    found = []

    def rec(k: int, blocks: int) -> None:
        if k == n:
            try:
                validate_partition(Partition(np.array(labels).reshape(rows, cols), blocks))
            except PartitionError:
                return
            found.append(tuple(labels))
            return
        for b in range(blocks + 1):
            labels[k] = b
            rec(k + 1, max(blocks, b + 1))

    rec(0, 0)
    return found


@pytest.mark.parametrize("shape", [(r, c) for r in range(1, 11) for c in range(1, 10 // r + 1)],
                         ids="{0[0]}x{0[1]}".format)
def test_walk_visits_exactly_the_connected_labelings_in_order(shape):
    visited = []
    _walk_partitions(*shape, lambda labels, parts: visited.append(tuple(labels)))
    assert visited == _connected_labelings(*shape)


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
       f_R=st.floats(0.1, 10.0), f_sigma=st.floats(0.2, 5.0),
       floor=st.sampled_from([1e-9, 0.3, 1.5, 3.0]))
@example(shape=(3, 4), seed=1, M=2, empty=0.1, spread=2.0, exponent="per_block", rule="unit",
         f_R=1.0, f_sigma=1.0, floor=1e-9)
@example(shape=(3, 4), seed=2, M=1, empty=0.0, spread=0.5, exponent="per_pe", rule="unit",
         f_R=0.3, f_sigma=2.0, floor=1e-9)
@example(shape=(3, 4), seed=3, M=3, empty=0.3, spread=1.0, exponent="per_block", rule="sqrt",
         f_R=8.0, f_sigma=0.5, floor=1e-9)
@example(shape=(2, 5), seed=4, M=2, empty=0.2, spread=0.05, exponent="per_block", rule="unit",
         f_R=0.1, f_sigma=1.5, floor=1e-9)
@example(shape=(2, 5), seed=5, M=1, empty=0.0, spread=3.0, exponent="per_pe", rule="sqrt",
         f_R=10.0, f_sigma=0.8, floor=1e-9)
@example(shape=(4, 3), seed=6, M=2, empty=0.1, spread=1.0, exponent="per_block", rule="unit",
         f_R=1.0, f_sigma=1.0, floor=1e-9)
@example(shape=(2, 6), seed=7, M=2, empty=0.1, spread=1.5, exponent="per_pe", rule="unit",
         f_R=0.5, f_sigma=1.0, floor=1e-9)
# floors above 1 give empty cells a positive ln sigma: a bound that charged
# them for it would cut the cheapest partition (K=3) and return a K=2 one
@example(shape=(3, 3), seed=6, M=2, empty=0.4, spread=1.0, exponent="per_block", rule="unit",
         f_R=1.0, f_sigma=1.0, floor=1.5)
def test_bounded_oracle_matches_the_plain_walk(shape, seed, M, empty, spread, exponent, rule,
                                                f_R, f_sigma, floor):
    # spread sets how far cell means scatter against cell stds of 0.1-0.8:
    # small spreads make joins nearly free, where a loose bound would cut
    rng = np.random.default_rng(seed)
    rows, cols = shape
    means = rng.normal(0.0, spread, (rows, cols, M))
    grid = [[None if (r or c) and rng.random() < empty else means[r, c] for c in range(cols)]
            for r in range(rows)]
    m = make_map(grid, n_members=3, stds=rng.uniform(0.1, 0.8, (rows, cols, M)).tolist())
    params = sb.CostParams(R=rng.uniform(2.0, 40.0, M), sigma_floor=np.full(M, floor),
                           n_scale_rule=sb.bayes_cost.N_SCALE_RULES[rule],
                           range_exponent=exponent).scaled(f_R=f_R, f_sigma=f_sigma)
    best = sb.exhaustive_partition(m, params, cell_limit=12)
    assert best == _reference_exhaustive(m, params)   # cost bits included


def test_oracle_runs_no_heuristic_and_no_relabeling(monkeypatch):
    # The oracle audits partition_som, so it must not call it, nor check or
    # relabel a partition it did not walk to.
    def refused(*args, **kwargs):
        raise AssertionError("exhaustive_partition called a function it must not")

    for name in ("partition_som", "validate_partition", "_label_masks"):
        monkeypatch.setattr(f"somblocks.partition.{name}", refused)
    rng = np.random.default_rng(28)
    for shape in ((3, 3), (3, 4)):
        for rule in ("unit", "sqrt"):
            for exponent in sb.bayes_cost.RANGE_EXPONENTS:
                m = random_map(rng, *shape, M=2)
                params = sb.CostParams(R=rng.uniform(5.0, 30.0, 2), sigma_floor=np.full(2, 0.05),
                                       n_scale_rule=sb.bayes_cost.N_SCALE_RULES[rule],
                                       range_exponent=exponent)
                best = sb.exhaustive_partition(m, params, cell_limit=12)
                want = _reference_exhaustive(m, params)
                assert best == want, (shape, rule, exponent)
                assert best.cost.hex() == want.cost.hex()


def test_the_bounded_oracle_visits_a_small_share_of_the_partitions(monkeypatch):
    # A bound that never tightens still returns the right answers, so only
    # the count of completed partitions shows that the walk is cut.
    visits = []

    def counted(rows, cols, visit, *grow):
        def counting(labels, parts):
            visits.append(1)
            visit(labels, parts)
        _walk_partitions(rows, cols, counting, *grow)

    monkeypatch.setattr("somblocks.partition._walk_partitions", counted)
    for shape, total in (((3, 3), 1434), ((3, 4), 27780)):
        m = random_map(np.random.default_rng(3), *shape, M=2)
        for exponent in sb.bayes_cost.RANGE_EXPONENTS:
            visits.clear()
            sb.exhaustive_partition(m, plain_params(M=2, R=10.0, floor=0.3, exponent=exponent),
                                    cell_limit=12)
            assert 0 < len(visits) < total / 10, (shape, exponent)


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
        block_cells = [list(map(tuple, np.argwhere(p.block_of == b).tolist()))
                       for b in range(p.n_blocks)]
        # re-run the merge over the blocks of the final partition
        again_cost = math.fsum(
            sb.block_cost_for_pes([m.pe(r, c) for r, c in block_cells[b]], params)
            for b in range(p.n_blocks))
        assert again_cost == pytest.approx(p.cost, abs=1e-9)
        joined_better = False
        for a in range(p.n_blocks):
            for b in range(a + 1, p.n_blocks):
                ca = sb.block_cost_for_pes([m.pe(r, c) for r, c in block_cells[a]], params)
                cb = sb.block_cost_for_pes([m.pe(r, c) for r, c in block_cells[b]], params)
                cells = block_cells[a] + block_cells[b]
                adjacent = any((r + dr, c + dc) in set(block_cells[b])
                               for r, c in block_cells[a]
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
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(PartitionError):
        load_partition(bad)


def test_save_partition_refuses_what_load_partition_would(tmp_path):
    with pytest.raises(PartitionError, match="^block 0 is not edge-connected$"):
        save_partition(Partition(np.array([[0, 1], [1, 0]]), 2), tmp_path / "p.json")
    assert not list(tmp_path.iterdir())


def test_partition_to_json_writes_a_numpy_block_count(tmp_path):
    p = Partition(block_of=np.array([[0, 0, 1], [2, 2, 1]]), n_blocks=np.int64(3))
    assert json.loads(partition_to_json(p))["K"] == 3
    save_partition(p, tmp_path / "p.json")
    assert load_partition(tmp_path / "p.json") == Partition.from_labels(p.block_of)


@st.composite
def partition_arguments(draw):
    """block_of, n_blocks and cost for Partition, valid or not: a connected
    tiling (canonical) or free labels, as an array of some dtype or a list;
    K as the labels' count or off by one, as a Python or numpy int or not an
    integer; cost a Python, float32 or float64 number, infinite or NaN, or no
    number."""
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    if rows and cols and draw(st.booleans()):
        opened = [draw(st.lists(st.booleans(), min_size=size, max_size=size))
                  for size in (rows * (cols - 1), (rows - 1) * cols)]
        labels = component_labels(np.ones((rows, cols), dtype=bool),
                                  np.array(opened[0], dtype=bool).reshape(rows, cols - 1),
                                  np.array(opened[1], dtype=bool).reshape(rows - 1, cols))
    else:
        labels = np.array(draw(st.lists(st.integers(0, 5), min_size=rows * cols,
                                        max_size=rows * cols)), dtype=int).reshape(rows, cols)
    dtype = draw(st.sampled_from([np.int64, np.int32, np.uint8, np.float64, np.bool_, list]))
    block_of = labels.tolist() if dtype is list else labels.astype(dtype)
    K = len(np.unique(labels)) + draw(st.sampled_from([0, 0, 1, -1]))
    K = draw(st.sampled_from([int, int, np.int64, np.int32, float, bool, lambda k: None]))(K)
    cost = draw(st.floats() | st.floats(width=32).map(np.float32) | st.floats().map(np.float64)
                | st.sampled_from([math.nan, math.inf, -math.inf, "1.0", None, True]))
    return block_of, K, cost


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(arguments=partition_arguments())
@example(arguments=(np.array([[0, 1]]), 2, np.float32(1.5)))        # float32 cost: not JSON
@example(arguments=(np.array([[0, 1]]), 2, math.nan))               # the caller's array edited
@example(arguments=(np.array([[0, 0, 1], [2, 2, 1]]), np.int64(3), np.float64(-2.5)))
def test_a_partition_that_constructs_and_validates_saves_and_loads_back_equal(arguments):
    block_of, K, cost = arguments
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "p.json"
        try:
            p = Partition(block_of=block_of, n_blocks=K, cost=cost)
        except PartitionError:
            assert not list(Path(folder).iterdir())
            return
        kept = p.block_of.tolist()
        if isinstance(block_of, np.ndarray):
            block_of[...] = 0                   # the caller's array, not the partition's
        assert p.block_of.tolist() == kept
        with pytest.raises(ValueError, match="read-only"):
            p.block_of[0, 0] = 1
        try:
            validate_partition(p)
        except PartitionError:
            with pytest.raises(PartitionError):
                save_partition(p, path)
            assert not list(Path(folder).iterdir())
            return
        save_partition(p, path)
        q = load_partition(path)
    assert q.block_of.tolist() == kept and q.n_blocks == p.n_blocks == K
    assert q.cost.hex() == p.cost.hex() == float(cost).hex()


ORDER_RULE = "block ids must be 0..K-1 numbered by first occurrence in row-major order"


@pytest.mark.parametrize("field, value, message", [
    ("block_of", [0, 0, 1, 2, 2.0, 1], "block_of entries must be integers, got 2.0"),
    ("block_of", [0.4, 0.4, 1.4, 2.4, 2.4, 1.4], "block_of entries must be integers, got 0.4"),
    ("block_of", [0, 0, 1, 2, True, 1], "block_of entries must be integers, got True"),
    ("K", 3.9, "K must be an integer, got 3.9"),
    ("K", True, "K must be an integer, got True"),
    ("rows", 2.0, "rows must be an integer, got 2.0"),
    ("cols", False, "cols must be an integer, got False"),
    ("cost", "12", "cost must be a number or null, got '12'"),
    ("cost", True, "cost must be a number or null, got True"),
    ("cost", "nan", "cost must be a number or null, got 'nan'"),
    ("cost", math.inf, "cost must be finite or null, got inf"),
    ("cost", math.nan, "cost must be finite or null, got nan"),
    ("block_of", [0, 0, 1, 2, 10**30, 1], f"block_of entries must be in 0..5, got {10**30}"),
    ("block_of", [0, 0, 1, 2, -1, 1], "block_of entries must be in 0..5, got -1"),
    ("block_of", [0, 0, 1, 2, 2], "block_of must be a list of 6 block ids, one per cell"),
    ("block_of", {}, "block_of must be a list of 6 block ids, one per cell"),
    ("block_of", [0, 1, 1, 2, 2, 0], "block 0 is not edge-connected"),
    ("block_of", [0, 0, 1, 3, 3, 1], ORDER_RULE),
    ("K", 10**30, ORDER_RULE),
    ("K", 2, ORDER_RULE),
    ("block_of", [1, 1, 0, 2, 2, 0], ORDER_RULE),
    ("rows", -5, "rows must be at least 1, got -5"),
    ("cols", 0, "cols must be at least 1, got 0"),
    ("rows", True, "rows must be an integer, got True"),
    ("rows", 0, "rows must be at least 1, got 0"),
    ("cols", "1", "cols must be an integer, got '1'"),
    ("rows", 1, "block_of must be a list of 3 block ids, one per cell"),
])
def test_load_partition_refuses_non_integer_fields(tmp_path, field, value, message):
    path = tmp_path / "p.json"
    save_partition(Partition.from_labels(np.array([[0, 0, 1], [2, 2, 1]])), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc[field] = value
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(PartitionError) as refused:
        load_partition(path)
    assert str(refused.value) == f"{path}: {message}"


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.pop("K"), "partition file is missing K$"),
    (lambda doc: doc.update(extra=1), "partition file has unknown keys extra$"),
    (lambda doc: doc.update(format_version=True), "unsupported partition format version$"),
    (lambda doc: doc.clear(), "unsupported partition format version$"),
])
def test_load_partition_names_the_key_it_refuses(tmp_path, edit, message):
    path = tmp_path / "p.json"
    save_partition(Partition.from_labels(np.array([[0, 0, 1], [2, 2, 1]])), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(PartitionError, match=f"^{re.escape(str(path))}: {message}"):
        load_partition(path)


def test_validate_partition_checks_the_block_count_before_the_ids():
    # a set of 10**12 ids would exhaust memory before the comparison
    p = Partition(block_of=np.array([[0, 1]]), n_blocks=10**12)
    with pytest.raises(PartitionError, match=f"^{ORDER_RULE}$"):
        validate_partition(p)


@pytest.mark.parametrize("K", [2.0, np.float64(2), True], ids=["float", "numpy-float", "bool"])
def test_validate_partition_refuses_a_block_count_that_is_no_integer(K):
    # 2.0 used to raise range's TypeError; True passed as a count of 1
    grid = np.array([[0, 1]]) if K == 2 else np.array([[0, 0]])
    with pytest.raises(PartitionError, match=f"^K must be an integer, got {re.escape(repr(K))}$"):
        validate_partition(Partition(block_of=grid, n_blocks=K))


def test_validate_partition_enforces_first_occurrence_numbering():
    # the grouping is valid, but its ids are swapped from Partition's numbering
    swapped = Partition(block_of=np.array([[1, 1], [0, 0]]), n_blocks=2)
    assert swapped != Partition.from_labels(swapped.block_of)
    with pytest.raises(PartitionError, match=f"^{ORDER_RULE}$"):
        validate_partition(swapped)
    validate_partition(Partition.from_labels(swapped.block_of))


def test_validate_partition_rejects_disconnected():
    p = Partition(block_of=np.array([[0, 1], [1, 0]]), n_blocks=2)
    with pytest.raises(PartitionError, match="edge-connected"):
        validate_partition(p)


def test_validate_partition_names_a_disconnected_block_among_one_cell_blocks():
    # a one-cell block is connected without a flood; the others are flooded
    p = Partition(block_of=np.array([[0, 1, 2, 1, 3]]), n_blocks=4)
    with pytest.raises(PartitionError, match="^block 1 is not edge-connected$"):
        validate_partition(p)
    validate_partition(Partition(block_of=np.array([[0, 1], [2, 3]]), n_blocks=4))


def test_validate_partition_refuses_a_block_of_that_is_not_a_2d_integer_array(fixture_map,
                                                                             iris_params):
    p = sb.partition_som(fixture_map, iris_params)
    for block_of in (p.block_of.astype(float), p.block_of.ravel()):
        with pytest.raises(PartitionError, match="^block_of must be a 2-D integer array$"):
            validate_partition(Partition(block_of=block_of, n_blocks=p.n_blocks))
