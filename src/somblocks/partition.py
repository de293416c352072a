"""Grid partitioning by quadtree split and cost-driven merge.

partition_som first splits the grid recursively wherever four quadrants are
jointly cheaper than the region as a whole, then greedily merges adjacent
regions while each merge strictly lowers the cost.  exhaustive_partition is
the small-grid oracle: it walks the partitions of the grid into
edge-connected blocks, cutting branches that cannot beat the best found,
and returns a cheapest one.
"""

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .bayes_cost import BlockCosts, CostParams, _mask_cells
from .data_model import write_text_atomic
from .som import SomMap


class PartitionError(ValueError):
    """Raised for invalid regions, partitions, or oversized oracle grids."""


@dataclass(frozen=True)
class Region:
    """Half-open rectangle of grid cells: rows [r0, r1), cols [c0, c1)."""

    r0: int
    r1: int
    c0: int
    c1: int

    def __post_init__(self):
        if not (self.r0 < self.r1 and self.c0 < self.c1):
            raise PartitionError("empty region")

    def cells(self):
        for r in range(self.r0, self.r1):
            for c in range(self.c0, self.c1):
                yield (r, c)


@dataclass(frozen=True, eq=False)
class Partition:
    """Assignment of every grid cell to one edge-connected block.

    block_of is a (rows, cols) int array of dense block ids numbered by
    first occurrence in row-major order, so equal cell groupings always
    produce identical arrays.
    """

    block_of: np.ndarray
    n_blocks: int
    cost: float = math.nan

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return (
            self.n_blocks == other.n_blocks
            and np.array_equal(self.block_of, other.block_of)
            and (self.cost == other.cost or (math.isnan(self.cost) and math.isnan(other.cost)))
        )

    @classmethod
    def from_labels(cls, labels: np.ndarray, cost: float = math.nan) -> "Partition":
        """Relabel an arbitrary cell labeling to canonical dense block ids."""
        labels = np.asarray(labels)
        block_of = np.empty(labels.shape, dtype=int)
        remap: dict = {}
        for r in range(labels.shape[0]):
            for c in range(labels.shape[1]):
                key = labels[r, c]
                if key not in remap:
                    remap[key] = len(remap)
                block_of[r, c] = remap[key]
        return cls(block_of=block_of, n_blocks=len(remap), cost=cost)

    def signature(self) -> tuple:
        return tuple(int(v) for v in self.block_of.ravel())

    def block_cells(self, block_id: int) -> list[tuple[int, int]]:
        return [(int(r), int(c)) for r, c in zip(*np.nonzero(self.block_of == block_id))]


def validate_partition(partition: Partition) -> None:
    """Check coverage, dense ids, and 4-connectivity of every block."""
    block_of = partition.block_of
    ids = set(int(v) for v in block_of.ravel())
    if ids != set(range(partition.n_blocks)):
        raise PartitionError("block ids are not dense 0..K-1")
    rows, cols = block_of.shape
    inner = _inner_cells(rows, cols)
    masks = [0] * partition.n_blocks
    for k, b in enumerate(block_of.ravel().tolist()):
        masks[b] |= 1 << k
    for b, mask in enumerate(masks):
        if flood(mask & -mask, mask & mask >> 1 & inner, mask & mask >> cols, cols) != mask:
            raise PartitionError(f"block {b} is not edge-connected")


def flood(comp: int, h: int, v: int, cols: int) -> int:
    """Grow the cell set comp across open edges until it stops changing.

    Cells are bits of a row-major bitmask.  Bit k of h opens the edge from
    cell k to k+1 and bit k of v the edge from cell k to k+cols; an open
    edge joins two cells in both directions.
    """
    while True:
        grown = comp | (comp & h) << 1 | (comp >> 1) & h | (comp & v) << cols | (comp >> cols) & v
        if grown == comp:
            return comp
        comp = grown


def component_labels(cells: np.ndarray, h: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Label the edge-connected components of a set of grid cells.

    cells is a (rows, cols) boolean array.  h (rows, cols-1) opens the edge
    between (r, c) and (r, c+1), v (rows-1, cols) the edge between (r, c)
    and (r+1, c); an open edge must join two cells.  Components are numbered
    in order of their lowest row-major cell; other cells get -1.
    """
    rows, cols = cells.shape
    h_bits = _bits(np.pad(h, ((0, 0), (0, 1))))
    v_bits = _bits(np.pad(v, ((0, 1), (0, 0))))
    rest = _bits(cells)
    found = []
    while rest:
        comp = flood(rest & -rest, h_bits, v_bits, cols)
        found.append(comp)
        rest &= ~comp
    return _label_grid(found, rows, cols)


def _inner_cells(rows: int, cols: int) -> int:
    """Bitmask of the cells that are not in the last column."""
    row = (1 << (cols - 1)) - 1
    return sum(row << (r * cols) for r in range(rows))


def _bits(flags: np.ndarray) -> int:
    """Row-major bitmask of the true entries of a boolean array."""
    return int.from_bytes(np.packbits(flags.ravel(), bitorder="little").tobytes(), "little")


def _label_grid(masks, rows: int, cols: int) -> np.ndarray:
    """(rows, cols) array giving each cell the index of its mask, -1 for none."""
    labels = np.full(rows * cols, -1)
    for b, mask in enumerate(masks):
        labels[_mask_cells(mask)] = b
    return labels.reshape(rows, cols)


def _subdivide(region: Region) -> list[Region]:
    """Quadrants of a region (two halves when one dimension is 1)."""
    rn, cn = region.r1 - region.r0, region.c1 - region.c0
    rm = region.r0 + (rn + 1) // 2
    cm = region.c0 + (cn + 1) // 2
    if rn == 1:
        return [Region(region.r0, region.r1, region.c0, cm),
                Region(region.r0, region.r1, cm, region.c1)]
    if cn == 1:
        return [Region(region.r0, rm, region.c0, region.c1),
                Region(rm, region.r1, region.c0, region.c1)]
    return [Region(region.r0, rm, region.c0, cm),
            Region(region.r0, rm, cm, region.c1),
            Region(rm, region.r1, region.c0, cm),
            Region(rm, region.r1, cm, region.c1)]


def _costs_for(som_map: SomMap, params: CostParams, costs: BlockCosts | None) -> BlockCosts:
    return BlockCosts(som_map, params) if costs is None else costs.at(som_map, params)


def _region_mask(region: Region, cols: int) -> int:
    """Row-major cell bitmask of a region."""
    row = ((1 << (region.c1 - region.c0)) - 1) << region.c0
    return sum(row << (r * cols) for r in range(region.r0, region.r1))


def quadtree_split(som_map: SomMap, params: CostParams,
                   costs: BlockCosts | None = None) -> list[Region]:
    """Recursively split regions whose subregions are jointly cheaper.

    A region is split iff its one-block cost strictly exceeds the summed
    one-block costs of its quadrants; 1x1 regions are leaves.  costs, when
    given, is a BlockCosts of this map whose cached block terms are reused.
    The regions, their masks and their quadrants are built once per grid
    shape (_quadtree) and walked here, so every call costs the same masks
    in the same order; the returned Regions are shared between calls.
    """
    costs = _costs_for(som_map, params, costs)
    leaves: list[Region] = []
    _split(_quadtree(som_map.rows, som_map.cols), costs.cost, leaves)
    return leaves


@functools.lru_cache(maxsize=32)
def _quadtree(rows: int, cols: int) -> tuple:
    """Root of the rows x cols grid's quadtree.

    A node is (region, row-major mask, child nodes in _subdivide order); a
    1x1 region has no children.
    """
    return _tree_node(Region(0, rows, 0, cols), cols)


def _tree_node(region: Region, cols: int) -> tuple:
    if region.r1 - region.r0 == 1 and region.c1 - region.c0 == 1:
        children = ()
    else:
        children = tuple(_tree_node(s, cols) for s in _subdivide(region))
    return region, _region_mask(region, cols), children


def _split(node: tuple, cost, leaves: list[Region]) -> None:
    region, mask, children = node
    if children:
        whole = cost(mask)
        parts = math.fsum(cost(child[1]) for child in children)
        if whole > parts:
            for child in children:
                _split(child, cost, leaves)
            return
    leaves.append(region)


def _tiling_masks(regions, rows: int, cols: int) -> list[int]:
    """Row-major cell masks of regions that must tile the grid exactly once."""
    for region in regions:
        if region.r0 < 0 or region.c0 < 0 or region.r1 > rows or region.c1 > cols:
            raise PartitionError("region outside grid")
    masks = [_region_mask(region, cols) for region in regions]
    covered = 0
    for mask in masks:
        if covered & mask:
            raise PartitionError("regions must tile the grid exactly once")
        covered |= mask
    if covered != (1 << (rows * cols)) - 1:
        raise PartitionError("regions must tile the grid exactly once")
    return masks


def merge_regions(regions: list[Region], som_map: SomMap, params: CostParams,
                  costs: BlockCosts | None = None) -> Partition:
    """Greedy pairwise merging of a region tiling.

    Regions are ordered by top-left corner (column first, then row).  Each
    pass scans regions in that order and, for every later edge-adjacent
    region, merges the pair iff the joined cost is strictly below the sum of
    the separate costs, renumbering as it goes.  Passes repeat until one
    completes with no merge; ties keep regions separate.  costs, when given,
    is a BlockCosts of this map whose cached block terms are reused.

    A pass finds each block's later neighbours through a table from cell to
    list position instead of testing every later block, and a join that
    BlockCosts.join_rejected settles (an empty side, or a certain loss) is
    not costed; both visit and decide exactly what the plain scan does.
    """
    rows, cols = som_map.rows, som_map.cols
    masks = _tiling_masks(regions, rows, cols)
    costs = _costs_for(som_map, params, costs)
    cost, rejected = costs.cost, costs.join_rejected
    inner = _inner_cells(rows, cols)
    grid = (1 << (rows * cols)) - 1

    # (order key, cell mask, mask of the cells edge-adjacent to the block);
    # a union's key is the componentwise minimum of the two keys.
    blocks = []
    for region, mask in zip(regions, masks):
        near = (mask << cols | mask >> cols
                | (mask & inner) << 1 | (mask >> 1) & inner) & grid
        blocks.append(((region.c0, region.r0), mask, near))

    changed = True
    while changed:
        changed = False
        blocks.sort(key=lambda block: block[0])
        # Cells keep the position their block had when the pass began.  A
        # merged-away block's cells belong to an earlier position then, so a
        # dead owner is never a later neighbour.
        owner = [0] * (rows * cols)
        for p, (_, mask, _) in enumerate(blocks):
            for k in _mask_cells(mask):
                owner[k] = p
        live = [True] * len(blocks)
        for i in range(len(blocks)):
            if not live[i]:
                continue
            key, mask, near = blocks[i]
            j = i
            while True:
                # the live blocks after position j that touch the block
                later = []
                rest = near & ~mask
                while rest:
                    p = owner[(rest & -rest).bit_length() - 1]
                    rest &= ~blocks[p][1]
                    if p > j and live[p]:
                        later.append(p)
                for j in sorted(later):
                    other_key, other, other_near = blocks[j]
                    joined = mask | other
                    if not rejected(mask, other) and cost(joined) < cost(mask) + cost(other):
                        key = (min(key[0], other_key[0]), min(key[1], other_key[1]))
                        mask, near = joined, near | other_near
                        blocks[i] = (key, mask, near)
                        live[j] = False
                        changed = True
                        break
                else:
                    break
        blocks = [block for block, alive in zip(blocks, live) if alive]

    masks = [mask for _, mask, _ in blocks]
    total = math.fsum(cost(mask) for mask in masks)     # in merge order
    # numbered by lowest cell: first occurrence in row-major order
    masks.sort(key=lambda mask: mask & -mask)
    return Partition(block_of=_label_grid(masks, rows, cols), n_blocks=len(masks), cost=total)


def partition_som(som_map: SomMap, params: CostParams,
                  costs: BlockCosts | None = None) -> Partition:
    """Quadtree split followed by greedy merging.

    The split and the merge share one BlockCosts; costs, when given, is one
    already built for this map under the same cell widths (any range
    setting), such as one stability-sweep column's.
    """
    costs = _costs_for(som_map, params, costs)
    return merge_regions(quadtree_split(som_map, params, costs), som_map, params, costs)


def _grid_masks(rows: int, cols: int):
    """Neighbor, adjacency-frontier, and row bitmasks for the enumerator."""
    n = rows * cols
    nbr = [0] * n
    for k in range(n):
        r, c = divmod(k, cols)
        for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if 0 <= rr < rows and 0 <= cc < cols:
                nbr[k] |= 1 << (rr * cols + cc)
    row_mask = [sum(1 << (r * cols + c) for c in range(cols)) for r in range(rows)]
    # frontier[k]: cells with index < k having at least one neighbor > k
    frontier = [0] * n
    for k in range(n):
        f = 0
        for j in range(k):
            if nbr[j] >> (k + 1):
                f |= 1 << j
        frontier[k] = f
    return nbr, row_mask, frontier


def _walk_partitions(rows: int, cols: int, visit, grow=None) -> None:
    """Call visit(labels, part_masks) for every partition into connected blocks.

    labels and part_masks are shared scratch state, valid only during the
    call; part ids are dense in first-occurrence order, so each partition is
    visited exactly once, in lexicographic order of labels.  Branches are
    pruned when a cell joins a block it can no longer reach and whenever a
    completed row strands a block component above the frontier.

    grow, when given, prunes further: each time cell k moves its part from
    mask old to mask new (old is 0 for a new part), grow(acc, k, old, new)
    returns the value acc takes in the branch below, or None to skip that
    branch.  acc starts at 0.0.
    """
    n = rows * cols
    nbr, row_mask, frontier = _grid_masks(rows, cols)
    inner = _inner_cells(rows, cols)
    labels = [0] * n
    parts: list[int] = []

    def row_ok(k: int) -> bool:
        # Only meaningful when k completes a row.  A block with no cell in
        # that row can never grow again, so it must already be connected; one
        # that still touches the row may stay split only if every component
        # reaches the row, that is if the flood from its row cells fills it.
        # Blocks untouched since before the previous row were verified when
        # they closed and are skipped.
        if (k + 1) % cols:
            return True
        r = k // cols
        rm = row_mask[r]
        prev = row_mask[r - 1] if r else 0
        for mask in parts:
            seed = mask & rm or (mask & prev and mask & -mask)
            if seed and flood(seed, mask & mask >> 1 & inner, mask & mask >> cols, cols) != mask:
                return False
        return True

    last = row_mask[rows - 1]

    def rec(k: int, acc) -> None:
        if k == n:
            for mask in parts:
                if mask & last and flood(mask & -mask, mask & mask >> 1 & inner,
                                         mask & mask >> cols, cols) != mask:
                    return
            visit(labels, parts)
            return
        bit = 1 << k
        reachable = nbr[k] | frontier[k]
        for p in range(len(parts)):
            mask = parts[p]
            if mask & reachable:
                labels[k] = p
                parts[p] = mask | bit
                if row_ok(k):
                    below = acc if grow is None else grow(acc, k, mask, mask | bit)
                    if below is not None:
                        rec(k + 1, below)
                parts[p] = mask
        labels[k] = len(parts)
        parts.append(bit)
        if row_ok(k):
            below = acc if grow is None else grow(acc, k, 0, bit)
            if below is not None:
                rec(k + 1, below)
        parts.pop()

    rec(0, 0.0)
    # rec refers to itself through its closure; unbinding it frees visit
    # (and the block costs it holds) now instead of at a full collection.
    rec = None


def enumerate_connected_partitions(rows: int, cols: int) -> list[tuple]:
    """All partitions of the rows x cols grid into edge-connected blocks.

    Returns a list of row-major block-id tuples; meant for small grids (the
    count grows like the connected-partition numbers 2, 12, 1434, ...).
    """
    found: list[tuple] = []
    _walk_partitions(rows, cols, lambda labels, _: found.append(tuple(labels)))
    return found


def exhaustive_partition(som_map: SomMap, params: CostParams, cell_limit: int = 9) -> Partition:
    """Cheapest partition over the full connected-partition set.

    Cost ties break toward the lexicographically smallest row-major block
    assignment, and the cost is the exact sum of the blocks' costs.  Under
    the unit width rule the walk is a branch and bound: a branch is skipped
    when the exact cost of its partial blocks plus each unplaced cell's
    least possible increment (BlockCosts.least_increments) exceeds the best
    cost known so far by more than a rounding tolerance.  The best known
    starts as the cheaper of two connected partitions, the singleton tiling
    and partition_som's answer, each costed here block by block (the
    heuristic's reported cost is not used, and its partition is skipped if
    it fails validate_partition).  The walk visits labelings in lexicographic
    order, so that returns the same partition and cost as scoring every
    partition, which is what happens under a width rule that depends on
    block size.  The worst case still grows exponentially with cell count,
    hence cell_limit.
    """
    rows, cols = som_map.rows, som_map.cols
    if rows * cols > cell_limit:
        raise PartitionError(f"grid {rows}x{cols} exceeds cell_limit={cell_limit}")

    costs = BlockCosts(som_map, params)
    mask_cost = costs.cost
    state = {"cost": math.inf, "labels": None, "limit": math.inf}

    def visit(labels, parts):
        total = math.fsum(map(mask_cost, parts))
        if total < state["cost"] or (total == state["cost"] and tuple(labels) < state["labels"]):
            state["cost"] = total
            state["labels"] = tuple(labels)
            # the bound sums in plain floats; the margin covers its rounding,
            # so no branch that could tie the best is cut
            state["limit"] = total + 1e-9 * max(1.0, abs(total))

    grow = None
    least = costs.least_increments()
    if least is not None:
        # Two connected partitions that the walk would reach anyway give it a
        # limit from its first node, so they change what it cuts, not what
        # it returns.
        seeds = [tuple(range(rows * cols))]
        heuristic = partition_som(som_map, params, costs)
        try:
            validate_partition(heuristic)
        except PartitionError:
            pass
        else:
            seeds.append(Partition.from_labels(heuristic.block_of).signature())
        for labels in seeds:
            masks = [0] * (max(labels) + 1)
            for k, b in enumerate(labels):
                masks[b] |= 1 << k
            visit(labels, masks)

        # rest[k]: the least the cells from k on can add to any completion.
        rest = [0.0] * (len(least) + 1)
        for k in range(len(least) - 1, -1, -1):
            rest[k] = rest[k + 1] + least[k]

        def grow(partial, k, old, new):
            # partial: the cost of the placed cells' blocks, by running sum
            partial += mask_cost(new) - mask_cost(old)
            return None if partial + rest[k + 1] > state["limit"] else partial

    _walk_partitions(rows, cols, visit, grow)
    best_cost, best_labels = state["cost"], state["labels"]

    block_of = np.array(best_labels, dtype=int).reshape(rows, cols)
    return Partition(block_of=block_of, n_blocks=len(set(best_labels)), cost=best_cost)


PARTITION_FORMAT_VERSION = 1


def partition_to_json(partition: Partition, params_echo: dict | None = None,
                      provenance: dict | None = None) -> str:
    rows, cols = partition.block_of.shape
    doc = {
        "format_version": PARTITION_FORMAT_VERSION,
        "rows": int(rows),
        "cols": int(cols),
        "block_of": [int(v) for v in partition.block_of.ravel()],
        "K": partition.n_blocks,
        "cost": None if math.isnan(partition.cost) else partition.cost,
        "params": params_echo,
        "provenance": provenance,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def save_partition(partition: Partition, path, params_echo: dict | None = None,
                   provenance: dict | None = None) -> None:
    write_text_atomic(path, partition_to_json(partition, params_echo, provenance))


def load_partition(path) -> Partition:
    try:
        with open(path) as f:
            doc = json.load(f)
    except json.JSONDecodeError as e:
        raise PartitionError(f"{path}: malformed partition file: {e}") from None
    if not isinstance(doc, dict) or doc.get("format_version") != PARTITION_FORMAT_VERSION:
        raise PartitionError(f"{path}: unsupported partition format version")
    try:
        block_of = np.array(doc["block_of"], dtype=int).reshape(doc["rows"], doc["cols"])
        cost = math.nan if doc["cost"] is None else float(doc["cost"])
        partition = Partition(block_of=block_of, n_blocks=int(doc["K"]), cost=cost)
    except (KeyError, TypeError, ValueError) as e:
        raise PartitionError(f"{path}: malformed partition file: {e}") from None
    validate_partition(partition)
    return partition
