"""Grid partitioning by quadtree split and cost-driven merge.

partition_som first splits the grid recursively wherever four quadrants are
jointly cheaper than the rectangle as a whole, then greedily merges adjacent
blocks (row-major cell masks) while each merge strictly lowers the cost.
exhaustive_partition is the small-grid oracle: it walks the partitions of
the grid into edge-connected blocks, cutting branches that cannot beat the
best found, and returns a cheapest one.
"""

import functools
import json
import math
import reprlib
from dataclasses import dataclass

import numpy as np

from .bayes_cost import BlockCosts, CostError, CostParams, _bits
from .data_model import is_integer, is_number, read_json_file, require, write_text_atomic
from .som import SomMap


class PartitionError(ValueError):
    """Raised for invalid tilings, partitions, or oversized oracle grids."""


@dataclass(frozen=True, eq=False)
class Partition:
    """Assignment of every grid cell to one edge-connected block.

    block_of is a read-only (rows, cols) int array of dense block ids
    numbered by first occurrence in row-major order, so equal cell groupings
    always produce identical arrays (validate_partition checks that and
    connectivity); n_blocks is an int of at least 1, cost a float, NaN for none.
    """

    block_of: np.ndarray
    n_blocks: int
    cost: float = math.nan

    def __post_init__(self):
        if not (isinstance(self.block_of, np.ndarray) and self.block_of.ndim == 2
                and self.block_of.dtype.kind in "iu"):
            raise PartitionError("block_of must be a 2-D integer array")
        rows, cols = self.block_of.shape
        require(PartitionError, is_integer, "an integer", K=self.n_blocks)
        require(PartitionError, lambda v: v >= 1, "at least 1",
                **{"block_of rows": rows, "block_of cols": cols}, K=self.n_blocks)
        require(PartitionError, is_number, "a number", cost=self.cost)
        require(PartitionError, lambda v: not math.isinf(v), "finite or NaN", cost=self.cost)
        block_of = self.block_of.copy()
        block_of.flags.writeable = False
        object.__setattr__(self, "block_of", block_of)
        object.__setattr__(self, "n_blocks", int(self.n_blocks))
        object.__setattr__(self, "cost", float(self.cost))

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return (
            self.n_blocks == other.n_blocks
            and np.array_equal(self.block_of, other.block_of)
            and (self.cost == other.cost or (math.isnan(self.cost) and math.isnan(other.cost)))
        )

    @classmethod
    def _tiled(cls, masks, rows: int, cols: int, cost: float) -> "Partition":
        """The partition whose blocks are these row-major cell masks, ints that
        tile the grid in any order, at a float cost: none is checked here (no
        __post_init__).  Blocks are numbered by their lowest cell."""
        masks = sorted(masks, key=lambda mask: mask & -mask)
        block_of = _label_grid(masks, rows, cols)
        block_of.flags.writeable = False
        partition = object.__new__(cls)
        partition.__dict__.update(block_of=block_of, n_blocks=len(masks), cost=cost)
        return partition

    @classmethod
    def from_labels(cls, labels: np.ndarray, cost: float = math.nan) -> "Partition":
        """Relabel an arbitrary 2-D cell labeling to canonical dense block ids."""
        labels = np.array(labels, dtype=object)     # nested lists' shape, even when ragged
        if labels.ndim != 2 or not labels.size:
            raise PartitionError(f"labels must be a non-empty 2-D array, got shape {labels.shape}")
        try:
            masks = _label_masks(labels.ravel().tolist()).values()
        except TypeError as e:
            raise PartitionError(f"labels must hold hashable values, got {e}") from None
        return cls(**vars(cls._tiled(masks, *labels.shape, cost=cost)))   # checks the cost

    def signature(self) -> tuple:
        return tuple(self.block_of.ravel().tolist())


def _require_grid(**sizes) -> None:
    """Refuse a grid size that is not an integer of at least 1, naming it."""
    require(PartitionError, is_integer, "an integer", **sizes)
    require(PartitionError, lambda v: v >= 1, "at least 1", **sizes)


def _grid_masks(masks, rows: int, cols: int) -> list[int]:
    """The masks as ints, refusing one that is not a positive integer or has
    a cell outside the rows x cols grid by a PartitionError naming it."""
    ints, grid = [], (1 << (rows * cols)) - 1
    for i, mask in enumerate(masks):
        if not is_integer(mask):
            raise PartitionError(f"block {i} must be an integer mask, got {reprlib.repr(mask)}")
        mask = int(mask)
        if not 0 < mask <= grid:
            raise PartitionError(f"block {i} must be a positive mask, got {mask}" if mask <= 0
                                 else f"block {i} has a cell outside the {rows}x{cols} grid")
        ints.append(mask)
    return ints


def _require_tiling(masks: list[int], n: int) -> None:
    """Refuse positive masks that overlap, naming the later block, or that
    leave a cell of the n-cell grid uncovered."""
    covered = 0
    for i, mask in enumerate(masks):
        if covered & mask:
            raise PartitionError(f"block {i} overlaps an earlier block")
        covered |= mask
    if covered != (1 << n) - 1:
        raise PartitionError("blocks leave cells of the grid uncovered")


def validate_partition(partition: Partition) -> None:
    """Check the tiling: ids 0..K-1 numbered by first occurrence, and
    4-connectivity of every block (Partition checks the values)."""
    masks = _label_masks(partition.block_of.ravel().tolist())
    if len(masks) != partition.n_blocks or list(masks) != list(range(partition.n_blocks)):
        raise PartitionError("block ids must be 0..K-1 numbered by first occurrence "
                             "in row-major order")
    rows, cols = partition.block_of.shape
    inner = _inner_cells(rows, cols)
    for b, mask in sorted(masks.items()):      # by block id, so the error names it
        if mask & (mask - 1) and not _connected(mask, inner, cols):
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


def _connected(mask: int, inner: int, cols: int) -> bool:
    """Whether a nonzero mask's cells are edge-connected (inner: _inner_cells)."""
    return flood(mask & -mask, mask & mask >> 1 & inner, mask & mask >> cols, cols) == mask


def _inner_cells(rows: int, cols: int) -> int:
    """Bitmask of the cells that are not in the last column."""
    return _region_mask((0, rows, 0, cols - 1), cols)


def _label_masks(labels) -> dict:
    """Each label of a row-major cell labeling mapped to the mask of its
    cells, in order of first occurrence."""
    masks: dict = {}
    for k, label in enumerate(labels):
        masks[label] = masks.get(label, 0) | 1 << k
    return masks


def _label_grid(masks, rows: int, cols: int) -> np.ndarray:
    """(rows, cols) int array giving each cell the index of its mask, -1 for none."""
    labels = [-1] * (rows * cols)
    for b, mask in enumerate(masks):
        while mask:
            low = mask & -mask
            labels[low.bit_length() - 1] = b
            mask ^= low
    return np.array(labels).reshape(rows, cols)


def _subdivide(bounds: tuple) -> list[tuple]:
    """Non-empty quadrants of the cell rectangle (r0, r1, c0, c1) other than itself."""
    r0, r1, c0, c1 = bounds
    rm = r0 + (r1 - r0 + 1) // 2
    cm = c0 + (c1 - c0 + 1) // 2
    quadrants = [(r0, rm, c0, cm), (r0, rm, cm, c1), (rm, r1, c0, cm), (rm, r1, cm, c1)]
    return [q for q in quadrants if q[0] < q[1] and q[2] < q[3] and q != bounds]


def _region_mask(bounds: tuple, cols: int) -> int:
    """Row-major cell bitmask of the rectangle (r0, r1, c0, c1)."""
    r0, r1, c0, c1 = bounds
    row = ((1 << (c1 - c0)) - 1) << c0
    return sum(row << (r * cols) for r in range(r0, r1))


def quadtree_split(costs: BlockCosts) -> list[int]:
    """Recursively split blocks of costs' map whose quadrants are jointly cheaper.

    A rectangle is split iff its one-block cost strictly exceeds the summed
    one-block costs of its quadrants; single cells are leaves.  Returns the
    leaves as row-major cell masks, in depth-first order.  The masks and
    their quadrants are built once per grid shape (_quadtree) and walked
    here, so every call costs the same masks in the same order.  Each test
    is costs.lowers((rectangle,), quadrants) (BlockCosts: the f_R range).
    """
    return [mask for _, _, mask, _ in _split(costs)]


def _split(costs: BlockCosts) -> list[tuple]:
    """quadtree_split's leaves as the merge records (_merge) _quadtree made."""
    lowers = costs.lowers
    leaves: list[tuple] = []
    stack = [_quadtree(costs.som_map.rows, costs.som_map.cols)]
    while stack:
        block, parts, children = stack.pop()
        if children and lowers((block[2],), parts):
            stack.extend(reversed(children))
        else:
            leaves.append(block)
    return leaves


@functools.lru_cache(maxsize=32)
def _quadtree(rows: int, cols: int) -> tuple:
    """Root of the rows x cols grid's quadtree.

    A node is (its rectangle's merge record (_merge), its children's masks,
    child nodes), the children in _subdivide order; a single cell has none.
    """
    return _tree_node((0, rows, 0, cols), cols, _inner_cells(rows, cols), (1 << rows * cols) - 1)


def _tree_node(bounds: tuple, cols: int, inner: int, grid: int) -> tuple:
    children = tuple(_tree_node(part, cols, inner, grid) for part in _subdivide(bounds))
    block = _merge_record(_region_mask(bounds, cols), cols, inner, grid)
    return block, tuple(child[0][2] for child in children), children


def _merge_record(mask: int, cols: int, inner: int, grid: int) -> tuple:
    """The merge record (_merge) of a nonzero block mask (inner: _inner_cells,
    grid: the mask of every cell)."""
    r0 = ((mask & -mask).bit_length() - 1) // cols
    spread = 0                                  # the OR of the block's rows
    for shift in range(r0 * cols, mask.bit_length(), cols):
        spread |= mask >> shift
    spread &= (1 << cols) - 1
    near = (mask << cols | mask >> cols | (mask & inner) << 1 | (mask >> 1) & inner) & grid
    return ((spread & -spread).bit_length() - 1, r0), spread.bit_length(), mask, near


def merge_regions(masks: list[int], costs: BlockCosts) -> Partition:
    """Greedy pairwise merging of a tiling of costs' map by connected blocks.

    masks are row-major cell masks of disjoint, edge-connected blocks that
    cover the grid, such as quadtree_split's leaves.  Blocks are ordered by
    first column, then first row.  Each pass scans blocks in that order
    and, for every later edge-adjacent block, merges the pair iff the joined
    cost is strictly below the sum of the separate costs, renumbering as it
    goes.  Passes repeat until one completes with no merge; ties keep blocks
    separate.

    Blocks are sorted by their first column, so a block's scan stops at the
    first later block that starts right of the column just past its own
    last one: no block from there on can touch it.  A join that
    BlockCosts.join_rejected settles (an empty side, or a certain loss) is
    not costed; both skip only what the plain scan would not merge.  Each
    costed join is costs.lowers((a, b), (a | b,)) (BlockCosts: the f_R range).
    """
    if not isinstance(masks, (list, tuple)):
        raise PartitionError(f"masks must be a list of cell masks, got {reprlib.repr(masks)}")
    rows, cols = costs.som_map.rows, costs.som_map.cols
    masks = _grid_masks(masks, rows, cols)
    inner, grid = _inner_cells(rows, cols), (1 << rows * cols) - 1
    for i, mask in enumerate(masks):
        if not _connected(mask, inner, cols):
            raise PartitionError(f"block {i} is not edge-connected")
    _require_tiling(masks, rows * cols)
    return _merge([_merge_record(mask, cols, inner, grid) for mask in masks], costs)


def _merge(blocks: list[tuple], costs: BlockCosts) -> Partition:
    """merge_regions' passes over unchecked merge records of a tiling of costs'
    map: (order key (first column, first row), one past the last column, cell
    mask, mask of the cells edge-adjacent to it).  A union's key is the
    componentwise minimum of the two keys and its column end the larger end."""
    rejected, lowers = costs.join_rejected, costs.lowers
    changed = True
    while changed:
        changed = False
        blocks.sort(key=lambda block: block[0])
        live = [True] * len(blocks)
        for i in range(len(blocks)):
            if not live[i]:
                continue
            key, c1, mask, near = blocks[i]
            for j in range(i + 1, len(blocks)):
                other_key, other_c1, other, other_near = blocks[j]
                if other_key[0] > c1:
                    break
                if not (live[j] and near & other) or rejected(mask, other):
                    continue
                if lowers((mask, other), (mask | other,)):
                    key = (min(key[0], other_key[0]), min(key[1], other_key[1]))
                    c1, mask, near = max(c1, other_c1), mask | other, near | other_near
                    live[j] = False
                    changed = True
            blocks[i] = (key, c1, mask, near)
        blocks = [block for block, alive in zip(blocks, live) if alive]

    masks = [mask for _, _, mask, _ in blocks]
    total = math.fsum(costs.cost(mask) for mask in masks)     # in merge order
    return Partition._tiled(masks, costs.som_map.rows, costs.som_map.cols, total)


def partition_som(som_map: SomMap, params: CostParams,
                  costs: BlockCosts | None = None) -> Partition:
    """Quadtree split followed by greedy merging.

    The split and the merge share one BlockCosts; costs, when given, must be
    the engine built for this very map and these params, such as a sweep
    point's BlockCosts.at(f_R), else CostError.  Without costs the engine is
    BlockCosts._shared(som_map, params), which goes through the width record
    as exhaustive_partition and the sweep do, so it takes the width terms
    they left for this very map at the same widths (BlockCosts: shared
    width state); an engine from BlockCosts(...) never does.  The split's
    leaves go to the merge unchecked: merge_regions' checks are for its
    callers' masks.
    """
    costs = BlockCosts._shared(som_map, params) if costs is None else costs
    if not (isinstance(costs, BlockCosts) and costs.som_map is som_map and costs.params is params):
        raise CostError("costs must be the BlockCosts of this map and these params")
    return _merge(_split(costs), costs)


def _walk_partitions(rows: int, cols: int, visit, grow=lambda acc, k, old, new: acc) -> None:
    """Call visit(labels, part_masks) for every partition into connected blocks.

    labels and part_masks are shared scratch state, valid only during the
    call; part ids are dense in first-occurrence order, so each partition is
    visited exactly once, in lexicographic order of labels.  Cells are placed
    in row-major order; a placed cell is live until its last neighbour is
    placed, when it closes.  A cell joins only a part with a live cell, and
    a branch is cut once a closed cell's block has a piece with no live cell
    that is not the whole block, since nothing can join that piece again.

    grow prunes further: each time cell k moves its part from mask old to
    mask new (old is 0 for a new part), grow(acc, k, old, new) returns the
    value acc takes in the branch below, or None to skip that branch.  acc
    starts at 0.0; the default grow passes it down unchanged, cutting nothing.
    """
    n = rows * cols
    inner = _inner_cells(rows, cols)
    # closes[k]: the cells closed by placing k (their neighbour below, else
    # to the right, else themselves)
    closes: list[list[int]] = [[] for _ in range(n)]
    for j in range(n):
        closes[j + cols if j + cols < n else min(j + 1, n - 1)].append(j)
    # live[k]: the live cells once k is placed; live[-1] is live[n-1] == 0
    live = [0] * n
    for k in range(n):
        live[k] = (live[k - 1] | 1 << k) & ~sum(1 << j for j in closes[k])
    labels = [0] * n
    parts: list[int] = []
    # seals[k][block]: whether placing k leaves the closed block sealed, that
    # is every piece of it holds a live cell or is the whole block; the test
    # reads only live[k], so it is flooded once per walk
    seals: list[dict] = [{} for _ in range(n)]

    def rec(k: int, acc) -> None:
        if k == n:
            visit(labels, parts)
            return
        bit, alive, opened, kept, seen = 1 << k, live[k - 1], len(parts), live[k], seals[k]
        for p in range(opened + 1):
            if p == opened:
                parts.append(0)             # a new part, tried after every live one
            elif not parts[p] & alive:
                continue
            mask = parts[p]
            labels[k] = p
            parts[p] = mask | bit
            for j in closes[k]:
                block = parts[labels[j]]
                sealed = seen.get(block)
                if sealed is None:
                    seed = block & kept or block & -block
                    sealed = seen[block] = flood(
                        seed, block & block >> 1 & inner, block & block >> cols, cols) == block
                if not sealed:
                    break
            else:
                below = grow(acc, k, mask, mask | bit)
                if below is not None:
                    rec(k + 1, below)
            parts[p] = mask
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
    _require_grid(rows=rows, cols=cols)
    found: list[tuple] = []
    _walk_partitions(rows, cols, lambda labels, _: found.append(tuple(labels)))
    return found


def exhaustive_partition(som_map: SomMap, params: CostParams, cell_limit: int = 9) -> Partition:
    """Cheapest partition over the full connected-partition set.

    Cost ties break toward the lexicographically smallest row-major block
    assignment, and the cost is the exact sum of the blocks' costs.  The
    walk (_walk_partitions) drops a branch as soon as one of its blocks can
    no longer become connected.  Under the unit width rule it is also a
    branch and bound: a branch is skipped when the exact cost of its partial
    blocks plus each unplaced cell's least possible increment
    (BlockCosts.least_increments) exceeds the best cost known so far by more
    than a rounding tolerance.  That limit starts at the singleton tiling's
    cost, summed here block by block; no other partitioner is consulted.
    The walk visits labelings in lexicographic order and keeps the first
    cheapest, so that returns the same partition and cost as scoring every
    partition, which is what happens under a width rule that depends on
    block size.  The worst case still grows exponentially with cell count,
    hence cell_limit.
    """
    require(PartitionError, is_integer, "an integer", cell_limit=cell_limit)
    rows, cols = som_map.rows, som_map.cols
    if rows * cols > cell_limit:
        raise PartitionError(f"grid {rows}x{cols} exceeds cell_limit={cell_limit}")

    costs = BlockCosts._shared(som_map, params)
    mask_cost = costs.cost
    state = {"cost": math.inf, "parts": None, "limit": math.inf}

    def tighten(total):
        # the bound sums in plain floats; the margin covers its rounding,
        # so no branch that could tie the best is cut
        state["limit"] = min(state["limit"], total + 1e-9 * max(1.0, abs(total)))

    def visit(labels, parts):
        total = math.fsum(map(mask_cost, parts))
        if total < state["cost"]:           # the first cheapest in the walk's order
            state["cost"], state["parts"] = total, list(parts)
            tighten(total)

    least = costs.least_increments()
    if least is None:           # a width rule that depends on block size: no bound
        _walk_partitions(rows, cols, visit)
    else:
        # The singleton tiling's cost limits the walk from its first node; the
        # walk reaches that tiling last and cuts it only once something is
        # cheaper, so this changes what the walk cuts, not what it returns.
        tighten(math.fsum(mask_cost(1 << k) for k in range(rows * cols)))

        # rest[k]: the least the cells from k on can add to any completion.
        rest = [0.0] * (len(least) + 1)
        for k in range(len(least) - 1, -1, -1):
            rest[k] = rest[k + 1] + least[k]

        def grow(partial, k, old, new):
            # partial: the cost of the placed cells' blocks, by running sum
            partial += mask_cost(new) - mask_cost(old)
            return None if partial + rest[k + 1] > state["limit"] else partial

        _walk_partitions(rows, cols, visit, grow)
    return Partition._tiled(state["parts"], rows, cols, state["cost"])


PARTITION_FORMAT_VERSION = 1


def partition_to_json(partition: Partition, params_echo: dict | None = None,
                      provenance: dict | None = None) -> str:
    rows, cols = partition.block_of.shape
    doc = {
        "format_version": PARTITION_FORMAT_VERSION,
        "rows": rows,
        "cols": cols,
        "block_of": partition.block_of.ravel().tolist(),
        "K": partition.n_blocks,
        "cost": None if math.isnan(partition.cost) else partition.cost,
        "params": params_echo,
        "provenance": provenance,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def save_partition(partition: Partition, path, params_echo: dict | None = None,
                   provenance: dict | None = None) -> None:
    """Write a partition file, refusing one that load_partition would (validate_partition)."""
    validate_partition(partition)
    write_text_atomic(path, partition_to_json(partition, params_echo, provenance))


def load_partition(path) -> Partition:
    """Read a partition file; its params and provenance go unread, its blocks are validated."""
    return read_json_file(path, "partition", PARTITION_FORMAT_VERSION, PartitionError,
                          _partition_from_file)


def _partition_from_file(rows, cols, block_of, K, cost, params, provenance) -> Partition:
    _require_grid(rows=rows, cols=cols)
    if not isinstance(block_of, list) or len(block_of) != rows * cols:
        raise PartitionError(f"block_of must be a list of {rows * cols} block ids, one per cell")
    for v in block_of:
        if not is_integer(v):
            raise PartitionError(f"block_of entries must be integers, got {reprlib.repr(v)}")
        if not 0 <= v < rows * cols:
            raise PartitionError(f"block_of entries must be in 0..{rows * cols - 1}, "
                                 f"got {reprlib.repr(v)}")
    if cost is not None:
        require(PartitionError, is_number, "a number or null", cost=cost)
        require(PartitionError, math.isfinite, "finite or null", cost=cost)
    partition = Partition(block_of=np.array(block_of).reshape(rows, cols), n_blocks=K,
                          cost=math.nan if cost is None else cost)
    validate_partition(partition)
    return partition
