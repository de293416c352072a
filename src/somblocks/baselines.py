"""Comparison partitioners: distance-threshold cuts and the label oracle.

The threshold scheme scores each pair of adjacent cells by the Euclidean
distance between their member-sample mean vectors (not their weight
vectors) and cuts every adjacency above a threshold T; connected components
of the surviving adjacency graph form the blocks.  The oracle uses the true
class labels to give each cell its majority class, then groups same-class
neighbors; it is the best any cell-constant labeling can do.
"""

from dataclasses import dataclass

import numpy as np

from .data_model import encode_labels
from .partition import Partition, component_labels
from .som import SomMap


class BaselineError(ValueError):
    """Raised for maps or labels the baseline partitioners cannot use."""


@dataclass(frozen=True, eq=False)
class BoundaryMap:
    """Strength of every horizontal/vertical cell adjacency.

    h[r, c] is the edge between (r, c) and (r, c+1); v[r, c] the edge
    between (r, c) and (r+1, c).  NaN marks pairs involving an empty cell.
    """

    h: np.ndarray
    v: np.ndarray


def umatrix_boundaries(som_map: SomMap) -> BoundaryMap:
    """Mean-vector distances across all adjacent cell pairs."""
    if np.count_nonzero(som_map.counts) < 2:
        raise BaselineError("need at least 2 non-empty cells")
    rows, cols = som_map.rows, som_map.cols
    means = som_map.means.reshape(rows, cols, -1)
    occupied = (som_map.counts > 0).reshape(rows, cols)

    def strengths(a, b, both):
        # vecdot computes each pair's dot product as np.linalg.norm of that
        # pair does, so the strengths keep their bits
        d = a - b
        return np.where(both, np.sqrt(np.vecdot(d, d)), np.nan)

    return BoundaryMap(
        h=strengths(means[:, :-1], means[:, 1:], occupied[:, :-1] & occupied[:, 1:]),
        v=strengths(means[:-1], means[1:], occupied[:-1] & occupied[1:]))


def threshold_partition(som_map: SomMap, T: float) -> Partition:
    """Cut every adjacency stronger than T; blocks are what stays connected.

    Adjacencies with absent strength (an empty cell on either side) are
    always cut, so empty cells come out as singleton blocks.
    """
    if not T >= 0:
        raise BaselineError("threshold must be non-negative")
    bounds = umatrix_boundaries(som_map)
    # NaN compares false, so an edge with absent strength stays cut.
    # component_labels numbers components by lowest cell, as Partition does
    cells = np.ones((som_map.rows, som_map.cols), dtype=bool)
    block_of = component_labels(cells, bounds.h <= T, bounds.v <= T)
    return Partition(block_of=block_of, n_blocks=int(block_of.max()) + 1)


def oracle_partition(som_map: SomMap, labels) -> Partition:
    """Best cell-constant partition given the true per-sample labels.

    Each non-empty cell takes its majority class; blocks are connected
    components of equal-class cells.  Empty cells are absorbed into the
    adjacent block with the lowest id, repeating passes until none remain.
    """
    if labels is None:
        raise BaselineError("oracle partition needs class labels")
    classes, label_ids = encode_labels(labels)
    if len(label_ids) != som_map.n_samples:
        raise BaselineError("labels do not cover the map's samples")

    rows, cols = som_map.rows, som_map.cols
    # majority class per non-empty cell, ties to the lowest class id
    majority = som_map.class_counts(label_ids, len(classes)).argmax(axis=1)
    cell_class = np.where(som_map.counts > 0, majority, -1).reshape(rows, cols)

    occupied = cell_class >= 0
    if not occupied.any():
        raise BaselineError("map has no non-empty cells")
    block = component_labels(occupied,
                             occupied[:, :-1] & (cell_class[:, :-1] == cell_class[:, 1:]),
                             occupied[:-1] & (cell_class[:-1] == cell_class[1:]))

    while np.any(block < 0):
        assigned_any = False
        for r in range(rows):
            for c in range(cols):
                if block[r, c] >= 0:
                    continue
                near = [block[r2, c2]
                        for r2, c2 in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1))
                        if 0 <= r2 < rows and 0 <= c2 < cols and block[r2, c2] >= 0]
                if near:
                    block[r, c] = min(near)
                    assigned_any = True
        if not assigned_any:
            raise BaselineError("unreachable empty cells")  # cannot happen on a grid
    return Partition.from_labels(block)
