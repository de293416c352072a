"""The grid flood behind validate_partition and both baselines agrees with a
plain union-find over the same edges."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import somblocks as sb
from somblocks.data_model import encode_labels
from somblocks.partition import Partition, PartitionError

from conftest import map_cells, random_map


def exact(examples):
    return settings(max_examples=examples, deadline=None, derandomize=True, database=None)


def union_find_labels(rows, cols, joined):
    """Canonical component labels of the grid graph whose edges pass joined(a, b)."""
    parent = list(range(rows * cols))

    def root(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    for r in range(rows):
        for c in range(cols):
            for r2, c2 in ((r, c + 1), (r + 1, c)):
                if r2 < rows and c2 < cols and joined((r, c), (r2, c2)):
                    parent[root(r * cols + c)] = root(r2 * cols + c2)
    roots = np.array([root(k) for k in range(rows * cols)]).reshape(rows, cols)
    return Partition.from_labels(roots).block_of


def first_occurrence(values):
    ids = {}
    return [ids.setdefault(v, len(ids)) for v in values]


@exact(150)
@given(seed=st.integers(0, 2**32 - 1), quantile=st.floats(0.0, 1.0))
def test_threshold_blocks_are_the_kept_edge_components(seed, quantile):
    rng = np.random.default_rng(seed)
    m = random_map(rng, M=int(rng.integers(1, 4)), empty_prob=0.25)
    if np.count_nonzero(m.counts) < 2:
        return
    bounds = sb.umatrix_boundaries(m)
    strengths = np.concatenate([bounds.h.ravel(), bounds.v.ravel()])
    strengths = strengths[~np.isnan(strengths)]
    T = float(np.quantile(strengths, quantile)) if strengths.size else 1.0

    def kept(a, b):     # b is a's right or lower neighbour
        (r, c), (r2, _) = a, b
        s = bounds.h[r, c] if r2 == r else bounds.v[r, c]
        return not np.isnan(s) and s <= T

    p = sb.threshold_partition(m, T)
    assert np.array_equal(p.block_of, union_find_labels(m.rows, m.cols, kept))
    assert Partition.from_labels(p.block_of) == p


@exact(150)
@given(seed=st.integers(0, 2**32 - 1), n_classes=st.integers(1, 4))
def test_oracle_blocks_are_the_equal_class_components(seed, n_classes):
    rng = np.random.default_rng(seed)
    m = random_map(rng, M=1, empty_prob=0.3)
    labels = [f"c{int(v)}" for v in rng.integers(0, n_classes, m.n_samples)]
    classes, label_ids = encode_labels(labels)
    # majority class of each occupied cell, one cell at a time; ties go to
    # the lowest class id
    cls = {(pe.r, pe.c): int(np.bincount(label_ids[list(pe.member_ids)],
                                         minlength=len(classes)).argmax())
           for pe in map_cells(m) if pe.n > 0}

    def same_class(a, b):
        return a in cls and b in cls and cls[a] == cls[b]

    reference = union_find_labels(m.rows, m.cols, same_class)
    p = sb.oracle_partition(m, labels)
    occupied = sorted(cls)
    # empty cells are absorbed into neighbouring blocks; on the occupied cells
    # the oracle's grouping is exactly the equal-class components
    assert first_occurrence(p.block_of[rc] for rc in occupied) == \
        first_occurrence(reference[rc] for rc in occupied)


@exact(300)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 6), cols=st.integers(1, 6),
       n_labels=st.integers(1, 5))
def test_validate_accepts_exactly_the_connected_labelings(seed, rows, cols, n_labels):
    rng = np.random.default_rng(seed)
    p = Partition.from_labels(rng.integers(0, n_labels, (rows, cols)))
    reference = union_find_labels(rows, cols, lambda a, b: p.block_of[a] == p.block_of[b])
    connected = int(reference.max()) + 1 == p.n_blocks
    try:
        sb.validate_partition(p)
        accepted = True
    except PartitionError:
        accepted = False
    assert accepted == connected


@exact(150)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 6), cols=st.integers(1, 6),
       n_labels=st.integers(1, 8))
def test_from_labels_is_idempotent_and_ignores_label_names(seed, rows, cols, n_labels):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_labels, (rows, cols))
    p = Partition.from_labels(labels)
    assert Partition.from_labels(p.block_of) == p
    names = rng.permutation(100)[:n_labels]
    renamed = np.array([f"x{names[v]}" for v in labels.ravel()]).reshape(rows, cols)
    assert Partition.from_labels(renamed) == p
