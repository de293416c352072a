"""Where inputs meet the library: each public entry point that takes numbers,
labels or masks either accepts a value or refuses it with its module's own
error, naming the argument, and keeps no array the caller can still change.

The refusal table replaces one argument of a valid call at a time with each of
twelve hostile values; it is a fixed table, not a random draw.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

import somblocks as sb
from somblocks.bayes_cost import unit_scale
from somblocks.data_model import DataError
from somblocks.partition import PartitionError, validate_partition
from somblocks.som import SomError

from conftest import make_map, map_cells, plain_params

MAP = make_map([[0.0, 1.0], [2.0, None]], n_members=2)     # 2x2, one attribute, 6 samples
LABELS = ["x", "x", "y", "y", "z", "z"]
PARAMS = plain_params(R=10.0)
PARTITION = sb.partition_som(MAP, PARAMS)
SUMMARY = sb.AttributeSummary(mins=[0.0, 1.0], maxs=[2.0, 3.0])


def _with_cell_0(**fields):
    pes = map_cells(MAP)
    pes[0] = dataclasses.replace(pes[0], **fields)
    return dataclasses.replace(MAP, pes=tuple(pes))


# entry point -> (call taking keyword arguments, a valid set of them)
ENTRIES = {
    "Dataset": (sb.Dataset, dict(samples=[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]],
                                 labels=["a", "b", "a"], attribute_names=["u", "v"])),
    "AttributeSummary": (sb.AttributeSummary, dict(mins=[0.0, 1.0], maxs=[2.0, 3.0])),
    "CostParams": (sb.CostParams, dict(R=[10.0], sigma_floor=[0.5], sigma_const=1.0,
                                       n_scale_rule=unit_scale, range_exponent="per_block")),
    "CostParams.scaled": (PARAMS.scaled, dict(f_R=2.0, f_sigma=0.5)),
    "params_from_summary": (lambda **kw: sb.params_from_summary(SUMMARY, **kw),
                            dict(range_rule="two_span", sigma_floor_frac=0.15, f_R=1.0)),
    "SweepSpec": (sb.SweepSpec, dict(base=PARAMS, f_R_grid=[0.5, 1.0, 2.0], f_sigma_grid=[1.0])),
    "default_grid": (sb.default_grid, dict(points=3, decades=1.0)),
    "SomMap cell": (_with_cell_0, dict(weight=[0.0], mean=[0.0], std=[1.0])),
    "SomMap.class_counts": (MAP.class_counts, dict(labels=LABELS)),
    "SomMap.pe": (MAP.pe, dict(r=1, c=0)),
    "score": (lambda labels: sb.score(PARTITION, MAP, labels), dict(labels=LABELS)),
    "oracle_partition": (lambda labels: sb.oracle_partition(MAP, labels), dict(labels=LABELS)),
    "render_map": (lambda labels: sb.render_map(MAP, PARTITION, labels), dict(labels=LABELS)),
    "exhaustive_partition": (lambda cell_limit: sb.exhaustive_partition(MAP, PARAMS, cell_limit),
                             dict(cell_limit=9)),
    "merge_regions": (lambda masks: sb.merge_regions(masks, sb.BlockCosts(MAP, PARAMS)),
                      dict(masks=[0b0011, 0b1100])),
    "Partition": (sb.Partition, dict(block_of=np.array([[0, 0], [1, 1]]), n_blocks=2, cost=1.5)),
    "Partition.from_labels": (sb.Partition.from_labels, dict(labels=[[5, 5], [2, 2]], cost=1.5)),
}
# enumerate_connected_partitions takes grid sizes too, but stays out of the
# table: 10**400 is a valid integer there, which would start an exponential
# walk.  Its refusals are tested by exact message below.
ARGUMENTS = [(entry, argument) for entry, (_, valid) in ENTRIES.items() for argument in valid]
HOSTILE = {"'a'": "a", "None": None, "True": True, "nan": math.nan, "inf": math.inf,
           "10**400": 10**400, "-1": -1, "0": 0, "[[1.0]]": [[1.0]], "[]": [],
           "[1.0, 'a']": [1.0, "a"], "[1.0, 10**400]": [1.0, 10**400]}
# merge_regions names a bad mask by its block index, and a bad tiling as "blocks";
# Partition names its n_blocks K, as the partition file does; SomMap.pe names a
# cell outside the grid by its position
NAMES = {"masks": ("masks", "block"), "n_blocks": ("K",), "r": ("r must", "cell ("),
         "c": ("c must", "cell (")}


@pytest.mark.parametrize("entry", ENTRIES)
def test_the_valid_call_of_each_entry_point_succeeds(entry):
    call, valid = ENTRIES[entry]
    call(**valid)


@pytest.mark.parametrize("value", HOSTILE.values(), ids=HOSTILE)
@pytest.mark.parametrize("entry, argument", ARGUMENTS)
def test_a_hostile_value_is_taken_or_refused_by_name(entry, argument, value):
    call, valid = ENTRIES[entry]
    try:
        call(**{**valid, argument: value})
    except ValueError as error:
        assert type(error).__module__.startswith("somblocks."), repr(error)
        assert any(name in str(error) for name in NAMES.get(argument, (argument,))), repr(error)


@pytest.mark.parametrize("labels", [5, [[1]] * 6, [1] * 5 + ["a"]])
@pytest.mark.parametrize("entry", ["SomMap.class_counts", "score", "oracle_partition",
                                   "render_map"])
def test_labels_that_cannot_be_classes_are_refused_where_they_meet_the_map(entry, labels):
    with pytest.raises(DataError, match="^labels must be a sequence of hashable values that "
                                        "sort together, got "):
        ENTRIES[entry][0](labels=labels)


@pytest.mark.parametrize("options, message", [
    ({"attribute_names": None}, "attribute_names must be a list of 2 names, one per samples "
                                "column, got None"),
    ({"attribute_names": 5}, "attribute_names must be a list of 2 names, one per samples "
                             "column, got 5"),
    ({"attribute_names": ["u", 1]}, "attribute_names must be a list of 2 names, one per "
                                    "samples column, got ['u', 1]"),
    ({"labels": ["a", ["b"], "a"]}, "labels must be a sequence of hashable values that sort "
                                    "together, got ['a', ['b'], 'a']"),
    ({"labels": []}, "labels must not be empty"),
    ({"samples": [[1.0, 2.0], [3.0, True]]}, "samples must hold numbers, got True"),
    ({"samples": [[1.0, 2.0], [3.0, "4"]]}, "samples must hold numbers, got '4'"),
    ({"samples": [[1.0, 2.0], [3.0, 10**400]]},
     "samples must hold numbers, got 100000000000000000...0000000000000000000"),
    ({"samples": [1.0, 2.0]}, "samples must be a non-empty 2-D array, got shape (2,)"),
    ({"samples": np.empty((0, 2))}, "samples must be a non-empty 2-D array, got shape (0, 2)"),
])
def test_dataset_names_its_bad_field(options, message):
    valid = ENTRIES["Dataset"][1]
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        sb.Dataset(**{**valid, **options})


@pytest.mark.parametrize("mins, maxs, message", [
    ([0.0, 0.0], [1.0], "mins and maxs must have the same length, got 2 and 1"),
    (None, None, "mins must hold numbers, got None"),
    ([0.0, math.nan], [1.0, 1.0], "mins must be finite, got array([ 0., nan])"),
    ([0.0, 0.0], [1.0, math.inf], "maxs must be finite, got array([ 1., inf])"),
    ([[0.0]], [[1.0]], "mins must be a non-empty 1-D array, got shape (1, 1)"),
])
def test_attribute_summary_names_its_bad_field(mins, maxs, message):
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        sb.AttributeSummary(mins=mins, maxs=maxs)


@pytest.mark.parametrize("cell_limit", ["x", None, 9.5, True])
def test_cell_limit_must_be_an_integer(cell_limit):
    with pytest.raises(PartitionError,
                       match=f"^cell_limit must be an integer, got {re.escape(repr(cell_limit))}$"):
        sb.exhaustive_partition(MAP, PARAMS, cell_limit)


@pytest.mark.parametrize("rows, cols, message", [
    ("a", 2, "rows must be an integer, got 'a'"),
    (True, 2, "rows must be an integer, got True"),
    (2.0, 2, "rows must be an integer, got 2.0"),
    (-1, 2, "rows must be at least 1, got -1"),
    (0, 3, "rows must be at least 1, got 0"),
    (2, 0, "cols must be at least 1, got 0"),
    (1, "1", "cols must be an integer, got '1'"),
])
def test_enumeration_refuses_a_bad_grid_size_by_name(rows, cols, message):
    with pytest.raises(PartitionError, match=f"^{re.escape(message)}$"):
        sb.enumerate_connected_partitions(rows, cols)


@pytest.mark.parametrize("masks, message", [
    ([1, 1, 2], "block 1 overlaps an earlier block"),
    ([3, 1], "block 1 overlaps an earlier block"),
    ([1], "blocks leave cells of the grid uncovered"),
    ([], "blocks leave cells of the grid uncovered"),
    ([0], "block 0 must be a positive mask, got 0"),
    ([-1], "block 0 must be a positive mask, got -1"),
    ([0b100], "block 0 has a cell outside the 1x2 grid"),
    ([1, 2.0], "block 1 must be an integer mask, got 2.0"),
    ([True, 2], "block 0 must be an integer mask, got True"),
])
def test_merge_refuses_masks_that_do_not_tile_the_grid(masks, message):
    costs = sb.BlockCosts(make_map([[0.0, 1.0]]), PARAMS)
    with pytest.raises(PartitionError, match=f"^{re.escape(message)}$"):
        sb.merge_regions(masks, costs)


def test_tiled_takes_a_tiling_in_any_order_and_leaves_connectivity_to_validation():
    # the one builder of the library's partitions checks nothing: its int
    # masks are numbered by their lowest cell, whatever order they come in
    p = sb.Partition._tiled([0b010, 0b101], 1, 3, math.nan)
    assert p.block_of.tolist() == [[0, 1, 0]] and p.n_blocks == 2
    with pytest.raises(PartitionError, match="^block 0 is not edge-connected$"):
        validate_partition(p)


@pytest.mark.parametrize("r, c, message", [
    ("a", 0, "r must be an integer, got 'a'"),
    (True, 0, "r must be an integer, got True"),
    (0, 1.0, "c must be an integer, got 1.0"),
    (2, 0, "cell (2, 0) is outside the 2x2 grid"),
    (0, -1, "cell (0, -1) is outside the 2x2 grid"),
])
def test_a_cell_position_is_refused_by_name(r, c, message):
    with pytest.raises(SomError, match=f"^{re.escape(message)}$"):
        MAP.pe(r, c)


@pytest.mark.parametrize("masks", [5, None, 0b1111, {0b1111}])
def test_merge_regions_takes_a_list_of_masks(masks):
    with pytest.raises(PartitionError,
                       match=f"^masks must be a list of cell masks, got {re.escape(repr(masks))}$"):
        sb.merge_regions(masks, sb.BlockCosts(MAP, PARAMS))


@pytest.mark.parametrize("value, message", [
    (1.5, "cell 0: weight must be a non-empty 1-D array, got shape ()"),
    ([0.0, True], "cell 0: weight must hold numbers, got True"),
    (np.array([[0.0]]), "cell 0: weight must be a non-empty 1-D array, got shape (1, 1)"),
])
def test_a_cell_vector_goes_through_the_one_converter(value, message):
    with pytest.raises(SomError, match=f"^{re.escape(message)}$"):
        _with_cell_0(weight=value)


ARRAY_RULE = "block_of must be a 2-D integer array"


@pytest.mark.parametrize("field, value, message", [
    ("block_of", [[0, 0], [1, 1]], ARRAY_RULE),
    ("block_of", np.array([[0.0, 0.0], [1.0, 1.0]]), ARRAY_RULE),
    ("block_of", np.array([0, 0, 1, 1]), ARRAY_RULE),
    ("block_of", np.zeros((1, 2, 2), dtype=int), ARRAY_RULE),
    ("block_of", np.zeros((0, 3), dtype=int), "block_of rows must be at least 1, got 0"),
    ("block_of", np.zeros((1, 0), dtype=int), "block_of cols must be at least 1, got 0"),
    ("block_of", np.array([[False, False], [True, True]]), ARRAY_RULE),
    ("n_blocks", 2.0, "K must be an integer, got 2.0"),
    ("n_blocks", True, "K must be an integer, got True"),
    ("n_blocks", 0, "K must be at least 1, got 0"),
    ("n_blocks", -1, "K must be at least 1, got -1"),
    ("n_blocks", np.float64(2), f"K must be an integer, got {np.float64(2)!r}"),
    ("n_blocks", None, "K must be an integer, got None"),
    ("cost", math.inf, "cost must be finite or NaN, got inf"),
    ("cost", -math.inf, "cost must be finite or NaN, got -inf"),
    ("cost", "x", "cost must be a number, got 'x'"),
    ("cost", True, "cost must be a number, got True"),
    ("cost", None, "cost must be a number, got None"),
])
def test_partition_names_its_bad_field(field, value, message):
    valid = ENTRIES["Partition"][1]
    with pytest.raises(PartitionError, match=f"^{re.escape(message)}$"):
        sb.Partition(**{**valid, field: value})


@pytest.mark.parametrize("labels, shape", [
    (np.array([0, 1]), (2,)),
    (np.array(5), ()),
    (np.zeros((1, 2, 2), dtype=int), (1, 2, 2)),
    ([[0, 1], [1]], (2,)),
])
def test_from_labels_takes_only_a_2d_labeling(labels, shape):
    with pytest.raises(PartitionError,
                       match=f"^labels must be a non-empty 2-D array, got shape "
                             f"{re.escape(str(shape))}$"):
        sb.Partition.from_labels(labels)


@pytest.mark.parametrize("entry, kind", [([0], "list"), ({}, "dict")])
def test_from_labels_refuses_unhashable_labels_by_name(entry, kind):
    labels = np.empty((1, 2), dtype=object)
    labels[0, 0], labels[0, 1] = entry, entry
    with pytest.raises(PartitionError, match=f"^labels must hold hashable values, got "
                                             f"unhashable type: '{kind}'$"):
        sb.Partition.from_labels(labels)


def test_partition_keeps_python_numbers():
    p = sb.Partition(block_of=np.array([[0, 1]], dtype=np.uint8), n_blocks=np.int32(2),
                     cost=np.float32(1.1))
    assert type(p.n_blocks) is int and p.n_blocks == 2
    assert type(p.cost) is float and p.cost == float(np.float32(1.1))
    assert type(sb.Partition(block_of=p.block_of, n_blocks=2).cost) is float


def test_constructors_keep_read_only_copies_of_the_callers_arrays():
    R, floor = np.array([1.0]), np.array([0.5])
    p = sb.CostParams(R=R, sigma_floor=floor)
    grid = np.array([0.5, 1.0, 2.0])
    spec = sb.SweepSpec(base=p, f_R_grid=grid, f_sigma_grid=grid)
    samples = np.array([[1.0, 2.0], [3.0, 4.0]])
    dataset = sb.Dataset(samples=samples, labels=None, attribute_names=["u", "v"])
    lo, hi = np.array([0.0, 1.0]), np.array([2.0, 3.0])
    summary = sb.AttributeSummary(mins=lo, maxs=hi)
    block_of = np.array([[0, 1]])
    partition = sb.Partition(block_of=block_of, n_blocks=2)
    R[0], floor[0], grid[0], samples[0, 0], lo[0], hi[0] = -5.0, -5.0, -3.0, -1.0, 9.0, 9.0
    block_of[0, 1] = 0
    assert partition.block_of.tolist() == [[0, 1]]
    assert p.R.tolist() == [1.0] and p.sigma_floor.tolist() == [0.5]
    assert spec.f_R_grid.tolist() == spec.f_sigma_grid.tolist() == [0.5, 1.0, 2.0]
    assert dataset.samples.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert summary.mins.tolist() == [0.0, 1.0] and summary.maxs.tolist() == [2.0, 3.0]
    scaled = p.scaled(f_R=2.0)
    kept = [(p, "R"), (p, "sigma_floor"), (scaled, "R"), (spec, "f_R_grid"),
            (spec, "f_sigma_grid"), (dataset, "samples"), (summary, "mins"), (summary, "maxs"),
            (summary, "spans"), (partition, "block_of")]
    for owner, name in kept:
        array = getattr(owner, name)
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 7.0
    assert p.scaled(f_R=2.0).R.tolist() == [2.0]
