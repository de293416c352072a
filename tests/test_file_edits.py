"""One edit to a map or partition file: the loader returns, or refuses it by name.

Each example sets one value of a valid file (a leaf, or a whole record or
list) to one of a set of awkward JSON values, or deletes one key.  The
loader must return, or raise its own error whose text starts with the file
path and names a field of the format; no other exception may escape and only
a JSON syntax error may read "malformed".
"""

import json
import math
import re

from hypothesis import given, settings
from hypothesis import strategies as st

import somblocks as sb
from somblocks.partition import PartitionError, load_partition, partition_to_json
from somblocks.som import SomError

from conftest import fixture_path

VALUES = [None, True, False, 0, -1, 2.5, 1e308, "x", "2", [], {}, [1], [[0.0]],
          math.nan, math.inf, 10**30, 10**400]
DELETE = object()

# every key of each format, and the nouns its messages use for them
FIELDS = {
    "map": ["format version", "map file", "rows", "cols", "seed", "config", "pes", "cells?",
            "grid", "epochs", "lr_start", "lr_end", "neighborhood_schedule", "schedule",
            "half-widths", "conscience_beta", "conscience_gamma", "r/c", "weight",
            "member_ids", "member id", "n", "mean", "std"],
    "partition": ["format version", "partition file", "rows", "cols", "block_of", "block",
                  "K", "cost"],
}


def _edits(node, path=()):
    """(path, value) for every value set at every place, and (path, DELETE)
    for every key."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        here = path + (key,)
        yield from ((here, value) for value in VALUES)
        if isinstance(node, dict):
            yield here, DELETE
        if isinstance(child, (dict, list)):
            yield from _edits(child, here)


def _docs():
    with open(fixture_path("iris_map_seed2.json"), encoding="utf-8") as f:
        text = f.read()
    m = sb.load_map(fixture_path("iris_map_seed2.json"))
    params = sb.params_from_summary(sb.summarize(sb.load_csv(sb.iris_path(), "class")))
    return {"map": json.loads(text),
            "partition": json.loads(partition_to_json(sb.partition_som(m, params)))}


DOCS = _docs()
EDITS = {kind: list(_edits(doc)) for kind, doc in DOCS.items()}
LOAD = {"map": (sb.load_map, SomError), "partition": (load_partition, PartitionError)}


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(edit=st.one_of(*(st.tuples(st.just(kind), st.sampled_from(edits))
                        for kind, edits in EDITS.items())))
def test_one_edit_loads_or_is_refused_by_name(tmp_path_factory, edit):
    kind, (where, value) = edit
    doc = json.loads(json.dumps(DOCS[kind]))
    node = doc
    for key in where[:-1]:
        node = node[key]
    if value is DELETE:
        del node[where[-1]]
    else:
        node[where[-1]] = value
    path = tmp_path_factory.getbasetemp() / f"edited_{kind}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    load, error = LOAD[kind]
    try:
        load(path)
    except error as e:
        message = str(e)
        assert message.startswith(f"{path}: ")
        assert "malformed" not in message
        assert re.search(rf"\b({'|'.join(FIELDS[kind])})\b", message), message
