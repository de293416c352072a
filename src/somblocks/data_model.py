"""Dataset ingestion and per-attribute summaries.

Datasets are plain numeric tables: one row per sample, one column per
attribute, with an optional class-label column.  Attribute values are kept
in their source units; any scaling happens downstream.
"""

import csv
import functools
import inspect
import json
import math
import numbers
import os
import reprlib
from collections.abc import Iterator, Set as AbstractSet
from dataclasses import dataclass, field
from importlib import resources

import numpy as np


class DataError(ValueError):
    """Raised for malformed or degenerate input data."""


@dataclass(frozen=True, eq=False)
class Dataset:
    """Numeric samples with optional class labels.

    samples is a read-only (n, M) float array, labels (optional) a tuple of n
    class identifiers (strings) and attribute_names a tuple of M names: each a copy.
    """

    samples: np.ndarray
    labels: tuple[str, ...] | None
    attribute_names: tuple[str, ...]

    def __post_init__(self):
        samples = float_array(DataError, "samples", self.samples, 2)
        object.__setattr__(self, "samples", samples)
        if not np.all(np.isfinite(samples)):
            raise DataError("non-finite attribute value in dataset")
        names = self.attribute_names
        if not (isinstance(names, (list, tuple)) and len(names) == samples.shape[1]
                and all(isinstance(name, str) for name in names)):
            raise DataError(f"attribute_names must be a list of {samples.shape[1]} names, one "
                            f"per samples column, got {reprlib.repr(names)}")
        object.__setattr__(self, "attribute_names", tuple(names))
        if self.labels is not None:
            labels = tuple(self.labels) if isinstance(self.labels, Iterator) else self.labels
            encode_labels(labels)
            if len(labels) != samples.shape[0]:
                raise DataError("labels length does not match number of samples")
            object.__setattr__(self, "labels", tuple(labels))

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def n_attributes(self) -> int:
        return self.samples.shape[1]

    def classes(self) -> list[str]:
        """Sorted distinct class labels; class id = index in this list."""
        if self.labels is None:
            raise DataError("dataset has no labels")
        return encode_labels(self.labels)[0]


def encode_labels(labels) -> tuple[list, np.ndarray]:
    """Map labels, a non-empty sequence (not a set) of hashable values that sort
    together, to dense class ids in sorted-label order; else DataError naming labels."""
    if isinstance(labels, AbstractSet):
        raise DataError(f"labels must be a sequence, not a set, got {reprlib.repr(labels)}")
    try:
        labels = list(labels)
        classes = sorted(set(labels))
    except TypeError:       # not iterable, or a label unhashable or not comparable
        raise DataError(f"labels must be a sequence of hashable values that sort together, "
                        f"got {reprlib.repr(labels)}") from None
    if not labels:
        raise DataError("labels must not be empty")
    index = {c: i for i, c in enumerate(classes)}
    return classes, np.array([index[l] for l in labels], dtype=int)


@dataclass(frozen=True, eq=False)
class AttributeSummary:
    """Per-attribute min, max and span over all samples."""

    mins: np.ndarray
    maxs: np.ndarray
    spans: np.ndarray = field(init=False)

    def __post_init__(self):
        mins = float_array(DataError, "mins", self.mins, 1)
        maxs = float_array(DataError, "maxs", self.maxs, 1)
        if mins.shape != maxs.shape:
            raise DataError(f"mins and maxs must have the same length, got {mins.size} "
                            f"and {maxs.size}")
        require(DataError, lambda v: np.isfinite(v).all(), "finite", mins=mins, maxs=maxs)
        if np.any(mins > maxs):
            raise DataError("attribute min exceeds max")
        object.__setattr__(self, "mins", mins)
        object.__setattr__(self, "maxs", maxs)
        object.__setattr__(self, "spans", float_array(DataError, "spans", maxs - mins, 1))


def load_csv(path, label_column: str | None = None) -> Dataset:
    """Load a comma-separated file with a header row into a Dataset.

    The file is UTF-8 text (a leading byte-order mark is skipped) with strict
    quoting.  All columns except label_column must parse as finite reals.
    Labels are populated iff label_column is given.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as f:
            records = _csv_records(f, path)
            try:
                _, header = next(records)
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            header = [h.strip() for h in header]
            if label_column is not None:
                if label_column not in header:
                    raise DataError(f"{path}: label column {label_column!r} not in header")
                label_idx = header.index(label_column)
            else:
                label_idx = None
            names = [h for i, h in enumerate(header) if i != label_idx]
            if not names:
                raise DataError(f"{path}: no attribute column in header")

            rows, labels = [], []
            for lineno, row in records:
                if not row:
                    continue
                if len(row) != len(header):
                    raise DataError(f"{path}:{lineno}: expected {len(header)} fields, "
                                    f"got {len(row)}")
                values = []
                for i, cell in enumerate(row):
                    if i == label_idx:
                        labels.append(cell.strip())
                        continue
                    try:
                        value = float(cell)
                    except ValueError:
                        raise DataError(f"{path}:{lineno}: non-numeric value {cell!r}") from None
                    if not math.isfinite(value):
                        raise DataError(f"{path}:{lineno}: non-finite value {cell!r}")
                    values.append(value)
                rows.append(values)
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: malformed CSV file: {e}") from None

    if not rows:
        raise DataError(f"{path}: zero data rows")
    return Dataset(
        samples=np.array(rows, dtype=float),
        labels=labels if label_idx is not None else None,
        attribute_names=names,
    )


def _csv_records(f, path) -> Iterator[tuple[int, list[str]]]:
    """(first line number, fields) of each record of the CSV text file f."""
    reader = csv.reader(f, strict=True)
    while True:
        start = reader.line_num + 1
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as e:
            if str(e) == "unexpected end of data":     # the file ends inside a quoted field
                raise DataError(f"{path}:{start}: a quote in the record that starts on this "
                                f"line is never closed") from None
            raise DataError(f"{path}:{start}: malformed CSV record: {e}") from None
        yield start, row


def is_integer(value) -> bool:
    """True for an integer (numpy's included) that is not a bool."""
    # a plain int skips the slow abstract-class check; a bool's type is not int
    return type(value) is int or (isinstance(value, numbers.Integral)
                                  and not isinstance(value, bool))


def is_number(value) -> bool:
    """True for a real number (numpy's included) that is not a bool and that
    a float can hold (an int such as 10**400 is too large)."""
    if type(value) is float:
        return True
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def require(error, test, noun: str, **values) -> None:
    """Raise error naming the first of the named values that fails test."""
    for name, value in values.items():
        if not test(value):
            raise error(f"{name} must be {noun}, got {reprlib.repr(value)}")


def float_array(error, name: str, value, ndim: int) -> np.ndarray:
    """value as a read-only float64 copy with ndim dimensions and at least one
    element, else error naming name and the first element that is not a number
    a float can hold (is_number: no bool, string, None or int such as 10**400).
    An array must have an integer or float dtype."""
    if isinstance(value, np.ndarray) and value.dtype.kind in "fiu":
        array = value.astype(float)
    else:
        items = np.array(value, dtype=object)   # nested lists' shape; elements as Python objects
        for item in items.flat:
            if not is_number(item):
                raise error(f"{name} must hold numbers, got {reprlib.repr(item)}")
        if isinstance(value, np.ndarray):       # an object array, though of numbers
            raise error(f"{name} must hold numbers, got {reprlib.repr(value)}")
        array = items.astype(float)
    if array.ndim != ndim or not array.size:
        raise error(f"{name} must be a non-empty {ndim}-D array, got shape {array.shape}")
    array.setflags(write=False)
    return array


@functools.cache
def record_keys(build) -> frozenset:
    """The keys of a file record that build (a class or function) reads: its parameters."""
    return frozenset(inspect.signature(build).parameters)


def from_record(error, build, record, name: str):
    """build(**record) for a JSON object whose keys are exactly record_keys(build)."""
    if not isinstance(record, dict):
        raise error(f"{name} must be a JSON object, got {reprlib.repr(record)}")
    if record.keys() != (names := record_keys(build)):
        if missing := sorted(names - record.keys()):
            raise error(f"{name} is missing {', '.join(missing)}")
        raise error(f"{name} has unknown keys {', '.join(sorted(record.keys() - names))}")
    return build(**record)


def read_json_file(path, kind: str, version: int, error, build):
    """from_record(build) of the JSON object in a `kind` file, less its format_version
    (which must equal version); every error names the path, and only bad JSON is malformed."""
    try:
        with open(path, encoding="utf-8-sig") as f:
            doc = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise error(f"{path}: malformed {kind} file: {e}") from None
    found = doc.pop("format_version", None) if isinstance(doc, dict) else None
    if not (is_integer(found) and found == version):
        raise error(f"{path}: unsupported {kind} format version")
    try:
        return from_record(error, build, doc, f"{kind} file")
    except error as e:
        raise error(f"{path}: {e}") from None


def write_text_atomic(path, text: str) -> None:
    """Write text to path through a temp file and a rename.

    On any failure the temp file is removed and path keeps its old contents.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def summarize(dataset: Dataset) -> AttributeSummary:
    """Exact per-attribute min/max/span over all samples."""
    return AttributeSummary(
        mins=dataset.samples.min(axis=0),
        maxs=dataset.samples.max(axis=0),
    )


def iris_path() -> str:
    """Filesystem path of the bundled 150x4 Iris table."""
    return str(resources.files("somblocks.data").joinpath("iris.csv"))
