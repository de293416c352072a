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
from dataclasses import dataclass, field
from importlib import resources

import numpy as np


class DataError(ValueError):
    """Raised for malformed or degenerate input data."""


@dataclass(frozen=True)
class Dataset:
    """Numeric samples with optional class labels.

    samples is an (n, M) float array; labels, when present, is a list of n
    class identifiers (strings).
    """

    samples: np.ndarray
    labels: list[str] | None
    attribute_names: list[str]

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 2 or samples.shape[1] < 1:
            raise DataError("samples must be a non-empty (n, M) table with M >= 1")
        if not np.all(np.isfinite(samples)):
            raise DataError("non-finite attribute value in dataset")
        if len(self.attribute_names) != samples.shape[1]:
            raise DataError("attribute_names length does not match sample width")
        if self.labels is not None and len(self.labels) != samples.shape[0]:
            raise DataError("labels length does not match number of samples")

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
    """Map arbitrary labels to dense class ids in sorted-label order."""
    labels = list(labels)
    if not labels:
        raise DataError("empty label sequence")
    classes = sorted(set(labels))
    index = {c: i for i, c in enumerate(classes)}
    return classes, np.array([index[l] for l in labels], dtype=int)


@dataclass(frozen=True)
class AttributeSummary:
    """Per-attribute min, max and span over all samples."""

    mins: np.ndarray
    maxs: np.ndarray
    spans: np.ndarray = field(init=False)

    def __post_init__(self):
        mins = np.asarray(self.mins, dtype=float)
        maxs = np.asarray(self.maxs, dtype=float)
        if np.any(mins > maxs):
            raise DataError("attribute min exceeds max")
        object.__setattr__(self, "mins", mins)
        object.__setattr__(self, "maxs", maxs)
        object.__setattr__(self, "spans", maxs - mins)


def load_csv(path, label_column: str | None = None) -> Dataset:
    """Load a comma-separated file with a header row into a Dataset.

    All columns except label_column must parse as finite reals.  Labels are
    populated iff label_column is given.
    """
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if label_column is not None:
            if label_column not in header:
                raise DataError(f"{path}: label column {label_column!r} not in header")
            label_idx = header.index(label_column)
        else:
            label_idx = None

        rows, labels = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
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

    if not rows:
        raise DataError(f"{path}: zero data rows")
    names = [h for i, h in enumerate(header) if i != label_idx]
    return Dataset(
        samples=np.array(rows, dtype=float),
        labels=labels if label_idx is not None else None,
        attribute_names=names,
    )


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
        with open(path) as f:
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
        with open(tmp, "w") as f:
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
