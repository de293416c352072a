"""Scoring of partitions against ground-truth class labels, and text views of
a score report and of a partitioned map.

A partition is scored by giving every block the majority class of the
samples its cells hold, predicting each sample through its block, and
comparing with the truth: confusion matrix, observed agreement, and the
chance-corrected agreement kappa = (p_o - p_e) / (1 - p_e) with p_e the
product-of-marginals chance term.
"""

import json
from dataclasses import dataclass

import numpy as np

from .partition import Partition, validate_partition
from .som import SomMap


class EvaluateError(ValueError):
    """Raised when a partition cannot be scored against the labels."""


@dataclass(frozen=True, eq=False)
class EvalReport:
    block_labels: dict[int, int]    # block id -> class id
    classes: list                   # class id -> class name
    confusion: np.ndarray           # rows = truth, cols = predicted
    p_o: float
    p_e: float
    kappa: float
    n_samples: int


def _check_partition(som_map: SomMap, partition: Partition) -> None:
    validate_partition(partition)
    if partition.block_of.shape != (som_map.rows, som_map.cols):
        raise EvaluateError("partition shape does not match the map")


def score(partition: Partition, som_map: SomMap, labels) -> EvalReport:
    """Label blocks by majority class and score the induced prediction.

    Majority ties go to the lowest class id; blocks holding no samples fall
    back to class 0 through the same rule.
    """
    if labels is None:
        raise EvaluateError("scoring needs class labels")
    classes, cell_counts = som_map.class_counts(labels)
    _check_partition(som_map, partition)
    n_classes = len(classes)

    block_counts = np.zeros((partition.n_blocks, n_classes), dtype=int)
    np.add.at(block_counts, partition.block_of.ravel(), cell_counts)
    predicted = block_counts.argmax(axis=1)
    block_labels = {b: int(c) for b, c in enumerate(predicted)}
    # confusion[t, p] counts class-t samples in blocks labelled p
    confusion = block_counts.T @ np.eye(n_classes, dtype=int)[predicted]

    n = int(confusion.sum())
    p_o = float(np.trace(confusion)) / n
    row = confusion.sum(axis=1) / n
    col = confusion.sum(axis=0) / n
    p_e = float(np.dot(row, col))
    kappa = 1.0 if p_e == 1.0 else (p_o - p_e) / (1.0 - p_e)
    return EvalReport(block_labels=block_labels, classes=classes, confusion=confusion,
                      p_o=p_o, p_e=p_e, kappa=kappa, n_samples=n)


def report_to_dict(report: EvalReport) -> dict:
    """JSON-ready form of a report; floats keep full precision."""
    return {
        "block_labels": {str(b): c for b, c in sorted(report.block_labels.items())},
        "classes": [str(c) for c in report.classes],
        "confusion": [[int(v) for v in row] for row in report.confusion],
        "p_o": report.p_o,
        "p_e": report.p_e,
        "kappa": report.kappa,
        "n_samples": report.n_samples,
    }


def render_report(report: EvalReport) -> str:
    """Deterministic text table with a machine-readable JSON footer."""
    names = [str(c) for c in report.classes]
    width = max([len(s) for s in names] + [6])
    lines = ["confusion matrix (rows = truth, cols = predicted)"]
    header = " " * (width + 2) + "  ".join(f"{s:>{width}}" for s in names)
    lines.append(header)
    for i, name in enumerate(names):
        row = "  ".join(f"{int(v):>{width}}" for v in report.confusion[i])
        lines.append(f"{name:>{width}}  {row}")
    lines.append("")
    lines.append(f"samples: {report.n_samples}")
    lines.append(f"blocks: {len(report.block_labels)}")
    lines.append("block labels: " + ", ".join(
        f"{b}->{names[c]}" for b, c in sorted(report.block_labels.items())))
    lines.append(f"accuracy: {report.p_o:.6f}")
    lines.append(f"p_e: {report.p_e:.6f}")
    lines.append(f"kappa: {report.kappa:.6f}")
    lines.append("#json " + json.dumps(report_to_dict(report), sort_keys=True))
    return "\n".join(lines) + "\n"


def render_map(som_map: SomMap, partition: Partition | None = None, labels=None) -> str:
    """ASCII grid: block ids, per-class cell populations, block boundaries."""
    if labels is None:
        texts = [f"({n})" for n in som_map.counts.tolist()]
    else:
        texts = ["(" + ",".join(map(str, row)) + ")"
                 for row in som_map.class_counts(labels)[1].tolist()]
    rows, cols = som_map.rows, som_map.cols
    if partition is None:
        block = np.zeros((rows, cols), dtype=int)       # one block, so no boundary
    else:
        _check_partition(som_map, partition)
        block = partition.block_of
        texts = [f"{b} {t}" for b, t in zip(block.ravel().tolist(), texts)]
    width = max(len(t) for t in texts)
    h_cut = (block[:, :-1] != block[:, 1:]).tolist()    # the (r, c)-(r, c+1) edge is cut
    v_cut = (block[:-1] != block[1:]).tolist()          # the (r, c)-(r+1, c) edge is cut

    def line(pieces, gaps):
        return "".join(gap + piece for gap, piece in zip(["", *gaps], pieces)).rstrip()

    lines = []
    for r in range(rows):
        if r:       # the boundaries between rows r-1 and r; a blank line is left out
            cuts = v_cut[r - 1]
            lines.append(line([("─" if cut else " ") * width for cut in cuts],
                              ["───" if a or b else "   " for a, b in zip(cuts, cuts[1:])]))
        lines.append(line([f"{t:<{width}}" for t in texts[r * cols:(r + 1) * cols]],
                          [" │ " if cut else "   " for cut in h_cut[r]]))
    return "\n".join(filter(None, lines)) + "\n"
