import json

import numpy as np
import pytest

import somblocks as sb
from somblocks.evaluate import EvalReport, EvaluateError, report_to_dict
from somblocks.partition import Partition

from conftest import make_map, map_cells


def labeled_line_map(counts_per_cell):
    """1xN map; counts_per_cell[c] = per-class member counts of cell c."""
    n_classes = len(counts_per_cell[0])
    labels = []
    grid = [[]]
    sid = 0
    pes_members = []
    for counts in counts_per_cell:
        members = []
        for cls, k in enumerate(counts):
            labels.extend([f"c{cls}"] * k)
            members.extend(range(sid, sid + k))
            sid += k
        pes_members.append(tuple(members))
        grid[0].append(0.0)
    m = make_map(grid, s=0.2)
    # rebuild with the right member lists
    from somblocks.som import PeStats, SomMap
    pes = [PeStats(r=pe.r, c=pe.c, weight=pe.weight, member_ids=pes_members[i],
                   n=len(pes_members[i]), mean=pe.mean, std=pe.std)
           for i, pe in enumerate(map_cells(m))]
    return SomMap(rows=m.rows, cols=m.cols, pes=tuple(pes), config=m.config), labels


def test_perfect_prediction():
    m, labels = labeled_line_map([(5, 0), (0, 5)])
    p = Partition.from_labels(np.array([[0, 1]]))
    rep = sb.score(p, m, labels)
    assert rep.p_o == 1.0
    assert rep.kappa == 1.0


def test_balanced_three_class_kappa_is_point_seven():
    # three blocks, each holding 40 of its own class and 5 of each other:
    # p_o = 120/150 = 0.8, uniform marginals -> p_e = 1/3, kappa = 0.7
    m, labels = labeled_line_map([(40, 5, 5), (5, 40, 5), (5, 5, 40)])
    p = Partition.from_labels(np.array([[0, 1, 2]]))
    rep = sb.score(p, m, labels)
    assert rep.p_o == pytest.approx(0.8, abs=1e-15)
    assert rep.p_e == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert rep.kappa == pytest.approx(0.7, abs=1e-12)
    assert rep.confusion.sum() == rep.n_samples == 150


def test_fixture_bayesian_partition_score(fixture_map, iris, iris_params):
    p = sb.partition_som(fixture_map, iris_params)
    rep = sb.score(p, fixture_map, iris.labels)
    assert 0.80 <= rep.p_o <= 0.95
    assert 0.70 <= rep.kappa <= 0.93


def test_majority_tie_takes_lowest_class():
    m, labels = labeled_line_map([(3, 3), (0, 2)])
    p = Partition.from_labels(np.array([[0, 1]]))
    rep = sb.score(p, m, labels)
    assert rep.block_labels[0] == 0
    assert rep.block_labels[1] == 1


def test_score_errors(fixture_map, iris):
    p = Partition.from_labels(np.zeros((2, 2), dtype=int))
    with pytest.raises(EvaluateError):
        sb.score(p, fixture_map, iris.labels)
    good = Partition.from_labels(np.zeros((5, 5), dtype=int))
    with pytest.raises(EvaluateError):
        sb.score(good, fixture_map, None)


@pytest.mark.parametrize("n_labels", [100, 155])
def test_render_map_refuses_labels_of_another_size(fixture_map, iris, n_labels):
    # 100 labels used to raise IndexError, 155 to draw a phantom fourth class
    labels = (list(iris.labels) + ["phantom"] * 5)[:n_labels]
    p = Partition.from_labels(np.zeros((5, 5), dtype=int))
    with pytest.raises(EvaluateError, match="labels do not cover the map's samples"):
        sb.render_map(fixture_map, p, labels)
    with pytest.raises(EvaluateError, match="labels do not cover the map's samples"):
        sb.render_map(fixture_map, labels=labels)


def test_render_map_refuses_a_partition_of_another_shape(fixture_map, iris):
    p = Partition.from_labels(np.zeros((4, 5), dtype=int))
    for labels in (None, iris.labels):
        with pytest.raises(EvaluateError, match="partition shape does not match the map"):
            sb.render_map(fixture_map, p, labels)


def test_kappa_never_exceeds_observed_agreement():
    rng = np.random.default_rng(17)
    for _ in range(20):
        counts = rng.integers(0, 10, size=(4, 3)).tolist()
        if sum(map(sum, counts)) == 0:
            continue
        m, labels = labeled_line_map(counts)
        p = Partition.from_labels(np.arange(4).reshape(1, 4))
        rep = sb.score(p, m, labels)
        assert rep.kappa <= rep.p_o + 1e-12


def test_relabeling_invariance():
    m, labels = labeled_line_map([(8, 2, 1), (1, 7, 2), (0, 3, 9)])
    p = Partition.from_labels(np.array([[0, 1, 2]]))
    rep = sb.score(p, m, labels)
    # permute class names consistently; metrics must not move
    perm = {"c0": "z", "c1": "a", "c2": "m"}
    rep2 = sb.score(p, m, [perm[l] for l in labels])
    assert rep2.p_o == pytest.approx(rep.p_o)
    assert rep2.p_e == pytest.approx(rep.p_e)
    assert rep2.kappa == pytest.approx(rep.kappa)


def test_merging_like_labeled_blocks_keeps_report(fixture_map, iris, iris_params):
    p = sb.partition_som(fixture_map, iris_params)
    rep = sb.score(p, fixture_map, iris.labels)
    same = [(a, b) for a in range(p.n_blocks) for b in range(a + 1, p.n_blocks)
            if rep.block_labels[a] == rep.block_labels[b]]
    for a, b in same:
        merged = np.where(p.block_of == b, a, p.block_of)
        q = Partition.from_labels(merged)
        rep2 = sb.score(q, fixture_map, iris.labels)
        assert rep2.p_o == pytest.approx(rep.p_o)
        assert rep2.kappa == pytest.approx(rep.kappa)
        assert np.array_equal(rep2.confusion, rep.confusion)


def test_render_contains_kappa_line():
    m, labels = labeled_line_map([(5, 0), (0, 5)])
    p = Partition.from_labels(np.array([[0, 1]]))
    text = sb.render_report(sb.score(p, m, labels))
    assert "kappa: 1.000000" in text


def test_render_golden_table():
    rep = EvalReport(
        block_labels={0: 0, 1: 1, 2: 2}, classes=["a", "b", "c"],
        confusion=np.array([[40, 5, 5], [5, 40, 5], [5, 5, 40]]),
        p_o=0.8, p_e=1.0 / 3.0, kappa=0.7, n_samples=150)
    text = sb.render_report(rep)
    expected = (
        "confusion matrix (rows = truth, cols = predicted)\n"
        "             a       b       c\n"
        "     a      40       5       5\n"
        "     b       5      40       5\n"
        "     c       5       5      40\n"
        "\n"
        "samples: 150\n"
        "blocks: 3\n"
        "block labels: 0->a, 1->b, 2->c\n"
        "accuracy: 0.800000\n"
        "p_e: 0.333333\n"
        "kappa: 0.700000\n")
    assert text.startswith(expected)
    footer = json.loads(text.strip().splitlines()[-1].removeprefix("#json "))
    assert footer["p_o"] == 0.8
    assert footer["kappa"] == 0.7
    assert footer["confusion"][0] == [40, 5, 5]


def test_render_zero_row_no_division_error():
    rep = EvalReport(
        block_labels={0: 0}, classes=["a", "b"],
        confusion=np.array([[10, 0], [0, 0]]),
        p_o=1.0, p_e=1.0, kappa=1.0, n_samples=10)
    text = sb.render_report(rep)
    assert " 0" in text


def test_report_round_trips_numbers(fixture_map, iris, iris_params):
    p = sb.partition_som(fixture_map, iris_params)
    rep = sb.score(p, fixture_map, iris.labels)
    d = json.loads(json.dumps(report_to_dict(rep)))
    assert d["p_o"] == rep.p_o
    assert d["p_e"] == rep.p_e
    assert d["kappa"] == rep.kappa
