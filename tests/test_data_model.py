import re
import sys

import numpy as np
import pytest

import somblocks as sb
from somblocks.data_model import DataError, encode_labels, is_number, write_text_atomic

from conftest import fixture_path


def test_iris_shape_and_classes(iris):
    assert iris.samples.shape == (150, 4)
    assert iris.n_attributes == 4
    assert iris.classes() == ["setosa", "versicolor", "virginica"]
    counts = np.bincount(encode_labels(iris.labels)[1])
    assert counts.tolist() == [50, 50, 50]


def test_iris_without_label_column(iris, tmp_path):
    # numeric columns only; no label column requested
    p = tmp_path / "iris_nolabel.csv"
    with open(sb.iris_path(), encoding="utf-8") as f:
        lines = [",".join(line.strip().split(",")[:4]) for line in f]
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    ds = sb.load_csv(p)
    assert ds.labels is None
    assert ds.samples.shape == (150, 4)
    assert np.array_equal(ds.samples, iris.samples)


def test_blank_lines_are_skipped(tmp_path):
    rows = ["a,b,class", "1.0,2.0,x", "3.0,4.0,y"]
    plain, spaced = tmp_path / "plain.csv", tmp_path / "spaced.csv"
    plain.write_text("\n".join(rows) + "\n", encoding="utf-8")
    spaced.write_text("\n\n".join(rows) + "\n\n", encoding="utf-8")
    want, got = sb.load_csv(plain, "class"), sb.load_csv(spaced, "class")
    assert np.array_equal(got.samples, want.samples)
    assert (got.labels, got.attribute_names) == (want.labels, want.attribute_names)


def test_header_only_file_is_zero_rows(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("a,b,c\n", encoding="utf-8")
    with pytest.raises(DataError, match="zero data rows"):
        sb.load_csv(p)


def test_empty_file(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("", encoding="utf-8")
    with pytest.raises(DataError, match=f"^{re.escape(str(p))}: empty file$"):
        sb.load_csv(p)


def test_row_of_the_wrong_width(tmp_path):
    p = tmp_path / "short.csv"
    p.write_text("a,b\n1.0,2.0\n3.0\n", encoding="utf-8")
    with pytest.raises(DataError, match=f"^{re.escape(str(p))}:3: expected 2 fields, got 1$"):
        sb.load_csv(p)


def test_missing_file():
    with pytest.raises(OSError):
        sb.load_csv("/nonexistent/never.csv")


def test_non_numeric_cell(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n1.0,oops\n", encoding="utf-8")
    with pytest.raises(DataError, match="non-numeric"):
        sb.load_csv(p)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_non_finite_cell_is_refused_where_it_is_parsed(tmp_path, cell):
    p = tmp_path / "bad.csv"
    p.write_text(f"a,b\n1.0,2.0\n1.0,{cell}\n", encoding="utf-8")
    with pytest.raises(DataError, match=f"^{re.escape(str(p))}:3: non-finite value '{cell}'$"):
        sb.load_csv(p)


def test_label_column_absent(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b\n1.0,2.0\n", encoding="utf-8")
    with pytest.raises(DataError, match="label column"):
        sb.load_csv(p, "class")


def test_a_file_that_is_not_utf8_text_is_refused_by_path(tmp_path):
    p = tmp_path / "binary.csv"
    p.write_bytes(b"a,b\n1.0,2.0\n\xff,3.0\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(p))}: malformed CSV file: "
                                        f"'utf-8' codec can't decode byte 0xff"):
        sb.load_csv(p)


@pytest.mark.parametrize("header", ["class,a", "a,class"])
def test_a_byte_order_mark_is_not_part_of_the_first_header_name(tmp_path, header):
    p = tmp_path / "bom.csv"
    rows = ["x,1.0", "y,2.0"] if header.startswith("class") else ["1.0,x", "2.0,y"]
    p.write_bytes(("\ufeff" + "\n".join([header, *rows]) + "\n").encode("utf-8"))
    ds = sb.load_csv(p, "class")
    assert ds.attribute_names == ("a",)
    assert ds.labels == ("x", "y")
    assert ds.samples.tolist() == [[1.0], [2.0]]


UNCLOSED = "a quote in the record that starts on this line is never closed"


@pytest.mark.parametrize("text, refusal", [
    ('a,"b\n1,2\n', f"1: {UNCLOSED}"),
    ('a,b\n1,"2\n3,4\n', f"2: {UNCLOSED}"),
    ('a,b\n1,2\n\n3,"4\n', f"4: {UNCLOSED}"),
    ('a,b\n1,"2"x\n', "2: malformed CSV record: ',' expected after '\"'"),
    ('a,b\n"1.0\n",2.0\n3.0,oops\n', "4: non-numeric value 'oops'"),
])
def test_quoting_is_strict_and_a_record_is_named_by_its_first_line(tmp_path, text, refusal):
    p = tmp_path / "quote.csv"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(DataError, match=f"^{re.escape(f'{p}:{refusal}')}$"):
        sb.load_csv(p)


@pytest.mark.parametrize("text", ["class\nx\ny\n", "\n1.0\n"])
def test_a_header_without_an_attribute_column_is_refused_by_path(tmp_path, text):
    p = tmp_path / "labels.csv"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(DataError, match=f"^{re.escape(str(p))}: no attribute column in header$"):
        sb.load_csv(p, "class" if text.startswith("class") else None)


def test_summarize_iris_extremes(iris):
    summ = sb.summarize(iris)
    # published per-attribute maxima / brute-force minima of the same file
    brute_min = None
    brute_max = None
    with open(sb.iris_path(), encoding="utf-8") as f:
        next(f)
        for line in f:
            vals = np.array([float(v) for v in line.strip().split(",")[:4]])
            brute_min = vals if brute_min is None else np.minimum(brute_min, vals)
            brute_max = vals if brute_max is None else np.maximum(brute_max, vals)
    assert np.array_equal(summ.maxs, [7.9, 4.4, 6.9, 2.5])
    assert np.array_equal(summ.mins, [4.3, 2.0, 1.0, 0.1])
    assert np.array_equal(summ.mins, brute_min)
    assert np.array_equal(summ.maxs, brute_max)


def test_summarize_constant_column():
    ds = sb.Dataset(samples=np.array([[3.0, 1.0], [3.0, 2.0]]),
                    labels=None, attribute_names=["k", "x"])
    summ = sb.summarize(ds)
    assert summ.mins[0] == summ.maxs[0] == 3.0
    assert summ.spans[0] == 0.0


def test_summarize_permutation_invariant(iris):
    rng = np.random.default_rng(5)
    for _ in range(5):
        perm = rng.permutation(iris.n_samples)
        shuffled = sb.Dataset(samples=iris.samples[perm],
                              labels=[iris.labels[i] for i in perm],
                              attribute_names=iris.attribute_names)
        s1, s2 = sb.summarize(iris), sb.summarize(shuffled)
        assert np.array_equal(s1.mins, s2.mins)
        assert np.array_equal(s1.maxs, s2.maxs)


def test_every_sample_within_bounds(iris):
    summ = sb.summarize(iris)
    assert np.all(iris.samples >= summ.mins)
    assert np.all(iris.samples <= summ.maxs)


def test_dataset_keeps_tuple_copies_of_its_labels_and_names():
    samples = np.array([[1.0, 2.0], [3.0, 4.0]])
    labels, names = ["a", "b"], ["x", "y"]
    ds = sb.Dataset(samples=samples, labels=labels, attribute_names=names)
    labels.append("c")
    names.append("z")
    assert (ds.labels, ds.attribute_names) == (("a", "b"), ("x", "y"))
    ds = sb.Dataset(samples=samples, labels=(label for label in "ba"), attribute_names=["x", "y"])
    assert (ds.labels, ds.classes()) == (("b", "a"), ["a", "b"])
    with pytest.raises(DataError, match=r"^labels must be a sequence, not a set, got "):
        sb.Dataset(samples=samples, labels={"a", "b"}, attribute_names=["x", "y"])


def test_dataset_invariants():
    with pytest.raises(DataError):
        sb.Dataset(samples=np.array([[1.0, np.inf]]), labels=None, attribute_names=["a", "b"])
    with pytest.raises(DataError):
        sb.Dataset(samples=np.array([[1.0]]), labels=["a", "b"], attribute_names=["x"])


def test_an_unlabeled_dataset_has_no_classes():
    dataset = sb.Dataset(samples=[[1.0], [2.0]], labels=None, attribute_names=["x"])
    with pytest.raises(DataError, match="^dataset has no labels$"):
        dataset.classes()


def test_attribute_summary_refuses_a_min_above_its_max():
    with pytest.raises(DataError, match="^attribute min exceeds max$"):
        sb.AttributeSummary(mins=[0.0, 2.0], maxs=[1.0, 1.5])


def test_datasets_and_summaries_compare_by_identity():
    # a generated == over array fields raised numpy's ambiguous truth value
    one = sb.Dataset(samples=[[1.0], [2.0]], labels=None, attribute_names=["x"])
    two = sb.Dataset(samples=[[1.0], [2.0]], labels=None, attribute_names=["x"])
    for a, b in ((one, two), (sb.summarize(one), sb.summarize(two))):
        assert a == a and not a != a
        assert a != b and not a == b
        assert hash(a) == hash(a)


def test_encode_labels_sorted_order():
    classes, ids = encode_labels(["b", "a", "b", "c"])
    assert classes == ["a", "b", "c"]
    assert ids.tolist() == [1, 0, 1, 2]



def old_artifact(tmp_path):
    target = tmp_path / "artifact.json"
    target.write_text("old contents\n", encoding="utf-8")
    return target


def assert_untouched(tmp_path, target):
    assert target.read_text(encoding="utf-8") == "old contents\n"
    assert [p.name for p in tmp_path.iterdir()] == [target.name]


def test_failed_save_partition_keeps_the_old_file(tmp_path):
    target = old_artifact(tmp_path)
    p = sb.Partition.from_labels(np.array([[0, 1]]))
    with pytest.raises(TypeError):
        sb.save_partition(p, target, params_echo={"f": object()})
    assert_untouched(tmp_path, target)


def test_failed_save_map_keeps_the_old_file(tmp_path, monkeypatch):
    target = old_artifact(tmp_path)

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("somblocks.data_model.os.replace", refuse)
    with pytest.raises(OSError, match="disk full"):
        sb.save_map(sb.load_map(fixture_path("iris_map_seed2.json")), target)
    assert_untouched(tmp_path, target)


def test_write_onto_a_directory_leaves_no_temp_file(tmp_path):
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "keep").write_text("", encoding="utf-8")
    with pytest.raises(OSError):
        write_text_atomic(tmp_path / "out", "text")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


def test_is_number_refuses_what_a_float_cannot_hold():
    top = int(sys.float_info.max)
    for value in (0, -3, 2.5, np.int64(7), np.float32(1.5), top, -top, top + 1):
        assert is_number(value), value
    for value in (10**400, -10**400, 2**1024, True, np.True_, "1", None):
        assert not is_number(value), value
