import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ectshape.classifiers import train_model
from ectshape.classifiers.serialize import load_model, save_model
from ectshape.cli import extract_table
from ectshape.dataset import (
    FEATURE_CSV_HEADER,
    feature_csv_row,
    labeled_dataset,
    parse_feature_csv,
)
from ectshape.errors import (
    DuplicatePathError,
    EmptyRecordError,
    MalformedLineError,
    ModelFormatError,
    NonFiniteSampleError,
    TooFewSamplesError,
)
from ectshape.geometry import FEATURE_NAMES_EXTENDED
from ectshape.ingest import (
    load_manifest,
    parse_record,
    record_id_from_path,
    record_to_text,
)
from ectshape.preprocess import TrimPolicy
from ectshape.textio import format_float, iter_data_lines
from reference import manifest_to_text

finite_floats = st.floats(allow_nan=False, allow_infinity=False)


def test_format_float_round_trips():
    for x in (0.1, 1 / 3, -2.5e-300, 1.7976931348623157e308, 0.0):
        assert float(format_float(x)) == x


@given(finite_floats)
def test_format_float_round_trips_any(x):
    assert float(format_float(x)) == x


def test_iter_data_lines_skips_comments_and_blanks():
    text = "# header\n\n  1 2\n   # another\n3 4\n\n"
    assert list(iter_data_lines(text)) == [(3, "1 2"), (5, "3 4")]


# --- what ends a line ----------------------------------------------------------

def _table_of(text):
    table = parse_feature_csv(text)
    return table.record_ids, table.label_names, table.values.tolist()


def _model_lines():
    data = labeled_dataset(
        [[0.0, 1.0], [0.5, 1.5], [3.0, 0.0], [3.5, 0.5]], [0, 0, 1, 1], 2, ("L", "W")
    )
    return save_model(train_model("nb", data, class_names=("a", "b"))).rstrip("\n").split("\n")


# format: (parse to a comparable value, the lines of a valid text); each
# text's second line would parse as data in a place of its own
LINE_FORMATS = {
    "record": (lambda t: parse_record(t, "r").tolist(), ["1 2", "3 4", "5 6", "7 8"]),
    "manifest": (load_manifest, ["a.csv,x", "b.csv,y", "c.csv,x", "d.csv,y"]),
    "feature CSV": (
        _table_of,
        [FEATURE_CSV_HEADER] + [feature_csv_row(f"r{i}", "x", [i] * 10) for i in range(3)],
    ),
    "model file": (lambda t: save_model(load_model(t)), _model_lines()),
}
NEWLINES = ["\n", "\r\n", "\r"]


@pytest.mark.parametrize("newline", NEWLINES, ids=repr)
@pytest.mark.parametrize("sep", ["\u2028", "\x85", "\x0c"], ids=repr)
@pytest.mark.parametrize("fmt", LINE_FORMATS)
def test_a_comment_holding_a_line_separator_stays_one_comment(fmt, sep, newline):
    parse, lines = LINE_FORMATS[fmt]
    # str.splitlines would end the comment at sep and read its tail as data
    commented = lines[:1] + ["# retired: old" + sep + lines[1]] + lines[1:]
    assert parse(newline.join(commented)) == parse("\n".join(lines))


@pytest.mark.parametrize("newline", NEWLINES, ids=repr)
@pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x85", "\u2029"], ids=repr)
@pytest.mark.parametrize("fmt", LINE_FORMATS)
def test_a_bad_line_is_reported_at_its_newline_number(fmt, sep, newline):
    parse, lines = LINE_FORMATS[fmt]
    text = newline.join(lines[:1] + [lines[1] + sep] + lines[2:-1] + ["bad line"])
    with pytest.raises((MalformedLineError, ModelFormatError)) as exc:
        parse(text)
    assert exc.value.line_no == len(lines)
    assert str(exc.value).startswith(f"line {len(lines)}: ")


def test_parse_record_whitespace_and_comma_agree():
    a = parse_record("1.5 -2.25\n3 4\n", "a")
    b = parse_record("1.5,-2.25\n3,4\n", "b")
    assert np.array_equal(a, b)
    assert a.shape == (2, 2)


def test_parse_record_preserves_order():
    samples = parse_record("3 0\n1 0\n2 0\n", "r")
    assert list(samples[:, 0]) == [3.0, 1.0, 2.0]


def test_parse_record_reports_true_line_number():
    # data error on physical line 4, after a comment and a blank
    text = "# c\n\n1 2\n1 2 3\n"
    with pytest.raises(MalformedLineError) as exc:
        parse_record(text, "r")
    assert exc.value.line_no == 4


def test_parse_record_non_numeric():
    with pytest.raises(MalformedLineError):
        parse_record("1 x\n", "r")


def test_parse_record_non_finite():
    with pytest.raises(NonFiniteSampleError):
        parse_record("1 nan\n", "r")
    with pytest.raises(NonFiniteSampleError):
        parse_record("inf 1\n", "r")


def test_parse_record_empty():
    with pytest.raises(EmptyRecordError):
        parse_record("# only a comment\n", "r")


@given(st.lists(st.tuples(finite_floats, finite_floats), min_size=1, max_size=30))
def test_record_text_round_trip(pairs):
    samples = np.array(pairs)
    back = parse_record(record_to_text(samples), "r")
    assert np.array_equal(back, samples)


@given(st.lists(st.tuples(finite_floats, finite_floats), min_size=1, max_size=30))
def test_record_text_equals_per_line_format_float(pairs):
    samples = np.array(pairs)
    lines = [f"{format_float(re)} {format_float(im)}" for re, im in samples]
    assert record_to_text(samples) == "\n".join(lines) + "\n"


def test_record_text_keeps_extreme_values_and_zero_signs():
    samples = np.array([[-0.0, 0.0], [5e-324, -1.7976931348623157e308], [1 / 3, 2.0]])
    text = record_to_text(samples)
    assert text == (
        "-0 0\n"
        "4.9406564584124654e-324 -1.7976931348623157e+308\n"
        "0.33333333333333331 2\n"
    )


def test_record_samples_immutable():
    samples = parse_record("1 2\n3 4\n", "r")
    with pytest.raises(ValueError):
        samples[0, 0] = 9.0


def test_load_manifest_sorted_class_names():
    m = load_manifest("a.csv,perp_d1.0\nb.csv,ang30_d0.7\n")
    assert m == (("a.csv", "perp_d1.0"), ("b.csv", "ang30_d0.7"))


def test_load_manifest_duplicate_path():
    with pytest.raises(DuplicatePathError):
        load_manifest("a.csv,x\na.csv,y\n")


def test_load_manifest_malformed():
    with pytest.raises(MalformedLineError):
        load_manifest("a.csv\n")
    with pytest.raises(MalformedLineError):
        load_manifest("a.csv,\n")


def test_manifest_round_trip():
    text = "a.csv,x\nb.csv,y\n"
    assert manifest_to_text(load_manifest(text)) == text


ELLIPSE_TEXT = "".join(
    f"{1.0 + 2.0 * math.cos(i * math.pi / 10)} {0.5 + 0.8 * math.sin(i * math.pi / 10)}\n"
    for i in range(20)
)


def test_extract_table_happy_path():
    m = load_manifest("one.csv,low\ntwo.csv,high\n")
    files = {"one.csv": ELLIPSE_TEXT, "two.csv": "# comment\n" + ELLIPSE_TEXT}
    table, skipped = extract_table(m, files.__getitem__, TrimPolicy())
    assert skipped == []
    assert table.record_ids == ("one", "two")
    assert table.label_names == ("low", "high")
    assert table.class_names == ("high", "low")
    assert table.values.shape == (2, len(FEATURE_NAMES_EXTENDED))
    assert np.array_equal(table.values[0], table.values[1])


def test_extract_table_skips_unreadable_file():
    m = load_manifest("gone.csv,x\nthere.csv,x\n")

    def reader(path):
        if path == "gone.csv":
            raise FileNotFoundError(path)
        return ELLIPSE_TEXT

    table, skipped = extract_table(m, reader, TrimPolicy())
    assert table.record_ids == ("there",)
    assert [path for path, _ in skipped] == ["gone.csv"]
    assert isinstance(skipped[0][1], FileNotFoundError)


def test_extract_table_reports_parse_error_with_path():
    m = load_manifest("bad.csv,x\nother.csv,y\nshort.csv,y\n")
    files = {"bad.csv": "1 2 3\n", "other.csv": ELLIPSE_TEXT, "short.csv": "1 2\n3 4\n"}
    table, skipped = extract_table(m, files.__getitem__, TrimPolicy())
    assert table.record_ids == ("other",)
    assert [path for path, _ in skipped] == ["bad.csv", "short.csv"]
    assert isinstance(skipped[0][1], MalformedLineError)
    assert skipped[0][1].line_no == 1
    assert isinstance(skipped[1][1], TooFewSamplesError)


def test_record_id_strips_directory_and_extension():
    assert record_id_from_path("some/dir/rec_07.csv") == "rec_07"
    assert record_id_from_path("some\\dir\\rec_08.txt") == "rec_08"
    assert record_id_from_path("plain") == "plain"
    m = load_manifest("some/dir/rec_07.csv,x\n")
    table, _ = extract_table(m, lambda p: ELLIPSE_TEXT, TrimPolicy())
    assert table.record_ids == ("rec_07",)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
def test_parse_feature_csv_rejects_non_finite_with_line(value):
    good = "r0,a," + ",".join(["1.0"] * 10)
    bad = "r1,b," + ",".join(["1.0"] * 4 + [value] + ["1.0"] * 5)
    with pytest.raises(MalformedLineError) as exc:
        parse_feature_csv("\n".join(["# comment", FEATURE_CSV_HEADER, good, bad]))
    assert exc.value.line_no == 4
    assert "non-finite" in str(exc.value)


@pytest.mark.parametrize("overrides,message", [
    ({"features": np.zeros(4)}, r"an \(n, d\) matrix"),
    ({"labels": np.array([0, 1, 0])}, "align with feature rows"),
    ({"features": np.array([[0.0, 1.0]] * 3 + [[0.0, math.inf]])}, "must be finite"),
    ({"feature_names": ("a",)}, "must match feature columns"),
    ({"labels": np.array([0, 1, 0, 2])}, r"must lie in \[0, num_classes\)"),
    ({"num_classes": 1}, "need at least 2 classes"),
])
def test_labeled_dataset_preconditions(overrides, message):
    fields = {
        "features": np.zeros((4, 2)),
        "labels": np.array([0, 1, 0, 1]),
        "num_classes": 2,
        "feature_names": ("a", "b"),
    }
    assert labeled_dataset(**fields).n_rows == 4
    with pytest.raises(ValueError, match=message):
        labeled_dataset(**{**fields, **overrides})


def test_labeled_dataset_converts_and_freezes():
    data = labeled_dataset([[0, 1], [2, 3]], [1, 0], 2, ("a", "b"))
    assert data.features.dtype == np.float64 and data.labels.dtype == np.int64
    for array in (data.features, data.labels, *data.subset(np.array([1]))[:2]):
        with pytest.raises(ValueError):
            array[0] = 1
