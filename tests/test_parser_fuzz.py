"""Fuzz tests for the text parsers: malformed input raises EctShapeError only.

Every parser behind a CLI input (record, manifest, feature CSV, model file,
synth spec) is fed small generated texts, some of them mutations of a valid
file. Any exception that is not an EctShapeError would escape the CLI as a
traceback instead of exit code 2 or 3. The record and feature CSV parsers
are also held to the per-line reference parsers kept here. Generated
inputs stay small: no large counts, no deep nesting.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ectshape.classifiers import train_model
from ectshape.classifiers.serialize import load_model, save_model
from ectshape.dataset import (
    FEATURE_CSV_HEADER,
    FeatureTable,
    LabeledDataset,
    parse_feature_csv,
)
from ectshape.errors import (
    EctShapeError,
    EmptyRecordError,
    MalformedLineError,
    NonFiniteSampleError,
)
from ectshape.geometry import FEATURE_NAMES_EXTENDED
from ectshape.ingest import load_manifest, parse_record
from ectshape.synthetic import parse_synth_spec
from ectshape.textio import iter_data_lines

FUZZ = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# Fields that are numbers, almost numbers, or none at all.
TOKENS = st.sampled_from([
    "0", "-0", "1", "-1.5", "2e3", "1e308", "1e999", "-1e999", "5e-324",
    "nan", "NaN", "inf", "-inf", "infinity", "0x10", "1_0", "", " ", "x",
    "#", ",", ",,", "\t", "1,", ",1", "--1", "+", ".", "e5", "١",
    "\x00", " ", "path/a.csv", "class", "-", "3", "17", "99999",
])


def lines_of(token_strategy, max_lines=8, max_fields=5):
    line = st.lists(token_strategy, max_size=max_fields).map(" ".join)
    return st.lists(line, max_size=max_lines).map("\n".join)


def raises_only_ectshape_errors(parse, text):
    try:
        parse(text)
    except EctShapeError:
        pass


# --- records, manifests, feature CSVs ---------------------------------------

@FUZZ
@given(st.one_of(st.text(max_size=200), lines_of(TOKENS)))
def test_parse_record_raises_only_ectshape_errors(text):
    raises_only_ectshape_errors(lambda t: parse_record(t, "r"), text)


# --- the record parser against the per-line reference -----------------------

def reference_parse_record(text, record_id):
    """The per-line record parser: the definition of a valid record."""
    rows = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.replace(",", " ").split()
        if len(fields) != 2:
            raise MalformedLineError(
                line_no, f"line {line_no}: expected 2 fields, got {len(fields)}"
            )
        try:
            re_part, im_part = float(fields[0]), float(fields[1])
        except ValueError:
            raise MalformedLineError(
                line_no, f"line {line_no}: non-numeric field"
            ) from None
        if not (math.isfinite(re_part) and math.isfinite(im_part)):
            raise NonFiniteSampleError(line_no)
        rows.append((re_part, im_part))
    if not rows:
        raise EmptyRecordError(f"record {record_id!r} has no data lines")
    return np.array(rows, dtype=np.float64)


def parse_outcome(parse, text):
    """Sample bytes and shape, or the error's class, message and line."""
    try:
        samples = parse(text)
    except EctShapeError as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)
    return samples.tobytes(), samples.shape


def assert_parsers_agree(text):
    expected = parse_outcome(lambda t: reference_parse_record(t, "r"), text)
    assert parse_outcome(lambda t: parse_record(t, "r"), text) == expected


# Tokens that split, join, comment out or break lines, and strings at the
# edge of what float() accepts.
RECORD_TOKENS = st.sampled_from([
    ",#", "#", " # ", ",", ",,", "\x00", "\x1f", "\x1c", "\x85", "\x0b", "\x0c",
    " ", "　", "\xa0", "\r\n", "\r", "\n", "\n\n", "\t", " ", "|", ";",
    "1_0", "1__0", "_1", "١", "٣.٥", "infinity", "-Infinity", "1e400", "-1e400",
    "1e-400", "nan", "-nan", "inf", "0x10", "1d5", "1e", ".", "+", "-", "--1",
    "5e-324", "-0", "0", "1", "2.5", "1e308", "x",
])


def record_line(a, b, sep):
    return f"{a!r}{sep}{b!r}"


@st.composite
def mutated_records(draw):
    """A valid record text, then up to four token insertions or replacements
    at random character positions or as whole lines."""
    finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
    sep = st.sampled_from([" ", ",", "\t", " , ", ",  ", "  "])
    lines = [
        record_line(draw(finite), draw(finite), draw(sep))
        for _ in range(draw(st.integers(0, 10)))
    ]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", "# note", "   ", "#1 2"])))
    text = draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines)
    text += draw(st.sampled_from(["", "\n", "\r\n"]))
    for _ in range(draw(st.integers(0, 4))):
        token = draw(RECORD_TOKENS)
        op = draw(st.sampled_from(["insert", "replace", "line"]))
        i = draw(st.integers(0, len(text)))
        if op == "insert":
            text = text[:i] + token + text[i:]
        elif op == "replace":
            text = text[:i] + token + text[i + draw(st.integers(1, 4)):]
        else:
            tokens = draw(st.lists(st.one_of(RECORD_TOKENS, finite.map(repr)),
                                   min_size=1, max_size=4))
            j = text.rfind("\n", 0, i) + 1
            text = text[:j] + " ".join(tokens) + "\n" + text[j:]
    return text


@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(mutated_records(), lines_of(RECORD_TOKENS, max_fields=3),
                 st.text(max_size=80)))
def test_parse_record_matches_per_line_reference(text):
    assert_parsers_agree(text)


LONG_RECORD = "# 256 samples\n" + "".join(
    record_line(0.5 * i, -1.0 / (i + 1), " ,"[i % 2]) + "\n" for i in range(255)
)


@pytest.mark.parametrize("last", [
    "1.5 -2.25", "1,,2", "1\x1f2", "1\x852", "1_0 ١", "# 1 2", "", "1 2\r\n3 4",
])
def test_parse_record_accepts_a_late_line_as_the_reference_does(last):
    assert_parsers_agree(LONG_RECORD + last + "\n")


@pytest.mark.parametrize("last", [
    ",# 1 2", "1.5,# 2", "1 2 3", "1", "1 x", "1 nan", "1e400 0", "0 -infinity",
    "1\x00 2", "1 2 #",
])
def test_parse_record_reports_a_late_bad_line(last):
    text = LONG_RECORD + last + "\n"
    assert_parsers_agree(text)
    with pytest.raises((MalformedLineError, NonFiniteSampleError)) as exc:
        parse_record(text, "r")
    assert exc.value.line_no == 257


@FUZZ
@given(st.one_of(
    st.text(max_size=200),
    lines_of(st.one_of(TOKENS, st.text(max_size=6)), max_fields=3).map(
        lambda t: t.replace(" ", ",")
    ),
))
def test_load_manifest_raises_only_ectshape_errors(text):
    raises_only_ectshape_errors(load_manifest, text)


@FUZZ
@given(
    st.booleans(),
    st.lists(
        st.lists(TOKENS, min_size=0, max_size=14).map(",".join), max_size=6
    ),
    st.text(max_size=40),
)
def test_parse_feature_csv_raises_only_ectshape_errors(with_header, rows, tail):
    lines = ([FEATURE_CSV_HEADER] if with_header else []) + rows + [tail]
    raises_only_ectshape_errors(parse_feature_csv, "\n".join(lines))


# --- the feature CSV parser against the per-line reference ------------------

_N_FIELDS = 2 + len(FEATURE_NAMES_EXTENDED)


def reference_parse_feature_csv(text):
    """The table of a feature CSV, one line at a time; the rules of a valid
    feature CSV.

    Raises the error of the first bad line, with its line number.
    """
    record_ids: list[str] = []
    label_names: list[str] = []
    rows: list[list[float]] = []
    header_seen = False
    for line_no, line in iter_data_lines(text):
        if not header_seen:
            if line != FEATURE_CSV_HEADER:
                raise MalformedLineError(
                    line_no, f"line {line_no}: expected feature CSV header"
                )
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != _N_FIELDS:
            raise MalformedLineError(line_no, f"line {line_no}: expected {_N_FIELDS} fields")
        try:
            values = [float(v) for v in parts[2:]]
        except ValueError:
            raise MalformedLineError(
                line_no, f"line {line_no}: non-numeric feature value"
            ) from None
        if not all(math.isfinite(v) for v in values):
            raise MalformedLineError(line_no, f"line {line_no}: non-finite feature value")
        record_ids.append(parts[0])
        label_names.append(parts[1])
        rows.append(values)
    if not header_seen:
        raise MalformedLineError(0, "feature CSV has no header line")
    values = (
        np.array(rows, dtype=np.float64)
        if rows
        else np.empty((0, len(FEATURE_NAMES_EXTENDED)))
    )
    return FeatureTable(
        record_ids=tuple(record_ids), label_names=tuple(label_names), values=values
    )


def table_outcome(parse, text):
    """The table's ids, labels and value bits, or the error's class, message
    and line."""
    try:
        table = parse(text)
    except EctShapeError as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)
    return table.record_ids, table.label_names, table.values.tobytes(), table.values.shape


def feature_row(draw, i):
    finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
    values = [repr(draw(finite)) for _ in range(10)]
    return ",".join([f"r{i}", draw(st.sampled_from(["a", "b", "c d"]))] + values)


@st.composite
def mutated_feature_csvs(draw):
    """A valid feature CSV, then up to three token insertions or
    replacements at random character positions."""
    lines = [FEATURE_CSV_HEADER] + [
        feature_row(draw, i) for i in range(draw(st.integers(0, 6)))
    ]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", "# note", "   ", "#1,2"])))
    text = draw(st.sampled_from(["\n", "\r\n"])).join(lines)
    text += draw(st.sampled_from(["", "\n"]))
    for _ in range(draw(st.integers(0, 3))):
        token = draw(RECORD_TOKENS)
        i = draw(st.integers(0, len(text)))
        cut = draw(st.sampled_from([0, 1, 4]))
        text = text[:i] + token + text[i + cut:]
    return text


@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_feature_csvs())
def test_parse_feature_csv_block_and_line_paths_agree(text):
    expected = table_outcome(reference_parse_feature_csv, text)
    assert table_outcome(parse_feature_csv, text) == expected


@pytest.mark.parametrize("last", [
    "r9,a," + ",".join(["1.5"] * 10),
    "r9,a," + ",".join(["1.5"] * 9),
    "r9,a," + ",".join(["1.5"] * 11),
    "r9,a," + ",".join(["1.5"] * 9 + ["x"]),
    "r9,a," + ",".join(["1.5"] * 9 + ["-inf"]),
    "r9,a,,",
    "# r9",
    # 13 fields, then 11 with a numeric label: the field count adds up
    "r9,1," + ",".join(["1.5"] * 11) + "\nr10,2," + ",".join(["1.5"] * 9),
])
def test_parse_feature_csv_late_line_agrees(last):
    rows = [f"r{i},a," + ",".join([repr(0.5 * i)] * 10) for i in range(8)]
    text = "\n".join([FEATURE_CSV_HEADER] + rows + [last]) + "\n"
    assert table_outcome(parse_feature_csv, text) == table_outcome(
        reference_parse_feature_csv, text
    )


# --- model files ------------------------------------------------------------

def _model_texts():
    g = np.random.default_rng(5)
    centers = np.array([[0.0, 0.0, 1.0], [3.0, 1.0, 2.0], [1.0, 4.0, 0.0]])
    rows = np.repeat(centers, 6, axis=0) + 0.3 * g.normal(size=(18, 3))
    data = LabeledDataset(
        features=rows,
        labels=np.repeat(np.arange(3), 6),
        num_classes=3,
        feature_names=("L", "W", "alpha_deg"),
    )
    params = {"nb": None, "tree": {"min_leaf": 1}, "mlp": {"epochs": 3, "hidden": 2}}
    return {
        kind: save_model(train_model(kind, data, params=p, seed=1))
        for kind, p in params.items()
    }


MODEL_TEXTS = _model_texts()


@st.composite
def mutated_models(draw):
    lines = MODEL_TEXTS[draw(st.sampled_from(sorted(MODEL_TEXTS)))].splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["drop", "dup", "field", "line", "cut"]))
        if op == "drop" and len(lines) > 1:
            del lines[i]
        elif op == "dup":
            lines.insert(i, lines[i])
        elif op == "field":
            fields = lines[i].split(" ")
            j = draw(st.integers(0, len(fields)))
            if j < len(fields):
                fields[j] = draw(TOKENS)
            else:
                fields.append(draw(TOKENS))
            lines[i] = " ".join(fields)
        elif op == "line":
            lines[i] = draw(lines_of(TOKENS, max_lines=1))
        elif op == "cut":
            lines = lines[: i + 1]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("kind", sorted(MODEL_TEXTS))
def test_model_texts_load(kind):
    assert save_model(load_model(MODEL_TEXTS[kind])) == MODEL_TEXTS[kind]


@FUZZ
@given(st.one_of(mutated_models(), st.text(max_size=200)))
def test_load_model_raises_only_ectshape_errors(text):
    raises_only_ectshape_errors(load_model, text)


# --- synth specs --------------------------------------------------------------

SPEC_VALUES = st.one_of(
    st.integers(-3, 40),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.text(max_size=5),
    st.none(),
    st.booleans(),
    st.lists(st.one_of(st.integers(-3, 40), st.floats(), st.text(max_size=3)), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
)
SPEC_KEYS = st.sampled_from([
    "name", "n_points", "center", "axis_lengths", "rotation_deg", "noise_sigma",
    "n_records", "extra",
])
SPEC_CLASS = st.dictionaries(SPEC_KEYS, SPEC_VALUES, max_size=8)


@FUZZ
@given(st.one_of(
    st.lists(SPEC_CLASS, max_size=3).map(lambda cs: json.dumps({"classes": cs})),
    st.dictionaries(st.text(max_size=8), SPEC_VALUES, max_size=2).map(json.dumps),
    SPEC_VALUES.map(json.dumps),
    st.text(max_size=120),
))
def test_parse_synth_spec_raises_only_ectshape_errors(text):
    raises_only_ectshape_errors(parse_synth_spec, text)
