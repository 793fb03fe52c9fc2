import json
import math
import os
import re
import stat
import subprocess
import sys
import warnings
from pathlib import Path
from xml.etree import ElementTree
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tree_depth
from ectshape.artifacts import (
    TOOL_VERSION,
    artifact_header,
    atomic_write_text,
    comparable_artifact,
    config_echo,
)
from ectshape.classifiers import CLASSIFIER_KINDS, predict, train_model
from ectshape.classifiers.serialize import load_model, save_model
from ectshape import geometry
from ectshape.cli import (
    PREDICTIONS_CSV_HEADER,
    _SUBCOMMANDS,
    _build_parser,
    _xml_comment,
    main,
)
from ectshape.errors import CollinearCloudError
from ectshape.dataset import FEATURE_CSV_HEADER, feature_csv_row, parse_feature_csv
from ectshape.evaluation import cross_validate, metrics_csv_lines
from ectshape.ingest import parse_record
from ectshape.plots import record_svg
from ectshape.preprocess import TrimPolicy, to_point_cloud, trim_noise
from ectshape.textio import format_float, iter_data_lines

SRC = str(Path(__file__).resolve().parents[1] / "src")


def data_lines(text):
    return [
        line for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]


def write_spec(path, n_records=12):
    classes = [
        {"name": "round", "n_points": 24, "center": [1.0, 0.5],
         "axis_lengths": [2.0, 1.6], "rotation_deg": 0.0,
         "noise_sigma": 0.05, "n_records": n_records},
        {"name": "long", "n_points": 24, "center": [1.0, 0.5],
         "axis_lengths": [5.0, 1.0], "rotation_deg": 30.0,
         "noise_sigma": 0.05, "n_records": n_records},
        {"name": "mid", "n_points": 24, "center": [1.0, 0.5],
         "axis_lengths": [3.2, 0.9], "rotation_deg": 60.0,
         "noise_sigma": 0.05, "n_records": n_records},
    ]
    path.write_text(json.dumps({"classes": classes}))


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth")
    spec = root / "spec.json"
    write_spec(spec)
    out = root / "records"
    assert main(["synth", "--spec", str(spec), "--out-dir", str(out),
                 "--seed", "7"]) == 0
    return out


def write_record(path, points):
    path.write_text("\n".join(f"{x} {y}" for x, y in points) + "\n")


def good_points(phase=0.0):
    return [
        (1.0 + 2.0 * math.cos(t + phase), 0.5 + 0.8 * math.sin(t + phase))
        for t in [i * math.pi / 10 for i in range(20)]
    ]


# --- global flags ------------------------------------------------------------

def pyproject_version():
    # a regex, not tomllib: Python 3.10 has no tomllib
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    return re.search(r'^version = "([^"]+)"$', text, re.MULTILINE).group(1)


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out == f"ect-shape {pyproject_version()}\n"


def test_artifact_header_names_the_pyproject_version(synth_dir):
    first = (synth_dir / "round_00.csv").read_text().splitlines()[0]
    assert first == f"# ectshape {pyproject_version()}"


def test_unknown_flag_exits_2(capsys):
    assert main(["extract", "--bogus"]) == 2


def test_missing_subcommand_exits_2():
    assert main([]) == 2


@pytest.mark.parametrize("argv,message", [
    (["train", "--features-csv", "x", "--classifier", "tree", "--model-out", "m",
      "--tree-max-depth", "abc"],
     "argument --tree-max-depth: invalid int value: 'abc'"),
    (["synth", "--spec", "s", "--out-dir", "d", "--bogus"],
     "unrecognized arguments: --bogus"),
    (["evaluate", "--features-csv", "x", "--classifier", "svm", "--out-dir", "d"],
     "argument --classifier: invalid choice: 'svm'"),
    (["plot", "--out-dir", "d"],
     "one of the arguments --record --features-csv is required"),
    ([], "the following arguments are required: command"),
], ids=["bad-int", "unknown-flag", "bad-choice", "missing-group", "no-command"])
def test_usage_error_is_one_line(capsys, argv, message):
    assert main(argv) == 2
    err = capsys.readouterr().err
    # the wording of the choices list differs across Python versions
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--help"], ["train", "--help"]])
def test_help_prints_full_usage(capsys, argv):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: ect-shape")
    assert len(out.splitlines()) > 10


# argvs that end in argparse: help, the version and usage errors
PARSER_EXITS = [[], ["--help"], ["-h"], ["--version"], ["bogus"], ["--bogus"]] + [
    [name, *flags] for name in _SUBCOMMANDS for flags in ([], ["--help"], ["--bogus"])
] + [["evaluate", "--features-csv", "x", "--classifier", "svm", "--out-dir", "d"],
     ["train", "--features-csv", "x", "--manifest", "m"], ["--help", "extract"]]


@pytest.mark.parametrize("argv", PARSER_EXITS, ids=lambda argv: " ".join(argv) or "none")
def test_parser_of_the_named_subcommand_prints_what_the_full_parser_prints(
    capsys, argv
):
    code = main(argv)
    got = capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        _build_parser(_SUBCOMMANDS).parse_args(argv)
    want = capsys.readouterr()
    assert (got.out, got.err) == (want.out, want.err)
    assert code == (0 if exc.value.code == 0 else 2)


def test_bad_trim_quantile_exits_2(tmp_path, capsys):
    record = tmp_path / "r.csv"
    write_record(record, good_points())
    code = main(["plot", "--record", str(record),
                 "--out-dir", str(tmp_path / "plots"), "--trim-quantile", "0"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


# --- synth -------------------------------------------------------------------

def test_synth_output_layout(synth_dir, capsys):
    records = sorted(p.name for p in synth_dir.glob("*.csv"))
    assert len(records) == 36 + 1  # 3 classes x 12 records + manifest
    assert "manifest.csv" in records
    assert "round_00.csv" in records and "mid_11.csv" in records
    manifest = (synth_dir / "manifest.csv").read_text()
    rows = data_lines(manifest)
    assert len(rows) == 36
    assert rows[0] == "round_00.csv,round"
    assert manifest.startswith("# ectshape")


def test_synth_rerun_bitwise_identical(tmp_path):
    spec = tmp_path / "spec.json"
    write_spec(spec)
    out = tmp_path / "records"
    args = ["synth", "--spec", str(spec), "--out-dir", str(out), "--seed", "7"]
    assert main(args) == 0
    first = {p.name: p.read_text() for p in out.glob("*.csv")}
    assert main(args) == 0  # identical config, same destination
    for path in sorted(out.glob("*.csv")):
        assert comparable_artifact(path.read_text()) == comparable_artifact(
            first[path.name]
        )


def test_synth_reports_counts(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    write_spec(spec, n_records=2)
    assert main(["synth", "--spec", str(spec),
                 "--out-dir", str(tmp_path / "o"), "--seed", "0"]) == 0
    assert "wrote 6 records across 3 classes" in capsys.readouterr().out


def test_synth_bad_spec_exits_2(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(
        {"classes": [{"n_points": 8, "axis_lengths": [2, 1], "n_records": 1}]}
    ))
    assert main(["synth", "--spec", str(spec),
                 "--out-dir", str(tmp_path / "o")]) == 2
    assert "n_points" in capsys.readouterr().err
    huge = "1" + "0" * 400
    for doc, message in [
        ('{"classes": {}}', "'classes' must be an array"),
        # an integer beyond the float range is refused, not converted to inf
        ('{"classes": [{"n_points": 16, "axis_lengths": [2, 1], "n_records": 1,'
         f' "rotation_deg": {huge}}}]}}',
         "class 0: rotation_deg: int too large to convert to float"),
    ]:
        spec.write_text(doc)
        assert main(["synth", "--spec", str(spec),
                     "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("noise_sigma", [0.1, 0.0])
def test_synth_overflowing_spec_exits_2(tmp_path, capsys, noise_sigma):
    # finite in the spec, but center + axis overflows to inf
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"classes": [{
        "name": "huge", "n_points": 16, "center": [1.7e308, 0],
        "axis_lengths": [1.7e308, 1e308], "noise_sigma": noise_sigma,
        "n_records": 2,
    }]}))
    out = tmp_path / "o"
    assert main(["synth", "--spec", str(spec), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: class 'huge': ")
    assert not out.exists()


def test_synth_missing_spec_exits_2(tmp_path):
    assert main(["synth", "--spec", str(tmp_path / "absent.json"),
                 "--out-dir", str(tmp_path / "o")]) == 2


# --- extract -----------------------------------------------------------------

def make_manifest(tmp_path, entries):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join(f"{p},{lab}" for p, lab in entries) + "\n")
    return manifest


def test_extract_happy_path(tmp_path):
    write_record(tmp_path / "a.csv", good_points())
    write_record(tmp_path / "b.csv", good_points(phase=0.3))
    manifest = make_manifest(tmp_path, [("a.csv", "crack"), ("b.csv", "crack")])
    out = tmp_path / "features.csv"
    assert main(["extract", "--manifest", str(manifest), "--out", str(out)]) == 0
    rows = data_lines(out.read_text())
    assert rows[0] == FEATURE_CSV_HEADER
    assert len(rows) == 3
    assert rows[1].startswith("a,crack,")
    assert out.read_text().startswith("# ectshape")


def test_extract_skips_collinear_record(tmp_path, capsys):
    write_record(tmp_path / "good.csv", good_points())
    write_record(tmp_path / "flat.csv", [(i, i) for i in range(10)])
    manifest = make_manifest(
        tmp_path, [("good.csv", "ok"), ("flat.csv", "ok")]
    )
    out = tmp_path / "features.csv"
    assert main(["extract", "--manifest", str(manifest), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "warning: skipping" in err and "flat.csv" in err
    assert len(data_lines(out.read_text())) == 2  # header + the good row


def test_extract_strict_aborts(tmp_path, capsys):
    write_record(tmp_path / "good.csv", good_points())
    write_record(tmp_path / "flat.csv", [(i, i) for i in range(10)])
    write_record(tmp_path / "short.csv", [(1, 2), (3, 4)])
    manifest = make_manifest(
        tmp_path, [("good.csv", "ok"), ("flat.csv", "ok"), ("short.csv", "ok")]
    )
    code = main(["extract", "--manifest", str(manifest),
                 "--out", str(tmp_path / "f.csv"), "--strict"])
    assert code == 3
    # one line naming the first bad record; no warnings, no summary
    assert capsys.readouterr().err == (
        "error: flat.csv: cloud is collinear; elongation undefined\n"
    )
    assert not (tmp_path / "f.csv").exists()


def test_extract_prints_no_skip_summary_without_skips(tmp_path, capsys):
    write_record(tmp_path / "good.csv", good_points())
    manifest = make_manifest(tmp_path, [("good.csv", "ok")])
    assert main(["extract", "--manifest", str(manifest),
                 "--out", str(tmp_path / "f.csv")]) == 0
    assert capsys.readouterr().err == ""


def ellipse_points(n, a, b, scale=1.0):
    return [
        (scale * a * math.cos(2 * math.pi * i / n),
         scale * b * math.sin(2 * math.pi * i / n))
        for i in range(n)
    ]


def write_overflow_records(tmp_path):
    """A good ellipse, then five valid, finite records whose measures would
    overflow or lose the hull area; returns the manifest."""
    records = {
        "good": ellipse_points(64, 3.0, 1.0),
        "x1e153": ellipse_points(64, 3.0, 1.0, 1e153),
        "x5e153": ellipse_points(64, 3.0, 1.0, 5e153),
        "x1e300": ellipse_points(64, 3.0, 1.0, 1e300),
        "octagon": ellipse_points(8, 1.0, 0.9, 6e153),
        # a sliver far from the origin: the shoelace sum loses its area
        "sliver": [
            (1e6 + 1e-3 * i / 23, 1e6 + 1e-3 * i / 23 + 2.5e-10 * (-1) ** i)
            for i in range(24)
        ],
    }
    for name, points in records.items():
        (tmp_path / f"{name}.csv").write_text(
            "".join("%.17g %.17g\n" % p for p in points)
        )
    return make_manifest(tmp_path, [(f"{name}.csv", "x") for name in records])


@pytest.mark.parametrize("trim", [["--trim-mode", "none"], []])
def test_extract_skips_records_whose_measures_overflow(
    tmp_path, capsys, nb_model, extended_nb_model, trim
):
    manifest = write_overflow_records(tmp_path)
    out = tmp_path / "features.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["extract", "--manifest", str(manifest), "--out", str(out), *trim])
    assert code == 0
    assert [w.message for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err.splitlines()
    assert all(line.startswith("warning: skipping ") for line in err[:5])
    assert err[5:] == ["skipped 5/6: DegenerateCloudError×5"]
    assert [row.split(",")[0] for row in data_lines(out.read_text())[1:]] == ["good"]

    # classify measures only what its model reads: a basic model never meets
    # the sliver's hull, an extended one skips what extract skips
    overflow_lines = [line for line in err[:5] if "sliver.csv" not in line]
    assert len(overflow_lines) == 4
    for model, predicted, skips in (
        (nb_model, ["good", "sliver"], overflow_lines + [
            "skipped 4/6: DegenerateCloudError×4"]),
        (extended_nb_model, ["good"], err),
    ):  # fmt: skip
        preds = tmp_path / "p.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["classify", "--model", str(model), "--manifest",
                         str(manifest), "--out", str(preds), *trim])  # fmt: skip
        assert code == 0
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert capsys.readouterr().err.splitlines() == skips
        assert [row.split(",")[0] for row in data_lines(preds.read_text())[1:]] == predicted


def test_plot_overflowing_record_exits_3_with_one_line(tmp_path, capsys):
    write_overflow_records(tmp_path)
    code = main(["plot", "--record", str(tmp_path / "x1e300.csv"),
                 "--out-dir", str(tmp_path / "plots")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


MANIFEST_COMMANDS = ["extract", "evaluate", "train", "classify"]


def manifest_argv(command, manifest, tmp_path, model):
    """argv of a subcommand that reads the manifest; outputs go to tmp_path."""
    return {
        "extract": ["extract", "--manifest", manifest,
                    "--out", str(tmp_path / "f.csv")],
        "evaluate": ["evaluate", "--manifest", manifest, "--classifier", "nb",
                     "--k", "4", "--out-dir", str(tmp_path / "eval")],
        "train": ["train", "--manifest", manifest, "--classifier", "nb",
                  "--model-out", str(tmp_path / "trained.model")],
        "classify": ["classify", "--model", str(model), "--manifest", manifest,
                     "--out", str(tmp_path / "p.csv")],
    }[command]


def synth_entries(synth_dir):
    return [
        (str(synth_dir / path), label)
        for path, label in (
            line.split(",")
            for line in data_lines((synth_dir / "manifest.csv").read_text())
        )
    ]


@pytest.fixture(scope="module")
def nb_model(tmp_path_factory, synth_dir):
    model = tmp_path_factory.mktemp("model") / "nb.model"
    assert main(["train", "--manifest", str(synth_dir / "manifest.csv"),
                 "--classifier", "nb", "--model-out", str(model)]) == 0
    return model


@pytest.fixture(scope="module")
def extended_nb_model(tmp_path_factory, synth_dir):
    model = tmp_path_factory.mktemp("model") / "nb-extended.model"
    assert main(["train", "--manifest", str(synth_dir / "manifest.csv"),
                 "--classifier", "nb", "--features", "extended",
                 "--model-out", str(model)]) == 0
    return model


@pytest.mark.parametrize("command", MANIFEST_COMMANDS)
def test_skip_summary_closes_stderr(tmp_path, synth_dir, nb_model, capsys, command):
    write_record(tmp_path / "flat.csv", [(i, i) for i in range(10)])
    write_record(tmp_path / "short.csv", [(1, 2), (3, 4)])
    write_record(tmp_path / "line.csv", [(i, 2 * i) for i in range(10)])
    entries = synth_entries(synth_dir)
    entries[1:1] = [("flat.csv", "round"), ("short.csv", "long")]
    entries.append(("line.csv", "mid"))
    manifest = str(make_manifest(tmp_path, entries))
    capsys.readouterr()
    assert main(manifest_argv(command, manifest, tmp_path, nb_model)) == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: skipping flat.csv: cloud is collinear; elongation undefined",
        "warning: skipping short.csv: record 'short' has 2 samples; need >= 3",
        "warning: skipping line.csv: cloud is collinear; elongation undefined",
        "skipped 3/39: ZeroWidthError×2, TooFewSamplesError×1",
    ]


def test_extract_missing_manifest_exits_2(tmp_path, capsys):
    code = main(["extract", "--manifest", str(tmp_path / "absent.csv"),
                 "--out", str(tmp_path / "f.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_extract_rerun_comparable_identical(tmp_path, synth_dir):
    out = tmp_path / "features.csv"
    args = ["extract", "--manifest", str(synth_dir / "manifest.csv"),
            "--out", str(out)]
    assert main(args) == 0
    first = out.read_text()
    assert main(args) == 0  # identical config, same destination
    assert comparable_artifact(out.read_text()) == comparable_artifact(first)


# --- evaluate ----------------------------------------------------------------

def test_evaluate_all_classifiers(tmp_path, synth_dir, capsys):
    out_dir = tmp_path / "eval"
    code = main([
        "evaluate", "--manifest", str(synth_dir / "manifest.csv"),
        "--classifier", "all", "--k", "10", "--seed", "0",
        "--out-dir", str(out_dir), "--mlp-epochs", "200",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4  # header + one row per kind
    for row in lines[1:]:
        fields = row.split()
        assert fields[0] in ("tree", "nb", "mlp")
        assert float(fields[1]) >= 0.95  # macro accuracy
    for kind in ("tree", "nb", "mlp"):
        assert (out_dir / f"report_{kind}.txt").exists()
        assert (out_dir / f"metrics_{kind}.csv").exists()
    report = (out_dir / "report_nb.txt").read_text()
    assert "pooled confusion matrix" in report
    assert "# seed: 0" in report


def test_evaluate_single_row_not_stratifiable(tmp_path, capsys):
    csv = tmp_path / "one.csv"
    csv.write_text(
        FEATURE_CSV_HEADER + "\n" + "r0,solo," + ",".join(["1.0"] * 10) + "\n"
    )
    code = main(["evaluate", "--features-csv", str(csv), "--classifier", "nb",
                 "--out-dir", str(tmp_path / "d")])
    assert code == 3
    assert "not stratifiable" in capsys.readouterr().err


def test_evaluate_fused_equals_two_step(tmp_path, synth_dir):
    manifest = str(synth_dir / "manifest.csv")
    features = tmp_path / "features.csv"
    assert main(["extract", "--manifest", manifest, "--out", str(features)]) == 0
    fused_dir, staged_dir = tmp_path / "fused", tmp_path / "staged"
    common = ["--classifier", "nb", "--k", "4", "--seed", "3"]
    assert main(["evaluate", "--manifest", manifest,
                 "--out-dir", str(fused_dir)] + common) == 0
    assert main(["evaluate", "--features-csv", str(features),
                 "--out-dir", str(staged_dir)] + common) == 0
    fused = data_lines((fused_dir / "metrics_nb.csv").read_text())
    staged = data_lines((staged_dir / "metrics_nb.csv").read_text())
    assert fused == staged


def test_evaluate_per_fold_mean_annotated(tmp_path, synth_dir):
    out_dir = tmp_path / "eval"
    assert main([
        "evaluate", "--manifest", str(synth_dir / "manifest.csv"),
        "--classifier", "nb", "--k", "4", "--out-dir", str(out_dir),
        "--per-fold-mean",
    ]) == 0
    assert "metrics: fold_mean" in (out_dir / "report_nb.txt").read_text()


# --- train + classify --------------------------------------------------------

def test_train_then_classify_recovers_labels(tmp_path, synth_dir):
    manifest = str(synth_dir / "manifest.csv")
    model = tmp_path / "tree.model"
    assert main(["train", "--manifest", manifest, "--classifier", "tree",
                 "--tree-min-leaf", "1", "--model-out", str(model)]) == 0
    text = model.read_text()
    assert "ectshape-model v1 tree" in text
    assert "class_names long,mid,round" in text
    preds = tmp_path / "preds.csv"
    assert main(["classify", "--model", str(model), "--manifest", manifest,
                 "--out", str(preds)]) == 0
    rows = data_lines(preds.read_text())
    assert rows[0] == "record_id,predicted_label,confidence"
    assert len(rows) == 37
    truth = dict(
        line.split(",")
        for line in data_lines((synth_dir / "manifest.csv").read_text())
    )
    for row in rows[1:]:
        rid, label, confidence = row.split(",")
        assert truth[rid + ".csv"] == label
        assert 0.0 < float(confidence) <= 1.0


def test_classify_takes_columns_from_an_extended_model(
    tmp_path, synth_dir, nb_model, monkeypatch, capsys
):
    manifest = str(synth_dir / "manifest.csv")
    model, features = tmp_path / "wide.model", tmp_path / "features.csv"
    preds = tmp_path / "p.csv"
    assert main(["train", "--manifest", manifest, "--classifier", "nb",
                 "--features", "extended", "--model-out", str(model)]) == 0
    assert main(["classify", "--model", str(model), "--manifest", manifest,
                 "--out", str(preds)]) == 0
    assert main(["extract", "--manifest", manifest, "--out", str(features)]) == 0
    table = parse_feature_csv(features.read_text())
    trained = load_model(model.read_text())
    labels, posteriors = predict(trained, table.values)  # all ten columns
    assert data_lines(preds.read_text())[1:] == [
        f"{rid},{trained.label_name(i)},{format_float(p[i])}"
        for rid, i, p in zip(table.record_ids, labels, posteriors)
    ]
    assert "features=" not in preds.read_text()
    # the flags that could only restate or contradict the model are gone
    for argv in (
        ["classify", "--model", str(model), "--manifest", manifest,
         "--out", str(preds), "--features", "extended"],
        ["extract", "--manifest", manifest, "--out", str(features),
         "--features", "extended"],
    ):
        assert main(argv) == 2

    # with no hull to be had, a basic model classifies every record as
    # before and an extended one skips every record
    basic_preds = tmp_path / "basic.csv"
    assert main(["classify", "--model", str(nb_model), "--manifest", manifest,
                 "--out", str(basic_preds)]) == 0  # fmt: skip

    def no_hull(cloud):
        raise CollinearCloudError("no hull")

    monkeypatch.setattr(geometry, "convex_hull", no_hull)
    capsys.readouterr()
    assert main(["classify", "--model", str(nb_model), "--manifest", manifest,
                 "--out", str(preds)]) == 0  # fmt: skip
    assert capsys.readouterr().err == ""
    assert data_lines(preds.read_text()) == data_lines(basic_preds.read_text())
    assert len(data_lines(preds.read_text())) == 1 + len(table.record_ids)
    assert main(["classify", "--model", str(model), "--manifest", manifest,
                 "--out", str(preds)]) == 0  # fmt: skip
    assert data_lines(preds.read_text()) == [PREDICTIONS_CSV_HEADER]
    n = len(table.record_ids)
    err = capsys.readouterr().err.splitlines()
    assert len(err) == n + 1
    assert err[-1] == f"skipped {n}/{n}: CollinearCloudError×{n}"


def test_classify_unknown_model_feature_exits_3(tmp_path, synth_dir, capsys):
    manifest = str(synth_dir / "manifest.csv")
    model = tmp_path / "model.txt"
    assert main(["train", "--manifest", manifest, "--classifier", "nb",
                 "--model-out", str(model)]) == 0
    model.write_text(model.read_text().replace(
        "feature_names L,W,alpha_deg", "feature_names L,W,beta"
    ))
    capsys.readouterr()
    code = main(["classify", "--model", str(model), "--manifest", manifest,
                 "--out", str(tmp_path / "p.csv")])
    assert code == 3
    assert capsys.readouterr().err == (
        "error: model feature 'beta' is not an extracted feature\n"
    )
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("kind", ["nb", "tree", "mlp"])
def test_classify_with_every_record_skipped(tmp_path, synth_dir, capsys, kind):
    model, preds = tmp_path / "model.txt", tmp_path / "p.csv"
    assert main(["train", "--manifest", str(synth_dir / "manifest.csv"),
                 "--classifier", kind, "--mlp-epochs", "5",
                 "--model-out", str(model)]) == 0
    write_record(tmp_path / "flat.csv", [(i, i) for i in range(10)])
    write_record(tmp_path / "short.csv", [(1, 2), (3, 4)])
    write_record(tmp_path / "line.csv", [(i, 2 * i) for i in range(10)])
    manifest = make_manifest(
        tmp_path, [("flat.csv", "round"), ("short.csv", "long"), ("line.csv", "mid")]
    )
    capsys.readouterr()
    assert main(["classify", "--model", str(model), "--manifest", str(manifest),
                 "--out", str(preds)]) == 0
    assert data_lines(preds.read_text()) == ["record_id,predicted_label,confidence"]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 4
    assert err[-1] == "skipped 3/3: ZeroWidthError×2, TooFewSamplesError×1"


def test_classify_corrupt_model_exits_3(tmp_path, synth_dir, capsys):
    model = tmp_path / "junk.model"
    model.write_text("not a model at all\n")
    code = main(["classify", "--model", str(model),
                 "--manifest", str(synth_dir / "manifest.csv"),
                 "--out", str(tmp_path / "p.csv")])
    assert code == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("prefix,new_line", [
    ("num_classes", "num_classes three"),
    ("priors", "priors x"),
    ("class_names", "class_names round,long"),
    ("means", "means 3 nine"),
])
def test_classify_malformed_model_exits_3_with_one_line(
    tmp_path, synth_dir, capsys, prefix, new_line
):
    manifest = str(synth_dir / "manifest.csv")
    model = tmp_path / "model.txt"
    assert main(["train", "--manifest", manifest, "--classifier", "nb",
                 "--model-out", str(model)]) == 0
    lines = model.read_text().splitlines()
    index = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    lines[index] = new_line
    model.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main(["classify", "--model", str(model), "--manifest", manifest,
                 "--out", str(tmp_path / "p.csv")])
    assert code in (2, 3)
    err = capsys.readouterr().err
    assert err.startswith("error: line ")
    assert err.count("\n") == 1


def test_classify_deep_tree_model_exits_3_with_one_line(tmp_path, synth_dir, capsys):
    model = tmp_path / "deep.txt"
    model.write_text("\n".join(
        ["ectshape-model v1 tree", "feature_names L,W,alpha_deg", "num_classes 3",
         "n_features 3"]
        + ["split 0 0.5"] * 5000 + ["leaf 0.2 0.3 0.5"] * 5001 + ["end"]
    ) + "\n")
    code = main(["classify", "--model", str(model),
                 "--manifest", str(synth_dir / "manifest.csv"),
                 "--out", str(tmp_path / "p.csv")])
    assert code in (2, 3)
    err = capsys.readouterr().err
    assert err.startswith("error: line ")
    assert err.count("\n") == 1


def test_thousand_level_tree_trains_saves_and_classifies(tmp_path, synth_dir):
    # labels alternate along L, the only feature that varies, so each split
    # peels one row off a chain as deep as --tree-max-depth allows
    csv = tmp_path / "features.csv"
    rows = [f"r{i},{'ab'[i % 2]},{i}," + ",".join(["1.5"] * 9) for i in range(1002)]
    csv.write_text(FEATURE_CSV_HEADER + "\n" + "\n".join(rows) + "\n")
    model = tmp_path / "chain.txt"
    assert main(["train", "--features-csv", str(csv), "--classifier", "tree",
                 "--tree-max-depth", "1000", "--tree-min-leaf", "1",
                 "--model-out", str(model)]) == 0
    assert tree_depth(load_model(model.read_text()).model) == 1000
    preds = tmp_path / "p.csv"
    assert main(["classify", "--model", str(model),
                 "--manifest", str(synth_dir / "manifest.csv"),
                 "--out", str(preds)]) == 0
    assert len(data_lines(preds.read_text())) == 37


OUT_OF_RANGE = [
    ("--mlp-hidden", "0", "at least 1"),
    ("--mlp-epochs", "-5", "at least 1"),
    ("--mlp-epochs", "0", "at least 1"),
    ("--tree-max-depth", "-3", "in 1..1000"),
    ("--tree-max-depth", "0", "in 1..1000"),
    ("--tree-max-depth", "1001", "in 1..1000"),
    ("--tree-min-leaf", "0", "at least 1"),
]


@pytest.mark.parametrize("command", ["train", "evaluate"])
@pytest.mark.parametrize(
    "flag,value,bound", OUT_OF_RANGE, ids=[f"{f[2:]}={v}" for f, v, _ in OUT_OF_RANGE]
)
def test_out_of_range_hyperparameter_exits_2_with_one_line(
    tmp_path, synth_dir, capsys, command, flag, value, bound
):
    out = ["--model-out", str(tmp_path / "m.txt")] if command == "train" else [
        "--out-dir", str(tmp_path / "eval")]
    code = main([command, "--manifest", str(synth_dir / "manifest.csv"),
                 "--classifier", "mlp", flag, value] + out)
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: argument {flag}: must be {bound}, got {value}\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["train", "evaluate"])
@pytest.mark.parametrize("flag", ["--mlp-lr", "--mlp-momentum"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_mlp_rate_exits_2_before_reading_input(
    tmp_path, capsys, command, flag, value
):
    out = ["--model-out", str(tmp_path / "m.txt")] if command == "train" else [
        "--out-dir", str(tmp_path / "eval")]
    # flag=value: argparse would read a separate "-inf" as an option
    code = main([command, "--features-csv", str(tmp_path / "absent.csv"),
                 "--classifier", "mlp", f"{flag}={value}"] + out)
    assert code == 2
    bound = "finite and at least 0" if flag == "--mlp-lr" else "finite"
    err = capsys.readouterr().err
    assert err == f"error: argument {flag}: must be {bound}, got {float(value)}\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_negative_mlp_rate_exits_2_before_reading_input(tmp_path, capsys, command):
    # a negative rate climbs the loss: evaluate scored chance with exit 0
    out = ["--model-out", str(tmp_path / "m.txt")] if command == "train" else [
        "--out-dir", str(tmp_path / "eval")]
    code = main([command, "--features-csv", str(tmp_path / "absent.csv"),
                 "--classifier", "mlp", "--mlp-lr=-0.3"] + out)
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: argument --mlp-lr: must be finite and at least 0, got -0.3\n"
    assert not any(tmp_path.iterdir())


# each --<kind>-* flag and the param of kind it sets
PARAM_FLAGS = {
    "mlp": (["--mlp-hidden", "2", "--mlp-lr", "0.5", "--mlp-momentum", "0.1",
             "--mlp-epochs", "3"],
            {"hidden": 2, "lr": 0.5, "momentum": 0.1, "epochs": 3}),
    "tree": (["--tree-max-depth", "2", "--tree-min-leaf", "3"],
             {"max_depth": 2, "min_leaf": 3}),
}


def artifact_body(path):
    """The lines of an artifact after its `# config:` header line."""
    lines = path.read_text().splitlines()
    config = next(i for i, line in enumerate(lines) if line.startswith("# config:"))
    return lines[config + 1:]


@pytest.fixture(scope="module")
def noise_features(tmp_path_factory):
    """40 rows of uniform noise in three classes, which no shallow tree fits."""
    values = np.random.default_rng(0).uniform(1.0, 2.0, size=(40, 10))
    rows = [feature_csv_row(f"r{i}", "abc"[i % 3], v) for i, v in enumerate(values)]
    csv = tmp_path_factory.mktemp("features") / "features.csv"
    csv.write_text("\n".join([FEATURE_CSV_HEADER] + rows) + "\n")
    return csv


@pytest.mark.parametrize("kind", sorted(PARAM_FLAGS))
def test_every_param_flag_reaches_the_fit(tmp_path, noise_features, kind):
    flags, params = PARAM_FLAGS[kind]
    model = tmp_path / "model.txt"
    assert main(["train", "--features-csv", str(noise_features), "--classifier", kind,
                 "--seed", "4", "--model-out", str(model)] + flags) == 0
    table = parse_feature_csv(noise_features.read_text())

    def body(params):
        trained = train_model(
            kind, table.to_dataset(), params, seed=4, class_names=table.class_names
        )
        return save_model(trained).splitlines()

    assert artifact_body(model) == body(params)
    # each flag matters: its param left at the default gives another model
    for name in params:
        assert body({k: v for k, v in params.items() if k != name}) != body(params)


def test_evaluate_all_gives_each_kind_its_own_params(tmp_path, noise_features):
    flags = PARAM_FLAGS["mlp"][0] + PARAM_FLAGS["tree"][0]
    common = ["--features-csv", str(noise_features), "--k", "3", "--seed", "4"]
    assert main(["evaluate", "--classifier", "all",
                 "--out-dir", str(tmp_path / "all")] + common + flags) == 0
    table = parse_feature_csv(noise_features.read_text())
    for kind in CLASSIFIER_KINDS:
        single = tmp_path / kind
        assert main(["evaluate", "--classifier", kind,
                     "--out-dir", str(single)] + common + flags) == 0
        name = f"metrics_{kind}.csv"
        assert artifact_body(tmp_path / "all" / name) == artifact_body(single / name)
        report = cross_validate(
            table.to_dataset(), kind, PARAM_FLAGS.get(kind, ([], {}))[1], k=3, seed=4,
            class_names=table.class_names,
        )
        assert artifact_body(single / name) == metrics_csv_lines(report)


@pytest.mark.parametrize("value", ["1", "0"])
def test_k_below_two_exits_2_before_reading_input(tmp_path, capsys, value):
    code = main(["evaluate", "--features-csv", str(tmp_path / "absent.csv"),
                 "--classifier", "nb", "--k", value, "--out-dir", str(tmp_path / "eval")])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: argument --k: must be at least 2, got {value}\n"
    assert not any(tmp_path.iterdir())


def test_k_above_row_count_exits_3(tmp_path, capsys):
    csv = tmp_path / "features.csv"
    rows = [f"r{i},{'ab'[i % 2]}," + ",".join([str(1.5 + i)] * 10) for i in range(6)]
    csv.write_text(FEATURE_CSV_HEADER + "\n" + "\n".join(rows) + "\n")
    code = main(["evaluate", "--features-csv", str(csv), "--classifier", "nb",
                 "--k", "7", "--out-dir", str(tmp_path / "d")])
    assert code == 3
    assert capsys.readouterr().err == "error: nb: k must satisfy 2 <= k <= 6, got 7\n"


# runs the installed entry point's function in a child, so that stderr holds
# everything the process prints, warnings included
CLI_CHILD = "import sys; from ectshape.cli import main; sys.exit(main(sys.argv[1:]))"


def run_cli_child(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", CLI_CHILD, *argv],
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_diverging_mlp_prints_one_error_line(tmp_path, synth_dir, command):
    out = ["--model-out", str(tmp_path / "m.txt")] if command == "train" else [
        "--k", "3", "--out-dir", str(tmp_path / "eval")]
    proc = run_cli_child(
        [command, "--manifest", str(synth_dir / "manifest.csv"), "--classifier", "mlp",
         "--mlp-lr", "1e308", "--mlp-momentum", "1e308", "--mlp-epochs", "3"] + out
    )
    assert proc.returncode == 3
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert re.fullmatch(r"error: (mlp: fold \d+: )?training diverged .*\n", proc.stderr)


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_mlp_on_features_near_the_float_limit_prints_nothing(tmp_path, command):
    # each column spans about -1.7e308..1.7e308, so its width overflows
    csv = tmp_path / "features.csv"
    values = [(-1) ** (i + 1) * (1.7e308 - i * 1e306) for i in range(12)]
    rows = [f"r{i},{'ab'[i % 2]}," + ",".join([f"{v:.17g}"] * 10)
            for i, v in enumerate(values)]
    csv.write_text(FEATURE_CSV_HEADER + "\n" + "\n".join(rows) + "\n")
    out = ["--model-out", str(tmp_path / "m.txt")] if command == "train" else [
        "--k", "3", "--out-dir", str(tmp_path / "eval")]
    proc = run_cli_child([command, "--features-csv", str(csv), "--classifier", "mlp",
                          "--mlp-epochs", "30"] + out)
    assert (proc.returncode, proc.stderr) == (0, "")
    if command == "train":
        load_model((tmp_path / "m.txt").read_text())


def test_mlp_query_row_far_outside_the_training_range_prints_nothing(tmp_path):
    # the -1e308 row lands in a test fold whose training rows lie in
    # [1e308, 1.1e308]: each column's span is finite, but its x - lo is not
    csv = tmp_path / "features.csv"
    values = [-1e308] + [1e308 + i * 1e306 for i in range(11)]
    rows = [f"r{i},{'ab'[i % 2]}," + ",".join([f"{v:.17g}"] * 10)
            for i, v in enumerate(values)]
    csv.write_text(FEATURE_CSV_HEADER + "\n" + "\n".join(rows) + "\n")
    proc = run_cli_child(["evaluate", "--features-csv", str(csv), "--classifier", "mlp",
                          "--k", "3", "--mlp-epochs", "30",
                          "--out-dir", str(tmp_path / "eval")])
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_evaluate_non_finite_feature_exits_with_line(tmp_path, capsys, value):
    csv = tmp_path / "features.csv"
    rows = [f"r{i},{'ab'[i % 2]}," + ",".join(["1.5"] * 10) for i in range(6)]
    rows[3] = "r3,b," + ",".join(["1.5"] * 9 + [value])
    csv.write_text(FEATURE_CSV_HEADER + "\n" + "\n".join(rows) + "\n")
    code = main(["evaluate", "--features-csv", str(csv), "--classifier", "nb",
                 "--k", "2", "--out-dir", str(tmp_path / "d")])
    assert code in (2, 3)
    err = capsys.readouterr().err
    assert err == "error: line 5: non-finite feature value\n"


@pytest.mark.parametrize("command", ["evaluate", "train"])
def test_mlp_too_large_to_allocate_exits_3_with_one_line(tmp_path, capsys, command):
    csv = tmp_path / "features.csv"
    rows = [f"r{i},{'ab'[i % 2]}," + ",".join([f"{i}.5"] * 10) for i in range(6)]
    csv.write_text(FEATURE_CSV_HEADER + "\n" + "\n".join(rows) + "\n")
    out = ["--model-out", str(tmp_path / "m")] if command == "train" else [
        "--k", "2", "--out-dir", str(tmp_path / "d")]
    # 10**15 hidden units: no 64-bit address space holds the weights
    code = main([command, "--features-csv", str(csv), "--classifier", "mlp",
                 "--mlp-hidden", "1000000000000000"] + out)
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_train_on_unreadable_manifest_exits_2(tmp_path):
    assert main(["train", "--manifest", str(tmp_path / "absent.csv"),
                 "--classifier", "nb", "--model-out", str(tmp_path / "m")]) == 2


# --- exit code by error class -------------------------------------------------

NOT_UTF8 = b"a.csv,round\n\xff\xfe\n"

# {bad} is the non-UTF-8 file; {out} a path that must stay absent
NON_UTF8_ARGV = [
    ["extract", "--manifest", "{bad}", "--out", "{out}"],
    ["evaluate", "--manifest", "{bad}", "--classifier", "nb", "--out-dir", "{out}"],
    ["evaluate", "--features-csv", "{bad}", "--classifier", "nb",
     "--out-dir", "{out}"],
    ["train", "--manifest", "{bad}", "--classifier", "nb", "--model-out", "{out}"],
    ["train", "--features-csv", "{bad}", "--classifier", "nb",
     "--model-out", "{out}"],
    ["classify", "--model", "{bad}", "--manifest", "{manifest}", "--out", "{out}"],
    ["classify", "--model", "{model}", "--manifest", "{bad}", "--out", "{out}"],
    ["synth", "--spec", "{bad}", "--out-dir", "{out}"],
    ["plot", "--record", "{bad}", "--out-dir", "{out}"],
    ["plot", "--features-csv", "{bad}", "--out-dir", "{out}"],
]


@pytest.mark.parametrize(
    "argv", NON_UTF8_ARGV, ids=[f"{a[0]} {a[a.index('{bad}') - 1]}" for a in NON_UTF8_ARGV]
)
def test_non_utf8_input_file_exits_2_with_one_line(
    tmp_path, synth_dir, nb_model, capsys, argv
):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(NOT_UTF8)
    paths = {"bad": bad, "out": tmp_path / "out",
             "manifest": synth_dir / "manifest.csv", "model": nb_model}
    capsys.readouterr()
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 'utf-8' codec can't decode byte 0xff")
    assert str(bad) in err
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", MANIFEST_COMMANDS)
def test_non_utf8_record_is_skipped(tmp_path, synth_dir, nb_model, capsys, command):
    (tmp_path / "bad.csv").write_bytes(NOT_UTF8)
    entries = synth_entries(synth_dir) + [("bad.csv", "round")]
    manifest = str(make_manifest(tmp_path, entries))
    capsys.readouterr()
    assert main(manifest_argv(command, manifest, tmp_path, nb_model)) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert err[0].startswith("warning: skipping bad.csv: 'utf-8' codec")
    assert err[1] == "skipped 1/37: UnicodeDecodeError×1"


def test_evaluate_out_dir_under_a_file_exits_2_with_one_line(
    tmp_path, synth_dir, capsys
):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main(["evaluate", "--manifest", str(synth_dir / "manifest.csv"),
                 "--classifier", "nb", "--k", "4",
                 "--out-dir", str(blocker / "eval")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno 20] Not a directory")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", MANIFEST_COMMANDS)
def test_malformed_manifest_exits_3(tmp_path, nb_model, capsys, command):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("a.csv,round\nb.csv\n")
    capsys.readouterr()
    assert main(manifest_argv(command, str(manifest), tmp_path, nb_model)) == 3
    assert capsys.readouterr().err == "error: line 2: expected 'path,label'\n"


# --- plot --------------------------------------------------------------------

def test_plot_record_structure(tmp_path, synth_dir):
    out_dir = tmp_path / "plots"
    record = synth_dir / "round_00.csv"
    assert main(["plot", "--record", str(record),
                 "--out-dir", str(out_dir)]) == 0
    svg = (out_dir / "round_00.svg").read_text()
    assert svg.startswith("<!-- ectshape")
    assert svg.count('class="principal-axis"') == 1
    assert svg.count('class="bounding-box"') == 1
    assert svg.count('class="centroid"') == 1
    assert 'class="sample"' in svg
    assert "resistance" in svg and "reactance" in svg


def test_plot_svg_header_is_the_artifact_header_as_comments(tmp_path, synth_dir):
    # the second name needs the comment's "--" rule and the title's escapes
    for name in ("round_00.csv", "a--b&c<d>.csv"):
        out_dir = tmp_path / "plots"
        record = tmp_path / name
        record.write_text((synth_dir / "round_00.csv").read_text())
        rid = name.removesuffix(".csv")
        assert main(["plot", "--record", str(record),
                     "--out-dir", str(out_dir)]) == 0
        svg = (out_dir / f"{rid}.svg").read_text()
        config = {"command": "plot", "features_csv": "", "out_dir": str(out_dir),
                  "record": str(record), "trim_mode": "both-axes",
                  "trim_quantile": 0.98}
        cloud = trim_noise(
            to_point_cloud(parse_record(record.read_text(), rid), rid), TrimPolicy()
        )
        # XML forbids "--" inside a comment: a hyphen followed by another
        # gets a space after it
        echo = re.sub(r"-(?=-)", "- ", config_echo(config))
        expected = (
            f"<!-- ectshape {TOOL_VERSION} -->\n"
            "<!-- timestamp: 2000-01-01T00:00:00+00:00 -->\n"
            f"<!-- config: {echo} -->\n"
            + record_svg(cloud, rid)
        )
        assert comparable_artifact(svg) == comparable_artifact(expected)
        assert re.fullmatch(r"<!-- timestamp: \S+ -->", svg.splitlines()[1])
        # well-formed XML, and the title is the record id, escaped
        root = ElementTree.parse(out_dir / f"{rid}.svg").getroot()
        titles = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
        assert rid in titles
        assert escape(rid) in svg


def test_plot_collinear_record_still_draws(tmp_path):
    # a line still has a principal axis; the box just degenerates
    record = tmp_path / "flat.csv"
    write_record(record, [(i, 2 * i) for i in range(12)])
    out_dir = tmp_path / "plots"
    assert main(["plot", "--record", str(record), "--out-dir", str(out_dir)]) == 0
    svg = (out_dir / "flat.svg").read_text()
    assert svg.count('class="principal-axis"') == 1


def test_plot_degenerate_record_exits_3(tmp_path, capsys):
    record = tmp_path / "point.csv"
    write_record(record, [(3.0, 4.0)] * 12)
    code = main(["plot", "--record", str(record),
                 "--out-dir", str(tmp_path / "plots")])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_plot_empty_features_csv_exits_3(tmp_path, capsys):
    # a readable CSV with nothing to draw is a data error, as on evaluate
    csv = tmp_path / "empty.csv"
    csv.write_text(FEATURE_CSV_HEADER + "\n")
    code = main(["plot", "--features-csv", str(csv),
                 "--out-dir", str(tmp_path / "plots")])
    assert code == 3
    assert capsys.readouterr().err == "error: feature table is empty\n"
    assert not (tmp_path / "plots").exists()


def test_plot_features_legend_per_class(tmp_path):
    # one row spans nothing on either axis, and is centred on a unit range
    for n_classes, n_rows in [(12, 2), (1, 1)]:
        rows = [FEATURE_CSV_HEADER]
        for c in range(n_classes):
            for r in range(n_rows):
                values = [4.0 + c, 1.0 + 0.1 * c, 10.0 * c - 60.0,
                          3.0, 9.0, 0.7, 2.0, 0.8, 0.5, 0.97]
                rows.append(
                    f"rec{c:02d}_{r},type{c:02d}," + ",".join(map(str, values))
                )
        csv = tmp_path / "features.csv"
        csv.write_text("\n".join(rows) + "\n")
        out_dir = tmp_path / f"plots{n_classes}"
        assert main(["plot", "--features-csv", str(csv),
                     "--out-dir", str(out_dir)]) == 0
        svg = (out_dir / "features.svg").read_text()
        assert svg.count("<svg") == 1
        assert svg.count('class="legend-entry"') == n_classes
        for c in range(n_classes):
            assert f"type{c:02d}" in svg


# --- artifact headers and file modes ------------------------------------------

def comment_header(path):
    """The leading comment lines of an artifact: `#` lines, or the XML
    comments before a plot's <svg> root."""
    lines = path.read_text(encoding="utf-8").splitlines()
    marker = "<!--" if path.suffix == ".svg" else "#"
    n = next(i for i, line in enumerate(lines) if not line.startswith(marker))
    return lines[:n]


def test_out_dir_with_a_newline_keeps_every_header_a_comment(tmp_path):
    spec = tmp_path / "spec.json"
    write_spec(spec, n_records=4)
    out = tmp_path / "nl\ndir"
    manifest, feats, model = out / "manifest.csv", out / "f.csv", out / "tree.model"
    assert main(["synth", "--spec", str(spec), "--out-dir", str(out)]) == 0
    assert main(["extract", "--manifest", str(manifest), "--out", str(feats)]) == 0
    assert len(data_lines(feats.read_text())) == 1 + 12
    assert main(["train", "--features-csv", str(feats), "--classifier", "tree",
                 "--model-out", str(model)]) == 0
    assert main(["classify", "--model", str(model), "--manifest", str(manifest),
                 "--out", str(out / "p.csv")]) == 0
    assert main(["evaluate", "--features-csv", str(feats), "--classifier", "nb",
                 "--k", "2", "--out-dir", str(out / "eval")]) == 0
    assert main(["plot", "--record", str(out / "round_00.csv"),
                 "--out-dir", str(out / "plots")]) == 0
    assert main(["plot", "--features-csv", str(feats),
                 "--out-dir", str(out / "plots")]) == 0
    artifacts = sorted(p for p in out.rglob("*") if p.is_file())
    assert {p.suffix for p in artifacts} == {".csv", ".model", ".txt", ".svg"}
    for path in artifacts:
        header = comment_header(path)
        # the config line closes the header and holds the whole path
        config = "<!-- config:" if path.suffix == ".svg" else "# config:"
        assert header[-1].startswith(config), path
        assert "nl\\ndir" in header[-1], path
    ElementTree.parse(out / "plots" / "round_00.svg")


config_values = st.one_of(st.text(), st.integers(), st.floats(), st.none())


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.text(min_size=1, max_size=12), config_values, max_size=4),
       st.one_of(st.none(), st.integers(0, 2**31)))
def test_every_header_line_is_a_comment(config, seed):
    lines = artifact_header(config, seed)
    # text artifacts: as the readers split and skip lines
    text = "\n".join(lines + ["1 2"]) + "\n"
    assert text.splitlines() == lines + ["1 2"]
    assert list(iter_data_lines(text)) == [(len(lines) + 1, "1 2")]
    # plots: one well-formed XML comment per header line
    comments = "".join(_xml_comment(line) for line in lines)
    assert len(comments.splitlines()) == len(lines)
    for line in comments.splitlines():
        assert line.startswith("<!-- ") and line.endswith(" -->")
        assert "--" not in line[4:-3]
    ElementTree.fromstring(comments + "<svg/>")
    # printable values keep their bytes
    plain = " ".join(f"{key}={config[key]}" for key in sorted(config))
    if plain.isprintable():
        assert config_echo(config) == plain


UMASK_CHILD = """
import os, sys
os.umask(int(sys.argv[1], 8))
from ectshape.cli import main
spec, out = sys.argv[2], sys.argv[3]
for argv in (
    ["synth", "--spec", spec, "--out-dir", out],
    ["extract", "--manifest", f"{out}/manifest.csv", "--out", f"{out}/f.csv"],
    ["train", "--features-csv", f"{out}/f.csv", "--classifier", "nb",
     "--model-out", f"{out}/nb.model"],
    ["plot", "--record", f"{out}/round_00.csv", "--out-dir", out],
):
    assert main(argv) == 0, argv
"""


@pytest.mark.parametrize("umask,mode", [("022", 0o644), ("077", 0o600)])
def test_artifact_mode_follows_the_umask(tmp_path, umask, mode):
    spec = tmp_path / "spec.json"
    write_spec(spec, n_records=2)
    out = tmp_path / "out"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", UMASK_CHILD, umask, str(spec), str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # a record, the manifest, a feature CSV, a model and a plot
    names = ["round_00.csv", "manifest.csv", "f.csv", "nb.model", "round_00.svg"]
    modes = {name: stat.S_IMODE((out / name).stat().st_mode) for name in names}
    assert modes == dict.fromkeys(names, mode)
    assert not [p.name for p in out.iterdir() if p.name.startswith(".ectshape-")]


def test_atomic_write_removes_its_temp_file_when_the_rename_fails(tmp_path):
    (tmp_path / "taken").mkdir()
    with pytest.raises(OSError):
        atomic_write_text(str(tmp_path / "taken"), "text")
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
