"""Command-line frontend for the impedance-shape pipeline.

Exit codes are fixed for scriptability: 0 success, 2 usage/config error,
3 data/processing error. A flag's type converts its text and checks its
range, so argparse refuses a bad value before any input is read.
Subcommands raise; `main` alone maps the class of what escapes them to an
exit code and one `error:` line.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections import Counter
from collections.abc import Callable, Container
from typing import Any, NoReturn

import numpy as np

from .artifacts import (
    TOOL_VERSION,
    artifact_header,
    atomic_write_text,
    write_artifact,
)
from .classifiers import CLASSIFIER_KINDS, predict, train_model
from .classifiers.decision_tree import MAX_DEPTH
from .classifiers.serialize import load_model, save_model
from .dataset import (
    FEATURE_CSV_HEADER,
    FEATURE_SETS,
    FeatureTable,
    feature_csv_row,
    parse_feature_csv,
)
from .errors import BadSpecError, EctShapeError
from .evaluation import cross_validate, metrics_csv_lines, report_text
from .geometry import FEATURE_NAMES_BASIC, FEATURE_NAMES_EXTENDED, shape_descriptors
from .ingest import (
    load_manifest,
    parse_record,
    record_id_from_path,
    record_to_text,
)
from .preprocess import TrimPolicy, to_point_cloud, trim_noise
from .plots import features_svg, record_svg
from .synthetic import generate_synthetic, parse_synth_spec
from .textio import format_float

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3

PREDICTIONS_CSV_HEADER = "record_id,predicted_label,confidence"


def _checked(kind: type, bound: str, ok: Callable[[Any], bool]) -> Callable[[str], Any]:
    """An argparse type: the text converted by kind, refused unless ok, which
    NaN must fail. It bears kind's name, so that text kind cannot convert
    still reads `invalid int value: 'abc'`."""

    def convert(text: str) -> Any:
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    convert.__name__ = kind.__name__
    return convert


_COUNT = _checked(int, "at least 1", lambda v: v >= 1)
_FOLDS = _checked(int, "at least 2", lambda v: v >= 2)
_DEPTH = _checked(int, f"in 1..{MAX_DEPTH}", lambda v: 1 <= v <= MAX_DEPTH)
_RATE = _checked(float, "finite and at least 0", lambda v: 0 <= v < math.inf)
_FINITE = _checked(float, "finite", math.isfinite)
_QUANTILE = _checked(float, "in (0, 1]", lambda v: 0 < v <= 1)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the first token that is not an option names the subcommand; only that
    # one gets its arguments
    named = next((arg for arg in argv if not arg.startswith("-")), None)
    try:
        args = _build_parser({named}).parse_args(argv)
    except SystemExit as exc:  # --help, --version or a usage error
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    policy = None
    if "trim_mode" in args:
        policy = TrimPolicy(args.trim_quantile, args.trim_mode.replace("-", "_"))
    # an unreadable input is a usage error; this clause comes first because
    # UnicodeDecodeError is a ValueError
    try:
        return args.func(args, policy)
    except (OSError, UnicodeDecodeError, BadSpecError) as exc:
        code, message = EXIT_CONFIG, str(exc)
    except (EctShapeError, ValueError) as exc:
        code, message = EXIT_DATA, str(exc)
    except MemoryError as exc:  # numpy's message names the size it wanted
        code, message = EXIT_DATA, str(exc) or "out of memory"
    print(f"error: {message}", file=sys.stderr)
    return code


class _Parser(argparse.ArgumentParser):
    """Usage errors as one `error:` line; subparsers inherit the class."""

    def error(self, message: str) -> NoReturn:
        self.exit(EXIT_CONFIG, f"error: {message}\n")


def _build_parser(commands: Container[str]) -> argparse.ArgumentParser:
    """The parser of every subcommand, with arguments for those in commands.

    Every subcommand is listed, so top-level help and errors are complete;
    one without its arguments can only be named, not parsed.
    """
    parser = _Parser(
        prog="ect-shape",
        description="Shape-based classification of eddy-current impedance records.",
    )
    parser.add_argument(
        "--version", action="version", version=f"ect-shape {TOOL_VERSION}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in _SUBCOMMANDS.items():
        chosen = name in commands
        p = sub.add_parser(name, help=help_text, add_help=chosen)
        if chosen:
            add_arguments(p)
    return parser


def _extract_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    _add_trim_flags(p)
    p.add_argument(
        "--strict", action="store_true", help="abort on the first bad record"
    )
    p.set_defaults(func=cmd_extract)


def _evaluate_arguments(p: argparse.ArgumentParser) -> None:
    _add_input_group(p)
    p.add_argument("--classifier", required=True, choices=CLASSIFIER_KINDS + ("all",))
    p.add_argument("--k", type=_FOLDS, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.add_argument(
        "--per-fold-mean",
        action="store_true",
        help="summarize with fold-mean metrics instead of the pooled matrix",
    )
    p.add_argument("--features", choices=FEATURE_SETS, default="basic")
    _add_trim_flags(p)
    _add_param_flags(p)
    p.set_defaults(func=cmd_evaluate)


def _train_arguments(p: argparse.ArgumentParser) -> None:
    _add_input_group(p)
    p.add_argument("--classifier", required=True, choices=CLASSIFIER_KINDS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model-out", required=True)
    p.add_argument("--features", choices=FEATURE_SETS, default="basic")
    _add_trim_flags(p)
    _add_param_flags(p)
    p.set_defaults(func=cmd_train)


def _classify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    _add_trim_flags(p)
    p.set_defaults(func=cmd_classify)


def _synth_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)


def _plot_arguments(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--record")
    group.add_argument("--features-csv")
    p.add_argument("--out-dir", required=True)
    _add_trim_flags(p)
    p.set_defaults(func=cmd_plot)


# name: (help line, the function that adds its arguments), in help order
_SUBCOMMANDS = {
    "extract": ("manifest -> geometric feature CSV", _extract_arguments),
    "evaluate": ("k-fold cross-validation report", _evaluate_arguments),
    "train": ("fit one classifier on every record", _train_arguments),
    "classify": ("predict labels with a saved model", _classify_arguments),
    "synth": ("generate synthetic records + manifest", _synth_arguments),
    "plot": ("static SVG views of records or features", _plot_arguments),
}


def _add_input_group(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--features-csv")
    group.add_argument("--manifest")


def _add_trim_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--trim-mode", choices=("both-axes", "radial", "none"), default="both-axes"
    )
    p.add_argument("--trim-quantile", type=_QUANTILE, default=0.98)


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    """The `--<kind>-<param>` flags; `_params_for` maps them to params."""
    p.add_argument("--mlp-hidden", type=_COUNT, default=None)
    p.add_argument("--mlp-lr", type=_RATE, default=0.3)
    p.add_argument("--mlp-momentum", type=_FINITE, default=0.2)
    p.add_argument("--mlp-epochs", type=_COUNT, default=500)
    p.add_argument("--tree-max-depth", type=_DEPTH, default=25)
    p.add_argument("--tree-min-leaf", type=_COUNT, default=2)


def _config_of(args: argparse.Namespace) -> dict:
    out = {}
    for key, value in vars(args).items():
        if key == "func":
            continue
        out[key] = "" if value is None else value
    return out


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            # the class decides the exit code and the skip summary, so it
            # stays; the message names the file
            raise UnicodeDecodeError(
                exc.encoding, exc.object, exc.start, exc.end, f"{exc.reason} in {path}"
            ) from None


def _load_manifest_from(path: str):
    manifest = load_manifest(_read(path))
    base = os.path.dirname(os.path.abspath(path))

    def reader(rel: str) -> str:
        full = rel if os.path.isabs(rel) else os.path.join(base, rel)
        return _read(full)

    return manifest, reader


def extract_table(
    manifest: tuple[tuple[str, str], ...],
    reader: Callable[[str], str],
    policy: TrimPolicy,
    basic: bool = False,
) -> tuple[FeatureTable, list[tuple[str, Exception]]]:
    """Features of every (path, label) manifest entry, in manifest order.

    The one record-to-features path of every subcommand that reads a
    manifest. The table holds the ten FEATURE_NAMES_EXTENDED columns, or
    with basic=True only the three FEATURE_NAMES_BASIC ones, which skips
    the convex hull and its measures. A record that cannot be read,
    decoded, parsed, trimmed or measured is left out of the table and
    listed in skipped as (path, exception), in manifest order.
    """
    ids, labels, rows, skipped = [], [], [], []
    for path, label_name in manifest:
        rid = record_id_from_path(path)
        try:
            samples = parse_record(reader(path), rid)
            cloud = trim_noise(to_point_cloud(samples, rid), policy)
            feats = shape_descriptors(cloud, basic)
        except (EctShapeError, OSError, UnicodeDecodeError) as exc:
            skipped.append((path, exc))
            continue
        ids.append(rid)
        labels.append(label_name)
        rows.append(feats)
    names = FEATURE_NAMES_BASIC if basic else FEATURE_NAMES_EXTENDED
    values = np.array(rows) if rows else np.empty((0, len(names)))
    table = FeatureTable(record_ids=tuple(ids), label_names=tuple(labels), values=values)
    return table, skipped


def _report_skips(skipped: list[tuple[str, Exception]], total: int) -> None:
    """One stderr warning per skipped record, then a closing summary line."""
    if not skipped:
        return
    for path, exc in skipped:
        print(f"warning: skipping {path}: {exc}", file=sys.stderr)
    counts = Counter(type(exc).__name__ for _, exc in skipped)
    kinds = ", ".join(f"{name}×{n}" for name, n in counts.most_common())
    print(f"skipped {len(skipped)}/{total}: {kinds}", file=sys.stderr)


def cmd_extract(args: argparse.Namespace, policy: TrimPolicy) -> int:
    manifest, reader = _load_manifest_from(args.manifest)
    table, skipped = extract_table(manifest, reader, policy)
    if skipped and args.strict:
        path, exc = skipped[0]
        raise EctShapeError(f"{path}: {exc}")
    _report_skips(skipped, len(manifest))
    lines = [FEATURE_CSV_HEADER] + [
        feature_csv_row(rid, label_name, values)
        for rid, label_name, values in zip(
            table.record_ids, table.label_names, table.values
        )
    ]
    write_artifact(args.out, lines, _config_of(args))
    return EXIT_OK


def _load_table(args: argparse.Namespace, policy: TrimPolicy) -> FeatureTable:
    """Feature table from --features-csv, or extracted from --manifest.

    The two routes agree bit-for-bit: the CSV stores 17 significant digits,
    which round-trips float64 exactly.
    """
    if args.features_csv:
        return parse_feature_csv(_read(args.features_csv))
    manifest, reader = _load_manifest_from(args.manifest)
    table, skipped = extract_table(manifest, reader, policy)
    _report_skips(skipped, len(manifest))
    return table


def _params_for(kind: str, args: argparse.Namespace) -> dict:
    """The params of kind: its `<kind>_*` flags that are set, unprefixed."""
    prefix = f"{kind}_"
    return {
        key.removeprefix(prefix): value
        for key, value in vars(args).items()
        if key.startswith(prefix) and value is not None
    }


def cmd_evaluate(args: argparse.Namespace, policy: TrimPolicy) -> int:
    table = _load_table(args, policy)
    try:
        data = table.to_dataset(args.features)
    except ValueError as exc:
        raise EctShapeError(f"not stratifiable: {exc}") from exc
    kinds = CLASSIFIER_KINDS if args.classifier == "all" else (args.classifier,)
    os.makedirs(args.out_dir, exist_ok=True)
    config = _config_of(args)
    summary = [
        f"{'classifier':<12} {'accuracy':>9} {'sensitivity':>12}"
        f" {'specificity':>12} {'precision':>10} {'mcc':>7}"
    ]
    for kind in kinds:
        try:
            report = cross_validate(
                data,
                kind,
                _params_for(kind, args),
                k=args.k,
                seed=args.seed,
                class_names=table.class_names,
                per_fold_mean=args.per_fold_mean,
            )
        except EctShapeError as exc:
            raise EctShapeError(f"{kind}: {exc}") from exc
        write_artifact(
            os.path.join(args.out_dir, f"report_{kind}.txt"),
            report_text(report).splitlines(),
            config,
            seed=args.seed,
        )
        write_artifact(
            os.path.join(args.out_dir, f"metrics_{kind}.csv"),
            metrics_csv_lines(report),
            config,
            seed=args.seed,
        )
        m = report.macro
        summary.append(
            f"{kind:<12} {m.accuracy:>9.4f} {m.sensitivity:>12.4f}"
            f" {m.specificity:>12.4f} {m.precision:>10.4f} {m.mcc:>7.4f}"
        )
    print("\n".join(summary))
    return EXIT_OK


def cmd_train(args: argparse.Namespace, policy: TrimPolicy) -> int:
    table = _load_table(args, policy)
    trained = train_model(
        args.classifier,
        table.to_dataset(args.features),
        params=_params_for(args.classifier, args),
        seed=args.seed,
        class_names=table.class_names,
    )
    write_artifact(
        args.model_out,
        save_model(trained).splitlines(),
        _config_of(args),
        seed=args.seed,
    )
    return EXIT_OK


def cmd_classify(args: argparse.Namespace, policy: TrimPolicy) -> int:
    trained = load_model(_read(args.model))
    manifest, reader = _load_manifest_from(args.manifest)
    unknown = [n for n in trained.feature_names if n not in FEATURE_NAMES_EXTENDED]
    if unknown:
        raise EctShapeError(f"model feature {unknown[0]!r} is not an extracted feature")
    # a model that reads no hull column needs no hull measured
    basic = set(trained.feature_names) <= set(FEATURE_NAMES_BASIC)
    table, skipped = extract_table(manifest, reader, policy, basic)
    _report_skips(skipped, len(manifest))
    labels, posteriors = predict(trained, table.columns(trained.feature_names))
    confidences = posteriors[np.arange(labels.shape[0]), labels]
    lines = [PREDICTIONS_CSV_HEADER] + [
        f"{rid},{trained.label_name(idx)},{format_float(confidence)}"
        for rid, idx, confidence in zip(
            table.record_ids, labels.tolist(), confidences.tolist()
        )
    ]
    write_artifact(args.out, lines, _config_of(args))
    return EXIT_OK


def cmd_synth(args: argparse.Namespace, policy: None) -> int:
    classes = parse_synth_spec(_read(args.spec))
    clouds = generate_synthetic(classes, args.seed)
    config = _config_of(args)
    os.makedirs(args.out_dir, exist_ok=True)
    manifest_lines = []
    for cls, class_clouds in zip(classes, clouds):
        for i, cloud in enumerate(class_clouds):
            stem = f"{cls.name}_{i:02d}"
            write_artifact(
                os.path.join(args.out_dir, f"{stem}.csv"),
                record_to_text(cloud.points).splitlines(),
                config,
                seed=args.seed,
            )
            manifest_lines.append(f"{stem}.csv,{cls.name}")
    write_artifact(
        os.path.join(args.out_dir, "manifest.csv"),
        manifest_lines,
        config,
        seed=args.seed,
    )
    print(
        f"wrote {len(manifest_lines)} records across {len(classes)} classes"
        f" to {args.out_dir}"
    )
    return EXIT_OK


def _xml_comment(line: str) -> str:
    """A `# ` header line as an XML comment. XML forbids `--` inside a
    comment, so a space goes between every two adjacent hyphens."""
    text = line.removeprefix("# ")
    while "--" in text:
        text = text.replace("--", "- -")
    return f"<!-- {text} -->\n"


def cmd_plot(args: argparse.Namespace, policy: TrimPolicy) -> int:
    if args.record:
        rid = record_id_from_path(args.record)
        samples = parse_record(_read(args.record), rid)
        svg = record_svg(trim_noise(to_point_cloud(samples, rid), policy), rid)
        out_name = f"{rid}.svg"
    else:
        svg = features_svg(parse_feature_csv(_read(args.features_csv)))
        out_name = "features.svg"
    os.makedirs(args.out_dir, exist_ok=True)
    # the artifact header as XML comments, legal before the <svg> root
    header = "".join(_xml_comment(line) for line in artifact_header(_config_of(args)))
    atomic_write_text(os.path.join(args.out_dir, out_name), header + svg)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
