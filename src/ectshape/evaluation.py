"""Cross-validated evaluation: stratified folds, per-fold confusion counts,
one-vs-rest metrics."""

from __future__ import annotations

from collections.abc import Iterable
from typing import NamedTuple

import numpy as np

from .classifiers import MlpParams, TrainedModel, predict, train_model
from .classifiers.perceptron import train_mlp_stack
from .dataset import LabeledDataset
from .errors import BadKError
from .rng import SplitMix64, derive_seed
from .textio import format_float

METRICS_CSV_HEADER = "classifier,fold,class,accuracy,sensitivity,specificity,precision,mcc"


def stratified_k_fold(data: LabeledDataset, k: int, seed: int) -> np.ndarray:
    """The test fold in [0, k) of each record, as a read-only (n,) intp array.

    Each class's records are shuffled, then dealt round-robin in ascending
    class order. The dealing cursor starts at a seeded random fold and
    carries over between classes, so per-class counts and overall fold
    sizes both stay within one of each other (a per-class restart could
    stack small classes into the same fold and break the overall balance).
    """
    n = data.n_rows
    if k < 2 or k > n:
        raise BadKError(f"k must satisfy 2 <= k <= {n}, got {k}")
    rng = SplitMix64(seed)
    fold_of_row = np.empty(n, dtype=np.intp)
    cursor = rng.randbelow(k)
    for c in range(data.num_classes):
        members = np.flatnonzero(data.labels == c)
        rng.shuffle(members)
        fold_of_row[members] = (cursor + np.arange(members.shape[0])) % k
        cursor += members.shape[0]
    fold_of_row.setflags(write=False)
    return fold_of_row


class MetricSet(NamedTuple):
    accuracy: float
    sensitivity: float
    specificity: float
    precision: float
    mcc: float


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    # zero-denominator convention: score 0, not NaN
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0)


def metric_table(counts: np.ndarray) -> np.ndarray:
    """One-vs-rest metrics of every class of a stack of confusion matrices.

    `counts` is `(..., K, K)`; the result is `(..., K, 5)`, one row per
    class in MetricSet field order. Each value is what the scalar formula
    gives in double precision: the cell sums are exact integers, every
    operation keeps the scalar order, and a zero denominator scores 0.
    """
    counts = np.asarray(counts)
    tp = np.diagonal(counts, axis1=-2, axis2=-1).astype(np.float64)
    fn = counts.sum(axis=-1) - tp
    fp = counts.sum(axis=-2) - tp
    tn = counts.sum(axis=(-2, -1))[..., None] - tp - fn - fp
    mcc_den_sq = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    return np.stack(
        (
            _ratio(tp + tn, tp + tn + fp + fn),
            _ratio(tp, tp + fn),
            _ratio(tn, tn + fp),
            _ratio(tp, tp + fp),
            _ratio(tp * tn - fp * fn, np.sqrt(mcc_den_sq)),
        ),
        axis=-1,
    )


def _metric_sets(table: np.ndarray) -> tuple[MetricSet, ...]:
    return tuple(MetricSet(*row) for row in table.tolist())


class EvalReport(NamedTuple):
    """Everything a k-fold run produced, plus the summary the caller asked for.

    per_fold is the `(k, K, K)` int64 count block, per_fold[f, t, p] being
    the test records of fold f with true class t predicted as p; pooled is
    its sum over folds. With metrics_mode "pooled" the per_class/macro
    metrics come from pooled; with "fold_mean" they are unweighted means of
    the per-fold metrics. fold_metrics is the `(k, K, 5)` metric_table of
    per_fold, which the metrics CSV reads.
    """

    classifier_kind: str
    k: int
    seed: int
    metrics_mode: str
    class_names: tuple[str, ...]
    per_fold: np.ndarray
    pooled: np.ndarray
    per_class: tuple[MetricSet, ...]
    macro: MetricSet
    fold_metrics: np.ndarray


def cross_validate(
    data: LabeledDataset,
    classifier_kind: str,
    params: dict | None,
    k: int,
    seed: int,
    class_names: tuple[str, ...] | None = None,
    per_fold_mean: bool = False,
) -> EvalReport:
    """Stratified k-fold cross-validation of one classifier kind.

    Deterministic for a given (data, classifier_kind, params, k, seed): the
    fold split uses stream 0 of the seed and fold f's training run uses
    stream f+1, so classifiers never share generator state with the splitter
    or each other. class_names, when given, name the data.num_classes
    classes.
    """
    if class_names is not None and len(class_names) != data.num_classes:
        raise ValueError("class_names must match num_classes")
    fold_of_row = stratified_k_fold(data, k, derive_seed(seed, 0))
    names = class_names if class_names is not None else tuple(
        str(c) for c in range(data.num_classes)
    )
    train_sets = [data.subset(np.flatnonzero(fold_of_row != f)) for f in range(k)]
    seeds = [derive_seed(seed, f + 1) for f in range(k)]
    if classifier_kind == "mlp":
        # the k networks train in lockstep; each fit is model or error
        mlp_fits = train_mlp_stack(train_sets, MlpParams(**(params or {})), seeds)
    preds = np.empty(data.n_rows, dtype=np.intp)
    for f in range(k):
        try:
            if classifier_kind == "mlp":
                if isinstance(mlp_fits[f], Exception):
                    raise mlp_fits[f]
                trained = TrainedModel(
                    kind="mlp",
                    model=mlp_fits[f],
                    feature_names=data.feature_names,
                    num_classes=data.num_classes,
                )
            else:
                trained = train_model(
                    classifier_kind,
                    train_sets[f],
                    params=params,
                    seed=seeds[f],
                )
        except Exception as exc:
            detail = exc.args[0] if exc.args else repr(exc)
            exc.args = (f"fold {f}: {detail}",)
            raise
        test_idx = np.flatnonzero(fold_of_row == f)
        preds[test_idx], _ = predict(trained, data.features[test_idx])
    num_classes = data.num_classes
    per_fold = np.zeros((k, num_classes, num_classes), dtype=np.int64)
    np.add.at(per_fold, (fold_of_row, data.labels, preds), 1)
    pooled = per_fold.sum(axis=0)
    # one pass over the k fold matrices and the pooled one: (k + 1, K, 5)
    table = metric_table(np.concatenate((per_fold, pooled[None])))
    macros = table.mean(axis=1)
    if per_fold_mean:
        per_class_table = table[:k].mean(axis=0)
        macro_row = macros[:k].mean(axis=0)
        mode = "fold_mean"
    else:
        per_class_table, macro_row = table[k], macros[k]
        mode = "pooled"
    return EvalReport(
        classifier_kind=classifier_kind,
        k=k,
        seed=seed,
        metrics_mode=mode,
        class_names=names,
        per_fold=per_fold,
        pooled=pooled,
        per_class=_metric_sets(per_class_table),
        macro=MetricSet(*macro_row.tolist()),
        fold_metrics=table[:k],
    )


def _metric_fields(values: Iterable[float]) -> str:
    return ",".join(format_float(v) for v in values)


def metrics_csv_lines(report: EvalReport) -> list[str]:
    """Rows per fold and class; fold -1 = summary, class -1 = macro average."""
    lines = [METRICS_CSV_HEADER]
    kind = report.classifier_kind
    fold_metrics = report.fold_metrics
    macros = fold_metrics.mean(axis=1).tolist()
    for f, (rows, macro) in enumerate(zip(fold_metrics.tolist(), macros)):
        for c, values in enumerate(rows):
            lines.append(f"{kind},{f},{c},{_metric_fields(values)}")
        lines.append(f"{kind},{f},-1,{_metric_fields(macro)}")
    for c, metrics in enumerate(report.per_class):
        lines.append(f"{kind},-1,{c},{_metric_fields(metrics)}")
    lines.append(f"{kind},-1,-1,{_metric_fields(report.macro)}")
    return lines


def report_text(report: EvalReport) -> str:
    """Human-readable summary: pooled confusion matrix plus a metrics table."""
    lines = [
        f"classifier: {report.classifier_kind}",
        f"folds: {report.k}  seed: {report.seed}  metrics: {report.metrics_mode}",
        "",
        "pooled confusion matrix (rows = true, columns = predicted):",
    ]
    counts = report.pooled
    width = max(len(str(counts.max())), *(len(n) for n in report.class_names))
    header = " " * (width + 2) + " ".join(f"{n:>{width}}" for n in report.class_names)
    lines.append(header)
    for name, row in zip(report.class_names, counts):
        cells = " ".join(f"{int(v):>{width}}" for v in row)
        lines.append(f"{name:>{width}}  {cells}")
    lines.append("")
    lines.append(
        f"{'class':>12}  {'accuracy':>9} {'sens':>7} {'spec':>7} {'prec':>7} {'mcc':>7}"
    )
    rows = list(zip(report.class_names, report.per_class))
    rows.append(("macro", report.macro))
    for name, m in rows:
        lines.append(
            f"{name:>12}  {m.accuracy:>9.4f} {m.sensitivity:>7.4f}"
            f" {m.specificity:>7.4f} {m.precision:>7.4f} {m.mcc:>7.4f}"
        )
    return "\n".join(lines) + "\n"
