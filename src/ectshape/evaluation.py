"""Cross-validated evaluation: folds, confusion matrices, per-class metrics."""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .classifiers import MlpParams, TrainedModel, predict, train_model
from .classifiers.perceptron import train_mlp_stack
from .dataset import LabeledDataset
from .errors import (
    BadKError,
    EmptyMatrixError,
    LabelOutOfRangeError,
    LengthMismatchError,
)
from .rng import SplitMix64, derive_seed
from .textio import format_float

METRIC_NAMES = ("accuracy", "sensitivity", "specificity", "precision", "mcc")

METRICS_CSV_HEADER = "classifier,fold,class,accuracy,sensitivity,specificity,precision,mcc"


@dataclass(frozen=True)
class FoldAssignment:
    """Maps each record index to a test fold in [0, k).

    Fold sizes differ by at most one; with stratified construction the same
    holds within every class.
    """

    fold_of_row: np.ndarray
    k: int

    def __post_init__(self) -> None:
        fold_of_row = np.asarray(self.fold_of_row, dtype=np.intp)
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if fold_of_row.ndim != 1:
            raise ValueError("fold_of_row must be 1-D")
        if fold_of_row.min(initial=0) < 0 or fold_of_row.max(initial=0) >= self.k:
            raise ValueError("fold index outside [0, k)")
        sizes = np.bincount(fold_of_row, minlength=self.k)
        if sizes.max() - sizes.min() > 1:
            raise ValueError("fold sizes differ by more than one")
        object.__setattr__(self, "fold_of_row", fold_of_row)
        fold_of_row.setflags(write=False)

    @property
    def n(self) -> int:
        return self.fold_of_row.shape[0]

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of_row == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of_row != fold)


def stratified_k_fold(data: LabeledDataset, k: int, seed: int) -> FoldAssignment:
    """Deal each class's records round-robin into k folds.

    Records are shuffled within their class, then dealt in ascending class
    order. The dealing cursor starts at a seeded random fold and carries over
    between classes, so per-class counts and overall fold sizes both stay
    within one of each other (a per-class restart could stack small classes
    into the same fold and break the overall balance).
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
    return FoldAssignment(fold_of_row=fold_of_row, k=k)


@dataclass(frozen=True)
class ConfusionMatrix:
    """counts[t][p] = number of records of true class t predicted as p."""

    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise ValueError("confusion matrix must be square")
        if (counts < 0).any():
            raise ValueError("negative count")
        object.__setattr__(self, "counts", counts)
        counts.setflags(write=False)

    @property
    def num_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        return ConfusionMatrix(counts=self.counts + other.counts)


def confusion_matrix(
    truths: np.ndarray, preds: np.ndarray, num_classes: int
) -> ConfusionMatrix:
    truths = np.asarray(truths)
    preds = np.asarray(preds)
    if truths.shape != preds.shape:
        raise LengthMismatchError(
            f"true/predicted lengths differ: {truths.shape} vs {preds.shape}"
        )
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    if truths.shape[0] > 0:
        for arr, name in ((truths, "true"), (preds, "predicted")):
            if arr.min() < 0 or arr.max() >= num_classes:
                raise LabelOutOfRangeError(
                    f"{name} label outside 0..{num_classes - 1}"
                )
        np.add.at(counts, (truths, preds), 1)
    return ConfusionMatrix(counts=counts)


class MetricSet(NamedTuple):
    accuracy: float
    sensitivity: float
    specificity: float
    precision: float
    mcc: float

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return tuple(self)


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    # zero-denominator convention: score 0, not NaN
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0)


def metric_table(counts: np.ndarray) -> np.ndarray:
    """One-vs-rest metrics of every class of a stack of confusion matrices.

    `counts` is `(..., K, K)`; the result is `(..., K, 5)`, one row per
    class in METRIC_NAMES order. Each value is what the scalar formula
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


def one_vs_rest_metrics(cm: ConfusionMatrix, class_index: int) -> MetricSet:
    """Binary metrics treating `class_index` as positive, everything else negative."""
    if not 0 <= class_index < cm.num_classes:
        raise LabelOutOfRangeError(f"class index {class_index} out of range")
    return per_class_metrics(cm)[class_index]


def per_class_metrics(cm: ConfusionMatrix) -> tuple[MetricSet, ...]:
    if cm.total == 0:
        raise EmptyMatrixError("confusion matrix is empty")
    return _metric_sets(metric_table(cm.counts))


def macro_metrics(per_class: tuple[MetricSet, ...]) -> MetricSet:
    """Unweighted arithmetic mean of each field over classes."""
    if len(per_class) == 0:
        raise ValueError("need at least one class")
    return MetricSet(*np.array(per_class).mean(axis=0).tolist())


@dataclass(frozen=True)
class EvalReport:
    """Everything a k-fold run produced, plus the summary the caller asked for.

    With metrics_mode "pooled" the per_class/macro metrics come from the
    summed confusion matrix; with "fold_mean" they are unweighted means of
    the per-fold metrics. fold_metrics is the `(k, K, 5)` metric_table of
    per_fold, which the metrics CSV reads.
    """

    classifier_kind: str
    params: dict
    k: int
    seed: int
    metrics_mode: str
    class_names: tuple[str, ...]
    per_fold: tuple[ConfusionMatrix, ...]
    pooled: ConfusionMatrix
    per_class: tuple[MetricSet, ...]
    macro: MetricSet
    fold_metrics: np.ndarray

    def __post_init__(self) -> None:
        summed = self.per_fold[0]
        for m in self.per_fold[1:]:
            summed = summed + m
        if not np.array_equal(summed.counts, self.pooled.counts):
            raise ValueError("pooled matrix is not the sum of the fold matrices")


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
    or each other.
    """
    assignment = stratified_k_fold(data, k, derive_seed(seed, 0))
    names = class_names if class_names is not None else tuple(
        str(c) for c in range(data.num_classes)
    )
    train_sets = [data.subset(assignment.train_indices(f)) for f in range(k)]
    seeds = [derive_seed(seed, f + 1) for f in range(k)]
    if classifier_kind == "mlp":
        # the k networks train in lockstep; each fit is model or error
        mlp_fits = train_mlp_stack(train_sets, MlpParams(**(params or {})), seeds)
    per_fold = []
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
                    class_names=names,
                )
            else:
                trained = train_model(
                    classifier_kind,
                    train_sets[f],
                    params=params,
                    seed=seeds[f],
                    class_names=names,
                )
        except Exception as exc:
            detail = exc.args[0] if exc.args else repr(exc)
            exc.args = (f"fold {f}: {detail}",)
            raise
        test_idx = assignment.test_indices(f)
        preds, _ = predict(trained, data.features[test_idx])
        per_fold.append(confusion_matrix(data.labels[test_idx], preds, data.num_classes))
    counts = np.stack([m.counts for m in per_fold])
    pooled = ConfusionMatrix(counts=counts.sum(axis=0))
    # one pass over the k fold matrices and the pooled one: (k + 1, K, 5)
    table = metric_table(np.concatenate((counts, pooled.counts[None])))
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
        params=dict(params) if params else {},
        k=k,
        seed=seed,
        metrics_mode=mode,
        class_names=names,
        per_fold=tuple(per_fold),
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
    counts = report.pooled.counts
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
