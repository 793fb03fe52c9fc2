"""Cross-validated evaluation: folds, confusion matrices, per-class metrics."""

from __future__ import annotations

from dataclasses import dataclass

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
        for idx in members:
            fold_of_row[idx] = cursor % k
            cursor += 1
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


@dataclass(frozen=True)
class MetricSet:
    accuracy: float
    sensitivity: float
    specificity: float
    precision: float
    mcc: float

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (
            self.accuracy,
            self.sensitivity,
            self.specificity,
            self.precision,
            self.mcc,
        )


def _ratio(num: float, den: float) -> float:
    # zero-denominator convention: score 0, not NaN
    return num / den if den > 0 else 0.0


def one_vs_rest_metrics(cm: ConfusionMatrix, class_index: int) -> MetricSet:
    """Binary metrics treating `class_index` as positive, everything else negative."""
    if cm.total == 0:
        raise EmptyMatrixError("confusion matrix is empty")
    if not 0 <= class_index < cm.num_classes:
        raise LabelOutOfRangeError(f"class index {class_index} out of range")
    counts = cm.counts
    tp = float(counts[class_index, class_index])
    fn = float(counts[class_index].sum() - tp)
    fp = float(counts[:, class_index].sum() - tp)
    tn = float(cm.total - tp - fn - fp)
    accuracy = _ratio(tp + tn, tp + tn + fp + fn)
    sensitivity = _ratio(tp, tp + fn)
    specificity = _ratio(tn, tn + fp)
    precision = _ratio(tp, tp + fp)
    mcc_den_sq = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    mcc = (tp * tn - fp * fn) / np.sqrt(mcc_den_sq) if mcc_den_sq > 0 else 0.0
    return MetricSet(
        accuracy=accuracy,
        sensitivity=sensitivity,
        specificity=specificity,
        precision=precision,
        mcc=float(mcc),
    )


def per_class_metrics(cm: ConfusionMatrix) -> tuple[MetricSet, ...]:
    return tuple(one_vs_rest_metrics(cm, c) for c in range(cm.num_classes))


def macro_metrics(per_class: tuple[MetricSet, ...]) -> MetricSet:
    """Unweighted arithmetic mean of each field over classes."""
    if len(per_class) == 0:
        raise ValueError("need at least one class")
    arr = np.array([m.as_tuple() for m in per_class])
    return MetricSet(*(float(v) for v in arr.mean(axis=0)))


@dataclass(frozen=True)
class EvalReport:
    """Everything a k-fold run produced, plus the summary the caller asked for.

    With metrics_mode "pooled" the per_class/macro metrics come from the
    summed confusion matrix; with "fold_mean" they are unweighted means of
    the per-fold metrics.
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
    pooled = per_fold[0]
    for m in per_fold[1:]:
        pooled = pooled + m
    if per_fold_mean:
        by_fold = [per_class_metrics(m) for m in per_fold]
        per_class = tuple(
            macro_metrics(tuple(fold[c] for fold in by_fold))
            for c in range(data.num_classes)
        )
        macro = macro_metrics(tuple(macro_metrics(fold) for fold in by_fold))
        mode = "fold_mean"
    else:
        per_class = per_class_metrics(pooled)
        macro = macro_metrics(per_class)
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
        per_class=per_class,
        macro=macro,
    )


def _metric_fields(m: MetricSet) -> str:
    return ",".join(format_float(v) for v in m.as_tuple())


def metrics_csv_lines(report: EvalReport) -> list[str]:
    """Rows per fold and class; fold -1 = summary, class -1 = macro average."""
    lines = [METRICS_CSV_HEADER]
    kind = report.classifier_kind
    for f, cm in enumerate(report.per_fold):
        fold_sets = per_class_metrics(cm)
        for c, metrics in enumerate(fold_sets):
            lines.append(f"{kind},{f},{c},{_metric_fields(metrics)}")
        lines.append(f"{kind},{f},-1,{_metric_fields(macro_metrics(fold_sets))}")
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
