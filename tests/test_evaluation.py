import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ectshape.classifiers import predict, train_model
from ectshape.dataset import LabeledDataset
from ectshape.errors import BadKError, EmptyClassError, NonFiniteLossError
from ectshape.evaluation import (
    METRICS_CSV_HEADER,
    MetricSet,
    cross_validate,
    metric_table,
    metrics_csv_lines,
    report_text,
    stratified_k_fold,
)
from ectshape.geometry import shape_descriptors
from ectshape.rng import SplitMix64, derive_seed
from ectshape.synthetic import SynthClassSpec, generate_synthetic
from ectshape.textio import format_float
from reference import (
    ConfusionMatrix,
    macro_metrics,
    one_vs_rest_metrics,
    per_class_metrics,
)


def toy_dataset(labels, num_classes=None):
    labels = np.asarray(labels)
    if num_classes is None:
        num_classes = int(labels.max()) + 1
    return LabeledDataset(
        features=np.zeros((labels.shape[0], 1)),
        labels=labels,
        num_classes=max(num_classes, 2),
        feature_names=("f0",),
    )


def blob_dataset(seed, n_per, centers=((0.0, 0.0), (5.0, 0.0), (0.0, 5.0))):
    g = SplitMix64(seed)
    rows, labels = [], []
    for c, (cx, cy) in enumerate(centers):
        for _ in range(n_per):
            rows.append([cx + 0.5 * g.normal(), cy + 0.5 * g.normal()])
            labels.append(c)
    return LabeledDataset(
        features=np.array(rows),
        labels=np.array(labels),
        num_classes=len(centers),
        feature_names=("x", "y"),
    )


# --- fold assignment ---------------------------------------------------------

def test_fold_assignment_validation():
    # the assignment is a read-only (n,) intp index in [0, k); fold f tests
    # the rows where it equals f and trains on the others
    data = toy_dataset(np.array([0, 1, 0, 1, 0, 1]))
    fold_of_row = stratified_k_fold(data, k=3, seed=0)
    assert fold_of_row.dtype == np.intp and fold_of_row.shape == (6,)
    assert not fold_of_row.flags.writeable
    with pytest.raises(ValueError):
        fold_of_row[0] = 0
    assert sorted(fold_of_row.tolist()) == [0, 0, 1, 1, 2, 2]
    for f in range(3):
        test_rows = np.flatnonzero(fold_of_row == f)
        train_rows = np.flatnonzero(fold_of_row != f)
        assert test_rows.shape == (2,) and train_rows.shape == (4,)
        assert sorted(data.labels[test_rows].tolist()) == [0, 1]


def test_stratified_twelve_by_twenty():
    labels = np.repeat(np.arange(12), 20)
    data = toy_dataset(labels)
    fa = stratified_k_fold(data, k=10, seed=0)
    assert fa.max() == 9
    for fold in range(10):
        members = labels[fa == fold]
        assert members.shape[0] == 24
        assert list(np.bincount(members, minlength=12)) == [2] * 12


@given(
    labels=st.lists(st.integers(0, 4), min_size=8, max_size=60),
    k=st.integers(2, 8),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=60, deadline=None)
def test_stratified_partition_properties(labels, k, seed):
    labels = np.array(labels)
    if k > labels.shape[0]:
        k = labels.shape[0]
    fa = stratified_k_fold(toy_dataset(labels, num_classes=5), k=k, seed=seed)
    # partition: every row in exactly one fold
    seen = np.concatenate([np.flatnonzero(fa == f) for f in range(k)])
    assert sorted(seen) == list(range(labels.shape[0]))
    sizes = np.bincount(fa, minlength=k)
    assert sizes.max() - sizes.min() <= 1
    for c in range(5):
        per_class = np.bincount(fa[labels == c], minlength=k)
        assert per_class.max() - per_class.min() <= 1


def test_stratified_deterministic_and_seed_sensitive():
    data = toy_dataset(np.repeat(np.arange(3), 20))
    a = stratified_k_fold(data, k=5, seed=42)
    b = stratified_k_fold(data, k=5, seed=42)
    c = stratified_k_fold(data, k=5, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_leave_one_out():
    data = toy_dataset(np.arange(4))
    fa = stratified_k_fold(data, k=4, seed=0)
    sizes = np.bincount(fa, minlength=4)
    assert list(sizes) == [1, 1, 1, 1]


def deal_folds_oracle(data, k, seed):
    """stratified_k_fold dealing one row at a time: the dealing's oracle."""
    rng = SplitMix64(seed)
    fold_of_row = np.empty(data.n_rows, dtype=np.intp)
    cursor = rng.randbelow(k)
    for c in range(data.num_classes):
        members = np.flatnonzero(data.labels == c)
        rng.shuffle(members)
        for idx in members:
            fold_of_row[idx] = cursor % k
            cursor += 1
    return fold_of_row


@given(
    labels=st.lists(st.integers(0, 5), min_size=2, max_size=120),
    k=st.integers(2, 40),
    seed=st.integers(0, 2**64 - 1),
)
@settings(max_examples=100, deadline=None)
def test_stratified_dealing_matches_row_oracle(labels, k, seed):
    data = toy_dataset(np.array(labels), num_classes=6)
    k = min(k, data.n_rows)
    got = stratified_k_fold(data, k=k, seed=seed)
    assert got.tobytes() == deal_folds_oracle(data, k, seed).tobytes()


def test_bad_k():
    data = toy_dataset(np.array([0, 0, 1, 1]))
    with pytest.raises(BadKError):
        stratified_k_fold(data, k=1, seed=0)
    with pytest.raises(BadKError):
        stratified_k_fold(data, k=5, seed=0)


# --- confusion counts --------------------------------------------------------

def test_confusion_examples():
    # separable classes: every fold's counts are diagonal, its class sizes
    data = blob_dataset(seed=3, n_per=8)
    report = cross_validate(data, "nb", None, k=4, seed=0)
    fold_of_row = stratified_k_fold(data, 4, derive_seed(0, 0))
    assert report.per_fold.shape == (4, 3, 3) and report.per_fold.dtype == np.int64
    for f in range(4):
        sizes = np.bincount(data.labels[fold_of_row == f], minlength=3)
        assert np.array_equal(report.per_fold[f], np.diag(sizes))
    assert np.array_equal(report.pooled, np.diag([8, 8, 8]))
    # one constant feature: each fold's tree is one leaf that predicts the
    # training majority, class 0, for every row
    data = toy_dataset(np.array([0] * 6 + [1] * 2))
    report = cross_validate(data, "tree", None, k=2, seed=0)
    assert report.per_fold.tolist() == [[[3, 0], [1, 0]]] * 2
    assert report.pooled.tolist() == [[6, 0], [2, 0]]


@pytest.mark.parametrize("per_fold_mean", [False, True])
@pytest.mark.parametrize("kind", ["nb", "tree"])
def test_count_block_matches_per_fold_fit_and_predict(kind, per_fold_mean):
    # each fold fitted and predicted on its own and counted pair by pair:
    # what the one count over all folds must give
    data = blob_dataset(seed=31, n_per=9, centers=((0.0, 0.0), (0.8, 0.0), (0.0, 0.8)))
    k, seed = 4, 6
    report = cross_validate(data, kind, None, k=k, seed=seed, per_fold_mean=per_fold_mean)
    fold_of_row = stratified_k_fold(data, k, derive_seed(seed, 0))
    want = [[[0] * 3 for _ in range(3)] for _ in range(k)]
    for f in range(k):
        train_rows = np.flatnonzero(fold_of_row != f)
        test_rows = np.flatnonzero(fold_of_row == f)
        trained = train_model(kind, data.subset(train_rows), seed=derive_seed(seed, f + 1))
        preds, _ = predict(trained, data.features[test_rows])
        for t, p in zip(data.labels[test_rows].tolist(), preds.tolist()):
            want[f][t][p] += 1
    assert report.per_fold.tolist() == want
    pooled = [[sum(want[f][t][p] for f in range(k)) for p in range(3)] for t in range(3)]
    assert report.pooled.tolist() == pooled
    assert np.trace(report.pooled) < data.n_rows  # some rows misclassified


# --- per-class metrics -------------------------------------------------------

def test_metrics_perfect_diagonal():
    table = metric_table(4 * np.eye(3, dtype=np.int64))
    assert table.tolist() == [[1.0, 1.0, 1.0, 1.0, 1.0]] * 3


def test_metrics_worked_example():
    # class 0 vs rest: TP=5, FN=2, FP=1, TN=12
    m = MetricSet(*metric_table(np.array([[5, 2], [1, 12]]))[0].tolist())
    assert m.accuracy == pytest.approx(17 / 20)
    assert m.sensitivity == pytest.approx(5 / 7)
    assert m.specificity == pytest.approx(12 / 13)
    assert m.precision == pytest.approx(5 / 6)
    # (5*12 - 1*2) / sqrt(6*7*13*14)
    assert m.mcc == pytest.approx(58 / math.sqrt(7644), abs=1e-12)
    assert m.mcc == pytest.approx(0.6633880657639324, abs=1e-12)


def test_metrics_zero_denominator_convention():
    # class 2 never true and never predicted
    m = MetricSet(*metric_table(np.array([[3, 1, 0], [0, 4, 0], [0, 0, 0]]))[2].tolist())
    assert m.sensitivity == 0.0
    assert m.precision == 0.0
    assert m.specificity == 1.0
    assert m.mcc == 0.0
    assert m.accuracy == 1.0


def test_macro_examples():
    same = MetricSet(0.9, 0.8, 0.7, 0.6, 0.5)
    assert macro_metrics((same, same)) == same
    a = MetricSet(0.9, 1.0, 1.0, 1.0, 1.0)
    b = MetricSet(0.7, 0.0, 0.0, 0.0, 0.0)
    assert macro_metrics((a, b)).accuracy == pytest.approx(0.8)


def test_macro_twelve_class_brute_force():
    g = SplitMix64(55)
    counts = np.array([[g.randbelow(9) for _ in range(12)] for _ in range(12)])
    counts += np.diag([g.randbelow(30) + 1 for _ in range(12)])
    # the macro row as cross_validate takes it: the class mean of the table
    macro = metric_table(counts[None]).mean(axis=1)[0]
    stack = np.array([one_vs_rest_oracle(counts, c) for c in range(12)])
    assert np.allclose(macro, stack.mean(axis=0), atol=1e-15)


def one_vs_rest_oracle(counts, c):
    """The metrics of class c in scalar Python floats, one class at a time:
    the bit oracle of metric_table."""
    def ratio(num, den):
        return num / den if den > 0 else 0.0

    tp = float(counts[c, c])
    fn = float(counts[c].sum() - tp)
    fp = float(counts[:, c].sum() - tp)
    tn = float(int(counts.sum()) - tp - fn - fp)
    mcc_den_sq = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    mcc = (tp * tn - fp * fn) / np.sqrt(mcc_den_sq) if mcc_den_sq > 0 else 0.0
    return (ratio(tp + tn, tp + tn + fp + fn), ratio(tp, tp + fn),
            ratio(tn, tn + fp), ratio(tp, tp + fp), float(mcc))


@given(
    num_matrices=st.integers(1, 5),
    num_classes=st.integers(2, 7),
    top=st.sampled_from([1, 3, 40, 10**6]),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=150, deadline=None)
def test_metric_table_matches_scalar_oracle_bits(num_matrices, num_classes, top, seed):
    # zero rows and columns hit the zero-denominator convention; counts up
    # to 10**6 make MCC's denominator products round
    rng = np.random.default_rng(seed)
    shape = (num_matrices, num_classes, num_classes)
    counts = rng.integers(0, top + 1, size=shape) * (rng.random(shape) < 0.7)
    counts[rng.random((num_matrices, num_classes)) < 0.25] = 0
    for m, c in zip(*np.nonzero(rng.random((num_matrices, num_classes)) < 0.25)):
        counts[m, :, c] = 0
    table = metric_table(counts)
    assert table.shape == shape[:2] + (5,)
    for m in range(num_matrices):
        for c in range(num_classes):
            want = np.array(one_vs_rest_oracle(counts[m], c))
            assert table[m, c].tobytes() == want.tobytes()
            if counts[m].sum() > 0:
                got = one_vs_rest_metrics(ConfusionMatrix(counts=counts[m]), c)
                assert np.array(got).tobytes() == want.tobytes()


@pytest.mark.parametrize("per_fold_mean", [False, True])
def test_summary_and_csv_match_metrics_of_each_matrix(per_fold_mean):
    # cross_validate scores all folds and the pooled matrix in one pass and
    # the CSV reads it; every row must be what per_class_metrics and
    # macro_metrics give for its own matrix, in the summary's convention
    # overlapping blobs, so that the metrics are not all 0 or 1
    data = blob_dataset(seed=31, n_per=9, centers=((0.0, 0.0), (0.8, 0.0), (0.0, 0.8)))
    report = cross_validate(data, "nb", None, k=4, seed=6, per_fold_mean=per_fold_mean)
    by_fold = [per_class_metrics(ConfusionMatrix(cm)) for cm in report.per_fold]
    if per_fold_mean:
        per_class = tuple(macro_metrics(tuple(fold[c] for fold in by_fold))
                          for c in range(3))
        macro = macro_metrics(tuple(macro_metrics(fold) for fold in by_fold))
    else:
        per_class = per_class_metrics(ConfusionMatrix(report.pooled))
        macro = macro_metrics(per_class)
    assert report.per_class == per_class and report.macro == macro

    def row(f, c, m):
        return f"nb,{f},{c}," + ",".join(format_float(v) for v in m)

    want = [METRICS_CSV_HEADER]
    for f, fold in enumerate(by_fold):
        want += [row(f, c, m) for c, m in enumerate(fold)]
        want.append(row(f, -1, macro_metrics(fold)))
    want += [row(-1, c, m) for c, m in enumerate(per_class)]
    want.append(row(-1, -1, macro))
    assert metrics_csv_lines(report) == want


def direct_pair_metrics(truths, preds, c):
    """Independent metric oracle: count the four cells pair by pair."""
    tp = sum(1 for t, p in zip(truths, preds) if t == c and p == c)
    fn = sum(1 for t, p in zip(truths, preds) if t == c and p != c)
    fp = sum(1 for t, p in zip(truths, preds) if t != c and p == c)
    tn = sum(1 for t, p in zip(truths, preds) if t != c and p != c)
    n = tp + fn + fp + tn

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    den_sq = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    return (
        ratio(tp + tn, n),
        ratio(tp, tp + fn),
        ratio(tn, tn + fp),
        ratio(tp, tp + fp),
        (tp * tn - fp * fn) / math.sqrt(den_sq) if den_sq > 0 else 0.0,
    )


def test_metric_counting_oracle():
    g = SplitMix64(66)
    for _ in range(200):
        k = 2 + g.randbelow(4)
        n = 1 + g.randbelow(40)
        truths = np.array([g.randbelow(k) for _ in range(n)])
        preds = np.array([g.randbelow(k) for _ in range(n)])
        counts = np.zeros((k, k), dtype=np.int64)
        for t, p in zip(truths, preds):
            counts[t, p] += 1
        for c in range(k):
            got = tuple(metric_table(counts)[c])
            want = direct_pair_metrics(truths, preds, c)
            assert np.allclose(got, want, atol=1e-12)
            # accuracy identity: 1 - off-diagonal mass involving c over N
            wrong = sum(
                1 for t, p in zip(truths, preds) if (t == c) != (p == c)
            )
            assert got[0] == pytest.approx(1.0 - wrong / n, abs=1e-12)


# --- cross-validation --------------------------------------------------------

def separable_shape_dataset():
    spec = tuple(
        SynthClassSpec(name=n, n_points=48, center=(1.0, 0.5), a=a, b=b,
                       rotation_deg=r, noise_sigma=0.05, n_records=12)
        for n, a, b, r in (("round", 2.0, 1.6, 0.0),
                           ("long", 5.0, 1.0, 30.0),
                           ("mid", 3.2, 0.9, 60.0))
    )
    clouds = generate_synthetic(spec, seed=7)
    feats = np.array(
        [shape_descriptors(c)[:3] for cls in clouds for c in cls]
    )
    labels = np.array([i for i, cls in enumerate(clouds) for _ in cls])
    return LabeledDataset(
        features=feats, labels=labels, num_classes=3,
        feature_names=("L", "W", "alpha_deg"),
    )


def test_cross_validate_separable_classes():
    data = separable_shape_dataset()
    for kind, params in (("nb", None), ("tree", None), ("mlp", {"epochs": 200})):
        report = cross_validate(data, kind, params, k=10, seed=0)
        assert report.macro.accuracy >= 0.95, kind
        assert report.per_fold.shape == (10, 3, 3)
        assert report.pooled.sum() == data.n_rows
        assert np.array_equal(report.per_fold.sum(axis=0), report.pooled)


def test_cross_validate_deterministic():
    data = blob_dataset(seed=9, n_per=10)
    a = cross_validate(data, "mlp", {"epochs": 30}, k=5, seed=3)
    b = cross_validate(data, "mlp", {"epochs": 30}, k=5, seed=3)
    assert metrics_csv_lines(a) == metrics_csv_lines(b)
    assert np.array_equal(a.per_fold, b.per_fold)


def test_cross_validate_chance_level_mcc():
    g = SplitMix64(100)
    rows, labels = [], []
    for c, (cx, cy) in enumerate(((0.0, 0.0), (5.0, 0.0), (0.0, 5.0))):
        for _ in range(60):
            rows.append([cx + 0.5 * g.normal(), cy + 0.5 * g.normal()])
            labels.append(c)
    features = np.array(rows)
    labels = np.array(labels)
    for trial in range(10):
        shuffled = labels.copy()
        SplitMix64(1000 + trial).shuffle(shuffled)
        data = LabeledDataset(
            features=features, labels=shuffled,
            num_classes=3, feature_names=("x", "y"),
        )
        report = cross_validate(data, "nb", None, k=10, seed=trial)
        assert abs(report.macro.mcc) <= 0.15


def test_per_fold_mean_mode():
    data = blob_dataset(seed=14, n_per=8)
    pooled = cross_validate(data, "tree", {"min_leaf": 1}, k=4, seed=2)
    fold_mean = cross_validate(
        data, "tree", {"min_leaf": 1}, k=4, seed=2, per_fold_mean=True
    )
    assert pooled.metrics_mode == "pooled"
    assert fold_mean.metrics_mode == "fold_mean"
    # same folds, same matrices; only the summary convention differs
    assert np.array_equal(pooled.per_fold, fold_mean.per_fold)
    by_fold = np.array([
        [one_vs_rest_oracle(cm, c) for c in range(3)] for cm in fold_mean.per_fold
    ])
    want_macro = by_fold.mean(axis=(0, 1))
    assert np.allclose(fold_mean.macro, want_macro, atol=1e-12)
    want_class1 = by_fold[:, 1, :].mean(axis=0)
    assert np.allclose(fold_mean.per_class[1], want_class1, atol=1e-12)


def test_cross_validate_rejects_mismatched_class_names():
    data = blob_dataset(seed=5, n_per=4)
    for kind in ("nb", "mlp"):
        with pytest.raises(ValueError, match="^class_names must match num_classes$"):
            cross_validate(data, kind, None, k=2, seed=0, class_names=("a", "b"))


def test_cross_validate_annotates_failing_fold():
    # a one-member class disappears from training when its row is held out
    labels = np.array([0] * 10 + [1])
    g = SplitMix64(61)
    features = np.array([[g.uniform()] for _ in range(11)])
    data = LabeledDataset(
        features=features, labels=labels, num_classes=2, feature_names=("f0",)
    )
    with pytest.raises(EmptyClassError, match="fold "):
        cross_validate(data, "nb", None, k=2, seed=0)


def test_cross_validate_mlp_annotates_failing_fold():
    labels = np.array([0] * 10 + [1])
    g = SplitMix64(61)
    features = np.array([[g.uniform()] for _ in range(11)])
    data = LabeledDataset(
        features=features, labels=labels, num_classes=2, feature_names=("f0",)
    )
    with pytest.raises(EmptyClassError, match="^fold [01]: class 1 has no training rows"):
        cross_validate(data, "mlp", {"epochs": 2}, k=2, seed=0)


def test_cross_validate_mlp_annotates_diverging_fold():
    data = blob_dataset(seed=20, n_per=6)
    params = {"hidden": 2, "lr": 1e308, "momentum": 1e308, "epochs": 20}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(NonFiniteLossError, match="^fold 0: training diverged"):
            cross_validate(data, "mlp", params, k=3, seed=0)


# --- rendering ---------------------------------------------------------------

def test_metrics_csv_layout():
    data = blob_dataset(seed=20, n_per=6)
    report = cross_validate(data, "nb", None, k=3, seed=1)
    lines = metrics_csv_lines(report)
    assert lines[0] == METRICS_CSV_HEADER
    # per fold: K class rows + 1 macro row; then pooled per-class + macro
    assert len(lines) == 1 + 3 * (3 + 1) + (3 + 1)
    assert lines[1].startswith("nb,0,0,")
    summary = [line for line in lines if line.startswith("nb,-1,")]
    assert len(summary) == 4
    macro_row = summary[-1].split(",")
    assert macro_row[2] == "-1"
    assert float(macro_row[3]) == pytest.approx(report.macro.accuracy)
    per_class0 = summary[0].split(",")
    assert float(per_class0[7]) == pytest.approx(report.per_class[0].mcc)


def test_report_text_layout():
    data = blob_dataset(seed=20, n_per=6)
    report = cross_validate(
        data, "nb", None, k=3, seed=1, class_names=("crk", "pit", "los")
    )
    text = report_text(report)
    assert "pooled confusion matrix" in text
    assert "folds: 3  seed: 1  metrics: pooled" in text
    for name in ("crk", "pit", "los", "macro"):
        assert name in text
    # one metrics row per class plus macro
    assert text.count("\n") >= 3 + 4 + 2
