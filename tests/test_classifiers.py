import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import tree_depth
from ectshape.classifiers import (
    MlpParams,
    TrainedModel,
    TreeParams,
    gnb_posterior,
    predict,
    train_gnb,
    train_mlp,
    train_model,
    train_tree,
    tree_posterior,
)
from ectshape.classifiers import decision_tree, naive_bayes
from ectshape.classifiers.decision_tree import TreeLeaf, TreeSplit
from ectshape.classifiers.perceptron import (
    _POSTERIOR_LANES,
    _SCALAR_SIGMOID_MAX,
    _Sigmoid,
    _sigmoid,
    _sigmoid_each,
    _Stack,
    _TrainingStack,
    MlpModel,
    _min_max_scale,
    mlp_posterior,
    scale_features,
    train_mlp_stack,
)
from ectshape.classifiers.serialize import save_model
from ectshape.dataset import LabeledDataset
from ectshape.errors import (
    DimensionMismatchError,
    EmptyClassError,
    EmptyDatasetError,
    NonFiniteLossError,
)
from ectshape.evaluation import stratified_k_fold
from ectshape.rng import SplitMix64, derive_seed
from reference import example_loss_and_gradients, stack_gradients


def dataset_1d(values, labels, num_classes=2):
    return LabeledDataset(
        features=np.array(values, dtype=float).reshape(-1, 1),
        labels=np.array(labels),
        num_classes=num_classes,
        feature_names=("f0",),
    )


def blob_dataset(seed=5, n_per=20, centers=((0.0, 0.0), (4.0, 4.0), (0.0, 6.0))):
    g = SplitMix64(seed)
    rows, labels = [], []
    for c, (cx, cy) in enumerate(centers):
        for _ in range(n_per):
            rows.append([cx + 0.4 * g.normal(), cy + 0.4 * g.normal()])
            labels.append(c)
    return LabeledDataset(
        features=np.array(rows),
        labels=np.array(labels),
        num_classes=len(centers),
        feature_names=("x", "y"),
    )


# --- naive Bayes -------------------------------------------------------------

def test_gnb_zero_variance_classes_hit_floor():
    data = dataset_1d([0.0, 0.0, 10.0, 10.0], [0, 0, 1, 1])
    model = train_gnb(data)
    floor = 1e-9 * 10.0**2 + 1e-12
    assert model.means[0, 0] == 0.0 and model.means[1, 0] == 10.0
    assert model.variances[0, 0] == floor
    assert model.variances[1, 0] == floor
    assert list(model.priors) == [0.5, 0.5]


def test_gnb_population_variance():
    data = dataset_1d([1.0, 2.0, 3.0, 10.0, 11.0], [0, 0, 0, 1, 1])
    model = train_gnb(data)
    assert model.means[0, 0] == pytest.approx(2.0)
    assert model.variances[0, 0] == pytest.approx(2.0 / 3.0)  # n-denominator
    assert model.variances[1, 0] == pytest.approx(0.25)
    assert model.priors[0] == pytest.approx(0.6)


def test_gnb_empty_class_raises():
    data = dataset_1d([1.0, 2.0], [0, 0], num_classes=2)
    with pytest.raises(EmptyClassError) as exc:
        train_gnb(data)
    assert exc.value.class_index == 1


def test_gnb_confident_near_floored_class():
    model = train_gnb(dataset_1d([0.0, 0.0, 10.0, 10.0], [0, 0, 1, 1]))
    posterior = gnb_posterior(model, np.array([[0.0]]))
    assert posterior.shape == (1, 2)
    assert posterior[0, 0] > 0.99


def test_gnb_symmetric_tie_breaks_low():
    data = dataset_1d([-1.0, -3.0, 1.0, 3.0], [0, 0, 1, 1])
    trained = train_model("nb", data)
    labels, posteriors = predict(trained, np.array([[0.0]]))
    assert labels.tolist() == [0]
    assert posteriors[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert posteriors[0, 1] == pytest.approx(0.5, abs=1e-12)


def gnb_posterior_direct(model, x):
    """Posterior of one row via direct density products: the log-space
    path's oracle where the densities stay representable."""
    density = np.prod(
        np.exp(-((x - model.means) ** 2) / (2.0 * model.variances))
        / np.sqrt(2.0 * np.pi * model.variances),
        axis=1,
    )
    joint = model.priors * density
    return joint / joint.sum()


def test_gnb_log_and_direct_paths_agree():
    data = blob_dataset()
    model = train_gnb(data)
    g = SplitMix64(8)
    queries = np.array([[g.uniform_in(-1, 5), g.uniform_in(-1, 7)] for _ in range(50)])
    for x, a in zip(queries, gnb_posterior(model, queries)):
        b = gnb_posterior_direct(model, x)
        assert np.abs(a - b).max() < 1e-9
        assert a.min() >= 0.0
        assert a.sum() == pytest.approx(1.0, abs=1e-9)


def test_gnb_argmax_invariant_under_feature_permutation():
    data = blob_dataset(seed=11)
    permuted = LabeledDataset(
        features=data.features[:, ::-1].copy(),
        labels=data.labels,
        num_classes=data.num_classes,
        feature_names=("y", "x"),
    )
    m0 = train_gnb(data)
    m1 = train_gnb(permuted)
    g = SplitMix64(12)
    x = np.array([[g.uniform_in(-2, 6), g.uniform_in(-2, 8)] for _ in range(30)])
    assert np.array_equal(
        np.argmax(gnb_posterior(m0, x), axis=1),
        np.argmax(gnb_posterior(m1, x[:, ::-1].copy()), axis=1),
    )


def test_gnb_dimension_mismatch():
    trained = train_model("nb", blob_dataset())
    with pytest.raises(DimensionMismatchError):
        predict(trained, np.array([[1.0, 2.0, 3.0]]))


def train_gnb_oracle(data):
    """train_gnb one class at a time, with numpy's mean and var of the
    class's rows: the fit's bit oracle."""
    counts = data.class_counts()
    feature_range = data.features.max(axis=0) - data.features.min(axis=0)
    floor = naive_bayes._VAR_FLOOR_REL * feature_range**2 + naive_bayes._VAR_FLOOR_ABS
    means = np.empty((data.num_classes, data.n_features))
    variances = np.empty((data.num_classes, data.n_features))
    for c in range(data.num_classes):
        rows = data.features[data.labels == c]
        means[c] = rows.mean(axis=0)
        variances[c] = np.maximum(rows.var(axis=0), floor)
    return means, variances, counts.astype(np.float64) / data.n_rows


# values whose sums depend on the order of the adds, plus signed zeros,
# subnormals and ties
GNB_VALUES = np.array([0.0, -0.0, 5e-324, -2.5e-310, 1.0, 1.0 + 2**-52, -3.0, 1e6, 0.1])


@given(
    sizes=st.lists(st.one_of(st.just(1), st.integers(1, 9), st.integers(10, 70)),
                   min_size=2, max_size=6),
    d=st.integers(1, 4),
    seed=st.integers(0, 2**32),
    fortran=st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_gnb_fit_matches_per_class_oracle_bits(sizes, d, seed, fortran):
    # skewed class sizes with single-row classes, rows of a class scattered
    # through the file; d = 1 makes numpy sum each class pairwise
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    n = labels.shape[0]
    features = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 7, size=(n, d))
    special = rng.random((n, d)) < 0.3
    features[special] = rng.choice(GNB_VALUES, size=int(special.sum()))
    constant = rng.random(d) < 0.25
    features[:, constant] = rng.choice(GNB_VALUES, size=int(constant.sum()))
    if fortran:
        features = np.asfortranarray(features)
    data = LabeledDataset(features=features, labels=labels, num_classes=len(sizes),
                          feature_names=tuple(f"f{j}" for j in range(d)))
    model = train_gnb(data)
    for got, want in zip((model.means, model.variances, model.priors),
                         train_gnb_oracle(data)):
        assert got.tobytes() == want.tobytes()


# --- decision tree -----------------------------------------------------------

def test_tree_midpoint_threshold():
    data = dataset_1d([1.0, 2.0, 8.0, 9.0], [0, 0, 1, 1])
    model = train_tree(data)
    root = model.root
    assert isinstance(root, TreeSplit)
    assert root.feature_index == 0
    assert root.threshold == 5.0  # midpoint of adjacent distinct values 2 and 8
    assert isinstance(root.left, TreeLeaf) and isinstance(root.right, TreeLeaf)
    assert list(root.left.distribution) == [0.75, 0.25]  # Laplace (2+1)/(2+2)
    assert list(root.right.distribution) == [0.25, 0.75]
    assert tree_posterior(model, np.array([[3.0], [5.0]])).tolist() == [
        [0.75, 0.25], [0.75, 0.25],  # 5.0 <= threshold goes left
    ]


FINITE = st.floats(allow_nan=False, allow_infinity=False)
MAX = np.finfo(float).max


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.tuples(FINITE, FINITE).filter(lambda p: p[0] != p[1]).map(sorted),
        FINITE.filter(lambda a: a < MAX).map(lambda a: (a, math.nextafter(a, math.inf))),
    )
)
@example((1.0 + 2**-52, 1.0 + 2**-51))  # the midpoint rounds up to b
@example((5e-324, 1e-323))  # subnormal neighbours
@example((0.0, 5e-324))
@example((-5e-324, 0.0))
@example((-1.7e308, 1.7e308))  # a + b = 0, b - a overflows
@example((1.6e308, 1.7e308))  # a + b overflows
@example((math.nextafter(MAX, 0.0), MAX))
@example((-MAX, math.nextafter(-MAX, 0.0)))
def test_tree_threshold_falls_between_neighbours(pair):
    a, b = map(np.float64, pair)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = decision_tree._midpoint(a, b)
    assert a <= t < b


@pytest.mark.parametrize("a,b", [
    (1.0 + 2**-52, 1.0 + 2**-51),  # adjacent doubles
    (1.6e308, 1.7e308),  # their sum overflows
])  # fmt: skip
def test_tree_splits_once_between_close_or_huge_values(a, b):
    data = dataset_1d([a] * 5 + [b] * 5, [0] * 5 + [1] * 5)
    params = TreeParams(min_leaf=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        best = decision_tree._best_split(data.features, data.labels, 2, params)
        model = train_tree(data, params)
    # the mask routes left exactly the rows the split was scored on
    assert best.left_mask.tolist() == [True] * 5 + [False] * 5
    assert a <= best.threshold < b
    root = model.root
    assert isinstance(root, TreeSplit) and root.threshold == best.threshold
    assert isinstance(root.left, TreeLeaf) and isinstance(root.right, TreeLeaf)
    labels = np.argmax(tree_posterior(model, data.features), axis=1)
    assert labels.tolist() == data.labels.tolist()


def test_tree_identical_features_single_leaf():
    data = dataset_1d([5.0, 5.0, 5.0], [0, 0, 1])
    model = train_tree(data)
    assert isinstance(model.root, TreeLeaf)
    assert list(model.root.distribution) == [0.6, 0.4]  # (2+1)/5, (1+1)/5


def test_tree_pure_class_single_leaf():
    data = dataset_1d([1.0, 2.0, 3.0], [0, 0, 0])
    model = train_tree(data, TreeParams(min_leaf=1))
    assert isinstance(model.root, TreeLeaf)
    assert np.argmax(model.root.distribution) == 0


def test_tree_max_depth_honored():
    data = blob_dataset(seed=3)
    model = train_tree(data, TreeParams(max_depth=1, min_leaf=1))
    assert tree_depth(model) <= 1


def test_tree_tie_prefers_lowest_feature_index():
    # identical columns so every split scores the same on both features
    x = np.array([[1.0, 1.0], [2.0, 2.0], [8.0, 8.0], [9.0, 9.0]])
    data = LabeledDataset(
        features=x, labels=np.array([0, 0, 1, 1]),
        num_classes=2, feature_names=("a", "b"),
    )
    model = train_tree(data)
    assert isinstance(model.root, TreeSplit)
    assert model.root.feature_index == 0


def test_tree_min_leaf_one_reaches_training_recall():
    data = blob_dataset(seed=17)
    model = train_tree(data, TreeParams(min_leaf=1))
    preds = np.argmax(tree_posterior(model, data.features), axis=1)
    assert preds.tolist() == data.labels.tolist()


@pytest.mark.parametrize("kwargs", [
    {"max_depth": 0},
    {"max_depth": decision_tree.MAX_DEPTH + 1},
    {"min_leaf": 0},
])
def test_tree_params_out_of_range_raise(kwargs):
    with pytest.raises(ValueError, match=f"^{next(iter(kwargs))} must be"):
        train_tree(blob_dataset(seed=3), TreeParams(**kwargs))


def test_train_model_grows_no_tree_the_model_reader_rejects():
    # MAX_DEPTH is also the model reader's cap, so no deeper tree is grown
    with pytest.raises(ValueError):
        train_model("tree", blob_dataset(seed=3), {"max_depth": 1200, "min_leaf": 1})
    assert TreeParams(max_depth=decision_tree.MAX_DEPTH).max_depth == 1000


def test_tree_min_leaf_blocks_tiny_dataset():
    with pytest.raises(EmptyDatasetError):
        train_tree(dataset_1d([1.0], [0]), TreeParams(min_leaf=2))


def test_tree_deterministic():
    data = blob_dataset(seed=29)
    t0 = train_model("tree", data, {"min_leaf": 1})
    t1 = train_model("tree", data, {"min_leaf": 1})
    assert save_model(t0) == save_model(t1)


# --- split search against the per-boundary oracle ----------------------------

def reference_entropy_bits(counts):
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def reference_best_split(features, labels, num_classes, params):
    """One boundary at a time, strict > across (feature, boundary) order."""
    n = labels.shape[0]
    parent_counts = np.bincount(labels, minlength=num_classes)
    parent_entropy = reference_entropy_bits(parent_counts)
    best = None
    for j in range(features.shape[1]):
        order = np.argsort(features[:, j], kind="stable")
        v = features[order, j]
        y = labels[order]
        onehot = np.zeros((n, num_classes))
        onehot[np.arange(n), y] = 1.0
        prefix = np.cumsum(onehot, axis=0)
        for i in np.nonzero(v[:-1] != v[1:])[0]:
            n_left = i + 1
            n_right = n - n_left
            if n_left < params.min_leaf or n_right < params.min_leaf:
                continue
            left_counts = prefix[i]
            right_counts = parent_counts - left_counts
            p_left = n_left / n
            p_right = n_right / n
            gain = parent_entropy - (
                p_left * reference_entropy_bits(left_counts)
                + p_right * reference_entropy_bits(right_counts)
            )
            split_info = -(p_left * np.log2(p_left) + p_right * np.log2(p_right))
            if split_info >= decision_tree._GAIN_EPS:
                score = gain / split_info
            else:
                score = gain
            if best is None or score > best.score:
                threshold = 0.5 * (v[i] + v[i + 1])
                best = decision_tree._Candidate(
                    feature=j, threshold=threshold, gain=gain, score=score,
                    left_mask=features[:, j] <= threshold,
                )
    return best


def candidate_bits(candidate):
    if candidate is None:
        return None
    return (
        candidate.feature,
        np.float64(candidate.threshold).tobytes(),
        np.float64(candidate.gain).tobytes(),
        np.float64(candidate.score).tobytes(),
        candidate.left_mask.tolist(),
    )


SPLIT_PARAMS = (
    TreeParams(), TreeParams(min_leaf=1), TreeParams(min_leaf=5),
)


def split_oracle_case(rng, k):
    """Features (n, d) and labels in 0..k-1: an integer lattice at a scale in
    1e-3..1e5 (many equal values, equal scores within a feature) or normal
    data; half the time the last column repeats the first, so equal scores
    also span features."""
    n, d = int(rng.integers(2, 80)), int(rng.integers(1, 5))
    if rng.random() < 0.7:
        features = rng.integers(-3, 4, size=(n, d)) * 10.0 ** int(rng.integers(-3, 6))
    else:
        features = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3.0, 5.0)
    if d > 1 and rng.random() < 0.5:
        features[:, -1] = features[:, 0]
    labels = rng.integers(0, k, size=n)
    if rng.random() < 0.3:  # classes in runs along the first feature
        labels = np.sort(labels)[np.argsort(np.argsort(features[:, 0], kind="stable"))]
    return features, labels


def assert_split_search_matches_oracle(seed, cases_per_k):
    """_best_split against the per-boundary loop for K = 2..20 under every
    SPLIT_PARAMS; the same candidate bits and left mask, or both None."""
    rng = np.random.default_rng(seed)
    for k in range(2, 21):
        for _ in range(cases_per_k):
            features, labels = split_oracle_case(rng, k)
            for params in SPLIT_PARAMS:
                got = decision_tree._best_split(features, labels, k, params)
                want = reference_best_split(features, labels, k, params)
                assert candidate_bits(got) == candidate_bits(want), (k, params)


@pytest.mark.parametrize("gain_eps", [None, 0.5])
def test_best_split_matches_per_boundary_oracle(monkeypatch, gain_eps):
    # no reachable row count brings split info below 1e-12, so the raised
    # threshold is what exercises the fall back from gain ratio to gain
    if gain_eps is not None:
        monkeypatch.setattr(decision_tree, "_GAIN_EPS", gain_eps)
    assert_split_search_matches_oracle(seed=11 + bool(gain_eps), cases_per_k=6)


def test_entropies_match_per_row_oracle():
    # K > 8 rows with more than 8 nonzero counts go through the pairwise
    # sum's 8-accumulator loop
    rng = np.random.default_rng(4)
    for k in range(2, 40):
        counts = rng.integers(0, 50, size=(300, k)).astype(float)
        counts[rng.random(size=counts.shape) < rng.random(size=(300, 1))] = 0.0
        counts[:3] = 0.0
        counts[1, -1] = 7.0
        counts[2, :] = 1e6
        want = np.array([reference_entropy_bits(row) for row in counts])
        assert decision_tree._entropies(counts).tobytes() == want.tobytes(), k


def reference_grow(features, labels, num_classes, params, depth=0):
    """The recursive tree growth the explicit stack replaced."""
    counts = np.bincount(labels, minlength=num_classes)
    if (
        np.count_nonzero(counts) <= 1
        or depth >= params.max_depth
        or labels.shape[0] < 2 * params.min_leaf
    ):
        return decision_tree._leaf(counts)
    best = decision_tree._best_split(features, labels, num_classes, params)
    if best is None or best.gain <= decision_tree._GAIN_EPS:
        return decision_tree._leaf(counts)
    left = best.left_mask
    return TreeSplit(
        feature_index=best.feature,
        threshold=best.threshold,
        left=reference_grow(features[left], labels[left], num_classes, params, depth + 1),
        right=reference_grow(features[~left], labels[~left], num_classes, params, depth + 1),
    )


def test_tree_growth_matches_recursive_oracle():
    rng = np.random.default_rng(8)
    for k in (2, 5, 12):
        for _ in range(4):
            features, labels = split_oracle_case(rng, k)
            data = LabeledDataset(
                features=features, labels=labels, num_classes=k,
                feature_names=tuple(f"f{j}" for j in range(features.shape[1])),
            )
            for params in SPLIT_PARAMS + (TreeParams(max_depth=2, min_leaf=1),):
                if labels.shape[0] < params.min_leaf:
                    continue
                want = TrainedModel(
                    "tree",
                    decision_tree.TreeModel(
                        reference_grow(features, labels, k, params), k, data.n_features
                    ),
                    data.feature_names, k,
                )
                got = train_model("tree", data, params._asdict())
                assert save_model(got) == save_model(want)


# --- perceptron --------------------------------------------------------------

def test_mlp_gradients_match_finite_differences():
    g = SplitMix64(31)
    d, h, k = 3, 4, 3
    w1 = np.array([g.uniform_in(-0.5, 0.5) for _ in range(h * d)]).reshape(h, d)
    b1 = np.array([g.uniform_in(-0.5, 0.5) for _ in range(h)])
    w2 = np.array([g.uniform_in(-0.5, 0.5) for _ in range(k * h)]).reshape(k, h)
    b2 = np.array([g.uniform_in(-0.5, 0.5) for _ in range(k)])
    eps = 1e-5
    for _ in range(3):
        x = np.array([g.uniform() for _ in range(d)])
        target = np.zeros(k)
        target[g.randbelow(k)] = 1.0
        _, g_w1, g_b1, g_w2, g_b2 = example_loss_and_gradients(
            w1, b1, w2, b2, x, target
        )
        for param, grad in ((w1, g_w1), (b1, g_b1), (w2, g_w2), (b2, g_b2)):
            flat = param.reshape(-1)
            gflat = grad.reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + eps
                lp = example_loss_and_gradients(w1, b1, w2, b2, x, target)[0]
                flat[idx] = orig - eps
                lm = example_loss_and_gradients(w1, b1, w2, b2, x, target)[0]
                flat[idx] = orig
                fd = (lp - lm) / (2 * eps)
                rel = abs(gflat[idx] - fd) / max(1e-8, abs(fd), abs(gflat[idx]))
                assert rel < 1e-4


def xor_dataset():
    return LabeledDataset(
        features=np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]),
        labels=np.array([0, 1, 1, 0]),
        num_classes=2,
        feature_names=("a", "b"),
    )


def test_mlp_learns_xor():
    data = xor_dataset()
    model = train_mlp(data, MlpParams(hidden=4, epochs=5000), seed=1)
    trained = TrainedModel("mlp", model, data.feature_names, 2)
    assert predict(trained, data.features)[0].tolist() == [0, 1, 1, 0]


def test_mlp_memorizes_one_point_per_class():
    data = dataset_1d([0.0, 1.0], [0, 1])
    model = train_mlp(data, MlpParams(epochs=500), seed=0)
    trained = TrainedModel("mlp", model, data.feature_names, 2)
    assert predict(trained, np.array([[0.0], [1.0]]))[0].tolist() == [0, 1]


def test_mlp_bitwise_deterministic():
    data = blob_dataset(seed=2, n_per=6)
    m0 = train_mlp(data, MlpParams(epochs=20), seed=9)
    m1 = train_mlp(data, MlpParams(epochs=20), seed=9)
    for a, b in ((m0.w1, m1.w1), (m0.b1, m1.b1), (m0.w2, m1.w2), (m0.b2, m1.b2)):
        assert np.array_equal(a, b)
    m2 = train_mlp(data, MlpParams(epochs=20), seed=10)
    assert not np.array_equal(m0.w1, m2.w1)


def test_mlp_divergence_guard():
    data = xor_dataset()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(NonFiniteLossError):
            train_mlp(data, MlpParams(hidden=2, lr=1e308, momentum=1e308, epochs=50))


def test_mlp_default_hidden_size():
    assert MlpParams().resolve_hidden(3, 12) == math.ceil((3 + 12) / 2)
    data = blob_dataset(seed=4, n_per=3)  # d=2, K=3 -> hidden ceil(5/2)=3
    model = train_mlp(data, MlpParams(epochs=1))
    assert model.w1.shape == (3, 2)


def test_mlp_empty_class_raises():
    data = dataset_1d([1.0, 2.0], [0, 0], num_classes=2)
    with pytest.raises(EmptyClassError):
        train_mlp(data, MlpParams(epochs=1))


def test_mlp_scaling_constant_feature_and_no_clamp():
    x = np.array([[0.0, 7.0], [5.0, 7.0], [10.0, 7.0]])
    data = LabeledDataset(
        features=x, labels=np.array([0, 0, 1]),
        num_classes=2, feature_names=("a", "b"),
    )
    model = train_mlp(data, MlpParams(epochs=1))
    scaled = scale_features(model, np.array([20.0, 7.0]))
    assert scaled[0] == 2.0  # outside training range, not clamped
    assert scaled[1] == 0.0  # constant feature maps to 0


def test_mlp_scaling_halves_only_a_column_whose_span_overflows():
    x = np.array([[-1.7e308, 0.0], [0.0, 0.1], [1.7e308, 0.3]])
    lo, hi = x.min(axis=0), x.max(axis=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = _min_max_scale(x, lo, hi)
    assert scaled[:, 0].tolist() == [0.0, 0.5, 1.0]
    assert scaled[:, 1].tobytes() == (x[:, 1] / 0.3).tobytes()


def test_mlp_scaling_halves_an_entry_far_outside_the_range():
    # the span 1e307 is finite, but -1e308 - 1e308 overflows
    lo, hi = np.array([1e308, 0.0]), np.array([1.1e308, 1.0])
    x = np.array([[-1e308, 0.5], [1.05e308, -1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = _min_max_scale(x, lo, hi)
    assert scaled[0, 0] == (-1e308 / (0.5 * (hi[0] - lo[0])))
    assert scaled[1, 0] == (1.05e308 - 1e308) / (hi[0] - lo[0])
    assert scaled[:, 1].tolist() == [0.5, -1e308]


def test_mlp_posterior_of_a_row_that_scales_to_inf():
    # 1e300 scales to inf; through the zero weight its first hidden unit is
    # NaN, so its outputs are NaN and it keeps the uniform posterior
    model = MlpModel(
        w1=np.array([[0.0], [1.0]]), b1=np.zeros(2), w2=np.eye(2), b2=np.zeros(2),
        scaler_min=np.array([0.0]), scaler_max=np.array([1e-300]),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        posterior = mlp_posterior(model, np.array([[1e300], [5e-301]]))
    assert posterior[0].tolist() == [0.5, 0.5]
    assert posterior[1, 1] > posterior[1, 0] > 0.0


def model_bytes(model):
    return [
        getattr(model, name).tobytes()
        for name in ("w1", "b1", "w2", "b2", "scaler_min", "scaler_max")
    ]


def test_mlp_lockstep_folds_match_training_alone():
    # 180 rows in 7 stratified folds: training sets of 154 and 155 rows, so
    # the shorter networks sit out the last step of every epoch
    data = blob_dataset(seed=12, n_per=60)
    fold_of_row = stratified_k_fold(data, 7, seed=3)
    train_sets = [data.subset(np.flatnonzero(fold_of_row != f)) for f in range(7)]
    assert sorted({s.n_rows for s in train_sets}) == [154, 155]
    seeds = [derive_seed(11, f + 1) for f in range(7)]
    stacked = train_mlp_stack(train_sets, MlpParams(epochs=3), seeds)
    for train_set, seed, model in zip(train_sets, seeds, stacked):
        alone = train_mlp(train_set, MlpParams(epochs=3), seed=seed)
        assert model_bytes(model) == model_bytes(alone)


def sigmoid_kinds(k, d, h, n_out):
    """"scalar" or "array": the sigmoid each layer of a stack of k takes."""
    return tuple("scalar" if sigmoid is _sigmoid_each else "array"
                 for sigmoid in _Stack(k, d, h, n_out).sigmoids)


# (d, h, K) on both sides of the cut: in the kernel a layer of at most
# _SCALAR_SIGMOID_MAX numbers (units x lanes) takes the Python-float sigmoid.
# A lone network and a stack of two have at least one such layer, and a stack
# wide enough has none.
@pytest.mark.parametrize("d,h,n_out,ties", [
    (1, 1, 2, False),  # P = 6, where numpy adds a spare lane
    (3, 3, 3, True),  # 24: the traces-256 shape
    (9, 1, 12, False),  # 34
    (2, 5, 6, True),  # 51
    (10, 5, 3, False),  # 73
    (1, 1, 40, False),  # 82: 40 outputs take the array sigmoid alone
    (3, 8, 12, True),  # 140: the crossval shape
])  # fmt: skip
def test_mlp_alone_matches_the_lockstep_kernel(d, h, n_out, ties):
    assert "scalar" in sigmoid_kinds(1, d, h, n_out)
    wide = _SCALAR_SIGMOID_MAX // min(h, n_out) + 1
    assert "scalar" in sigmoid_kinds(2, d, h, n_out)
    assert sigmoid_kinds(wide, d, h, n_out) == ("array", "array")
    rng = np.random.default_rng(d * 100 + h * 10 + n_out)
    data = oracle_dataset(rng, d, n_out, ties)
    params = MlpParams(hidden=h, lr=0.5, momentum=0.6, epochs=4)
    want = model_bytes(train_mlp(data, params, seed=5))
    for k in (2, wide):
        stacked = train_mlp_stack([data] * k, params, [5] * k)
        assert all(model_bytes(model) == want for model in stacked)


# alone, both layers take the Python-float sigmoid; in a stack of k, neither
@pytest.mark.parametrize("d,h,n_out,k", [
    (2, 2, 2, 9),
    (3, 8, 12, 3),  # the crossval shape
])  # fmt: skip
def test_mlp_scalar_sigmoid_layers_diverge_like_array_sigmoids(d, h, n_out, k):
    rng = np.random.default_rng(d * 1000 + h * 100 + n_out)
    data = oracle_dataset(rng, d, n_out, False)
    params = MlpParams(hidden=h, lr=1e308, momentum=1e308, epochs=50)
    assert sigmoid_kinds(1, d, h, n_out) == ("scalar", "scalar")
    assert sigmoid_kinds(k, d, h, n_out) == ("array", "array")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no warning, OverflowError or ValueError
        stacked = train_mlp_stack([data] * k, params, [0] * k)
        with pytest.raises(NonFiniteLossError) as alone:
            train_mlp(data, params, seed=0)
    assert str(alone.value) == str(stacked[0]) == "training diverged (epoch loss nan)"


def test_mlp_stack_reports_each_networks_error():
    good = xor_dataset()
    one_class = LabeledDataset(
        features=good.features, labels=np.zeros(4, dtype=int),
        num_classes=2, feature_names=good.feature_names,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fits = train_mlp_stack(
            [good, one_class, good],
            MlpParams(hidden=2, lr=1e308, momentum=1e308, epochs=50),
            [1, 2, 3],
        )
    assert isinstance(fits[0], NonFiniteLossError)
    assert isinstance(fits[1], EmptyClassError)
    assert isinstance(fits[2], NonFiniteLossError)
    calm = train_mlp_stack([one_class, good], MlpParams(hidden=2, epochs=5), [2, 3])
    assert isinstance(calm[0], EmptyClassError)
    assert model_bytes(calm[1]) == model_bytes(
        train_mlp(good, MlpParams(hidden=2, epochs=5), seed=3)
    )


@pytest.mark.parametrize("datasets,hidden,seeds,message", [
    ([xor_dataset()], 2, [1, 2], "one seed per dataset"),
    ([xor_dataset(), dataset_1d([0.0, 1.0], [0, 1])], 2, [1, 2],
     "differ in feature or class count"),
    ([xor_dataset(), xor_dataset().subset(np.arange(2))], 2, [1, 2],
     "differ by more than one"),
    ([xor_dataset()], 0, [1], "at least one hidden unit"),
], ids=["seeds", "shapes", "sizes", "hidden"])
def test_mlp_stack_rejects_what_it_cannot_stack(datasets, hidden, seeds, message):
    with pytest.raises(ValueError, match=message):
        train_mlp_stack(datasets, MlpParams(hidden=hidden, epochs=1), seeds)


def assert_scalar_sigmoid_matches(z, out):
    """The Python-float sigmoid gives the array kernel's bits (NaN for NaN)."""
    scalar = np.array([_sigmoid(v) for v in z.ravel().tolist()])
    nan = np.isnan(out.ravel())
    assert np.isnan(scalar).tolist() == nan.tolist()
    assert scalar[~nan].tobytes() == out.ravel()[~nan].tobytes()


def test_sigmoid_passes_nan_and_inf():
    # after the first eight: the clamp ends, -0.0 and the clamp ends' neighbours
    z = np.array([[np.nan, np.inf, -np.inf, 0.0, 800.0, -800.0, 2.0, -2.0,
                   -709.0, 746.0, -0.0, np.nextafter(-709.0, 0.0),
                   np.nextafter(-709.0, -np.inf), np.nextafter(746.0, 0.0),
                   np.nextafter(746.0, np.inf)]])  # fmt: skip
    out = np.empty_like(z)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        _Sigmoid(z.shape)(z, out)
    assert np.isnan(out[0, 0])
    assert out[0, 1] == 1.0 and out[0, 4] == 1.0 and out[0, 3] == 0.5
    assert 0.0 <= out[0, 2] < 1e-300 and 0.0 <= out[0, 5] < 1e-300
    assert out[0, 6] == pytest.approx(1 / (1 + math.exp(-2.0)), rel=1e-15)
    assert out[0, 7] == pytest.approx(1 / (1 + math.exp(2.0)), rel=1e-15)
    assert_scalar_sigmoid_matches(z, out)


def test_sigmoid_accuracy():
    g = SplitMix64(77)
    z = np.array([[g.uniform_in(-40.0, 40.0) for _ in range(4000)]])
    out = np.empty_like(z)
    _Sigmoid(z.shape)(z, out)
    want = np.array([1 / (1 + math.exp(-v)) for v in z[0]])
    assert np.max(np.abs(out[0] - want) / want) < 4e-15
    assert_scalar_sigmoid_matches(z, out)


# The kernel's arithmetic in Python floats: every operation in the kernel's
# order, each sum a plain left-to-right loop with the bias last.

def oracle_sigmoid(z):
    c = min(max(z, -709.0), 746.0)
    m = round(c * -1.44269504088896338700e00)  # round half to even, as rint
    r = m * -6.93147180369123816490e-01 - c
    r = r - m * 1.90821492927058770002e-10
    t = r * r
    even = ((t * (1 / 1008) + 1 / 9) * t) + 1.0
    odd = (((t * (1 / 30240) + 1 / 72) * t) + 1 / 2) * r
    return (even - odd) / (math.ldexp(even + odd, m) + (even - odd))


def oracle_dot(weights, inputs, bias):
    total = weights[0] * inputs[0]
    for w, v in zip(weights[1:], inputs[1:]):
        total = total + w * v
    return total + bias * 1.0


def oracle_backward(w1, b1, w2, b2, x, target):
    """hidden, output, err and (g_w1, g_b1, g_w2, g_b2) as nested lists."""
    hidden = [oracle_sigmoid(oracle_dot(row, x, b)) for row, b in zip(w1, b1)]
    output = [oracle_sigmoid(oracle_dot(row, hidden, b)) for row, b in zip(w2, b2)]
    err = [o - t for o, t in zip(output, target)]
    delta_out = [e * ((1.0 - o) * o) for e, o in zip(err, output)]
    g_w2 = [[a * dlt for a in hidden] for dlt in delta_out]
    g_b2 = [1.0 * dlt for dlt in delta_out]
    back = []
    for j in range(len(hidden)):
        total = w2[0][j] * delta_out[0]
        for o in range(1, len(w2)):
            total = total + w2[o][j] * delta_out[o]
        back.append(total)
    delta_hidden = [b * ((1.0 - a) * a) for b, a in zip(back, hidden)]
    g_w1 = [[v * dlt for v in x] for dlt in delta_hidden]
    g_b1 = [1.0 * dlt for dlt in delta_hidden]
    return hidden, output, err, (g_w1, g_b1, g_w2, g_b2)


def bits(values):
    return np.array(values, dtype=np.float64).tobytes()


# k = 1 with h = 1, d + 1 >= 8 and K >= 8: a reduce of 8 or more terms with
# one element left beside them would sum pairwise, not left to right
@pytest.mark.parametrize(
    "k,d,h,n_out",
    [(1, 1, 1, 2), (1, 9, 1, 12), (2, 7, 1, 8), (1, 3, 8, 12), (3, 10, 11, 12),
     (10, 3, 8, 12), (10, 8, 3, 9), (4, 2, 5, 3)],
)  # fmt: skip
def test_mlp_kernel_matches_python_oracle(k, d, h, n_out):
    rng = np.random.default_rng(k * 1000 + d * 100 + h * 10 + n_out)
    stack = _TrainingStack(k, d, h, n_out)
    nets = []
    for f in range(k):
        # the last network's weights are large enough to clamp the sigmoid
        scale = 300.0 if f == k - 1 and k > 1 else 1.5
        w1, b1 = rng.normal(size=(h, d)) * scale, rng.normal(size=h) * scale
        w2, b2 = rng.normal(size=(n_out, h)) * scale, rng.normal(size=n_out) * scale
        stack.set_params(f, w1, b1, w2, b2)
        nets.append((w1, b1, w2, b2))
    x = rng.uniform(-0.5, 1.5, size=(k, d))
    labels = rng.integers(0, n_out, size=k)
    target = np.zeros(stack.output.shape)
    target[labels, np.arange(k)] = 1.0
    stack.vel[...] = rng.normal(size=stack.vel.shape) * 0.1
    theta0, vel0 = stack.theta.copy(), stack.vel.copy()
    err = np.empty_like(target)
    with np.errstate(over="ignore"):
        stack.backward(stack.inputs(x), target, err)
    grad = stack.grad.copy()
    for f, (w1, b1, w2, b2) in enumerate(nets):
        hidden, output, want_err, grads = oracle_backward(
            w1.tolist(), b1.tolist(), w2.tolist(), b2.tolist(),
            x[f].tolist(), target[:, f].tolist(),
        )  # fmt: skip
        assert bits(stack.hidden[:, f]) == bits(hidden)
        assert bits(stack.output[:, f]) == bits(output)
        assert bits(err[:, f]) == bits(want_err)
        for got, want in zip(stack_gradients(stack, f), grads):
            assert bits(got) == bits(want)
    lr, momentum = 0.3, 0.2
    stack.step(np.array(lr), np.array(momentum))
    for f in range(k):
        vel = [v * momentum - g * lr for v, g in zip(vel0[:, f], grad[:, f])]
        assert bits(stack.vel[:, f]) == bits(vel)
        assert bits(stack.theta[:, f]) == bits([t + v for t, v in zip(theta0[:, f], vel)])


def lane_params(theta, d, h):
    """w1, b1, w2, b2 as nested lists from one network's (P,) parameters."""
    layer1 = np.reshape(theta[: (d + 1) * h], (d + 1, h))
    layer2 = np.reshape(theta[(d + 1) * h :], (h + 1, -1))
    return (layer1[:-1].T.tolist(), layer1[-1].tolist(),
            layer2[:-1].T.tolist(), layer2[-1].tolist())


def lane_vector(g_w1, g_b1, g_w2, g_b2):
    """The (P,) parameter layout of one network's w1, b1, w2, b2 lists."""
    parts = (np.transpose(g_w1), [g_b1], np.transpose(g_w2), [g_b2])
    return np.concatenate(parts, axis=None).tolist()


# Consecutive steps on one stack: its forward, backward and step bind their
# buffers and views once, so each step must still read the values the last
# one left. The oracle carries every network's parameters and momenta in
# Python floats.
@pytest.mark.parametrize("k,d,h,n_out,kinds", [
    (10, 3, 8, 12, ("array", "array")),
    (2, 7, 1, 8, ("scalar", "scalar")),
    (1, 7, 1, 8, ("scalar", "scalar")),  # a spare second lane
])  # fmt: skip
def test_mlp_kernel_matches_python_oracle_over_steps(k, d, h, n_out, kinds):
    assert sigmoid_kinds(k, d, h, n_out) == kinds
    rng = np.random.default_rng(k * 1000 + d * 100 + h * 10 + n_out)
    stack = _TrainingStack(k, d, h, n_out)
    for f in range(k):
        # the last network's weights are large enough to clamp the sigmoid
        scale = 300.0 if f == k - 1 and k > 1 else 1.5
        w1, b1 = rng.normal(size=(h, d)) * scale, rng.normal(size=h) * scale
        w2, b2 = rng.normal(size=(n_out, h)) * scale, rng.normal(size=n_out) * scale
        stack.set_params(f, w1, b1, w2, b2)
    stack.vel[...] = rng.normal(size=stack.vel.shape) * 0.1
    thetas = [stack.theta[:, f].tolist() for f in range(k)]
    vels = [stack.vel[:, f].tolist() for f in range(k)]
    lr, momentum = 0.3, 0.2
    err = np.empty(stack.output.shape)
    for _ in range(3):
        x = rng.uniform(-0.5, 1.5, size=(k, d))
        target = np.zeros(stack.output.shape)
        target[rng.integers(0, n_out, size=k), np.arange(k)] = 1.0
        with np.errstate(over="ignore"):
            stack.backward(stack.inputs(x), target, err)
        grads = []
        for f in range(k):
            hidden, output, want_err, lane_grads = oracle_backward(
                *lane_params(thetas[f], d, h), x[f].tolist(), target[:, f].tolist()
            )
            assert bits(stack.hidden[:, f]) == bits(hidden)
            assert bits(stack.output[:, f]) == bits(output)
            assert bits(err[:, f]) == bits(want_err)
            grads.append(lane_vector(*lane_grads))
            assert bits(stack.grad[:, f]) == bits(grads[f])
        stack.step(np.array(lr), np.array(momentum))
        for f, grad in enumerate(grads):
            vels[f] = [v * momentum - g * lr for v, g in zip(vels[f], grad)]
            thetas[f] = [t + v for t, v in zip(thetas[f], vels[f])]
            assert bits(stack.vel[:, f]) == bits(vels[f])
            assert bits(stack.theta[:, f]) == bits(thetas[f])


def test_mlp_predict_on_no_rows_and_one_row_with_one_hidden_unit():
    # one row, one hidden unit, ten inputs: a reduce with one element left
    # beside the inputs would sum them pairwise
    rng = np.random.default_rng(8)
    data = oracle_dataset(rng, 9, 12, ties=False)
    trained = train_model("mlp", data, {"hidden": 1, "epochs": 2}, seed=4)
    labels, posteriors = predict(trained, data.features[:0])
    assert labels.shape == (0,) and posteriors.shape == (0, 12)
    model = trained.model
    for row in data.features:
        _, output, _, _ = oracle_backward(
            model.w1.tolist(), model.b1.tolist(), model.w2.tolist(),
            model.b2.tolist(), scale_features(model, row).tolist(), [0.0] * 12,
        )  # fmt: skip
        total = output[0]
        for v in output[1:]:
            total = total + v
        assert bits(mlp_posterior(model, row[None])) == bits([v / total for v in output])
        assert predict(trained, row[None])[0].tolist() == [int(np.argmax(output))]


# --- uniform contract --------------------------------------------------------

def test_predict_posteriors_are_distributions():
    data = blob_dataset(seed=6, n_per=8)
    g = SplitMix64(44)
    x = np.array([[g.uniform_in(-2, 6), g.uniform_in(-2, 8)] for _ in range(10)])
    for kind, params in (("nb", None), ("tree", None), ("mlp", {"epochs": 20})):
        trained = train_model(kind, data, params, seed=1)
        labels, posteriors = predict(trained, x)
        assert labels.shape == (10,) and labels.dtype == np.int64
        assert posteriors.shape == (10, 3)
        assert posteriors.min() >= 0.0
        assert np.abs(posteriors.sum(axis=1) - 1.0).max() < 1e-9
        assert np.array_equal(labels, np.argmax(posteriors, axis=1))


def test_predict_dimension_mismatch():
    trained = train_model("tree", blob_dataset(seed=1, n_per=4))
    for bad in ([[1.0, 2.0, 3.0]], [1.0, 2.0], [[[1.0, 2.0]]]):
        with pytest.raises(DimensionMismatchError):
            predict(trained, np.array(bad))


def test_train_model_rejects_unknown_kind():
    with pytest.raises(ValueError):
        train_model("svm", blob_dataset(seed=1, n_per=4))


def test_trained_model_label_names():
    data = dataset_1d([0.0, 1.0], [0, 1])
    anon = train_model("nb", data)
    named = train_model("nb", data, class_names=("low", "high"))
    assert anon.label_name(1) == "1"
    assert named.label_name(0) == "low"
    with pytest.raises(ValueError, match="^class_names must match num_classes$"):
        train_model("nb", data, class_names=("only",))


# --- batch prediction against the per-row oracle -----------------------------

def reference_gnb_posterior(model, x):
    log_density = -0.5 * (
        np.log(2.0 * np.pi * model.variances)
        + (x - model.means) ** 2 / model.variances
    ).sum(axis=1)
    log_joint = np.log(model.priors) + log_density
    shifted = np.exp(log_joint - log_joint.max())
    return shifted / shifted.sum()


def reference_tree_posterior(model, x):
    node = model.root
    while isinstance(node, TreeSplit):
        node = node.left if x[node.feature_index] <= node.threshold else node.right
    return node.distribution.copy()


def reference_mlp_posterior(model, x):
    h, d = model.w1.shape
    stack = _Stack(1, d, h, model.num_classes)
    stack.set_params(0, model.w1, model.b1, model.w2, model.b2)
    stack.forward(stack.inputs(scale_features(model, x)[None]))
    output = stack.output[:, 0]
    total = float(np.add.accumulate(output)[-1])
    if total <= 0.0 or not math.isfinite(total):
        return np.full(model.num_classes, 1.0 / model.num_classes)
    return output / total


REFERENCE_POSTERIOR = {
    "nb": reference_gnb_posterior,
    "tree": reference_tree_posterior,
    "mlp": reference_mlp_posterior,
}


def reference_predict(trained, x):
    """One row at a time: the kind's posterior, renormalized, then argmax."""
    labels, posteriors = [], np.empty((x.shape[0], trained.num_classes))
    for i, row in enumerate(x):
        posterior = REFERENCE_POSTERIOR[trained.kind](trained.model, row)
        posteriors[i] = posterior / posterior.sum()
        labels.append(int(np.argmax(posteriors[i])))
    return labels, posteriors


def assert_matches_reference(trained, x):
    labels, posteriors = predict(trained, x)
    want_labels, want_posteriors = reference_predict(trained, x)
    assert labels.tolist() == want_labels
    assert posteriors.shape == want_posteriors.shape
    assert posteriors.tobytes() == want_posteriors.tobytes()


def oracle_dataset(rng, d, k, ties):
    """k classes of 2-5 rows each around random centers; with ties, on a
    small integer lattice so that rows, class means and thresholds repeat."""
    labels = np.repeat(np.arange(k), rng.integers(2, 6, size=k))
    features = rng.normal(size=(k, d))[labels] * 3.0 + rng.normal(size=(len(labels), d))
    if ties:
        features = np.clip(np.round(features / 2.0), -2, 2)
    return LabeledDataset(
        features=features, labels=labels, num_classes=k,
        feature_names=tuple(f"f{j}" for j in range(d)),
    )


def oracle_queries(rng, data, n, ties):
    """n queries at a random scale in 1e-3..1e4, or, with ties, lattice
    points and their midpoints (where tree thresholds lie) plus training rows."""
    d = data.n_features
    if not ties:
        return rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3.0, 4.0)
    pool = np.vstack((rng.integers(-4, 5, size=(n, d)) / 2.0, data.features))
    return pool[rng.integers(0, pool.shape[0], size=n)]


@pytest.mark.parametrize("ties", [False, True])
def test_batch_predict_matches_per_row_oracle(ties):
    # every d in 1..11 with every K in 2..13 of one parity: K > 8 and d >= 8
    # take numpy's pairwise sums through their 8-accumulator loop
    rng = np.random.default_rng(2 + ties)
    for d in range(1, 12):
        for k in range(2 + (d + ties) % 2, 14, 2):
            data = oracle_dataset(rng, d, k, ties)
            queries = oracle_queries(rng, data, 40, ties)
            for kind, params in (
                ("nb", None), ("tree", {"min_leaf": 1}), ("mlp", {"epochs": 3}),
            ):
                trained = train_model(kind, data, params, seed=d * 100 + k)
                for n in (0, 1, int(rng.integers(2, 41))):
                    assert_matches_reference(trained, queries[:n])


def test_batch_mlp_falls_back_to_uniform_per_row():
    data = blob_dataset(seed=9, n_per=4)
    trained = train_model("mlp", data, {"epochs": 5})
    x = np.array([[1.0, 2.0], [np.nan, 0.0], [np.inf, -np.inf], [0.5, 6.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert_matches_reference(trained, x)
        posteriors = predict(trained, x)[1]
    assert posteriors[1].tolist() == [1 / 3] * 3
    assert posteriors[2].tolist() == [1 / 3] * 3


@pytest.mark.parametrize("hidden", [1, 3])
def test_mlp_posterior_blocks_match_per_row_oracle(hidden):
    # two full blocks and a last block of one row; with one hidden unit the
    # one-row block is the spare-lane case of a lone network
    rng = np.random.default_rng(11 + hidden)
    data = oracle_dataset(rng, 3, 12, ties=False)
    model = train_model("mlp", data, {"hidden": hidden, "epochs": 2}, seed=5).model
    x = oracle_queries(rng, data, 2 * _POSTERIOR_LANES + 1, ties=False)
    want = np.array([reference_mlp_posterior(model, row) for row in x])
    assert mlp_posterior(model, x).tobytes() == want.tobytes()
    assert mlp_posterior(model, x[-1:]).tobytes() == want[-1:].tobytes()


def test_mlp_posterior_memory_does_not_grow_with_rows():
    # one copy of the network per row would take about 6 KB a row (127 MB
    # here); in blocks the peak is the input, the output and one block
    rng = np.random.default_rng(12)
    data = oracle_dataset(rng, 3, 12, ties=False)
    trained = train_model("mlp", data, {"hidden": 8, "epochs": 1}, seed=6)
    x = rng.normal(size=(20_000, 3))
    tracemalloc.start()
    try:
        predict(trained, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
