import math
import warnings

import numpy as np
import pytest

from ectshape.classifiers import (
    MlpParams,
    TrainedModel,
    TreeLeaf,
    TreeParams,
    TreeSplit,
    gnb_posterior,
    gnb_posterior_direct,
    predict,
    train_gnb,
    train_mlp,
    train_model,
    train_tree,
    tree_posterior,
)
from ectshape.classifiers.decision_tree import tree_depth
from ectshape.classifiers.perceptron import (
    _Sigmoid,
    example_loss_and_gradients,
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
    posterior = gnb_posterior(model, np.array([0.0]))
    assert posterior[0] > 0.99


def test_gnb_symmetric_tie_breaks_low():
    data = dataset_1d([-1.0, -3.0, 1.0, 3.0], [0, 0, 1, 1])
    trained = train_model("nb", data)
    label, posterior = predict(trained, np.array([0.0]))
    assert label == 0
    assert posterior[0] == pytest.approx(0.5, abs=1e-12)
    assert posterior[1] == pytest.approx(0.5, abs=1e-12)


def test_gnb_log_and_direct_paths_agree():
    data = blob_dataset()
    model = train_gnb(data)
    g = SplitMix64(8)
    for _ in range(50):
        x = np.array([g.uniform_in(-1, 5), g.uniform_in(-1, 7)])
        a = gnb_posterior(model, x)
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
    for _ in range(30):
        x = np.array([g.uniform_in(-2, 6), g.uniform_in(-2, 8)])
        assert np.argmax(gnb_posterior(m0, x)) == np.argmax(
            gnb_posterior(m1, x[::-1].copy())
        )


def test_gnb_dimension_mismatch():
    model = train_gnb(blob_dataset())
    with pytest.raises(DimensionMismatchError):
        gnb_posterior(model, np.array([1.0, 2.0, 3.0]))


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
    assert list(tree_posterior(model, np.array([3.0]))) == [0.75, 0.25]


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
    preds = [
        int(np.argmax(tree_posterior(model, data.features[i])))
        for i in range(data.n_rows)
    ]
    assert preds == list(data.labels)


def test_tree_min_leaf_blocks_tiny_dataset():
    with pytest.raises(EmptyDatasetError):
        train_tree(dataset_1d([1.0], [0]), TreeParams(min_leaf=2))


def test_tree_deterministic():
    data = blob_dataset(seed=29)
    t0 = train_model("tree", data, {"min_leaf": 1})
    t1 = train_model("tree", data, {"min_leaf": 1})
    assert save_model(t0) == save_model(t1)


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
    model = train_mlp(data, MlpParams(hidden=4, epochs=5000, seed=1))
    preds = [
        int(np.argmax(
            predict(
                TrainedModel("mlp", model, data.feature_names, 2), data.features[i]
            )[1]
        ))
        for i in range(4)
    ]
    assert preds == [0, 1, 1, 0]


def test_mlp_memorizes_one_point_per_class():
    data = dataset_1d([0.0, 1.0], [0, 1])
    model = train_mlp(data, MlpParams(epochs=500, seed=0))
    trained = TrainedModel("mlp", model, data.feature_names, 2)
    assert predict(trained, np.array([0.0]))[0] == 0
    assert predict(trained, np.array([1.0]))[0] == 1


def test_mlp_bitwise_deterministic():
    data = blob_dataset(seed=2, n_per=6)
    m0 = train_mlp(data, MlpParams(epochs=20, seed=9))
    m1 = train_mlp(data, MlpParams(epochs=20, seed=9))
    for a, b in ((m0.w1, m1.w1), (m0.b1, m1.b1), (m0.w2, m1.w2), (m0.b2, m1.b2)):
        assert np.array_equal(a, b)
    m2 = train_mlp(data, MlpParams(epochs=20, seed=10))
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


def model_bytes(model):
    return [
        getattr(model, name).tobytes()
        for name in ("w1", "b1", "w2", "b2", "scaler_min", "scaler_max")
    ]


def test_mlp_lockstep_folds_match_training_alone():
    # 180 rows in 7 stratified folds: training sets of 154 and 155 rows, so
    # the shorter networks sit out the last step of every epoch
    data = blob_dataset(seed=12, n_per=60)
    assignment = stratified_k_fold(data, 7, seed=3)
    train_sets = [data.subset(assignment.train_indices(f)) for f in range(7)]
    assert sorted({s.n_rows for s in train_sets}) == [154, 155]
    seeds = [derive_seed(11, f + 1) for f in range(7)]
    stacked = train_mlp_stack(train_sets, MlpParams(epochs=3), seeds)
    for train_set, seed, model in zip(train_sets, seeds, stacked):
        alone = train_mlp(train_set, MlpParams(epochs=3, seed=seed))
        assert model_bytes(model) == model_bytes(alone)


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
        train_mlp(good, MlpParams(hidden=2, epochs=5, seed=3))
    )


def test_sigmoid_passes_nan_and_inf():
    z = np.array([[np.nan, np.inf, -np.inf, 0.0, 800.0, -800.0, 2.0, -2.0]])
    out = np.empty_like(z)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        _Sigmoid(z.shape)(z, out)
    assert np.isnan(out[0, 0])
    assert out[0, 1] == 1.0 and out[0, 4] == 1.0 and out[0, 3] == 0.5
    assert 0.0 <= out[0, 2] < 1e-300 and 0.0 <= out[0, 5] < 1e-300
    assert out[0, 6] == pytest.approx(1 / (1 + math.exp(-2.0)), rel=1e-15)
    assert out[0, 7] == pytest.approx(1 / (1 + math.exp(2.0)), rel=1e-15)


def test_sigmoid_accuracy():
    g = SplitMix64(77)
    z = np.array([[g.uniform_in(-40.0, 40.0) for _ in range(4000)]])
    out = np.empty_like(z)
    _Sigmoid(z.shape)(z, out)
    want = np.array([1 / (1 + math.exp(-v)) for v in z[0]])
    assert np.max(np.abs(out[0] - want) / want) < 4e-15


# --- uniform contract --------------------------------------------------------

def test_predict_posteriors_are_distributions():
    data = blob_dataset(seed=6, n_per=8)
    g = SplitMix64(44)
    for kind, params in (("nb", None), ("tree", None), ("mlp", {"epochs": 20})):
        trained = train_model(kind, data, params, seed=1)
        for _ in range(10):
            x = np.array([g.uniform_in(-2, 6), g.uniform_in(-2, 8)])
            label, posterior = predict(trained, x)
            assert posterior.shape == (3,)
            assert posterior.min() >= 0.0
            assert posterior.sum() == pytest.approx(1.0, abs=1e-9)
            assert label == int(np.argmax(posterior))


def test_predict_dimension_mismatch():
    trained = train_model("tree", blob_dataset(seed=1, n_per=4))
    with pytest.raises(DimensionMismatchError):
        predict(trained, np.array([1.0, 2.0, 3.0]))


def test_train_model_rejects_unknown_kind():
    with pytest.raises(ValueError):
        train_model("svm", blob_dataset(seed=1, n_per=4))


def test_trained_model_label_names():
    data = dataset_1d([0.0, 1.0], [0, 1])
    anon = train_model("nb", data)
    named = train_model("nb", data, class_names=("low", "high"))
    assert anon.label_name(1) == "1"
    assert named.label_name(0) == "low"
    with pytest.raises(ValueError):
        TrainedModel("nb", anon.model, ("f0",), 2, class_names=("only",))
