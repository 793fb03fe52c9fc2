import numpy as np
import pytest

from ectshape.classifiers import predict, train_model
from ectshape.classifiers.serialize import load_model, save_model
from ectshape.dataset import LabeledDataset
from ectshape.errors import ModelFormatError
from ectshape.rng import SplitMix64


def training_data(seed=13):
    g = SplitMix64(seed)
    rows, labels = [], []
    for c, (cx, cy, cz) in enumerate(
        ((0.0, 0.0, 1.0), (3.0, 1.0, 2.0), (1.0, 4.0, 0.0))
    ):
        for _ in range(8):
            rows.append([cx + 0.3 * g.normal(), cy + 0.3 * g.normal(), cz])
            labels.append(c)
    return LabeledDataset(
        features=np.array(rows),
        labels=np.array(labels),
        num_classes=3,
        feature_names=("L", "W", "alpha_deg"),
    )


def params_of(trained):
    m = trained.model
    if trained.kind == "nb":
        return (m.priors, m.means, m.variances)
    if trained.kind == "mlp":
        return (m.w1, m.b1, m.w2, m.b2, m.scaler_min, m.scaler_max)
    return ()


@pytest.mark.parametrize("kind,params", [
    ("nb", None),
    ("tree", {"min_leaf": 1}),
    ("mlp", {"epochs": 30}),
])
def test_round_trip_preserves_everything(kind, params):
    data = training_data()
    trained = train_model(kind, data, params, seed=5, class_names=("a", "b", "c"))
    text = save_model(trained)
    loaded = load_model(text)
    assert loaded.kind == kind
    assert loaded.feature_names == trained.feature_names
    assert loaded.num_classes == 3
    assert loaded.class_names == ("a", "b", "c")
    for orig, back in zip(params_of(trained), params_of(loaded)):
        assert np.array_equal(orig, back)  # bit-exact, not approx
    g = SplitMix64(77)
    x = np.array([[g.uniform_in(-1, 4) for _ in range(3)] for _ in range(20)])
    l0, p0 = predict(trained, x)
    l1, p1 = predict(loaded, x)
    assert np.array_equal(l0, l1)
    assert np.array_equal(p0, p1)


@pytest.mark.parametrize("kind,params", [
    ("nb", None),
    ("tree", None),
    ("mlp", {"epochs": 10}),
])
def test_resave_is_byte_stable(kind, params):
    trained = train_model(kind, training_data(), params)
    text = save_model(trained)
    assert save_model(load_model(text)) == text


def test_tree_structure_survives_round_trip():
    trained = train_model("tree", training_data(), {"min_leaf": 1})
    assert save_model(load_model(save_model(trained))) == save_model(trained)
    # same routing on every training row
    data = training_data()
    loaded = load_model(save_model(trained))
    l0, p0 = predict(trained, data.features)
    l1, p1 = predict(loaded, data.features)
    assert np.array_equal(l0, l1)
    assert np.array_equal(p0, p1)


def test_load_ignores_comments_and_blank_lines():
    trained = train_model("nb", training_data())
    text = save_model(trained)
    decorated = "# provenance header\n\n# another comment\n" + text.replace(
        "num_classes", "# inline note\nnum_classes", 1
    )
    loaded = load_model(decorated)
    assert np.array_equal(loaded.model.means, trained.model.means)


def test_class_names_optional():
    trained = train_model("nb", training_data())  # no class names
    loaded = load_model(save_model(trained))
    assert loaded.class_names is None
    assert loaded.label_name(2) == "2"


def test_magic_line_checked():
    trained = train_model("nb", training_data())
    text = save_model(trained)
    with pytest.raises(ModelFormatError):
        load_model(text.replace("ectshape-model v1", "ectshape-model v2", 1))
    with pytest.raises(ModelFormatError):
        load_model("some random file\n")
    with pytest.raises(ModelFormatError):
        load_model(text.replace("ectshape-model v1 nb", "ectshape-model v1 svm", 1))


def test_truncated_file_rejected():
    text = save_model(train_model("mlp", training_data(), {"epochs": 5}))
    lines = text.splitlines()
    with pytest.raises(ModelFormatError):
        load_model("\n".join(lines[: len(lines) // 2]) + "\n")
    with pytest.raises(ModelFormatError):
        load_model("\n".join(lines[:-1]) + "\n")  # missing 'end'


def test_metadata_required():
    text = save_model(train_model("nb", training_data()))
    without = "\n".join(
        line for line in text.splitlines() if not line.startswith("feature_names")
    )
    with pytest.raises(ModelFormatError):
        load_model(without + "\n")


def metadata_edit(lines):
    """An nb model file whose metadata lines (after the magic line) are
    edited by the function lines."""
    magic, *rest = save_model(train_model("nb", training_data())).splitlines()
    return "\n".join([magic, *lines(rest)]) + "\n"


def test_repeated_metadata_line_rejected():
    # a second num_classes line no longer overrides the first
    bad = metadata_edit(lambda rest: [rest[0], "num_classes 7", *rest[1:]])
    with pytest.raises(ModelFormatError) as exc:
        load_model(bad)
    assert exc.value.line_no == 4


def test_metadata_out_of_order_rejected():
    bad = metadata_edit(lambda rest: [rest[1], rest[0], *rest[2:]])
    with pytest.raises(ModelFormatError, match="^line 2: expected 'feature_names' line$"):
        load_model(bad)


def test_wrong_block_rejected():
    text = save_model(train_model("nb", training_data()))
    with pytest.raises(ModelFormatError):
        load_model(text.replace("priors", "weights", 1))


def test_vector_length_mismatch_rejected():
    text = save_model(train_model("nb", training_data()))
    with pytest.raises(ModelFormatError):
        load_model(text.replace("priors 3", "priors 4", 1))


def test_unknown_tree_node_rejected():
    text = save_model(train_model("tree", training_data()))
    with pytest.raises(ModelFormatError):
        load_model(text.replace("split", "branch", 1))


def replace_line(text, prefix, new_line):
    """Put new_line in place of the first line that starts with prefix, or,
    for a prefix "<block>/<r>", in place of row r of that block."""
    prefix, _, row = prefix.partition("/")
    lines = text.splitlines()
    index = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    index += int(row or 0)
    lines[index] = new_line
    return "\n".join(lines) + "\n", index + 1


@pytest.mark.parametrize("kind,prefix,new_line", [
    ("nb", "num_classes", "num_classes three"),
    ("nb", "num_classes", "num_classes 1"),
    ("nb", "class_names", "class_names a,b"),
    ("nb", "priors 3", "priors x"),
    ("nb", "means", "means 3 -2"),
    ("nb", "feature_names", "feature_names L,W"),
    ("tree", "n_features", "n_features x"),
    ("tree", "split", "split 7 0.5"),
    ("tree", "split", "split 0 half"),
    ("tree", "leaf", "leaf 0.5 0.5 0.5"),
    ("mlp", "b1", "b1 2"),
    ("mlp", "w2", "w2 3 x"),
    ("nb", "variances/1", "0 1 1"),
    ("nb", "priors/1", "0.5 0.5 1e-9"),
    ("mlp", "w1/1", "nan 0 0"),
    ("tree", "n_features", "n_features 4"),
    ("nb", "priors/1", "nan 0.5 0.5"),
    ("nb", "priors/1", "inf -inf 1"),
    ("nb", "means/2", "0 nan 1"),
    ("mlp", "scaler_min/1", "nan 0 0"),
    ("mlp", "w1/1", "inf 0 0"),
    ("mlp", "scaler_min/1", "-inf 0 0"),
    ("mlp", "scaler_max/1", "inf 0 0"),
    ("nb", "means/1", "inf 0 1"),
    ("tree", "split", "split 0 nan"),
    ("tree", "leaf", "leaf nan 0.5 0.5"),
    ("nb", "feature_names", "feature_names"),
    ("tree", "split", "split 0"),
    ("tree", "leaf", "leaf 0.5 0.5"),
])
def test_malformed_model_raises_model_format_error_with_line(kind, prefix, new_line):
    params = {"epochs": 2} if kind == "mlp" else None
    trained = train_model(kind, training_data(), params, class_names=("a", "b", "c"))
    text = save_model(trained)
    bad, line_no = replace_line(text, prefix, new_line)
    with pytest.raises(ModelFormatError) as exc:
        load_model(bad)
    assert exc.value.line_no is not None
    assert exc.value.line_no >= line_no
    assert str(exc.value).startswith(f"line {exc.value.line_no}: ")


TREE_HEADER = [
    "ectshape-model v1 tree", "feature_names L", "num_classes 2", "n_features 1",
]


def test_deep_tree_chain_rejected_without_recursion():
    chain = ["split 0 0.5"] * 5000 + ["leaf 0.5 0.5"] * 5001
    with pytest.raises(ModelFormatError, match="deeper than"):
        load_model("\n".join(TREE_HEADER + chain + ["end"]) + "\n")


def test_deep_tree_chain_within_cap_loads():
    depth = 900
    # each split's left child is a leaf, its right child the next split
    body = []
    for i in range(depth):
        body += [f"split 0 {i}.5", "leaf 0.75 0.25"]
    text = "\n".join(TREE_HEADER + body + ["leaf 0.25 0.75", "end"]) + "\n"
    trained = load_model(text)
    assert save_model(trained) == text
    assert predict(trained, np.array([[0.0], [float(depth)]]))[0].tolist() == [0, 1]
