"""Versioned line-oriented text format for trained models.

Layout: a magic line "ectshape-model v1 <kind>", the metadata lines
feature_names, num_classes and an optional class_names in that order, then
kind-specific parameter blocks, then "end". Blank lines and '#' comments
are ignored anywhere, so tools may prepend provenance headers. Floats
carry 17 significant digits; save -> load -> save is byte-stable and
load(save(model)) reproduces every parameter bit-for-bit.

Training builds valid models, so this reader is the one place that checks
one: any parse or validation failure raises ModelFormatError with the
offending line number.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ModelFormatError
from ..textio import format_float, iter_data_lines
from . import CLASSIFIER_KINDS, TrainedModel
from .decision_tree import MAX_DEPTH, TreeLeaf, TreeModel, TreeNode, TreeSplit
from .naive_bayes import GnbModel
from .perceptron import MlpModel

MAGIC = "ectshape-model"
FORMAT_VERSION = "v1"

# The parameter blocks of the nb and mlp kinds, in file order, each with its
# named dimensions: K classes (num_classes), d features (feature_names) and
# h hidden units (set by w1). One dimension is a vector, two a matrix.
_BLOCKS = {
    "nb": (("priors", "K"), ("means", "Kd"), ("variances", "Kd")),
    "mlp": (
        ("scaler_min", "d"),
        ("scaler_max", "d"),
        ("w1", "hd"),
        ("b1", "h"),
        ("w2", "Kh"),
        ("b2", "K"),
    ),
}
_MODELS = {"nb": GnbModel, "mlp": MlpModel}


def save_model(trained: TrainedModel) -> str:
    lines = [f"{MAGIC} {FORMAT_VERSION} {trained.kind}"]
    lines.append("feature_names " + ",".join(trained.feature_names))
    lines.append(f"num_classes {trained.num_classes}")
    if trained.class_names is not None:
        lines.append("class_names " + ",".join(trained.class_names))
    if trained.kind == "tree":
        _write_tree(lines, trained.model)
    else:
        # a block's header gives its name and shape; one line per row follows
        for name, _ in _BLOCKS[trained.kind]:
            values = getattr(trained.model, name)
            lines.append(" ".join((name, *map(str, values.shape))))
            lines += map(_fmt_vec, np.atleast_2d(values))
    lines.append("end")
    return "\n".join(lines) + "\n"


def load_model(text: str) -> TrainedModel:
    reader = _LineReader(text)
    magic = reader.next_fields()
    if len(magic) != 3 or magic[0] != MAGIC or magic[1] != FORMAT_VERSION:
        raise reader.error(f"bad model header: {' '.join(magic)!r}")
    kind = magic[2]
    if kind not in CLASSIFIER_KINDS:
        raise reader.error(f"unknown model kind {kind!r}")

    # the metadata lines in the order save_model writes them
    feature_names = tuple(reader.next_rest("feature_names").split(","))
    num_classes = reader.to_int(reader.next_rest("num_classes"), "num_classes")
    if num_classes < 2:
        raise reader.error(f"num_classes must be at least 2, got {num_classes}")
    class_names = None
    if reader.peek_fields()[0] == "class_names":
        class_names = tuple(reader.next_rest("class_names").split(","))
        if len(class_names) != num_classes:
            raise reader.error(
                f"class_names lists {len(class_names)} names, num_classes is {num_classes}"
            )

    if kind == "tree":
        model = _read_tree(reader, len(feature_names), num_classes)
    else:
        model = _read_blocks(reader, kind, {"K": num_classes, "d": len(feature_names)})
    if reader.next_fields() != ["end"]:
        raise reader.error("model file missing trailing 'end'")
    return TrainedModel(
        kind=kind,
        model=model,
        feature_names=feature_names,
        num_classes=num_classes,
        class_names=class_names,
    )


class _LineReader:
    def __init__(self, text: str) -> None:
        self._lines = list(iter_data_lines(text))
        self._pos = 0

    def error(self, message: str) -> ModelFormatError:
        """ModelFormatError at the line read last."""
        line_no = self._lines[self._pos - 1][0] if self._pos else None
        return ModelFormatError(message, line_no)

    def next_line(self) -> str:
        if self._pos >= len(self._lines):
            raise self.error("unexpected end of model file")
        line = self._lines[self._pos][1]
        self._pos += 1
        return line

    def next_fields(self) -> list[str]:
        return self.next_line().split()

    def peek_fields(self) -> list[str]:
        if self._pos >= len(self._lines):
            raise self.error("unexpected end of model file")
        return self._lines[self._pos][1].split()

    def next_rest(self, key: str) -> str:
        line = self.next_line()
        if not line.startswith(key + " "):
            raise self.error(f"expected {key!r} line")
        return line[len(key) + 1 :]

    def to_int(self, text: str, what: str) -> int:
        try:
            return int(text)
        except ValueError:
            raise self.error(f"{what}: expected an integer, got {text!r}") from None

    def to_float(self, text: str, what: str) -> float:
        """The number in text; NaN is not one."""
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if math.isnan(value):
            raise self.error(f"{what}: expected a number, got {text!r}")
        return value

    def to_floats(self, texts: list[str], what: str) -> np.ndarray:
        return np.array([self.to_float(v, what) for v in texts], dtype=np.float64)

    def read_block(self, name: str, dims: str, sizes: dict[str, int]) -> np.ndarray:
        """A vector or matrix block of the named dimensions: a header line
        with its name and shape, then one line per row. A dimension that
        sizes lacks is bound to the header's size; a bound one must match."""
        vector = len(dims) == 1
        form = "vector" if vector else "matrix"
        what = f"{form} {name!r}"
        fields = self.next_fields()
        if len(fields) != 1 + len(dims) or fields[0] != name:
            raise self.error(f"expected {form} block {name!r}")
        shape = [self.to_int(v, f"{what} size") for v in fields[1:]]
        if min(shape) < 1:
            raise self.error(f"{what}: needs positive dimensions")
        for dim, size in zip(dims, shape):
            if sizes.setdefault(dim, size) != size:
                raise self.error(f"{what}: {dim} is {size}, expected {sizes[dim]}")
        # row by row, so that the text and not the header bounds the memory
        rows = []
        for _ in range(1 if vector else shape[0]):
            values = self.next_fields()
            if len(values) != shape[-1]:
                raise self.error(
                    f"{what}: expected {shape[-1]} {'values' if vector else 'columns'}"
                )
            rows.append(self.to_floats(values, what))
        return np.array(rows).reshape(shape)


def _fmt_vec(vec: np.ndarray) -> str:
    return " ".join(format_float(float(v)) for v in vec)


def _sum_off_one(values: np.ndarray) -> bool:
    """Whether the values miss a sum of 1 by more than 1e-12; a NaN sum,
    of inf and -inf, misses it."""
    with np.errstate(invalid="ignore"):
        return not abs(float(values.sum()) - 1.0) <= 1e-12


def _read_blocks(
    reader: _LineReader, kind: str, sizes: dict[str, int]
) -> GnbModel | MlpModel:
    """The kind's model from its _BLOCKS, each held to its dimensions and to
    the rule on its values."""
    blocks = {}
    for name, dims in _BLOCKS[kind]:
        values = blocks[name] = reader.read_block(name, dims, sizes)
        if name == "priors" and _sum_off_one(values):
            raise reader.error("priors must sum to 1")
        if name == "variances" and not (values > 0).all():
            raise reader.error("variances must be strictly positive")
        if not np.isfinite(values).all():
            raise reader.error(f"{name}: parameters must be finite")
    return _MODELS[kind](**blocks)


def _write_tree(lines: list[str], model: TreeModel) -> None:
    lines.append(f"n_features {model.n_features}")
    # pre-order: a split, then its left subtree, then its right subtree
    todo: list[TreeNode] = [model.root]
    while todo:
        node = todo.pop()
        if isinstance(node, TreeLeaf):
            lines.append("leaf " + _fmt_vec(node.distribution))
        else:
            lines.append(f"split {node.feature_index} {format_float(node.threshold)}")
            todo += (node.right, node.left)


def _read_tree(reader: _LineReader, n_features: int, num_classes: int) -> TreeModel:
    fields = reader.next_fields()
    if len(fields) != 2 or fields[0] != "n_features":
        raise reader.error("tree model missing n_features")
    if reader.to_int(fields[1], "n_features") != n_features:
        raise reader.error(f"n_features is {fields[1]}, feature_names lists {n_features}")
    # Nodes come in pre-order: a split line, its left subtree, its right
    # subtree. Each pending entry is a split still waiting for a child:
    # [feature, threshold, left subtree or None].
    pending: list[list] = []
    while True:
        fields = reader.next_fields()
        if fields[0] == "split":
            if len(fields) != 3:
                raise reader.error("split line needs feature and threshold")
            feature = reader.to_int(fields[1], "split feature")
            if not 0 <= feature < n_features:
                raise reader.error(f"split feature {feature} outside 0..{n_features - 1}")
            # one pending split per level: MAX_DEPTH nested splits at most
            if len(pending) == MAX_DEPTH:
                raise reader.error(f"tree deeper than {MAX_DEPTH} levels")
            pending.append([feature, reader.to_float(fields[2], "split threshold"), None])
            continue
        if fields[0] != "leaf":
            raise reader.error(f"unknown tree node kind {fields[0]!r}")
        dist = reader.to_floats(fields[1:], "leaf")
        if dist.shape[0] != num_classes:
            raise reader.error("leaf distribution length mismatch")
        if _sum_off_one(dist):
            raise reader.error("leaf distribution must sum to 1")
        node: TreeNode = TreeLeaf(distribution=dist)
        # a finished subtree is the left child of the innermost split that
        # has none yet, or else completes that split
        while pending and pending[-1][2] is not None:
            feature, threshold, left = pending.pop()
            node = TreeSplit(
                feature_index=feature, threshold=threshold, left=left, right=node
            )
        if not pending:
            return TreeModel(root=node, num_classes=num_classes, n_features=n_features)
        pending[-1][2] = node
