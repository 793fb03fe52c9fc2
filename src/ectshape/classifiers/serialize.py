"""Versioned line-oriented text format for trained models.

Layout: a magic line "ectshape-model v1 <kind>", metadata lines, then
kind-specific parameter blocks, then "end". Blank lines and '#' comments
are ignored anywhere, so tools may prepend provenance headers. Floats
carry 17 significant digits; save -> load -> save is byte-stable and
load(save(model)) reproduces every parameter bit-for-bit. Any parse or
validation failure raises ModelFormatError with the offending line number.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import numpy as np

from ..errors import ModelFormatError
from ..textio import format_float, iter_data_lines
from . import CLASSIFIER_KINDS, TrainedModel
from .decision_tree import MAX_DEPTH, TreeLeaf, TreeModel, TreeNode, TreeSplit
from .naive_bayes import GnbModel
from .perceptron import MlpModel

MAGIC = "ectshape-model"
FORMAT_VERSION = "v1"


def save_model(trained: TrainedModel) -> str:
    lines = [f"{MAGIC} {FORMAT_VERSION} {trained.kind}"]
    lines.append("feature_names " + ",".join(trained.feature_names))
    lines.append(f"num_classes {trained.num_classes}")
    if trained.class_names is not None:
        lines.append("class_names " + ",".join(trained.class_names))
    if trained.kind == "nb":
        _write_gnb(lines, trained.model)
    elif trained.kind == "tree":
        _write_tree(lines, trained.model)
    else:
        _write_mlp(lines, trained.model)
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

    feature_names: tuple[str, ...] | None = None
    num_classes: int | None = None
    class_names: tuple[str, ...] | None = None
    while True:
        fields = reader.peek_fields()
        if fields[0] == "feature_names":
            feature_names = tuple(reader.next_rest("feature_names").split(","))
        elif fields[0] == "num_classes":
            fields = reader.next_fields()
            if len(fields) != 2:
                raise reader.error("num_classes line needs one value")
            num_classes = reader.to_int(fields[1], "num_classes")
            if num_classes < 2:
                raise reader.error(f"num_classes must be at least 2, got {num_classes}")
        elif fields[0] == "class_names":
            class_names = tuple(reader.next_rest("class_names").split(","))
        else:
            break
    if feature_names is None or num_classes is None:
        raise reader.error("model file missing feature_names or num_classes")

    if kind == "nb":
        model = _read_gnb(reader)
    elif kind == "tree":
        model = _read_tree(reader, num_classes)
    else:
        model = _read_mlp(reader)
    if model.n_features != len(feature_names):
        raise reader.error(
            f"model has {model.n_features} features,"
            f" feature_names lists {len(feature_names)}"
        )
    if model.num_classes != num_classes:
        raise reader.error(
            f"model has {model.num_classes} classes, num_classes is {num_classes}"
        )
    if reader.next_fields() != ["end"]:
        raise reader.error("model file missing trailing 'end'")
    with reader.validating():
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

    @contextmanager
    def validating(self) -> Iterator[None]:
        """Turn a model constructor's ValueError into ModelFormatError."""
        try:
            yield
        except ValueError as exc:
            raise self.error(str(exc)) from None

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
        try:
            return float(text)
        except ValueError:
            raise self.error(f"{what}: expected a number, got {text!r}") from None

    def to_floats(self, texts: list[str], what: str) -> np.ndarray:
        return np.array([self.to_float(v, what) for v in texts], dtype=np.float64)

    def read_vector(self, name: str) -> np.ndarray:
        fields = self.next_fields()
        if len(fields) != 2 or fields[0] != name:
            raise self.error(f"expected vector block {name!r}")
        n = self.to_int(fields[1], f"vector {name!r} length")
        values = self.next_fields()
        if len(values) != n:
            raise self.error(f"vector {name!r}: expected {n} values")
        return self.to_floats(values, f"vector {name!r}")

    def read_matrix(self, name: str) -> np.ndarray:
        fields = self.next_fields()
        if len(fields) != 3 or fields[0] != name:
            raise self.error(f"expected matrix block {name!r}")
        rows = self.to_int(fields[1], f"matrix {name!r} rows")
        cols = self.to_int(fields[2], f"matrix {name!r} columns")
        if rows < 1 or cols < 1:
            raise self.error(f"matrix {name!r}: needs positive dimensions")
        data = np.empty((rows, cols))
        for r in range(rows):
            values = self.next_fields()
            if len(values) != cols:
                raise self.error(f"matrix {name!r}: expected {cols} columns")
            data[r] = self.to_floats(values, f"matrix {name!r}")
        return data


def _fmt_vec(vec: np.ndarray) -> str:
    return " ".join(format_float(float(v)) for v in vec)


def _write_vector(lines: list[str], name: str, vec: np.ndarray) -> None:
    lines.append(f"{name} {vec.shape[0]}")
    lines.append(_fmt_vec(vec))


def _write_matrix(lines: list[str], name: str, mat: np.ndarray) -> None:
    lines.append(f"{name} {mat.shape[0]} {mat.shape[1]}")
    for row in mat:
        lines.append(_fmt_vec(row))


def _write_gnb(lines: list[str], model: GnbModel) -> None:
    _write_vector(lines, "priors", model.priors)
    _write_matrix(lines, "means", model.means)
    _write_matrix(lines, "variances", model.variances)


def _read_gnb(reader: _LineReader) -> GnbModel:
    priors = reader.read_vector("priors")
    means = reader.read_matrix("means")
    variances = reader.read_matrix("variances")
    if means.shape != variances.shape or means.shape[0] != priors.shape[0]:
        raise reader.error("priors, means and variances disagree in shape")
    with reader.validating():
        return GnbModel(means=means, variances=variances, priors=priors)


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


def _read_tree(reader: _LineReader, num_classes: int) -> TreeModel:
    fields = reader.next_fields()
    if len(fields) != 2 or fields[0] != "n_features":
        raise reader.error("tree model missing n_features")
    n_features = reader.to_int(fields[1], "n_features")
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
        with reader.validating():
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


def _write_mlp(lines: list[str], model: MlpModel) -> None:
    _write_vector(lines, "scaler_min", model.scaler_min)
    _write_vector(lines, "scaler_max", model.scaler_max)
    _write_matrix(lines, "w1", model.w1)
    _write_vector(lines, "b1", model.b1)
    _write_matrix(lines, "w2", model.w2)
    _write_vector(lines, "b2", model.b2)


def _read_mlp(reader: _LineReader) -> MlpModel:
    scaler_min = reader.read_vector("scaler_min")
    scaler_max = reader.read_vector("scaler_max")
    w1 = reader.read_matrix("w1")
    b1 = reader.read_vector("b1")
    w2 = reader.read_matrix("w2")
    b2 = reader.read_vector("b2")
    h, d = w1.shape
    if (
        scaler_min.shape != (d,)
        or scaler_max.shape != (d,)
        or b1.shape != (h,)
        or w2.shape[1] != h
        or b2.shape != (w2.shape[0],)
    ):
        raise reader.error("perceptron blocks disagree in shape")
    with reader.validating():
        return MlpModel(
            w1=w1, b1=b1, w2=w2, b2=b2, scaler_min=scaler_min, scaler_max=scaler_max
        )
