"""Three classifiers behind one train/predict contract.

A trained model is a tagged union (naive Bayes, decision tree, or
perceptron) plus the feature names and class count it was trained with.
Prediction takes an (n, d) feature matrix and returns a label index and
a posterior distribution per row; argmax ties break to the lowest class
index.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

import numpy as np

from ..dataset import LabeledDataset
from ..errors import DimensionMismatchError
from .decision_tree import TreeModel, TreeParams, train_tree, tree_posterior
from .naive_bayes import GnbModel, gnb_posterior, train_gnb
from .perceptron import MlpModel, MlpParams, mlp_posterior, train_mlp

CLASSIFIER_KINDS = ("nb", "tree", "mlp")


class TrainedModel(NamedTuple):
    """Tagged union over the classifier kinds, with training metadata."""

    kind: str
    model: Union[GnbModel, TreeModel, MlpModel]
    feature_names: tuple[str, ...]
    num_classes: int
    class_names: Optional[tuple[str, ...]] = None

    def label_name(self, index: int) -> str:
        if self.class_names is not None:
            return self.class_names[index]
        return str(index)


def train_model(
    kind: str,
    data: LabeledDataset,
    params: Optional[dict] = None,
    seed: int = 0,
    class_names: Optional[tuple[str, ...]] = None,
) -> TrainedModel:
    """Train one classifier kind from a parameter dict.

    Recognized params: tree -> max_depth, min_leaf;
    mlp -> hidden, lr, momentum, epochs. nb takes none. The seed only
    affects the perceptron. class_names, when given, name the
    data.num_classes classes.
    """
    if class_names is not None and len(class_names) != data.num_classes:
        raise ValueError("class_names must match num_classes")
    params = dict(params or {})
    if kind == "nb":
        model: Union[GnbModel, TreeModel, MlpModel] = train_gnb(data)
    elif kind == "tree":
        model = train_tree(data, TreeParams(**params))
    elif kind == "mlp":
        model = train_mlp(data, MlpParams(**params), seed)
    else:
        raise ValueError(f"unknown classifier kind {kind!r}")
    return TrainedModel(
        kind=kind,
        model=model,
        feature_names=data.feature_names,
        num_classes=data.num_classes,
        class_names=class_names,
    )


def predict(
    trained: TrainedModel, features: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Labels (n,) and posteriors (n, K) for the rows of an (n, d) matrix.

    Each posterior row sums to 1 and its label is the row's argmax, ties
    broken to the lowest class index.
    """
    x = np.asarray(features, dtype=np.float64)
    d = len(trained.feature_names)
    if x.ndim != 2 or x.shape[1] != d:
        raise DimensionMismatchError(f"model expects (n, {d}) features, got {x.shape}")
    if trained.kind == "nb":
        posterior = gnb_posterior(trained.model, x)
    elif trained.kind == "tree":
        posterior = tree_posterior(trained.model, x)
    else:
        posterior = mlp_posterior(trained.model, x)
    posterior = posterior / posterior.sum(axis=1, keepdims=True)
    return np.argmax(posterior, axis=1).astype(np.int64), posterior
