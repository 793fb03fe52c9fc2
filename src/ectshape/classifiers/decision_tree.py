"""Binary decision tree on numeric features, split by information gain ratio.

Candidate thresholds are midpoints between consecutive distinct sorted
values of each feature. The comparison convention is fixed globally:
value <= threshold routes left. Leaves store Laplace-smoothed class
distributions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from ..dataset import LabeledDataset
from ..errors import EmptyDatasetError

# split-info below this falls back to raw gain; gains below it stop recursion
_GAIN_EPS = 1e-12


@dataclass(frozen=True)
class TreeLeaf:
    """Leaf with a Laplace-smoothed class distribution."""

    distribution: np.ndarray  # (K,), sums to 1

    def __post_init__(self) -> None:
        if abs(float(self.distribution.sum()) - 1.0) > 1e-12:
            raise ValueError("leaf distribution must sum to 1")


@dataclass(frozen=True)
class TreeSplit:
    """Internal node: value <= threshold goes left."""

    feature_index: int
    threshold: float
    left: "TreeNode"
    right: "TreeNode"


TreeNode = Union[TreeLeaf, TreeSplit]


@dataclass(frozen=True)
class TreeParams:
    max_depth: int = 25
    min_leaf: int = 2
    use_gain_ratio: bool = True


@dataclass(frozen=True)
class TreeModel:
    root: TreeNode
    num_classes: int
    n_features: int


def _entropy_bits(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


@dataclass
class _Candidate:
    feature: int
    threshold: float
    gain: float
    score: float
    left_mask: np.ndarray = field(repr=False)


def _best_split(
    features: np.ndarray,
    labels: np.ndarray,
    num_classes: int,
    params: TreeParams,
) -> Optional[_Candidate]:
    n = labels.shape[0]
    parent_counts = np.bincount(labels, minlength=num_classes)
    parent_entropy = _entropy_bits(parent_counts)
    best: Optional[_Candidate] = None
    for j in range(features.shape[1]):
        order = np.argsort(features[:, j], kind="stable")
        v = features[order, j]
        y = labels[order]
        # prefix class counts after each sorted row
        onehot = np.zeros((n, num_classes))
        onehot[np.arange(n), y] = 1.0
        prefix = np.cumsum(onehot, axis=0)
        boundaries = np.nonzero(v[:-1] != v[1:])[0]  # split after index i
        for i in boundaries:
            n_left = i + 1
            n_right = n - n_left
            if n_left < params.min_leaf or n_right < params.min_leaf:
                continue
            left_counts = prefix[i]
            right_counts = parent_counts - left_counts
            p_left = n_left / n
            p_right = n_right / n
            gain = parent_entropy - (
                p_left * _entropy_bits(left_counts)
                + p_right * _entropy_bits(right_counts)
            )
            split_info = -(p_left * np.log2(p_left) + p_right * np.log2(p_right))
            if params.use_gain_ratio and split_info >= _GAIN_EPS:
                score = gain / split_info
            else:
                score = gain
            if best is None or score > best.score:
                threshold = 0.5 * (v[i] + v[i + 1])
                best = _Candidate(
                    feature=j,
                    threshold=threshold,
                    gain=gain,
                    score=score,
                    left_mask=features[:, j] <= threshold,
                )
    return best


def _grow(
    features: np.ndarray,
    labels: np.ndarray,
    num_classes: int,
    params: TreeParams,
    depth: int,
) -> TreeNode:
    counts = np.bincount(labels, minlength=num_classes)
    if (
        np.count_nonzero(counts) <= 1  # pure
        or depth >= params.max_depth
        or labels.shape[0] < 2 * params.min_leaf
    ):
        return _leaf(counts)
    best = _best_split(features, labels, num_classes, params)
    if best is None or best.gain <= _GAIN_EPS:
        return _leaf(counts)
    left = best.left_mask
    return TreeSplit(
        feature_index=best.feature,
        threshold=best.threshold,
        left=_grow(features[left], labels[left], num_classes, params, depth + 1),
        right=_grow(features[~left], labels[~left], num_classes, params, depth + 1),
    )


def _leaf(counts: np.ndarray) -> TreeLeaf:
    k = counts.shape[0]
    return TreeLeaf(distribution=(counts + 1.0) / (counts.sum() + k))


def train_tree(data: LabeledDataset, params: TreeParams = TreeParams()) -> TreeModel:
    """Grow a tree by recursive binary splitting.

    Recursion stops at purity, max_depth, min_leaf, or when no candidate
    improves on zero gain.
    """
    if data.n_rows < params.min_leaf or data.n_rows == 0:
        raise EmptyDatasetError(
            f"need at least min_leaf={params.min_leaf} rows, got {data.n_rows}"
        )
    root = _grow(data.features, data.labels, data.num_classes, params, depth=0)
    return TreeModel(root=root, num_classes=data.num_classes, n_features=data.n_features)


def tree_posterior(model: TreeModel, x: np.ndarray) -> np.ndarray:
    """Leaf distribution (n, K) reached by each row of x (n, d)."""
    out = np.empty((x.shape[0], model.num_classes))
    for i, row in enumerate(x.tolist()):
        node = model.root
        while isinstance(node, TreeSplit):
            node = node.left if row[node.feature_index] <= node.threshold else node.right
        out[i] = node.distribution
    return out


def tree_depth(model: TreeModel) -> int:
    def walk(node: TreeNode) -> int:
        if isinstance(node, TreeLeaf):
            return 0
        return 1 + max(walk(node.left), walk(node.right))

    return walk(model.root)
