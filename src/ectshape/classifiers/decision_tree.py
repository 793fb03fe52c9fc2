"""Binary decision tree on numeric features, split by information gain ratio.

Candidate thresholds are midpoints between consecutive distinct sorted
values of each feature, or the lower value where the midpoint rounds up to
the upper one (adjacent doubles). The comparison convention is fixed
globally: value <= threshold routes left. Leaves store Laplace-smoothed class
distributions.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

import numpy as np

from ..dataset import LabeledDataset
from ..errors import EmptyDatasetError

# split-info below this falls back to raw gain; gains below it stop recursion
_GAIN_EPS = 1e-12
# deepest tree that may be grown; a model file holds no deeper one, so every
# tree trained loads back
MAX_DEPTH = 1000


class TreeLeaf(NamedTuple):
    """Leaf with a Laplace-smoothed class distribution."""

    distribution: np.ndarray  # (K,), sums to 1


class TreeSplit(NamedTuple):
    """Internal node: value <= threshold goes left."""

    feature_index: int
    threshold: float
    left: "TreeNode"
    right: "TreeNode"


TreeNode = Union[TreeLeaf, TreeSplit]


class TreeParams(NamedTuple):
    max_depth: int = 25
    min_leaf: int = 2


class TreeModel(NamedTuple):
    root: TreeNode
    num_classes: int
    n_features: int


def _entropies(counts: np.ndarray) -> np.ndarray:
    """Entropy in bits of each row of a (r, K) class-count matrix.

    Each row gets the bits of summing -p*log2(p) over its nonzero
    probabilities alone, as a 1-D array: rows are grouped by their number m
    of nonzero counts and each group's nonzeros are packed, in order, into
    an (rows, m) block, so numpy's pairwise sum sees the same m terms in
    the same order. Zero padding would not do: past 8 terms the pairwise
    sum's eight partial sums would regroup them. An all-zero row gives 0.
    """
    m = np.count_nonzero(counts, axis=1)
    order = np.argsort(m, kind="stable")
    packed = counts[order]
    p = packed[packed > 0] / np.repeat(counts.sum(axis=1)[order], m[order])
    terms = p * np.log2(p)
    out = np.zeros(counts.shape[0])
    row = term = 0
    for width, n_rows in zip(*np.unique(m, return_counts=True)):
        if width:
            block = terms[term : term + n_rows * width].reshape(n_rows, width)
            out[order[row : row + n_rows]] = -block.sum(axis=1)
        row += n_rows
        term += n_rows * width
    return out


class _Candidate(NamedTuple):
    feature: int
    threshold: float
    gain: float
    score: float
    left_mask: np.ndarray


def _midpoint(a: np.float64, b: np.float64) -> np.float64:
    """A threshold t with a <= t < b for finite a < b: their midpoint,
    or a where the midpoint rounds up to b."""
    # halves first, so that the sum cannot overflow
    t = 0.5 * a + 0.5 * b
    return t if t < b else a


def _best_split(
    features: np.ndarray,
    labels: np.ndarray,
    num_classes: int,
    params: TreeParams,
) -> Optional[_Candidate]:
    """The highest-scoring split, the first in (feature, sorted row) order on
    ties; None when no boundary leaves min_leaf rows on both sides."""
    n = labels.shape[0]
    order = np.argsort(features, axis=0, kind="stable").T  # (d, n)
    v = np.take_along_axis(features.T, order, axis=1)
    # splitting after sorted row i leaves i + 1 rows on the left
    n_left = np.arange(1, n)
    ok = (v[:, :-1] != v[:, 1:]) & (n_left >= params.min_leaf) & (
        n - n_left >= params.min_leaf
    )
    feature, i = np.nonzero(ok)  # feature-major, the order ties are broken in
    if feature.size == 0:
        return None
    # class counts left of each candidate boundary
    left = np.cumsum(np.eye(num_classes)[labels[order]], axis=1)[feature, i]
    parent_counts = np.bincount(labels, minlength=num_classes)
    entropy = _entropies(np.vstack((parent_counts, left, parent_counts - left)))
    c = feature.size
    rows_left = n_left[i]
    p_left = rows_left / n
    p_right = (n - rows_left) / n
    gain = entropy[0] - (p_left * entropy[1 : c + 1] + p_right * entropy[c + 1 :])
    split_info = -(p_left * np.log2(p_left) + p_right * np.log2(p_right))
    score = np.divide(gain, split_info, out=gain.copy(), where=split_info >= _GAIN_EPS)
    best = int(np.argmax(score))  # first maximum
    j, b = int(feature[best]), int(i[best])
    threshold = _midpoint(v[j, b], v[j, b + 1])
    return _Candidate(
        feature=j,
        threshold=threshold,
        gain=gain[best],
        score=score[best],
        left_mask=features[:, j] <= threshold,
    )


def _grow(
    features: np.ndarray,
    labels: np.ndarray,
    num_classes: int,
    params: TreeParams,
) -> TreeNode:
    """Grow the tree depth first, left subtree before right, with an explicit
    stack so depth is bounded by max_depth and not by Python's recursion
    limit. A task is a (features, labels, depth) subset still to grow, or a
    (feature, threshold) split whose subtrees are the last two finished."""
    todo: list[tuple] = [(features, labels, 0)]
    done: list[TreeNode] = []
    while todo:
        task = todo.pop()
        if len(task) == 2:
            right = done.pop()
            left = done.pop()
            done.append(
                TreeSplit(feature_index=task[0], threshold=task[1], left=left, right=right)
            )
            continue
        x, y, depth = task
        counts = np.bincount(y, minlength=num_classes)
        if (
            np.count_nonzero(counts) <= 1  # pure
            or depth >= params.max_depth
            or y.shape[0] < 2 * params.min_leaf
        ):
            done.append(_leaf(counts))
            continue
        best = _best_split(x, y, num_classes, params)
        if best is None or best.gain <= _GAIN_EPS:
            done.append(_leaf(counts))
            continue
        mask = best.left_mask
        todo.append((best.feature, best.threshold))
        todo.append((x[~mask], y[~mask], depth + 1))
        todo.append((x[mask], y[mask], depth + 1))
    return done[0]


def _leaf(counts: np.ndarray) -> TreeLeaf:
    k = counts.shape[0]
    return TreeLeaf(distribution=(counts + 1.0) / (counts.sum() + k))


def train_tree(data: LabeledDataset, params: TreeParams = TreeParams()) -> TreeModel:
    """Grow a tree by binary splitting.

    A node becomes a leaf at purity, at max_depth, when min_leaf leaves no
    split, or when no candidate improves on zero gain. Raises ValueError
    for a max_depth outside 1..MAX_DEPTH or a min_leaf below 1.
    """
    if not 1 <= params.max_depth <= MAX_DEPTH:
        raise ValueError(
            f"max_depth must be in 1..{MAX_DEPTH}, got {params.max_depth}"
        )
    if params.min_leaf < 1:
        raise ValueError(f"min_leaf must be at least 1, got {params.min_leaf}")
    if data.n_rows < params.min_leaf:
        raise EmptyDatasetError(
            f"need at least min_leaf={params.min_leaf} rows, got {data.n_rows}"
        )
    root = _grow(data.features, data.labels, data.num_classes, params)
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
