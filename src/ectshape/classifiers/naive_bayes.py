"""Gaussian naive Bayes with a range-scaled variance floor."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..dataset import LabeledDataset
from ..errors import EmptyClassError

# floor = _VAR_FLOOR_REL * (per-feature global range)^2 + _VAR_FLOOR_ABS,
# so constant-within-class features never produce a degenerate density
# spike and the floor stays unit-consistent.
_VAR_FLOOR_REL = 1e-9
_VAR_FLOOR_ABS = 1e-12


class GnbModel(NamedTuple):
    """Per-class feature means/variances and class priors."""

    means: np.ndarray      # (K, d)
    variances: np.ndarray  # (K, d), strictly positive
    priors: np.ndarray     # (K,), sums to 1


def train_gnb(data: LabeledDataset) -> GnbModel:
    """Fit per-class sample means and population variances.

    Variances are clamped below by a floor scaled with the squared global
    feature range; priors are the class frequencies.

    Classes with the same row count are fitted together from one
    `(classes, count, d)` block of their rows in file order, summed over its
    middle axis. numpy then adds each class's rows in the order that
    `mean`/`var(axis=0)` of that class alone would (row by row, or pairwise
    when d is 1), so the bits are the same. Each row is copied once, with
    no padding, however skewed the classes are.
    """
    n, d = data.features.shape
    counts = data.class_counts()
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        raise EmptyClassError(int(empty[0]))
    feature_range = data.features.max(axis=0) - data.features.min(axis=0)
    floor = _VAR_FLOOR_REL * feature_range**2 + _VAR_FLOOR_ABS
    # row indices grouped by class, each class's rows in file order
    by_class = np.argsort(data.labels, kind="stable")
    starts = np.cumsum(counts) - counts
    means = np.empty((data.num_classes, d))
    variances = np.empty((data.num_classes, d))
    for count in np.unique(counts).tolist():
        classes = np.flatnonzero(counts == count)
        rows = data.features[by_class[starts[classes, None] + np.arange(count)]]
        mean = rows.sum(axis=1) / count
        rows -= mean[:, None, :]
        rows *= rows
        means[classes] = mean
        variances[classes] = np.maximum(rows.sum(axis=1) / count, floor)
    priors = counts.astype(np.float64) / n
    return GnbModel(means=means, variances=variances, priors=priors)


def gnb_posterior(model: GnbModel, x: np.ndarray) -> np.ndarray:
    """Posterior over classes (n, K) for the rows of x (n, d), normalized in
    log space."""
    log_density = -0.5 * (
        np.log(2.0 * np.pi * model.variances)
        + (x[:, None, :] - model.means) ** 2 / model.variances
    ).sum(axis=2)
    log_joint = np.log(model.priors) + log_density
    shifted = np.exp(log_joint - log_joint.max(axis=1, keepdims=True))
    return shifted / shifted.sum(axis=1, keepdims=True)
