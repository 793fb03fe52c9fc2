"""Gaussian naive Bayes with a range-scaled variance floor."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dataset import LabeledDataset
from ..errors import EmptyClassError

# floor = _VAR_FLOOR_REL * (per-feature global range)^2 + _VAR_FLOOR_ABS,
# so constant-within-class features never produce a degenerate density
# spike and the floor stays unit-consistent.
_VAR_FLOOR_REL = 1e-9
_VAR_FLOOR_ABS = 1e-12


@dataclass(frozen=True)
class GnbModel:
    """Per-class feature means/variances and class priors."""

    means: np.ndarray      # (K, d)
    variances: np.ndarray  # (K, d), strictly positive
    priors: np.ndarray     # (K,), sums to 1

    def __post_init__(self) -> None:
        if not (self.variances > 0).all():
            raise ValueError("variances must be strictly positive")
        if abs(float(self.priors.sum()) - 1.0) > 1e-12:
            raise ValueError("priors must sum to 1")

    @property
    def num_classes(self) -> int:
        return int(self.means.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.means.shape[1])


def train_gnb(data: LabeledDataset) -> GnbModel:
    """Fit per-class sample means and population variances.

    Variances are clamped below by a floor scaled with the squared global
    feature range; priors are the class frequencies.
    """
    n, d = data.features.shape
    k = data.num_classes
    counts = data.class_counts()
    for c in range(k):
        if counts[c] == 0:
            raise EmptyClassError(c)
    feature_range = data.features.max(axis=0) - data.features.min(axis=0)
    floor = _VAR_FLOOR_REL * feature_range**2 + _VAR_FLOOR_ABS
    means = np.empty((k, d))
    variances = np.empty((k, d))
    for c in range(k):
        rows = data.features[data.labels == c]
        means[c] = rows.mean(axis=0)
        variances[c] = np.maximum(rows.var(axis=0), floor)
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
