"""Reference versions of what the package computes, for tests only.

Each one is the plain, one-at-a-time form of a quantity the package gets
in a batch or never needs on its own: the tests compare the package
against these, or use them to build inputs.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ectshape.classifiers.perceptron import _fixed_sum, _split, _TrainingStack
from ectshape.evaluation import MetricSet, metric_table
from ectshape.geometry import PrincipalAxes, _oriented_box
from ectshape.preprocess import PointCloud2D


# --- geometry and ingest ------------------------------------------------------

def oriented_extents(cloud: PointCloud2D, axes: PrincipalAxes) -> tuple[float, float]:
    """Min-max extents of the projections onto the principal axes.

    Returns (L, W) with L >= W. A relative minor extent below 1e-12 is
    snapped to exactly 0. When the projection extents disagree with the
    eigenvalue ordering (possible for cross-like or near-isotropic
    clouds) the pair is swapped; see `geometry._oriented_box` for the angle
    that goes with the swapped pair.
    """
    length, width, _ = _oriented_box(cloud, axes)
    return length, width


def manifest_to_text(manifest: tuple[tuple[str, str], ...]) -> str:
    """Manifest text that `load_manifest` reads back as the same entries."""
    return "\n".join(f"{path},{label}" for path, label in manifest) + "\n"


# --- perceptron ---------------------------------------------------------------

def example_loss_and_gradients(
    w1: np.ndarray,
    b1: np.ndarray,
    w2: np.ndarray,
    b2: np.ndarray,
    x: np.ndarray,
    target: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Squared-error loss 0.5*sum((out-target)^2) and its exact gradients,
    from the training kernel with one network."""
    (h, d), n_out = w1.shape, w2.shape[0]
    stack = _TrainingStack(1, d, h, n_out)
    stack.set_params(0, w1, b1, w2, b2)
    err = np.empty_like(stack.output)
    stack.backward(stack.inputs(x[None]), target[:, None], err)
    loss = 0.5 * float(_fixed_sum(err * err, axis=0)[0])
    return (loss, *stack_gradients(stack, 0))


def stack_gradients(
    stack: _TrainingStack, f: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Copies of network f's w1, b1, w2, b2 gradients from the stack's last
    backward pass, read from its gradient views."""
    return _split(stack._g_layer1[..., f], stack._g_layer2[..., f])


# --- evaluation ---------------------------------------------------------------

class ConfusionMatrix(NamedTuple):
    """counts[t][p] = number of records of true class t predicted as p."""

    counts: np.ndarray


class Metrics(MetricSet):
    """A MetricSet that also gives itself as a plain tuple."""

    __slots__ = ()

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return tuple(self)


def per_class_metrics(cm: ConfusionMatrix) -> tuple[Metrics, ...]:
    """The one-vs-rest metrics of each class, from `metric_table`."""
    return tuple(Metrics(*row) for row in metric_table(cm.counts).tolist())


def one_vs_rest_metrics(cm: ConfusionMatrix, class_index: int) -> Metrics:
    """Binary metrics treating `class_index` as positive, everything else negative."""
    return per_class_metrics(cm)[class_index]


def macro_metrics(per_class: tuple[MetricSet, ...]) -> Metrics:
    """Unweighted arithmetic mean of each field over classes."""
    return Metrics(*np.array(per_class).mean(axis=0).tolist())
