"""Record-to-point-cloud conversion and impedance-plane noise trimming.

Probe noise concentrates where both resistance and reactance are high
(the upper-right corner of the impedance plane), so the default trim
removes exactly the points beyond a per-axis quantile on *both* axes.
A radial variant and a no-op mode are provided as alternatives.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DegenerateAfterTrimError, TooFewSamplesError

TRIM_MODES = ("both_axes", "radial", "none")


class PointCloud2D(NamedTuple):
    """Finite multiset of planar points as a read-only (n, 2) float64 array.

    Duplicates are retained; acquisition order is meaningful (the contour
    perimeter downstream walks the points in stored order). The record
    parser checks the values, and each function that builds a cloud makes
    its array read-only.
    """

    points: np.ndarray

    @property
    def n(self) -> int:
        return int(self.points.shape[0])

    @property
    def x(self) -> np.ndarray:
        return self.points[:, 0]

    @property
    def y(self) -> np.ndarray:
        return self.points[:, 1]


class TrimPolicy(NamedTuple):
    """How to remove the noise concentration before feature extraction.

    quantile_q: cut level in (0, 1]; q = 1.0 removes nothing.
    mode: "both_axes" (drop points above the q-quantile on x AND y),
    "radial" (drop points farther from the raw centroid than the
    q-quantile distance) or "none". The command line checks the flags
    that give both.
    """

    quantile_q: float = 0.98
    mode: str = "both_axes"


def to_point_cloud(samples: np.ndarray, record_id: str) -> PointCloud2D:
    """Map (n, 2) samples to impedance-plane points (re, im), order preserved.

    The cloud wraps `samples` without a copy, and makes the array read-only.
    """
    n = samples.shape[0]
    if n < 3:
        raise TooFewSamplesError(f"record {record_id!r} has {n} samples; need >= 3")
    samples.setflags(write=False)
    return PointCloud2D(points=samples)


def trim_noise(cloud: PointCloud2D, policy: TrimPolicy) -> PointCloud2D:
    """Remove the noise region selected by `policy`, preserving order.

    Quantiles are linear-interpolation order statistics (numpy's default,
    the "type 7" convention), so survivors are implementation-independent:
    :func:`column_quantiles` takes them with one partition and numpy's own
    interpolation on Python floats, bit for bit as ``np.quantile``.
    Survivor coordinates are never modified.
    """
    if policy.mode == "none":
        return cloud
    if policy.mode == "both_axes":
        tx, ty = column_quantiles(cloud.points, policy.quantile_q)
        keep = ~((cloud.x > tx) & (cloud.y > ty))
    elif policy.mode == "radial":
        center = cloud.points.mean(axis=0)
        dist = np.hypot(cloud.x - center[0], cloud.y - center[1])
        (t,) = column_quantiles(dist[:, None], policy.quantile_q)
        keep = dist <= t
    else:
        raise ValueError(f"mode must be one of {TRIM_MODES}")
    survivors = cloud.points[keep]
    if survivors.shape[0] < 3:
        raise DegenerateAfterTrimError(
            f"{survivors.shape[0]} points survive trimming; need >= 3"
        )
    survivors.setflags(write=False)
    return PointCloud2D(points=survivors)


def column_quantiles(values: np.ndarray, q: float) -> list[float]:
    """Type-7 q-quantile of each column of (n, m) values, n >= 1, q in [0, 1].

    The same floats as ``np.quantile(values, q, axis=0)``: the virtual
    index v = (n - 1) * q falls between the order statistics a and b at
    floor(v) and floor(v) + 1, which one ``np.partition`` puts in place,
    and with t = v - floor(v) the value is numpy's lerp, b - (b - a)(1 - t)
    for t >= 0.5 and a + (b - a) t below. From v = n - 1 on, numpy lerps
    the column maximum with itself at t = v + 1 (which turns a -0.0
    maximum into +0.0 when n > 1); so does this. The partition is given
    numpy's own kth set, first and last included, so that of equal values
    (-0.0 and +0.0) the same one lands at floor(v).
    """
    n = values.shape[0]
    v = (n - 1) * q
    if v >= n - 1:
        t = v + 1
        a = b = values.max(axis=0).tolist()
    else:
        lo = math.floor(v)
        t = v - lo
        part = np.partition(values, (-1, 0, lo, lo + 1), axis=0)
        a, b = part[lo].tolist(), part[lo + 1].tolist()
    if t >= 0.5:
        return [bj - (bj - aj) * (1 - t) for aj, bj in zip(a, b)]
    return [aj + (bj - aj) * t for aj, bj in zip(a, b)]
