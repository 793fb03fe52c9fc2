"""Record-to-point-cloud conversion and impedance-plane noise trimming.

Probe noise concentrates where both resistance and reactance are high
(the upper-right corner of the impedance plane), so the default trim
removes exactly the points beyond a per-axis quantile on *both* axes.
A radial variant and a no-op mode are provided as alternatives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateAfterTrimError, TooFewSamplesError

TRIM_MODES = ("both_axes", "radial", "none")


@dataclass(frozen=True)
class PointCloud2D:
    """Finite multiset of planar points as an immutable (n, 2) array.

    Duplicates are retained; acquisition order is meaningful (the contour
    perimeter downstream walks the points in stored order).
    """

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("points must be an (n, 2) array")
        if pts.size and not np.isfinite(pts).all():
            raise ValueError("all coordinates must be finite")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return int(self.points.shape[0])

    @property
    def x(self) -> np.ndarray:
        return self.points[:, 0]

    @property
    def y(self) -> np.ndarray:
        return self.points[:, 1]


@dataclass(frozen=True)
class TrimPolicy:
    """How to remove the noise concentration before feature extraction.

    quantile_q: cut level in (0, 1]; q = 1.0 removes nothing.
    mode: "both_axes" (drop points above the q-quantile on x AND y),
    "radial" (drop points farther from the raw centroid than the
    q-quantile distance) or "none".
    """

    quantile_q: float = 0.98
    mode: str = "both_axes"

    def __post_init__(self) -> None:
        if not (0.0 < self.quantile_q <= 1.0):
            raise ValueError("quantile_q must be in (0, 1]")
        if self.mode not in TRIM_MODES:
            raise ValueError(f"mode must be one of {TRIM_MODES}")


def to_point_cloud(samples: np.ndarray, record_id: str) -> PointCloud2D:
    """Map (n, 2) samples to impedance-plane points (re, im), order preserved.

    The cloud wraps `samples` without a copy, and makes the array read-only.
    """
    n = samples.shape[0]
    if n < 3:
        raise TooFewSamplesError(f"record {record_id!r} has {n} samples; need >= 3")
    return PointCloud2D(points=samples)


def trim_noise(cloud: PointCloud2D, policy: TrimPolicy) -> PointCloud2D:
    """Remove the noise region selected by `policy`, preserving order.

    Quantiles are linear-interpolation order statistics (numpy's default,
    the "type 7" convention), so survivors are implementation-independent.
    Survivor coordinates are never modified.
    """
    if policy.mode == "none":
        return cloud
    if policy.mode == "both_axes":
        tx, ty = np.quantile(cloud.points, policy.quantile_q, axis=0).tolist()
        keep = ~((cloud.x > tx) & (cloud.y > ty))
    else:  # radial
        center = cloud.points.mean(axis=0)
        dist = np.hypot(cloud.x - center[0], cloud.y - center[1])
        keep = dist <= float(np.quantile(dist, policy.quantile_q))
    survivors = cloud.points[keep]
    if survivors.shape[0] < 3:
        raise DegenerateAfterTrimError(
            f"{survivors.shape[0]} points survive trimming; need >= 3"
        )
    return PointCloud2D(points=survivors)
