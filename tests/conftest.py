"""Shared builders for the test suite."""

import numpy as np

from ectshape.classifiers.decision_tree import TreeModel, TreeSplit
from ectshape.preprocess import PointCloud2D
from ectshape.rng import SplitMix64


def noisy_ellipse(
    rng: SplitMix64,
    a: float,
    b: float,
    rotation_deg: float = 0.0,
    center=(0.0, 0.0),
    n: int = 48,
    sigma: float = 0.0,
) -> PointCloud2D:
    theta = 2.0 * np.pi * np.arange(n) / n
    pts = np.column_stack((a * np.cos(theta), b * np.sin(theta)))
    phi = np.deg2rad(rotation_deg)
    rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    pts = pts @ rot.T + np.asarray(center, dtype=float)
    if sigma > 0:
        noise = np.array([[rng.normal(), rng.normal()] for _ in range(n)])
        pts = pts + sigma * noise
    return PointCloud2D(points=pts)


def random_anisotropic_cloud(rng: SplitMix64) -> PointCloud2D:
    """Cloud with clearly separated principal axes, for covariance checks."""
    a = rng.uniform_in(2.0, 6.0)
    b = a * rng.uniform_in(0.3, 0.75)
    rot = rng.uniform_in(-180.0, 180.0)
    cx = rng.uniform_in(-5.0, 5.0)
    cy = rng.uniform_in(-5.0, 5.0)
    n = 24 + rng.randbelow(40)
    sigma = rng.uniform_in(0.0, 0.05) * b
    return noisy_ellipse(rng, a, b, rot, (cx, cy), n, sigma)


def rotate_cloud(cloud: PointCloud2D, theta_deg: float) -> PointCloud2D:
    phi = np.deg2rad(theta_deg)
    rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    pts = np.column_stack((cloud.x, cloud.y)) @ rot.T
    return PointCloud2D(points=pts)


def translate_cloud(cloud: PointCloud2D, dx: float, dy: float) -> PointCloud2D:
    pts = np.column_stack((cloud.x + dx, cloud.y + dy))
    return PointCloud2D(points=pts)


def scale_cloud(cloud: PointCloud2D, s: float) -> PointCloud2D:
    pts = s * np.column_stack((cloud.x, cloud.y))
    return PointCloud2D(points=pts)


def angles_close(a: float, b: float, tol: float) -> bool:
    """Compare two axis angles on the 180-degree circle."""
    d = abs(a - b) % 180.0
    return min(d, 180.0 - d) <= tol


def tree_depth(model: TreeModel) -> int:
    """Splits on the longest root-to-leaf path."""
    deepest, todo = 0, [(model.root, 0)]
    while todo:
        node, depth = todo.pop()
        if isinstance(node, TreeSplit):
            todo += ((node.left, depth + 1), (node.right, depth + 1))
        else:
            deepest = max(deepest, depth)
    return deepest
