#!/usr/bin/env python3
"""Extract the geometric signature of a single impedance-plane trace.

Builds a noisy elliptical point cloud (the shape a probe sweep over a
surface crack typically traces), runs the descriptor extraction, and then
rotates/translates/scales the same cloud to show which numbers move and
which stay put.
"""

import numpy as np

from ectshape.geometry import FEATURE_NAMES_EXTENDED, shape_descriptors
from ectshape.preprocess import PointCloud2D
from ectshape.rng import SplitMix64


def ellipse_cloud(a, b, rotation_deg, center, n=64, sigma=0.03, seed=0):
    rng = SplitMix64(seed)
    theta = 2.0 * np.pi * np.arange(n) / n
    unit = np.column_stack((a * np.cos(theta), b * np.sin(theta)))
    phi = np.deg2rad(rotation_deg)
    rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    noise = np.array([[rng.normal(), rng.normal()] for _ in range(n)])
    return PointCloud2D(points=unit @ rot.T + np.array(center) + sigma * noise)


def show(tag, feats):
    print(f"{tag:<22} L={feats.length:7.4f}  W={feats.width:7.4f}"
          f"  alpha={feats.alpha_deg:8.3f} deg"
          f"  E={feats.elongation:6.4f}  C={feats.compactness:6.4f}"
          f"  convexity={feats.convexity:6.4f}")


def main():
    base = ellipse_cloud(a=4.0, b=1.5, rotation_deg=25.0, center=(1.2, 0.4))
    feats = shape_descriptors(base)
    print("full descriptor vector (extended order):")
    for name, value in zip(FEATURE_NAMES_EXTENDED, feats):
        print(f"  {name:<16} {value: .6f}")
    print()

    show("original", feats)

    shifted = PointCloud2D(points=base.points + np.array([30.0, -12.0]))
    show("translated", shape_descriptors(shifted))

    phi = np.deg2rad(40.0)
    rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    rotated = PointCloud2D(points=base.points @ rot.T)
    show("rotated +40 deg", shape_descriptors(rotated))

    scaled = PointCloud2D(points=2.5 * base.points)
    show("scaled x2.5", shape_descriptors(scaled))

    print()
    print("Translation changes nothing; rotation moves only alpha;")
    print("scaling moves L and W together and leaves the ratios alone.")


if __name__ == "__main__":
    main()
