"""Synthetic ellipse-arc record generator for desk-scale experiments.

Each class is an ellipse family: n_points samples (a*cos(theta_i),
b*sin(theta_i)) at equally spaced theta, rotated, translated, plus isotropic
Gaussian noise. Output mimics the structure of real probe sweeps closely
enough to exercise the whole pipeline without any acquisition hardware.

A spec parses to a tuple of class specs, and generation gives one list of
clouds per class in the same order: a record's class is the list it is in.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

import numpy as np

from .errors import BadSpecError
from .preprocess import PointCloud2D
from .rng import SplitMix64
from .textio import split_lines


class SynthClassSpec(NamedTuple):
    name: str
    n_points: int
    center: tuple[float, float]
    a: float
    b: float
    rotation_deg: float
    noise_sigma: float
    n_records: int


def parse_synth_spec(text: str) -> tuple[SynthClassSpec, ...]:
    """Parse a JSON synthesis spec into its classes, in spec order; full
    lines starting with '#' are ignored.

    {"classes": [{"name": ..., "n_points": ..., "center": [x, y],
                  "axis_lengths": [a, b], "rotation_deg": ...,
                  "noise_sigma": ..., "n_records": ...}, ...]}

    name is a string, n_points and n_records are integers, and the other
    values are numbers; a JSON true or false is none of these. name,
    center, rotation_deg and noise_sigma are optional. Raises BadSpecError
    for a malformed doc or class, or a duplicate name.
    """
    # a comment line reads as an empty one, so a JSON error names its line
    blanked = "\n".join(
        "" if line.lstrip().startswith("#") else line for line in split_lines(text)
    )
    try:
        doc = json.loads(blanked)
    except (ValueError, RecursionError) as exc:
        raise BadSpecError(f"spec is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "classes" not in doc:
        raise BadSpecError("spec must be an object with a 'classes' array")
    raw_classes = doc["classes"]
    if not isinstance(raw_classes, list):
        raise BadSpecError("'classes' must be an array")
    classes = []
    for i, entry in enumerate(raw_classes):
        if not isinstance(entry, dict):
            raise BadSpecError(f"class {i}: expected an object")
        missing = [k for k in ("axis_lengths", "n_points", "n_records") if k not in entry]
        if missing:
            raise BadSpecError(f"class {i}: missing field {missing[0]!r}")
        axes = entry["axis_lengths"]
        if not isinstance(axes, list) or len(axes) != 2:
            raise BadSpecError(f"class {i}: axis_lengths must be [a, b]")
        center = entry.get("center", [0.0, 0.0])
        if not isinstance(center, list) or len(center) != 2:
            raise BadSpecError(f"class {i}: center must be [x, y]")
        cls = SynthClassSpec(
            name=_json_value(entry.get("name", f"class{i:02d}"), i, "name", "string"),
            n_points=_json_value(entry["n_points"], i, "n_points", "integer"),
            center=(_real(center[0], i, "center[0]"), _real(center[1], i, "center[1]")),
            a=_real(axes[0], i, "axis_lengths[0]"),
            b=_real(axes[1], i, "axis_lengths[1]"),
            rotation_deg=_real(entry.get("rotation_deg", 0.0), i, "rotation_deg"),
            noise_sigma=_real(entry.get("noise_sigma", 0.0), i, "noise_sigma"),
            n_records=_json_value(entry["n_records"], i, "n_records", "integer"),
        )
        _check_class(cls)
        classes.append(cls)
    if not classes:
        raise BadSpecError("spec needs at least one class")
    # the names become record file names in one directory
    if len({c.name for c in classes}) != len(classes):
        raise BadSpecError("duplicate class names in spec")
    return tuple(classes)


def _json_value(value: object, i: int, key: str, kind: str):
    """The value of class i's field key, if it is a JSON value of kind
    ("string", "integer" or "number"); a bool is neither an integer nor a
    number."""
    types = {"string": str, "integer": int, "number": (int, float)}[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise BadSpecError(f"class {i}: {key} must be a JSON {kind}")
    return value


def _real(value: object, i: int, key: str) -> float:
    try:
        return float(_json_value(value, i, key, "number"))
    except OverflowError as exc:  # an integer beyond the float range
        raise BadSpecError(f"class {i}: {key}: {exc}") from exc


def _check_class(cls: SynthClassSpec) -> None:
    if not cls.name or any(ch.isspace() for ch in cls.name):
        raise BadSpecError(f"class name must be non-empty without spaces: {cls.name!r}")
    # the name starts each record's file name and id, and is a CSV field
    if any(ch in cls.name for ch in ",/\\") or cls.name.startswith("#"):
        raise BadSpecError(
            f"class name may not contain ',', '/' or '\\' or start with '#': {cls.name!r}"
        )
    reals = (*cls.center, cls.a, cls.b, cls.rotation_deg, cls.noise_sigma)
    if not all(math.isfinite(v) for v in reals):
        raise BadSpecError(f"center, axes, rotation and noise must be finite: {reals}")
    if cls.n_points < 16:
        raise BadSpecError(f"n_points must be >= 16, got {cls.n_points}")
    if not (cls.a >= cls.b > 0):
        raise BadSpecError(f"axis lengths must satisfy a >= b > 0, got ({cls.a}, {cls.b})")
    if cls.noise_sigma < 0:
        raise BadSpecError(f"noise_sigma must be >= 0, got {cls.noise_sigma}")
    if cls.n_records < 1:
        raise BadSpecError(f"n_records must be >= 1, got {cls.n_records}")


def generate_synthetic(
    classes: tuple[SynthClassSpec, ...], seed: int
) -> list[list[PointCloud2D]]:
    """The records of each class, in class order: list i holds the
    n_records clouds of classes[i].

    A single generator is streamed through the whole spec, class by class,
    record by record, so the output is a pure function of (classes, seed)
    and any change to an earlier class reshuffles everything after it.
    Raises BadSpecError naming the class when its finite spec values still
    overflow to a non-finite point.
    """
    rng = SplitMix64(seed)
    out: list[list[PointCloud2D]] = []
    for cls in classes:
        clouds: list[PointCloud2D] = []
        out.append(clouds)
        theta = 2.0 * np.pi * np.arange(cls.n_points) / cls.n_points
        unit = np.column_stack((cls.a * np.cos(theta), cls.b * np.sin(theta)))
        phi = np.deg2rad(cls.rotation_deg)
        rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
        with np.errstate(over="ignore", invalid="ignore"):
            base = unit @ rot.T + np.array(cls.center)
        _require_finite(base, cls)
        base.setflags(write=False)
        for _ in range(cls.n_records):
            points = base
            if cls.noise_sigma > 0:
                # one normal per coordinate, point by point, x before y
                noise = rng.normals(2 * cls.n_points).reshape(cls.n_points, 2)
                with np.errstate(over="ignore", invalid="ignore"):
                    points = base + cls.noise_sigma * noise
                _require_finite(points, cls)
                points.setflags(write=False)
            clouds.append(PointCloud2D(points=points))
    return out


def _require_finite(points: np.ndarray, cls: SynthClassSpec) -> None:
    if not np.isfinite(points).all():
        raise BadSpecError(
            f"class {cls.name!r}: points overflow to non-finite values;"
            " shrink center, axis_lengths or noise_sigma"
        )
