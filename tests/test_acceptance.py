"""End-to-end acceptance checks, one test per numbered criterion.

Each test pins the tolerances and runtime budget it was designed against;
`pytest -v` therefore prints one pass/fail line per criterion.
"""

import math
import os
import re
import time

import numpy as np
import pytest

from conftest import (
    angles_close,
    random_anisotropic_cloud,
    rotate_cloud,
    scale_cloud,
    translate_cloud,
)
from ectshape.classifiers import train_model
from ectshape.cli import main
from ectshape.dataset import LabeledDataset, parse_feature_csv
from ectshape.errors import (
    CollinearCloudError,
    EmptyClassError,
    ZeroWidthError,
)
from ectshape.evaluation import cross_validate
from ectshape.geometry import (
    CentralMoments2,
    central_moments,
    convex_hull,
    normalize_angle_deg,
    principal_axes,
    shape_descriptors,
)
from ectshape.preprocess import PointCloud2D
from ectshape.rng import SplitMix64
from ectshape.synthetic import SynthClassSpec, generate_synthetic
from reference import (
    ConfusionMatrix,
    example_loss_and_gradients,
    one_vs_rest_metrics,
)


def test_criterion_1_geometry_invariance_suite():
    start = time.monotonic()
    g = SplitMix64(2024)
    scalar_fields = (
        "length", "width", "area", "perimeter", "compactness",
        "elongation", "rectangularity", "eccentricity", "convexity",
    )
    for _ in range(200):
        cloud = random_anisotropic_cloud(g)
        f0 = shape_descriptors(cloud)

        shifted = shape_descriptors(
            translate_cloud(cloud, g.uniform_in(-50, 50), g.uniform_in(-50, 50))
        )
        for name in scalar_fields:
            a, b = getattr(f0, name), getattr(shifted, name)
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a)), f"translate {name}"
        assert angles_close(f0.alpha_deg, shifted.alpha_deg, 1e-9)

        theta = g.uniform_in(-179.0, 179.0)
        rotated = shape_descriptors(rotate_cloud(cloud, theta))
        for name in scalar_fields:
            a, b = getattr(f0, name), getattr(rotated, name)
            assert abs(a - b) <= 1e-6 * max(1.0, abs(a)), f"rotate {name}"
        axes = principal_axes(central_moments(cloud))
        if axes.lambda_major - axes.lambda_minor > 1e-9 * axes.lambda_major:
            want = normalize_angle_deg(f0.alpha_deg + theta)
            assert angles_close(rotated.alpha_deg, want, 1e-6)

        s = g.uniform_in(0.2, 5.0)
        scaled = shape_descriptors(scale_cloud(cloud, s))
        for name, factor in (("length", s), ("width", s),
                             ("perimeter", s), ("area", s * s)):
            a, b = factor * getattr(f0, name), getattr(scaled, name)
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a)), f"scale {name}"
        for name in ("compactness", "elongation", "rectangularity",
                     "eccentricity", "convexity"):
            a, b = getattr(f0, name), getattr(scaled, name)
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a)), f"scale {name}"
        assert angles_close(f0.alpha_deg, scaled.alpha_deg, 1e-9)

    assert time.monotonic() - start < 10.0


def brute_force_hull_vertex_set(pts: np.ndarray) -> set:
    """O(n^3) hull oracle: (i, j) is a hull edge iff every other point lies
    on its left; vertices are the endpoints of such edges."""
    n = pts.shape[0]
    diff = pts[None, :, :] - pts[:, None, :]          # diff[i, j] = p_j - p_i
    # cross[i, j, k] = (p_j - p_i) x (p_k - p_i)
    cross = (
        diff[:, :, None, 0] * diff[:, None, :, 1]
        - diff[:, :, None, 1] * diff[:, None, :, 0]
    )
    vertices = set()
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if cross[i, j].min() >= -1e-12:
                vertices.add(tuple(pts[i]))
                vertices.add(tuple(pts[j]))
    return vertices


def direct_matrix_metrics(counts: np.ndarray, c: int):
    """Metric oracle built straight from the matrix definition, cell by cell."""
    k = counts.shape[0]
    tp = fn = fp = tn = 0
    for t in range(k):
        for p in range(k):
            v = int(counts[t, p])
            if t == c and p == c:
                tp += v
            elif t == c:
                fn += v
            elif p == c:
                fp += v
            else:
                tn += v

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    den_sq = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    return (
        ratio(tp + tn, tp + fn + fp + tn),
        ratio(tp, tp + fn),
        ratio(tn, tn + fp),
        ratio(tp, tp + fp),
        (tp * tn - fp * fn) / math.sqrt(den_sq) if den_sq > 0 else 0.0,
    )


def test_criterion_2_oracle_equivalence():
    start = time.monotonic()

    g = SplitMix64(555)
    for _ in range(100):
        n = 10 + g.randbelow(51)  # up to 60 points
        pts = np.array(
            [[g.uniform_in(-4, 4), g.uniform_in(-4, 4)] for _ in range(n)]
        )
        hull = convex_hull(PointCloud2D(points=pts))
        assert set(map(tuple, hull.vertices)) == brute_force_hull_vertex_set(pts)

    for _ in range(300):
        a = g.uniform_in(0.01, 5.0)
        b = g.uniform_in(0.01, 5.0)
        c = g.uniform_in(-0.99, 0.99) * math.sqrt(a * b)
        axes = principal_axes(
            CentralMoments2(mu20=a, mu02=b, mu11=c, centroid=(0.0, 0.0))
        )
        evals = np.linalg.eigvalsh(np.array([[a, c], [c, b]]))
        assert abs(axes.lambda_minor - evals[0]) < 1e-9
        assert abs(axes.lambda_major - evals[1]) < 1e-9

    for _ in range(1000):
        k = 2 + g.randbelow(4)  # K <= 5
        counts = np.array(
            [[g.randbelow(21) for _ in range(k)] for _ in range(k)]
        )
        if counts.sum() == 0:
            counts[0, 0] = 1
        cm = ConfusionMatrix(counts=counts)
        for c in range(k):
            got = one_vs_rest_metrics(cm, c).as_tuple()
            want = direct_matrix_metrics(counts, c)
            assert max(abs(x - y) for x, y in zip(got, want)) < 1e-12

    assert time.monotonic() - start < 30.0


def test_criterion_3_mlp_gradient_check():
    start = time.monotonic()
    g = SplitMix64(808)
    eps = 1e-5
    for _ in range(20):
        d = 1 + g.randbelow(5)
        h = 1 + g.randbelow(8)
        k = 2 + g.randbelow(3)
        w1 = np.array([g.uniform_in(-0.5, 0.5) for _ in range(h * d)]).reshape(h, d)
        b1 = np.array([g.uniform_in(-0.5, 0.5) for _ in range(h)])
        w2 = np.array([g.uniform_in(-0.5, 0.5) for _ in range(k * h)]).reshape(k, h)
        b2 = np.array([g.uniform_in(-0.5, 0.5) for _ in range(k)])
        x = np.array([g.uniform() for _ in range(d)])
        target = np.zeros(k)
        target[g.randbelow(k)] = 1.0
        _, g_w1, g_b1, g_w2, g_b2 = example_loss_and_gradients(
            w1, b1, w2, b2, x, target
        )
        worst = 0.0
        for param, grad in ((w1, g_w1), (b1, g_b1), (w2, g_w2), (b2, g_b2)):
            flat = param.reshape(-1)
            gflat = grad.reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + eps
                lp = example_loss_and_gradients(w1, b1, w2, b2, x, target)[0]
                flat[idx] = orig - eps
                lm = example_loss_and_gradients(w1, b1, w2, b2, x, target)[0]
                flat[idx] = orig
                fd = (lp - lm) / (2 * eps)
                rel = abs(gflat[idx] - fd) / max(1e-8, abs(fd), abs(gflat[idx]))
                worst = max(worst, rel)
        assert worst < 1e-4
    assert time.monotonic() - start < 5.0


def defect_grid_spec():
    """12 ellipse families over a depth x angle grid, 20 records each."""
    classes = []
    for depth in (0.4, 0.7, 1.0, 1.5):
        for angle in (0, 30, 60):
            classes.append(SynthClassSpec(
                name=f"d{depth}_a{angle}",
                n_points=80,
                center=(1.0, 0.5),
                a=2.0 + 2.0 * depth,
                b=0.8 + 0.6 * depth,
                rotation_deg=float(angle),
                noise_sigma=0.06,
                n_records=20,
            ))
    return tuple(classes)


def test_criterion_4_synthetic_end_to_end():
    start = time.monotonic()
    clouds = generate_synthetic(defect_grid_spec(), seed=42)
    assert [len(cls) for cls in clouds] == [20] * 12
    features = np.array(
        [shape_descriptors(cloud)[:3] for cls in clouds for cloud in cls]
    )
    labels = np.array([i for i, cls in enumerate(clouds) for _ in cls])
    data = LabeledDataset(
        features=features, labels=labels, num_classes=12,
        feature_names=("L", "W", "alpha_deg"),
    )
    floors = {"mlp": 0.95, "tree": 0.95, "nb": 0.90}
    for kind, floor in floors.items():
        report = cross_validate(data, kind, None, k=10, seed=0)
        assert report.macro.accuracy >= floor, kind
        assert report.macro.specificity >= 0.98, kind
    assert time.monotonic() - start < 120.0


def test_criterion_5_real_data_reproduction(tmp_path):
    manifest = os.environ.get("ECTSHAPE_REAL_DATA")
    if not manifest:
        pytest.skip("ECTSHAPE_REAL_DATA not set; aluminum records unavailable")
    features_csv = tmp_path / "real_features.csv"
    assert main(["extract", "--manifest", manifest,
                 "--out", str(features_csv)]) == 0
    table = parse_feature_csv(features_csv.read_text())
    data = table.to_dataset("basic")
    mlp = cross_validate(data, "mlp", None, k=10, seed=0,
                         class_names=table.class_names)
    nb = cross_validate(data, "nb", None, k=10, seed=0,
                        class_names=table.class_names)
    assert mlp.macro.accuracy >= 0.95
    assert abs(mlp.macro.accuracy - 0.98) <= 0.05
    assert mlp.macro.mcc >= nb.macro.mcc


def pipeline_once(base):
    """synth -> extract -> train -> evaluate with one fixed config."""
    spec = base / "spec.json"
    if not spec.exists():
        spec.write_text(
            '{"classes": ['
            '{"name": "slim", "n_points": 24, "axis_lengths": [4.0, 1.0],'
            ' "noise_sigma": 0.05, "n_records": 6},'
            '{"name": "fat", "n_points": 24, "axis_lengths": [2.0, 1.8],'
            ' "noise_sigma": 0.05, "n_records": 6},'
            '{"name": "tilted", "n_points": 24, "axis_lengths": [3.0, 0.9],'
            ' "rotation_deg": 45.0, "noise_sigma": 0.05, "n_records": 6}'
            "]}"
        )
    records = base / "records"
    features = base / "features.csv"
    model = base / "model.txt"
    eval_dir = base / "eval"
    assert main(["synth", "--spec", str(spec), "--out-dir", str(records),
                 "--seed", "11"]) == 0
    assert main(["extract", "--manifest", str(records / "manifest.csv"),
                 "--out", str(features)]) == 0
    assert main(["train", "--features-csv", str(features), "--classifier",
                 "mlp", "--mlp-epochs", "50", "--seed", "2",
                 "--model-out", str(model)]) == 0
    assert main(["evaluate", "--features-csv", str(features), "--classifier",
                 "nb", "--k", "3", "--seed", "4",
                 "--out-dir", str(eval_dir)]) == 0
    return {
        "features.csv": features.read_text(),
        "model.txt": model.read_text(),
        "metrics_nb.csv": (eval_dir / "metrics_nb.csv").read_text(),
        "report_nb.txt": (eval_dir / "report_nb.txt").read_text(),
    }


def strip_timestamps(text):
    return "\n".join(
        line for line in text.splitlines()
        if not line.strip().startswith(("# timestamp:", "<!-- timestamp:"))
    )


def test_criterion_6_pipeline_determinism(tmp_path):
    first = pipeline_once(tmp_path)
    second = pipeline_once(tmp_path)  # same config, same destinations
    for name in first:
        assert strip_timestamps(first[name]) == strip_timestamps(second[name]), name


def test_criterion_7_degenerate_input_suite(tmp_path):
    # collinear cloud: descriptor extraction refuses, hull refuses
    line_cloud = PointCloud2D(
        points=np.array([[i, 2.0 * i] for i in range(8)], dtype=float)
    )
    with pytest.raises(ZeroWidthError):
        shape_descriptors(line_cloud)
    with pytest.raises(CollinearCloudError):
        convex_hull(line_cloud)

    # isotropic cloud: orientation pinned to 0 by convention
    t = 2 * np.pi * np.arange(32) / 32
    ring = PointCloud2D(points=np.column_stack((np.cos(t), np.sin(t))))
    assert shape_descriptors(ring).alpha_deg == 0.0

    # single-class training data: every trainer reports the empty class
    lonely = LabeledDataset(
        features=np.linspace(0, 1, 8).reshape(-1, 1),
        labels=np.zeros(8, dtype=int),
        num_classes=2,
        feature_names=("f0",),
    )
    for kind in ("nb", "mlp"):
        with pytest.raises(EmptyClassError):
            train_model(kind, lonely, {"epochs": 2} if kind == "mlp" else None)

    # zero-denominator metrics follow the score-0 convention, never NaN
    cm = ConfusionMatrix(counts=np.array([[4, 0, 0], [1, 3, 0], [0, 0, 0]]))
    m = one_vs_rest_metrics(cm, 2)
    assert (m.sensitivity, m.precision, m.mcc) == (0.0, 0.0, 0.0)
    assert m.specificity == 1.0
    assert all(math.isfinite(v) for v in m.as_tuple())

    # emitted artifacts never contain NaN/Inf tokens
    spec = tmp_path / "spec.json"
    spec.write_text(
        '{"classes": ['
        '{"name": "a", "n_points": 20, "axis_lengths": [3.0, 1.0],'
        ' "noise_sigma": 0.03, "n_records": 4},'
        '{"name": "b", "n_points": 20, "axis_lengths": [2.0, 1.9],'
        ' "noise_sigma": 0.03, "n_records": 4}'
        "]}"
    )
    records = tmp_path / "records"
    features = tmp_path / "features.csv"
    model = tmp_path / "model.txt"
    eval_dir = tmp_path / "eval"
    preds = tmp_path / "preds.csv"
    plots = tmp_path / "plots"
    assert main(["synth", "--spec", str(spec), "--out-dir", str(records)]) == 0
    assert main(["extract", "--manifest", str(records / "manifest.csv"),
                 "--out", str(features)]) == 0
    assert main(["evaluate", "--features-csv", str(features),
                 "--classifier", "all", "--k", "4", "--mlp-epochs", "50",
                 "--out-dir", str(eval_dir)]) == 0
    assert main(["train", "--features-csv", str(features),
                 "--classifier", "tree", "--model-out", str(model)]) == 0
    assert main(["classify", "--model", str(model),
                 "--manifest", str(records / "manifest.csv"),
                 "--out", str(preds)]) == 0
    assert main(["plot", "--record", str(records / "a_00.csv"),
                 "--out-dir", str(plots)]) == 0
    assert main(["plot", "--features-csv", str(features),
                 "--out-dir", str(plots)]) == 0
    bad_token = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)
    artifacts = [features, model, preds, *eval_dir.iterdir(), *plots.iterdir()]
    for path in artifacts:
        assert not bad_token.search(path.read_text()), path
