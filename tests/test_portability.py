"""An MLP's and a tree's bits, and the extracted features, do not depend on
the CPU kernels their process picks.

Each case trains in a child interpreter whose environment differs from an
unchanged child's in one setting that moves OpenBLAS, numpy or glibc to other
CPU kernels, and compares the digests of what the two children produced. The
tree child also runs the split-search oracle of tests/test_classifiers.py,
since the vectorised split search takes np.log2 over whole blocks. The
extract child parses, trims and measures record texts that this process
writes once, so that the synthetic generator, whose output is not portable,
plays no part.
Nothing is set in this process. A setting that this CPU, numpy build or glibc
does not honour is skipped, and the skip says why. A naive-Bayes fit takes
only + - * / and max/min, so its model digest is pinned in this process.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

TESTS = Path(__file__).resolve().parent
SRC = str(TESTS.parent / "src")
SETTINGS = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES", "GLIBC_TUNABLES")
DISABLED_NUMPY_FEATURES = "X86_V4 AVX512_ICL AVX512_SPR"

# For the kind named by its argument: extract (the features of the record
# texts in the JSON file named by the second argument, in every trim mode), or
# one model and one 3-fold evaluation (mlp, or tree on tie-heavy lattice data,
# which also runs the split oracle). Prints the sha256 of the feature bytes or
# of the model file and metrics CSV, the oracle's failure if any, the OpenBLAS
# core in use and numpy's CPU features.
CHILD = r"""
import ctypes, glob, hashlib, json, os, sys
import numpy as np
from ectshape.classifiers import train_model
from ectshape.classifiers.serialize import save_model
from ectshape.dataset import LabeledDataset
from ectshape.evaluation import cross_validate, metrics_csv_lines
from ectshape.geometry import shape_descriptors
from ectshape.ingest import parse_record
from ectshape.preprocess import TRIM_MODES, TrimPolicy, to_point_cloud, trim_noise
from ectshape.rng import SplitMix64

kind = sys.argv[1]
g = SplitMix64(2024)
rows, labels = [], []
if kind == "extract":
    with open(sys.argv[2], encoding="utf-8") as handle:
        texts = json.load(handle)
    for mode in TRIM_MODES:
        for i, text in enumerate(texts):
            cloud = to_point_cloud(parse_record(text, f"r{i}"), f"r{i}")
            rows.append(shape_descriptors(trim_noise(cloud, TrimPolicy(mode=mode))))
elif kind == "mlp":
    for c, center in enumerate(((0, 0, 1), (3, 1, 2), (1, 4, 0), (4, 4, 3))):
        for _ in range(15):
            rows.append([v + 0.6 * g.normal() for v in center])
            labels.append(c)
    params, cv_params = {"epochs": 4}, {"epochs": 2}
else:
    for c in range(12):
        center = (c % 4, c // 4, (c * 7) % 5)
        for _ in range(10):
            rows.append([round(2.0 * (v + 0.7 * g.normal())) / 4.0 for v in center])
            labels.append(c)
    params = cv_params = {"min_leaf": 1}
if kind == "extract":
    digest = hashlib.sha256(np.array(rows).tobytes()).hexdigest()
else:
    data = LabeledDataset(features=np.array(rows), labels=np.array(labels),
                          num_classes=len(set(labels)), feature_names=("L", "W", "alpha_deg"))
    model = save_model(train_model(kind, data, params, seed=5))
    report = metrics_csv_lines(cross_validate(data, kind, cv_params, k=3, seed=5))
    digest = hashlib.sha256((model + "\n".join(report)).encode()).hexdigest()
oracle = None
if kind == "tree":
    from test_classifiers import assert_split_search_matches_oracle
    try:
        assert_split_search_matches_oracle(seed=11, cases_per_k=2)
    except AssertionError as exc:
        oracle = f"split search differs from the oracle at {exc}"

def corename():
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename64_", "openblas_get_corename"):
            func = getattr(lib, name, None)
            if func is not None:
                func.restype = ctypes.c_char_p
                return func().decode()
    return None

try:
    from numpy._core._multiarray_umath import __cpu_features__ as features
except ImportError:
    from numpy.core._multiarray_umath import __cpu_features__ as features
print(json.dumps({"digest": digest, "oracle": oracle, "corename": corename(),
                  "features": features}))
"""

# sha256 of each child's model file and metrics CSV; it changes only if the
# training arithmetic does
PINNED_DIGEST = "130bb588ced83fe4b3ae8f25e0806b4e771151d0fcb3a595becd144deab39eff"
PINNED_TREE_DIGEST = "0a7acf2a143e85f2ddf16cd5715242cc2f090c3804fe98fa8ff14c4e91703340"
# sha256 of the body of an `ect-shape train --classifier nb` model file; the
# fit takes only + - * / and max/min, so no setting can move it
PINNED_NB_DIGEST = "d89cb4ddf313ed851f1aa0145d18c48ae08ad628845c053f1203080794759b60"


def base_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in SETTINGS}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (SRC, str(TESTS), env.get("PYTHONPATH")))
    )
    return env


def run_child(kind: str, extra: dict[str, str], *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", CHILD, kind, *args], env={**base_env(), **extra},
        capture_output=True, text=True, timeout=300,
    )


def run_baseline(kind: str, *args: str) -> dict:
    proc = run_child(kind, {}, *args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def baseline() -> dict:
    return run_baseline("mlp")


@pytest.fixture(scope="module")
def tree_baseline() -> dict:
    return run_baseline("tree")


def fixed_record_texts() -> list[str]:
    """Record texts of traces-256-like shapes: 256 and 32 noisy points on
    three ellipses, and one record with commas and comment lines."""
    rng = np.random.default_rng(9)
    texts = []
    for a, b, rot in ((5.0, 1.0, 30.0), (3.0, 2.5, 60.0), (6.0, 3.0, -20.0)):
        for n in (256, 256, 32):
            t = 2.0 * np.pi * np.arange(n) / n
            phi = np.deg2rad(rot)
            x, y = a * np.cos(t), b * np.sin(t)
            pts = np.column_stack((x * np.cos(phi) - y * np.sin(phi),
                                   x * np.sin(phi) + y * np.cos(phi)))
            pts = pts + 0.1 * rng.normal(size=pts.shape)
            texts.append("".join(f"{u!r} {v!r}\n" for u, v in pts.tolist()))
    texts.append("# comment\n" + texts[-1].replace(" ", ",").replace("\n", "\n\n"))
    return texts


@pytest.fixture(scope="module")
def record_texts(tmp_path_factory) -> str:
    """Path of a JSON list of record texts, written once for every child."""
    path = tmp_path_factory.mktemp("extract") / "records.json"
    path.write_text(json.dumps(fixed_record_texts()), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def extract_baseline(record_texts) -> dict:
    return run_baseline("extract", record_texts)


def glibc_active_features(extra: dict[str, str]) -> set[str] | None:
    """glibc's enabled x86 CPU features under the given settings, read from
    its dynamic loader's diagnostics; None where that cannot be read."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "/ld-" in line}
    except OSError:
        return None
    loaders = [p for p in paths if re.search(r"/ld-linux[^/]*\.so", p)]
    if not loaders:
        return None
    proc = subprocess.run(
        [loaders[0], "--list-diagnostics"], env={**base_env(), **extra},
        capture_output=True, text=True, timeout=60,
    )
    pattern = re.compile(r"x86\.cpu_features\.features\[\w+\]\.(active|usable)\[")
    lines = {line for line in proc.stdout.splitlines() if pattern.match(line)}
    return lines if proc.returncode == 0 and lines else None


def honoured(name: str, value: str, child: dict, baseline: dict) -> str | None:
    """Why the child did not run under the setting, or None if it did."""
    if name == "OPENBLAS_CORETYPE":
        # OpenBLAS may map a name onto an older kernel (Prescott onto Katmai)
        core = child["corename"]
        if core is None:
            return "cannot read the OpenBLAS core name"
        if core.lower() != value.lower() and core == baseline["corename"]:
            return f"OpenBLAS stayed on {core}"
    elif name == "NPY_DISABLE_CPU_FEATURES":
        was_on = [f for f in value.split() if baseline["features"].get(f)]
        if not was_on:
            return f"none of {value} is enabled on this CPU"
        if any(child["features"].get(f) for f in was_on):
            return "numpy kept some of the features enabled"
    else:
        before, after = glibc_active_features({}), glibc_active_features({name: value})
        if before is None or after is None:
            return "cannot read glibc's CPU feature diagnostics"
        if before == after:
            return "this glibc ignores the setting"
    return None


SETTING_CASES = [
    ("OPENBLAS_CORETYPE", "Prescott"),
    ("OPENBLAS_CORETYPE", "Haswell"),
    ("OPENBLAS_CORETYPE", "SkylakeX"),
    ("NPY_DISABLE_CPU_FEATURES", DISABLED_NUMPY_FEATURES),
    # glibc < 2.33 spells the feature names with _Usable, later ones without
    ("GLIBC_TUNABLES", "glibc.cpu.hwcaps=-FMA_Usable,-AVX2_Usable"),
    ("GLIBC_TUNABLES", "glibc.cpu.hwcaps=-FMA,-AVX2"),
]


def assert_same_under_setting(
    kind: str, baseline: dict, name: str, value: str, *args: str
) -> None:
    proc = run_child(kind, {name: value}, *args)
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines()
        pytest.skip(f"child failed under {name}: {lines[-1] if lines else proc.returncode}")
    child = json.loads(proc.stdout)
    reason = honoured(name, value, child, baseline)
    if reason:
        pytest.skip(reason)
    assert child["oracle"] is None, child["oracle"]
    assert child["digest"] == baseline["digest"]


@pytest.mark.parametrize("name,value", SETTING_CASES)
def test_mlp_digest_same_under_cpu_kernel_setting(baseline, name, value):
    assert_same_under_setting("mlp", baseline, name, value)


def test_mlp_digest_pinned(baseline):
    assert baseline["digest"] == PINNED_DIGEST


@pytest.mark.parametrize("name,value", SETTING_CASES)
def test_tree_digest_and_split_oracle_same_under_cpu_kernel_setting(
    tree_baseline, name, value
):
    assert_same_under_setting("tree", tree_baseline, name, value)


def test_tree_digest_pinned_and_split_oracle_holds(tree_baseline):
    assert tree_baseline["oracle"] is None, tree_baseline["oracle"]
    assert tree_baseline["digest"] == PINNED_TREE_DIGEST


@pytest.mark.parametrize("name,value", SETTING_CASES)
def test_extract_digest_same_under_cpu_kernel_setting(
    extract_baseline, record_texts, name, value
):
    # no pinned digest: extraction calls libm atan2, cos and hypot, which
    # differ between machines
    assert_same_under_setting("extract", extract_baseline, name, value, record_texts)


def test_nb_model_digest_pinned(tmp_path):
    from ectshape.cli import main
    from ectshape.dataset import FEATURE_CSV_HEADER, feature_csv_row
    from ectshape.rng import SplitMix64

    # skewed classes, one of a single row, of SplitMix64 uniforms
    g = SplitMix64(4242)
    rows = [FEATURE_CSV_HEADER]
    for c, (name, n) in enumerate((("crack", 23), ("pit", 9), ("loss", 1), ("dent", 40))):
        for i in range(n):
            values = [g.uniform_in(-1.0 - c, 2.0 + c) for _ in range(10)]
            rows.append(feature_csv_row(f"{name}{i}", name, values))
    (tmp_path / "f.csv").write_text("\n".join(rows) + "\n")
    assert main(["train", "--features-csv", str(tmp_path / "f.csv"), "--classifier", "nb",
                 "--features", "extended", "--model-out", str(tmp_path / "m.txt")]) == 0
    text = (tmp_path / "m.txt").read_text()
    body = "\n".join(line for line in text.splitlines() if not line.startswith("#"))
    assert hashlib.sha256(body.encode()).hexdigest() == PINNED_NB_DIGEST
