import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ectshape.cli import main
from ectshape.errors import (
    DegenerateAfterTrimError,
    MalformedLineError,
    NonFiniteSampleError,
    TooFewSamplesError,
)
from ectshape.ingest import parse_record
from ectshape.preprocess import (
    TRIM_MODES,
    PointCloud2D,
    TrimPolicy,
    column_quantiles,
    to_point_cloud,
    trim_noise,
)
from ectshape.synthetic import SynthClassSpec, generate_synthetic


def cloud_of(*pts):
    return PointCloud2D(points=np.array(pts, dtype=float))


def test_point_cloud_validation():
    # points enter through the record parser, which takes only finite
    # (re, im) pairs
    with pytest.raises(MalformedLineError):
        parse_record("0 0 0\n1 1 1\n2 2 2\n", "r")
    with pytest.raises(NonFiniteSampleError):
        parse_record("0 0\nnan 0\n2 2\n", "r")


def test_point_cloud_immutable():
    clouds = [to_point_cloud(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]), "r")]
    pts = [(0.0, 0.0)] * 60 + [(50.0, 0.0), (0.0, 50.0), (50.0, 50.0)]
    for mode in ("both_axes", "radial"):
        clouds.append(trim_noise(cloud_of(*pts), TrimPolicy(0.9, mode)))
    spec = SynthClassSpec("c", 16, (0.0, 0.0), 2.0, 1.0, 0.0, 0.0, 2)
    noiseless = generate_synthetic((spec,), seed=0)[0]
    assert noiseless[0].points is noiseless[1].points  # they share the base
    noisy = generate_synthetic((spec._replace(noise_sigma=0.1),), seed=0)[0]
    for c in clouds + noiseless + noisy:
        with pytest.raises(ValueError):
            c.points[0, 0] = 5.0


def test_to_point_cloud_needs_three_samples():
    for n in (0, 1, 2):
        with pytest.raises(TooFewSamplesError):
            to_point_cloud(np.zeros((n, 2)), "r")
    with pytest.raises(TooFewSamplesError):
        to_point_cloud(parse_record("1 2\n3 4\n", "r"), "r")
    cloud = to_point_cloud(parse_record("1 2\n3 4\n5 6\n", "r"), "r")
    assert cloud.n == 3


@st.composite
def sample_arrays(draw):
    """Finite (n, 2) samples, 3 <= n <= 64, at mixed scales (zeros,
    subnormals, huge values), with rows drawn from a small pool so that
    duplicate rows are common."""
    finite = st.floats(allow_nan=False, allow_infinity=False)
    pool = draw(st.lists(st.tuples(finite, finite), min_size=1, max_size=8))
    n = draw(st.integers(3, 64))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    return np.array([pool[i] for i in picks], dtype=np.float64)


# the geometry functions take these clouds without checking their size
@settings(max_examples=300, deadline=None)
@given(
    sample_arrays(),
    st.sampled_from(TRIM_MODES),
    st.floats(0.0, 1.0, exclude_min=True),
)
def test_built_clouds_hold_at_least_three_points(samples, mode, q):
    cloud = to_point_cloud(samples, "r")
    try:
        with np.errstate(all="ignore"):
            trimmed = trim_noise(cloud, TrimPolicy(q, mode))
    except DegenerateAfterTrimError:
        return
    for c in (cloud, trimmed):
        assert c.n >= 3
        assert c.points.shape == (c.n, 2)
        assert not c.points.flags.writeable


def test_trim_policy_validation(tmp_path, capsys):
    # the command line checks the flag before it reads any input
    for q in ("0", "1.5", "nan", "-inf"):
        argv = ["extract", "--manifest", str(tmp_path / "missing.csv"),
                "--out", str(tmp_path / "f.csv"), f"--trim-quantile={q}"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: argument --trim-quantile: must be in (0, 1], got {float(q)}\n"
        )
    assert not (tmp_path / "f.csv").exists()
    with pytest.raises(ValueError, match="mode must be one of"):
        trim_noise(cloud_of((0, 0), (1, 1), (2, 0)), TrimPolicy(mode="diagonal"))
    assert TrimPolicy().mode in TRIM_MODES


def test_both_axes_removes_far_corner_point():
    # 100 points near the origin plus one isolated far point: at q=0.98
    # both thresholds sit inside the dense cluster, so only the point that
    # exceeds both gets dropped
    pts = [(0.0, 0.0)] * 100 + [(1000.0, 1000.0)]
    out = trim_noise(cloud_of(*pts), TrimPolicy(quantile_q=0.98, mode="both_axes"))
    assert out.n == 100
    assert out.x.max() == 0.0


def test_both_axes_requires_both_coordinates_high():
    # high on x only, high on y only: kept; high on both: dropped
    base = [(0.0, 0.0)] * 60
    pts = base + [(50.0, 0.0), (0.0, 50.0), (50.0, 50.0)]
    out = trim_noise(cloud_of(*pts), TrimPolicy(quantile_q=0.9, mode="both_axes"))
    assert out.n == 62
    kept = set(map(tuple, np.column_stack((out.x, out.y))))
    assert (50.0, 0.0) in kept and (0.0, 50.0) in kept
    assert (50.0, 50.0) not in kept


def test_radial_removes_farthest_from_centroid():
    ring = [(np.cos(t), np.sin(t)) for t in np.linspace(0, 2 * np.pi, 60, endpoint=False)]
    pts = ring + [(30.0, 0.0)]
    out = trim_noise(cloud_of(*pts), TrimPolicy(quantile_q=0.95, mode="radial"))
    assert out.x.max() < 2.0


def test_none_mode_identity():
    c = cloud_of((0, 0), (5, 1), (9, 9), (100, -3))
    out = trim_noise(c, TrimPolicy(mode="none"))
    assert np.array_equal(out.points, c.points)


def test_quantile_one_keeps_everything():
    c = cloud_of((0, 0), (1, 2), (3, 1), (10, 10))
    for mode in ("both_axes", "radial"):
        out = trim_noise(c, TrimPolicy(quantile_q=1.0, mode=mode))
        assert out.n == c.n


def test_trim_uses_linear_interpolation_quantile():
    # xs = ys = 0..9: the 0.98 quantile is 8.82 (type-7 interpolation),
    # so only the (9, 9) point exceeds both thresholds
    pts = [(float(i), float(i)) for i in range(10)]
    out = trim_noise(cloud_of(*pts), TrimPolicy(quantile_q=0.98, mode="both_axes"))
    assert out.n == 9
    assert out.x.max() == 8.0


def test_degenerate_after_trim():
    pts = [(0.0, 0.0), (1.0, 1.0), (10.0, 10.0)]
    with pytest.raises(DegenerateAfterTrimError):
        trim_noise(cloud_of(*pts), TrimPolicy(quantile_q=0.98, mode="both_axes"))


def test_trim_preserves_order():
    pts = [(5.0, 0.0), (1.0, 1.0), (4.0, 2.0), (100.0, 100.0), (2.0, 0.5)]
    out = trim_noise(cloud_of(*pts), TrimPolicy(quantile_q=0.8, mode="both_axes"))
    assert list(out.x) == [5.0, 1.0, 4.0, 2.0]


# --- both-axes trim against two 1-D quantiles -------------------------------

def reference_trim_both_axes(points, q):
    """Both-axes trim with one np.quantile call per axis."""
    tx = float(np.quantile(points[:, 0], q))
    ty = float(np.quantile(points[:, 1], q))
    survivors = points[~((points[:, 0] > tx) & (points[:, 1] > ty))]
    if survivors.shape[0] < 3:
        return DegenerateAfterTrimError
    return survivors


def trim_fuzz_cloud(rng, family):
    n = int(rng.integers(3, 70))
    if family == "lattice":  # ties at the quantile's interpolation points
        pts = rng.integers(-3, 4, size=(n, 2)).astype(float)
    elif family == "tiny":  # subnormals and zeros
        pts = rng.choice([0.0, 5e-324, -5e-324, 1e-310, -2.5e-308, 1e-300], size=(n, 2))
    elif family == "huge":  # interpolation across +-1e308 overflows
        pts = rng.choice([1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308,
                          0.0, 1.0], size=(n, 2))
    else:
        pts = rng.normal(size=(n, 2)) * 10.0 ** rng.integers(-5, 6)
    pts[(pts == 0.0) & (rng.random(pts.shape) < 0.5)] = -0.0
    return pts


@pytest.mark.parametrize("family", ["lattice", "tiny", "huge", "normal"])
def test_both_axes_trim_matches_per_axis_quantile_bits(family):
    rng = np.random.default_rng(len(family))
    with np.errstate(all="ignore"):
        for _ in range(400):
            pts = trim_fuzz_cloud(rng, family)
            q = float(rng.choice([1e-9, 0.5, 0.98, 1.0, rng.uniform(1e-9, 1.0)]))
            want = reference_trim_both_axes(pts, q)
            try:
                got = trim_noise(PointCloud2D(points=pts), TrimPolicy(q, "both_axes")).points
            except DegenerateAfterTrimError:
                got = DegenerateAfterTrimError
            if isinstance(want, type) or isinstance(got, type):
                assert got is want
            else:
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()


def reference_trim_radial(points, q):
    """Radial trim with one np.quantile call on the distances."""
    center = points.mean(axis=0)
    dist = np.hypot(points[:, 0] - center[0], points[:, 1] - center[1])
    survivors = points[dist <= float(np.quantile(dist, q))]
    if survivors.shape[0] < 3:
        return DegenerateAfterTrimError
    return survivors


@pytest.mark.parametrize("family", ["lattice", "tiny", "huge", "normal"])
def test_radial_trim_matches_quantile_bits(family):
    rng = np.random.default_rng(10 + len(family))
    with np.errstate(all="ignore"):
        for _ in range(400):
            pts = trim_fuzz_cloud(rng, family)
            q = float(rng.choice([1e-9, 0.5, 0.98, 1.0, rng.uniform(1e-9, 1.0)]))
            want = reference_trim_radial(pts, q)
            try:
                got = trim_noise(PointCloud2D(points=pts), TrimPolicy(q, "radial")).points
            except DegenerateAfterTrimError:
                got = DegenerateAfterTrimError
            if isinstance(want, type) or isinstance(got, type):
                assert got is want
            else:
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("family", ["lattice", "tiny", "huge", "normal"])
def test_column_quantiles_match_np_quantile_bits(family):
    # signed zeros included: the partition leaves the same zero at floor(v)
    rng = np.random.default_rng(20 + len(family))
    with np.errstate(all="ignore"):
        for _ in range(400):
            pts = trim_fuzz_cloud(rng, family)
            values = pts[: int(rng.integers(1, pts.shape[0] + 1))]
            if rng.random() < 0.25:
                values = values[:, :1]
            q = float(rng.choice([0.0, 1e-9, 0.5, 0.98, 1.0, 1.0 - 2.0**-53,
                                  rng.uniform(0.0, 1.0)]))  # fmt: skip
            got = np.array(column_quantiles(values, q))
            assert got.tobytes() == np.quantile(values, q, axis=0).tobytes()
