import functools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    angles_close,
    noisy_ellipse,
    random_anisotropic_cloud,
    rotate_cloud,
    scale_cloud,
    translate_cloud,
)
from ectshape.errors import (
    CollinearCloudError,
    DegenerateCloudError,
    EctShapeError,
    ZeroWidthError,
)
from ectshape.geometry import (
    FEATURE_NAMES_BASIC,
    FEATURE_NAMES_EXTENDED,
    CentralMoments2,
    ConvexPolygon,
    central_moments,
    centroid,
    contour_perimeter,
    convex_hull,
    normalize_angle_deg,
    polygon_area_perimeter,
    principal_axes,
    shape_descriptors,
)
from ectshape.preprocess import PointCloud2D
from ectshape.rng import SplitMix64
from ectshape.synthetic import generate_synthetic, parse_synth_spec
from reference import oriented_extents

SPEC_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "specs"


def cloud_of(*pts):
    return PointCloud2D(points=np.array(pts, dtype=float))


def rectangle_boundary(width=4.0, height=2.0, per_side=50):
    """Points along a rectangle boundary, walked CCW from (-w/2, -h/2)."""
    w, h = width / 2, height / 2
    t = np.linspace(0.0, 1.0, per_side, endpoint=False)
    bottom = np.column_stack((-w + width * t, np.full_like(t, -h)))
    right = np.column_stack((np.full_like(t, w), -h + height * t))
    top = np.column_stack((w - width * t, np.full_like(t, h)))
    left = np.column_stack((np.full_like(t, -w), h - height * t))
    return PointCloud2D(points=np.vstack((bottom, right, top, left)))


# --- centroid and moments -------------------------------------------------

def test_centroid_examples():
    assert centroid(cloud_of((0, 0), (3, 0), (0, 3))) == (1.0, 1.0)
    assert centroid(cloud_of(*[(5, 7)] * 10)) == (5.0, 7.0)


def test_centroid_uniform_square():
    g = SplitMix64(42)
    pts = [(g.uniform(), g.uniform()) for _ in range(1000)]
    gx, gy = centroid(cloud_of(*pts))
    exact = np.mean(np.array(pts), axis=0)
    assert gx == pytest.approx(exact[0], abs=1e-12)
    assert abs(gx - 0.5) < 0.05 and abs(gy - 0.5) < 0.05


def test_moments_unit_square():
    m = central_moments(cloud_of((0, 0), (1, 0), (1, 1), (0, 1)))
    assert m.mu20 == pytest.approx(0.25)
    assert m.mu02 == pytest.approx(0.25)
    assert m.mu11 == pytest.approx(0.0)


def test_moments_collinear_diagonal():
    m = central_moments(cloud_of((0, 0), (1, 1), (2, 2)))
    for v in (m.mu20, m.mu02, m.mu11):
        assert v == pytest.approx(2 / 3)


def test_moments_identical_points_degenerate():
    with pytest.raises(DegenerateCloudError):
        central_moments(cloud_of((3, 4), (3, 4), (3, 4)))


def tiny_ellipse(scale):
    """64 distinct points on a 3 x 1 ellipse, scaled down by `scale`."""
    theta = 2.0 * np.pi * np.arange(64) / 64
    points = np.column_stack((3 * np.cos(theta), np.sin(theta)))
    return PointCloud2D(points=points * scale)


def test_moments_zero_reason_tells_underflow_from_identical_points():
    # at 1e-170 each squared deviation is below the smallest subnormal
    with pytest.raises(DegenerateCloudError, match="squared deviations underflow"):
        central_moments(tiny_ellipse(1e-170))
    with pytest.raises(DegenerateCloudError, match="all points identical"):
        central_moments(cloud_of((3, 4), (3, 4), (3, 4)))
    m = central_moments(tiny_ellipse(1e-160))
    assert m.mu20 > m.mu02 > 0.0


def test_moments_cauchy_schwarz_enforced():
    # central_moments builds a positive semi-definite covariance, up to rounding
    g = SplitMix64(5)
    clouds = [random_anisotropic_cloud(g) for _ in range(100)]
    clouds.append(cloud_of((0, 0), (1, 1), (2, 2)))  # the bound is tight
    for cloud in clouds:
        m = central_moments(cloud)
        assert m.mu20 >= 0.0 and m.mu02 >= 0.0
        bound = math.sqrt(m.mu20 * m.mu02) + 1e-12 * (1.0 + m.mu20 + m.mu02)
        assert abs(m.mu11) <= bound


# --- principal axes ---------------------------------------------------------

def test_axes_isotropic_tie_convention():
    axes = principal_axes(CentralMoments2(mu20=0.7, mu02=0.7, mu11=0.0, centroid=(0.0, 0.0)))
    assert axes.alpha_deg == 0.0
    assert axes.lambda_major == pytest.approx(0.7)
    assert axes.lambda_minor == pytest.approx(0.7)


def test_axes_diagonal_line():
    axes = principal_axes(central_moments(cloud_of((0, 0), (1, 1), (2, 2))))
    assert axes.alpha_deg == pytest.approx(45.0)
    assert axes.lambda_major == pytest.approx(4 / 3)
    assert axes.lambda_minor == pytest.approx(0.0, abs=1e-15)


def test_axes_pure_x_variance():
    axes = principal_axes(CentralMoments2(mu20=1.0, mu02=0.0, mu11=0.0, centroid=(0.0, 0.0)))
    assert axes.alpha_deg == 0.0
    assert axes.lambda_major == 1.0
    assert axes.lambda_minor == 0.0


def test_axes_match_eigh_oracle():
    g = SplitMix64(99)
    for _ in range(300):
        a = g.uniform_in(0.01, 5.0)
        b = g.uniform_in(0.01, 5.0)
        c = g.uniform_in(-1.0, 1.0) * math.sqrt(a * b)
        m = CentralMoments2(mu20=a, mu02=b, mu11=c, centroid=(0.0, 0.0))
        axes = principal_axes(m)
        evals = np.linalg.eigvalsh(np.array([[a, c], [c, b]]))
        assert axes.lambda_minor == pytest.approx(evals[0], abs=1e-9)
        assert axes.lambda_major == pytest.approx(evals[1], abs=1e-9)
        # covariance @ major == lambda_major * major
        cov = np.array([[a, c], [c, b]])
        residual = cov @ np.array(axes.major) - axes.lambda_major * np.array(axes.major)
        assert np.abs(residual).max() < 1e-9
        # unit, orthogonal and ordered axes
        for vec in (axes.major, axes.minor):
            assert abs(math.hypot(*vec) - 1.0) <= 1e-12
        assert abs(axes.major[0] * axes.minor[0] + axes.major[1] * axes.minor[1]) <= 1e-12
        assert axes.lambda_major >= axes.lambda_minor >= 0.0


def test_axes_alpha_range():
    g = SplitMix64(4)
    for _ in range(200):
        cloud = random_anisotropic_cloud(g)
        axes = principal_axes(central_moments(cloud))
        assert -90.0 < axes.alpha_deg <= 90.0


def test_normalize_angle_deg():
    assert normalize_angle_deg(90.0) == 90.0
    assert normalize_angle_deg(-90.0) == 90.0
    assert normalize_angle_deg(135.0) == -45.0
    assert normalize_angle_deg(270.0) == 90.0
    assert normalize_angle_deg(-30.0) == -30.0
    assert normalize_angle_deg(720.5) == pytest.approx(0.5)


# --- extents ----------------------------------------------------------------

def test_extents_rectangle_corners():
    cloud = cloud_of((-2, -1), (2, -1), (2, 1), (-2, 1))
    axes = principal_axes(central_moments(cloud))
    assert axes.alpha_deg == 0.0
    assert oriented_extents(cloud, axes) == (4.0, 2.0)


def test_extents_rotated_rectangle():
    cloud = cloud_of((-2, -1), (2, -1), (2, 1), (-2, 1))
    rotated = rotate_cloud(cloud, 30.0)
    axes = principal_axes(central_moments(rotated))
    L, W = oriented_extents(rotated, axes)
    assert L == pytest.approx(4.0, abs=1e-9)
    assert W == pytest.approx(2.0, abs=1e-9)
    assert axes.alpha_deg == pytest.approx(30.0, abs=1e-9)


def test_extents_collinear_width_zero():
    cloud = cloud_of((0, 0), (1, 1), (2, 2))
    axes = principal_axes(central_moments(cloud))
    L, W = oriented_extents(cloud, axes)
    assert L == pytest.approx(2 * math.sqrt(2))
    assert W == 0.0


def test_extent_swap_when_spread_disagrees_with_variance():
    # Variance is dominated by the many +-x points, but the two lone +-y
    # points stretch farther: reported L must follow the larger spread and
    # alpha must flip to the axis that carries it.
    pts = [(1.0, 0.0), (-1.0, 0.0)] * 20 + [(0.0, 3.0), (0.0, -3.0)]
    cloud = cloud_of(*pts)
    axes = principal_axes(central_moments(cloud))
    assert axes.alpha_deg == 0.0  # eigen-major is still x
    L, W = oriented_extents(cloud, axes)
    assert (L, W) == (6.0, 2.0)
    feats = shape_descriptors(cloud)
    assert feats.length == 6.0 and feats.width == 2.0
    assert feats.alpha_deg == 90.0


# --- moments and extents against one array per measure ----------------------

def reference_central_moments(points):
    """The moments as np.mean of each 1-D product array."""
    gx, gy = (float(g) for g in points.mean(axis=0))
    dx, dy = points[:, 0] - gx, points[:, 1] - gy
    return (float(np.mean(dx * dx)), float(np.mean(dy * dy)), float(np.mean(dx * dy)),
            (gx, gy))  # fmt: skip


def reference_oriented_extents(points, axes):
    """(L, W) from one 1-D projection array per axis."""
    proj_major = points[:, 0] * axes.major[0] + points[:, 1] * axes.major[1]
    proj_minor = points[:, 0] * axes.minor[0] + points[:, 1] * axes.minor[1]
    ext_major = float(proj_major.max() - proj_major.min())
    ext_minor = float(proj_minor.max() - proj_minor.min())
    scale = max(ext_major, ext_minor)
    if ext_minor <= 1e-12 * scale:
        ext_minor = 0.0
    if ext_major <= 1e-12 * scale:
        ext_major = 0.0
    return max(ext_major, ext_minor), min(ext_major, ext_minor)


def moment_cloud(rng, family):
    # n < 8 and n > 128 take numpy's pairwise sum through its short loop
    # and through a regrouping of 128-element blocks
    n = int(rng.integers(3, 8)) if family == "short" else int(rng.integers(8, 400))
    if family == "lattice":  # ties everywhere, exact moments
        return rng.integers(-3, 4, size=(n, 2)).astype(float)
    pts = rng.normal(size=(n, 2)) @ rng.normal(size=(2, 2))
    if family == "offset":  # small spread far from the origin
        pts = pts * 1e-3 + rng.choice([-1e6, 1e6], size=2)
    return pts


@pytest.mark.parametrize("family", ["short", "long", "lattice", "offset"])
def test_moments_and_extents_match_per_measure_reference_bits(family):
    rng = np.random.default_rng(len(family))
    for _ in range(300):
        pts = moment_cloud(rng, family)
        cloud = PointCloud2D(points=pts)
        try:
            moments = central_moments(cloud)
        except DegenerateCloudError:
            assert reference_central_moments(pts)[:3] == (0.0, 0.0, 0.0)
            continue
        want = reference_central_moments(pts)
        assert float_bits(*moments[:3], *moments.centroid) == float_bits(
            *want[:3], *want[3]
        )
        axes = principal_axes(moments)
        assert float_bits(*oriented_extents(cloud, axes)) == float_bits(
            *reference_oriented_extents(pts, axes)
        )


# --- convex hull -------------------------------------------------------------

def brute_force_hull_vertices(points: np.ndarray) -> set:
    """A point is a hull vertex iff it is not inside (or on the boundary of)
    a triangle formed by three other points. O(n^4) but fine for small n."""
    pts = np.unique(points, axis=0)
    n = pts.shape[0]

    def cross2(u, v):
        return u[0] * v[1] - u[1] * v[0]

    def in_triangle(p, a, b, c):
        d1 = cross2(b - a, p - a)
        d2 = cross2(c - b, p - b)
        d3 = cross2(a - c, p - c)
        neg = (d1 < 0) or (d2 < 0) or (d3 < 0)
        pos = (d1 > 0) or (d2 > 0) or (d3 > 0)
        return not (neg and pos)

    vertices = set()
    for i in range(n):
        covered = False
        for a in range(n):
            if covered:
                break
            for b in range(a + 1, n):
                if covered:
                    break
                for c in range(b + 1, n):
                    if i in (a, b, c):
                        continue
                    area2 = cross2(pts[b] - pts[a], pts[c] - pts[a])
                    if area2 == 0:
                        continue
                    if in_triangle(pts[i], pts[a], pts[b], pts[c]):
                        covered = True
                        break
        if not covered:
            vertices.add(tuple(pts[i]))
    return vertices


def test_hull_square_with_interior_point():
    hull = convex_hull(cloud_of((0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)))
    assert len(hull.vertices) == 4
    assert set(map(tuple, hull.vertices)) == {(0, 0), (1, 0), (1, 1), (0, 1)}


def test_hull_collinear_raises():
    with pytest.raises(CollinearCloudError):
        convex_hull(cloud_of((0, 0), (1, 1), (2, 2), (3, 3)))


# the other measures take a cloud of at least 3 points, which every
# function that builds one guarantees; the hull's own outcomes remain
@pytest.mark.parametrize("measure,error", [
    (lambda: convex_hull(cloud_of((0, 0), (1, 1))), CollinearCloudError),
], ids=["hull"])
def test_measure_of_a_degenerate_cloud_raises(measure, error):
    with pytest.raises(error):
        measure()


def test_hull_drops_collinear_boundary_points():
    hull = convex_hull(cloud_of((0, 0), (1, 0), (2, 0), (2, 2), (0, 2)))
    assert (1.0, 0.0) not in set(map(tuple, hull.vertices))


def test_hull_is_ccw_and_contains_all_points():
    g = SplitMix64(7)
    for _ in range(30):
        pts = np.array(
            [[g.uniform_in(-3, 3), g.uniform_in(-3, 3)] for _ in range(40)]
        )
        hull = convex_hull(PointCloud2D(points=pts))
        v = np.asarray(hull.vertices)
        # every input point on or inside every edge (CCW: cross >= 0)
        for i in range(v.shape[0]):
            edge = v[(i + 1) % v.shape[0]] - v[i]
            rel = pts - v[i]
            crosses = edge[0] * rel[:, 1] - edge[1] * rel[:, 0]
            assert crosses.min() >= -1e-12


def test_hull_matches_brute_force_seed7():
    g = SplitMix64(7)
    pts = np.array([[g.uniform(), g.uniform()] for _ in range(50)])
    hull = convex_hull(PointCloud2D(points=pts))
    assert set(map(tuple, hull.vertices)) == brute_force_hull_vertices(pts)


def reference_hull(points: np.ndarray) -> np.ndarray:
    """Andrew's monotone chain on numpy scalars over np.unique rows.

    The straightforward form of the algorithm: convex_hull must give the
    same vertex bits, or raise the same error class.
    """
    if points.shape[0] < 3:
        raise CollinearCloudError("need at least 3 points for a hull")
    pts = np.unique(points, axis=0)
    if pts.shape[0] < 3:
        raise CollinearCloudError("fewer than 3 distinct points")

    def cross(o, a, b):
        return float((a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0]))

    def build(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2 and cross(chain[-2], chain[-1], p) <= 0.0:
                chain.pop()
            chain.append(p)
        return chain

    hull = build(pts)[:-1] + build(pts[::-1])[:-1]
    if len(hull) < 3:
        raise CollinearCloudError("all points are collinear")
    return np.array(hull, dtype=np.float64)


def hull_outcome(fn, points):
    try:
        return fn(points)
    except CollinearCloudError as exc:
        return type(exc)


@functools.cache
def benchmark_records() -> tuple[np.ndarray, ...]:
    """The records `ect-shape synth` makes from the benchmark's three specs,
    at the benchmark's default seeds."""
    records = []
    for spec, seed in (("traces-256", 7), ("traces-short", 7), ("crossval", 42)):
        text = (SPEC_DIR / f"{spec}.json").read_text()
        for clouds in generate_synthetic(parse_synth_spec(text), seed):
            records += [cloud.points for cloud in clouds]
    return tuple(records)


def oracle_cloud(rng: np.random.Generator, family: str) -> np.ndarray:
    n = int(rng.integers(3, 90))
    if family == "grid":  # duplicates and collinear runs on a small lattice
        pts = rng.integers(-2, 3, size=(n, 2)).astype(float)
    elif family == "lines":  # collinear runs with a few points off the line
        t = rng.integers(-4, 5, size=n).astype(float)
        pts = np.column_stack((t, 2.0 * t + (rng.random(n) < 0.1)))
    elif family == "extremes":  # overflow to inf and NaN cross products
        values = [0.0, 1.0, -1.0, 1e300, -1e300, 1.7976931348623157e308,
                  -1.7976931348623157e308, 1e-320, 5e-324]
        pts = rng.choice(values, size=(n, 2))
    elif family == "near-line":  # points a few ulps off a line y = a*x + b
        a, b = rng.normal(size=2) * 10.0 ** rng.integers(-3, 4, size=2)
        x = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
        y = a * x + b
        pts = np.column_stack((x, y + rng.integers(-3, 4, size=n) * np.spacing(y)))
    elif family == "ellipse":  # a dense noisy trace, noise 1e-16 to 1e-1
        m = int(rng.integers(64, 257))
        theta = 2.0 * np.pi * np.arange(m) / m
        phi = rng.uniform(-np.pi, np.pi)
        rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
        pts = np.column_stack((3.0 * np.cos(theta), np.sin(theta))) @ rot.T
        pts += rng.normal(size=2) * 5.0
        pts += rng.normal(size=(m, 2)) * 10.0 ** rng.uniform(-16, -1)
    elif family == "synth":  # a record of the benchmark's synth step
        records = benchmark_records()
        pts = records[rng.integers(len(records))].copy()
    else:  # a noisy cloud at one scale, with repeated rows
        scale = {"1e300": 1e300, "1e-300": 1e-300, "1e-320": 1e-320}[family]
        pts = rng.normal(size=(n, 2)) * scale
        pts = np.vstack((pts, pts[rng.integers(0, n, size=n // 3)]))
        pts[rng.random(pts.shape) < 0.1] = 0.0
    pts[(pts == 0.0) & (rng.random(pts.shape) < 0.5)] = -0.0
    return pts


@pytest.mark.parametrize(
    "seed,family",
    enumerate([
        "grid", "lines", "extremes", "1e300", "1e-300", "1e-320",
        "near-line", "ellipse", "synth",
    ]),
)  # fmt: skip
def test_hull_matches_numpy_scalar_reference_bits(seed, family):
    rng = np.random.default_rng(seed)
    with np.errstate(all="ignore"):
        for _ in range(250):
            pts = oracle_cloud(rng, family)
            want = hull_outcome(reference_hull, pts)
            got = hull_outcome(
                lambda p: convex_hull(PointCloud2D(points=p)).vertices, pts
            )
            if isinstance(want, type) or isinstance(got, type):
                assert got is want
            else:
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
                # cross products that overflow to inf or NaN can leave a
                # clockwise or straight turn, even a repeated vertex; where
                # none overflows every turn is CCW (the pipeline measures no
                # coordinate beyond 2**500, see central_moments). Near-line
                # turns are straight up to rounding, and the roll check's
                # differences round otherwise than the chain's
                if family not in ("extremes", "1e300", "near-line"):
                    assert reference_strictly_convex_ccw(got)


@st.composite
def hull_input(draw):
    """Rows drawn from a small pool of values, so that duplicates, ties and
    collinear runs are common. "finite": coordinates of magnitude at most
    2**500, ±0.0 and subnormals among them, some pairs a few ulps apart;
    "past the gate": the same with one value beyond 2**500 or a nonzero one
    below 2**-459, where convex_hull gives each chain every row; "lattice":
    a small integer lattice, scaled and shifted."""
    kind = draw(st.sampled_from(["finite", "past the gate", "lattice"]))
    n = draw(st.integers(3, 40))
    if kind == "lattice":
        k = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                          min_size=n, max_size=n))
        scale = draw(st.sampled_from([1.0, 0.1, 3.7, 2.0**-30, 1e6]))
        shift = draw(st.sampled_from([0.0, 0.3, -1e3, 2.0**20 + 0.5]))
        return np.array(k, dtype=float) * scale + shift
    finite = st.floats(-(2.0**500), 2.0**500, allow_nan=False)
    pool = draw(st.lists(finite, min_size=1, max_size=6))
    ulps = draw(st.lists(st.integers(-3, 3), max_size=3))
    pool += [pool[0] + k * np.spacing(pool[0]) for k in ulps]
    if kind == "past the gate":
        big = st.floats(2.0**500, 2.0**510, exclude_min=True)
        tiny = st.floats(0.0, 2.0**-459, exclude_min=True, exclude_max=True)
        value = draw(big | tiny)
        pool.append(value * draw(st.sampled_from([1.0, -1.0])))
    index = st.integers(0, len(pool) - 1)
    rows = draw(st.lists(st.tuples(index, index), min_size=n, max_size=n))
    if kind == "past the gate":
        rows[0] = (len(pool) - 1, rows[0][1])
    return np.array([[pool[i], pool[j]] for i, j in rows])


@settings(max_examples=400, deadline=None)
@given(points=hull_input())
def test_hull_matches_reference_bits_on_drawn_clouds(points):
    assert_hull_matches_reference(points)


def assert_hull_matches_reference(points):
    with np.errstate(all="ignore"):
        want = hull_outcome(reference_hull, points)
        got = hull_outcome(
            lambda p: convex_hull(PointCloud2D(points=p)).vertices, points
        )
    if isinstance(want, type) or isinstance(got, type):
        assert got is want
    else:
        assert got.tobytes() == want.tobytes()


# On these clouds the chains over the quadrant-maxima candidates alone give
# other vertices than the chains over every row: two rows lie within
# 2**-49 * 2**53 = 16 of each other in both coordinates, or the products of
# coordinate differences underflow. convex_hull must see it and run both
# chains over every row.
@pytest.mark.parametrize("points", [
    [[-(2.0**53), 1.0], [0.0, 0.0], [0.0, 1.0], [1.0, -(2.0**53)]],
    [[1e-162, -9e-163], [7e-163, 6e-163], [3e-163, -1e-162], [-1e-162, -8e-163]],
], ids=["close rows", "underflow"])  # fmt: skip
def test_hull_chains_take_every_row_where_rounding_could_tell(points):
    assert_hull_matches_reference(np.array(points))


# --- polygon measures --------------------------------------------------------

def test_area_perimeter_unit_square():
    poly = ConvexPolygon(vertices=np.array(((0, 0), (1, 0), (1, 1), (0, 1)), dtype=float))
    assert polygon_area_perimeter(poly) == (1.0, 4.0)


def test_area_perimeter_345_triangle():
    poly = ConvexPolygon(vertices=np.array(((0, 0), (4, 0), (0, 3)), dtype=float))
    a, p = polygon_area_perimeter(poly)
    assert a == pytest.approx(6.0)
    assert p == pytest.approx(12.0)


def test_area_perimeter_360gon():
    n = 360
    t = 2 * np.pi * np.arange(n) / n
    poly = convex_hull(PointCloud2D(points=np.column_stack((np.cos(t), np.sin(t)))))
    a, p = polygon_area_perimeter(poly)
    assert a == pytest.approx((n / 2) * math.sin(2 * math.pi / n), abs=1e-12)
    assert p == pytest.approx(2 * n * math.sin(math.pi / n), abs=1e-12)
    assert abs(a - math.pi) < 1e-3
    assert abs(p - 2 * math.pi) < 1e-3


def test_contour_perimeter_depends_on_order():
    square = cloud_of((0, 0), (1, 0), (1, 1), (0, 1))
    assert contour_perimeter(square) == pytest.approx(4.0)
    crossing = cloud_of((0, 0), (1, 1), (1, 0), (0, 1))
    assert contour_perimeter(crossing) == pytest.approx(2.0 + 2.0 * math.sqrt(2))


def reference_area_perimeter(vertices):
    nxt = np.roll(vertices, -1, axis=0)
    area = 0.5 * float(np.sum(vertices[:, 0] * nxt[:, 1] - nxt[:, 0] * vertices[:, 1]))
    edges = np.hypot(nxt[:, 0] - vertices[:, 0], nxt[:, 1] - vertices[:, 1])
    return area, float(np.sum(edges))


def reference_contour_perimeter(points):
    nxt = np.roll(points, -1, axis=0)
    return float(np.sum(np.hypot(nxt[:, 0] - points[:, 0], nxt[:, 1] - points[:, 1])))


def reference_strictly_convex_ccw(vertices):
    nxt = np.roll(vertices, -1, axis=0)
    nxt2 = np.roll(vertices, -2, axis=0)
    cross = (nxt[:, 0] - vertices[:, 0]) * (nxt2[:, 1] - nxt[:, 1]) - (
        nxt[:, 1] - vertices[:, 1]
    ) * (nxt2[:, 0] - nxt[:, 0])
    return bool((cross > 0).all())


def float_bits(*values):
    return np.array(values, dtype=np.float64).tobytes()


@pytest.mark.parametrize(
    "seed,family",
    enumerate(["grid", "lines", "extremes", "1e300", "1e-300", "1e-320"]),
)
def test_polygon_measures_match_roll_reference_bits(seed, family):
    rng = np.random.default_rng(100 + seed)
    with np.errstate(all="ignore"):
        for _ in range(250):
            pts = oracle_cloud(rng, family)
            cloud = PointCloud2D(points=pts)
            assert float_bits(contour_perimeter(cloud)) == float_bits(
                reference_contour_perimeter(pts)
            )
            try:
                verts = convex_hull(cloud).vertices
            except CollinearCloudError:  # as in hull_outcome
                continue
            assert float_bits(*polygon_area_perimeter(ConvexPolygon(verts))) == (
                float_bits(*reference_area_perimeter(verts))
            )


# --- full descriptor set -----------------------------------------------------

def test_descriptors_rectangle():
    feats = shape_descriptors(rectangle_boundary(4.0, 2.0))
    assert feats.length == pytest.approx(4.0)
    assert feats.width == pytest.approx(2.0)
    assert feats.alpha_deg == pytest.approx(0.0)
    assert feats.area == pytest.approx(8.0)
    assert feats.perimeter == pytest.approx(12.0)
    assert feats.compactness == pytest.approx(4 * math.pi * 8 / 144)
    assert feats.elongation == pytest.approx(2.0)
    assert feats.rectangularity == pytest.approx(1.0)
    assert feats.convexity == pytest.approx(1.0)
    assert 0.0 < feats.eccentricity < 1.0


def test_descriptors_360gon_circle():
    n = 360
    t = 2 * np.pi * np.arange(n) / n
    feats = shape_descriptors(
        PointCloud2D(points=np.column_stack((np.cos(t), np.sin(t))))
    )
    assert abs(feats.compactness - 1.0) < 1e-4
    assert feats.compactness <= 1.0 + 1e-9
    assert abs(feats.elongation - 1.0) < 1e-6
    assert abs(feats.eccentricity - 1.0) < 1e-6
    assert feats.convexity == pytest.approx(1.0)
    assert feats.alpha_deg == 0.0  # fourfold symmetry -> isotropic tie


def test_descriptors_collinear_zero_width():
    with pytest.raises(ZeroWidthError):
        shape_descriptors(cloud_of((0, 0), (1, 1), (2, 2), (3, 3)))


def test_feature_vector_and_names():
    feats = shape_descriptors(rectangle_boundary())
    assert FEATURE_NAMES_BASIC == ("L", "W", "alpha_deg")
    assert len(FEATURE_NAMES_EXTENDED) == 10
    full = np.array(feats)
    assert full.shape == (10,) and full.dtype == np.float64
    assert feats._fields == ("length", "width") + FEATURE_NAMES_EXTENDED[2:]
    assert feats[:3] == (feats.length, feats.width, feats.alpha_deg)
    assert list(full) == [getattr(feats, name) for name in feats._fields]


def descriptor_cloud(rng, family):
    """A cloud from the moment and hull oracle families, or one the box
    rejects: a collinear one, or one with a coordinate beyond 2**500."""
    if family == "zero-width":
        t = rng.normal(size=int(rng.integers(3, 60)))
        return np.column_stack((t, 3.0 * t - 1.0))
    if family == "beyond 2**500":
        pts = moment_cloud(rng, "long")
        pts[rng.integers(pts.shape[0]), rng.integers(2)] = 2.0**501
        return pts
    if family in ("short", "long", "lattice", "offset"):
        return moment_cloud(rng, family)
    return oracle_cloud(rng, family)


def descriptor_outcome(cloud, **kwargs):
    """The bits of the first three descriptors, or the class of the error."""
    try:
        return float_bits(*shape_descriptors(cloud, **kwargs)[:3])
    except EctShapeError as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from([
        "short", "long", "lattice", "offset", "grid", "lines", "extremes",
        "1e300", "1e-300", "1e-320", "zero-width", "beyond 2**500",
    ]),
)  # fmt: skip
def test_basic_triple_is_the_head_of_the_full_signature_bits(seed, family):
    cloud = PointCloud2D(points=descriptor_cloud(np.random.default_rng(seed), family))
    with np.errstate(all="ignore"):
        full = descriptor_outcome(cloud)
        basic = descriptor_outcome(cloud, basic=True)
    if family == "zero-width":
        assert basic is ZeroWidthError
    if family == "beyond 2**500":
        assert basic is DegenerateCloudError
    if isinstance(basic, type):
        assert full is basic
    elif isinstance(full, type):  # only the hull's measures fail after the box
        assert full in (CollinearCloudError, DegenerateCloudError)
    else:
        assert basic == full


# --- invariance under rigid motions and scaling ------------------------------

_SCALAR_FIELDS = (
    "length", "width", "area", "perimeter", "compactness",
    "elongation", "rectangularity", "eccentricity", "convexity",
)


def assert_in_range(feats):
    """What shape_descriptors guarantees of every signature it returns."""
    assert feats.length >= feats.width
    assert -90.0 < feats.alpha_deg <= 90.0
    assert 0.0 <= feats.eccentricity <= 1.0


def test_translation_invariance():
    g = SplitMix64(21)
    for _ in range(25):
        cloud = random_anisotropic_cloud(g)
        f0 = shape_descriptors(cloud)
        f1 = shape_descriptors(
            translate_cloud(cloud, g.uniform_in(-100, 100), g.uniform_in(-100, 100))
        )
        for name in _SCALAR_FIELDS:
            a, b = getattr(f0, name), getattr(f1, name)
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a)), name
        assert_in_range(f0)
        assert_in_range(f1)
        assert angles_close(f0.alpha_deg, f1.alpha_deg, 1e-9)


def test_rotation_covariance():
    g = SplitMix64(22)
    for _ in range(25):
        cloud = random_anisotropic_cloud(g)
        theta = g.uniform_in(-179.0, 179.0)
        f0 = shape_descriptors(cloud)
        f1 = shape_descriptors(rotate_cloud(cloud, theta))
        for name in _SCALAR_FIELDS:
            a, b = getattr(f0, name), getattr(f1, name)
            assert abs(a - b) <= 1e-6 * max(1.0, abs(a)), name
        assert_in_range(f0)
        assert_in_range(f1)
        assert angles_close(f0.alpha_deg + theta, f1.alpha_deg, 1e-6)


def test_scale_covariance():
    g = SplitMix64(23)
    for _ in range(25):
        cloud = random_anisotropic_cloud(g)
        s = g.uniform_in(0.1, 10.0)
        f0 = shape_descriptors(cloud)
        f1 = shape_descriptors(scale_cloud(cloud, s))
        assert abs(f1.length - s * f0.length) <= 1e-9 * max(1.0, s * f0.length)
        assert abs(f1.width - s * f0.width) <= 1e-9 * max(1.0, s * f0.width)
        assert abs(f1.perimeter - s * f0.perimeter) <= 1e-9 * max(1.0, s * f0.perimeter)
        assert abs(f1.area - s * s * f0.area) <= 1e-9 * max(1.0, s * s * f0.area)
        for name in ("compactness", "elongation", "rectangularity",
                     "eccentricity", "convexity"):
            a, b = getattr(f0, name), getattr(f1, name)
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a)), name
        assert_in_range(f0)
        assert_in_range(f1)
        assert angles_close(f0.alpha_deg, f1.alpha_deg, 1e-9)


def test_compactness_bounded_on_random_clouds():
    g = SplitMix64(24)
    for _ in range(40):
        cloud = random_anisotropic_cloud(g)
        feats = shape_descriptors(cloud)
        assert feats.compactness <= 1.0 + 1e-9
        assert 0.0 <= feats.eccentricity <= 1.0
        assert feats.length >= feats.width
        assert feats.convexity <= 1.0 + 1e-12  # hull perimeter is minimal
