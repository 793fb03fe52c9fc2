"""Geometric signature of a planar point cloud.

The signature is built from the cloud's second-moment (covariance)
structure and its convex hull: centroid, principal inertia axes,
orientation angle, oriented extents (length/width of the inertia-aligned
bounding box), hull area and perimeter, and five derived descriptors
(compactness, elongation, rectangularity, eccentricity, convexity).

Each function takes a cloud built by ``to_point_cloud``, ``trim_noise``
or ``generate_synthetic``, which hold at least 3 points, and does not
check its size again. All operations are pure and deterministic. Angles
are reported in degrees in (-90, 90] because an undirected axis is only
defined modulo 180 degrees.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import CollinearCloudError, DegenerateCloudError, ZeroWidthError
from .preprocess import PointCloud2D

# relative minor-axis extent below which a cloud counts as collinear
_ZERO_WIDTH_REL = 1e-12
# absolute moment magnitude below which the axis direction is a tie
_ISOTROPY_TOL = 1e-12
# largest coordinate magnitude measured: below it no moment, hull cross
# product, area or squared perimeter overflows for fewer than 2**20 points.
# convex_hull also filters its chains' rows only below it; measuring at
# unit scale (ROADMAP item 7) would make that gate always hold
_MAX_COORD = 2.0**500
# smallest nonzero coordinate magnitude at which convex_hull filters its
# chains' rows: no product of two coordinate differences underflows
_MIN_COORD = 2.0**-459

FEATURE_NAMES_BASIC = ("L", "W", "alpha_deg")
FEATURE_NAMES_EXTENDED = (
    "L",
    "W",
    "alpha_deg",
    "area",
    "perimeter",
    "compactness",
    "elongation",
    "rectangularity",
    "eccentricity",
    "convexity",
)


class CentralMoments2(NamedTuple):
    """Second-order central moments and the centroid they are taken about."""

    mu20: float
    mu02: float
    mu11: float
    centroid: tuple[float, float]


class PrincipalAxes(NamedTuple):
    """Eigenstructure of the covariance matrix, major axis first.

    alpha_deg is the angle from the +x axis to the major axis, in
    (-90, 90]. minor is major rotated +90 degrees.
    """

    alpha_deg: float
    major: tuple[float, float]
    minor: tuple[float, float]
    lambda_major: float
    lambda_minor: float


class ConvexPolygon(NamedTuple):
    """Strictly convex polygon, (m, 2) vertices counter-clockwise."""

    vertices: np.ndarray

    @property
    def n_vertices(self) -> int:
        return int(self.vertices.shape[0])


class ShapeFeatures(NamedTuple):
    """The full geometric signature of one impedance shape.

    The fields are the ten values in FEATURE_NAMES_EXTENDED order, so
    ``np.array(feats)`` is a feature row and ``feats[:3]`` its basic part.
    length/width are the extents of the inertia-aligned bounding box
    (length >= width); area/perimeter come from the convex hull.
    """

    length: float
    width: float
    alpha_deg: float
    area: float
    perimeter: float
    compactness: float
    elongation: float
    rectangularity: float
    eccentricity: float
    convexity: float


def centroid(cloud: PointCloud2D) -> tuple[float, float]:
    """Arithmetic mean of the point coordinates."""
    gx, gy = (np.add.reduce(cloud.points, axis=0) / cloud.n).tolist()
    return gx, gy


def central_moments(cloud: PointCloud2D) -> CentralMoments2:
    """Population (1/n) second moments about the centroid.

    The centroid is the column sum over n, and the three moments are the
    row sums over n of one C-contiguous (3, n) block of products dx*dx,
    dy*dy and dx*dy: numpy sums each contiguous row pairwise, as
    ``np.mean`` sums a 1-D array, so these are the bits of ``np.mean``.

    Raises DegenerateCloudError for a coordinate beyond 2**500 in
    magnitude, where the measures downstream could overflow, and where
    all three moments are zero: the points are all equal, or so close
    together that their squared deviations underflow.
    """
    n = cloud.n
    if np.abs(cloud.points).max() > _MAX_COORD:
        raise DegenerateCloudError("a coordinate exceeds 2**500 in magnitude")
    gx, gy = centroid(cloud)
    products = np.empty((3, n))
    deltas = products[:2]
    np.subtract(cloud.points.T, ((gx,), (gy,)), out=deltas)
    np.multiply(deltas[0], deltas[1], out=products[2])
    np.multiply(deltas, deltas, out=deltas)
    mu20, mu02, mu11 = (np.add.reduce(products, axis=1) / n).tolist()
    if mu20 == 0.0 and mu02 == 0.0 and mu11 == 0.0:
        if (cloud.points == cloud.points[0]).all():
            raise DegenerateCloudError("all points identical; moments are zero")
        raise DegenerateCloudError(
            "points differ, but their squared deviations underflow to zero"
        )
    return CentralMoments2(mu20=mu20, mu02=mu02, mu11=mu11, centroid=(gx, gy))


def normalize_angle_deg(angle: float) -> float:
    """Reduce an axis angle modulo 180 into (-90, 90]."""
    a = math.fmod(angle, 180.0)
    if a <= -90.0:
        a += 180.0
    elif a > 90.0:
        a -= 180.0
    return a


def principal_axes(moments: CentralMoments2) -> PrincipalAxes:
    """Closed-form eigenstructure of [[mu20, mu11], [mu11, mu02]], for
    moments from ``central_moments``, which are never all zero.

    Isotropic clouds (both |mu20 - mu02| and |mu11| below 1e-12) have no
    preferred direction; the angle is 0 by convention.
    """
    mu20, mu02, mu11 = moments.mu20, moments.mu02, moments.mu11
    mean = 0.5 * (mu20 + mu02)
    half_diff = 0.5 * (mu20 - mu02)
    disc = math.hypot(half_diff, mu11)
    lam_major = mean + disc
    lam_minor = max(0.0, mean - disc)
    if abs(mu20 - mu02) <= _ISOTROPY_TOL and abs(mu11) <= _ISOTROPY_TOL:
        alpha_deg = 0.0
    else:
        alpha_deg = normalize_angle_deg(
            math.degrees(0.5 * math.atan2(2.0 * mu11, mu20 - mu02))
        )
    rad = math.radians(alpha_deg)
    major = (math.cos(rad), math.sin(rad))
    minor = (-major[1], major[0])
    return PrincipalAxes(
        alpha_deg=alpha_deg,
        major=major,
        minor=minor,
        lambda_major=lam_major,
        lambda_minor=lam_minor,
    )


def _oriented_box(
    cloud: PointCloud2D, axes: PrincipalAxes
) -> tuple[float, float, float]:
    """(L, W, alpha_deg) of the inertia-aligned bounding box, L >= W.

    When the projections disagree with the eigen ordering the box is the
    one aligned with the longer extent, so alpha is rotated by 90 degrees.
    """
    # row 0 projects onto the major axis, row 1 onto the minor one
    (ux, uy), (vx, vy) = axes.major, axes.minor
    proj = cloud.x * ((ux,), (vx,)) + cloud.y * ((uy,), (vy,))
    ext_major, ext_minor = (proj.max(axis=1) - proj.min(axis=1)).tolist()
    scale = max(ext_major, ext_minor)
    if ext_minor <= _ZERO_WIDTH_REL * scale:
        ext_minor = 0.0
    if ext_major <= _ZERO_WIDTH_REL * scale:
        ext_major = 0.0
    if ext_major >= ext_minor:
        return ext_major, ext_minor, axes.alpha_deg
    return ext_minor, ext_major, normalize_angle_deg(axes.alpha_deg + 90.0)


def convex_hull(cloud: PointCloud2D) -> ConvexPolygon:
    """Smallest convex polygon containing all points (monotone chain).

    Vertices are CCW; collinear boundary points are dropped. The chain
    runs on the Python floats of `.tolist()`: they are the same IEEE
    doubles, and arithmetic on them costs a fraction of numpy-scalar
    indexing.

    Each half-chain runs only on its quadrant-maxima candidates: the rows
    whose y is at least as low (lower chain) or as high (upper chain) as
    every y before them, or every y after them, in sort order. A dropped
    row has a row strictly further out on each side, so the chain over
    every row pops it, and all it popped, by the next candidate; rounding
    is monotone, so the vertices keep their bits. Rounding could tell the
    two apart only by popping a chain's lowest (highest) point for a point
    no lower (higher). That takes a product that overflows (a coordinate
    beyond `_MAX_COORD`, the bound that also caps what is measured) or
    underflows (a nonzero one below `_MIN_COORD`), or two rows within
    2**-49 of the largest coordinate magnitude of each other in both
    coordinates. Where `_candidates_suffice` cannot rule these out, both
    chains take every row. Measuring at unit scale (ROADMAP item 7) would
    make the `_MAX_COORD` gate always hold.
    """
    ordered = _sorted_distinct(cloud.points)
    if ordered.shape[0] < 3:
        raise CollinearCloudError("fewer than 3 distinct points")
    lower = upper = slice(None)
    if _candidates_suffice(ordered):
        # a row is as low as every row before it iff it is the running min
        y, back = ordered[:, 1], ordered[::-1, 1]
        low, high = np.minimum.accumulate, np.maximum.accumulate
        lower = (y == low(y)) | (y == low(back)[::-1])
        upper = (y == high(y)) | (y == high(back)[::-1])
    hull = (
        _half_hull(ordered[lower].tolist())[:-1]
        + _half_hull(ordered[upper][::-1].tolist())[:-1]
    )
    if len(hull) < 3:
        raise CollinearCloudError("all points are collinear")
    return ConvexPolygon(vertices=np.array(hull, dtype=np.float64))


def _candidates_suffice(ordered: np.ndarray) -> bool:
    """Whether every coordinate is 0 or within [_MIN_COORD, _MAX_COORD] in
    magnitude, and no two sorted rows lie within 2**-49 of the largest
    magnitude of each other in both coordinates. Rows that close have a
    nonzero x gap that small between neighbours, or neighbours of equal x
    (whose ys are sorted) with a y gap that small."""
    mag = np.abs(ordered)
    top = mag.max()
    if not top <= _MAX_COORD:
        return False
    if mag.min() < _MIN_COORD and ((mag < _MIN_COORD) & (mag != 0.0)).any():
        return False
    tol = 2.0**-49 * top
    dx, dy = (ordered[1:] - ordered[:-1]).T
    return not ((dx <= tol) & ((dx > 0.0) | (dy <= tol))).any()


def _sorted_distinct(points: np.ndarray) -> np.ndarray:
    """Rows sorted by (x, y) with equal rows dropped, as np.unique(axis=0).

    Rows that compare equal but differ in the sign of a zero are a group
    whose survivor np.unique picks by an unstable sort; only for such
    clouds is np.unique itself used, so the survivor's bits stay the same.
    """
    ordered = points[np.lexsort((points[:, 1], points[:, 0]))]
    fresh = np.empty(ordered.shape[0], dtype=bool)
    fresh[0] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=fresh[1:])
    if not fresh.all():
        bits = ordered.view(np.uint64)
        if np.any(~fresh[1:] & np.any(bits[1:] != bits[:-1], axis=1)):
            return np.unique(points, axis=0)
    return ordered[fresh]


def _half_hull(pts: list[list[float]]) -> list[list[float]]:
    chain: list[list[float]] = []
    for p in pts:
        px, py = p
        while len(chain) >= 2:
            ox, oy = chain[-2]
            ax, ay = chain[-1]
            # pop on a clockwise or straight turn; a NaN cross product
            # (overflow near 1e308) compares false and keeps the point
            if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) <= 0.0:
                chain.pop()
            else:
                break
        chain.append(p)
    return chain


def polygon_area_perimeter(poly: ConvexPolygon) -> tuple[float, float]:
    """Shoelace area (positive for CCW) and edge-length sum."""
    v = poly.vertices
    nxt = np.concatenate((v[1:], v[:1]))
    edges = nxt - v
    area = 0.5 * float(np.add.reduce(v[:, 0] * nxt[:, 1] - nxt[:, 0] * v[:, 1]))
    perimeter = float(np.add.reduce(np.hypot(edges[:, 0], edges[:, 1])))
    return area, perimeter


def contour_perimeter(cloud: PointCloud2D) -> float:
    """Perimeter of the closed polyline through the points in stored order."""
    pts = cloud.points
    edges = np.concatenate((pts[1:], pts[:1])) - pts
    return float(np.add.reduce(np.hypot(edges[:, 0], edges[:, 1])))


def shape_descriptors(
    cloud: PointCloud2D, basic: bool = False
) -> ShapeFeatures | tuple[float, float, float]:
    """Compute the full signature of a cloud, or with basic=True only its
    (L, W, alpha_deg) triple, the FEATURE_NAMES_BASIC columns.

    Area and perimeter are taken from the convex hull (the input is a
    sampled curve, not a filled image). Convexity compares the hull
    perimeter against the closed acquisition-order polyline. The basic
    triple stops before the hull: it is the first three values of the full
    signature, bit for bit, and never meets the hull's errors.

    Raises ZeroWidthError for (numerically) collinear clouds, where
    elongation is undefined, and DegenerateCloudError where rounding makes
    the hull's compactness exceed the isoperimetric bound of 1.
    """
    moments = central_moments(cloud)
    axes = principal_axes(moments)
    length, width, alpha_deg = _oriented_box(cloud, axes)
    if width == 0.0:
        raise ZeroWidthError("cloud is collinear; elongation undefined")
    if basic:
        return length, width, alpha_deg

    hull = convex_hull(cloud)
    area, hull_perimeter = polygon_area_perimeter(hull)
    compactness = 4.0 * math.pi * area / hull_perimeter**2
    if compactness > 1.0 + 1e-9:
        raise DegenerateCloudError("hull compactness exceeds the isoperimetric bound")
    elongation = length / width
    rectangularity = area / (length * width)
    eccentricity = math.sqrt(axes.lambda_minor / axes.lambda_major)
    convexity = hull_perimeter / contour_perimeter(cloud)
    return ShapeFeatures(
        length=length,
        width=width,
        alpha_deg=alpha_deg,
        area=area,
        perimeter=hull_perimeter,
        compactness=compactness,
        elongation=elongation,
        rectangularity=rectangularity,
        eccentricity=min(1.0, eccentricity),
        convexity=convexity,
    )
