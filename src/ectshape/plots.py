"""Static SVG renderings: per-record impedance-plane views and feature scatters.

Self-contained markup with no external assets or scripts. Structural
elements carry stable class attributes (principal-axis, bounding-box,
legend-entry) so output can be checked mechanically.
"""

from __future__ import annotations

import numpy as np

from .dataset import FeatureTable
from .geometry import central_moments, principal_axes
from .preprocess import PointCloud2D

_POINT_COLOR = "#336699"
_ACCENT_COLOR = "#cc3333"
_BOX_COLOR = "#228833"


def _escape(text: str) -> str:
    """XML character data for text: `&` first, so the other two stay single
    entities (the same bytes as `xml.sax.saxutils.escape` with no extras)."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _svg_open(width: int, height: int) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}"'
        f' viewBox="0 0 {width} {height}" font-family="sans-serif">'
    )


class _Frame:
    """Maps a data rectangle onto a screen rectangle, y axis flipped."""

    def __init__(
        self,
        x0: float,
        y0: float,
        width: float,
        height: float,
        data_min: tuple[float, float],
        data_max: tuple[float, float],
        equal_aspect: bool = False,
    ) -> None:
        self.x0, self.y0, self.width, self.height = x0, y0, width, height
        spans = [max(data_max[i] - data_min[i], 0.0) for i in range(2)]
        # degenerate span: center the data on a unit range
        mins = list(data_min)
        for i in range(2):
            if spans[i] == 0.0:
                mins[i] -= 0.5
                spans[i] = 1.0
        pad = 0.05
        self.dmin = [mins[i] - pad * spans[i] for i in range(2)]
        spans = [spans[i] * (1 + 2 * pad) for i in range(2)]
        self.scale = [width / spans[0], height / spans[1]]
        if equal_aspect:
            s = min(self.scale)
            # recenter the slack axis so the shape stays in the middle
            for i, extent in enumerate((width, height)):
                slack = extent / s - spans[i]
                self.dmin[i] -= slack / 2
            self.scale = [s, s]

    def to_screen(self, x: float, y: float) -> tuple[float, float]:
        sx = self.x0 + (x - self.dmin[0]) * self.scale[0]
        sy = self.y0 + self.height - (y - self.dmin[1]) * self.scale[1]
        return sx, sy

    def frame_rect(self) -> str:
        return (
            f'<rect class="frame" x="{_fmt(self.x0)}" y="{_fmt(self.y0)}"'
            f' width="{_fmt(self.width)}" height="{_fmt(self.height)}"'
            f' fill="none" stroke="#888" stroke-width="1"/>'
        )

    def axis_labels(self, x_label: str, y_label: str) -> list[str]:
        cx = self.x0 + self.width / 2
        cy = self.y0 + self.height / 2
        below = self.y0 + self.height + 28
        left = self.x0 - 30
        return [
            f'<text x="{_fmt(cx)}" y="{_fmt(below)}" text-anchor="middle"'
            f' font-size="13">{_escape(x_label)}</text>',
            f'<text x="{_fmt(left)}" y="{_fmt(cy)}" text-anchor="middle"'
            f' font-size="13" transform="rotate(-90 {_fmt(left)} {_fmt(cy)})">'
            f"{_escape(y_label)}</text>",
        ]


def record_svg(cloud: PointCloud2D, record_id: str = "") -> str:
    """Impedance-plane scatter with centroid, principal axis and oriented box.

    Emits exactly one principal-axis line and one bounding-box polygon.
    """
    moments = central_moments(cloud)
    axes = principal_axes(moments)
    cx, cy = moments.centroid
    (ux, uy), (vx, vy) = axes.major, axes.minor
    u, v = np.array(axes.major), np.array(axes.minor)
    # term by term, as geometry's oriented box: row 0 onto u, row 1 onto v
    su, sv = cloud.x * ((ux,), (vx,)) + cloud.y * ((uy,), (vy,))
    # oriented box corners, walked around the rectangle
    corners = [
        su.min() * u + sv.min() * v,
        su.max() * u + sv.min() * v,
        su.max() * u + sv.max() * v,
        su.min() * u + sv.max() * v,
    ]
    c_v = cx * vx + cy * vy
    axis_ends = [su.min() * u + c_v * v, su.max() * u + c_v * v]

    everything = np.vstack([cloud.points, corners])
    frame = _Frame(
        60,
        40,
        520,
        380,
        (everything[:, 0].min(), everything[:, 1].min()),
        (everything[:, 0].max(), everything[:, 1].max()),
        equal_aspect=True,
    )

    parts = [_svg_open(640, 480)]
    if record_id:
        parts.append(
            f'<text x="320" y="24" text-anchor="middle" font-size="15">'
            f"{_escape(record_id)}</text>"
        )
    parts.append(frame.frame_rect())
    parts.extend(frame.axis_labels("resistance", "reactance"))
    for x, y in cloud.points:
        sx, sy = frame.to_screen(float(x), float(y))
        parts.append(
            f'<circle class="sample" cx="{_fmt(sx)}" cy="{_fmt(sy)}" r="2.2"'
            f' fill="{_POINT_COLOR}" fill-opacity="0.65"/>'
        )
    box_pts = " ".join(
        ",".join(_fmt(c) for c in frame.to_screen(float(p[0]), float(p[1])))
        for p in corners
    )
    parts.append(
        f'<polygon class="bounding-box" points="{box_pts}" fill="none"'
        f' stroke="{_BOX_COLOR}" stroke-width="1.5"/>'
    )
    (ax1, ay1), (ax2, ay2) = (
        frame.to_screen(float(p[0]), float(p[1])) for p in axis_ends
    )
    parts.append(
        f'<line class="principal-axis" x1="{_fmt(ax1)}" y1="{_fmt(ay1)}"'
        f' x2="{_fmt(ax2)}" y2="{_fmt(ay2)}" stroke="{_ACCENT_COLOR}"'
        f' stroke-width="2"/>'
    )
    scx, scy = frame.to_screen(cx, cy)
    parts.append(
        f'<circle class="centroid" cx="{_fmt(scx)}" cy="{_fmt(scy)}" r="4"'
        f' fill="{_ACCENT_COLOR}"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def class_color(index: int, num_classes: int) -> str:
    hue = round(360 * index / max(num_classes, 1))
    return f"hsl({hue}, 70%, 45%)"


_PROJECTIONS = ((0, 1, "L", "W"), (0, 2, "L", "alpha_deg"), (1, 2, "W", "alpha_deg"))


def features_svg(table: FeatureTable) -> str:
    """(L, W, alpha) scatter as three 2D projections, colored by class.

    One legend-entry group per class.
    """
    if table.values.shape[0] == 0:
        raise ValueError("feature table is empty")
    class_names = table.class_names
    index_of = {name: i for i, name in enumerate(class_names)}
    colors = [class_color(i, len(class_names)) for i in range(len(class_names))]

    panel, gap, margin_top, margin_left = 300, 70, 50, 60
    legend_w = 40 + 9 * max(len(n) for n in class_names)
    width = margin_left + 3 * panel + 2 * gap + 30 + legend_w
    height = margin_top + panel + 60

    parts = [_svg_open(width, height)]
    for p, (ci, cj, name_i, name_j) in enumerate(_PROJECTIONS):
        xs = table.values[:, ci]
        ys = table.values[:, cj]
        frame = _Frame(
            margin_left + p * (panel + gap),
            margin_top,
            panel,
            panel,
            (float(xs.min()), float(ys.min())),
            (float(xs.max()), float(ys.max())),
        )
        parts.append(frame.frame_rect())
        parts.extend(frame.axis_labels(name_i, name_j))
        for x, y, label in zip(xs, ys, table.label_names):
            sx, sy = frame.to_screen(float(x), float(y))
            parts.append(
                f'<circle class="sample" cx="{_fmt(sx)}" cy="{_fmt(sy)}" r="3"'
                f' fill="{colors[index_of[label]]}" fill-opacity="0.75"/>'
            )
    lx = margin_left + 3 * panel + 2 * gap + 30
    for i, name in enumerate(class_names):
        ly = margin_top + 20 * i
        parts.append(
            f'<g class="legend-entry">'
            f'<rect x="{lx}" y="{ly}" width="12" height="12" fill="{colors[i]}"/>'
            f'<text x="{lx + 18}" y="{ly + 11}" font-size="13">{_escape(name)}</text>'
            f"</g>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
