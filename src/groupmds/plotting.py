"""Deterministic SVG scatter plots of embeddings.

The SVG is assembled by hand (no plotting library) so identical inputs
produce byte-identical files. Coordinates are unit-normalized to the data
bounding box; point area is proportional to weight; fill color comes from
a linear ramp between two fixed colors over the color coordinate's range
(low = blue #2166ac, high = red #b2182b, midpoint used when no color
coordinate is available).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

LOW_COLOR = (0x21, 0x66, 0xAC)
HIGH_COLOR = (0xB2, 0x18, 0x2B)
SIZE = 720  # width and height of the square canvas, in px
MARGIN = 48
MAX_RADIUS = 14.0


def _ramp(t: float) -> str:
    t = min(1.0, max(0.0, t))
    rgb = tuple(round(lo + (hi - lo) * t) for lo, hi in zip(LOW_COLOR, HIGH_COLOR))
    return "#%02x%02x%02x" % rgb


def _normalize(values, lo_px: float, hi_px: float):
    vmin = min(values)
    vmax = max(values)
    span = vmax - vmin
    if span == 0.0:
        mid = (lo_px + hi_px) / 2.0
        return [mid for _ in values]
    scale = (hi_px - lo_px) / span
    return [lo_px + (v - vmin) * scale for v in values]


def scatter_svg(points: Sequence[Tuple[float, float, float, Optional[float]]]) -> str:
    """Render (x, y, weight, color_value) points.

    Radius is MAX_RADIUS * sqrt(weight / max weight), so area tracks
    weight and equal weights give equal radii; every weight must be
    positive. ``color_value`` may be None on every point, in which case all
    points take the ramp midpoint.
    """
    if not points:
        raise ValueError("nothing to plot")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    weights = [p[2] for p in points]
    colors = [p[3] for p in points]
    if not all(w > 0 for w in weights):
        raise ValueError("weights must be positive")
    px = _normalize(xs, MARGIN, SIZE - MARGIN)
    # SVG y grows downward; flip so larger y plots higher.
    py = _normalize([-y for y in ys], MARGIN, SIZE - MARGIN)
    wmax = max(weights)
    have_color = all(c is not None for c in colors)
    if have_color:
        cmin = min(colors)
        cmax = max(colors)
        cspan = cmax - cmin
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">',
        f'<rect width="{SIZE}" height="{SIZE}" fill="#ffffff"/>',
    ]
    for i in range(len(points)):
        radius = MAX_RADIUS * (weights[i] / wmax) ** 0.5
        if have_color and cspan > 0:
            fill = _ramp((colors[i] - cmin) / cspan)
        else:
            fill = _ramp(0.5)
        lines.append(
            f'<circle cx="{px[i]:.3f}" cy="{py[i]:.3f}" r="{radius:.3f}" '
            f'fill="{fill}" fill-opacity="0.75"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
