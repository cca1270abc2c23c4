"""Deterministic SVG scatter plots of embeddings.

The SVG is assembled by hand (no plotting library) so identical inputs
produce byte-identical files. Coordinates are unit-normalized to the data
bounding box; point area is proportional to weight; fill color comes from
a linear ramp between two fixed colors over the color coordinate's range
(low = blue #2166ac, high = red #b2182b, midpoint used when no color
coordinate is available).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

LOW_COLOR = (0x21, 0x66, 0xAC)
HIGH_COLOR = (0xB2, 0x18, 0x2B)
SIZE = 720  # width and height of the square canvas, in px
MARGIN = 48
MAX_RADIUS = 14.0
_CIRCLE = '<circle cx="%.3f" cy="%.3f" r="%.3f" fill="#%06x" fill-opacity="0.75"/>\n'


def _ramp(t: list) -> list:
    """Each t in [0, 1] (clamped) as the 24-bit colour of the linear ramp,
    each channel rounded half to even."""
    t = [min(1.0, max(0.0, v)) for v in t]
    rgb = [0] * len(t)
    for lo, hi in zip(LOW_COLOR, HIGH_COLOR):
        rgb = [c * 256 + round(lo + (hi - lo) * v) for c, v in zip(rgb, t)]
    return rgb


def _normalize(values: list, lo_px: float, hi_px: float) -> list:
    # Halved, which is exact but on subnormals, so that max - min cannot overflow.
    vmin = 0.5 * min(values)
    span = 0.5 * max(values) - vmin
    if span == 0.0:
        return [(lo_px + hi_px) / 2.0] * len(values)
    scale = (hi_px - lo_px) / span
    if scale == math.inf:
        # A span under about 3.5e-306: raised by 2**1000, exact on values this close.
        return _normalize([v * 2.0 ** 1000 for v in values], lo_px, hi_px)
    return [lo_px + (0.5 * v - vmin) * scale for v in values]


def scatter_svg(points: Sequence[Tuple[float, float, float, Optional[float]]]) -> str:
    """Render (x, y, weight, color_value) points.

    Radius is MAX_RADIUS * sqrt(weight / max weight), so area tracks
    weight and equal weights give equal radii; every weight must be
    positive. ``color_value`` may be None on every point, in which case all
    points take the ramp midpoint. Every stage works on whole columns, and
    each circle is one fill of a template.
    """
    if not points:
        raise ValueError("nothing to plot")
    xs, ys, weights, colors = zip(*points)
    weights = list(map(float, weights))
    if not all(w > 0 for w in weights):
        raise ValueError("weights must be positive")
    px = _normalize(list(map(float, xs)), MARGIN, SIZE - MARGIN)
    # SVG y grows downward; flip so larger y plots higher.
    py = _normalize([-float(y) for y in ys], MARGIN, SIZE - MARGIN)
    wmax = max(weights)
    # pow, not math.sqrt: the two differ in the last bit on some ratios.
    radii = [MAX_RADIUS * pow(w / wmax, 0.5) for w in weights]
    t = [0.5] * len(weights)
    if None not in colors:
        colors = list(map(float, colors))
        cmin = 0.5 * min(colors)
        cspan = 0.5 * max(colors) - cmin
        if cspan > 0:
            t = [(0.5 * c - cmin) / cspan for c in colors]
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
            f'viewBox="0 0 {SIZE} {SIZE}">\n'
            f'<rect width="{SIZE}" height="{SIZE}" fill="#ffffff"/>\n')
    circles = map(_CIRCLE.__mod__, zip(px, py, radii, _ramp(t)))
    return head + "".join(circles) + "</svg>\n"
