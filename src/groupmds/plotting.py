"""Deterministic SVG scatter plots of embeddings.

The SVG is assembled by hand (no plotting library) so identical inputs
produce byte-identical files. Coordinates are unit-normalized to the data
bounding box; point area is proportional to weight; fill color comes from
a linear ramp between two fixed colors over the color coordinate's range
(low = blue #2166ac, high = red #b2182b, midpoint used when no color
coordinate is available).
"""

from __future__ import annotations

from itertools import repeat
from typing import Optional, Sequence, Tuple

import numpy as np

LOW_COLOR = (0x21, 0x66, 0xAC)
HIGH_COLOR = (0xB2, 0x18, 0x2B)
SIZE = 720  # width and height of the square canvas, in px
MARGIN = 48
MAX_RADIUS = 14.0
_CIRCLE = '<circle cx="%.3f" cy="%.3f" r="%.3f" fill="#%06x" fill-opacity="0.75"/>\n'


def _ramp(t: np.ndarray) -> np.ndarray:
    """Each t in [0, 1] (clamped) as the 24-bit colour of the linear ramp,
    each channel rounded half to even."""
    t = np.minimum(1.0, np.maximum(0.0, t))
    rgb = 0
    for lo, hi in zip(LOW_COLOR, HIGH_COLOR):
        rgb = rgb * 256 + np.rint(lo + (hi - lo) * t).astype(np.int64)
    return rgb


def _normalize(values: np.ndarray, lo_px: float, hi_px: float) -> np.ndarray:
    vmin = values.min()
    span = values.max() - vmin
    if span == 0.0:
        return np.full(len(values), (lo_px + hi_px) / 2.0)
    scale = (hi_px - lo_px) / span
    return lo_px + (values - vmin) * scale


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
    weights = np.array(weights, dtype=float)
    if not (weights > 0).all():
        raise ValueError("weights must be positive")
    px = _normalize(np.array(xs, dtype=float), MARGIN, SIZE - MARGIN)
    # SVG y grows downward; flip so larger y plots higher.
    py = _normalize(-np.array(ys, dtype=float), MARGIN, SIZE - MARGIN)
    # pow, not np.sqrt: the two differ in the last bit on some ratios.
    radii = MAX_RADIUS * np.array(list(map(pow, (weights / weights.max()).tolist(), repeat(0.5))))
    t = np.full(len(weights), 0.5)
    if None not in colors:
        colors = np.array(colors, dtype=float)
        cmin = colors.min()
        cspan = colors.max() - cmin
        if cspan > 0:
            t = (colors - cmin) / cspan
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
            f'viewBox="0 0 {SIZE} {SIZE}">\n'
            f'<rect width="{SIZE}" height="{SIZE}" fill="#ffffff"/>\n')
    circles = map(_CIRCLE.__mod__, zip(px.tolist(), py.tolist(), radii.tolist(), _ramp(t).tolist()))
    return head + "".join(circles) + "</svg>\n"
