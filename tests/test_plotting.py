import numpy as np
import pytest

from groupmds import plotting
from groupmds.plotting import HIGH_COLOR, LOW_COLOR, MARGIN, MAX_RADIUS, SIZE, scatter_svg
from groupmds.rankings import aggregate, embed_dataset, synthesize_rankings

# --- per-point reference --------------------------------------------------------
#
# The per-point renderer that the column-wise one replaced, kept verbatim in
# substance so that the SVG bytes are checked against it.


def reference_ramp(t):
    t = min(1.0, max(0.0, t))
    rgb = tuple(round(lo + (hi - lo) * t) for lo, hi in zip(LOW_COLOR, HIGH_COLOR))
    return "#%02x%02x%02x" % rgb


def reference_normalize(values, lo_px, hi_px):
    vmin = min(values)
    vmax = max(values)
    span = vmax - vmin
    if span == 0.0:
        mid = (lo_px + hi_px) / 2.0
        return [mid for _ in values]
    scale = (hi_px - lo_px) / span
    return [lo_px + (v - vmin) * scale for v in values]


def reference_scatter_svg(points):
    if not points:
        raise ValueError("nothing to plot")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    weights = [p[2] for p in points]
    colors = [p[3] for p in points]
    if not all(w > 0 for w in weights):
        raise ValueError("weights must be positive")
    px = reference_normalize(xs, MARGIN, SIZE - MARGIN)
    py = reference_normalize([-y for y in ys], MARGIN, SIZE - MARGIN)
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
            fill = reference_ramp((colors[i] - cmin) / cspan)
        else:
            fill = reference_ramp(0.5)
        lines.append(
            f'<circle cx="{px[i]:.3f}" cy="{py[i]:.3f}" r="{radius:.3f}" '
            f'fill="{fill}" fill-opacity="0.75"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def mallows_points(n, rows, seed):
    """The points `plot` draws for the standard embedding of synthetic
    rankings: coordinates 1-2, weight, colour from coordinate 3."""
    emb = embed_dataset(aggregate(synthesize_rankings(n, rows, seed=seed)), n, 3)
    x = emb.coordinates.tolist()
    return [(c[0], c[1], float(w), c[2]) for c, w in zip(x, emb.weights)]


def points_cases():
    rng = np.random.default_rng(5)
    xy = rng.normal(size=(500, 3)).tolist()
    return {
        "mallows": mallows_points(6, 3000, 2),
        "equal weights": [(x, y, 4.0, c) for x, y, c in xy],
        "constant colour": [(x, y, w, 0.25) for (x, y, _), w in zip(xy, rng.integers(1, 9, 500))],
        "no colours": [(x, y, float(w), None) for (x, y, _), w in zip(xy, rng.integers(1, 9, 500))],
        "one point": [(0.5, -0.5, 3.0, 1.0)],
        "integer weights": [(x, y, int(w), c) for (x, y, c), w in zip(xy, rng.integers(1, 99, 500))],
    }


@pytest.mark.parametrize("case", sorted(points_cases()))
def test_svg_is_byte_identical_to_the_per_point_reference(case):
    points = points_cases()[case]
    assert scatter_svg(points) == reference_scatter_svg(points)


def test_ramp_rounds_half_to_even_like_round():
    # 0.5 puts every channel at an exact half: 0x21 + 0x91 / 2 = 105.5 and so on.
    t = [0.0, 0.5, 1.0, 0.25, 0.75]
    assert ["#%06x" % v for v in plotting._ramp(t)] == [reference_ramp(v) for v in t]


@pytest.mark.parametrize("weights", [(1.0, 0.0), (2.0, -1.0), (float("nan"), 1.0)])
def test_non_positive_weights_are_refused(weights):
    points = [(0.0, 0.0, w, None) for w in weights]
    with pytest.raises(ValueError, match="weights must be positive"):
        scatter_svg(points)
    with pytest.raises(ValueError, match="weights must be positive"):
        reference_scatter_svg(points)


def test_nothing_to_plot():
    with pytest.raises(ValueError, match="nothing to plot"):
        scatter_svg([])



def test_a_span_past_the_float64_maximum_is_drawn_as_its_halves():
    # Every column is taken in halves, which keeps the bytes of any finite
    # span: a span past the float64 maximum draws as the reference's halves.
    big = 1.7976931348623157e308
    points = [(big, -1e308, 1.0, 1e308), (-big, 1e308, 2.0, -big), (0.0, 0.5, 1.0, 2.0)]
    svg = scatter_svg(points)
    assert "nan" not in svg and "inf" not in svg
    assert svg == reference_scatter_svg([(x / 2, y / 2, w, c / 2) for x, y, w, c in points])
    assert '<circle cx="672.000" cy="672.000" r="9.899" fill="#b2182b"' in svg
