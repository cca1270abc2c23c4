"""Bi-invariant metrics on the supported groups and their distance matrices.

Three metrics ship: Hamming distance on permutations (count of positions
where the one-line forms differ), Hamming distance on bit vectors, and
circular-arc distance on residues. All distances are exact integers;
floating point only appears once matrices reach the dense eigensolver.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from . import _np as np
from . import groups
from .errors import InvalidElementError
from .groups import GroupElement, GroupSpec

HAMMING_PERMUTATION = "hamming-permutation"
HAMMING_BITVECTOR = "hamming-bitvector"
CIRCULAR_ARC = "circular-arc"

_COMPATIBLE = {
    HAMMING_PERMUTATION: groups.SYMMETRIC,
    HAMMING_BITVECTOR: groups.ELEMENTARY_ABELIAN_2,
    CIRCULAR_ARC: groups.CYCLIC,
}


@dataclass(frozen=True)
class Metric:
    """A shipped metric bound to its group.

    Every consumer measures a Metric through :meth:`distances`, so a
    subclass that changes :meth:`distance` must change :meth:`distances`
    too. Any other object with ``group`` and ``distance(g, h)`` stands in
    for a Metric through :func:`array_distances`, which lifts it pair by
    pair (the invariance checker relies on this to probe deliberately
    broken metrics).
    """

    kind: str
    group: GroupSpec

    def __post_init__(self):
        expected = _COMPATIBLE.get(self.kind)
        if expected is None:
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if self.group.kind != expected:
            raise InvalidElementError(
                f"metric {self.kind} requires a {expected} group, got {self.group.text}"
            )

    def distance(self, g: GroupElement, h: GroupElement) -> int:
        groups.validate_element(self.group, g)
        groups.validate_element(self.group, h)
        # This class's formula, not an override's: subclasses build on it.
        return int(Metric.distances(self, *groups.array_forms(self.group, [g, h])))

    def distances(self, g: np.ndarray, h: np.ndarray) -> np.ndarray:
        """d(g, h) on array forms (:func:`groups.array_forms`), broadcast
        over the leading axes: positions that differ, summed one position
        at a time, set bits of the index difference g ^ h, or the shorter
        arc."""
        if self.kind == HAMMING_PERMUTATION:
            return sum(g[..., i] != h[..., i] for i in range(self.group.size))
        if self.kind == HAMMING_BITVECTOR:
            return np.bitwise_count(g ^ h)
        delta = np.abs(g - h)
        return np.minimum(delta, self.group.size - delta)


def hamming_metric(spec: GroupSpec) -> Metric:
    """The Hamming metric matching ``spec`` (permutation or bit-vector form)."""
    if spec.kind == groups.SYMMETRIC:
        return Metric(HAMMING_PERMUTATION, spec)
    if spec.kind == groups.ELEMENTARY_ABELIAN_2:
        return Metric(HAMMING_BITVECTOR, spec)
    raise InvalidElementError(f"no Hamming metric on {spec.text}")


def standard_coefficient(n: int) -> Fraction:
    """mu's coefficient on [n-1,1], the block of all the positive spectrum, for
    Hamming distance on S_n: (2n-3)/2 from n = 3 on, 1 at n = 2 ([1,1] is the sign)."""
    return Fraction(2 * n - 3, 2) if n > 2 else Fraction(1)


def circular_arc_metric(spec: GroupSpec) -> Metric:
    if spec.kind != groups.CYCLIC:
        raise InvalidElementError(f"circular-arc metric requires a cyclic group, got {spec.text}")
    return Metric(CIRCULAR_ARC, spec)


def default_metric(spec: GroupSpec) -> Metric:
    return circular_arc_metric(spec) if spec.kind == groups.CYCLIC else hamming_metric(spec)


# Entries (one value of one pair or point) per temporary array of a chunked
# operation: 1 MiB of int64.
CHUNK_ENTRIES = 2 ** 17


def array_distances(spec: GroupSpec, metric, pairs: int):
    """``metric``'s distance on the array forms of ``spec``, broadcast over
    the leading axes, for a caller that will ask it for ``pairs`` pairs.

    A :class:`Metric` bound to ``spec`` is its own :meth:`Metric.distances`.
    Any other object, a Metric bound to another group included, is lifted:
    each pair becomes plain elements (:func:`groups.array_element`) for its
    ``distance``, and :class:`TooLargeError` comes first when ``pairs``,
    one step each, pass the work bound.
    """
    if isinstance(metric, Metric) and metric.group == spec:
        return metric.distances
    groups.admit(f"the lifted metric on {spec.text}", work=pairs)
    form_axes = np.ndim(groups.array_forms(spec, [spec.identity()])[0])

    def lifted(g, h):
        g, h = np.broadcast_arrays(g, h)
        shape = g.shape[:g.ndim - form_axes]
        gs, hs = ([groups.array_element(spec, a) for a in x.reshape(-1, *x.shape[len(shape):])]
                  for x in (g, h))
        values = map(operator.index, map(metric.distance, gs, hs))  # integers, not truncated
        return np.fromiter(values, dtype=np.int64, count=len(gs)).reshape(shape)

    return lifted


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Pairwise distances under the deterministic element enumeration."""

    spec: GroupSpec
    metric_kind: str
    labels: Tuple[GroupElement, ...]
    values: np.ndarray  # (n, n) int64, symmetric, zero diagonal

    @property
    def size(self) -> int:
        return len(self.labels)

    def to_csv(self) -> str:
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        header = [groups.element_text(self.spec, g) for g in self.labels]
        writer.writerow(header)
        for row in self.values:
            writer.writerow([int(v) for v in row])
        return buf.getvalue()


def distance_blocks(spec: GroupSpec, metric):
    """d(x_i, x_j) over the enumeration order as (start, block) pairs of rows,
    made as asked for, CHUNK_ENTRIES a block; a lifted metric is priced first."""
    forms = groups.array_forms(spec, groups.enumerate_elements(spec))
    m = len(forms)
    distances = array_distances(spec, metric, pairs=m * m)
    rows = max(1, CHUNK_ENTRIES // m)
    return ((start, distances(forms[start:start + rows, None], forms[None]))
            for start in range(0, m, rows))


def build_distance_matrix(spec: GroupSpec, metric) -> DistanceMatrix:
    """The full distance matrix, copied from :func:`distance_blocks`.

    Raises :class:`TooLargeError` before allocating when the int64 matrix
    would exceed :data:`groups.TABLE_MAX_BYTES`, and before the first call
    of a lifted metric when its m^2 pairs pass the work bound.
    """
    elements = groups.enumerate_elements(spec)
    m = len(elements)
    groups.admit(f"the distance matrix of {spec.text}", nbytes=m * m * 8)
    values = np.empty((m, m), dtype=np.int64)
    for start, block in distance_blocks(spec, metric):
        values[start:start + len(block)] = block
    kind = getattr(metric, "kind", "custom")
    return DistanceMatrix(spec=spec, metric_kind=kind, labels=elements, values=values)


@dataclass(frozen=True)
class InvarianceReport:
    """Outcome of an invariance check.

    ``counterexample`` is ``(side, f, g, h)`` with d(fg, fh) != d(g, h)
    (side 'left') or d(gf, hf) != d(g, h) (side 'right'); None on pass.
    """

    passed: bool
    mode: str
    exhaustive: bool
    checked: int
    counterexample: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.passed


# Exhaustive up to this order, sampled on random triples above it.
_EXHAUSTIVE_MAX_ORDER = 120
_INVARIANCE_TRIALS = 1000
_INVARIANCE_SEED = 0x5EED


def check_invariance(spec: GroupSpec, metric, mode: str = "bi") -> InvarianceReport:
    """Test left/right/bi invariance of ``metric`` on ``spec``.

    Up to order 120 this covers all (f, g, h) through two equivalent
    identities: left invariance iff d(g, h) = d(e, g^-1 h), right iff
    d(g, h) = d(g h^-1, e), a failing (g, h) witnessed by f = g^-1 or h^-1.
    Above that it samples 1000 random triples, all at once on their array
    forms through :func:`array_distances`.
    """
    if mode not in ("left", "right", "bi"):
        raise ValueError(f"mode must be left, right, or bi, not {mode!r}")
    sides = ("left", "right") if mode == "bi" else (mode,)
    if spec.order <= _EXHAUSTIVE_MAX_ORDER:
        # The identity is enumerated first: row and column 0 are d(e, .), d(., e).
        elements, table, inv = groups.multiplication_table(spec)
        m = len(elements)
        dmat = build_distance_matrix(spec, metric).values
        for side in sides:
            if side == "left":
                bad = np.argwhere(dmat != dmat[0][table[inv, :]])
            else:
                bad = np.argwhere(dmat != dmat[:, 0][table[:, inv]])
            if len(bad):
                gi, hi = bad[0]
                f = elements[inv[gi] if side == "left" else inv[hi]]
                return InvarianceReport(False, mode, True, m ** 3,
                                        (side, f, elements[gi], elements[hi]))
        return InvarianceReport(passed=True, mode=mode, exhaustive=True, checked=m ** 3)

    rng = random.Random(_INVARIANCE_SEED)
    distances = array_distances(spec, metric, pairs=_INVARIANCE_TRIALS * (1 + len(sides)))
    f, g, h = (groups.random_array_elements(spec, rng, _INVARIANCE_TRIALS) for _ in range(3))
    compose = groups.compose_arrays
    base = distances(g, h)
    failed = []
    for side in sides:
        if side == "left":
            moved = distances(compose(spec, f, g), compose(spec, f, h))
        else:
            moved = distances(compose(spec, g, f), compose(spec, h, f))
        failed.append((side, moved != base))
    any_failed = np.logical_or.reduce([bad for _, bad in failed])
    if any_failed.any():
        # The first failing trial, as a loop over the triples would report it.
        t = int(np.argmax(any_failed))
        side = next(side for side, bad in failed if bad[t])
        witness = tuple(groups.array_element(spec, a[t]) for a in (f, g, h))
        return InvarianceReport(False, mode, False, t + 1, (side, *witness))
    return InvarianceReport(passed=True, mode=mode, exhaustive=False, checked=_INVARIANCE_TRIALS)
