"""Bi-invariant metrics on the supported groups and their distance matrices.

Three metrics ship: Hamming distance on permutations (count of positions
where the one-line forms differ), Hamming distance on bit vectors, and
circular-arc distance on residues. All distances are exact integers;
floating point only appears once matrices reach the dense eigensolver.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

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

    Anything with ``group`` and ``distance(g, h)`` can stand in for a
    Metric where one is consumed (the invariance checker relies on this to
    probe deliberately broken metrics).
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
        if self.kind == HAMMING_PERMUTATION or self.kind == HAMMING_BITVECTOR:
            return sum(1 for a, b in zip(g, h) if a != b)
        delta = abs(g - h)
        return min(delta, self.group.size - delta)

    def distances(self, g: np.ndarray, h: np.ndarray) -> np.ndarray:
        """d(g, h) on array forms (:func:`groups.compose_arrays`), broadcast
        over the leading axes: positions that differ, set bits of the index
        difference g ^ h, or the shorter arc."""
        if self.kind == HAMMING_PERMUTATION:
            return np.count_nonzero(g != h, axis=-1)
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


def circular_arc_metric(spec: GroupSpec) -> Metric:
    if spec.kind != groups.CYCLIC:
        raise InvalidElementError(f"circular-arc metric requires a cyclic group, got {spec.text}")
    return Metric(CIRCULAR_ARC, spec)


def default_metric(spec: GroupSpec) -> Metric:
    return circular_arc_metric(spec) if spec.kind == groups.CYCLIC else hamming_metric(spec)


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


def build_distance_matrix(spec: GroupSpec, metric) -> DistanceMatrix:
    """Full distance matrix d(x_i, x_j) over the enumeration order.

    Raises :class:`TooLargeError` before allocating when the int64 matrix
    would exceed :data:`groups.TABLE_MAX_BYTES`.
    """
    elements = groups.enumerate_elements(spec)
    m = len(elements)
    groups.admit(f"the distance matrix of {spec.text}", nbytes=m * m * 8)
    if isinstance(metric, Metric) and spec.kind == groups.CYCLIC:
        # min(|i - j|, n - |i - j|) filled into the one int64 matrix; the
        # only temporary is the m x m bool mask of the long arcs.
        n = spec.size
        arr = np.arange(n, dtype=np.int64)
        values = np.subtract.outer(arr, arr, out=np.empty((m, m), dtype=np.int64))
        np.abs(values, out=values)
        np.subtract(values, n, out=values, where=values > n // 2)
        np.abs(values, out=values)
    elif isinstance(metric, Metric) and spec.kind == groups.ELEMENTARY_ABELIAN_2:
        # Set bits of i ^ j on the enumeration indices, counted in place.
        idx = np.arange(m, dtype=np.int64)
        values = np.bitwise_xor.outer(idx, idx, out=np.empty((m, m), dtype=np.int64))
        np.bitwise_count(values, out=values)
    elif isinstance(metric, Metric):
        # Hamming on permutations, one coordinate at a time into one reused
        # m x m bool: an m x m x n temporary would be 13 GB on S_8, and a
        # fresh bool per coordinate leaves freed heap resident for the later
        # dense stages.
        values = np.zeros((m, m), dtype=np.int64)
        differ = np.empty((m, m), dtype=bool)
        for coord in np.array(elements, dtype=np.int64).T:
            values += np.not_equal.outer(coord, coord, out=differ)
    else:
        # Generic path for metric-like objects (corrupted/test metrics).
        values = np.empty((m, m), dtype=np.int64)
        for i, g in enumerate(elements):
            for j, h in enumerate(elements):
                values[i, j] = metric.distance(g, h)
    values = np.asarray(values, dtype=np.int64)
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
    Above that it samples 1000 random triples: all at once on the array
    forms of a shipped :class:`Metric`, one at a time for any other metric.
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
    if isinstance(metric, Metric) and metric.group == spec:
        return _sampled_array_check(spec, metric, mode, sides, rng)
    for t in range(_INVARIANCE_TRIALS):
        f = groups.random_element(spec, rng)
        g = groups.random_element(spec, rng)
        h = groups.random_element(spec, rng)
        base = metric.distance(g, h)
        if "left" in sides:
            if metric.distance(groups.multiply(spec, f, g), groups.multiply(spec, f, h)) != base:
                return InvarianceReport(False, mode, False, t + 1, ("left", f, g, h))
        if "right" in sides:
            if metric.distance(groups.multiply(spec, g, f), groups.multiply(spec, h, f)) != base:
                return InvarianceReport(False, mode, False, t + 1, ("right", f, g, h))
    return InvarianceReport(passed=True, mode=mode, exhaustive=False, checked=_INVARIANCE_TRIALS)


def _sampled_array_check(spec: GroupSpec, metric: Metric, mode: str, sides, rng) -> InvarianceReport:
    """The sampled check on whole arrays: every random triple at once, the
    first failing trial reported as the per-triple loop would."""
    f, g, h = (groups.random_array_elements(spec, rng, _INVARIANCE_TRIALS) for _ in range(3))
    compose = groups.compose_arrays
    base = metric.distances(g, h)
    failed = []
    for side in sides:
        if side == "left":
            moved = metric.distances(compose(spec, f, g), compose(spec, f, h))
        else:
            moved = metric.distances(compose(spec, g, f), compose(spec, h, f))
        failed.append((side, moved != base))
    any_failed = np.logical_or.reduce([bad for _, bad in failed])
    if any_failed.any():
        t = int(np.argmax(any_failed))
        side = next(side for side, bad in failed if bad[t])
        witness = tuple(groups.array_element(spec, a[t]) for a in (f, g, h))
        return InvarianceReport(False, mode, False, t + 1, (side, *witness))
    return InvarianceReport(passed=True, mode=mode, exhaustive=False, checked=_INVARIANCE_TRIALS)
