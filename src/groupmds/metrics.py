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

    def distance_to_identity(self, g: GroupElement) -> int:
        return self.distance(g, self.group.identity())


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
    """Full distance matrix d(x_i, x_j) over the enumeration order."""
    elements = groups.enumerate_elements(spec)
    m = len(elements)
    if isinstance(metric, Metric) and spec.kind == groups.CYCLIC:
        arr = np.arange(spec.size, dtype=np.int64)
        delta = np.abs(arr[:, None] - arr[None, :])
        values = np.minimum(delta, spec.size - delta)
    elif isinstance(metric, Metric):
        # Hamming on permutations and on bit vectors alike.
        arr = np.array(elements, dtype=np.int64)
        values = (arr[:, None, :] != arr[None, :, :]).sum(axis=2)
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


def check_invariance(
    spec: GroupSpec,
    metric,
    mode: str = "bi",
    trials: int = 1000,
    seed: int = 0x5EED,
    exhaustive_threshold: int = 120,
) -> InvarianceReport:
    """Test left/right/bi invariance of ``metric`` on ``spec``.

    Exhaustive over all (f, g, h) when the group order is at most
    ``exhaustive_threshold``, otherwise on ``trials`` random triples.
    """
    if mode not in ("left", "right", "bi"):
        raise ValueError(f"mode must be left, right, or bi, not {mode!r}")
    sides = ("left", "right") if mode == "bi" else (mode,)
    if spec.order <= exhaustive_threshold:
        elements, table, _ = groups.multiplication_table(spec)
        m = len(elements)
        dmat = build_distance_matrix(spec, metric).values
        for side in sides:
            for fi in range(m):
                translated = table[fi, :] if side == "left" else table[:, fi]
                moved = dmat[np.ix_(translated, translated)]
                if not np.array_equal(moved, dmat):
                    bad = np.argwhere(moved != dmat)[0]
                    gi, hi = int(bad[0]), int(bad[1])
                    return InvarianceReport(
                        passed=False,
                        mode=mode,
                        exhaustive=True,
                        checked=m ** 3,
                        counterexample=(side, elements[fi], elements[gi], elements[hi]),
                    )
        return InvarianceReport(passed=True, mode=mode, exhaustive=True, checked=m ** 3)

    rng = random.Random(seed)
    for t in range(trials):
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
    return InvarianceReport(passed=True, mode=mode, exhaustive=False, checked=trials)
