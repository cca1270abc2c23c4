"""Character-predicted MDS spectra for bi-invariant metrics.

For a bi-invariant metric the non-centered kernel is convolution by the
class function mu(g) = -d(g, e)^2 / 2, so each irreducible that appears in
mu's character expansion contributes one eigenvalue

    lambda_i = |G| * sigma_i / dim_i,      sigma_i = <mu, chi_i>,

with eigenspace dimension dim_i^2 inside functions on the group. The
functions here compute that spectrum exactly (no group enumeration), give
the closed-form tables for Hamming distance on (C_2)^k and S_n, build the
isotypic eigenprojectors, and embed permutations directly into the
dominant (standard-representation) block without touching the full group.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple

import numpy as np

from . import characters, groups, metrics
from .characters import ClassFunction, label_sort_key, label_text
from .errors import NotBiInvariantError, TooLargeError, UnsupportedClosedFormError
from .exact import (
    Scalar,
    normalize_scalar,
    scalar_float,
    scalar_is_zero,
    scalar_sign,
    scalar_text,
)
from .groups import GroupSpec, Partition

# Random conjugates on which mu_from_metric re-checks each non-singleton
# class's distance to the identity.
_MU_CONJUGATE_CHECKS = 25
_MU_CHECK_SEED = 0xC1A55


@dataclass(frozen=True, eq=False)
class MuFunction:
    """The class function g -> -(1/2) d(g, e)^2 driving the spectrum."""

    function: ClassFunction
    metric_kind: str

    @property
    def group(self) -> GroupSpec:
        return self.function.group


@dataclass(frozen=True)
class SpectralEntry:
    """One distinct eigenvalue: its exact value, total multiplicity, the
    contributing irreducible labels (possibly elided for huge zero
    entries), and a sign tag."""

    eigenvalue: Scalar
    multiplicity: int
    labels: tuple
    sign: str  # "positive" | "negative" | "zero"


@dataclass(frozen=True)
class SpectralSummary:
    """Predicted spectrum of the centered MDS kernel, trivial representation
    excluded (centering sends it to zero)."""

    group: GroupSpec
    metric_kind: str
    entries: Tuple[SpectralEntry, ...]
    trivial_discarded: bool = True

    @property
    def rank(self) -> int:
        return sum(e.multiplicity for e in self.entries if e.sign != "zero")

    @property
    def zero_multiplicity(self) -> int:
        return sum(e.multiplicity for e in self.entries if e.sign == "zero")

    @property
    def accounted_dimension(self) -> int:
        """rank + zero multiplicities + 1 (the discarded trivial); equals
        the group order when the summary is complete."""
        return self.rank + self.zero_multiplicity + 1

    def nonzero_entries(self) -> Tuple[SpectralEntry, ...]:
        return tuple(e for e in self.entries if e.sign != "zero")

    def trace(self) -> Scalar:
        total: Scalar = Fraction(0)
        for e in self.entries:
            total = total + e.eigenvalue * e.multiplicity
        return normalize_scalar(total)

    def to_json_dict(self) -> dict:
        return {
            "group": self.group.text,
            "group_order": self.group.order,
            "metric": self.metric_kind,
            "entries": [
                {
                    "eigenvalue": scalar_text(e.eigenvalue),
                    "eigenvalue_float": scalar_float(e.eigenvalue),
                    "multiplicity": e.multiplicity,
                    "labels": [label_text(self.group, lab) for lab in e.labels],
                    "sign": e.sign,
                }
                for e in self.entries
            ],
            "trivial_discarded": self.trivial_discarded,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def mu_from_metric(spec: GroupSpec, metric) -> MuFunction:
    """Build mu = -(1/2) d(., e)^2 as an exact class function.

    Bi-invariance is verified first (exhaustively up to order 120, sampled
    above), and each class representative's distance is re-checked on
    random conjugates rather than trusted; failures raise
    :class:`NotBiInvariantError` with a counterexample.
    """
    report = metrics.check_invariance(spec, metric, mode="bi")
    if not report.passed:
        side, f, g, h = report.counterexample
        raise NotBiInvariantError(
            f"metric is not bi-invariant on {spec.text}: {side}-translation by "
            f"{f!r} changes d({g!r}, {h!r})",
            counterexample=report.counterexample,
        )
    identity = spec.identity()
    rng = random.Random(_MU_CHECK_SEED)
    values = {}
    for cls in groups.conjugacy_classes(spec):
        d0 = metric.distance(cls.representative, identity)
        if cls.size > 1:
            for _ in range(_MU_CONJUGATE_CHECKS):
                h = groups.random_element(spec, rng)
                conj = groups.conjugate_element(spec, cls.representative, h)
                if metric.distance(conj, identity) != d0:
                    raise NotBiInvariantError(
                        f"metric is not constant on the class of {cls.representative!r}: "
                        f"conjugation by {h!r} changes d(., e)",
                        counterexample=("class", h, cls.representative, conj),
                    )
        values[cls.label] = Fraction(-(d0 * d0), 2)
    kind = getattr(metric, "kind", "custom")
    return MuFunction(function=ClassFunction(spec, values), metric_kind=kind)


def _assemble_summary(
    spec: GroupSpec,
    sigma: Dict,
    metric_kind: str,
) -> SpectralSummary:
    """Group sigma coefficients into distinct-eigenvalue entries."""
    trivial = characters.trivial_label(spec)
    by_eigenvalue: Dict = {}
    zero_labels = []
    zero_mult = 0
    for label, coeff in sigma.items():
        if label == trivial:
            continue
        dim = characters.dimension(spec, label)
        if scalar_is_zero(coeff):
            zero_labels.append(label)
            zero_mult += dim * dim
            continue
        lam = normalize_scalar(coeff * Fraction(spec.order, dim))
        group_entry = by_eigenvalue.setdefault(lam, [0, []])
        group_entry[0] += dim * dim
        group_entry[1].append(label)
    entries = []
    for lam, (mult, labels) in by_eigenvalue.items():
        entries.append(
            SpectralEntry(
                eigenvalue=lam,
                multiplicity=mult,
                labels=tuple(sorted(labels, key=lambda l: label_sort_key(spec, l))),
                sign="positive" if scalar_sign(lam) > 0 else "negative",
            )
        )
    entries.sort(key=lambda e: -scalar_float(e.eigenvalue))
    if zero_mult:
        entries.append(
            SpectralEntry(
                eigenvalue=Fraction(0),
                multiplicity=zero_mult,
                labels=tuple(sorted(zero_labels, key=lambda l: label_sort_key(spec, l))),
                sign="zero",
            )
        )
    return SpectralSummary(group=spec, metric_kind=metric_kind, entries=tuple(entries))


def spectrum_via_characters(spec: GroupSpec, metric) -> SpectralSummary:
    """Predict the complete centered-kernel spectrum from characters alone.

    Raises :class:`TooLargeError` when the class count exceeds the
    enumeration cap.
    """
    mu = mu_from_metric(spec, metric)
    decomp = characters.decompose_class_function(mu.function)
    return _assemble_summary(spec, decomp.coefficients, mu.metric_kind)


def closed_form_c2k(k: int) -> SpectralSummary:
    """Hamming spectrum on (C_2)^k without enumerating the group:
    eigenvalue 2^(k-2) k on the k singleton subsets, -2^(k-2) on the
    C(k, 2) pair subsets, zero elsewhere."""
    if k < 1:
        raise UnsupportedClosedFormError("k must be >= 1")
    spec = groups.elementary_abelian_2(k)
    lam1 = Fraction(k * 2 ** k, 4)  # 2^(k-2) * k, exact also at k = 1
    lam2 = -Fraction(2 ** k, 4)
    singletons = tuple(frozenset({s}) for s in range(k, 0, -1))
    entries = [
        SpectralEntry(eigenvalue=lam1, multiplicity=k, labels=singletons, sign="positive")
    ]
    n_pairs = k * (k - 1) // 2
    if n_pairs:
        pairs = [frozenset({a, b}) for a in range(1, k + 1) for b in range(a + 1, k + 1)]
        pairs.sort(key=lambda s: label_sort_key(spec, s))
        entries.append(
            SpectralEntry(
                eigenvalue=lam2, multiplicity=n_pairs, labels=tuple(pairs), sign="negative"
            )
        )
    zero_mult = 2 ** k - 1 - k - n_pairs
    if zero_mult:
        try:
            zeros = tuple(
                lab for lab in characters.irreducible_labels(spec) if len(lab) >= 3
            )
        except TooLargeError:
            zeros = ()  # past the enumeration cap only the multiplicity is kept
        entries.append(
            SpectralEntry(
                eigenvalue=Fraction(0), multiplicity=zero_mult, labels=zeros, sign="zero"
            )
        )
    return SpectralSummary(
        group=spec, metric_kind=metrics.HAMMING_BITVECTOR, entries=tuple(entries)
    )


def closed_form_sn(n: int) -> SpectralSummary:
    """Hamming spectrum on S_n for n >= 4: three nonzero eigenvalues, on
    the partitions [n-1,1], [n-2,1,1], and [n-2,2]."""
    if n < 4:
        raise UnsupportedClosedFormError(
            f"the closed form needs n >= 4 (the [n-2,2] term divides by zero below); "
            f"use spectrum_via_characters for n = {n}"
        )
    spec = groups.symmetric(n)
    fact = math.factorial(n)
    rows = [
        (Fraction((2 * n - 3) * fact, 2 * n - 2), (n - 1) ** 2, Partition((n - 1, 1))),
        (
            Fraction(-fact, (n - 1) * (n - 2)),
            ((n - 1) * (n - 2) // 2) ** 2,
            Partition((n - 2, 1, 1)),
        ),
        (Fraction(-fact, n * (n - 3)), (n * (n - 3) // 2) ** 2, Partition((n - 2, 2))),
    ]
    entries = [
        SpectralEntry(
            eigenvalue=lam,
            multiplicity=mult,
            labels=(label,),
            sign="positive" if lam > 0 else "negative",
        )
        for lam, mult, label in rows
    ]
    entries.sort(key=lambda e: -scalar_float(e.eigenvalue))
    nonzero_mult = sum(mult for _, mult, _ in rows)
    zero_mult = fact - 1 - nonzero_mult
    if zero_mult:
        carried = {Partition((n,))} | {label for _, _, label in rows}
        try:
            zeros = tuple(
                p for p in characters.irreducible_labels(spec) if p not in carried
            )
        except TooLargeError:
            zeros = ()  # past the enumeration cap only the multiplicity is kept
        entries.append(
            SpectralEntry(
                eigenvalue=Fraction(0), multiplicity=zero_mult, labels=zeros, sign="zero"
            )
        )
    return SpectralSummary(
        group=spec, metric_kind=metrics.HAMMING_PERMUTATION, entries=tuple(entries)
    )


def convolution_matrix(spec: GroupSpec, mu: MuFunction) -> "np.ndarray":
    """The matrix with entry (h, g) = mu(h g^-1) over the enumeration
    order; equals the non-centered kernel -(1/2) D o D entrywise."""
    elements, _, table, inv = groups.multiplication_table(spec)
    values = np.array(
        [float(mu.function.value_at(g)) for g in elements], dtype=float
    )
    return values[table[:, inv]]


@dataclass(frozen=True, eq=False)
class IsotypicProjector:
    """Orthogonal projector onto the isotypic block of one irreducible (a
    merged conjugate frequency pair for cyclic groups) inside functions on
    the group."""

    labels: tuple
    matrix: np.ndarray
    rank: int


def projector_labels(spec: GroupSpec):
    """Canonical label set whose projectors sum to the identity; cyclic
    frequencies j and n-j are merged and listed once (0..n//2)."""
    if spec.kind == groups.CYCLIC:
        return tuple(range(spec.size // 2 + 1))
    return characters.irreducible_labels(spec)


def isotypic_projector(spec: GroupSpec, label) -> IsotypicProjector:
    """P = (dim/|G|) sum_g conj(chi(g)) L_g with L_g left translation.

    For a cyclic frequency j the conjugate pair {j, n-j} is merged so the
    projector is real; its rank is then 2 instead of dim^2 = 1.
    """
    elements, _, table, _ = groups.multiplication_table(spec)
    m = len(elements)
    if spec.kind == groups.CYCLIC:
        n = spec.size
        j = label % n
        merged = {j, (n - j) % n}
        coeff = np.array(
            [sum(math.cos(2.0 * math.pi * jj * a / n) for jj in merged) / n for a in range(n)]
        )
        labels = tuple(sorted(merged))
        rank = len(merged)
    else:
        dim = characters.dimension(spec, label)
        coeff = np.empty(m, dtype=float)
        for i, g in enumerate(elements):
            chi = characters.character_value(spec, label, groups.class_label_of(spec, g))
            coeff[i] = float(chi) * dim / spec.order
        labels = (label,)
        rank = dim * dim
    matrix = np.zeros((m, m), dtype=float)
    cols = np.arange(m)
    for gi in range(m):
        if coeff[gi] == 0.0:
            continue
        matrix[table[gi, cols], cols] += coeff[gi]
    return IsotypicProjector(labels=labels, matrix=matrix, rank=rank)


def standard_rep_coordinates(g: Tuple[int, ...], n: int) -> np.ndarray:
    """Direct coordinates of a permutation in the dominant block, length
    n^2, no group enumeration. For any two permutations the squared
    Euclidean distance of these vectors is (2n - 3) * hamming(g, h)."""
    if len(g) != n:
        raise ValueError("permutation length does not match n")
    scale = math.sqrt((2.0 * n - 3.0) / 2.0)
    coords = np.full((n, n), -scale / n)
    for j, image in enumerate(g):
        coords[image - 1, j] += scale
    return coords.reshape(n * n)
