"""Character-predicted MDS spectra for bi-invariant metrics.

For a bi-invariant metric the non-centered kernel is convolution by the
class function mu(g) = -d(g, e)^2 / 2, so each irreducible that appears in
mu's character expansion contributes one eigenvalue

    lambda_i = |G| * sigma_i / dim_i,      sigma_i = <mu, chi_i>,

with eigenspace dimension dim_i^2 inside functions on the group. The
functions here compute that spectrum exactly (no group enumeration), build
the isotypic eigenprojectors, and embed permutations directly into the
dominant (standard-representation) block without touching the full group.
Every spectrum is assembled in one place, the formula above: the character
path supplies each nonzero sigma_i, and the closed forms for Hamming
distance on (C_2)^k and S_n state the few nonzero coefficients directly.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Dict, Tuple

from . import _np as np
from . import characters, groups, metrics
from .characters import ClassFunction, label_text
from .errors import NotBiInvariantError, TooLargeError, UnsupportedClosedFormError
from .exact import Scalar, normalize_scalar, scalar_sign
from .groups import GroupSpec, Partition
from .metrics import standard_coefficient

# Random conjugates on which mu_from_metric re-checks each non-singleton
# class's distance to the identity, on whole arrays of at most
# metrics.CHUNK_ENTRIES entries (one point of one conjugate) at a time; an
# entry costs a random key, its share of a sort, a gather, a scatter and a
# compare, about 70 ns, priced at the rate of _CHECK_FLOPS_PER_ENTRY flops.
_MU_CONJUGATE_CHECKS = 25
_MU_CHECK_SEED = 0xC1A55
_CHECK_FLOPS_PER_ENTRY = 1_000


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

    @property
    def rank(self) -> int:
        return sum(e.multiplicity for e in self.entries if e.sign != "zero")

    @property
    def zero_multiplicity(self) -> int:
        return sum(e.multiplicity for e in self.entries if e.sign == "zero")

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
                    "eigenvalue": str(e.eigenvalue),
                    "eigenvalue_float": float(e.eigenvalue),
                    "multiplicity": e.multiplicity,
                    "labels": [label_text(self.group, lab) for lab in e.labels],
                    "sign": e.sign,
                }
                for e in self.entries
            ],
            "trivial_discarded": True,
        }


def mu_from_metric(spec: GroupSpec, metric) -> ClassFunction:
    """Build mu = -(1/2) d(., e)^2, the class function driving the spectrum.

    Bi-invariance is verified first (exhaustively up to order 120, sampled
    above), and each class representative's distance is re-checked on
    random conjugates rather than trusted; failures raise
    :class:`NotBiInvariantError` with a counterexample. Both run on whole
    arrays through :func:`metrics.array_distances`. :class:`TooLargeError`
    comes first past the work bound: on S_n, p(n) classes x 25 conjugates
    x n points at _CHECK_FLOPS_PER_ENTRY flops each, plus one step per pair
    for a lifted metric; or past the byte bound: the representatives (or
    the abelian distances) and five arrays of one chunk.
    """
    classes = groups.count_partitions(spec.size) if spec.kind == groups.SYMMETRIC else 0
    entries = classes * _MU_CONJUGATE_CHECKS * spec.size
    groups.admit(f"the class checks of {spec.text}",
                 work=entries * _CHECK_FLOPS_PER_ENTRY // groups.FLOPS_PER_STEP,
                 nbytes=8 * ((classes * spec.size or spec.order) + 5 * metrics.CHUNK_ENTRIES))
    distances = metrics.array_distances(
        spec, metric, pairs=(classes or spec.order) + classes * _MU_CONJUGATE_CHECKS)
    report = metrics.check_invariance(spec, metric, mode="bi")
    if not report.passed:
        side, f, g, h = report.counterexample
        raise NotBiInvariantError(
            f"metric is not bi-invariant on {spec.text}: {side}-translation by "
            f"{f!r} changes d({g!r}, {h!r})",
            counterexample=report.counterexample,
        )
    labels, d0 = _checked_class_distances(spec, distances)
    # One exact value per distinct distance, shared by every class at it.
    halves = {d: Fraction(-(d * d), 2) for d in set(d0)}
    return ClassFunction(spec, {label: halves[d] for label, d in zip(labels, d0)})


def _checked_class_distances(spec: GroupSpec, distances):
    """(class labels, d(representative, e)) from the array forms. On S_n
    each representative g is conjugated by its random h in chunks of
    classes: h g h^-1 sends h(i) to h(g(i)), one gather and one scatter."""
    if spec.kind != groups.SYMMETRIC:
        # Every class is one element; its array form is its index.
        labels = groups.enumerate_elements(spec)
        return labels, distances(np.arange(len(labels)), 0).tolist()
    classes = groups.conjugacy_classes(spec)
    n, checks = spec.size, _MU_CONJUGATE_CHECKS
    reps = groups.array_forms(spec, [cls.representative for cls in classes])
    identity = np.arange(n)
    d0 = distances(reps, identity)
    rng = random.Random(_MU_CHECK_SEED)
    chunk = max(1, metrics.CHUNK_ENTRIES // (checks * n))
    for start in range(0, len(reps), chunk):
        g = reps[start:start + chunk, None, :]
        h = groups.random_array_elements(spec, rng, len(g) * checks).reshape(len(g), checks, n)
        conj = np.empty_like(h)
        np.put_along_axis(conj, h, groups.compose_arrays(spec, h, g), axis=-1)
        bad = np.argwhere(distances(conj, identity) != d0[start:start + chunk, None])
        if len(bad):
            c, j = bad[0]
            h, g, conj = (groups.array_element(spec, a)
                          for a in (h[c, j], reps[start + c], conj[c, j]))
            raise NotBiInvariantError(
                f"metric is not constant on the class of {g!r}: "
                f"conjugation by {h!r} changes d(., e)",
                counterexample=("class", h, g, conj),
            )
    return [cls.label for cls in classes], d0.tolist()


def _build_summary(spec: GroupSpec, metric_kind: str, blocks) -> SpectralSummary:
    """The one place eigenvalues are formed. Each block (sigma, dim, labels)
    holds nontrivial labels, in irreducible order, that share the nonzero
    coefficient sigma of mu and the dimension dim: they carry the
    eigenvalue |G| sigma / dim, dim^2 times each. Blocks of one eigenvalue
    merge into one entry, labels in block order, sorted by descending
    value, then the zero entry: the rest of |G| - 1, on the other
    nontrivial labels, none listed past the enumeration cap."""
    merged: Dict = {}
    for sigma, dim, labels in blocks:
        if labels:
            entry = merged.setdefault(normalize_scalar(sigma * Fraction(spec.order, dim)), [0, []])
            entry[0] += dim * dim * len(labels)
            entry[1].append(labels)
    entries = [
        SpectralEntry(lam, mult, tuple(chain.from_iterable(labels)),
                      "positive" if scalar_sign(lam) > 0 else "negative")
        for lam, (mult, labels) in merged.items()
    ]
    entries.sort(key=lambda e: -float(e.eigenvalue))
    zero_multiplicity = spec.order - 1 - sum(e.multiplicity for e in entries)
    if zero_multiplicity:
        try:
            every = characters.irreducible_labels(spec)
            carried = {every[0]}.union(*(e.labels for e in entries))
        except TooLargeError:
            every = carried = ()
        entries.append(SpectralEntry(Fraction(0), zero_multiplicity,
                                     tuple(lab for lab in every if lab not in carried), "zero"))
    return SpectralSummary(group=spec, metric_kind=metric_kind, entries=tuple(entries))


def spectrum_via_characters(spec: GroupSpec, metric) -> SpectralSummary:
    """Predict the complete centered-kernel spectrum from characters alone.

    Raises :class:`TooLargeError` from the decomposition of mu (rational
    valued, so in Q(zeta_n) only on C_n) or from :func:`mu_from_metric`,
    before either lists or allocates anything over a bound.
    """
    characters.admit_decomposition(spec, spec.size if spec.kind == groups.CYCLIC else 1)
    sigma = characters.decompose_class_function(mu_from_metric(spec, metric)).coefficients
    trivial = characters.irreducible_labels(spec)[0]
    blocks = [(coeff, characters.dimension(spec, label), (label,))
              for label, coeff in sigma.items() if coeff != 0 and label != trivial]
    return _build_summary(spec, getattr(metric, "kind", "custom"), blocks)


def _check_float_range(log_largest: float, what: str) -> None:
    """Raise :class:`UnsupportedClosedFormError` when a closed form's largest
    eigenvalue, given by its natural log, is past the float64 range that
    sorting and JSON output read it in."""
    if log_largest > math.log(sys.float_info.max):
        raise UnsupportedClosedFormError(
            f"the closed form's largest eigenvalue, {what}, is past the float64 range"
        )


def closed_form_c2k(k: int) -> SpectralSummary:
    """Hamming spectrum on (C_2)^k without enumerating the group: mu's
    coefficient is k/4 on the k singleton subsets and -1/4 on the C(k, 2)
    pair subsets, zero elsewhere; k <= 1016 keeps the eigenvalues in float
    range."""
    if k < 1:
        raise UnsupportedClosedFormError("k must be >= 1")
    _check_float_range(math.log(k) + (k - 2) * math.log(2), f"k 2^(k-2) at k = {k}")
    # Every irreducible is one-dimensional.
    singletons, pairs = characters.subsets_by_size(k, (1, 2))
    return _build_summary(groups.elementary_abelian_2(k), metrics.HAMMING_BITVECTOR,
                          [(Fraction(k, 4), 1, singletons), (Fraction(-1, 4), 1, pairs)])


def closed_form_sn(n: int) -> SpectralSummary:
    """Hamming spectrum on S_n for 4 <= n <= 170 (float range): mu's
    coefficient is (2n-3)/2 on [n-1,1] and -1/2 on [n-2,2] and [n-2,1,1],
    zero elsewhere."""
    if n < 4:
        raise UnsupportedClosedFormError(
            f"the closed form needs n >= 4 (the [n-2,2] term divides by zero below); "
            f"use spectrum_via_characters for n = {n}"
        )
    _check_float_range(math.lgamma(n + 1) + math.log(standard_coefficient(n) / (n - 1)),
                       f"(2n-3) n!/(2n-2) at n = {n}")
    spec = groups.symmetric(n)
    coefficients = {(n - 1, 1): standard_coefficient(n), (n - 2, 2): Fraction(-1, 2),
                    (n - 2, 1, 1): Fraction(-1, 2)}
    return _build_summary(spec, metrics.HAMMING_PERMUTATION, [
        (sigma, characters.dimension(spec, Partition(parts)), (Partition(parts),))
        for parts, sigma in coefficients.items()])


def convolution_matrix(spec: GroupSpec, mu: ClassFunction) -> "np.ndarray":
    """The matrix with entry (h, g) = mu(h g^-1) over the enumeration
    order; equals the non-centered kernel -(1/2) D o D entrywise.

    Raises :class:`TooLargeError` before the table is built when the
    float64 result would pass the byte bound.
    """
    groups.admit(f"the convolution matrix of {spec.text}", nbytes=spec.order * spec.order * 8)
    _, table, inv = groups.multiplication_table(spec)
    labels, index = groups.class_index(spec)
    values = np.array([float(mu.values[label]) for label in labels], dtype=float)
    return values[index][table[:, inv]]


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
    """P = (dim/|G|) sum_g conj(chi(g)) L_g with L_g left translation, so
    P is the convolution matrix of the class function (dim/|G|) chi.

    For a cyclic frequency j the conjugate pair {j, n-j} is merged so the
    projector is real; its rank is then 2 instead of dim^2 = 1. A label
    that is not an irreducible of ``spec`` raises InvalidElementError.
    """
    dim = characters.dimension(spec, label)
    if spec.kind == groups.CYCLIC:
        n = spec.size
        merged = {label, (n - label) % n}
        # zeta^e and zeta^-e get one float, so P equals its transpose.
        coeff = {a: sum(math.cos(2.0 * math.pi * min(jj * a % n, -jj * a % n) / n)
                        for jj in merged) / n
                 for a in range(n)}
        labels = tuple(sorted(merged))
        rank = len(merged)
    else:
        chi = characters.character_class_function(spec, label).values
        coeff = {c: float(v) * dim / spec.order for c, v in chi.items()}
        labels = (label,)
        rank = dim * dim
    matrix = convolution_matrix(spec, ClassFunction(spec, coeff))
    return IsotypicProjector(labels=labels, matrix=matrix, rank=rank)


def standard_rep_coordinates(g, n: int) -> np.ndarray:
    """Direct coordinates of a permutation in the dominant block, length n^2, no
    group enumeration, scaled by the root of :func:`standard_coefficient`; a (k × n)
    array gives the (k × n^2) array. Two permutations' squared distance is
    (2n - 3) * hamming(g, h) for n >= 3 and hamming(g, h)^2 at n = 2, as in MDS.
    A row that is not a permutation of 1..n raises ValueError, and an output past
    the byte bound :class:`TooLargeError` before it is allocated."""
    given = np.asarray(g, dtype=np.int64)
    perms = np.atleast_2d(given)
    k = perms.shape[0]
    groups.admit(f"the standard coordinates of {k} permutations of {n} items",
                 nbytes=8 * k * n * n)
    if groups.first_non_permutation(perms, n) < k:
        raise ValueError(f"not a permutation of 1..{n}")
    scale = math.sqrt(standard_coefficient(n))
    coords = np.full((k, n, n), -scale / n)
    # coords[r, g_r(j) - 1, j] += scale, one unbuffered add per entry
    np.add.at(coords, (np.arange(k)[:, None], perms - 1, np.arange(n)), scale)
    return coords.reshape(k, n * n) if given.ndim == 2 else coords.reshape(n * n)
