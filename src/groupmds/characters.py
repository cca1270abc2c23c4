"""Exact character theory for the supported groups.

Irreducible representations are labeled by integer partitions (S_n),
subsets of {1..k} ((C_2)^k, with position 1 the leftmost bit), and
frequencies 0..n-1 (C_n). Symmetric-group character values come from the
Murnaghan-Nakayama recursion, memoized on (partition, cycle type); the
abelian values are signs and roots of unity. Everything here is exact:
integers, Fractions, or :class:`~groupmds.exact.Cyclotomic` values, so
orthogonality and reconstruction identities can be asserted as equalities
rather than to a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Mapping, Tuple

from . import groups
from .errors import InvalidElementError
from .exact import (
    Cyclotomic,
    Scalar,
    conj_scalar,
    normalize_scalar,
    scalar_is_zero,
)
from .groups import GroupSpec, Partition


def irreducible_labels(spec: GroupSpec):
    """Irreducible labels in deterministic order, trivial first.

    Partitions are reverse-lexicographic; subsets sort by (size, binary
    value with position 1 as the most significant bit); frequencies ascend.
    Raises :class:`TooLargeError` above the enumeration cap.
    """
    groups.check_size(spec, groups.conjugacy_class_count(spec), "irreducibles")
    if spec.kind == groups.SYMMETRIC:
        return groups.partitions_of(spec.size)
    if spec.kind == groups.ELEMENTARY_ABELIAN_2:
        k = spec.size
        subsets = [frozenset(s + 1 for s in range(k) if bits >> (k - 1 - s) & 1)
                   for bits in range(2 ** k)]
        subsets.sort(key=lambda s: label_sort_key(spec, s))
        return tuple(subsets)
    return tuple(range(spec.size))


def trivial_label(spec: GroupSpec):
    if spec.kind == groups.SYMMETRIC:
        return Partition((spec.size,))
    if spec.kind == groups.ELEMENTARY_ABELIAN_2:
        return frozenset()
    return 0


def subset_bit_value(spec: GroupSpec, subset: frozenset) -> int:
    """Binary value of a subset of {1..k}, position 1 = leftmost bit."""
    k = spec.size
    return sum(1 << (k - s) for s in subset)


def label_sort_key(spec: GroupSpec, label):
    if spec.kind == groups.SYMMETRIC:
        return tuple(-p for p in label.parts)
    if spec.kind == groups.ELEMENTARY_ABELIAN_2:
        return (len(label), subset_bit_value(spec, label))
    return (label,)


def label_text(spec: GroupSpec, label) -> str:
    if spec.kind == groups.SYMMETRIC:
        return str(label)
    if spec.kind == groups.ELEMENTARY_ABELIAN_2:
        return "{" + ",".join(str(s) for s in sorted(label)) + "}"
    return str(label)


def _validate_label(spec: GroupSpec, label) -> None:
    if spec.kind == groups.SYMMETRIC:
        if not isinstance(label, Partition) or label.n != spec.size:
            raise InvalidElementError(f"{label!r} does not label an irreducible of {spec.text}")
    elif spec.kind == groups.ELEMENTARY_ABELIAN_2:
        if not isinstance(label, frozenset) or not label <= set(range(1, spec.size + 1)):
            raise InvalidElementError(f"{label!r} does not label an irreducible of {spec.text}")
    else:
        if not isinstance(label, int) or not 0 <= label < spec.size:
            raise InvalidElementError(f"{label!r} does not label an irreducible of {spec.text}")


def _validate_class_label(spec: GroupSpec, class_label) -> None:
    if spec.kind == groups.SYMMETRIC:
        if not isinstance(class_label, Partition) or class_label.n != spec.size:
            raise InvalidElementError(f"{class_label!r} is not a cycle type in {spec.text}")
    else:
        groups.validate_element(spec, class_label)


# ---------------------------------------------------------------------------
# Murnaghan-Nakayama recursion, via beta-sets (first-column hook lengths).
# Removing a length-r rim hook from the partition with beta-set B is
# subtracting r from some b in B while keeping the entries distinct; the
# sign is (-1)^(number of beta entries jumped over).


@lru_cache(maxsize=None)
def _mn_character(lam: Tuple[int, ...], rho: Tuple[int, ...]) -> int:
    if not lam:
        return 1 if not rho else 0
    if not rho:
        return 1 if not lam else 0
    r = rho[0]
    rest = rho[1:]
    m = len(lam)
    beta = [lam[i] + (m - 1 - i) for i in range(m)]
    bset = set(beta)
    total = 0
    for b in beta:
        nb = b - r
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for x in beta if nb < x < b)
        new_beta = sorted((bset - {b}) | {nb}, reverse=True)
        new_lam = tuple(new_beta[i] - (m - 1 - i) for i in range(m))
        new_lam = tuple(p for p in new_lam if p > 0)
        total += (-1) ** height * _mn_character(new_lam, rest)
    return total


def character_value(spec: GroupSpec, label, class_label) -> Scalar:
    """chi_label evaluated on the class ``class_label``.

    Integers for S_n, +-1 for (C_2)^k, and an exact root of unity
    (:class:`Cyclotomic`, collapsed to a Fraction when rational) for C_n.
    """
    _validate_label(spec, label)
    _validate_class_label(spec, class_label)
    if spec.kind == groups.SYMMETRIC:
        return _mn_character(label.parts, class_label.parts)
    if spec.kind == groups.ELEMENTARY_ABELIAN_2:
        return -1 if sum(class_label[s - 1] for s in label) % 2 else 1
    n = spec.size
    return normalize_scalar(Cyclotomic.root(n, label * class_label % n))


def _hook_product(parts: Tuple[int, ...]) -> int:
    conj = Partition(parts).conjugate().parts
    prod = 1
    for i, row in enumerate(parts):
        for j in range(row):
            prod *= row - j + conj[j] - i - 1
    return prod


def dimension(spec: GroupSpec, label) -> int:
    """Dimension of the irreducible: the hook-length formula for
    partitions, 1 for the abelian kinds."""
    _validate_label(spec, label)
    if spec.kind == groups.SYMMETRIC:
        return math.factorial(label.n) // _hook_product(label.parts)
    return 1


@dataclass(frozen=True, eq=False)
class CharacterTable:
    """Rows = irreducible labels, columns = conjugacy classes, exact entries."""

    group: GroupSpec
    labels: tuple
    classes: Tuple[groups.ConjugacyClass, ...]
    values: Tuple[Tuple[Scalar, ...], ...]

    def to_text(self) -> str:
        headers = [""] + [
            f"{self._class_text(c)} ({c.size})" for c in self.classes
        ]
        rows = [[label_text(self.group, lab)] + [str(v) for v in row]
                for lab, row in zip(self.labels, self.values)]
        widths = [max(len(headers[j]), *(len(r[j]) for r in rows)) for j in range(len(headers))]
        lines = ["  ".join(h.rjust(w) for h, w in zip(headers, widths))]
        for r in rows:
            lines.append("  ".join(c.rjust(w) for c, w in zip(r, widths)))
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["irreducible"] + [self._class_text(c) for c in self.classes])
        writer.writerow(["class_size"] + [c.size for c in self.classes])
        for lab, row in zip(self.labels, self.values):
            writer.writerow([label_text(self.group, lab)] + [str(v) for v in row])
        return buf.getvalue()

    def _class_text(self, cls: groups.ConjugacyClass) -> str:
        if self.group.kind == groups.SYMMETRIC:
            return groups.cycle_notation(cls.representative)
        return groups.element_text(self.group, cls.representative)


def character_table(spec: GroupSpec) -> CharacterTable:
    """The full exact character table in deterministic row/column order."""
    labels = irreducible_labels(spec)
    classes = groups.conjugacy_classes(spec)
    values = tuple(
        tuple(character_value(spec, lab, cls.label) for cls in classes) for lab in labels
    )
    return CharacterTable(group=spec, labels=labels, classes=classes, values=values)


@dataclass(frozen=True, eq=False)
class ClassFunction:
    """An exact-valued function on conjugacy classes, keyed by class label."""

    group: GroupSpec
    values: Mapping

    def value(self, class_label) -> Scalar:
        return self.values[class_label]

    def value_at(self, g) -> Scalar:
        return self.values[groups.class_label_of(self.group, g)]


def character_class_function(spec: GroupSpec, label) -> ClassFunction:
    classes = groups.conjugacy_classes(spec)
    return ClassFunction(spec, {c.label: character_value(spec, label, c.label) for c in classes})


def inner_product(f1: ClassFunction, f2: ClassFunction) -> Scalar:
    """(1/|G|) * sum over classes of size * f1 * conj(f2), exact."""
    if f1.group != f2.group:
        raise InvalidElementError("inner product requires class functions on the same group")
    spec = f1.group
    total: Scalar = Fraction(0)
    for cls in groups.conjugacy_classes(spec):
        total = total + cls.size * (f1.value(cls.label) * conj_scalar(f2.value(cls.label)))
    return normalize_scalar(total * Fraction(1, spec.order))


@dataclass(frozen=True, eq=False)
class DecompositionResult:
    """Coefficients of a class function on the irreducible characters."""

    group: GroupSpec
    coefficients: Dict

    def coefficient(self, label) -> Scalar:
        return self.coefficients[label]

    def reconstruct(self, class_label) -> Scalar:
        spec = self.group
        total: Scalar = Fraction(0)
        for label, coeff in self.coefficients.items():
            if not scalar_is_zero(coeff):
                total = total + coeff * character_value(spec, label, class_label)
        return normalize_scalar(total)


def fwht(values) -> list:
    """In-order fast Walsh-Hadamard transform; returns a new list with
    out[i] = sum_j (-1)^popcount(i & j) * values[j]."""
    v = list(values)
    n = len(v)
    if n & (n - 1):
        raise ValueError("length must be a power of two")
    h = 1
    while h < n:
        for i in range(0, n, h * 2):
            for j in range(i, i + h):
                a, b = v[j], v[j + h]
                v[j], v[j + h] = a + b, a - b
        h *= 2
    return v


def _bitvector_index(g: Tuple[int, ...]) -> int:
    value = 0
    for bit in g:
        value = value << 1 | bit
    return value


def _power_terms(value: Scalar):
    """(exponent, coefficient) pairs of an exact scalar on the powers of its
    root of unity; a rational sits on the power 0."""
    if isinstance(value, Cyclotomic):
        return [(e, c) for e, c in enumerate(value.coeffs) if c]
    return [(0, value)] if value else []


def _row_sums(f: ClassFunction, order: int, denom: int):
    """Yield (label, sums) with sums[e] the coefficient of zeta^e in
    |G| * denom * <f, chi_label>; the row product is the per-kind part."""
    spec = f.group
    if spec.kind == groups.ELEMENTARY_ABELIAN_2:
        # One FWHT per power, filled straight from the values.
        vectors = [[0] * spec.order for _ in range(order)]
        for g, value in f.values.items():
            for e, c in _power_terms(value):
                vectors[e][_bitvector_index(g)] = int(c * denom)
        walsh = [fwht(v) for v in vectors]
        for label in irreducible_labels(spec):
            yield label, [w[subset_bit_value(spec, label)] for w in walsh]
        return
    # On C_n and S_n each conj(chi_label) value is a monomial: zeta^(-j a)
    # at frequency j, or the integer Murnaghan-Nakayama value.
    weighted = [
        (cls.label,
         [(e, cls.size * int(c * denom)) for e, c in _power_terms(f.values[cls.label])])
        for cls in groups.conjugacy_classes(spec)
    ]
    for label in irreducible_labels(spec):
        sums = [0] * order
        for cl, terms in weighted:
            if spec.kind == groups.CYCLIC:
                shift, chi = -label * cl, 1
            else:
                shift, chi = 0, _mn_character(label.parts, cl.parts)
            for e, c in terms:
                sums[(e + shift) % order] += chi * c
        yield label, sums


def decompose_class_function(f: ClassFunction) -> DecompositionResult:
    """sigma_i = <f, chi_i> for every irreducible label, exact.

    One kernel for every group kind and value type. The values are scaled
    once, by their common denominator, to integer coefficients on the powers
    of zeta_N (N = n on C_n, else the values' cyclotomic order, 1 when all
    are rational). Each character row is summed against the class-weighted
    coefficients and divided by |G| times the denominator once at the end.
    Only the row product depends on the kind: the fast Walsh-Hadamard
    transform for (C_2)^k (O(k 2^k)), collecting zeta^(e - j a) powers for
    C_n, and the Murnaghan-Nakayama row over one class list for S_n.
    """
    spec = f.group
    orders = {v.order for v in f.values.values() if isinstance(v, Cyclotomic)}
    order = spec.size if spec.kind == groups.CYCLIC else max(orders, default=1)
    if orders - {order}:
        raise InvalidElementError(f"values on {spec.text} must all lie in Q(zeta_{order})")
    denom = math.lcm(*(c.denominator for v in f.values.values() for _, c in _power_terms(v)))
    scale = spec.order * denom
    return DecompositionResult(spec, {
        label: Fraction(sums[0], scale) if order == 1
        else normalize_scalar(Cyclotomic(order, [Fraction(s, scale) for s in sums]))
        for label, sums in _row_sums(f, order, denom)
    })


def tensor_square_decomposition(spec: GroupSpec, label) -> DecompositionResult:
    """Decompose the pointwise square of chi_label into irreducibles; the
    coefficients are the multiplicities in the tensor square."""
    _validate_label(spec, label)
    classes = groups.conjugacy_classes(spec)
    values = {}
    for c in classes:
        v = character_value(spec, label, c.label)
        values[c.label] = v * v
    return decompose_class_function(ClassFunction(spec, values))
