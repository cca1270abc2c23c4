"""Exact character theory for the supported groups.

Irreducible representations are labeled by integer partitions (S_n),
subsets of {1..k} ((C_2)^k, with position 1 the leftmost bit), and
frequencies 0..n-1 (C_n). Symmetric-group characters come from power-sum
sweeps: chi_lambda(rho) is the coefficient of s_lambda in the power sum
p_rho, and multiplying by p_r adds rim hooks (the Murnaghan-Nakayama rule
read forwards), so one sweep over the cycle types gives a whole column of
the table or, by Horner's rule, every row sum of a decomposition at once.
The abelian values are signs and roots of unity, reduced modulo the
cyclotomic polynomial through one integer matrix. Each quantity has one
source: :func:`irreducible_labels` lists the labels, the trivial one first,
and :func:`_character_rows` computes every value, whether for the table, a
class function or one cell, under one admission. Everything here is exact:
integers, Fractions, or :class:`~groupmds.exact.Cyclotomic` values, so
orthogonality and reconstruction identities can be asserted as equalities
rather than to a tolerance.
"""

from __future__ import annotations

import gc
import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from typing import Dict, Mapping, Tuple

from . import _np as np
from . import groups
from .errors import InvalidElementError
from .exact import (
    Cyclotomic,
    Scalar,
    euler_phi,
    normalize_scalar,
    reduce_powers,
    reduction_matrix,
)
from .groups import GroupSpec, Partition


@lru_cache(maxsize=8)
def irreducible_labels(spec: GroupSpec):
    """Irreducible labels in deterministic order, trivial first, cached per
    spec like :func:`groups.conjugacy_classes`.

    Partitions are reverse-lexicographic; subsets sort by (size, binary
    value with position 1 as the most significant bit); frequencies ascend.
    Raises :class:`TooLargeError` above the enumeration cap.
    """
    count = groups.conjugacy_class_count(spec)
    groups.admit(spec.text, items=count, noun="irreducibles")
    if spec.kind == groups.SYMMETRIC:
        return groups.partitions_of(spec.size)
    if spec.kind == groups.ELEMENTARY_ABELIAN_2:
        return tuple(chain.from_iterable(subsets_by_size(spec.size, range(spec.size + 1))))
    return tuple(range(spec.size))


def subsets_by_size(k: int, sizes) -> tuple:
    """One tuple for each of the given sizes: the subsets of {1..k} of that
    size, as frozensets in label order, that is by binary value, the reverse
    of the order of :func:`itertools.combinations`."""
    positions = range(1, k + 1)
    with collector_paused():
        return tuple(tuple(map(frozenset, combinations(positions, size)))[::-1] for size in sizes)


@contextmanager
def collector_paused():
    """Pause Python's cyclic garbage collector, and restore its previous
    state on exit. Used while (C_2)^k labels are built: each new frozenset
    is tracked, and hundreds of thousands of them set off repeated full
    collections, which took three quarters of closed_form_c2k(1016)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _c2k_label_order(k: int) -> np.ndarray:
    """The binary values of the (C_2)^k labels in label order: by size
    (the popcount), then by value."""
    values = np.arange(2 ** k)
    return np.lexsort((values, np.bitwise_count(values)))


def subset_bit_value(spec: GroupSpec, subset: frozenset) -> int:
    """Binary value of a subset of {1..k}, position 1 = leftmost bit."""
    k = spec.size
    return sum(1 << (k - s) for s in subset)


def label_text(spec: GroupSpec, label) -> str:
    if spec.kind == groups.ELEMENTARY_ABELIAN_2:
        return "{" + ",".join(str(s) for s in sorted(label)) + "}"
    return str(label)


def _validate_label(spec: GroupSpec, label) -> None:
    if spec.kind == groups.SYMMETRIC:
        valid = isinstance(label, Partition) and label.n == spec.size
    elif spec.kind == groups.ELEMENTARY_ABELIAN_2:
        valid = isinstance(label, frozenset) and label <= frozenset(range(1, spec.size + 1))
    else:
        valid = isinstance(label, int) and 0 <= label < spec.size
    if not valid:
        raise InvalidElementError(f"{label!r} does not label an irreducible of {spec.text}")


def _validate_class_label(spec: GroupSpec, class_label) -> None:
    if spec.kind == groups.SYMMETRIC:
        if not isinstance(class_label, Partition) or class_label.n != spec.size:
            raise InvalidElementError(f"{class_label!r} is not a cycle type in {spec.text}")
    else:
        groups.validate_element(spec, class_label)


# ---------------------------------------------------------------------------
# Power-sum sweeps on beta-sets. A partition of at most n with parts
# l_1 >= l_2 >= ... is stored as the bitmask of its n-entry beta-set
# {l_i + n - i : i = 1..n}, zero parts included. Multiplying s_mu by p_r
# adds every size-r rim hook to mu: move one bead b to the empty position
# b + r, with sign (-1)^(beads jumped over).


def _beta_mask(parts: Tuple[int, ...], n: int) -> int:
    mask = (1 << (n - len(parts))) - 1
    for i, p in enumerate(parts):
        mask |= 1 << (p + n - 1 - i)
    return mask


def _hook_adder(n: int):
    """add(mask, r) -> [(mask after adding one r-hook, sign), ...], memoized
    for the lifetime of the returned function only."""
    memo = {}

    def add(mask: int, r: int):
        key = (mask, r)
        out = memo.get(key)
        if out is None:
            out = []
            beads = mask
            while beads:
                low = beads & -beads
                beads ^= low
                if not mask & low << r:
                    jumped = mask >> low.bit_length() & ((1 << (r - 1)) - 1)
                    out.append((mask ^ low ^ low << r, -1 if jumped.bit_count() & 1 else 1))
            memo[key] = out
        return out

    return add


def _add_times_power_sum(acc: dict, vec: dict, r: int, add) -> dict:
    """acc += p_r * vec, on Schur expansions {mask: coefficient}."""
    for mask, v in vec.items():
        for new, sign in add(mask, r):
            acc[new] = acc.get(new, 0) + sign * v
    return acc


def _nonzero(vec: dict) -> dict:
    return {mask: v for mask, v in vec.items() if v}


def _sn_columns(n: int) -> dict:
    """{cycle type: {mask: chi}}: every column of the S_n table from one
    walk down the trie of cycle types (parts descending), each prefix's
    power-sum product shared by the classes below it."""
    add = _hook_adder(n)
    columns = {}

    def walk(prefix, vec, remaining):
        if not remaining:
            columns[prefix] = vec
            return
        for r in range(min(prefix[-1] if prefix else n, remaining), 0, -1):
            walk(prefix + (r,), _nonzero(_add_times_power_sum({}, vec, r, add)), remaining - r)

    walk((), {_beta_mask((), n): 1}, n)
    return columns


def _sn_row_sums(n: int, weights: Mapping) -> dict:
    """{mask of lambda: sum_rho w_rho chi_lambda(rho)}, the Schur expansion
    of sum_rho w_rho p_rho for weights keyed by cycle type (parts tuple),
    by Horner's rule over the trie of cycle types:
    value(prefix) = sum_r p_r value(prefix + (r,)), a leaf holding its weight."""
    add = _hook_adder(n)

    def horner(prefix, remaining):
        if not remaining:
            w = weights.get(prefix, 0)
            return {_beta_mask((), n): w} if w else {}
        acc: dict = {}
        for r in range(min(prefix[-1] if prefix else n, remaining), 0, -1):
            _add_times_power_sum(acc, horner(prefix + (r,), remaining - r), r, add)
        return _nonzero(acc)

    return horner((), n)


def character_value(spec: GroupSpec, label, class_label) -> Scalar:
    """chi_label evaluated on the class ``class_label``: its entry in the row
    of :func:`character_class_function`, which the row's admission prices.

    Kept only because the spans of ``perfbench/traced_cli.py`` name it; it
    goes, with :func:`_validate_class_label`, once that list drops it.
    """
    _validate_label(spec, label)
    _validate_class_label(spec, class_label)
    return character_class_function(spec, label).values[class_label]


def _hook_product(parts: Tuple[int, ...]) -> int:
    conj = [sum(1 for p in parts if p > j) for j in range(parts[0])]  # column lengths
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
    """The full exact character table in deterministic row/column order.

    Raises :class:`TooLargeError` past the work bound (two steps a cell, for
    the value and its text, which on C_n walks phi(n) integers, 32 a step;
    S_n adds its sweep) or, on C_n, the byte bound on the text: cells padded
    to the widest root, 12 bytes a term, held three times over."""
    labels = irreducible_labels(spec)
    n = spec.size
    walk = euler_phi(n) // 32 if spec.kind == groups.CYCLIC else 0
    sweep = _sn_sweep(n) if spec.kind == groups.SYMMETRIC else 0
    groups.admit(f"the character table of {spec.text}", work=len(labels) ** 2 * (2 + walk) + sweep)
    if spec.kind == groups.CYCLIC:
        terms = int(np.count_nonzero(reduction_matrix(n), axis=1).max())
        groups.admit(f"the text of the character table of {spec.text}", nbytes=36 * n * n * terms)
    return CharacterTable(group=spec, labels=labels, classes=groups.conjugacy_classes(spec),
                          values=tuple(_character_rows(spec, labels)))


def _sn_sweep(n: int) -> int:
    """The power-sum sweep's steps on S_n: n beads at each trie node."""
    return n * sum(map(groups.count_partitions, range(n + 1)))


def _character_rows(spec: GroupSpec, labels) -> list:
    """Each label's values over :func:`groups.conjugacy_classes`, one tuple
    a label and one formula per kind: the S_n columns of one power-sum
    walk, the list of roots of unity on C_n, and on (C_2)^k the Walsh signs
    (-1)^popcount(value(S) & g) on arrays, class g being the element of
    binary value g. Whatever the labels, the S_n walk builds the whole
    table, admitted first at 1.3 steps a cell, p(n)^2, and a bead of the
    sweep (S_25's row took 2.4-2.9 us a cell, a step being 2 us); the C_n
    list holds all n roots, phi(n) integers each, admitted first at 16
    integers a step and 16 bytes an integer, 8 in the reduction matrix and 8
    in the roots (105-120 ns and 16.0 bytes an integer, C_2003 to C_6007)."""
    n, classes = spec.size, groups.conjugacy_classes(spec)
    if spec.kind == groups.SYMMETRIC:
        groups.admit(f"the character walk of {spec.text}",
                     work=13 * (len(classes) ** 2 + _sn_sweep(n)) // 10)
        columns = _sn_columns(n)
        return [tuple(columns[cls.label.parts].get(mask, 0) for cls in classes)
                for mask in (_beta_mask(lab.parts, n) for lab in labels)]
    if spec.kind == groups.CYCLIC:
        groups.admit(f"the roots of unity of {spec.text}", work=n * euler_phi(n) // 16,
                     nbytes=16 * n * euler_phi(n))
        roots = [normalize_scalar(Cyclotomic.root(n, e)) for e in range(n)]
        return [tuple(roots[lab * a % n] for a in range(n)) for lab in labels]
    values = np.array([subset_bit_value(spec, lab) for lab in labels], dtype=np.int64)
    odd = np.bitwise_count(values[:, None] & np.arange(len(classes))) & 1
    return list(map(tuple, np.where(odd, -1, 1).tolist()))


@dataclass(frozen=True, eq=False)
class ClassFunction:
    """An exact-valued function on conjugacy classes, keyed by class label."""

    group: GroupSpec
    values: Mapping


def character_class_function(spec: GroupSpec, label) -> ClassFunction:
    _validate_label(spec, label)
    [row] = _character_rows(spec, [label])
    return ClassFunction(spec, {c.label: v for c, v in zip(groups.conjugacy_classes(spec), row)})


def inner_product(f1: ClassFunction, f2: ClassFunction) -> Scalar:
    """(1/|G|) * sum over classes of size * f1 * conj(f2), exact."""
    if f1.group != f2.group:
        raise InvalidElementError("inner product requires class functions on the same group")
    spec = f1.group
    total: Scalar = Fraction(0)
    for cls in groups.conjugacy_classes(spec):
        total = total + cls.size * (f1.values[cls.label] * f2.values[cls.label].conjugate())
    return normalize_scalar(total * Fraction(1, spec.order))


@dataclass(frozen=True, eq=False)
class DecompositionResult:
    """Coefficients of a class function on the irreducible characters."""

    group: GroupSpec
    coefficients: Dict


def fwht(values) -> np.ndarray:
    """In-order fast Walsh-Hadamard transform along the last axis; returns
    a new array with out[..., i] = sum_j (-1)^popcount(i & j) values[..., j].
    Integers whose sums could pass int64 are summed as Python integers (an
    object array), so integer results are exact."""
    v = np.array(values)
    n = v.shape[-1]
    if n & (n - 1):
        raise ValueError("length must be a power of two")
    if v.dtype.kind in "iu" and v.size and max(int(v.max()), -int(v.min())) * n >= 2 ** 63:
        v = v.astype(object)
    h = 1
    while h < n:
        pairs = v.reshape(*v.shape[:-1], n // (2 * h), 2, h)
        a, b = pairs[..., 0, :], pairs[..., 1, :]
        total = a + b
        np.subtract(a, b, out=b)
        a[...] = total
        h *= 2
    return v


def _power_terms(value: Scalar, denom: int):
    """(exponent, coefficient) pairs of ``denom * value``, integers, on the
    powers of its root of unity; a rational sits on the power 0."""
    if isinstance(value, Cyclotomic):
        k = denom // value.den
        return [(e, c * k) for e, c in enumerate(value.num) if c]
    return [(0, value.numerator * (denom // value.denominator))] if value else []


def _power_sums(f: ClassFunction, labels, order: int, denom: int):
    """One sequence per power of zeta, indexed like ``labels``: entry i of
    sequence e is the coefficient of zeta^e in |G| * denom * <f, chi_label_i>.
    The row product is the per-kind part."""
    spec = f.group
    if spec.kind == groups.ELEMENTARY_ABELIAN_2:
        # One FWHT per power, filled in enumeration order (the binary
        # index), read in label order.
        vectors = np.zeros((order, spec.order), dtype=object)
        total = 0
        for i, g in enumerate(groups.enumerate_elements(spec)):
            for e, c in _power_terms(f.values[g], denom):
                vectors[e, i] = c
                total += abs(c)
        if total < 2 ** 63:  # no partial sum of a transform passes int64
            vectors = vectors.astype(np.int64)
        return fwht(vectors)[:, _c2k_label_order(spec.size)]
    classes = groups.conjugacy_classes(spec)
    if spec.kind == groups.SYMMETRIC:
        # One Horner sweep per power, weighted by class size.
        weights = [{} for _ in range(order)]
        for cls in classes:
            for e, c in _power_terms(f.values[cls.label], denom):
                weights[e][cls.label.parts] = cls.size * c
        masks = [_beta_mask(label.parts, spec.size) for label in labels]
        return [[sweep.get(m, 0) for m in masks]
                for sweep in (_sn_row_sums(spec.size, w) for w in weights)]
    # C_n: conj(chi_j)(a) = zeta^(-j a), so a term c zeta^e of f(a) lands on
    # the power e - j a of label j, one distinct power per label.
    terms = [(cls.label, e, c)
             for cls in classes for e, c in _power_terms(f.values[cls.label], denom)]
    fits = sum(abs(c) for _, _, c in terms) < 2 ** 63
    sums = np.zeros((order, len(labels)), dtype=np.int64 if fits else object)
    j = np.arange(len(labels))
    for a, e, c in terms:
        sums[(e - j * a) % order, j] += c
    return sums


def admit_decomposition(spec: GroupSpec, order: int) -> None:
    """Raise :class:`TooLargeError` when decomposing a class function on
    ``spec`` with values in Q(zeta_order) lists more irreducibles than the
    enumeration cap or passes the byte bound, at 56 bytes per reduced
    integer returned, or the work bound: a step per reduced integer
    (reduced, scaled, printed) plus, per power, k 2^k for a FWHT or 5/2
    steps a bead of :func:`_sn_sweep`. The sweep leads an S_n spectrum,
    whose request took 4.2 to 4.9 us a bead end to end at n = 33 to 35,
    against 2 us a step."""
    n, count, phi = spec.size, groups.conjugacy_class_count(spec), euler_phi(order)
    groups.admit(spec.text, items=count, noun="irreducibles")
    if spec.kind == groups.SYMMETRIC:
        per_power = 5 * _sn_sweep(n) // 2
    else:
        per_power = n * spec.order if spec.kind == groups.ELEMENTARY_ABELIAN_2 else 0
    groups.admit(f"the exact coefficients of {spec.text}", nbytes=56 * count * phi,
                 work=order * per_power + count * phi)


def decompose_class_function(f: ClassFunction) -> DecompositionResult:
    """sigma_i = <f, chi_i> for every irreducible label, exact.

    One kernel for every group kind and value type. The values are scaled
    once, by their common denominator, to integer coefficients on the powers
    of zeta_N (N = n on C_n, else the values' cyclotomic order, 1 when all
    are rational). Each character row is summed against the class-weighted
    coefficients, the sums of every label are reduced modulo Phi_N in one
    product with the reduction matrix (a rational is in Q(zeta_1), reduced
    the same way), and each label's reduced integers become one value over
    |G| times the denominator. Only the row product depends on the kind:
    the fast Walsh-Hadamard transform for (C_2)^k (O(k 2^k)), collecting
    zeta^(e - j a) powers for C_n, and one Horner power-sum sweep over the
    cycle types for S_n.

    Raises :class:`TooLargeError` from :func:`admit_decomposition` before
    listing or allocating anything.
    """
    spec = f.group
    orders = {v.order for v in f.values.values() if isinstance(v, Cyclotomic)}
    order = spec.size if spec.kind == groups.CYCLIC else max(orders, default=1)
    if orders - {order}:
        raise InvalidElementError(f"values on {spec.text} must all lie in Q(zeta_{order})")
    denom = math.lcm(*(v.den if isinstance(v, Cyclotomic) else v.denominator
                       for v in f.values.values()))
    scale = spec.order * denom
    admit_decomposition(spec, order)
    labels = irreducible_labels(spec)
    rows = list(map(tuple, reduce_powers(_power_sums(f, labels, order, denom), order).T.tolist()))
    # One exact value per distinct row, shared by every label that has it.
    values = {row: normalize_scalar(Cyclotomic._reduced(order, row, scale)) for row in set(rows)}
    return DecompositionResult(spec, dict(zip(labels, map(values.__getitem__, rows))))


def tensor_square_decomposition(spec: GroupSpec, label) -> DecompositionResult:
    """Decompose the pointwise square of chi_label into irreducibles; the
    coefficients are the multiplicities in the tensor square."""
    chi = character_class_function(spec, label).values
    return decompose_class_function(ClassFunction(spec, {c: v * v for c, v in chi.items()}))
