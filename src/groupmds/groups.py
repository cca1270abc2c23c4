"""The three supported finite groups: S_n, (C_2)^k, and C_n.

Elements are plain Python values so they can be dict keys and test
fixtures without ceremony:

* a permutation of S_n is a tuple of images in one-line notation,
  1-based (``(2, 3, 1)`` sends 1 to 2, 2 to 3, 3 to 1);
* an element of (C_2)^k is a tuple of k bits;
* an element of C_n is an int residue in ``range(n)``.

All operations are pure functions keyed on a :class:`GroupSpec`.
The composition convention for permutations is ``(g*h)(i) = g(h(i))``.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations as _iter_permutations
from itertools import product as _iter_product
from typing import Iterator, Sequence, Tuple, Union

import numpy as np

from .errors import InvalidElementError, TooLargeError

DEFAULT_ENUMERATION_CAP = 50_000
# Largest multiplication table, in bytes, that multiplication_table builds:
# S_7 (102 MB) and (C_2)^14 fit, S_8 (6.5 GB) does not.
TABLE_MAX_BYTES = 2 ** 30

SYMMETRIC = "symmetric"
ELEMENTARY_ABELIAN_2 = "elementary-abelian-2"
CYCLIC = "cyclic"
_KINDS = (SYMMETRIC, ELEMENTARY_ABELIAN_2, CYCLIC)

GroupElement = Union[Tuple[int, ...], int]


@dataclass(frozen=True)
class GroupSpec:
    """One of the supported groups, identified by kind and size parameter.

    ``size`` is n for ``symmetric`` and ``cyclic``, k for
    ``elementary-abelian-2``.
    """

    kind: str
    size: int

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown group kind {self.kind!r}")
        if not isinstance(self.size, int) or self.size < 1:
            raise ValueError("group size parameter must be a positive integer")

    @property
    def order(self) -> int:
        if self.kind == SYMMETRIC:
            return math.factorial(self.size)
        if self.kind == ELEMENTARY_ABELIAN_2:
            return 2 ** self.size
        return self.size

    def identity(self) -> GroupElement:
        if self.kind == SYMMETRIC:
            return tuple(range(1, self.size + 1))
        if self.kind == ELEMENTARY_ABELIAN_2:
            return (0,) * self.size
        return 0

    @property
    def text(self) -> str:
        return f"{self.kind}({self.size})"


def symmetric(n: int) -> GroupSpec:
    return GroupSpec(SYMMETRIC, n)


def elementary_abelian_2(k: int) -> GroupSpec:
    return GroupSpec(ELEMENTARY_ABELIAN_2, k)


def cyclic(n: int) -> GroupSpec:
    return GroupSpec(CYCLIC, n)


@dataclass(frozen=True)
class Partition:
    """An integer partition: weakly decreasing positive parts."""

    parts: Tuple[int, ...]

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        object.__setattr__(self, "parts", parts)
        if not parts:
            raise ValueError("a partition has at least one part")
        if any(p < 1 for p in parts):
            raise ValueError("partition parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("partition parts must be weakly decreasing")

    @property
    def n(self) -> int:
        return sum(self.parts)

    def conjugate(self) -> "Partition":
        parts = self.parts
        return Partition(tuple(sum(1 for p in parts if p > i) for i in range(parts[0])))

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __str__(self) -> str:
        return "[" + ",".join(str(p) for p in self.parts) + "]"


@dataclass(frozen=True)
class ConjugacyClass:
    """A conjugacy class: a representative, the class size, and a label.

    The label is a :class:`Partition` (cycle type) for S_n and the element
    itself for the abelian kinds, where every class is a singleton.
    """

    representative: GroupElement
    size: int
    label: object


def validate_element(spec: GroupSpec, g: GroupElement) -> None:
    """Raise :class:`InvalidElementError` unless ``g`` belongs to ``spec``."""
    if spec.kind == SYMMETRIC:
        if (
            not isinstance(g, tuple)
            or len(g) != spec.size
            or sorted(g) != list(range(1, spec.size + 1))
        ):
            raise InvalidElementError(f"{g!r} is not a permutation of 1..{spec.size}")
    elif spec.kind == ELEMENTARY_ABELIAN_2:
        if not isinstance(g, tuple) or len(g) != spec.size or any(b not in (0, 1) for b in g):
            raise InvalidElementError(f"{g!r} is not a length-{spec.size} bit vector")
    else:
        if not isinstance(g, int) or isinstance(g, bool) or not 0 <= g < spec.size:
            raise InvalidElementError(f"{g!r} is not a residue mod {spec.size}")


def multiply(spec: GroupSpec, g: GroupElement, h: GroupElement) -> GroupElement:
    """Group product. For permutations ``(g*h)(i) = g(h(i))``."""
    validate_element(spec, g)
    validate_element(spec, h)
    if spec.kind == SYMMETRIC:
        return tuple(g[h[i] - 1] for i in range(spec.size))
    if spec.kind == ELEMENTARY_ABELIAN_2:
        return tuple(a ^ b for a, b in zip(g, h))
    return (g + h) % spec.size


def inverse(spec: GroupSpec, g: GroupElement) -> GroupElement:
    validate_element(spec, g)
    if spec.kind == SYMMETRIC:
        inv = [0] * spec.size
        for i, image in enumerate(g, start=1):
            inv[image - 1] = i
        return tuple(inv)
    if spec.kind == ELEMENTARY_ABELIAN_2:
        return g
    return (-g) % spec.size


def conjugate_element(spec: GroupSpec, g: GroupElement, h: GroupElement) -> GroupElement:
    """Return ``h * g * h^-1``."""
    return multiply(spec, multiply(spec, h, g), inverse(spec, h))


def check_size(spec: GroupSpec, count: int, what: str) -> None:
    """The one enumeration guard: raise :class:`TooLargeError` before a call
    on ``spec`` lists ``count`` elements, classes or irreducibles (``what``)
    above :data:`DEFAULT_ENUMERATION_CAP`."""
    if count > DEFAULT_ENUMERATION_CAP:
        raise TooLargeError(
            f"{spec.text} has {count} {what}, above the enumeration cap "
            f"{DEFAULT_ENUMERATION_CAP}",
            cap=DEFAULT_ENUMERATION_CAP,
        )


def enumerate_elements(spec: GroupSpec) -> Tuple[GroupElement, ...]:
    """All elements in deterministic lexicographic order, the identity
    first.

    Raises :class:`TooLargeError` when the group order exceeds the
    enumeration cap.
    """
    check_size(spec, spec.order, "elements")
    if spec.kind == SYMMETRIC:
        return tuple(_iter_permutations(range(1, spec.size + 1)))
    if spec.kind == ELEMENTARY_ABELIAN_2:
        return tuple(_iter_product((0, 1), repeat=spec.size))
    return tuple(range(spec.size))


def cycle_type(g: Tuple[int, ...]) -> Partition:
    """Cycle lengths of a permutation, as a partition (descending)."""
    n = len(g)
    if sorted(g) != list(range(1, n + 1)):
        raise InvalidElementError(f"{g!r} is not a permutation")
    seen = [False] * n
    lengths = []
    for start in range(1, n + 1):
        if seen[start - 1]:
            continue
        length = 0
        i = start
        while not seen[i - 1]:
            seen[i - 1] = True
            i = g[i - 1]
            length += 1
        lengths.append(length)
    lengths.sort(reverse=True)
    return Partition(tuple(lengths))


@lru_cache(maxsize=None)
def _partition_tuples(n: int, max_part: int) -> Tuple[Tuple[int, ...], ...]:
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in _partition_tuples(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def partitions_of(n: int) -> Tuple[Partition, ...]:
    """All partitions of ``n`` in reverse-lexicographic order ([n] first)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return tuple(Partition(p) for p in _partition_tuples(n, n))


@lru_cache(maxsize=None)
def count_partitions(n: int) -> int:
    """p(n) by Euler's pentagonal-number recurrence (no enumeration)."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    k = 1
    while True:
        pent1 = k * (3 * k - 1) // 2
        pent2 = k * (3 * k + 1) // 2
        if pent1 > n and pent2 > n:
            break
        sign = -1 if k % 2 == 0 else 1
        if pent1 <= n:
            total += sign * count_partitions(n - pent1)
        if pent2 <= n:
            total += sign * count_partitions(n - pent2)
        k += 1
    return total


def conjugacy_class_count(spec: GroupSpec) -> int:
    if spec.kind == SYMMETRIC:
        return count_partitions(spec.size)
    return spec.order


def _class_size(n: int, parts: Sequence[int]) -> int:
    # |class| = n! / prod_i (i^{m_i} * m_i!) with m_i the multiplicity of part i
    denom = 1
    for part, mult in Counter(parts).items():
        denom *= part ** mult * math.factorial(mult)
    return math.factorial(n) // denom


def _cycle_representative(n: int, parts: Sequence[int]) -> Tuple[int, ...]:
    # Fills cycles consecutively: [3,2] -> (1 2 3)(4 5) -> one-line (2,3,1,5,4).
    image = [0] * n
    start = 1
    for length in parts:
        for offset in range(length - 1):
            image[start - 1 + offset] = start + offset + 1
        image[start - 1 + length - 1] = start
        start += length
    return tuple(image)


def conjugacy_classes(spec: GroupSpec) -> Tuple[ConjugacyClass, ...]:
    """Conjugacy classes in deterministic order.

    For S_n there is one class per partition (reverse-lexicographic order);
    for the abelian kinds every element is its own class, in enumeration
    order. Raises :class:`TooLargeError` above the enumeration cap.
    """
    if spec.kind == SYMMETRIC:
        n = spec.size
        check_size(spec, count_partitions(n), "classes")
        return tuple(
            ConjugacyClass(_cycle_representative(n, p.parts), _class_size(n, p.parts), p)
            for p in partitions_of(n)
        )
    return tuple(ConjugacyClass(g, 1, g) for g in enumerate_elements(spec))


def class_label_of(spec: GroupSpec, g: GroupElement):
    """The conjugacy-class label of ``g``: cycle type for S_n, g itself otherwise."""
    validate_element(spec, g)
    if spec.kind == SYMMETRIC:
        return cycle_type(g)
    return g


def random_element(spec: GroupSpec, rng: random.Random) -> GroupElement:
    if spec.kind == SYMMETRIC:
        images = list(range(1, spec.size + 1))
        rng.shuffle(images)
        return tuple(images)
    if spec.kind == ELEMENTARY_ABELIAN_2:
        return tuple(rng.randrange(2) for _ in range(spec.size))
    return rng.randrange(spec.size)


def element_text(spec: GroupSpec, g: GroupElement) -> str:
    """Stable text form: "2,3,1" for permutations, "0110" for bit vectors,
    the decimal residue for cyclic elements."""
    validate_element(spec, g)
    if spec.kind == SYMMETRIC:
        return ",".join(str(i) for i in g)
    if spec.kind == ELEMENTARY_ABELIAN_2:
        return "".join(str(b) for b in g)
    return str(g)


def parse_element(spec: GroupSpec, text: str) -> GroupElement:
    """Inverse of :func:`element_text`."""
    text = text.strip()
    if spec.kind == SYMMETRIC:
        try:
            g = tuple(int(part) for part in text.split(","))
        except ValueError:
            raise InvalidElementError(f"cannot parse permutation from {text!r}")
    elif spec.kind == ELEMENTARY_ABELIAN_2:
        if any(c not in "01" for c in text):
            raise InvalidElementError(f"cannot parse bit vector from {text!r}")
        g = tuple(int(c) for c in text)
    else:
        try:
            g = int(text)
        except ValueError:
            raise InvalidElementError(f"cannot parse residue from {text!r}")
    validate_element(spec, g)
    return g


def cycle_notation(g: Tuple[int, ...]) -> str:
    """Display form of a permutation as cycles, fixed points omitted; "e" for
    the identity. Used only in human-facing output."""
    n = len(g)
    seen = [False] * n
    cycles = []
    for start in range(1, n + 1):
        if seen[start - 1] or g[start - 1] == start:
            seen[start - 1] = True
            continue
        cyc = []
        i = start
        while not seen[i - 1]:
            seen[i - 1] = True
            cyc.append(i)
            i = g[i - 1]
        cycles.append("(" + " ".join(str(x) for x in cyc) + ")")
    return "".join(cycles) if cycles else "e"


@lru_cache(maxsize=8)
def multiplication_table(spec: GroupSpec):
    """(elements, table, inverse_index) with table[i, j] the index of
    ``elements[i] * elements[j]``. Cached per spec; results must be treated
    as read-only.

    Raises :class:`TooLargeError` before allocating when the int32 table
    would exceed :data:`TABLE_MAX_BYTES`.
    """
    elements = enumerate_elements(spec)
    m = len(elements)
    if m * m * 4 > TABLE_MAX_BYTES:
        raise TooLargeError(
            f"{spec.text} needs a {m * m * 4}-byte multiplication table, above the "
            f"table bound {TABLE_MAX_BYTES} bytes",
            cap=TABLE_MAX_BYTES,
        )
    idx = np.arange(m, dtype=np.int32)
    if spec.kind == SYMMETRIC:
        # Row i holds g[h] for g = elements[i] and every h, 0-based; each
        # product is looked up by its base-n code (n^n entries, 3.3 MB at
        # S_7). Row by row keeps the temporaries at m x n.
        n = spec.size
        arr = np.array(elements, dtype=np.int64).reshape(m, n) - 1
        weights = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
        rank = np.empty(n ** n, dtype=np.int32)
        rank[arr @ weights] = idx
        table = np.empty((m, m), dtype=np.int32)
        for i in range(m):
            table[i] = rank[arr[i][arr] @ weights]
    elif spec.kind == ELEMENTARY_ABELIAN_2:
        # An element's index is its bits read as a binary number.
        table = np.bitwise_xor.outer(idx, idx)
    else:
        table = np.add.outer(idx, idx)
        table %= m
    # The identity is enumerated first, so g's inverse is the column where
    # g's row reaches index 0.
    return elements, table, table.argmin(axis=1).astype(np.int32)


@lru_cache(maxsize=8)
def class_index(spec: GroupSpec):
    """(labels, index): the class labels in :func:`conjugacy_classes` order
    and, for each enumerated element, the position of its class. Cached per
    spec; results must be treated as read-only."""
    elements = enumerate_elements(spec)
    if spec.kind != SYMMETRIC:
        return elements, np.arange(len(elements))
    labels = partitions_of(spec.size)
    position = {label: i for i, label in enumerate(labels)}
    return labels, np.array([position[cycle_type(g)] for g in elements])
