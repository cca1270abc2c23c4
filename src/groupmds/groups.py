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

from . import _np as np
from .errors import InvalidElementError, TooLargeError

# The bounds of admit(): items listed, bytes of one array or exact result
# (S_7's multiplication table fits, S_8's does not), and steps of work, one
# interpreted operation on one value each, about ten seconds of one core in
# all; array work is one step per FLOPS_PER_STEP floating-point operations.
DEFAULT_ENUMERATION_CAP = 50_000
TABLE_MAX_BYTES = 2 ** 30
WORK_MAX = 5_000_000
FLOPS_PER_STEP = 30_000

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

    @property
    def order_text(self) -> str:
        """The order as message text (:func:`count_text`), S_n's written
        "n!" past 100 digits without computing it."""
        if self.kind == SYMMETRIC and self.size > 69:  # 69! < 10^100 < 70!
            return f"{self.size}!"
        return count_text(self.order)

    def identity(self) -> GroupElement:
        return next(_iter_elements(self))

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
    return array_element(spec, compose_arrays(spec, *array_forms(spec, [g, h])))


# Array forms, for work on many elements at once: a permutation of S_n is
# its row of 0-based images, an element of (C_2)^k its enumeration index
# (its bits read as a binary number, first bit most significant), and an
# element of C_n its residue. Leading axes index the elements.


def array_forms(spec: GroupSpec, elements: Sequence[GroupElement]) -> np.ndarray:
    """The array forms of plain elements, stacked along the first axis."""
    forms = np.array(elements, dtype=np.int64).reshape(len(elements), -1)
    if spec.kind == SYMMETRIC:
        return forms - 1
    if spec.kind == ELEMENTARY_ABELIAN_2:
        return forms @ (1 << np.arange(spec.size - 1, -1, -1))
    return forms[:, 0]


def random_array_elements(spec: GroupSpec, rng: random.Random, count: int) -> np.ndarray:
    """``count`` random elements in array form from ``rng.randbytes``: a
    permutation sorts n random 64-bit keys, an abelian element is one key
    modulo the order."""
    width = spec.size if spec.kind == SYMMETRIC else 1
    keys = np.frombuffer(rng.randbytes(8 * count * width), dtype=np.uint64)
    if spec.kind == SYMMETRIC:
        return keys.reshape(count, width).argsort(axis=1)
    return (keys % np.uint64(spec.order)).astype(np.int64)


def compose_arrays(spec: GroupSpec, g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """``g * h`` on array forms, broadcast over the leading axes."""
    if spec.kind == SYMMETRIC:
        return np.take_along_axis(g, h, axis=-1)  # (g*h)(i) = g(h(i))
    if spec.kind == ELEMENTARY_ABELIAN_2:
        return g ^ h
    return (g + h) % spec.size


def permutation_keys(forms: np.ndarray) -> np.ndarray:
    """Int64 keys (..., keys) that order 0-based permutation array forms (..., n)
    lexicographically, the first key primary: base-n codes, most significant image
    first, each key packing as many images as int64 holds (one key up to n = 15)."""
    n = forms.shape[-1]
    base = max(n, 2)
    width = next(w for w in range(1, 64) if base ** (w + 1) >= 2 ** 63)  # past int64
    return np.stack([forms[..., j:j + width] @ base ** np.arange(min(width, n - j) - 1, -1, -1)
                     for j in range(0, n, width)], axis=-1)


def first_non_permutation(rows: np.ndarray, n: int) -> int:
    """The index of the first row of a (k × width) integer array that is not a
    permutation of 1..n (none is when width != n), or k when every row is one. Rows
    are scattered a chunk at a time into a bounded (chunk × (n + 1)) boolean table,
    column 0 taking what is out of range: a row is a permutation when it sets every
    other column."""
    k, width = rows.shape
    if width != n:
        return 0
    step = max(1, 2 ** 15 // (n + 1))
    for start in range(0, k, step):
        block = rows[start:start + step]
        seen = np.zeros((len(block), n + 1), dtype=bool)
        seen[np.arange(len(block))[:, None], np.where((block >= 1) & (block <= n), block, 0)] = True
        bad = np.flatnonzero(~seen[:, 1:].all(axis=1))
        if bad.size:
            return start + int(bad[0])
    return k


def array_element(spec: GroupSpec, a) -> GroupElement:
    """The plain element of one array form."""
    if spec.kind == SYMMETRIC:
        return tuple(int(i) + 1 for i in a)
    if spec.kind == ELEMENTARY_ABELIAN_2:
        return tuple(int(a) >> (spec.size - 1 - s) & 1 for s in range(spec.size))
    return int(a)


def count_text(count: int) -> str:
    """A count as message text: in full below 10^100, else by its size
    ("2^14285" for a power of two, "about 10^4304" otherwise), so that no
    message writes out an integer past Python's int-to-text limit."""
    if count < 10 ** 100:
        return str(count)
    if count & (count - 1) == 0:
        return f"2^{count.bit_length() - 1}"
    return f"about 10^{math.floor(math.log10(count))}"


def admit(what: str, *, items: int = 0, noun: str = "items", nbytes: int = 0,
          work: int = 0) -> None:
    """The one size guard: raise :class:`TooLargeError`, ``cap`` the bound
    that tripped, before a call lists ``items``, allocates ``nbytes`` or does
    ``work`` steps over its bound. ``what`` opens the message, and for items
    the count of ``noun`` follows ("symmetric(9) has 362880 elements"). The
    message is written only on refusal, each count by :func:`count_text`."""
    for amount, cap, message in (
        (items, DEFAULT_ENUMERATION_CAP, "has {} " + noun + ", above the enumeration cap {}"),
        (nbytes, TABLE_MAX_BYTES, "needs {} bytes, above the table bound {} bytes"),
        (work, WORK_MAX, "needs {} steps, above the work bound {} steps"),
    ):
        if amount > cap:
            raise TooLargeError(f"{what} " + message.format(count_text(amount), cap), cap=cap)


@lru_cache(maxsize=8)
def enumerate_elements(spec: GroupSpec) -> Tuple[GroupElement, ...]:
    """All elements in deterministic lexicographic order, the identity
    first. Cached per spec, so the stages of one computation share one
    listing.

    Raises :class:`TooLargeError` when the group order exceeds the
    enumeration cap.
    """
    admit(spec.text, items=spec.order, noun="elements")
    return tuple(_iter_elements(spec))


def _iter_elements(spec: GroupSpec) -> Iterator[GroupElement]:
    # The one enumeration order; its first item is the identity.
    if spec.kind == SYMMETRIC:
        return _iter_permutations(range(1, spec.size + 1))
    if spec.kind == ELEMENTARY_ABELIAN_2:
        return _iter_product((0, 1), repeat=spec.size)
    return iter(range(spec.size))


def _cycles(g: Tuple[int, ...]):
    """The cycles of a permutation, fixed points included, each listed from
    its smallest point, in order of that point."""
    seen = [False] * len(g)
    cycles = []
    for start in range(1, len(g) + 1):
        cyc = []
        i = start
        while not seen[i - 1]:
            seen[i - 1] = True
            cyc.append(i)
            i = g[i - 1]
        if cyc:
            cycles.append(cyc)
    return cycles


def cycle_type(g: Tuple[int, ...]) -> Partition:
    """Cycle lengths of a permutation, as a partition (descending)."""
    if sorted(g) != list(range(1, len(g) + 1)):
        raise InvalidElementError(f"{g!r} is not a permutation")
    return Partition(tuple(sorted(map(len, _cycles(g)), reverse=True)))


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
    """All partitions of ``n`` in reverse-lexicographic order ([n] first).
    Raises :class:`TooLargeError` when p(n) passes the enumeration cap."""
    if n < 1:
        raise ValueError("n must be >= 1")
    admit(str(n), items=count_partitions(n), noun="partitions")
    return tuple(Partition(p) for p in _partition_tuples(n, n))


_PARTITION_COUNTS = [1]  # p(0), p(1), ... as far as any call has needed


def count_partitions(n: int) -> int:
    """p(n) by Euler's pentagonal-number recurrence (no enumeration), the
    counts up to n filled once, bottom-up. Raises :class:`TooLargeError`
    past the work bound, priced at sqrt(3n) steps a count: each p(m) sums
    about sqrt(8m/3) earlier ones."""
    if n < 0:
        return 0
    admit(f"the partition count p({n})", work=n * math.isqrt(3 * n))
    counts = _PARTITION_COUNTS
    for m in range(len(counts), n + 1):
        # p(m) = sum_k (-1)^(k+1) (p(m - k(3k-1)/2) + p(m - k(3k+1)/2)), k >= 1
        counts.append(sum((1 if k % 2 else -1) * counts[m - p]
                          for k in range(1, (1 + math.isqrt(24 * m + 1)) // 6 + 1)
                          for p in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2) if p <= m))
    return counts[n]


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


@lru_cache(maxsize=8)
def conjugacy_classes(spec: GroupSpec) -> Tuple[ConjugacyClass, ...]:
    """Conjugacy classes in deterministic order, cached per spec like
    :func:`enumerate_elements`.

    For S_n there is one class per partition (reverse-lexicographic order);
    for the abelian kinds every element is its own class, in enumeration
    order. Raises :class:`TooLargeError` above the enumeration cap.
    """
    if spec.kind == SYMMETRIC:
        n, count = spec.size, count_partitions(spec.size)
        admit(spec.text, items=count, noun="classes")
        return tuple(
            ConjugacyClass(_cycle_representative(n, p.parts), _class_size(n, p.parts), p)
            for p in partitions_of(n)
        )
    return tuple(ConjugacyClass(g, 1, g) for g in enumerate_elements(spec))


def random_element(spec: GroupSpec, rng: random.Random) -> GroupElement:
    return array_element(spec, random_array_elements(spec, rng, 1)[0])


def element_text(spec: GroupSpec, g: GroupElement) -> str:
    """Stable text form: "2,3,1" for permutations, "0110" for bit vectors,
    the decimal residue for cyclic elements."""
    validate_element(spec, g)
    if spec.kind == SYMMETRIC:
        return ",".join(str(i) for i in g)
    if spec.kind == ELEMENTARY_ABELIAN_2:
        return "".join(str(b) for b in g)
    return str(g)


def cycle_notation(g: Tuple[int, ...]) -> str:
    """Display form of a permutation as cycles, fixed points omitted; "e" for
    the identity. Used only in human-facing output."""
    cycles = ["(" + " ".join(map(str, cyc)) + ")" for cyc in _cycles(g) if len(cyc) > 1]
    return "".join(cycles) or "e"


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
    admit(f"the multiplication table of {spec.text}", nbytes=m * m * 4)
    idx = np.arange(m, dtype=np.int32)
    if spec.kind == SYMMETRIC:
        # Each product's index is read from a table of n^n keys (3.3 MB at S_7). With w the
        # place values, key(g h) = sum_j w_j g(h(j)) = g @ q[:, h], q[v, h] being the key of
        # the indicator row [h(j) == v]: one product per block of rows bounds the temporaries.
        arr = array_forms(spec, elements)
        rank = np.empty(spec.size ** spec.size, dtype=np.int32)
        rank[permutation_keys(arr)[:, 0]] = idx
        q = permutation_keys(arr == np.arange(spec.size)[:, None, None])[..., 0]
        table = np.empty((m, m), dtype=np.int32)
        step = max(1, 2 ** 16 // m)
        for start in range(0, m, step):
            table[start:start + step] = rank[arr[start:start + step] @ q]
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
