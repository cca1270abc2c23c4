import math
import random
import time
import tracemalloc
from functools import lru_cache
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from groupmds import characters, groups, metrics, spectral
from groupmds.errors import InvalidElementError, TooLargeError
from groupmds.groups import (
    GroupSpec,
    Partition,
    conjugacy_classes,
    cycle_type,
    cyclic,
    elementary_abelian_2,
    enumerate_elements,
    multiply,
    partitions_of,
    symmetric,
)

SMALL_SPECS = [symmetric(3), symmetric(4), elementary_abelian_2(3), cyclic(7)]


# --- independent oracles -----------------------------------------------------


def compose_by_application(g, h):
    """Apply h then g pointwise, without the library's multiply."""
    g_map = {i + 1: image for i, image in enumerate(g)}
    h_map = {i + 1: image for i, image in enumerate(h)}
    return tuple(g_map[h_map[i]] for i in range(1, len(g) + 1))


def class_label_of(spec, g):
    """The conjugacy-class label of ``g``, one element at a time: cycle type
    for S_n, g itself otherwise."""
    groups.validate_element(spec, g)
    return cycle_type(g) if spec.kind == groups.SYMMETRIC else g


@lru_cache(maxsize=None)
def element_forms(spec):
    return groups.array_forms(spec, enumerate_elements(spec))


def brute_force_inverse(spec, g):
    """The h with g h = e, found by composing g with every element at once."""
    elements = enumerate_elements(spec)
    products = groups.compose_arrays(spec, groups.array_forms(spec, [g]), element_forms(spec))
    found = (products == groups.array_forms(spec, [spec.identity()])).reshape(len(elements), -1)
    (index,) = np.flatnonzero(found.all(axis=1))  # exactly one inverse
    return elements[index]


def walk_cycle_type(g):
    """Reference: the separate cycle-length walk cycle_type once had."""
    n = len(g)
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


def walk_cycle_notation(g):
    """Reference: the separate walk cycle_notation once had."""
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


def brute_partitions(n):
    out = set()

    def rec(remaining, prefix):
        if remaining == 0:
            out.add(tuple(sorted(prefix, reverse=True)))
            return
        for part in range(1, remaining + 1):
            rec(remaining - part, prefix + [part])

    rec(n, [])
    return out


# --- multiply / inverse ------------------------------------------------------


def test_multiply_s3_example():
    s3 = symmetric(3)
    assert multiply(s3, (2, 1, 3), (2, 3, 1)) == (1, 3, 2)
    assert compose_by_application((2, 1, 3), (2, 3, 1)) == (1, 3, 2)


def test_multiply_bitvectors_xor():
    c22 = elementary_abelian_2(2)
    assert multiply(c22, (1, 0), (1, 1)) == (0, 1)


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_multiply_identity_law(spec):
    rng = random.Random(11)
    e = spec.identity()
    for _ in range(50):
        g = groups.random_element(spec, rng)
        assert multiply(spec, g, e) == g
        assert multiply(spec, e, g) == g


def test_multiply_matches_pointwise_application_on_all_of_s4():
    s4 = symmetric(4)
    elements = enumerate_elements(s4)
    for g in elements:
        for h in elements:
            assert multiply(s4, g, h) == compose_by_application(g, h)


def test_multiply_rejects_kind_and_size_mismatch():
    s3 = symmetric(3)
    with pytest.raises(InvalidElementError):
        multiply(s3, (2, 1, 3), (1, 2, 3, 4))
    with pytest.raises(InvalidElementError):
        multiply(s3, (2, 1, 3), (0, 1, 1))
    with pytest.raises(InvalidElementError):
        multiply(cyclic(5), 2, 7)


def test_inverse_s3_example():
    s3 = symmetric(3)
    assert brute_force_inverse(s3, (2, 3, 1)) == (3, 1, 2)


def test_inverse_bitvector_is_involution():
    c23 = elementary_abelian_2(3)
    for g in enumerate_elements(c23):
        assert brute_force_inverse(c23, g) == g


def test_inverse_cyclic():
    assert brute_force_inverse(cyclic(5), 2) == 3


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_group_laws_random_triples(spec):
    rng = random.Random(99)
    e = spec.identity()
    for _ in range(1000):
        f = groups.random_element(spec, rng)
        g = groups.random_element(spec, rng)
        h = groups.random_element(spec, rng)
        assert multiply(spec, multiply(spec, f, g), h) == multiply(spec, f, multiply(spec, g, h))
        assert multiply(spec, f, brute_force_inverse(spec, f)) == e
        assert multiply(spec, brute_force_inverse(spec, f), f) == e


@pytest.mark.parametrize("spec", [symmetric(4), elementary_abelian_2(4), cyclic(24)])
def test_group_laws_exhaustive_small_orders(spec):
    elements = enumerate_elements(spec)
    assert len(elements) <= 24
    for f, g, h in product(elements, repeat=3):
        assert multiply(spec, multiply(spec, f, g), h) == multiply(spec, f, multiply(spec, g, h))


# --- enumeration -------------------------------------------------------------


def test_enumerate_s3():
    elements = enumerate_elements(symmetric(3))
    assert len(elements) == 6
    assert elements[0] == (1, 2, 3)
    assert list(elements) == sorted(elements)


@pytest.mark.parametrize(
    "spec", [symmetric(1), symmetric(2), symmetric(5), symmetric(7),
             elementary_abelian_2(1), elementary_abelian_2(4), elementary_abelian_2(10),
             cyclic(1), cyclic(2), cyclic(9), cyclic(500)], ids=lambda s: s.text)
def test_enumeration_lists_the_identity_first(spec):
    # The inverse index and the invariance check read row and column 0.
    e = spec.identity()
    assert enumerate_elements(spec)[0] == e
    assert all(multiply(spec, e, g) == g == multiply(spec, g, e)
               for g in enumerate_elements(spec)[:50])


def test_identity_of_a_group_over_the_enumeration_cap():
    # identity() reads one element, so it needs no enumeration guard.
    assert symmetric(20).identity() == tuple(range(1, 21))
    assert elementary_abelian_2(40).identity() == (0,) * 40
    assert cyclic(10 ** 9).identity() == 0


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=lambda s: s.text)
def test_multiplication_table_inverse_index(spec):
    elements, table, inv = groups.multiplication_table(spec)
    assert [elements[i] for i in inv] == [brute_force_inverse(spec, g) for g in elements]
    assert all(table[i, inv[i]] == 0 for i in range(len(elements)))


TABLE_SPECS = ([symmetric(n) for n in range(1, 6)]
               + [elementary_abelian_2(k) for k in range(1, 8)]
               + [cyclic(n) for n in (1, 2, 7, 60, 120)])


@pytest.mark.parametrize("spec", TABLE_SPECS, ids=lambda s: s.text)
def test_multiplication_table_matches_multiply(spec):
    elements, table, _ = groups.multiplication_table(spec)
    index = {g: i for i, g in enumerate(elements)}
    reference = np.array([[index[multiply(spec, g, h)] for h in elements] for g in elements],
                         dtype=np.int32)
    assert table.dtype == np.int32
    assert np.array_equal(table, reference)


def test_s6_table_is_a_latin_square_bordered_by_the_identity():
    _, table, _ = groups.multiplication_table(symmetric(6))
    identity = np.arange(720)
    assert np.array_equal(table[0], identity)
    assert np.array_equal(table[:, 0], identity)
    assert all(np.array_equal(np.sort(row), identity) for row in table)
    assert all(np.array_equal(np.sort(col), identity) for col in table.T)


@pytest.mark.parametrize("n", range(2, 34))
def test_permutation_keys_order_permutations_as_sorted_orders_their_tuples(n):
    forms = groups.random_array_elements(symmetric(n), random.Random(n), 300)
    forms[100:200] = forms[:100]
    forms[100:200, [-2, -1]] = forms[100:200, [-1, -2]]  # all but the last two images shared
    forms[200:] = forms[:100]  # repeats
    keys = groups.permutation_keys(forms)
    assert keys.dtype == np.int64 and (keys.shape[1] == 1) == (n <= 15)
    order = np.lexsort(keys.T[::-1])  # the first key is the primary one
    assert forms[order].tolist() == sorted(forms.tolist())
    assert len(set(map(tuple, keys.tolist()))) == len(set(map(tuple, forms.tolist())))
    if n <= 15:  # one key: the base-n number of the images, the first the most significant
        assert keys[:, 0].tolist() == [sum(d * n ** (n - 1 - j) for j, d in enumerate(row))
                                       for row in forms.tolist()]


@pytest.mark.parametrize("n", [2, 3, 10])
@pytest.mark.parametrize("fault", ["repeat", "zero", "negative", "past n", "huge"])
def test_first_non_permutation_finds_the_first_bad_row_across_chunks(n, fault):
    rows = groups.random_array_elements(symmetric(n), random.Random(n), 20_000) + 1
    assert groups.first_non_permutation(rows, n) == len(rows)
    value = {"zero": 0, "negative": -1, "past n": n + 1, "huge": 2 ** 62}.get(fault)
    # Later rows first; chunks hold 8192 rows at n = 3 and 2978 at n = 10.
    for at in [19_999, 8192, 8191, 2978, 0]:
        rows[at, -1] = rows[at, 0] if value is None else value
        assert sorted(rows[at].tolist()) != list(range(1, n + 1))
        assert groups.first_non_permutation(rows, n) == at
    assert groups.first_non_permutation(rows[:, :-1], n) == 0  # the wrong width
    assert groups.first_non_permutation(rows[:0], n) == 0


@pytest.mark.parametrize("spec", SMALL_SPECS + [symmetric(1), symmetric(6)], ids=lambda s: s.text)
def test_class_index_matches_class_label_of(spec):
    labels, index = groups.class_index(spec)
    assert labels == tuple(c.label for c in conjugacy_classes(spec))
    assert [labels[i] for i in index] == [class_label_of(spec, g)
                                          for g in enumerate_elements(spec)]


def test_enumerate_c22_binary_order():
    assert enumerate_elements(elementary_abelian_2(2)) == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_enumeration_cap_s8_fits_s9_does_not():
    assert len(enumerate_elements(symmetric(8))) == 40320
    with pytest.raises(TooLargeError) as excinfo:
        enumerate_elements(symmetric(9))
    assert excinfo.value.cap == 50000
    assert "50000" in str(excinfo.value)


S9 = symmetric(9)
OVER_CAP_CALLS = [
    pytest.param(lambda: conjugacy_classes(symmetric(45)), id="conjugacy_classes-S45"),
    pytest.param(lambda: characters.irreducible_labels(elementary_abelian_2(16)),
                 id="irreducible_labels-C2^16"),
    pytest.param(lambda: characters.irreducible_labels(symmetric(45)),
                 id="irreducible_labels-S45"),
    pytest.param(lambda: characters.irreducible_labels(cyclic(60000)),
                 id="irreducible_labels-C60000"),
    pytest.param(lambda: characters.character_table(elementary_abelian_2(16)),
                 id="character_table-C2^16"),
    pytest.param(lambda: spectral.spectrum_via_characters(
        cyclic(60000), metrics.circular_arc_metric(cyclic(60000))),
        id="spectrum_via_characters-C60000"),
    pytest.param(lambda: metrics.build_distance_matrix(S9, metrics.hamming_metric(S9)),
                 id="build_distance_matrix-S9"),
    pytest.param(lambda: groups.multiplication_table(S9), id="multiplication_table-S9"),
    # p(45) = 89134 irreducibles.
    pytest.param(lambda: spectral.spectrum_via_characters(
        symmetric(45), metrics.hamming_metric(symmetric(45))),
        id="spectrum_via_characters-S45"),
]
# Orders under the enumeration cap whose arrays are over the byte bound.
OVER_TABLE_BOUND_CALLS = [
    pytest.param(lambda: groups.multiplication_table(symmetric(8)),
                 id="multiplication_table-S8"),
    pytest.param(lambda: groups.multiplication_table(elementary_abelian_2(15)),
                 id="multiplication_table-C2^15"),
    pytest.param(lambda: groups.multiplication_table(cyclic(40000)),
                 id="multiplication_table-C40000"),
    # The reduced integers the C_40000 kernel would return.
    pytest.param(lambda: spectral.spectrum_via_characters(
        cyclic(40000), metrics.circular_arc_metric(cyclic(40000))),
        id="spectrum_via_characters-C40000"),
    pytest.param(lambda: metrics.build_distance_matrix(
        symmetric(8), metrics.hamming_metric(symmetric(8))),
        id="build_distance_matrix-S8"),
    pytest.param(lambda: metrics.build_distance_matrix(
        elementary_abelian_2(15), metrics.hamming_metric(elementary_abelian_2(15))),
        id="build_distance_matrix-C2^15"),
    pytest.param(lambda: metrics.build_distance_matrix(
        cyclic(40000), metrics.circular_arc_metric(cyclic(40000))),
        id="build_distance_matrix-C40000"),
    # The (C_2)^14 table fits the bound; its float64 convolution matrix does
    # not, nor S_9's, refused before the elements are listed.
    pytest.param(lambda: spectral.isotypic_projector(elementary_abelian_2(14), frozenset()),
                 id="isotypic_projector-C2^14"),
    pytest.param(lambda: spectral.isotypic_projector(S9, Partition((8, 1))),
                 id="isotypic_projector-S9"),
]
# Listings and arrays within their bounds whose work is not.
OVER_WORK_BOUND_CALLS = [
    pytest.param(lambda: characters.character_table(symmetric(30)), id="character_table-S30"),
    pytest.param(lambda: characters.character_table(elementary_abelian_2(13)),
                 id="character_table-C2^13"),
    pytest.param(lambda: characters.character_table(cyclic(2000)), id="character_table-C2000"),
    pytest.param(lambda: characters.character_table(cyclic(40000)),
                 id="character_table-C40000"),
    pytest.param(lambda: spectral.spectrum_via_characters(
        symmetric(34), metrics.hamming_metric(symmetric(34))),
        id="spectrum_via_characters-S34"),
    pytest.param(lambda: spectral.spectrum_via_characters(
        symmetric(41), metrics.hamming_metric(symmetric(41))),
        id="spectrum_via_characters-S41"),
]


@pytest.mark.parametrize("call,cap", [
    *[pytest.param(p.values[0], groups.DEFAULT_ENUMERATION_CAP, id=p.id) for p in OVER_CAP_CALLS],
    *[pytest.param(p.values[0], groups.TABLE_MAX_BYTES, id=p.id) for p in OVER_TABLE_BOUND_CALLS],
    *[pytest.param(p.values[0], groups.WORK_MAX, id=p.id) for p in OVER_WORK_BOUND_CALLS],
])
def test_every_listing_entry_point_refuses_over_cap_input_quickly(call, cap):
    # The one guard, run on counts computed from the group's parameters,
    # must trip before any of the work or the arrays it counts: quickly,
    # and with a small fraction of the byte bound allocated.
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(TooLargeError) as excinfo:
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 2.0
    assert peak < groups.TABLE_MAX_BYTES // 16
    assert excinfo.value.cap == cap


def test_admit_checks_items_then_bytes_then_work():
    with pytest.raises(TooLargeError) as excinfo:
        groups.admit("x", items=groups.DEFAULT_ENUMERATION_CAP + 1,
                     nbytes=groups.TABLE_MAX_BYTES + 1, work=groups.WORK_MAX + 1)
    assert excinfo.value.cap == groups.DEFAULT_ENUMERATION_CAP
    with pytest.raises(TooLargeError) as excinfo:
        groups.admit("x", nbytes=groups.TABLE_MAX_BYTES + 1, work=groups.WORK_MAX + 1)
    assert excinfo.value.cap == groups.TABLE_MAX_BYTES
    with pytest.raises(TooLargeError) as excinfo:
        groups.admit("the work of x", work=groups.WORK_MAX + 1)
    assert str(excinfo.value) == (f"the work of x needs {groups.WORK_MAX + 1} steps, "
                                  f"above the work bound {groups.WORK_MAX} steps")
    groups.admit("x", items=groups.DEFAULT_ENUMERATION_CAP, nbytes=groups.TABLE_MAX_BYTES,
                 work=groups.WORK_MAX)


@pytest.mark.parametrize("count, text", [
    (0, "0"), (10 ** 100 - 1, "9" * 100), (10 ** 100, "about 10^100"),
    (2 ** 14285, "2^14285"), (3 ** 10000, "about 10^4771"), (2 ** 14285 + 1, "about 10^4300"),
], ids=["0", "99-digits", "10^100", "2^14285", "3^10000", "2^14285+1"])
def test_count_text_writes_huge_counts_by_their_size(count, text):
    assert groups.count_text(count) == text


def test_admit_writes_huge_counts_by_their_size():
    with pytest.raises(TooLargeError) as excinfo:
        groups.admit("x", items=2 ** 14285, noun="elements")
    assert str(excinfo.value) == "x has 2^14285 elements, above the enumeration cap 50000"
    with pytest.raises(TooLargeError) as excinfo:
        groups.admit("x", work=3 ** 10000)
    assert str(excinfo.value) == "x needs about 10^4771 steps, above the work bound 5000000 steps"


def test_order_text_names_huge_orders_without_computing_them():
    assert symmetric(69).order_text == str(math.factorial(69))
    assert symmetric(70).order_text == "70!"
    assert elementary_abelian_2(332).order_text == str(2 ** 332)
    assert elementary_abelian_2(333).order_text == "2^333"
    start = time.perf_counter()
    assert symmetric(10 ** 6).order_text == "1000000!"
    assert time.perf_counter() - start < 0.1


# --- conjugacy classes -------------------------------------------------------


def conjugacy_orbit(spec, rep):
    return {
        multiply(spec, multiply(spec, h, rep), brute_force_inverse(spec, h))
        for h in enumerate_elements(spec)
    }


@pytest.mark.parametrize(
    "parts,expected_size", [((2, 2), 3), ((2, 1, 1), 6), ((4,), 6), ((3, 1), 8)]
)
def test_s4_class_sizes_against_orbit_oracle(parts, expected_size):
    s4 = symmetric(4)
    by_label = {c.label: c for c in conjugacy_classes(s4)}
    cls = by_label[Partition(parts)]
    assert cls.size == expected_size
    assert len(conjugacy_orbit(s4, cls.representative)) == expected_size


def test_abelian_classes_are_singletons():
    classes = conjugacy_classes(elementary_abelian_2(3))
    assert len(classes) == 8
    assert all(c.size == 1 for c in classes)


@pytest.mark.parametrize(
    "spec",
    [symmetric(n) for n in range(1, 8)]
    + [elementary_abelian_2(k) for k in range(1, 13)]
    + [cyclic(n) for n in (1, 2, 12, 720, 5040)],
)
def test_class_equation(spec):
    assert spec.order <= 5040
    assert sum(c.size for c in conjugacy_classes(spec)) == spec.order


def test_class_count_matches_partition_count():
    for n in range(1, 9):
        assert len(conjugacy_classes(symmetric(n))) == len(partitions_of(n))


# --- cycle types -------------------------------------------------------------


def test_cycle_type_examples():
    assert cycle_type((2, 1, 3)) == Partition((2, 1))
    assert cycle_type((1, 2, 3, 4)) == Partition((1, 1, 1, 1))
    assert cycle_type((2, 3, 4, 1)) == Partition((4,))


def test_cycle_type_conjugation_invariant_s6():
    s6 = symmetric(6)
    rng = random.Random(7)
    for _ in range(1000):
        g = groups.random_element(s6, rng)
        h = groups.random_element(s6, rng)
        conjugate = groups.multiply(s6, groups.multiply(s6, h, g), brute_force_inverse(s6, h))
        assert cycle_type(conjugate) == cycle_type(g)


@given(st.permutations(list(range(1, 7))))
def test_cycle_type_parts_sum_to_n(images):
    assert cycle_type(tuple(images)).n == 6


# --- partitions --------------------------------------------------------------


def test_partitions_of_3_order_and_content():
    assert [p.parts for p in partitions_of(3)] == [(3,), (2, 1), (1, 1, 1)]


def test_partitions_of_5_against_brute_force():
    got = {p.parts for p in partitions_of(5)}
    assert got == brute_partitions(5)
    assert len(got) == 7


def test_partitions_of_1():
    assert [p.parts for p in partitions_of(1)] == [(1,)]


def test_partition_count_recurrence_matches_enumeration():
    for n in range(1, 20):
        assert groups.count_partitions(n) == len(partitions_of(n))


def test_partition_count_known_values():
    # Filled bottom-up: p(1000) needs no deeper stack than p(10).
    assert [groups.count_partitions(n) for n in (-1, 0, 100, 200, 1000)] == [
        0, 1, 190569292, 3972999029388, 24061467864032622473692149727991]


def test_partition_count_past_the_work_bound_is_refused_before_filling():
    start = time.perf_counter()
    with pytest.raises(TooLargeError) as excinfo:
        groups.count_partitions(10 ** 6)
    assert time.perf_counter() - start < 0.1
    assert excinfo.value.cap == groups.WORK_MAX


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))


# --- misc --------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec("dihedral", 3)
    with pytest.raises(ValueError):
        symmetric(0)


def test_element_text_roundtrip():
    # The text form names each element once and reads back by its grammar.
    for spec in SMALL_SPECS:
        elements = enumerate_elements(spec)
        texts = [groups.element_text(spec, g) for g in elements]
        assert len(set(texts)) == len(elements)
        for g, text in zip(elements, texts):
            if spec.kind == groups.SYMMETRIC:
                assert tuple(int(part) for part in text.split(",")) == g
            elif spec.kind == groups.ELEMENTARY_ABELIAN_2:
                assert tuple(int(c) for c in text) == g
            else:
                assert int(text) == g


def test_cycle_walks_match_the_separate_references_on_s1_to_s6():
    for n in range(1, 7):
        for g in enumerate_elements(symmetric(n)):
            assert cycle_type(g) == walk_cycle_type(g)
            assert groups.cycle_notation(g) == walk_cycle_notation(g)


def test_cycle_notation_display():
    assert groups.cycle_notation((1, 2, 3)) == "e"
    assert groups.cycle_notation((2, 1, 3)) == "(1 2)"
    assert groups.cycle_notation((2, 3, 1)) == "(1 2 3)"
    assert groups.cycle_notation((2, 1, 4, 3)) == "(1 2)(3 4)"
