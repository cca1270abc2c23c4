import random
import time
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
    inverse,
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


def brute_force_inverse(spec, g):
    for h in enumerate_elements(spec):
        if multiply(spec, g, h) == spec.identity():
            return h
    raise AssertionError("no inverse found")


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
    assert inverse(s3, (2, 3, 1)) == (3, 1, 2)
    assert brute_force_inverse(s3, (2, 3, 1)) == (3, 1, 2)


def test_inverse_bitvector_is_involution():
    c23 = elementary_abelian_2(3)
    for g in enumerate_elements(c23):
        assert inverse(c23, g) == g


def test_inverse_cyclic():
    assert inverse(cyclic(5), 2) == 3


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_group_laws_random_triples(spec):
    rng = random.Random(99)
    e = spec.identity()
    for _ in range(1000):
        f = groups.random_element(spec, rng)
        g = groups.random_element(spec, rng)
        h = groups.random_element(spec, rng)
        assert multiply(spec, multiply(spec, f, g), h) == multiply(spec, f, multiply(spec, g, h))
        assert multiply(spec, f, inverse(spec, f)) == e
        assert multiply(spec, inverse(spec, f), f) == e


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
    "spec", [symmetric(1), symmetric(5), elementary_abelian_2(1), elementary_abelian_2(4),
             cyclic(1), cyclic(9)], ids=lambda s: s.text)
def test_enumeration_lists_the_identity_first(spec):
    # The inverse index and the invariance check read row and column 0.
    assert enumerate_elements(spec)[0] == spec.identity()


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=lambda s: s.text)
def test_multiplication_table_inverse_index(spec):
    elements, table, inv = groups.multiplication_table(spec)
    assert [elements[i] for i in inv] == [inverse(spec, g) for g in elements]
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


@pytest.mark.parametrize("spec", SMALL_SPECS + [symmetric(1), symmetric(6)], ids=lambda s: s.text)
def test_class_index_matches_class_label_of(spec):
    labels, index = groups.class_index(spec)
    assert labels == tuple(c.label for c in conjugacy_classes(spec))
    assert [labels[i] for i in index] == [groups.class_label_of(spec, g)
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
        symmetric(45), metrics.hamming_metric(symmetric(45))),
        id="spectrum_via_characters-S45"),
    pytest.param(lambda: spectral.spectrum_via_characters(
        cyclic(60000), metrics.circular_arc_metric(cyclic(60000))),
        id="spectrum_via_characters-C60000"),
    pytest.param(lambda: metrics.build_distance_matrix(S9, metrics.hamming_metric(S9)),
                 id="build_distance_matrix-S9"),
    pytest.param(lambda: groups.multiplication_table(S9), id="multiplication_table-S9"),
    pytest.param(lambda: spectral.isotypic_projector(S9, Partition((8, 1))),
                 id="isotypic_projector-S9"),
]
# Orders under the enumeration cap whose int32 table is over the byte bound.
OVER_TABLE_BOUND_CALLS = [
    pytest.param(lambda: groups.multiplication_table(symmetric(8)),
                 id="multiplication_table-S8"),
    pytest.param(lambda: groups.multiplication_table(elementary_abelian_2(15)),
                 id="multiplication_table-C2^15"),
    pytest.param(lambda: groups.multiplication_table(cyclic(40000)),
                 id="multiplication_table-C40000"),
]


@pytest.mark.parametrize("call,cap", [
    *[pytest.param(p.values[0], groups.DEFAULT_ENUMERATION_CAP, id=p.id) for p in OVER_CAP_CALLS],
    *[pytest.param(p.values[0], groups.TABLE_MAX_BYTES, id=p.id) for p in OVER_TABLE_BOUND_CALLS],
])
def test_every_listing_entry_point_refuses_over_cap_input_quickly(call, cap):
    # The guards, checked where elements, classes or irreducibles are listed
    # and before the table is allocated, must trip before any of the work
    # that the listing would feed.
    start = time.perf_counter()
    with pytest.raises(TooLargeError) as excinfo:
        call()
    assert time.perf_counter() - start < 2.0
    assert excinfo.value.cap == cap


# --- conjugacy classes -------------------------------------------------------


def conjugacy_orbit(spec, rep):
    return {
        multiply(spec, multiply(spec, h, rep), inverse(spec, h))
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
        assert cycle_type(groups.conjugate_element(s6, g, h)) == cycle_type(g)


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


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    assert Partition((3, 1)).conjugate() == Partition((2, 1, 1))


# --- misc --------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec("dihedral", 3)
    with pytest.raises(ValueError):
        symmetric(0)


def test_element_text_roundtrip():
    for spec in SMALL_SPECS:
        for g in enumerate_elements(spec):
            assert groups.parse_element(spec, groups.element_text(spec, g)) == g


def test_cycle_notation_display():
    assert groups.cycle_notation((1, 2, 3)) == "e"
    assert groups.cycle_notation((2, 1, 3)) == "(1 2)"
    assert groups.cycle_notation((2, 3, 1)) == "(1 2 3)"
    assert groups.cycle_notation((2, 1, 4, 3)) == "(1 2)(3 4)"
