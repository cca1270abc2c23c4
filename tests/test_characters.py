import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from groupmds import characters, groups
from groupmds.errors import InvalidElementError, TooLargeError
from groupmds.characters import (
    ClassFunction,
    character_class_function,
    character_table,
    character_value,
    decompose_class_function,
    dimension,
    inner_product,
    irreducible_labels,
    subset_bit_value,
    tensor_square_decomposition,
    trivial_label,
)
from groupmds.exact import Cyclotomic
from groupmds.groups import Partition, cyclic, elementary_abelian_2, symmetric


# --- independent oracles -----------------------------------------------------


def label_sort_key(spec, label):
    """The irreducible label order: S_n partitions reverse-lexicographic,
    (C_2)^k subsets by size then binary value, C_n frequencies ascending."""
    if spec.kind == groups.SYMMETRIC:
        return tuple(-p for p in label.parts)
    if spec.kind == groups.ELEMENTARY_ABELIAN_2:
        return (len(label), subset_bit_value(spec, label))
    return (label,)


def sylvester_hadamard(k):
    h = np.array([[1]], dtype=np.int64)
    for _ in range(k):
        h = np.block([[h, h], [h, -h]])
    return h


def count_standard_tableaux(shape):
    """Brute-force count of standard Young tableaux by backtracking."""
    cells = [(i, j) for i, row_len in enumerate(shape) for j in range(row_len)]
    n = sum(shape)
    filled = set()

    def rec(v):
        if v > n:
            return 1
        total = 0
        for (i, j) in cells:
            if (i, j) in filled:
                continue
            if j > 0 and (i, j - 1) not in filled:
                continue
            if i > 0 and (i - 1, j) not in filled:
                continue
            filled.add((i, j))
            total += rec(v + 1)
            filled.remove((i, j))
        return total

    return rec(1)


def fixed_points(g):
    return sum(1 for i, image in enumerate(g, start=1) if image == i)


@lru_cache(maxsize=None)
def mn_character(lam, rho):
    """Murnaghan-Nakayama recursion on beta-sets (first-column hook
    lengths): removing a length-r rim hook is subtracting r from some beta
    entry while keeping the entries distinct; the sign is (-1)^(entries
    jumped over)."""
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
        total += (-1) ** height * mn_character(new_lam, rest)
    return total


def reconstruct(result, class_label):
    """sum_i sigma_i chi_i(class_label) for a decomposition result."""
    spec = result.group
    total = Fraction(0)
    for label, coeff in result.coefficients.items():
        total = total + coeff * character_value(spec, label, class_label)
    return total


# --- character values --------------------------------------------------------


def test_walsh_character_example():
    c22 = elementary_abelian_2(2)
    assert character_value(c22, frozenset({2}), (0, 1)) == -1
    assert character_value(c22, frozenset({2}), (0, 0)) == 1
    assert character_value(c22, frozenset({1, 2}), (1, 1)) == 1


def test_standard_character_on_transposition():
    s4 = symmetric(4)
    assert character_value(s4, Partition((3, 1)), Partition((2, 1, 1))) == 1


def test_s4_twotwo_character_value():
    s4 = symmetric(4)
    assert character_value(s4, Partition((2, 2)), Partition((2, 2))) == 2


def test_fixed_point_identity_exhaustive_s5():
    s5 = symmetric(5)
    label = Partition((4, 1))
    for g in groups.enumerate_elements(s5):
        assert character_value(s5, label, groups.cycle_type(g)) == fixed_points(g) - 1


def test_s3_character_row():
    s3 = symmetric(3)
    row = {
        cls.label: character_value(s3, Partition((2, 1)), cls.label)
        for cls in groups.conjugacy_classes(s3)
    }
    assert row[Partition((1, 1, 1))] == 2
    assert row[Partition((2, 1))] == 0
    assert row[Partition((3,))] == -1


def test_cyclic_character_values_are_roots_of_unity():
    c5 = cyclic(5)
    v = character_value(c5, 2, 3)  # zeta_5^6 = zeta_5
    assert isinstance(v, Cyclotomic)
    assert v == Cyclotomic.root(5, 1)
    assert character_value(c5, 0, 3) == 1


@pytest.mark.parametrize("n", range(1, 11))
def test_power_sum_sweep_matches_mn_recursion(n):
    spec = symmetric(n)
    table = character_table(spec)
    expected = tuple(tuple(mn_character(lab.parts, cls.label.parts) for cls in table.classes)
                     for lab in table.labels)
    assert table.values == expected
    if n <= 7:
        assert all(character_value(spec, lab, cls.label) == mn_character(lab.parts, cls.label.parts)
                   for lab in table.labels for cls in table.classes)


@pytest.mark.parametrize("n", [12, 16])
@pytest.mark.parametrize("kind", ["int", "fraction"])
def test_horner_row_sums_match_mn_row_sums(n, kind):
    rng = random.Random(1000 * n + len(kind))
    draw = ((lambda: rng.randint(-10 ** 6, 10 ** 6)) if kind == "int"
            else (lambda: Fraction(rng.randint(-999, 999), rng.randint(1, 60))))
    weights = {p.parts: draw() for p in groups.partitions_of(n) if rng.random() < 0.8}
    sums = characters._sn_row_sums(n, weights)
    for lam in groups.partitions_of(n):
        expected = sum(w * mn_character(lam.parts, rho) for rho, w in weights.items())
        assert sums.get(characters._beta_mask(lam.parts, n), 0) == expected


def test_label_validation():
    s4 = symmetric(4)
    with pytest.raises(Exception):
        character_value(s4, Partition((3, 1)), Partition((2, 1)))  # class of wrong n
    with pytest.raises(Exception):
        character_value(elementary_abelian_2(2), frozenset({3}), (0, 1))


# --- dimensions --------------------------------------------------------------


@pytest.mark.parametrize("n", range(3, 9))
def test_standard_rep_dimension(n):
    assert dimension(symmetric(n), Partition((n - 1, 1))) == n - 1


def test_dimension_two_two_against_tableau_oracle():
    assert count_standard_tableaux((2, 2)) == 2
    assert dimension(symmetric(4), Partition((2, 2))) == 2


def test_hook_formula_matches_tableau_count_up_to_n5():
    for n in range(1, 6):
        for p in groups.partitions_of(n):
            assert dimension(symmetric(n), p) == count_standard_tableaux(p.parts)


def test_abelian_dimensions_are_one():
    c23 = elementary_abelian_2(3)
    assert all(dimension(c23, lab) == 1 for lab in irreducible_labels(c23))
    assert dimension(cyclic(7), 3) == 1


@pytest.mark.parametrize(
    "spec",
    [symmetric(n) for n in range(1, 8)]
    + [elementary_abelian_2(k) for k in range(1, 9)]
    + [cyclic(n) for n in range(1, 33)],
)
def test_dimension_census(spec):
    labels = irreducible_labels(spec)
    assert sum(dimension(spec, lab) ** 2 for lab in labels) == spec.order


def test_dimension_equals_value_at_identity():
    for spec in [symmetric(5), symmetric(6)]:
        identity_class = Partition((1,) * spec.size)
        for lab in irreducible_labels(spec):
            assert character_value(spec, lab, identity_class) == dimension(spec, lab)


# --- tables ------------------------------------------------------------------


def test_c22_table_matches_published_walsh_table():
    # Rows {}, {2}, {1}, {1,2} on columns 00, 01, 10, 11.
    table = character_table(elementary_abelian_2(2))
    assert table.labels == (frozenset(), frozenset({2}), frozenset({1}), frozenset({1, 2}))
    assert [c.representative for c in table.classes] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert table.values == (
        (1, 1, 1, 1),
        (1, -1, 1, -1),
        (1, 1, -1, -1),
        (1, -1, -1, 1),
    )


@pytest.mark.parametrize("k", range(1, 7))
def test_c2k_table_is_sylvester_hadamard(k):
    spec = elementary_abelian_2(k)
    table = character_table(spec)
    m = np.zeros((2 ** k, 2 ** k), dtype=np.int64)
    for row, label in zip(table.values, table.labels):
        m[subset_bit_value(spec, label), :] = row  # columns already in binary order
    assert np.array_equal(m, sylvester_hadamard(k))


def test_sn_tables_are_integer_valued():
    for n in range(1, 8):
        table = character_table(symmetric(n))
        assert all(isinstance(v, int) for row in table.values for v in row)


def test_table_guard():
    with pytest.raises(TooLargeError):
        character_table(elementary_abelian_2(16))


@pytest.mark.parametrize("k", range(1, 9))
def test_c2k_table_is_the_per_cell_values_without_per_cell_calls(monkeypatch, k):
    spec = elementary_abelian_2(k)
    calls = []
    monkeypatch.setattr(characters, "character_value", lambda *args: calls.append(args))
    table = character_table(spec)
    monkeypatch.undo()
    assert calls == []
    assert table.values == tuple(tuple(character_value(spec, lab, cls.label) for cls in table.classes)
                                 for lab in table.labels)
    assert all(type(v) is int for row in table.values for v in row)


ROW_GROUPS = ([symmetric(n) for n in range(1, 8)] + [elementary_abelian_2(k) for k in range(1, 7)]
              + [cyclic(n) for n in range(1, 13)])


@pytest.mark.parametrize("spec", ROW_GROUPS, ids=lambda spec: spec.text)
def test_class_function_of_every_label_is_its_character_values(spec):
    classes = groups.conjugacy_classes(spec)
    for lab in irreducible_labels(spec):
        assert list(character_class_function(spec, lab).values.items()) == [
            (cls.label, character_value(spec, lab, cls.label)) for cls in classes]


@pytest.mark.parametrize("spec, label", [
    (symmetric(4), Partition((3, 1, 1))),
    (elementary_abelian_2(2), frozenset({3})),
    (elementary_abelian_2(2), frozenset({0})),
    (cyclic(12), 12),
], ids=["partition-of-5", "position-3", "position-0", "frequency-12"])
def test_class_function_of_a_foreign_label_is_refused(spec, label):
    with pytest.raises(InvalidElementError):
        character_class_function(spec, label)


# --- inner products and orthogonality ----------------------------------------


def test_inner_product_examples():
    s4 = symmetric(4)
    chi31 = character_class_function(s4, Partition((3, 1)))
    chi22 = character_class_function(s4, Partition((2, 2)))
    triv = character_class_function(s4, Partition((4,)))
    assert inner_product(chi31, chi31) == 1
    assert inner_product(chi31, chi22) == 0
    assert inner_product(triv, triv) == 1


@pytest.mark.parametrize(
    "spec",
    [symmetric(n) for n in range(2, 8)]
    + [elementary_abelian_2(k) for k in range(1, 6)]
    + [cyclic(n) for n in (2, 3, 4, 5, 8, 12)],
)
def test_first_orthogonality_via_inner_product(spec):
    rows = {lab: character_class_function(spec, lab) for lab in irreducible_labels(spec)}
    labels = list(rows)
    for i, li in enumerate(labels):
        for lj in labels[i:]:
            expected = 1 if li == lj else 0
            assert inner_product(rows[li], rows[lj]) == expected


@pytest.mark.parametrize("k", range(1, 9))
def test_c2k_orthogonality_full_census_exact(k):
    # Integer matmul keeps this exact while covering all 2^k x 2^k pairs.
    table = character_table(elementary_abelian_2(k))
    m = np.array(table.values, dtype=np.int64)
    assert np.array_equal(m @ m.T, (2 ** k) * np.eye(2 ** k, dtype=np.int64))


@pytest.mark.parametrize("n", list(range(2, 33)))
def test_cyclic_orthogonality_full_census_exact(n):
    # sum_a chi_i(a) conj(chi_j(a)) accumulated exactly in Q(zeta_n).
    spec = cyclic(n)
    table = character_table(spec)

    def exponent_of(value):
        if isinstance(value, Cyclotomic):
            nz = [e for e, c in enumerate(value.coeffs) if c]
            assert len(nz) == 1
            return nz[0]
        return 0 if value == 1 else n // 2

    exps = [[exponent_of(v) for v in row] for row in table.values]
    for i in range(n):
        for j in range(n):
            counts = [0] * n
            for a in range(n):
                counts[(exps[i][a] - exps[j][a]) % n] += 1
            total = Cyclotomic(n, [Fraction(c, n) for c in counts])
            assert total == (1 if i == j else 0)


# --- decomposition -----------------------------------------------------------


def test_decompose_mu_on_c2():
    c2 = elementary_abelian_2(1)
    mu = ClassFunction(c2, {(0,): Fraction(0), (1,): Fraction(-1, 2)})
    result = decompose_class_function(mu)
    assert result.coefficients[frozenset()] == Fraction(-1, 4)
    assert result.coefficients[frozenset({1})] == Fraction(1, 4)


def test_decompose_basis_element():
    s4 = symmetric(4)
    f = character_class_function(s4, Partition((2, 2)))
    result = decompose_class_function(f)
    for lab, coeff in result.coefficients.items():
        assert coeff == (1 if lab == Partition((2, 2)) else 0)


def test_decompose_zero_function():
    s4 = symmetric(4)
    zero = ClassFunction(s4, {c.label: Fraction(0) for c in groups.conjugacy_classes(s4)})
    result = decompose_class_function(zero)
    assert all(c == 0 for c in result.coefficients.values())


def test_decompose_reconstruct_roundtrip_s5():
    s5 = symmetric(5)
    classes = groups.conjugacy_classes(s5)
    rng = random.Random(41)
    for _ in range(100):
        values = {
            c.label: Fraction(rng.randint(-50, 50), rng.randint(1, 12)) for c in classes
        }
        f = ClassFunction(s5, values)
        result = decompose_class_function(f)
        for c in classes:
            assert reconstruct(result, c.label) == values[c.label]


def test_decompose_reconstruct_roundtrip_abelian():
    c24 = elementary_abelian_2(4)
    classes = groups.conjugacy_classes(c24)
    rng = random.Random(42)
    values = {c.label: Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for c in classes}
    f = ClassFunction(c24, values)
    result = decompose_class_function(f)
    for c in classes:
        assert reconstruct(result, c.label) == values[c.label]

    c12 = cyclic(12)
    values = {a: Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for a in range(12)}
    f = ClassFunction(c12, values)
    result = decompose_class_function(f)
    for a in range(12):
        assert reconstruct(result, a) == values[a]


def loop_decomposition(f):
    """Reference: one inner product per irreducible label."""
    spec = f.group
    return {lab: inner_product(f, character_class_function(spec, lab))
            for lab in irreducible_labels(spec)}


def random_rational(rng):
    return Fraction(rng.randint(-50, 50), rng.randint(1, 12))


def random_cyclotomic(rng, order):
    # Sparse, so the class functions mix rational and irrational values.
    return Cyclotomic(order, [random_rational(rng) if rng.random() < 0.3 else 0
                              for _ in range(order)])


KERNEL_SPECS = [symmetric(5), symmetric(6), elementary_abelian_2(4), cyclic(12), cyclic(15)]


@pytest.mark.parametrize("spec", KERNEL_SPECS, ids=lambda s: s.text)
def test_kernel_matches_inner_products_rational(spec):
    rng = random.Random(43)
    classes = groups.conjugacy_classes(spec)
    for _ in range(5):
        f = ClassFunction(spec, {c.label: random_rational(rng) for c in classes})
        assert decompose_class_function(f).coefficients == loop_decomposition(f)


@pytest.mark.parametrize(
    "spec,order",
    [(cyclic(12), 12), (cyclic(15), 15), (symmetric(5), 6), (elementary_abelian_2(4), 5)],
    ids=lambda x: getattr(x, "text", str(x)),
)
def test_kernel_matches_inner_products_cyclotomic(spec, order):
    rng = random.Random(44)
    classes = groups.conjugacy_classes(spec)
    for _ in range(3):
        f = ClassFunction(spec, {c.label: random_cyclotomic(rng, order) for c in classes})
        assert decompose_class_function(f).coefficients == loop_decomposition(f)


@pytest.mark.parametrize(
    "spec,order",
    [(cyclic(12), 12), (symmetric(5), 6), (elementary_abelian_2(3), 4)],
    ids=lambda x: getattr(x, "text", str(x)),
)
def test_kernel_matches_inner_products_past_int64(spec, order):
    # Integer sums past 2^63 take the Python-integer paths of the kernel.
    rng = random.Random(45)
    classes = groups.conjugacy_classes(spec)

    def big():
        return Fraction(rng.randint(-2 ** 70, 2 ** 70), rng.randint(1, 9))

    f = ClassFunction(spec, {c.label: Cyclotomic(order, [big() if rng.random() < 0.5 else 0
                                                         for _ in range(order)])
                             for c in classes})
    assert decompose_class_function(f).coefficients == loop_decomposition(f)


@pytest.mark.parametrize("k", [1, 3, 6])
def test_c2k_kernel_ignores_the_order_of_the_class_function_keys(k):
    # The FWHT is filled in enumeration order, not in the dict's order.
    spec = elementary_abelian_2(k)
    rng = random.Random(46)
    ordered = {g: random_rational(rng) for g in groups.enumerate_elements(spec)}
    keys = list(ordered)
    rng.shuffle(keys)
    shuffled = {g: ordered[g] for g in keys}
    expected = decompose_class_function(ClassFunction(spec, ordered)).coefficients
    assert decompose_class_function(ClassFunction(spec, shuffled)).coefficients == expected
    assert expected == loop_decomposition(ClassFunction(spec, ordered))


def test_kernel_rejects_values_from_two_cyclotomic_fields():
    s3 = symmetric(3)
    values = {c.label: Cyclotomic.root(3, 1) for c in groups.conjugacy_classes(s3)}
    values[Partition((3,))] = Cyclotomic.root(4, 1)
    with pytest.raises(InvalidElementError):
        decompose_class_function(ClassFunction(s3, values))
    with pytest.raises(InvalidElementError):
        decompose_class_function(
            ClassFunction(cyclic(4), {a: Cyclotomic.root(3, a) for a in range(4)})
        )


@pytest.mark.parametrize("n, refusal", [
    (2236, None),
    (2237, "the exact coefficients of cyclic(2237) needs 5001932 steps, "
           "above the work bound 5000000 steps"),
    (4620, None),
    (4391, "the exact coefficients of cyclic(4391) needs 1079483440 bytes, "
           "above the table bound 1073741824 bytes"),
])
def test_cyclic_decomposition_guard_admits_up_to_the_work_bound(monkeypatch, n, refusal):
    # One step per reduced integer, n labels x phi(n): the prime C_2237 is
    # the first C_n refused, and C_4620 (phi = 960) the largest admitted.
    # At 56 bytes per reduced integer the byte bound refuses from the prime
    # C_4391 on. Admission stops at the row sums.
    class Admitted(Exception):
        pass

    def admitted(*args):
        raise Admitted

    monkeypatch.setattr(characters, "_power_sums", admitted)
    f = ClassFunction(cyclic(n), {a: Fraction(-min(a, n - a) ** 2, 2) for a in range(n)})
    with pytest.raises(Admitted if refusal is None else TooLargeError) as info:
        decompose_class_function(f)
    if refusal is not None:
        assert str(info.value) == refusal


# --- tensor squares ----------------------------------------------------------


def test_tensor_square_standard_rep_s5():
    s5 = symmetric(5)
    result = tensor_square_decomposition(s5, Partition((4, 1)))
    ones = {Partition((5,)), Partition((4, 1)), Partition((3, 1, 1)), Partition((3, 2))}
    for lab, coeff in result.coefficients.items():
        assert coeff == (1 if lab in ones else 0)


def test_tensor_square_trivial():
    s4 = symmetric(4)
    result = tensor_square_decomposition(s4, Partition((4,)))
    for lab, coeff in result.coefficients.items():
        assert coeff == (1 if lab == Partition((4,)) else 0)


def test_tensor_square_s3_standard():
    s3 = symmetric(3)
    result = tensor_square_decomposition(s3, Partition((2, 1)))
    assert all(coeff == 1 for coeff in result.coefficients.values())
    assert set(result.coefficients) == set(groups.partitions_of(3))


# --- labels ------------------------------------------------------------------


def test_trivial_labels():
    assert trivial_label(symmetric(4)) == Partition((4,))
    assert trivial_label(elementary_abelian_2(3)) == frozenset()
    assert trivial_label(cyclic(9)) == 0


@pytest.mark.parametrize("k", range(0, 9))
@pytest.mark.parametrize("bound", [9, 2 ** 62, 2 ** 70], ids=["int64", "past-int64", "python-int"])
def test_fwht_equals_the_definition(k, bound):
    rng = random.Random(k)
    values = [rng.randint(-bound, bound) for _ in range(2 ** k)]
    expected = [sum(v if (i & j).bit_count() % 2 == 0 else -v for j, v in enumerate(values))
                for i in range(2 ** k)]
    assert characters.fwht(values).tolist() == expected
    assert characters.fwht([values, values[::-1]])[0].tolist() == expected  # the last axis


@pytest.mark.parametrize("k", range(1, 11))
def test_c2k_labels_sort_by_size_then_binary_value(k):
    spec = elementary_abelian_2(k)
    subsets = [frozenset(s + 1 for s in range(k) if bits >> (k - 1 - s) & 1)
               for bits in range(2 ** k)]
    assert irreducible_labels(spec) == tuple(sorted(subsets,
                                                    key=lambda l: label_sort_key(spec, l)))


def test_subset_order_size_then_binary_value():
    spec = elementary_abelian_2(3)
    labs = irreducible_labels(spec)
    assert labs[0] == frozenset()
    assert list(labs[1:4]) == [frozenset({3}), frozenset({2}), frozenset({1})]
    assert labs[-1] == frozenset({1, 2, 3})
    assert sorted(labs, key=lambda l: label_sort_key(spec, l)) == list(labs)
