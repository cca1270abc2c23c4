import cmath
import math
import random
from fractions import Fraction

import pytest

from groupmds.exact import (
    Cyclotomic,
    cyclotomic_polynomial,
    euler_phi,
    normalize_scalar,
    scalar_sign,
)


def long_division_canonical(value):
    """Reference reduction: Fraction long division of the coefficient
    polynomial by Phi_n, highest power first."""
    phi_poly = cyclotomic_polynomial(value.order)
    deg = len(phi_poly) - 1
    rem = list(value.coeffs)
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c:
            for j, pc in enumerate(phi_poly):
                rem[i - deg + j] -= c * pc
    return tuple(rem[:deg])


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)  # x^4 - x^2 + 1
    assert euler_phi(12) == 4
    assert euler_phi(31) == 30
    assert all(euler_phi(n) == len(cyclotomic_polynomial(n)) - 1 for n in range(1, 200))


def test_root_identities():
    i = Cyclotomic.root(4, 1)
    assert i * i == Fraction(-1)
    assert Cyclotomic.root(4, 2) == -1
    # the sum of all n-th roots of unity vanishes
    for n in (3, 5, 6, 12):
        total = Cyclotomic(n, [0] * n)
        for e in range(n):
            total = total + Cyclotomic.root(n, e)
        assert total.is_zero()
        assert total == 0


def test_conjugation_and_rationality():
    z = Cyclotomic.root(5, 2)
    assert z.conjugate() == Cyclotomic.root(5, 3)
    real = z + z.conjugate()
    assert not real.is_rational()
    norm = z * z.conjugate()
    assert norm == 1
    assert normalize_scalar(norm) == Fraction(1)


def test_to_float_matches_trig():
    z = Cyclotomic.root(12, 1)
    real = z + z.conjugate()  # 2 cos(pi/6) = sqrt(3)
    assert float(real) == pytest.approx(math.sqrt(3), abs=1e-12)
    for nonreal in (z - z.conjugate(), Cyclotomic.root(3, 1), Cyclotomic.root(4, 1) * 5):
        with pytest.raises(ValueError, match="not real"):
            float(nonreal)


@pytest.mark.parametrize("n, e", [(1, 0), (2, 1), (4, 1), (5, 2), (12, 7), (60, 13)])
def test_root_converts_like_the_trigonometric_value(n, e):
    root = complex(Cyclotomic.root(n, e))
    assert root == pytest.approx(cmath.exp(2j * math.pi * e / n), abs=1e-12)
    real = Cyclotomic.root(n, e) + Cyclotomic.root(n, -e)
    assert float(real) == pytest.approx(2 * math.cos(2 * math.pi * e / n), abs=1e-12)


@pytest.mark.parametrize("value", [7, -3, 0, Fraction(5, 4), Fraction(-9, 2)])
def test_rationals_convert_through_the_builtins(value):
    assert float(value) == value
    assert complex(value) == complex(float(value), 0.0)
    assert value.conjugate() == value


@pytest.mark.parametrize("value", [Fraction(7, 3), Fraction(-5, 2), Fraction(0), Fraction(-4)])
@pytest.mark.parametrize("n", [2, 4, 12])
def test_text_of_a_rational_cyclotomic_is_the_fraction_text(value, n):
    # Adding 3 * (sum of all n-th roots), which is 0, spreads the value over
    # every power, so the text has to come from the reduced form.
    roots = sum(Cyclotomic.root(n, e) for e in range(n))
    spread = Cyclotomic(n, [value] + [0] * (n - 1)) + roots * 3
    assert str(spread) == str(value)
    assert float(spread) == pytest.approx(float(value), abs=1e-12)
    assert (spread == 0) == (value == 0)


def test_scalar_helpers():
    assert scalar_sign(Fraction(-3, 7)) == -1
    assert scalar_sign(0) == 0
    z = Cyclotomic.root(12, 1)
    assert scalar_sign(z + z.conjugate()) == 1
    assert str(Fraction(3, 2)) == "3/2"
    assert str(Fraction(20)) == "20"
    assert float(Fraction(1, 4)) == 0.25


def test_mixed_arithmetic_with_fractions():
    z = Cyclotomic.root(4, 1)
    value = Fraction(1, 2) + z * Fraction(3, 2) - z * Fraction(3, 2)
    assert value == Fraction(1, 2)
    assert normalize_scalar(value) == Fraction(1, 2)
    assert hash(normalize_scalar(value)) == hash(Fraction(1, 2))


def test_text_form_of_irrational_value():
    z = Cyclotomic.root(12, 1)
    sqrt3 = z + z.conjugate()
    # canonical basis of Q(zeta_12) rewrites zeta^11 as powers below phi(12)=4
    assert str(sqrt3) == "2*z12 - z12^3"


@pytest.mark.parametrize("factor", [Fraction(-5, 3), 2, 0, Fraction(1, 7)])
def test_scaling_a_reduced_value_matches_a_fresh_value(factor):
    # Multiplying by a rational after canonical() carries the scaled reduced
    # form along; it must agree with reducing the scaled coefficients afresh.
    coeffs = [1, 2, 0, 0, 0, 3, 0, Fraction(1, 2), 0, 0, 0, -1]
    for order, raw in ((12, coeffs), (6, [0, 1, 0, 0, 0, 1])):  # the second is 1
        value = Cyclotomic(order, raw)
        value.canonical()
        fresh = Cyclotomic(order, [Fraction(c) * factor for c in raw])
        for scaled in (value * factor, factor * value):
            assert scaled.canonical() == fresh.canonical()
            assert scaled == fresh
            assert hash(scaled) == hash(fresh)
            assert str(scaled) == str(fresh)
            assert normalize_scalar(scaled) == normalize_scalar(fresh)


REDUCTION_ORDERS = [*range(1, 61), 90, 105, 210]


@pytest.mark.parametrize("n", REDUCTION_ORDERS)
def test_canonical_matches_long_division(n):
    rng = random.Random(n)
    vectors = [
        [Fraction(rng.randint(-99, 99), rng.randint(1, 30)) if rng.random() < density else 0
         for _ in range(n)]
        for density in (0.1, 0.6, 1.0)
    ]
    # Numerators past 2^53 take the Python-integer product, not float64.
    vectors.append([Fraction(rng.randint(-2 ** 70, 2 ** 70), rng.randint(1, 9)) for _ in range(n)])
    for coeffs in vectors:
        value = Cyclotomic(n, coeffs)
        assert value.canonical() == long_division_canonical(value)


@pytest.mark.parametrize("n", REDUCTION_ORDERS)
def test_root_canonical_form_is_a_fresh_reduction(n):
    for e in range(n):
        root = Cyclotomic.root(n, e)
        fresh = Cyclotomic(n, root.coeffs)
        assert root._canon == fresh.canonical() == long_division_canonical(fresh)


def test_phi_105_has_a_coefficient_minus_two():
    # The smallest cyclotomic polynomial with a coefficient outside {-1, 0, 1}.
    assert min(cyclotomic_polynomial(105)) == -2
