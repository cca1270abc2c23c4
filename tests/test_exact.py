import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from groupmds.exact import (
    Cyclotomic,
    cyclotomic_polynomial,
    euler_phi,
    normalize_scalar,
    reduce_powers,
    scalar_sign,
)


def long_division_canonical(n, coeffs):
    """Reference reduction: Fraction long division of the coefficient
    polynomial on zeta^0..zeta^(n-1) by Phi_n, highest power first."""
    phi_poly = cyclotomic_polynomial(n)
    deg = len(phi_poly) - 1
    rem = [Fraction(c) for c in coeffs]
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c:
            for j, pc in enumerate(phi_poly):
                rem[i - deg + j] -= c * pc
    return tuple(rem[:deg])


class FractionCyclotomic:
    """Reference: the earlier Cyclotomic, one Fraction per power of the root
    on zeta^0..zeta^(n-1), reduced to Fractions on first comparison."""

    def __init__(self, order, coeffs):
        self.order = order
        self.coeffs = tuple(Fraction(c) for c in coeffs)
        self._canon = None

    def _coerce(self, other):
        if isinstance(other, FractionCyclotomic):
            return other if other.order == self.order else None
        if isinstance(other, (int, Fraction)):
            return FractionCyclotomic(self.order, [other] + [0] * (self.order - 1))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        return FractionCyclotomic(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return FractionCyclotomic(self.order, [-a for a in self.coeffs])

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __rsub__(self, other):
        return self._coerce(other) + -self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FractionCyclotomic(self.order, [a * other for a in self.coeffs])
        n = self.order
        out = [Fraction(0)] * n
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                if a and b:
                    out[(i + j) % n] += a * b
        return FractionCyclotomic(n, out)

    __rmul__ = __mul__

    def conjugate(self):
        n = self.order
        return FractionCyclotomic(n, [self.coeffs[-e % n] for e in range(n)])

    def canonical(self):
        if self._canon is None:
            denom = math.lcm(*(c.denominator for c in self.coeffs))
            ints = [c.numerator * (denom // c.denominator) for c in self.coeffs]
            self._canon = tuple(Fraction(c, denom) for c in reduce_powers(ints, self.order).tolist())
        return self._canon

    def is_rational(self):
        return all(c == 0 for c in self.canonical()[1:])

    def as_fraction(self):
        return self.canonical()[0]

    def __eq__(self, other):
        if isinstance(other, FractionCyclotomic):
            if other.order == self.order:
                return self.canonical() == other.canonical()
            return self.is_rational() and other.is_rational() and self.as_fraction() == other.as_fraction()
        return self.is_rational() and self.as_fraction() == other

    def __hash__(self):
        if self.is_rational():
            return hash(self.as_fraction())
        return hash((self.order, self.canonical()))

    def __str__(self):
        terms = []
        for e, c in enumerate(self.canonical()):
            if c == 0:
                continue
            if e == 0:
                terms.append(str(c))
            else:
                power = f"z{self.order}" if e == 1 else f"z{self.order}^{e}"
                if c == 1:
                    terms.append(power)
                elif c == -1:
                    terms.append(f"-{power}")
                else:
                    terms.append(f"{c}*{power}")
        if not terms:
            return "0"
        text = terms[0]
        for t in terms[1:]:
            text += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return text

    def normalize(self):
        return self.as_fraction() if self.is_rational() else self


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
    # Scaling multiplies the numerators and the denominator; it must agree
    # with reducing the scaled coefficients afresh.
    coeffs = [1, 2, 0, 0, 0, 3, 0, Fraction(1, 2), 0, 0, 0, -1]
    for order, raw in ((12, coeffs), (6, [0, 1, 0, 0, 0, 1])):  # the second is 1
        value = Cyclotomic(order, raw)
        fresh = Cyclotomic(order, [Fraction(c) * factor for c in raw])
        for scaled in (value * factor, factor * value):
            assert scaled.canonical() == fresh.canonical()
            assert scaled == fresh
            assert hash(scaled) == hash(fresh)
            assert str(scaled) == str(fresh)
            assert normalize_scalar(scaled) == normalize_scalar(fresh)


@pytest.mark.parametrize("n", [797, 2003])
def test_real_value_with_large_coefficients_at_a_prime_order_converts(n):
    # The circular-arc eigenvalue of C_n nearest 0: its coefficients reach
    # n^2 / 8 and sum to about n^3 / 24, while the value is below 1, so the
    # rounding of the evaluation has to be judged against the coefficients.
    a = np.arange(n)
    mu = [Fraction(-min(x, n - x) ** 2, 2) for x in range(n)]
    j = int(np.argmin(np.abs(np.fft.fft(-np.minimum(a, n - a) ** 2 / 2.0).real)))
    coeffs = [0] * n
    for x, m in enumerate(mu):
        coeffs[-j * x % n] = m
    value = Cyclotomic(n, coeffs)
    expected = math.fsum(float(m) * math.cos(2 * math.pi * j * x / n) for x, m in enumerate(mu))
    assert abs(expected) < 1
    assert float(value) == pytest.approx(expected, abs=1e-12 * sum(abs(m) for m in mu))
    assert scalar_sign(value) == (1 if expected > 0 else -1)


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
        assert Cyclotomic(n, coeffs).canonical() == long_division_canonical(n, coeffs)


@pytest.mark.parametrize("n", REDUCTION_ORDERS)
def test_root_canonical_form_is_a_fresh_reduction(n):
    for e in range(n):
        unit = tuple(Fraction(int(k == e)) for k in range(n))
        root = Cyclotomic.root(n, e)
        assert root.canonical() == long_division_canonical(n, unit)
        assert root.coeffs == unit


def _parity_values(n):
    """(Cyclotomic, FractionCyclotomic) pairs of the same seeded values of
    Q(zeta_n): sparse, dense, numerators past 2^53, a root, a rational
    spread over every power, and a value equal to the first but written on
    other powers."""
    rng = random.Random(1000 + n)
    raws = [
        [Fraction(rng.randint(-99, 99), rng.randint(1, 30)) if rng.random() < density else 0
         for _ in range(n)]
        for density in (0.2, 1.0)
    ]
    raws.append([Fraction(rng.randint(-2 ** 70, 2 ** 70), rng.randint(1, 9))
                 if rng.random() < 0.3 else 0 for _ in range(n)])
    raws.append([int(k == rng.randrange(n)) for k in range(n)])
    raws.append([Fraction(7, 3) + 5 if k == 0 else 5 for k in range(n)])
    # 3/2 on every power adds 3/2 (1 + z + ... + z^(n-1)), which is 0 for n > 1.
    raws.append([c + Fraction(3, 2) for c in raws[0]] if n > 1 else raws[0])
    return [(Cyclotomic(n, raw), FractionCyclotomic(n, raw)) for raw in raws]


def _assert_same_value(value, reference):
    assert isinstance(value, Cyclotomic)
    assert value.den > 0
    assert math.gcd(value.den, *value.num) == 1
    assert len(value.num) == euler_phi(value.order)
    assert value.canonical() == reference.canonical()
    assert str(value) == str(reference)
    assert value.is_rational() == reference.is_rational()
    normal, expected = normalize_scalar(value), reference.normalize()
    if isinstance(expected, Fraction):
        assert type(normal) is Fraction and normal == expected
        assert hash(value) == hash(reference) == hash(expected)
    else:
        assert normal is value


@pytest.mark.parametrize("n", REDUCTION_ORDERS)
def test_arithmetic_matches_the_fraction_reference(n):
    values = _parity_values(n)
    scalars = [0, 7, Fraction(-5, 3), Fraction(2 ** 60 + 1, 3)]
    for x, rx in values:
        _assert_same_value(x, rx)
        _assert_same_value(-x, -rx)
        _assert_same_value(x.conjugate(), rx.conjugate())
        for q in scalars:
            _assert_same_value(x * q, rx * q)
            _assert_same_value(q * x, q * rx)
            _assert_same_value(x + q, rx + q)
            _assert_same_value(q - x, q - rx)
    for (x, rx), (y, ry) in zip(values, values[1:] + values[:1]):
        _assert_same_value(x + y, rx + ry)
        _assert_same_value(x - y, rx - ry)
        _assert_same_value(x * y, rx * ry)


@pytest.mark.parametrize("n", REDUCTION_ORDERS)
def test_equality_and_hash_match_the_fraction_reference(n):
    values = _parity_values(n)
    values += [(x - x, rx - rx) for x, rx in values[:1]]
    values += [(x.conjugate(), rx.conjugate()) for x, rx in values]
    assert values[0][0] == values[5][0]
    rationals = [0, 1, Fraction(7, 3), Fraction(22, 3)]
    for x, rx in values:
        for q in rationals:
            assert (x == q) == (rx == q) == (q == x)
        for y, ry in values:
            assert (x == y) == (rx == ry)
            if x == y:
                # Equal values have equal fields, hence equal hashes.
                assert (x.num, x.den) == (y.num, y.den)
                assert hash(x) == hash(y)


def test_phi_105_has_a_coefficient_minus_two():
    # The smallest cyclotomic polynomial with a coefficient outside {-1, 0, 1}.
    assert min(cyclotomic_polynomial(105)) == -2
