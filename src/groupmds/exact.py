"""Exact scalars: rationals plus elements of the cyclotomic field Q(zeta_n).

Character values on cyclic groups are roots of unity; storing them as
float pairs would wreck the exact-equality checks the character layer
promises. A :class:`Cyclotomic` holds one representation of its value:
integer numerators on the reduced basis zeta^0..zeta^(phi(n)-1) over one
positive denominator, in lowest terms, so equal values have equal fields
and equality, rationality and hashing read them directly. Reduction modulo
the n-th cyclotomic polynomial is one integer matrix per n
(:func:`reduction_matrix`): row e holds zeta^e on the reduced basis, so
reducing many values is one matrix product. Products and conjugates
collect integers on zeta^0..zeta^(n-1) and reduce once.

Exact values are ``int``, ``Fraction`` or :class:`Cyclotomic`, and callers
use all three alike through ``float()``, ``complex()``, ``str()``,
``.conjugate()`` and ``== 0``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Tuple, Union

import numpy as np

from .groups import admit

Scalar = Union[int, Fraction, "Cyclotomic"]


def _divisors(n: int):
    out = [d for d in range(1, n) if n % d == 0]
    return out


def _poly_div_exact(num, den):
    # Exact division of integer polynomials, den monic. Coefficients ascending.
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            out[i - dd] = c
            for j, dc in enumerate(den):
                num[i - dd + j] -= c * dc
    if any(num[:dd]):
        raise ArithmeticError("polynomial division was not exact")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> Tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, ascending."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in _divisors(n):
        poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def euler_phi(n: int) -> int:
    """phi(n), the degree of Phi_n, by trial division."""
    phi, rest, p = n, n, 2
    while p * p <= rest:
        if rest % p == 0:
            phi -= phi // p
            while rest % p == 0:
                rest //= p
        p += 1
    return phi - phi // rest if rest > 1 else phi


@lru_cache(maxsize=4)
def reduction_matrix(n: int) -> np.ndarray:
    """The n x phi(n) matrix whose row e holds zeta_n^e on the basis
    zeta^0..zeta^(phi(n)-1), that is x^e modulo Phi_n: small integers,
    stored as float64 so products run through BLAS. Cached per n; read only.
    Raises :class:`TooLargeError` before allocating a matrix above
    :data:`groups.TABLE_MAX_BYTES`."""
    deg = euler_phi(n)
    admit(f"the reduction matrix of Q(zeta_{n})", nbytes=n * deg * 8)
    phi_poly = cyclotomic_polynomial(n)
    # x^deg = -(Phi_n - x^deg), so each row is the previous one shifted up a
    # power, with the coefficient that leaves the basis folded back.
    fold = -np.array(phi_poly[:deg], dtype=np.float64)
    r = np.zeros((n, deg))
    r[:deg] = np.eye(deg)
    for e in range(deg, n):
        r[e, 1:] = r[e - 1, :-1]
        r[e] += r[e - 1, -1] * fold
    # Row deg is fold itself, so entries below 2^26 keep every intermediate
    # value of the recurrence an integer below 2^53, which float64 holds
    # exactly.
    if np.abs(r).max() >= 2 ** 26:
        raise ArithmeticError(f"reduction matrix of Q(zeta_{n}) is past exact float64 range")
    r.setflags(write=False)
    return r


def reduce_powers(coeffs, n: int) -> np.ndarray:
    """Exact reduction modulo Phi_n of integer coefficients on
    zeta^0..zeta^(n-1), laid out along the first axis (a vector, or one
    column per value): ``reduction_matrix(n).T @ coeffs`` as integers.
    While max|coeffs| * n * max|R| < 2^53 every partial sum is an integer
    that float64 holds exactly, so the product runs in float64; past that
    it runs on Python integers (object dtype)."""
    r = reduction_matrix(n)
    a = coeffs if isinstance(coeffs, np.ndarray) else np.array(coeffs, dtype=object)
    if int(np.abs(a).max(initial=0)) * n * int(np.abs(r).max()) < 2 ** 53:
        return (r.T @ a.astype(np.float64)).astype(np.int64)
    return r.T.astype(np.int64).astype(object) @ a.astype(object)


class Cyclotomic:
    """An element of Q(zeta_n), zeta_n = exp(2*pi*i/n), held as ``num / den``:
    one integer per power of the reduced basis zeta^0..zeta^(phi(n)-1) over
    one positive integer, in lowest terms."""

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, coeffs):
        """From rational coefficients on zeta^0..zeta^(n-1), one per power."""
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != order:
            raise ValueError("need one coefficient per power of the root")
        den = math.lcm(*(c.denominator for c in coeffs))
        ints = [c.numerator * (den // c.denominator) for c in coeffs]
        value = self._reduced(order, reduce_powers(ints, order).tolist(), den)
        self.order, self.num, self.den = order, value.num, value.den

    @classmethod
    def _reduced(cls, order: int, num, den: int) -> "Cyclotomic":
        """The value num / den: integers on the reduced basis over den > 0."""
        g = math.gcd(den, *num)
        value = object.__new__(cls)
        value.order, value.num, value.den = order, tuple([c // g for c in num]), den // g
        return value

    @classmethod
    def root(cls, order: int, exponent: int) -> "Cyclotomic":
        row = reduction_matrix(order)[exponent % order]
        return cls._reduced(order, row.astype(np.int64).tolist(), 1)

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        """Rational coefficients on zeta^0..zeta^(n-1): a root of unity's
        one power, otherwise the reduced form padded with zeros."""
        n = self.order
        if self.den == 1 and max(map(abs, self.num)) < 2 ** 26:
            hits = np.flatnonzero((reduction_matrix(n) == self.num).all(axis=1))
            if hits.size:
                return tuple(Fraction(int(e == hits[0])) for e in range(n))
        return self.canonical() + (Fraction(0),) * (n - len(self.num))

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            return other if other.order == self.order else None
        if isinstance(other, (int, Fraction)):
            num = [0] * len(self.num)
            num[0] = other.numerator
            return Cyclotomic._reduced(self.order, num, other.denominator)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        return Cyclotomic._reduced(self.order, [x * a + y * b for x, y in zip(self.num, other.num)], den)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self + -other

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else other + -self

    def __neg__(self):
        return Cyclotomic._reduced(self.order, [-c for c in self.num], self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            k = other.numerator
            return Cyclotomic._reduced(self.order, [c * k for c in self.num], self.den * other.denominator)
        if isinstance(other, Cyclotomic) and other.order == self.order:
            n = self.order
            out = [0] * n
            for i, a in enumerate(self.num):
                if a:
                    for j, b in enumerate(other.num):
                        if b:
                            out[(i + j) % n] += a * b
            return Cyclotomic._reduced(n, reduce_powers(out, n).tolist(), self.den * other.den)
        return NotImplemented

    __rmul__ = __mul__

    def conjugate(self) -> "Cyclotomic":
        n = self.order
        out = [0] * n
        for e, c in enumerate(self.num):
            out[-e % n] = c
        return Cyclotomic._reduced(n, reduce_powers(out, n).tolist(), self.den)

    def canonical(self) -> Tuple[Fraction, ...]:
        """Coefficients on the basis zeta^0..zeta^(phi(n)-1) of Q(zeta_n)."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def is_zero(self) -> bool:
        return not any(self.num)

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def __complex__(self) -> complex:
        powers = np.exp(2j * np.pi * np.arange(len(self.num)) / self.order)
        return complex(powers @ np.array(self.num, dtype=np.float64)) / self.den

    def __float__(self) -> float:
        z = complex(self)
        # The evaluation rounds each term, so its error scales with the
        # coefficients, not with the value; reduced forms at prime orders
        # cancel heavily.
        if abs(z.imag) > 1e-9 * (1.0 + sum(map(abs, self.num)) / self.den):
            raise ValueError(f"{self} is not real")
        return z.real

    def __eq__(self, other):
        if isinstance(other, Cyclotomic):
            if other.order == self.order:
                return self.num == other.num and self.den == other.den
            return self.is_rational() and other.is_rational() and self.as_fraction() == other.as_fraction()
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.as_fraction() == other
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(self.as_fraction())
        return hash((self.order, self.num, self.den))

    def __str__(self):
        text = ""
        for e, c in enumerate(self.num):
            if not c:
                continue
            g = math.gcd(c, self.den)
            term = f"{abs(c) // g}" if g == self.den else f"{abs(c) // g}/{self.den // g}"
            if e:
                power = f"z{self.order}" if e == 1 else f"z{self.order}^{e}"
                term = power if term == "1" else f"{term}*{power}"
            if text:
                text += f" - {term}" if c < 0 else f" + {term}"
            else:
                text = f"-{term}" if c < 0 else term
        return text or "0"

    def __repr__(self):
        return f"Cyclotomic({self.order}, {self})"


def normalize_scalar(x: Scalar) -> Scalar:
    """Collapse to Fraction whenever the value is rational."""
    if isinstance(x, Cyclotomic):
        return x.as_fraction() if x.is_rational() else x
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise TypeError(f"not an exact scalar: {x!r}")


def scalar_sign(x: Scalar) -> int:
    if isinstance(x, (int, Fraction)):
        return (x > 0) - (x < 0)
    if x.is_zero():
        return 0
    return 1 if float(x) > 0 else -1
