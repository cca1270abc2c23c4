"""Exact scalars: rationals plus elements of the cyclotomic field Q(zeta_n).

Character values on cyclic groups are roots of unity; storing them as
float pairs would wreck the exact-equality checks the character layer
promises. A :class:`Cyclotomic` holds rational coefficients on the power
basis zeta^0..zeta^(n-1). That basis is redundant, so equality,
rationality, and hashing all go through a canonical form reduced modulo
the n-th cyclotomic polynomial.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Tuple, Union

Scalar = Union[int, Fraction, "Cyclotomic"]

_ZERO = Fraction(0)


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
    return len(cyclotomic_polynomial(n)) - 1


class Cyclotomic:
    """An element of Q(zeta_n), zeta_n = exp(2*pi*i/n)."""

    __slots__ = ("order", "coeffs", "_canon")

    def __init__(self, order: int, coeffs):
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != order:
            raise ValueError("need one coefficient per power of the root")
        self.order = order
        self.coeffs = coeffs
        self._canon = None

    @classmethod
    def root(cls, order: int, exponent: int) -> "Cyclotomic":
        coeffs = [_ZERO] * order
        coeffs[exponent % order] = Fraction(1)
        return cls(order, coeffs)

    @classmethod
    def zero(cls, order: int) -> "Cyclotomic":
        return cls(order, [_ZERO] * order)

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            if other.order != self.order:
                return None
            return other
        if isinstance(other, (int, Fraction)):
            coeffs = [_ZERO] * self.order
            coeffs[0] = Fraction(other)
            return Cyclotomic(self.order, coeffs)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Cyclotomic(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Cyclotomic(self.order, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other.__sub__(self)

    def __neg__(self):
        return Cyclotomic(self.order, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            out = Cyclotomic(self.order, [a * f for a in self.coeffs])
            if self._canon is not None:
                # Reduction modulo Phi_n is linear, so the scaled form is exact.
                out._canon = tuple(c * f for c in self._canon)
            return out
        if isinstance(other, Cyclotomic) and other.order == self.order:
            n = self.order
            out = [_ZERO] * n
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[(i + j) % n] += a * b
            return Cyclotomic(n, out)
        return NotImplemented

    __rmul__ = __mul__

    def conjugate(self) -> "Cyclotomic":
        n = self.order
        out = [_ZERO] * n
        for e, c in enumerate(self.coeffs):
            out[(-e) % n] += c
        return Cyclotomic(n, out)

    def canonical(self) -> Tuple[Fraction, ...]:
        """Coefficients on the basis zeta^0..zeta^(phi(n)-1) of Q(zeta_n)."""
        if self._canon is None:
            phi_poly = cyclotomic_polynomial(self.order)
            deg = len(phi_poly) - 1
            rem = list(self.coeffs)
            for i in range(len(rem) - 1, deg - 1, -1):
                c = rem[i]
                if c:
                    for j, pc in enumerate(phi_poly):
                        rem[i - deg + j] -= c * pc
            self._canon = tuple(rem[:deg])
        return self._canon

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.canonical()[1:])

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.canonical())

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.canonical()[0]

    def to_complex(self) -> complex:
        n = self.order
        re = 0.0
        im = 0.0
        for e, c in enumerate(self.coeffs):
            if c:
                angle = 2.0 * math.pi * e / n
                cf = float(c)
                re += cf * math.cos(angle)
                im += cf * math.sin(angle)
        return complex(re, im)

    def to_float(self) -> float:
        z = self.to_complex()
        if abs(z.imag) > 1e-9 * (1.0 + abs(z.real)):
            raise ValueError(f"{self} is not real")
        return z.real

    def __eq__(self, other):
        if isinstance(other, Cyclotomic):
            if other.order == self.order:
                return self.canonical() == other.canonical()
            if self.is_rational() and other.is_rational():
                return self.as_fraction() == other.as_fraction()
            return False
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.as_fraction() == other
        return NotImplemented

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

    def __repr__(self):
        return f"Cyclotomic({self.order}, {self})"


def normalize_scalar(x: Scalar) -> Scalar:
    """Collapse to Fraction whenever the value is rational."""
    if isinstance(x, Cyclotomic):
        return x.as_fraction() if x.is_rational() else x
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise TypeError(f"not an exact scalar: {x!r}")


def conj_scalar(x: Scalar) -> Scalar:
    if isinstance(x, Cyclotomic):
        return x.conjugate()
    return x


def scalar_is_zero(x: Scalar) -> bool:
    if isinstance(x, Cyclotomic):
        return x.is_zero()
    return x == 0


def scalar_float(x: Scalar) -> float:
    """Real floating value; raises if a cyclotomic is not real."""
    if isinstance(x, Cyclotomic):
        return x.to_float()
    return float(x)


def scalar_sign(x: Scalar) -> int:
    if isinstance(x, (int, Fraction)):
        return (x > 0) - (x < 0)
    if x.is_zero():
        return 0
    value = x.to_float()
    return 1 if value > 0 else -1


def scalar_text(x: Scalar) -> str:
    """Exact text form: "p/q" (or "p") for rationals, a symbolic sum of
    powers of z{n} for irrational cyclotomics."""
    if isinstance(x, Cyclotomic):
        if x.is_rational():
            return str(x.as_fraction())
        return str(x)
    return str(Fraction(x))
