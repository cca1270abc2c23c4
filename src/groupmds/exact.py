"""Exact scalars: rationals plus elements of the cyclotomic field Q(zeta_n).

Character values on cyclic groups are roots of unity; storing them as
float pairs would wreck the exact-equality checks the character layer
promises. A :class:`Cyclotomic` holds rational coefficients on the power
basis zeta^0..zeta^(n-1). That basis is redundant, so equality,
rationality, and hashing all go through a canonical form reduced modulo
the n-th cyclotomic polynomial. The reduction is one integer matrix per n
(:func:`reduction_matrix`): row e holds zeta^e on the basis
zeta^0..zeta^(phi(n)-1), so reducing many values is one matrix product.

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

from .groups import check_bytes

Scalar = Union[int, Fraction, "Cyclotomic"]

_ZERO = Fraction(0)
_ONE = Fraction(1)


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
    check_bytes(n * deg * 8, f"the reduction matrix of Q(zeta_{n})")
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
    """An element of Q(zeta_n), zeta_n = exp(2*pi*i/n)."""

    __slots__ = ("order", "coeffs", "_canon")

    def __init__(self, order: int, coeffs, canon=None):
        """``canon``, when given, must be the reduced form of ``coeffs``
        (see :meth:`canonical`); callers that reduced many values in one
        product pass it so nothing is reduced twice."""
        coeffs = tuple(c if type(c) is Fraction else Fraction(c) for c in coeffs)
        if len(coeffs) != order:
            raise ValueError("need one coefficient per power of the root")
        self.order = order
        self.coeffs = coeffs
        self._canon = canon

    @classmethod
    def root(cls, order: int, exponent: int) -> "Cyclotomic":
        e = exponent % order
        coeffs = [_ZERO] * order
        coeffs[e] = _ONE
        return cls(order, coeffs,
                   canon=tuple(map(Fraction, reduction_matrix(order)[e].astype(np.int64).tolist())))

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
            # Reduction modulo Phi_n is linear, so the scaled form is exact.
            canon = None if self._canon is None else tuple(c * f for c in self._canon)
            return Cyclotomic(self.order, [a * f for a in self.coeffs], canon=canon)
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
            denom = math.lcm(*(c.denominator for c in self.coeffs))
            ints = [c.numerator * (denom // c.denominator) for c in self.coeffs]
            self._canon = tuple(Fraction(c, denom) for c in reduce_powers(ints, self.order).tolist())
        return self._canon

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.canonical()[1:])

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.canonical())

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.canonical()[0]

    def __complex__(self) -> complex:
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

    def __float__(self) -> float:
        z = complex(self)
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


def scalar_sign(x: Scalar) -> int:
    if isinstance(x, (int, Fraction)):
        return (x > 0) - (x < 0)
    if x.is_zero():
        return 0
    return 1 if float(x) > 0 else -1
