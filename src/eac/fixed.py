"""Fixed-point complex numbers for the solver's 30-digit verification.

A Fixed holds two Python ints read as (re + i im) / 2**FIX_BITS, or two
numpy object arrays of them (Fixed.stack), whose elements np.frompyfunc
takes through the same int formulas. Sums are exact, and each product or
quotient is rounded once to the nearest grid point, an absolute error of at
most 2**-(FIX_BITS + 1), about 1.5e-39, per component. Only what
weierstrass.WpFixed and solver.pulled_back_jet use is provided: + - * /
with a Fixed on the left (and + * with a number on the left), powers to a
nonnegative int, abs, exp, PI and complex() of a scalar. Python ints,
floats and complex numbers mix in through Fixed.lift.

Large values keep their relative accuracy, but a value of size d has
relative accuracy 2**-FIX_BITS / d. The smallest divisor in the theta
series is V - 1/V, about 2 pi |z| near a pole: at |z| = 1e-8, 128 bits
keep wp and wp' within 1e-30 relative of a 60-digit reference.
"""

from __future__ import annotations

import math

import numpy as np

FIX_BITS = 128
_HALF = 1 << (FIX_BITS - 1)
_TAYLOR = tuple((j, j << (FIX_BITS - 1)) for j in range(26, 0, -1))  # exp's Horner steps


def _round_shift(n: int, s: int) -> int:
    """n / 2**s rounded to the nearest integer, halves up."""
    if s <= 0:
        return n << -s
    return (n + (1 << (s - 1))) >> s


def _to_grid(x) -> int:
    """x * 2**FIX_BITS rounded, for an int or a float."""
    if isinstance(x, int):
        return x << FIX_BITS
    n, d = x.as_integer_ratio()
    return _round_shift(n, d.bit_length() - 1 - FIX_BITS)


def _mul(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    return (a * c - b * d + _HALF) >> FIX_BITS, (a * d + b * c + _HALF) >> FIX_BITS


def _div(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    n = c * c + d * d  # zero raises ZeroDivisionError
    return ((((a * c + b * d) << (FIX_BITS + 1)) + n) // (2 * n),
            (((b * c - a * d) << (FIX_BITS + 1)) + n) // (2 * n))


def _exp(a: int, b: int) -> tuple[int, int]:
    k = max(0, ((9 * (a * a + b * b) - 1).bit_length() + 1) // 2 - FIX_BITS)  # |x| / 2**k <= 1/3
    a, b = _round_shift(a, k), _round_shift(b, k)
    re, im = 1 << FIX_BITS, 0
    for j, half in _TAYLOR:  # (n >> FIX_BITS) // j is n // (j << FIX_BITS): one rounding
        re, im = ((1 << FIX_BITS) + ((a * re - b * im + half) >> FIX_BITS) // j,
                  ((a * im + b * re + half) >> FIX_BITS) // j)
    for _ in range(k):
        re, im = _mul(re, im, re, im)
    return re, im


_MUL = np.frompyfunc(_mul, 4, 2)
_DIV = np.frompyfunc(_div, 4, 2)
_EXP = np.frompyfunc(_exp, 2, 2)
_ISQRT = np.frompyfunc(math.isqrt, 1, 1)


class Fixed:
    """A complex number (re + i im) / 2**FIX_BITS with Python int parts, or arrays of them."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = re
        self.im = im

    @classmethod
    def stack(cls, values) -> Fixed:
        """The scalar Fixed values as one Fixed over object arrays."""
        return cls(np.array([v.re for v in values], dtype=object),
                   np.array([v.im for v in values], dtype=object))

    @classmethod
    def lift(cls, x) -> Fixed:
        """x rounded onto the grid.

        Exact for ints and for floats of magnitude 2**(52 - FIX_BITS) or more.
        """
        if type(x) is cls:
            return x
        return cls(_to_grid(x.real), _to_grid(x.imag))

    def __add__(self, other) -> Fixed:
        o = other if type(other) is Fixed else Fixed.lift(other)
        return Fixed(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other) -> Fixed:
        o = other if type(other) is Fixed else Fixed.lift(other)
        return Fixed(self.re - o.re, self.im - o.im)

    def __mul__(self, other) -> Fixed:
        o = other if type(other) is Fixed else Fixed.lift(other)
        return Fixed(*_MUL(self.re, self.im, o.re, o.im))

    __rmul__ = __mul__

    def __truediv__(self, other) -> Fixed:
        o = other if type(other) is Fixed else Fixed.lift(other)
        return Fixed(*_DIV(self.re, self.im, o.re, o.im))

    def __pow__(self, e: int) -> Fixed:
        """Square and multiply: at most 2 log2(e) products, each rounded once."""
        if type(e) is not int or e < 0:
            return NotImplemented
        if e < 2:
            return self if e else ONE
        half = self ** (e // 2)
        return half * half * self if e & 1 else half * half

    def __abs__(self):
        return _ISQRT(self.re * self.re + self.im * self.im) / (1 << FIX_BITS)

    def __complex__(self) -> complex:
        """The nearest double to each part of a scalar: int / int rounds once."""
        return complex(self.re / (1 << FIX_BITS), self.im / (1 << FIX_BITS))

    def exp(self) -> Fixed:
        """e**self by halving, Horner's Taylor sum to y**26 / 26! and squaring (Brent-Zimmermann 4.3)."""
        return Fixed(*_EXP(self.re, self.im))


ONE = Fixed(1 << FIX_BITS)
PI = Fixed(1069028584064966747859680373161870783301)  # round(pi * 2**128)
