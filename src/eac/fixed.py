"""Fixed-point complex numbers for the solver's 30-digit verification.

A Fixed holds two Python ints read as (re + i im) / 2**FIX_BITS. Sums are
exact, and each product or quotient is rounded once to the nearest grid
point, an absolute error of at most 2**-(FIX_BITS + 1), about 1.5e-39, per
component. Only what weierstrass.theta_sums, segre.segre_stack and
SegrePolynomial.eval_affine use is provided: + - * / with a Fixed on the
left (and + * with a number on the left), powers to a nonnegative int and
abs. Python ints, floats and complex numbers and mpmath numbers mix in
through Fixed.lift.

Large values keep their relative accuracy, but a value of size d has
relative accuracy 2**-FIX_BITS / d. The smallest divisor in the theta
series is 1 - u, about 2 pi |z| near a pole: at |z| = 1e-8, 128 bits keep
the sums within 1e-30 relative of a 60-digit reference, and 120 would not.
"""

from __future__ import annotations

import math

FIX_BITS = 128
_HALF = 1 << (FIX_BITS - 1)


def _round_shift(n: int, s: int) -> int:
    """n / 2**s rounded to the nearest integer, halves up."""
    if s <= 0:
        return n << -s
    return (n + (1 << (s - 1))) >> s


def _round_div(n: int, d: int) -> int:
    """n / d rounded to the nearest integer, halves up, for d > 0."""
    return (2 * n + d) // (2 * d)


def _to_grid(x) -> int:
    """x * 2**FIX_BITS rounded, for an int, a float or an mpmath mpf."""
    if isinstance(x, int):
        return x << FIX_BITS
    if isinstance(x, float):
        n, d = x.as_integer_ratio()
        return _round_shift(n, d.bit_length() - 1 - FIX_BITS)
    n, e = x.man_exp  # the mantissa of an mpf carries no sign
    return _round_shift(-n if x < 0 else n, -e - FIX_BITS)


class Fixed:
    """A complex number (re + i im) / 2**FIX_BITS with Python int parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: int, im: int = 0):
        self.re = re
        self.im = im

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
        a, b, c, d = self.re, self.im, o.re, o.im
        return Fixed((a * c - b * d + _HALF) >> FIX_BITS, (a * d + b * c + _HALF) >> FIX_BITS)

    __rmul__ = __mul__

    def __truediv__(self, other) -> Fixed:
        o = other if type(other) is Fixed else Fixed.lift(other)
        a, b, c, d = self.re, self.im, o.re, o.im
        n = c * c + d * d
        if n == 0:
            raise ZeroDivisionError("fixed-point division by zero")
        return Fixed(_round_div((a * c + b * d) << FIX_BITS, n),
                     _round_div((b * c - a * d) << FIX_BITS, n))

    def __pow__(self, e: int) -> Fixed:
        if type(e) is not int or e < 0:
            return NotImplemented
        out = ONE
        for _ in range(e):
            out = out * self
        return out

    def __abs__(self) -> float:
        return math.isqrt(self.re * self.re + self.im * self.im) / (1 << FIX_BITS)


ONE = Fixed(1 << FIX_BITS)
