"""Exact arithmetic in real multiquadratic fields Q(sqrt(d1), ..., sqrt(dm)).

An element is a finite Q-linear combination of square roots of distinct
squarefree positive integers, with 1 standing for the rational part:

    x = sum_d  c_d * sqrt(d),   c_d in Q,  d squarefree.

Every element is canonical: squarefree radicands, nonzero Fraction
coefficients, so equality is coefficient-wise and hashing is well defined.
Only the public constructor MultiQuadElem(coeffs) normalizes; parse_mq,
from_rational and sqrt_of, so instance files and the catalog, all use it.
Arithmetic keeps the invariant and only drops zero coefficients: with
g = gcd(a, b), sqrt(a)*sqrt(b) = g*sqrt((a/g)(b/g)), and (a/g)(b/g) is
squarefree, since a prime dividing both quotients would square-divide a.
Inversion is exact: split on one prime p dividing some radicand,
x = a + b*sqrt(p) with a, b in the subfield without p, and use
1/x = (a - b*sqrt(p)) / (a^2 - p*b^2); the denominator lives in the
subfield and is nonzero because the square roots of distinct squarefree
integers are linearly independent over Q.
"""

from __future__ import annotations

import math
import re as _re
from fractions import Fraction
from numbers import Rational


def squarefree_split(n: int) -> tuple[int, int]:
    """Return (s, f) with n = s^2 * f and f squarefree, for n >= 1."""
    if n < 1:
        raise ValueError(f"radicand must be positive, got {n}")
    s, f, d = 1, n, 2
    while d * d <= f:
        while f % (d * d) == 0:
            f //= d * d
            s *= d
        d += 1
    return s, f


class MultiQuadElem:
    """Immutable element of a real multiquadratic field."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: dict[int, Fraction] | None = None):
        clean: dict[int, Fraction] = {}
        if coeffs:
            for d, q in coeffs.items():
                q = Fraction(q)
                if q == 0:
                    continue
                s, f = squarefree_split(d)
                clean[f] = clean.get(f, Fraction(0)) + q * s
                if clean[f] == 0:
                    del clean[f]
        self._c = clean

    @classmethod
    def _canonical(cls, coeffs: dict[int, Fraction]) -> MultiQuadElem:
        """Wrap coeffs that are canonical apart from zero coefficients."""
        x = object.__new__(cls)
        x._c = {d: q for d, q in coeffs.items() if q}
        return x

    # constructors

    @classmethod
    def from_rational(cls, q) -> MultiQuadElem:
        return cls({1: Fraction(q)})

    @classmethod
    def sqrt_of(cls, d: int, scale=1) -> MultiQuadElem:
        return cls({int(d): Fraction(scale)})

    @classmethod
    def one(cls) -> MultiQuadElem:
        return cls({1: Fraction(1)})

    # structure

    @property
    def coeffs(self) -> dict[int, Fraction]:
        return dict(self._c)

    def is_zero(self) -> bool:
        return not self._c

    def is_rational(self) -> bool:
        return all(d == 1 for d in self._c)

    # arithmetic

    @staticmethod
    def _coerce(other):
        if isinstance(other, MultiQuadElem):
            return other
        if isinstance(other, Rational):
            return MultiQuadElem._canonical({1: Fraction(other)})
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self._c)
        for d, q in o._c.items():
            out[d] = out[d] + q if d in out else q
        return MultiQuadElem._canonical(out)

    __radd__ = __add__

    def __neg__(self):
        return MultiQuadElem._canonical({d: -q for d, q in self._c.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self._c)
        for d, q in o._c.items():
            out[d] = out[d] - q if d in out else -q
        return MultiQuadElem._canonical(out)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out: dict[int, Fraction] = {}
        for d1, q1 in self._c.items():
            for d2, q2 in o._c.items():
                g = math.gcd(d1, d2)
                d = (d1 // g) * (d2 // g)
                q = q1 * q2 * g
                out[d] = out[d] + q if d in out else q
        return MultiQuadElem._canonical(out)

    __rmul__ = __mul__

    def inv(self) -> MultiQuadElem:
        if not self._c:
            raise ZeroDivisionError("inverse of zero multiquadratic element")
        if self.is_rational():
            return MultiQuadElem._canonical({1: 1 / self._c[1]})
        # pick a prime dividing some radicand and split the field on it
        p = None
        for d in self._c:
            if d > 1:
                for cand in range(2, d + 1):
                    if d % cand == 0:
                        p = cand
                        break
                break
        a_part: dict[int, Fraction] = {}
        b_part: dict[int, Fraction] = {}
        for d, q in self._c.items():
            if d % p == 0:
                b_part[d // p] = q
            else:
                a_part[d] = q
        a = MultiQuadElem._canonical(a_part)
        b = MultiQuadElem._canonical(b_part)
        denom = a * a - Fraction(p) * (b * b)
        dinv = denom.inv()
        num = a - b * MultiQuadElem._canonical({p: Fraction(1)})
        return num * dinv

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    # comparison and conversion

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._c == o._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __bool__(self):
        return bool(self._c)

    def __float__(self):
        return float(sum(float(q) * math.sqrt(d) for d, q in self._c.items()))

    def __repr__(self):
        return f"MultiQuadElem({self})"

    def __str__(self):
        return render_mq(self)


def render_mq(x: MultiQuadElem) -> str:
    """Canonical string: radical terms by descending radicand, rational last.

    Examples: "2*sqrt(5)+2*sqrt(2)", "1/2*sqrt(10)", "-3/4", "0".
    """
    if x.is_zero():
        return "0"
    terms = []
    for d in sorted(x._c, reverse=True):
        q = x._c[d]
        if d == 1:
            body = str(abs(q))
        elif abs(q) == 1:
            body = f"sqrt({d})"
        else:
            body = f"{abs(q)}*sqrt({d})"
        terms.append(("-" if q < 0 else "+", body))
    sign0, body0 = terms[0]
    out = (sign0 if sign0 == "-" else "") + body0
    for sign, body in terms[1:]:
        out += sign + body
    return out


_TERM_RE = _re.compile(
    r"""\s*(?P<sign>[+-])?\s*
        (?:
            (?P<coef>\d+(?:/\d+)?)\s*(?:\*\s*sqrt\(\s*(?P<rad1>\d+)\s*\))?
          | sqrt\(\s*(?P<rad2>\d+)\s*\)
        )""",
    _re.VERBOSE,
)


def parse_mq(s: str) -> MultiQuadElem:
    """Parse the canonical rendering (and forgiving variants with spaces)."""
    text = s.strip()
    if not text:
        raise ValueError("empty multiquadratic literal")
    out: dict[int, Fraction] = {}
    pos = 0
    first = True
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse multiquadratic literal {s!r} at offset {pos}")
        sign = m.group("sign")
        if sign is None and not first:
            raise ValueError(f"missing +/- between terms in {s!r}")
        sgn = -1 if sign == "-" else 1
        if m.group("rad2") is not None:
            d, coef = int(m.group("rad2")), Fraction(1)
        else:
            coef = Fraction(m.group("coef"))
            d = int(m.group("rad1")) if m.group("rad1") else 1
        out[d] = out.get(d, Fraction(0)) + sgn * coef
        pos = m.end()
        first = False
    return MultiQuadElem(out)


class ComplexMQ:
    """Complex number with exact multiquadratic real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = re if isinstance(re, MultiQuadElem) else MultiQuadElem.from_rational(re)
        self.im = im if isinstance(im, MultiQuadElem) else MultiQuadElem.from_rational(im)

    @staticmethod
    def _coerce(other):
        if isinstance(other, ComplexMQ):
            return other
        if isinstance(other, (MultiQuadElem, Rational)):
            return ComplexMQ(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ComplexMQ(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return ComplexMQ(-self.re, -self.im)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ComplexMQ(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ComplexMQ(self.re * o.re - self.im * o.im,
                         self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def inv(self) -> ComplexMQ:
        n = self.re * self.re + self.im * self.im
        if n.is_zero():
            raise ZeroDivisionError("inverse of zero complex element")
        ninv = n.inv()
        return ComplexMQ(self.re * ninv, -self.im * ninv)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def is_zero(self) -> bool:
        return self.re.is_zero() and self.im.is_zero()

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"ComplexMQ({self.re}, {self.im})"
