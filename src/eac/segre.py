"""Segre coordinates for a product of two curves and polynomials in them.

The product embeds through the per-factor projective Weierstrass maps
[1 : wp : wp'] combined by the Segre product. Affine coordinates are ordered

    Z0 = 1,        Z1 = wp_2,        Z2 = wp_2',
    Z3 = wp_1,     Z4 = wp_1 wp_2,   Z5 = wp_1 wp_2',
    Z6 = wp_1',    Z7 = wp_1' wp_2,  Z8 = wp_1' wp_2'.

A hypersurface is the zero set of a linear-in-Z polynomial with complex
coefficients (monomials of total degree 1 in the projective chart cover the
cases of interest; higher products of Z's are accepted and evaluated
affinely). For a single curve the chart degenerates to [1 : wp : wp'].

The coordinates are affine: at a pole of wp, WpEvaluator.wp_pair raises
AtInfinity instead. SegrePolynomial.from_dict owns the rules on monomials:
exponent tuples of the chart's length, nonnegative exponents, finite
coefficients and at least one nonzero monomial.

bidegree_of reads W's fiber degree on each factor from F's exponents, as a
pole order. It is exact bookkeeping on exponents; only a wp'^2 term needs
the invariants g2 and g3. Their Eisenstein q-series is written once, here,
in pure Python over any number type (eisenstein_invariants): weierstrass
reads it in doubles and at 30 digits, and the exact layer loads no numpy.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass

from .variety import ProductVariety

SEGRE_DIM = {1: 3, 2: 9}
# Target absolute tail bound of the q-series, here and in weierstrass.
EPS = 1e-12
# A coefficient whose terms sum to below this share of their sizes has
# cancelled; so has g2 or g3 below this share of the discriminant.
CANCEL = 1e-12


class NotAHypersurface(ValueError):
    """F is identically zero or a nonzero constant, so W is all of A or empty."""


def segre_stack(wps, wpps, one) -> list:
    """Affine coordinates Z0.. from per-factor wp and wp' values.

    Entries may be scalars, numpy arrays of one shape, mpmath numbers or
    eac.fixed.Fixed values; one is Z0 in the same type, so every coordinate
    matches the others.
    """
    if len(wps) == 1:
        return [one, wps[0], wpps[0]]
    if len(wps) == 2:
        (p1, p2), (q1, q2) = wps, wpps
        return [one, p2, q2, p1, p1 * p2, p1 * q2, q1, q1 * p2, q1 * q2]
    raise ValueError("Segre coordinates are implemented for one or two factors")


@dataclass(frozen=True)
class SegrePolynomial:
    """Polynomial in the affine Segre coordinates with complex coefficients.

    monomials maps an exponent tuple (length 3 for one factor, 9 for two) to
    a complex coefficient. Linear monomials are the typical case; products
    are evaluated affinely.
    """

    g: int
    monomials: tuple[tuple[tuple[int, ...], complex], ...]

    @classmethod
    def from_dict(cls, g: int, table: dict) -> SegrePolynomial:
        dim = SEGRE_DIM.get(g)
        if dim is None:
            raise ValueError("Segre polynomials are implemented for one or two factors")
        items = []
        for expo, coeff in sorted(table.items()):
            expo = tuple(int(e) for e in expo)
            if len(expo) != dim:
                raise ValueError(f"exponents {list(expo)}: expected length {dim} "
                                 f"for {g} factor(s), got {len(expo)}")
            if any(e < 0 for e in expo):
                raise ValueError("exponents must be nonnegative")
            coeff = complex(coeff)
            if not cmath.isfinite(coeff):
                raise ValueError(f"exponents {list(expo)}: coefficient {coeff} is not finite")
            if coeff != 0:
                items.append((expo, coeff))
        if not items:
            raise ValueError("polynomial has no nonzero monomials")
        return cls(g, tuple(items))

    @classmethod
    def linear(cls, g: int, coeffs: dict[int, complex]) -> SegrePolynomial:
        """Build sum c_i Z_i from {index: coefficient}."""
        dim = SEGRE_DIM[g]
        table = {}
        for i, c in coeffs.items():
            if not 0 <= i < dim:
                raise ValueError(f"coordinate index {i} outside 0..{dim - 1}")
            e = [0] * dim
            e[i] = 1
            table[tuple(e)] = c
        return cls.from_dict(g, table)

    def eval_affine(self, z):
        """Evaluate on an affine coordinate vector or a stacked list of arrays."""
        total = None
        for expo, coeff in self.monomials:
            term = coeff
            for e, zi in zip(expo, z):
                if e == 1:
                    term = term * zi
                elif e > 1:
                    term = term * zi ** e
            total = term if total is None else total + term
        return total


class _Exponents(tuple):
    """Exponents (a_1, b_1, ..., a_g, b_g) of prod wp_j^a_j wp_j'^b_j; * adds them."""

    def __mul__(self, other):
        return _Exponents(x + y for x, y in zip(self, other))


def _qseries_terms(tau: complex, eps: float) -> int:
    """Powers of q = exp(2 pi i tau) that bring a q-series' tail below eps."""
    absq = math.exp(-2.0 * math.pi * tau.imag)
    if absq >= 1.0:
        raise ValueError("tau must have positive imaginary part")
    if absq == 0.0:  # |q| underflowed (Im tau >= 118.6): the shortest series will do
        return 6
    n = int(math.log(eps * (1.0 - absq) * 0.1) / math.log(absq)) + 2
    return max(n, 6)


def eisenstein_invariants(q, pi, one, nterms: int):
    """(g2, g3) = (4 pi^4 / 3) E4 and (8 pi^6 / 27) E6, summed to nterms powers of q.

    E4 = 1 + 240 sum n^3 q^n / (1 - q^n) and E6 = 1 - 504 sum n^5 q^n / (1 - q^n)
    (Apostol, Modular Functions and Dirichlet Series, ch. 1), summed in order
    in the number type of q, pi and its unit one: doubles or eac.fixed.Fixed.
    """
    s4 = s6 = 0j
    for n in range(1, nterms + 1):
        t = q ** n / (one - q ** n)
        s4 += n ** 3 * t
        s6 += n ** 5 * t
    return ((4.0 * pi ** 4 / 3.0) * (one + 240.0 * s4),
            (8.0 * pi ** 6 / 27.0) * (one - 504.0 * s6))


@functools.lru_cache(maxsize=64)
def lattice_invariants(tau: complex) -> tuple[complex, complex]:
    """(g2, g3) of Z + tau Z in doubles, to the q-series length at EPS and at least 16 terms."""
    return eisenstein_invariants(cmath.exp(2j * math.pi * tau), math.pi, 1.0,
                                 max(_qseries_terms(tau, EPS), 16))


def _cubic(tau: complex) -> list[tuple[int, complex]]:
    """wp'^2 = 4 wp^3 - g2 wp - g3 as (power of wp, coefficient) terms.

    g2 or g3 below CANCEL of the discriminant g2^3 - 27 g3^2 is 0, as at
    tau = rho or i.
    """
    g2, g3 = lattice_invariants(tau)
    floor = CANCEL * abs(g2 ** 3 - 27 * g3 ** 2)
    return [(3, 4.0), (1, -g2 if abs(g2) ** 3 >= floor else 0.0),
            (0, -g3 if 27 * abs(g3) ** 2 >= floor else 0.0)]


def bidegree_of(F: SegrePolynomial, A: ProductVariety) -> tuple[int, ...]:
    """Zeros of F on a generic fiber of each factor, read from F's exponents.

    On a fiber of factor j, F is elliptic with its only pole at the lattice,
    so it has as many zeros in a period cell as that pole's order. Once each
    wp_j'^2 is reduced to 4 wp_j^3 - g2 wp_j - g3 (DLMF 23.3), wp^a has order
    2a and wp^a wp' has 2a + 3: factor j's degree is the largest order whose
    coefficient, a polynomial in the other factor, does not cancel (to CANCEL
    of the sum of its terms' sizes). segre_stack gives each coordinate's
    exponents. g2 and g3 (lattice_invariants) are read only for a wp' power
    of 2 or more. Raises NotAHypersurface when every degree is 0: F then
    cancels to zero (W is all of A) or is a nonzero constant (W is empty).
    """
    n = 2 * A.g
    unit = [_Exponents(int(k == i) for k in range(n)) for i in range(n)]
    coords = segre_stack(unit[::2], unit[1::2], _Exponents([0] * n))
    sums: dict[tuple[int, ...], complex] = {}
    sizes: dict[tuple[int, ...], float] = {}
    for expo, coeff in F.monomials:
        e = [sum(k * z[i] for k, z in zip(expo, coords)) for i in range(n)]
        per_factor = []
        for j, (a, b) in enumerate(zip(e[::2], e[1::2])):
            terms = [(a, 1.0)]
            cubic = _cubic(A.factors[j].tau) if b > 1 else []
            for _ in range(b // 2):
                terms = [(p + dp, c * dc) for p, c in terms for dp, dc in cubic]
            per_factor.append([((p, b % 2), c) for p, c in terms])
        for combo in itertools.product(*per_factor):
            key = tuple(x for pq, _ in combo for x in pq)
            value = coeff * math.prod(c for _, c in combo)
            sums[key] = sums.get(key, 0.0) + value
            sizes[key] = sizes.get(key, 0.0) + abs(value)
    live = [k for k, s in sums.items() if abs(s) > CANCEL * sizes[k]]
    degrees = tuple(max((2 * k[2 * j] + 3 * k[2 * j + 1] for k in live), default=0)
                    for j in range(A.g))
    if not any(degrees):
        what = ("W is empty: its polynomial is a nonzero constant" if live else
                "W is all of A: its polynomial vanishes identically")
        raise NotAHypersurface(f"{what} once each wp'^2 is reduced to 4 wp^3 - g2 wp - g3")
    return degrees
