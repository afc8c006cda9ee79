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
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

SEGRE_DIM = {1: 3, 2: 9}


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
