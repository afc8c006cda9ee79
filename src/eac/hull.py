"""Rational closure of a complex subspace in the lattice chart.

The hull of L is the smallest subspace of R^(2g) that is cut out by rational
equations in lattice coordinates and contains the realification of L. It is
computed exactly: expand each realified basis entry over the radical basis
of its multiquadratic field, stack the rational component rows, and take the
rational right-nullspace. A covector annihilates every vector with
multiquadratic entries iff it annihilates each radical component, because
the square roots of distinct squarefree integers are independent over Q.

Iterating hull and complexification grows a chain

    L = L_0,  T_j = hull(L_j),  L_{j+1} = T_j + i T_j,

which strictly increases in real dimension until it stabilizes. Stabilizing
at C^g is the unobstructed outcome; stabilizing at a proper complex
Lambda-rational subspace flags the obstruction and names it.

Dually, the lattice points on realified L form the kernel of exp on L,

    Lambda_L = L_R  intersect  Z^(2g),

so that exp(L) is L / Lambda_L; the solver walks the parameter plane
modulo it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactlinalg import (integer_kernel, primitive_integer_covector,
                          right_nullspace, rref)
from .multiquad import MultiQuadElem
from .variety import ExactSubspace, ProductVariety


@dataclass(frozen=True)
class HullResult:
    """Rational hull T of L with the rational equations that cut it out."""

    T: ExactSubspace
    equations: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return self.T.dim

    @property
    def codim(self) -> int:
        return len(self.equations)


@dataclass(frozen=True)
class HullChain:
    """Alternating chain [L_0, T_0, L_1, ...] up to stabilization.

    hull is the first step, the rational hull of L_0 itself. rounds counts
    the complexification steps taken. non_free is set when the chain
    stabilizes at a proper complex subspace, and stable_subspace then names
    it.
    """

    chain: tuple[ExactSubspace, ...]
    rounds: int
    non_free: bool
    stable_subspace: ExactSubspace | None
    hull: HullResult


def rational_component_rows(vectors: list[list[MultiQuadElem]]) -> list[list[Fraction]]:
    """Stack the per-radicand rational component rows of exact real vectors."""
    rows: list[list[Fraction]] = []
    for v in vectors:
        rads: set[int] = {1}
        for x in v:
            rads.update(x.coeffs.keys())
        for d in sorted(rads):
            row = [x.coeffs.get(d, Fraction(0)) for x in v]
            if any(c != 0 for c in row):
                rows.append(row)
    return rows


def rational_hull(L: ExactSubspace, A: ProductVariety) -> HullResult:
    """Smallest lattice-rational subspace of R^(2g) containing the complex L, realified.

    The returned equations are primitive integer covectors in echelon order;
    T is their kernel with a rational reduced echelon basis.
    """
    Lr = L.realified(A)
    n = 2 * A.g
    rows = rational_component_rows([list(v) for v in Lr.basis])
    null = right_nullspace(rows, ncols=n)
    if null:
        red, _ = rref(null)
        eqs = tuple(tuple(primitive_integer_covector(r)) for r in red)
    else:
        eqs = ()
    if eqs:
        kernel = right_nullspace([[Fraction(c) for c in e] for e in eqs], ncols=n)
        basis = tuple(tuple(MultiQuadElem.from_rational(x) for x in r) for r in kernel)
    else:
        basis = tuple(tuple(MultiQuadElem.from_rational(1 if i == j else 0)
                            for j in range(n)) for i in range(n))
    T = ExactSubspace("real", basis, n)
    if not T.contains(Lr):
        raise AssertionError("hull failed to contain the realified subspace")
    return HullResult(T=T, equations=eqs)


def kernel_lattice(L: ExactSubspace, A: ProductVariety) -> tuple[tuple[int, ...], ...]:
    """Hermite normal form basis of Lambda_L = L_R intersect Z^(2g).

    The dual of rational_hull: the real equations of realified L are
    multiquadratic covectors, and an integer vector satisfies one iff it
    satisfies each of its rational component rows, so Lambda_L is the integer
    kernel of those rows. An empty basis means exp is injective on L.
    """
    if L.kind != "complex":
        raise ValueError("kernel_lattice needs a complex subspace")
    n = 2 * A.g
    eqs = right_nullspace([list(v) for v in L.realified(A).basis], ncols=n)
    return tuple(tuple(r) for r in integer_kernel(rational_component_rows(eqs), n))


def complexification(T: ExactSubspace, A: ProductVariety) -> ExactSubspace:
    """Smallest complex subspace containing the real subspace T, i.e. T + iT.

    Computed as the complex span in C^g of T's basis vectors read through the
    chart, so the result has even real dimension and contains T.
    """
    if T.kind != "real":
        raise ValueError("complexification needs a real subspace")
    g = A.g
    if T.ambient != 2 * g:
        raise ValueError("subspace ambient does not match the variety")
    red, _ = rref([A.from_lattice_exact(list(v)) for v in T.basis])
    return ExactSubspace("complex", tuple(tuple(r) for r in red), g)


def hull_chain(L: ExactSubspace, A: ProductVariety) -> HullChain:
    """Iterate hull and complexification until the chain stabilizes.

    The hull of L is computed first, even when L is all of C^g, and kept as
    the chain's hull, so callers never compute it a second time.
    """
    if L.kind != "complex":
        raise ValueError("hull_chain starts from a complex subspace")
    g = A.g
    first = rational_hull(L, A)
    chain: list[ExactSubspace] = [L]
    current = L
    rounds = 0
    for _ in range(2 * g + 1):
        if current.dim == g:
            return HullChain(tuple(chain), rounds, False, None, first)
        hull = first if rounds == 0 else rational_hull(current, A)
        if hull.dim == 2 * current.dim:
            # hull added nothing: current is complex and Lambda-rational
            chain.append(hull.T)
            return HullChain(tuple(chain), rounds, True, current, first)
        chain.append(hull.T)
        current = complexification(hull.T, A)
        chain.append(current)
        rounds += 1
    raise AssertionError("hull chain failed to stabilize")
