"""Exact Gaussian elimination over any field with +, -, *, inverse.

Works uniformly for Fraction, MultiQuadElem, and ComplexMQ scalars. Matrices
are lists of row lists. Nothing here is numeric; pivoting is on the first
nonzero entry, which is safe because arithmetic is exact. Integer lattices
get the Hermite normal form (Cohen, A Course in Computational Algebraic
Number Theory, section 2.4.2), built from unimodular row operations only.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .multiquad import ComplexMQ, MultiQuadElem


def _inv(x):
    if isinstance(x, (MultiQuadElem, ComplexMQ)):
        return x.inv()
    return Fraction(1) / Fraction(x)


def rref(rows: list[list]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form. Returns (rref rows, pivot column indices)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        row = m[r]
        pinv = _inv(row[c])
        # the pivot row is zero left of c: only its nonzero entries from c
        # on change anything, and exact arithmetic makes skipping the rest safe
        live = [j for j in range(c, ncols) if row[j]]
        for j in live:
            row[j] = pinv * row[j]
        for i, other in enumerate(m):
            if i != r and other[c]:
                f = other[c]
                for j in live:
                    other[j] = other[j] - f * row[j]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank_exact(rows: list[list]) -> int:
    """Rank of an exact matrix; empty matrices have rank 0."""
    return len(rref(rows)[0])


def right_nullspace(rows: list[list], ncols: int | None = None) -> list[list]:
    """Basis of {x : M x = 0}, one vector per free column, in column order.

    Each basis vector has a 1 in its free column and 0 in the other free
    columns, so the result is canonical given the input row space.
    """
    if rows:
        ncols = len(rows[0])
    if ncols is None:
        raise ValueError("ncols required for an empty matrix")
    red, pivots = rref(rows)
    one = _one_like(rows[0][0]) if rows else Fraction(1)
    zero = one - one
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [zero] * ncols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def _one_like(x):
    if isinstance(x, MultiQuadElem):
        return MultiQuadElem.one()
    if isinstance(x, ComplexMQ):
        return ComplexMQ(1)
    return Fraction(1)


def primitive_integer_covector(v: list[Fraction]) -> list[int]:
    """Scale a rational covector to coprime integers, first nonzero positive."""
    fracs = [Fraction(x) for x in v]
    if all(f == 0 for f in fracs):
        raise ValueError("zero covector has no primitive form")
    denom = lcm(*[f.denominator for f in fracs])
    ints = [int(f * denom) for f in fracs]
    g = 0
    for a in ints:
        g = gcd(g, abs(a))
    ints = [a // g for a in ints]
    lead = next(a for a in ints if a != 0)
    if lead < 0:
        ints = [-a for a in ints]
    return ints


def hermite_normal_form(rows: list[list[int]]) -> list[list[int]]:
    """Row Hermite normal form of an integer matrix, zero rows dropped.

    The rows returned span the same lattice as the input rows. They are in
    echelon form with positive pivots, and every entry above a pivot lies in
    [0, pivot), so two generating sets of one lattice give the same result.
    """
    m = [[int(x) for x in r] for r in rows if any(r)]
    r = 0
    for c in range(len(m[0]) if m else 0):
        for i in range(r + 1, len(m)):
            a, b = m[r][c], m[i][c]
            if b == 0:
                continue
            # (x, y; -b/g, a/g) has determinant 1 and clears m[i][c]
            g, x, y = _xgcd(a, b)
            m[r], m[i] = ([x * s + y * t for s, t in zip(m[r], m[i])],
                          [(a // g) * t - (b // g) * s for s, t in zip(m[r], m[i])])
        if r == len(m) or m[r][c] == 0:
            continue
        if m[r][c] < 0:
            m[r] = [-x for x in m[r]]
        for i in range(r):
            k = m[i][c] // m[r][c]
            m[i] = [s - k * t for s, t in zip(m[i], m[r])]
        r += 1
    return m[:r]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) > 0 and x a + y b = g, for (a, b) != 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        k, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - k * x1
        y0, y1 = y1, y0 - k * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


def integer_kernel(rows: list[list[Fraction]], ncols: int) -> list[list[int]]:
    """Hermite-normal basis of the lattice {x in Z^ncols : M x = 0}.

    Row-reduces the transpose of M beside an identity block with unimodular
    operations. The identity parts of the rows whose M part becomes zero are
    a basis of the integer kernel, and they come out already in Hermite
    normal form because they are the tail of the reduced block.
    """
    ints = [primitive_integer_covector(r) for r in rows if any(x != 0 for x in r)]
    k = len(ints)
    block = [[r[j] for r in ints] + [int(i == j) for i in range(ncols)]
             for j in range(ncols)]
    return [r[k:] for r in hermite_normal_form(block) if not any(r[:k])]
