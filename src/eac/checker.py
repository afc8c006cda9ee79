"""Freeness and rotundity decisions for a pair (L, W) on a curve product.

Subvarieties that could break either condition are generated by coordinate
subproducts: for an index set S the subproduct B_S is the span of the factor
coordinates in S, and A/B_S keeps the complementary factors. Freeness asks
that neither side collapses into a proper nontrivial subproduct (L not
contained in any tangent space of one, W not a finite union of its fiber
translates). Rotundity asks, for every S including the empty and full sets,
that the projected dimensions of L and W to A/B_S cover its dimension.

W is a hypersurface in one or two curves, so it is known by its fiber
degrees alone; pipeline.resolve_w reads them from W's polynomial. Verdicts
are True, or False with a named witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .exactlinalg import right_nullspace
from .variety import ExactSubspace, ProductVariety


@dataclass(frozen=True)
class SubvarietyData:
    """What is known about the hypersurface W: its fiber degrees.

    bidegree holds one entry per factor: entry j counts W's points on a
    generic fiber of factor j, E_1 x {pt} for j = 1 and {pt} x E_2 for
    j = 2. It is None only for an instance file that declares none, until
    pipeline.resolve_w reads it from W's polynomial.
    """

    bidegree: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.bidegree is not None:
            if any(d < 0 for d in self.bidegree):
                raise ValueError("bidegree entries must be nonnegative")
            object.__setattr__(self, "bidegree", tuple(int(d) for d in self.bidegree))


@dataclass(frozen=True)
class Verdict:
    """Outcome of one decision, with the witness of a failure."""

    ok: bool
    witness: str | None = None


def check_free(L: ExactSubspace, W: SubvarietyData, A: ProductVariety) -> Verdict:
    """Decide freeness of L x W with respect to proper nontrivial subproducts.

    The L side is exact: L lies in the tangent space of the subproduct B_S
    iff every basis vector vanishes on the complementary coordinates. On the
    W side a fiber degree of 0 for factor j means W misses a generic fiber
    of factor j, so W is a finite union of translates of that factor.
    """
    g = A.g
    if L.kind != "complex" or L.ambient != g:
        raise ValueError("freeness expects L as a complex subspace of C^g")
    if g == 1:
        # no proper nontrivial subproduct exists
        return Verdict(True)
    factors = list(range(1, g + 1))
    for size in range(1, g):
        for S in combinations(factors, size):
            outside = [j for j in range(g) if j + 1 not in S]
            if L.dim > 0 and all(v[j].is_zero() for v in L.basis for j in outside):
                return Verdict(False, f"L lies in the subproduct of factors {list(S)}")
    if L.dim == 0:
        return Verdict(False, "L is the zero subspace")
    for j, count in enumerate(W.bidegree, 1):
        if count == 0:
            return Verdict(False, f"W is a union of translates of factor {j}")
    return Verdict(True)


def check_rotund(L: ExactSubspace, W: SubvarietyData, A: ProductVariety) -> Verdict:
    """Decide rotundity: projected dimensions cover every quotient subproduct.

    For every S (including empty and full), with projection p to A/B_S,
    require dim p(L) + dim p(W) >= g - |S|. dim p(L) is an exact rank after
    deleting the S coordinates. dim p(W) is g - 1 for S empty, W being a
    hypersurface, and 0 for S full. On two factors with factor k deleted, W
    covers the factor left (dim 1) when it meets a generic fiber of factor
    k, that is when k's fiber degree is positive, and maps it to finitely
    many points (dim 0) otherwise.
    """
    g = A.g
    if L.kind != "complex" or L.ambient != g:
        raise ValueError("rotundity expects L as a complex subspace of C^g")
    factors = list(range(1, g + 1))
    for size in range(0, g + 1):
        for S in combinations(factors, size):
            required = g - size
            dim_pL = L.project_deleting({j - 1 for j in S})
            if size == 0:
                dim_pW = g - 1
            elif size == g:
                dim_pW = 0
            else:
                dim_pW = int(W.bidegree[S[0] - 1] > 0)
            achieved = dim_pL + dim_pW
            if achieved < required:
                return Verdict(False,
                               f"projection to the quotient by factors {list(S)} "
                               f"drops to dimension {achieved} < {required}")
    return Verdict(True)


@dataclass(frozen=True)
class PairVerdict:
    free: Verdict
    rotund: Verdict

    @property
    def certified_ready(self) -> bool:
        return self.free.ok and self.rotund.ok


def check_pair(L: ExactSubspace, W: SubvarietyData, A: ProductVariety) -> PairVerdict:
    return PairVerdict(free=check_free(L, W, A), rotund=check_rotund(L, W, A))


def reduce_L(L: ExactSubspace, W: SubvarietyData, A: ProductVariety,
             seed: int = 0) -> ExactSubspace:
    """Cut L by random rational hyperplanes down to a line, the complement of W.

    Each cut intersects L with the kernel of a random small-integer rational
    covector on C^g, keeping only cuts that preserve freeness and rotundity.
    Raises if the pair is not free and rotund to begin with, or if 200 tries
    run out.
    """
    import random

    from .multiquad import ComplexMQ

    g = A.g
    if not check_pair(L, W, A).certified_ready:
        raise ValueError("reduce_L needs a free and rotund pair")
    rng = random.Random(seed)
    current = L
    tries = 0
    while current.dim > 1:
        if tries >= 200:
            raise RuntimeError("reduce_L exhausted its retry budget")
        tries += 1
        phi = [rng.randint(-5, 5) for _ in range(g)]
        if all(c == 0 for c in phi):
            continue
        row = [sum((ComplexMQ(phi[j]) * v[j] for j in range(g)), ComplexMQ(0))
               for v in current.basis]
        null = right_nullspace([row], ncols=current.dim)
        if len(null) != current.dim - 1:
            continue
        new_basis = []
        for comb in null:
            vec = [sum((comb[i] * current.basis[i][j] for i in range(current.dim)),
                       ComplexMQ(0)) for j in range(g)]
            new_basis.append(tuple(vec))
        try:
            candidate = ExactSubspace("complex", tuple(new_basis), g)
        except ValueError:
            continue
        if check_pair(candidate, W, A).certified_ready:
            current = candidate
    return current
