"""Freeness and rotundity decisions for a pair (L, W) on a curve product.

Subvarieties that could break either condition are generated by coordinate
subproducts: for an index set S the subproduct B_S is the span of the factor
coordinates in S, and A/B_S keeps the complementary factors. Freeness asks
that neither side collapses into a proper nontrivial subproduct (L not
contained in any tangent space of one, W not a finite union of its fiber
translates). Rotundity asks, for every S including the empty and full sets,
that the projected dimensions of L and W to A/B_S cover its dimension.

Verdicts are three-valued: True, False with a named witness, or None when
the W-side data is insufficient, in which case certification must refuse.
The W-side data is the bidegree on two factors; without it, a W that is
neither a point nor the whole product is undecided.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .exactlinalg import right_nullspace
from .variety import ExactSubspace, ProductVariety


@dataclass(frozen=True)
class SubvarietyData:
    """What is known about W: its dimension plus optional hypersurface data.

    bidegree (m, n) applies to hypersurfaces in a product of two curves; m
    counts intersections with horizontal fibers E_1 x {pt}, n with vertical
    fibers {pt} x E_2.
    """

    dim: int
    bidegree: tuple[int, int] | None = None

    def __post_init__(self):
        if self.dim < 0:
            raise ValueError("subvariety dimension must be nonnegative")
        if self.bidegree is not None:
            m, n = self.bidegree
            if m < 0 or n < 0:
                raise ValueError("bidegree entries must be nonnegative")
            object.__setattr__(self, "bidegree", (int(m), int(n)))


@dataclass(frozen=True)
class Verdict:
    """Outcome of one decision. ok is None when the data cannot decide."""

    ok: bool | None
    witness: str | None = None
    detail: dict = field(default_factory=dict)
    assumptions: tuple[str, ...] = ()

    @property
    def indeterminate(self) -> bool:
        return self.ok is None


class IndeterminateError(ValueError):
    """Raised when a caller insists on a decision the data cannot support."""


def _w_dominant_dims(W: SubvarietyData, g: int) -> tuple[int, ...] | None:
    """dim of the image of W in each single factor, or None if unknown."""
    if g == 1:
        return (min(W.dim, 1),)
    if g == 2 and W.bidegree is not None:
        m, n = W.bidegree
        # m >= 1 iff W meets a generic horizontal fiber iff W covers E_2
        return (1 if n >= 1 else 0, 1 if m >= 1 else 0)
    return None


def check_free(L: ExactSubspace, W: SubvarietyData, A: ProductVariety) -> Verdict:
    """Decide freeness of L x W with respect to proper nontrivial subproducts.

    The L side is exact: L lies in the tangent space of the subproduct B_S
    iff every basis vector vanishes on the complementary coordinates. The W
    side is decided for a point, for the whole product, and on two factors
    by the bidegree (a zero entry means W is a finite union of fiber
    translates); anything else is indeterminate.
    """
    g = A.g
    if L.kind != "complex" or L.ambient != g:
        raise ValueError("freeness expects L as a complex subspace of C^g")
    assumptions = tuple(A.assumptions())
    if g == 1:
        # no proper nontrivial subproduct exists
        return Verdict(True, None, {"note": "single factor, condition is vacuous"},
                       assumptions)
    factors = list(range(1, g + 1))
    for size in range(1, g):
        for S in combinations(factors, size):
            outside = [j for j in range(g) if j + 1 not in S]
            if L.dim > 0 and all(v[j].is_zero() for v in L.basis for j in outside):
                return Verdict(False, f"L lies in the subproduct of factors {list(S)}",
                               {"side": "L", "factors": list(S)}, assumptions)
    if L.dim == 0:
        return Verdict(False, "L is the zero subspace",
                       {"side": "L", "factors": []}, assumptions)
    if W.dim == 0:
        # a point is a translate of the trivial subproduct, never of a proper one
        return Verdict(True, None, {"w_side": "point"}, assumptions)
    if W.dim == g:
        return Verdict(True, None, {"w_side": "full product"}, assumptions)
    if g != 2 or W.bidegree is None:
        return Verdict(None, None, {"reason": "no bidegree for W on two factors"},
                       assumptions)
    m, n = W.bidegree
    for j, count in ((1, m), (2, n)):
        if count == 0:
            return Verdict(False, f"W is a union of translates of factor {j}",
                           {"side": "W", "factors": [j], "bidegree": [m, n]},
                           assumptions)
    return Verdict(True, None, {"bidegree": [m, n]}, assumptions)


def check_rotund(L: ExactSubspace, W: SubvarietyData, A: ProductVariety) -> Verdict:
    """Decide rotundity: projected dimensions cover every quotient subproduct.

    For every S (including empty and full), with projection p to A/B_S,
    require dim p(L) + dim p(W) >= g - |S|. dim p(L) is an exact rank after
    deleting the S coordinates. dim p(W) is dim W for S empty and 0 for S
    full. On two factors with one left, it is min(dim W, 1) if the bidegree
    says W covers that factor and 0 if W maps to a point in it; without a
    bidegree it is known only for a point or the whole product.
    """
    g = A.g
    if L.kind != "complex" or L.ambient != g:
        raise ValueError("rotundity expects L as a complex subspace of C^g")
    assumptions = tuple(A.assumptions())
    dims = _w_dominant_dims(W, g)
    table = []
    factors = list(range(1, g + 1))
    for size in range(0, g + 1):
        for S in combinations(factors, size):
            required = g - size
            dim_pL = L.project_deleting({j - 1 for j in S})
            dim_pW = _projected_w_dim(W, dims, S, g)
            if dim_pW is None:
                return Verdict(None, None,
                               {"reason": "cannot bound the projected dimension of W",
                                "subproduct": list(S)},
                               assumptions)
            achieved = dim_pL + dim_pW
            table.append({"quotient_of": list(S), "required": required,
                          "dim_pL": dim_pL, "dim_pW": dim_pW})
            if achieved < required:
                return Verdict(False,
                               f"projection to the quotient by factors {list(S)} "
                               f"drops to dimension {achieved} < {required}",
                               {"subproduct": list(S), "required": required,
                                "achieved": achieved, "table": table},
                               assumptions)
    return Verdict(True, None, {"table": table}, assumptions)


def _projected_w_dim(W: SubvarietyData, dims, S: tuple[int, ...], g: int) -> int | None:
    size = len(S)
    if size == 0:
        return W.dim
    if size == g:
        return 0
    if dims is not None:
        # two factors: W covers the one that remains or maps it to a point
        (j,) = [j for j in range(1, g + 1) if j not in S]
        return min(W.dim, dims[j - 1])
    if W.dim == 0:
        return 0
    if W.dim == g:
        return g - size
    return None


@dataclass(frozen=True)
class PairVerdict:
    free: Verdict
    rotund: Verdict

    @property
    def certified_ready(self) -> bool:
        return self.free.ok is True and self.rotund.ok is True

    @property
    def indeterminate(self) -> bool:
        return self.free.ok is None or self.rotund.ok is None


def check_pair(L: ExactSubspace, W: SubvarietyData, A: ProductVariety) -> PairVerdict:
    return PairVerdict(free=check_free(L, W, A), rotund=check_rotund(L, W, A))


def reduce_L(L: ExactSubspace, W: SubvarietyData, A: ProductVariety,
             seed: int = 0) -> ExactSubspace:
    """Cut L by random rational hyperplanes until dim L + dim W = g.

    Each cut intersects L with the kernel of a random small-integer rational
    covector on C^g, keeping only cuts that preserve freeness and rotundity.
    Raises if the pair is not free and rotund to begin with, or if 200 tries
    run out.
    """
    import random

    from .multiquad import ComplexMQ

    g = A.g
    verdicts = check_pair(L, W, A)
    if not verdicts.certified_ready:
        raise IndeterminateError("reduce_L needs a free and rotund pair")
    rng = random.Random(seed)
    current = L
    tries = 0
    while current.dim + W.dim > g:
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
        v2 = check_pair(candidate, W, A)
        if v2.certified_ready:
            current = candidate
    return current
