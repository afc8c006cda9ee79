from fractions import Fraction

import pytest

from eac.hull import (complexification, hull_chain, kernel_lattice,
                      rational_component_rows, rational_hull)
from eac.multiquad import MultiQuadElem
from eac.variety import ExactSubspace


def test_component_rows_split_by_radicand():
    s2 = MultiQuadElem.sqrt_of(2)
    v = [MultiQuadElem.from_rational(1) + s2, MultiQuadElem.from_rational(3)]
    rows = rational_component_rows([v])
    assert rows == [[Fraction(1), Fraction(3)], [Fraction(1), Fraction(0)]]


def test_diagonal_hull_is_re_equal_hyperplane(A2, diagonal_line):
    # tau_1 = i sqrt(2) and tau_2 = i sqrt(5) share no rational relation in
    # the b-coordinates, so only Re z_1 = Re z_2 survives
    h = rational_hull(diagonal_line, A2)
    assert h.dim == 3
    assert h.codim == 1
    assert h.equations == ((1, 0, -1, 0),)
    one = MultiQuadElem.one()
    zero = MultiQuadElem()
    for v, inside in (([one, zero, one, zero], True), ([zero, one, zero, zero], True),
                      ([one, zero, zero, zero], False)):
        assert h.T.contains(ExactSubspace("real", (v,), 4)) is inside


def test_rational_slope_hull(A2):
    L = ExactSubspace.complex_span([[1, 2]], 2)
    h = rational_hull(L, A2)
    assert h.dim == 3
    assert h.equations == ((2, 0, -1, 0),)


def test_irrational_slope_hull_is_everything(A2):
    s2 = MultiQuadElem.sqrt_of(2)
    L = ExactSubspace.complex_span([[MultiQuadElem.one(), s2]], 2)
    h = rational_hull(L, A2)
    assert h.dim == 4
    assert h.equations == ()


def test_axis_line_hull_is_factor_tangent(A2):
    L = ExactSubspace.complex_span([[1, 0]], 2)
    h = rational_hull(L, A2)
    assert h.dim == 2
    assert h.equations == ((0, 0, 1, 0), (0, 0, 0, 1))


def test_hull_contains_realification_randomized(A2):
    s2 = MultiQuadElem.sqrt_of(2)
    s3 = MultiQuadElem.sqrt_of(3)
    cases = [
        [[MultiQuadElem.from_rational(2) + s3, MultiQuadElem.one()]],
        [[s2, s3]],
        [[MultiQuadElem.one(), MultiQuadElem.from_rational(Fraction(1, 3))]],
    ]
    for vecs in cases:
        L = ExactSubspace.complex_span(vecs, 2)
        h = rational_hull(L, A2)
        assert h.T.contains(L.realified(A2))
        # minimality: every equation annihilates the realified basis exactly
        for eq in h.equations:
            for v in L.realified(A2).basis:
                acc = MultiQuadElem()
                for c, x in zip(eq, v):
                    acc = acc + Fraction(c) * x
                assert acc.is_zero()


def test_hull_monotone_under_inclusion(A2, diagonal_line):
    full = ExactSubspace.complex_span([[1, 0], [0, 1]], 2)
    h_small = rational_hull(diagonal_line, A2)
    h_big = rational_hull(full, A2)
    assert h_big.T.contains(h_small.T)
    assert h_big.dim == 4


def test_complexification_of_hyperplane_is_full(A2, diagonal_line):
    h = rational_hull(diagonal_line, A2)
    C = complexification(h.T, A2)
    assert C.dim == 2
    full = ExactSubspace.complex_span([[1, 0], [0, 1]], 2)
    assert C.contains(full) and full.contains(C)


def test_complexification_requires_real_input(A2, diagonal_line):
    with pytest.raises(ValueError):
        complexification(diagonal_line, A2)


def test_flagship_chain(A2, diagonal_line):
    c = hull_chain(diagonal_line, A2)
    assert [s.dim for s in c.chain] == [1, 3, 2]
    assert [s.kind for s in c.chain] == ["complex", "real", "complex"]
    assert c.rounds == 1
    assert not c.non_free
    assert c.stable_subspace is None


def test_full_space_chain_is_trivial(A2):
    c = hull_chain(ExactSubspace.complex_span([[1, 0], [0, 1]], 2), A2)
    assert [s.dim for s in c.chain] == [2]
    assert c.rounds == 0
    assert not c.non_free


def test_axis_chain_stabilizes_at_proper_subspace(A2):
    L = ExactSubspace.complex_span([[1, 0]], 2)
    c = hull_chain(L, A2)
    assert c.non_free
    assert c.rounds == 0
    assert [s.dim for s in c.chain] == [1, 2]
    assert c.stable_subspace is not None
    assert c.stable_subspace.contains(L) and L.contains(c.stable_subspace)


def test_chain_dimensions_never_decrease(A2, A3):
    s2 = MultiQuadElem.sqrt_of(2)
    candidates = [
        (A2, [[MultiQuadElem.one(), s2]]),
        (A2, [[1, 3]]),
        (A3, [[1, 1, 1]]),
        (A3, [[1, 1, 0], [0, 0, 1]]),
    ]
    for A, vecs in candidates:
        c = hull_chain(ExactSubspace.complex_span(vecs, A.g), A)
        real_dims = [s.dim * (2 if s.kind == "complex" else 1) for s in c.chain]
        assert real_dims == sorted(real_dims)
        if not c.non_free:
            assert c.chain[-1].dim == A.g


@pytest.mark.parametrize("direction, kernel", [
    ([1, 1], ((1, 0, 1, 0),)),
    ([1, -1], ((1, 0, -1, 0),)),
    ([1, 2], ((1, 0, 2, 0),)),
    ([2, 1], ((2, 0, 1, 0),)),
    ([1, MultiQuadElem.sqrt_of(2)], ()),
    ([1, 0], ((1, 0, 0, 0), (0, 1, 0, 0))),
])
def test_kernel_lattice_of_lines(A2, direction, kernel):
    # Lambda_L = {l v in Z^4}: l = 1 for the rational slopes, since
    # i sqrt(2) Z and i sqrt(5) Z meet only in 0
    L = ExactSubspace.complex_span([direction], 2)
    assert kernel_lattice(L, A2) == kernel
    assert L.realified(A2).contains(ExactSubspace("real", kernel, 4))


def test_kernel_lattice_of_full_spaces(A1, A2):
    assert kernel_lattice(ExactSubspace.complex_span([[1]], 1), A1) == ((1, 0), (0, 1))
    assert kernel_lattice(ExactSubspace.complex_span([[1, 0], [0, 1]], 2), A2) == tuple(
        tuple(int(i == j) for j in range(4)) for i in range(4))
    with pytest.raises(ValueError):
        kernel_lattice(rational_hull(ExactSubspace.complex_span([[1, 0], [0, 1]], 2), A2).T, A2)
