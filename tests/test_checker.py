import pytest

from eac.checker import (SubvarietyData, Verdict, check_free, check_pair,
                         check_rotund, reduce_L)
from eac.variety import ExactSubspace


W22 = SubvarietyData(bidegree=(2, 2))


def test_flagship_pair_is_free_and_rotund(A2, diagonal_line):
    v = check_pair(diagonal_line, W22, A2)
    assert v.free.ok is True
    assert v.rotund.ok is True
    assert v.certified_ready
    assert v.free.witness is None and v.rotund.witness is None


def test_axis_line_fails_freeness_with_witness(A2):
    L = ExactSubspace.complex_span([[1, 0]], 2)
    v = check_free(L, W22, A2)
    assert v.ok is False
    assert v.witness == "L lies in the subproduct of factors [1]"


def test_fiber_hypersurface_fails_freeness(A2, diagonal_line):
    # bidegree (2, 0): no roots move in the second coordinate, so W is a
    # union of vertical translates
    W = SubvarietyData(bidegree=(2, 0))
    v = check_free(diagonal_line, W, A2)
    assert v.ok is False
    assert v.witness == "W is a union of translates of factor 2"
    W = SubvarietyData(bidegree=(0, 2))
    v = check_free(diagonal_line, W, A2)
    assert v.ok is False and "factor 1" in v.witness


def test_zero_subspace_is_not_free(A2):
    L = ExactSubspace("complex", (), 2)
    v = check_free(L, W22, A2)
    assert v.ok is False
    assert "zero subspace" in v.witness


def test_point_w_is_free_but_not_rotund_with_zero_l(A1):
    # on one curve W of degree 2 is two points; with L = 0 the quotient by
    # nothing needs dim 1 and gets 0
    W = SubvarietyData(bidegree=(2,))
    L = ExactSubspace("complex", (), 1)
    assert check_free(L, W, A1).ok is True
    r = check_rotund(L, W, A1)
    assert r.ok is False
    assert r.witness == "projection to the quotient by factors [] drops to dimension 0 < 1"


def test_rotund_witness_names_each_quotient(A2, diagonal_line):
    assert check_rotund(diagonal_line, W22, A2) == Verdict(True, None)
    # every quotient but the point can be the one that drops: with nothing
    # deleted a zero L leaves W's dimension 1 < 2; deleting factor k leaves
    # L's image and W's, which is 0 when W misses the fibers of factor k
    zero = ExactSubspace("complex", (), 2)
    cases = [(zero, W22, "[] drops to dimension 1 < 2"),
             (ExactSubspace.complex_span([[1, 0]], 2), SubvarietyData(bidegree=(0, 2)),
              "[1] drops to dimension 0 < 1"),
             (ExactSubspace.complex_span([[0, 1]], 2), SubvarietyData(bidegree=(2, 0)),
              "[2] drops to dimension 0 < 1")]
    for L, W, tail in cases:
        r = check_rotund(L, W, A2)
        assert r.ok is False
        assert r.witness == "projection to the quotient by factors " + tail


def test_rotundity_fails_when_projection_collapses(A2):
    # L along the first axis and W a union of horizontal translates: the
    # quotient by factor 1 sees dimension 0 from both sides
    L = ExactSubspace.complex_span([[1, 0]], 2)
    W = SubvarietyData(bidegree=(0, 2))
    r = check_rotund(L, W, A2)
    assert r.ok is False
    assert "quotient by factors [1]" in r.witness
    # the same W with a vertical-fiber class is rotund: the quotient by
    # factor 1 is covered by W itself
    assert check_rotund(L, SubvarietyData(bidegree=(2, 0)), A2).ok is True


def test_single_factor_freeness_is_vacuous(A1):
    L = ExactSubspace.complex_span([[1]], 1)
    W = SubvarietyData(bidegree=(2,))
    assert check_free(L, W, A1) == Verdict(True, None)
    assert check_rotund(L, W, A1).ok is True


def test_subvariety_data_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        SubvarietyData(bidegree=(-1, 2))
    assert SubvarietyData(bidegree=[2, 3]).bidegree == (2, 3)


def test_reduce_l_requires_free_rotund_pair(A2):
    L = ExactSubspace.complex_span([[1, 0]], 2)
    with pytest.raises(ValueError, match="free and rotund pair"):
        reduce_L(L, W22, A2)


def test_reduce_l_cuts_to_complementary_dimension(A2):
    full = ExactSubspace.complex_span([[1, 0], [0, 1]], 2)
    cut = reduce_L(full, W22, A2, seed=4)
    assert cut.dim == 1
    assert check_pair(cut, W22, A2).certified_ready
    # deterministic for a fixed seed
    again = reduce_L(full, W22, A2, seed=4)
    assert cut.contains(again) and again.contains(cut) and cut.basis == again.basis


def test_reduce_l_noop_when_dimensions_already_fit(A2, diagonal_line):
    out = reduce_L(diagonal_line, W22, A2, seed=0)
    assert out is diagonal_line
