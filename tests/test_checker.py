import pytest

from eac.checker import (SubvarietyData, check_free, check_pair, check_rotund,
                         reduce_L)
from eac.variety import ExactSubspace


W22 = SubvarietyData(dim=1, bidegree=(2, 2))


def test_flagship_pair_is_free_and_rotund(A2, diagonal_line):
    v = check_pair(diagonal_line, W22, A2)
    assert v.free.ok is True
    assert v.rotund.ok is True
    assert v.certified_ready
    assert any("nonisogenous" in a for a in v.free.assumptions)


def test_axis_line_fails_freeness_with_witness(A2):
    L = ExactSubspace.complex_span([[1, 0]], 2)
    v = check_free(L, W22, A2)
    assert v.ok is False
    assert "factors [1]" in v.witness
    assert v.detail["side"] == "L"


def test_fiber_hypersurface_fails_freeness(A2, diagonal_line):
    # bidegree (2, 0): no roots move in the second coordinate, so W is a
    # union of vertical translates
    W = SubvarietyData(dim=1, bidegree=(2, 0))
    v = check_free(diagonal_line, W, A2)
    assert v.ok is False
    assert "factor 2" in v.witness
    assert v.detail["side"] == "W"
    W = SubvarietyData(dim=1, bidegree=(0, 2))
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
    W = SubvarietyData(dim=0, bidegree=(2,))
    L = ExactSubspace("complex", (), 1)
    assert check_free(L, W, A1).ok is True
    r = check_rotund(L, W, A1)
    assert r.ok is False
    assert r.detail["required"] == 1 and r.detail["achieved"] == 0


def test_rotund_table_records_all_subproducts(A2, diagonal_line):
    r = check_rotund(diagonal_line, W22, A2)
    assert r.ok is True
    quotients = [tuple(row["quotient_of"]) for row in r.detail["table"]]
    assert quotients == [(), (1,), (2,), (1, 2)]
    for row in r.detail["table"]:
        assert row["dim_pL"] + row["dim_pW"] >= row["required"]


def test_rotundity_fails_when_projection_collapses(A2):
    # L along the first axis and W a union of horizontal translates: the
    # quotient by factor 1 sees dimension 0 from both sides
    L = ExactSubspace.complex_span([[1, 0]], 2)
    W = SubvarietyData(dim=1, bidegree=(0, 2))
    r = check_rotund(L, W, A2)
    assert r.ok is False
    assert r.detail["subproduct"] == [1]
    # the same W with a vertical-fiber class is rotund: the quotient by
    # factor 1 is covered by W itself
    assert check_rotund(L, SubvarietyData(dim=1, bidegree=(2, 0)), A2).ok is True


def test_single_factor_freeness_is_vacuous(A1):
    L = ExactSubspace.complex_span([[1]], 1)
    W = SubvarietyData(dim=0, bidegree=(2,))
    v = check_free(L, W, A1)
    assert v.ok is True
    assert "vacuous" in v.detail["note"]
    assert check_rotund(L, W, A1).ok is True


def test_subvariety_data_validation():
    with pytest.raises(ValueError):
        SubvarietyData(dim=-1)
    with pytest.raises(ValueError):
        SubvarietyData(dim=1, bidegree=(-1, 2))


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
