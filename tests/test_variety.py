import math
from fractions import Fraction

import numpy as np
import pytest

from eac.multiquad import ComplexMQ, MultiQuadElem
from eac.variety import (EllipticFactor, ExactSubspace, LatticeCoordinateError,
                         ProductVariety)
from eac.weierstrass import ProductEvaluator
from tests.conftest import factor_sqrt


def test_factor_validation_and_tau():
    f = EllipticFactor(Fraction(1, 2), MultiQuadElem.sqrt_of(3))
    assert abs(f.tau - complex(0.5, math.sqrt(3))) < 1e-15
    t = f.tau_exact()
    assert t.re == MultiQuadElem.from_rational(Fraction(1, 2))
    assert t.im == MultiQuadElem.sqrt_of(3)
    with pytest.raises(ValueError):
        EllipticFactor(0, MultiQuadElem.sqrt_of(2, scale=-1))
    with pytest.raises(ValueError):
        ProductVariety(())


def test_assumptions_listing(A2, A1):
    assert any("nonisogenous" in a for a in A2.assumptions())
    assert any("complex multiplication" in a for a in A2.assumptions())
    # a single factor has no isogeny assertion to make
    assert not any("nonisogenous" in a for a in A1.assumptions())


def test_exact_chart_round_trip(A2):
    z = [ComplexMQ(MultiQuadElem.sqrt_of(5), MultiQuadElem.from_rational(Fraction(1, 3))),
         ComplexMQ(Fraction(2), MultiQuadElem.sqrt_of(10))]
    v = A2.to_lattice_exact(z)
    back = A2.from_lattice_exact(v)
    assert all((a - b).is_zero() for a, b in zip(z, back))
    # with tau = i sqrt(5), Im z = sqrt(10) gives b = sqrt(10)/sqrt(5) = sqrt(2)
    assert v[3] == MultiQuadElem.sqrt_of(2)


def test_chart_length_validation(A2):
    with pytest.raises(LatticeCoordinateError):
        A2.to_lattice_exact([ComplexMQ(1)])


SHEARED = ProductVariety((EllipticFactor(Fraction(1, 3), MultiQuadElem.sqrt_of(2)),
                          EllipticFactor(Fraction(-1, 2), MultiQuadElem.sqrt_of(7))))


def test_reduce_lands_in_half_open_box(A2):
    zs = [(5.75 + 3.1j, -2.25 - 7.8j), (-4.1 + 9.3j, 0.2 - 12.6j)]
    for A in (A2, SHEARED):
        rows = ProductEvaluator(A).reduce(zs)
        assert rows.shape == (2, 2)
        for z, r in zip(zs, rows):
            for x, f in zip(r, A.factors):
                b = x.imag / float(f.tau_im)
                a = x.real - b * float(f.tau_re)
                assert -0.5 - 1e-12 <= a < 0.5 and -0.5 - 1e-12 <= b < 0.5
            assert A.torus_distance(z, tuple(r)) < 1e-9


def test_torus_distance_invariances(A2):
    z = (0.21 + 0.4j, -0.3 + 0.9j)
    w = (0.18 - 0.1j, 0.77 + 0.2j)
    assert A2.torus_distance(z, z) < 1e-12
    assert abs(A2.torus_distance(z, w) - A2.torus_distance(w, z)) < 1e-12
    # translation by a lattice vector changes nothing
    tau2 = A2.factors[1].tau
    zt = (z[0] + 3, z[1] - 2 * tau2 + 1)
    assert A2.torus_distance(z, zt) < 1e-9
    assert abs(A2.torus_distance(zt, w) - A2.torus_distance(z, w)) < 1e-9


def test_torus_distances_match_the_scalar_form(A2):
    rng = np.random.default_rng(4)
    for A in (A2, SHEARED):
        pe = ProductEvaluator(A)
        z = tuple(complex(x) for x in rng.normal(size=2) + 1j * rng.normal(size=2))
        others = rng.normal(size=(50, 2)) * 3 + 3j * rng.normal(size=(50, 2))
        others[7] = pe.reduce([z])[0]
        got = pe.torus_distances(z, others)
        want = np.array([A.torus_distance(z, tuple(w)) for w in others])
        assert np.allclose(got, want, rtol=1e-14, atol=1e-15)
        assert got[7] < 1e-12
    assert pe.torus_distances(z, np.empty((0, 2), dtype=complex)).shape == (0,)


# subspaces


def test_complex_span_canonicalizes_basis():
    L1 = ExactSubspace.complex_span([[1, 1]], 2)
    L2 = ExactSubspace.complex_span([[Fraction(2), Fraction(2)]], 2)
    assert L1.contains(L2) and L2.contains(L1)
    assert L1.dim == 1
    assert L1.basis == L2.basis


def test_complex_span_rejects_dependent_vectors():
    with pytest.raises(ValueError):
        ExactSubspace.complex_span([[1, 1], [2, 2]], 2)
    with pytest.raises(ValueError):
        ExactSubspace("real", ((1, 0, 0, 0), (1, 0, 0, 0)), 4)


def test_contains_vector_exact():
    L = ExactSubspace.complex_span([[1, 1]], 2)
    s2 = ComplexMQ(MultiQuadElem.sqrt_of(2))
    assert L.contains(ExactSubspace.complex_span([[s2, s2]], 2))
    assert not L.contains(ExactSubspace.complex_span([[1, 2]], 2))
    F = ExactSubspace.complex_span([[1, 0], [0, 1]], 2)
    assert F.contains(L) and not L.contains(F)


def test_realified_doubles_dimension(A2):
    L = ExactSubspace.complex_span([[1, 1]], 2)
    R = L.realified(A2)
    assert R.kind == "real"
    assert R.dim == 2
    assert R.ambient == 4
    # the real point (1,0,1,0) is z = (1,1), on the diagonal
    one = MultiQuadElem.one()
    zero = MultiQuadElem()
    assert R.contains(ExactSubspace("real", ([one, zero, one, zero],), 4))


def test_complex_equations_annihilate(A3):
    L = ExactSubspace.complex_span([[1, 1, 1], [0, 1, 2]], 3)
    eqs = L.complex_equations()
    assert len(eqs) == 1
    for v in L.basis:
        acc = ComplexMQ(0)
        for c, x in zip(eqs[0], v):
            acc = acc + c * x
        assert acc.is_zero()


def test_project_deleting_coords():
    L = ExactSubspace.complex_span([[1, 1, 0], [0, 0, 1]], 3)
    # deleting the middle coordinate keeps (1,0) and (0,1): rank 2
    assert L.project_deleting({1}) == 2
    # deleting the last kills the second basis vector
    assert L.project_deleting({2}) == 1
    assert L.project_deleting({0, 1, 2}) == 0
