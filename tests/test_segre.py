import numpy as np
import pytest

from eac.segre import SEGRE_DIM, SegrePoint, SegrePolynomial, segre_stack


def test_coordinate_ordering_pinned():
    # wp = (2, 5), wp' = (3, 7) must produce exactly this affine stack
    pt = SegrePoint(wp=(2, 5), wp_prime=(3, 7), at_infinity=(False, False))
    want = [1, 5, 7, 2, 10, 14, 3, 15, 21]
    assert np.allclose(pt.coords(), np.array(want, dtype=complex))
    assert SEGRE_DIM == {1: 3, 2: 9}


def test_single_factor_chart():
    pt = SegrePoint(wp=(4 + 1j,), wp_prime=(-2j,), at_infinity=(False,))
    assert np.allclose(pt.coords(), [1, 4 + 1j, -2j])
    assert pt.g == 1 and pt.finite


def test_coords_raise_at_infinity():
    pt = SegrePoint(wp=(2, 5), wp_prime=(3, 7), at_infinity=(True, False))
    assert not pt.finite
    with pytest.raises(ValueError):
        pt.coords()


def test_segre_products_match_point_coords():
    rng = np.random.default_rng(1)
    p1, q1, p2, q2 = (rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(4))
    stack = segre_stack((p1, p2), (q1, q2), np.ones_like(p1))
    for i in range(4):
        pt = SegrePoint(wp=(p1[i], p2[i]), wp_prime=(q1[i], q2[i]),
                        at_infinity=(False, False))
        got = np.array([row[i] for row in stack])
        assert np.allclose(got, pt.coords())


def test_multiplicative_consistency():
    # Z4 = Z3 * Z1, Z8 = Z6 * Z2 on every finite point
    rng = np.random.default_rng(7)
    for _ in range(10):
        vals = rng.normal(size=4) + 1j * rng.normal(size=4)
        pt = SegrePoint(wp=(vals[0], vals[1]), wp_prime=(vals[2], vals[3]),
                        at_infinity=(False, False))
        c = pt.coords()
        assert abs(c[4] - c[3] * c[1]) < 1e-12
        assert abs(c[5] - c[3] * c[2]) < 1e-12
        assert abs(c[7] - c[6] * c[1]) < 1e-12
        assert abs(c[8] - c[6] * c[2]) < 1e-12
        assert c[0] == 1


def test_linear_polynomial_evaluation():
    # F = Z4 - Z0, the flagship shape wp_1 wp_2 = 1
    F = SegrePolynomial.linear(2, {4: 1, 0: -1})
    pt = SegrePoint(wp=(2, 0.5), wp_prime=(0, 0), at_infinity=(False, False))
    assert abs(F.eval_affine(pt.coords())) < 1e-15
    pt2 = SegrePoint(wp=(2, 2), wp_prime=(0, 0), at_infinity=(False, False))
    assert abs(F.eval_affine(pt2.coords()) - 3) < 1e-15


def test_from_dict_validation():
    with pytest.raises(ValueError):
        SegrePolynomial.from_dict(3, {})
    with pytest.raises(ValueError):
        SegrePolynomial.from_dict(2, {(1, 0, 0): 1.0})  # wrong length
    with pytest.raises(ValueError):
        SegrePolynomial.from_dict(2, {tuple([-1] + [0] * 8): 1.0})
    with pytest.raises(ValueError):
        SegrePolynomial.from_dict(2, {tuple([1] + [0] * 8): 0.0})  # all zero
    with pytest.raises(ValueError):
        SegrePolynomial.linear(2, {9: 1.0})


def test_from_dict_drops_zero_monomials_and_sorts():
    e0 = tuple([1] + [0] * 8)
    e4 = (0, 0, 0, 0, 1, 0, 0, 0, 0)
    F = SegrePolynomial.from_dict(2, {e4: 1.0, e0: -1.0, (0, 1) + (0,) * 7: 0.0})
    assert dict(F.monomials) == {e0: -1.0, e4: 1.0}
    assert [e for e, _ in F.monomials] == sorted([e0, e4])


def test_eval_affine_vectorized_matches_scalar():
    F = SegrePolynomial.linear(2, {4: 1, 0: -1, 2: 3j})
    rng = np.random.default_rng(3)
    p1, q1, p2, q2 = (rng.normal(size=6) + 1j * rng.normal(size=6) for _ in range(4))
    stack = segre_stack((p1, p2), (q1, q2), np.ones_like(p1))
    vec = F.eval_affine(stack)
    for i in range(6):
        pt = SegrePoint(wp=(p1[i], p2[i]), wp_prime=(q1[i], q2[i]),
                        at_infinity=(False, False))
        assert abs(vec[i] - F.eval_affine(pt.coords())) < 1e-12


def test_higher_monomials_evaluate_affinely():
    # Z3^2 * Z1
    e = [0] * 9
    e[3], e[1] = 2, 1
    F = SegrePolynomial.from_dict(2, {tuple(e): 2.0})
    pt = SegrePoint(wp=(3, 5), wp_prime=(0, 0), at_infinity=(False, False))
    assert abs(F.eval_affine(pt.coords()) - 2 * 9 * 5) < 1e-12

