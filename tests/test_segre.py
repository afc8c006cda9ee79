import numpy as np
import pytest

from eac.segre import SEGRE_DIM, SegrePolynomial, segre_stack


def coords(wp, wp_prime):
    return np.array(segre_stack(wp, wp_prime, 1.0), dtype=complex)


def test_coordinate_ordering_pinned():
    # wp = (2, 5), wp' = (3, 7) must produce exactly this affine stack
    want = [1, 5, 7, 2, 10, 14, 3, 15, 21]
    assert np.allclose(coords((2, 5), (3, 7)), np.array(want, dtype=complex))
    assert SEGRE_DIM == {1: 3, 2: 9}


def test_single_factor_chart():
    assert np.allclose(coords((4 + 1j,), (-2j,)), [1, 4 + 1j, -2j])
    with pytest.raises(ValueError, match="one or two factors"):
        segre_stack((1, 2, 3), (4, 5, 6), 1.0)


def test_segre_products_match_point_coords():
    rng = np.random.default_rng(1)
    p1, q1, p2, q2 = (rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(4))
    stack = segre_stack((p1, p2), (q1, q2), np.ones_like(p1))
    for i in range(4):
        got = np.array([row[i] for row in stack])
        assert np.allclose(got, coords((p1[i], p2[i]), (q1[i], q2[i])))


def test_multiplicative_consistency():
    # Z4 = Z3 * Z1, Z8 = Z6 * Z2 on every finite point
    rng = np.random.default_rng(7)
    for _ in range(10):
        vals = rng.normal(size=4) + 1j * rng.normal(size=4)
        c = coords((vals[0], vals[1]), (vals[2], vals[3]))
        assert abs(c[4] - c[3] * c[1]) < 1e-12
        assert abs(c[5] - c[3] * c[2]) < 1e-12
        assert abs(c[7] - c[6] * c[1]) < 1e-12
        assert abs(c[8] - c[6] * c[2]) < 1e-12
        assert c[0] == 1


def test_linear_polynomial_evaluation():
    # F = Z4 - Z0, the flagship shape wp_1 wp_2 = 1
    F = SegrePolynomial.linear(2, {4: 1, 0: -1})
    assert abs(F.eval_affine(coords((2, 0.5), (0, 0)))) < 1e-15
    assert abs(F.eval_affine(coords((2, 2), (0, 0))) - 3) < 1e-15


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
        assert abs(vec[i] - F.eval_affine(coords((p1[i], p2[i]), (q1[i], q2[i])))) < 1e-12


def test_higher_monomials_evaluate_affinely():
    # Z3^2 * Z1
    e = [0] * 9
    e[3], e[1] = 2, 1
    F = SegrePolynomial.from_dict(2, {tuple(e): 2.0})
    assert abs(F.eval_affine(coords((3, 5), (0, 0))) - 2 * 9 * 5) < 1e-12

