import random
from fractions import Fraction

import numpy as np
import pytest

from eac.exactlinalg import (hermite_normal_form, integer_kernel,
                             primitive_integer_covector, rank_exact,
                             right_nullspace, rref)
from eac.multiquad import ComplexMQ, MultiQuadElem


def random_rational_matrix(rng, m, n, den=7):
    return [[Fraction(rng.randint(-6, 6), rng.randint(1, den)) for _ in range(n)]
            for _ in range(m)]


def test_rank_matches_numpy_on_random_matrices():
    rng = random.Random(11)
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        M = random_rational_matrix(rng, m, n)
        got = rank_exact(M)
        want = np.linalg.matrix_rank(np.array(M, dtype=float), tol=1e-9)
        assert got == want


def test_rref_shape_and_idempotence():
    rng = random.Random(3)
    for _ in range(20):
        M = random_rational_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        R, pivots = rref(M)
        assert len(R) == len(pivots) == rank_exact(M)
        for i, p in enumerate(pivots):
            assert R[i][p] == 1
            for k in range(len(R)):
                if k != i:
                    assert R[k][p] == 0
        R2, pivots2 = rref(R)
        assert R2 == R and pivots2 == pivots


def test_nullspace_annihilates_and_has_right_dimension():
    rng = random.Random(5)
    for _ in range(30):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        M = random_rational_matrix(rng, m, n)
        ns = right_nullspace(M, ncols=n)
        assert len(ns) == n - rank_exact(M)
        for v in ns:
            for row in M:
                assert sum(a * b for a, b in zip(row, v)) == 0
        if ns:
            assert rank_exact(ns) == len(ns)


def test_nullspace_of_empty_matrix_is_identity():
    ns = right_nullspace([], ncols=3)
    assert ns == [[1, 0, 0], [0, 1, 0], [0, 0, 1]] or len(ns) == 3


def test_primitive_integer_covector_pinned():
    assert primitive_integer_covector(
        [Fraction(2, 3), Fraction(-1, 3), Fraction(0), Fraction(0)]) == [2, -1, 0, 0]
    assert primitive_integer_covector([Fraction(-4), Fraction(6)]) == [2, -3]
    assert primitive_integer_covector([Fraction(0), Fraction(0, 5), Fraction(-7)]) == [0, 0, 1]


def test_primitive_integer_covector_normalization():
    rng = random.Random(21)
    for _ in range(30):
        v = [Fraction(rng.randint(-8, 8), rng.randint(1, 9)) for _ in range(4)]
        if all(x == 0 for x in v):
            continue
        w = primitive_integer_covector(v)
        nz = [x for x in w if x != 0]
        assert nz and nz[0] > 0
        from math import gcd
        g = 0
        for x in w:
            g = gcd(g, abs(x))
        assert g == 1
        # parallel to the input
        ratios = {Fraction(a) / b for a, b in zip(w, v) if b != 0}
        assert len(ratios) == 1


def test_exact_arithmetic_over_multiquad_entries():
    s2 = MultiQuadElem.sqrt_of(2)
    # rank 1: second row is sqrt(2) times the first
    M = [[MultiQuadElem.from_rational(1), s2],
         [s2, MultiQuadElem.from_rational(2)]]
    assert rank_exact(M) == 1
    ns = right_nullspace(M)
    assert len(ns) == 1
    v = ns[0]
    for row in M:
        acc = MultiQuadElem()
        for a, b in zip(row, v):
            acc = acc + a * b
        assert acc.is_zero()


def test_rank_two_realified_diagonal_rows():
    # realified rows of the diagonal line in the sqrt(2), sqrt(5) product:
    # (1, 0, 1, 0) and (0, sqrt(2), 0, sqrt(5)) are independent
    s2 = MultiQuadElem.sqrt_of(2)
    s5 = MultiQuadElem.sqrt_of(5)
    one = MultiQuadElem.one()
    zero = MultiQuadElem()
    M = [[one, zero, one, zero], [zero, s2, zero, s5]]
    assert rank_exact(M) == 2
    assert len(right_nullspace(M)) == 2


def test_hermite_normal_form_is_canonical_per_lattice():
    # (2, 0), (0, 4), (1, 1) and (1, 1), (0, 2) generate the same lattice
    assert hermite_normal_form([[2, 0], [0, 4], [1, 1]]) == [[1, 1], [0, 2]]
    assert hermite_normal_form([[-1, -1], [1, 3]]) == [[1, 1], [0, 2]]
    assert hermite_normal_form([[4, 6]]) == [[4, 6]]
    assert hermite_normal_form([[0, -3], [0, 6]]) == [[0, 3]]
    assert hermite_normal_form([[0, 0]]) == []
    assert hermite_normal_form([]) == []
    rng = random.Random(5)
    for _ in range(30):
        rows = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(rng.randint(1, 4))]
        h = hermite_normal_form(rows)
        # same lattice: a unimodular shuffle of the generators gives the same form
        mixed = [list(r) for r in rows]
        for _ in range(5):
            i, j = rng.sample(range(len(mixed)), 2) if len(mixed) > 1 else (0, 0)
            if i != j:
                k = rng.randint(-3, 3)
                mixed[i] = [a + k * b for a, b in zip(mixed[i], mixed[j])]
        assert hermite_normal_form(mixed[::-1]) == h
        assert len(h) == rank_exact([[Fraction(x) for x in r] for r in rows] or [[0]])
        for r, row in enumerate(h):
            c = next(j for j, x in enumerate(row) if x)
            assert row[c] > 0
            assert all(h[i][c] == 0 for i in range(r + 1, len(h)))
            assert all(0 <= h[i][c] < row[c] for i in range(r))


def test_integer_kernel_is_saturated():
    # 2x = 3y has the integer points Z(3, 2), not only multiples of a scaled vector
    assert integer_kernel([[Fraction(2), Fraction(-3)]], 2) == [[3, 2]]
    assert integer_kernel([[Fraction(1, 2), Fraction(-1, 3)]], 2) == [[2, 3]]
    assert integer_kernel([], 2) == [[1, 0], [0, 1]]
    assert integer_kernel([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]], 2) == []
    rng = random.Random(9)
    for _ in range(20):
        M = random_rational_matrix(rng, rng.randint(1, 3), 4)
        K = integer_kernel(M, 4)
        assert len(K) == 4 - rank_exact(M)
        assert hermite_normal_form(K) == K
        for x in K:
            assert all(sum(a * b for a, b in zip(row, x)) == 0 for row in M)
        # saturated: a rational kernel vector scaled to integers lies in span_Z K
        for v in right_nullspace(M, ncols=4):
            w = primitive_integer_covector(v)
            assert hermite_normal_form(K + [w]) == K


def test_rref_pivot_rows_with_zeros_on_both_sides():
    # the second pivot row, (0, 1, 0, 2, 0, 3), is zero left and right of its
    # pivot where the first row is not; the reduction is worked by hand
    M = [[0, 2, 0, 4, 0, 6],
         [0, 0, 3, 0, 0, 3],
         [1, 1, 7, 0, 9, 0],
         [0, 0, 0, 0, 5, 10]]
    want = [[1, 0, 0, -2, 0, -28],
            [0, 1, 0, 2, 0, 3],
            [0, 0, 1, 0, 0, 1],
            [0, 0, 0, 0, 1, 2]]
    R, pivots = rref([[Fraction(x) for x in r] for r in M])
    assert R == want and pivots == [0, 1, 2, 4]
    assert all(type(x) is Fraction for r in R for x in r)
    # scaling rows by nonzero field elements leaves the reduced form unchanged
    s = MultiQuadElem.sqrt_of(2) + 1
    for scale in (s, ComplexMQ(s, MultiQuadElem.sqrt_of(3))):
        R, pivots = rref([[scale * k * x for x in r] for k, r in enumerate(M, 1)])
        assert R == want and pivots == [0, 1, 2, 4]
