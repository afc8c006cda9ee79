import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from eac.instance import builtin_instance, catalog_names
from eac.multiquad import MultiQuadElem
from eac.segre import NotAHypersurface, SegrePolynomial, bidegree_of, lattice_invariants
from eac.variety import EllipticFactor, ProductVariety
from eac.weierstrass import (NEAR_POLE, AtInfinity, ContourError, ProductEvaluator,
                             ThetaSeries, WpEvaluator, WpFixed, count_roots_on_fiber,
                             jacobian_probe, point_count_on_curve, reduce_to_fundamental,
                             theta1_logderivs)
from tests.conftest import factor_sqrt
from tests.reference import wp_pair_reference

TAUS = [1j, 0.5 + 0.5j * math.sqrt(3), 1j * math.sqrt(2), 1j * math.sqrt(5),
        0.5 + 1j, 0.3 + 1.1j]


def invariants_brute_force(tau: complex, radius: float = 500.0):
    """Disk-truncated Eisenstein sums, the slow oracle for g2 and g3."""
    nmax = int(radius / tau.imag) + 2
    mmax = int(radius * (1.0 + abs(tau.real))) + 2
    m = np.arange(-mmax, mmax + 1, dtype=float)
    g4 = 0.0 + 0.0j
    g6 = 0.0 + 0.0j
    for n in range(-nmax, nmax + 1):
        w = m + n * tau
        if n == 0:
            w = w[m != 0]
        keep = (w * w.conjugate()).real <= radius * radius
        w4 = w[keep] ** -4
        g4 += np.sum(w4)
        g6 += np.sum(w4 * w[keep] ** -2)
    return 60.0 * g4, 140.0 * g6


@pytest.mark.parametrize("tau", [1j, 1j * math.sqrt(2), 0.5 + 1j])
@pytest.mark.parametrize("backend", ["theta", "lattice-sum"])
def test_invariants_against_disk_oracle(tau, backend):
    g2o, g3o = invariants_brute_force(tau)
    g2, g3 = WpEvaluator(tau, backend=backend).invariants()
    scale = max(abs(g2o), 1.0)
    assert abs(g2 - g2o) < 1e-8 * scale
    assert abs(g3 - g3o) < 1e-8 * max(abs(g3o), 1.0)


@pytest.mark.parametrize("tau, zero", [
    (1j * math.sqrt(2), None), (1j * math.sqrt(5), None), (1j * math.sqrt(3), None),
    (1j, 1), (0.5 + 0.5j * math.sqrt(3), 0), (0.5 + 1j * math.sqrt(2), None), (0.3 + 1.1j, None)])
def test_one_eisenstein_series_serves_both_layers(tau, zero):
    # the theta backend reads the exact layer's series; the cosecant rows are
    # its oracle to 1e-12 relative. g3 = 0 at i and g2 = 0 at rho cancel terms
    # of the size of the series' leading constants, so there the bound is
    # 1e-12 of that constant
    g = lattice_invariants(tau)
    assert WpEvaluator(tau).invariants() == g
    rows = WpEvaluator(tau, backend="lattice-sum").invariants()
    for k, lead in enumerate((4.0 * math.pi ** 4 / 3.0, 8.0 * math.pi ** 6 / 27.0)):
        scale = lead if k == zero else abs(rows[k])
        assert abs(g[k] - rows[k]) <= 1e-12 * scale, (k, g[k], rows[k])
        if k == zero:
            assert abs(g[k]) <= 1e-12 * lead


def test_lemniscatic_and_hexagonal_invariants():
    # square lattice: g3 = 0 and g2 = Gamma(1/4)^8 / (16 pi^2)
    g2, g3 = WpEvaluator(1j).invariants()
    want = math.gamma(0.25) ** 8 / (16.0 * math.pi ** 2)
    assert abs(g2 - want) < 1e-10 * want
    assert abs(g3) < 1e-10
    # hexagonal lattice: g2 = 0
    g2h, g3h = WpEvaluator(0.5 + 0.5j * math.sqrt(3)).invariants()
    assert abs(g2h) < 1e-10
    assert abs(g3h.imag) < 1e-10 and g3h.real > 0


def test_tau_validation_and_backend_names():
    with pytest.raises(ValueError):
        WpEvaluator(1.0 - 1j)
    with pytest.raises(ValueError):
        WpEvaluator(1j, backend="mystery")


@pytest.mark.parametrize("tau_im", [120.0, 1000.0])
def test_underflowing_q_keeps_the_shortest_series(tau_im):
    # from Im tau = 3.83 the doubles' theta_1 series keeps one term, and
    # past 237 p = exp(i pi tau) is 0.0 in doubles; wp then reduces to its
    # p = 0 limit pi^2 (1/sin^2(pi z) - 1/3)
    ev = WpEvaluator(1j * tau_im)
    assert ev.theta_terms == 1
    z = 0.3 + 0.2j
    want = math.pi ** 2 * (1 / cmath.sin(math.pi * z) ** 2 - 1 / 3)
    assert abs(ev.wp(z) - want) <= 1e-12 * abs(want)


def test_large_imaginary_parts_stay_finite():
    # at tau = 1000i reduced points reach Im z = 500, where exp(2 pi i z)
    # underflows and, past Im z = 226, V = exp(i pi z) or 1/V overflows;
    # wp and wp' are those of pi^2 (csc^2(pi z) - 1/3), on the grid and as scalars
    from mpmath import mp

    ev = WpEvaluator(1000j)
    zs = [0.3 + 117j, 0.3 + 119j, 0.3 + 230j, 0.3 - 230j, 0.3 + 300j, 0.3 - 300j]
    grid = ev.wp_pair_grid(np.array(zs))
    for k, z in enumerate(zs):
        with mp.workdps(30):
            w = mp.pi * mp.mpc(z.real, z.imag)
            want = (mp.pi ** 2 * (mp.csc(w) ** 2 - mp.mpf(1) / 3),
                    -2 * mp.pi ** 3 * mp.csc(w) ** 2 * mp.cot(w))
        for got in ((ev.wp(z), ev.wp_prime(z)), (grid[0][k], grid[1][k])):
            assert all(cmath.isfinite(x) for x in got)
            for a, b in zip(got, want):
                assert abs(a - complex(b)) <= 1e-15 * max(1.0, abs(complex(b)))


@pytest.mark.parametrize("tau", TAUS)
def test_parity_periodicity_ode(tau):
    rng = random.Random(hash(("lattice", round(tau.real, 6))) & 0xFFFF)
    for backend in ("theta", "lattice-sum"):
        ev = WpEvaluator(tau, backend=backend)
        g2, g3 = ev.invariants()
        for _ in range(25):
            z = complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.45, 0.45) * tau.imag)
            if abs(z) < 0.05:
                continue
            p = ev.wp(z)
            pp = ev.wp_prime(z)
            scale = max(abs(p), 1.0)
            assert abs(ev.wp(-z) - p) < 1e-10 * scale
            assert abs(ev.wp_prime(-z) + pp) < 1e-10 * max(abs(pp), 1.0)
            assert abs(ev.wp(z + 1) - p) < 1e-10 * scale
            assert abs(ev.wp(z + tau) - p) < 1e-10 * scale
            lhs = pp * pp
            rhs = 4.0 * p ** 3 - g2 * p - g3
            assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), abs(rhs), 1.0)


def test_backends_agree_pointwise():
    rng = random.Random(5)
    for tau in (1j * math.sqrt(2), 0.5 + 1j):
        a = WpEvaluator(tau, backend="theta")
        b = WpEvaluator(tau, backend="lattice-sum")
        for _ in range(50):
            z = complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.45, 0.45) * tau.imag)
            if abs(z) < 0.03:
                continue
            pa, pb = a.wp(z), b.wp(z)
            assert abs(pa - pb) < 1e-9 * max(abs(pa), 1.0)
            qa, qb = a.wp_prime(z), b.wp_prime(z)
            assert abs(qa - qb) < 1e-9 * max(abs(qa), 1.0)


def reduced_probe_points(tau, rng):
    """Random reduced points, points near the pole at 0, points with |Im z|
    close to Im tau / 2, where V or 1/V is largest, and the half periods,
    where wp' vanishes."""
    zs = [rng.uniform(-0.5, 0.5) + rng.uniform(-0.5, 0.5) * tau for _ in range(30)]
    zs += [r * cmath.exp(2j * math.pi * rng.random()) for r in (1e-2, 1e-3, 1e-4, 1e-8)]
    zs += [rng.uniform(-0.5, 0.5) + sign * 0.499 * tau for sign in (1, -1) for _ in range(5)]
    return zs + [0.5, tau / 2, (1 + tau) / 2]


@pytest.mark.parametrize("tau", [1j * math.sqrt(2), 1j * math.sqrt(5), 0.5 + 0.866j, 1j, 0.3j])
def test_fused_theta_sums_match_the_lattice_sum_backend(tau):
    # and the 60-digit q-series, on the same scale
    from mpmath import mp

    theta = WpEvaluator(tau)
    rows = WpEvaluator(tau, backend="lattice-sum")
    zs = reduced_probe_points(tau, random.Random(11))
    grid_wp, grid_wpp = theta.wp_pair_grid(np.array(zs))
    for z, gp, gpp in zip(zs, grid_wp, grid_wpp):
        with mp.workdps(60):
            reference = [complex(x) for x in wp_pair_reference(tau, z)]
        for want in (rows.wp_pair(z), reference):
            for got in (theta.wp_pair(z), (gp, gpp)):
                for a, b in zip(got, want):
                    assert abs(a - b) <= 1e-12 * max(abs(b), 1.0)


class MpSeries(ThetaSeries):
    """The 30-digit series' terms and constants, summed in mpmath at 60 digits."""

    one = 1

    def __init__(self, tau):
        from mpmath import mp

        self.tau = tau
        with mp.workdps(60):
            self._lattice(mp.expjpi(mp.mpc(tau.real, tau.imag)), +mp.pi, 1e-30)

    def _exponentials(self, z):
        from mpmath import mp

        with mp.workdps(60):
            w = [mp.mpc(x) for x in reduce_to_fundamental(np.array(z), self.tau)]
            v = np.array([mp.expjpi(x) for x in w], dtype=object)
            return v, 1 / v, np.array([2j * mp.sinpi(x) for x in w], dtype=object), None


@pytest.mark.parametrize("tau", [0.3j, 1j, 1j * math.sqrt(2), 0.5 + 0.866j])
def test_verification_series_length_reaches_30_digits(tau):
    # the theta_1 series to the 30-digit term count, summed at 60 digits, is
    # held to the q-series on the scale of wp and wp' themselves
    from mpmath import mp

    zs = reduced_probe_points(tau, random.Random(13))
    series = MpSeries(tau)
    assert series.theta_terms == WpFixed(tau).theta_terms
    with mp.workdps(60):
        got = series.wp_pair_grid(zs)
        for k, z in enumerate(zs):
            for a, b in zip((got[0][k], got[1][k]), wp_pair_reference(tau, z)):
                assert abs(a - b) <= 1e-30 * max(1, abs(b)), (tau, z)


@pytest.mark.parametrize("tau", [1j * math.sqrt(2), 0.5 + 0.866j, 0.3j])
def test_theta1_logderivs_match_jacobi_theta(tau):
    # the second and third logarithmic derivatives of theta_1 at pi z
    # against mpmath's jtheta and its derivatives
    from mpmath import mp

    zs = reduced_probe_points(tau, random.Random(17))
    series = MpSeries(tau)
    with mp.workdps(60):
        v, vi, d, _ = series._exponentials(zs)
        l2, l3 = theta1_logderivs(v, vi, d, series.p, series.rho, 1)
        for k, z in enumerate(zs):
            w, p = mp.pi * mp.mpc(z.real, z.imag), series.p
            t1, t2, t3 = (mp.jtheta(1, w, p, j) / mp.jtheta(1, w, p) for j in (1, 2, 3))
            for a, b in ((l2[k], t2 - t1 ** 2), (l3[k], t3 - 3 * t1 * t2 + 2 * t1 ** 3)):
                assert abs(a - b) <= 1e-30 * max(1, abs(b)), (tau, z)


@pytest.mark.parametrize("tau", [1j * math.sqrt(2), 1j * math.sqrt(5), 0.5 + 0.866j])
def test_theta_backend_keeps_relative_accuracy_near_a_pole(tau):
    # V - 1/V cancels for small z; at 50 digits the q-series is the reference
    from mpmath import mp

    ev = WpEvaluator(tau)
    zs = [r * cmath.exp(1j * t) for r in (1e-4, 1e-6, 1e-8) for t in (0.3, 1.9, -2.6)]
    grid = ev.wp_pair_grid(np.array(zs))
    with mp.workdps(50):
        for k, z in enumerate(zs):
            want = wp_pair_reference(tau, z, 50)
            for got in (ev.wp_pair(z), (grid[0][k], grid[1][k])):
                for a, b in zip(got, want):
                    assert abs(a - b) <= 1e-14 * abs(b), (z, a, b)


@pytest.mark.parametrize("tau", [1j * math.sqrt(2), 0.5 + 0.866j])
def test_hoisted_constant_leaves_values_away_from_poles_bit_identical(tau):
    # the evaluator takes c0 and the rho_m once per lattice; away from the
    # poles its values must be theta1_logderivs' to the last bit, on grids
    # and scalars alike (a scalar is read on a one-element grid), and c0 is
    # the q-series' constant (2 pi i)^2 (1/12 - sum 2 q^n/(1 - q^n)^2)
    ev = WpEvaluator(tau)
    rng = np.random.default_rng(3)
    z = rng.uniform(-2, 2, 400) + 1j * rng.uniform(-2, 2, 400)
    zr = ev.reduce(z)
    z, zr = z[np.abs(zr) >= NEAR_POLE], zr[np.abs(zr) >= NEAR_POLE]

    def plain(zr):
        v = np.exp(1j * math.pi * zr)
        l2, l3 = theta1_logderivs(v, 1.0 / v, v - 1.0 / v, ev.p, ev.rho, 1.0)
        return ev.c0 - math.pi * math.pi * l2, -(math.pi * math.pi * math.pi) * l3

    wp, wpp = ev.wp_pair_grid(z)
    want = plain(zr)
    assert np.array_equal(wp, want[0]) and np.array_equal(wpp, want[1])
    q = cmath.exp(2j * math.pi * tau)
    const = 1 / 12 - sum(2 * q ** n / (1 - q ** n) ** 2 for n in range(1, 40))
    assert abs(ev.c0 - (2j * math.pi) ** 2 * const) <= 1e-14 * abs(ev.c0)
    for k in range(0, len(z), 37):
        wp, wpp = plain(zr[k:k + 1])
        assert ev.wp_pair(z[k]) == (wp[0], wpp[0])


def test_at_infinity_raised_on_lattice_points():
    ev = WpEvaluator(1j * math.sqrt(2))
    for z in (0, 1, 1j * math.sqrt(2), 3 + 2j * math.sqrt(2)):
        with pytest.raises(AtInfinity):
            ev.wp(z)
        with pytest.raises(AtInfinity):
            ev.wp_prime(z)


def test_reduce_to_fundamental():
    tau = 0.5 + 1j
    rng = random.Random(2)
    for _ in range(40):
        z = complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
        r = reduce_to_fundamental(z, tau)
        # difference is a lattice point
        diff = z - r
        b = diff.imag / tau.imag
        a = diff.real - b * tau.real
        assert abs(a - round(a)) < 1e-9 and abs(b - round(b)) < 1e-9
        # representative stays within one cell of the origin
        bb = r.imag / tau.imag
        aa = r.real - bb * tau.real
        assert abs(aa) <= 0.5 + 1e-9 and abs(bb) <= 0.5 + 1e-9


def test_wp_grid_matches_scalar_and_flags_poles():
    ev = WpEvaluator(1j * math.sqrt(2))
    zs = np.array([0.3 + 0.4j, -0.2 + 0.9j, 0.0, 1.0, 0.25 + 0.1j])
    grid = ev.wp_grid(zs)
    gridp = ev.wp_prime_grid(zs)
    for i, z in enumerate(zs):
        if z in (0.0, 1.0):
            assert not np.isfinite(grid[i])
            assert not np.isfinite(gridp[i])
        else:
            assert abs(grid[i] - ev.wp(z)) < 1e-10 * max(abs(grid[i]), 1.0)
            assert abs(gridp[i] - ev.wp_prime(z)) < 1e-10 * max(abs(gridp[i]), 1.0)


def test_grid_paths_refuse_the_lattice_sum_backend():
    ev = WpEvaluator(1j * math.sqrt(2), backend="lattice-sum")
    zs = np.array([0.3 + 0.4j, 0.25 + 0.1j])
    for grid in (ev.wp_pair_grid, ev.wp_grid, ev.wp_prime_grid):
        with pytest.raises(ValueError, match="theta"):
            grid(zs)


def test_product_evaluator_segre_and_poles(A2, pe2):
    # F = wp_1 wp_2 - 1 + 2 wp_1', from the per-factor values; a pole names its factor
    F = SegrePolynomial.linear(2, {4: 1, 0: -1, 6: 2})
    z = (0.3 + 0.2j, 0.1 + 0.5j)
    (p1, q1), (p2, _) = (ev.wp_pair(zj) for ev, zj in zip(pe2.evals, z))
    want = p1 * p2 - 1 + 2 * q1
    assert abs(pe2.eval_polynomial(F, z) - want) < 1e-12 * abs(want)
    for z_pole, factor in (((0.0, 0.1 + 0.5j), 0), ((0.3 + 0.2j, 1.0), 1),
                           ((1.0, 1j * math.sqrt(5)), 0)):
        with pytest.raises(AtInfinity) as pole:
            pe2.eval_polynomial(F, z_pole)
        assert pole.value.factor == factor
    with pytest.raises(ValueError):
        pe2.eval_polynomial(F, (0.3 + 0.2j,))


# contour counting


def flagship_poly():
    return SegrePolynomial.linear(2, {4: 1, 0: -1})


def test_fiber_counts_flagship(A2, pe2):
    F = flagship_poly()
    base = 0.27 + 0.33j * math.sqrt(5)
    assert count_roots_on_fiber(F, 0, base, A2, pe2) == 2
    base1 = 0.31 + 0.41j * math.sqrt(2)
    assert count_roots_on_fiber(F, 1, base1, A2, pe2) == 2


def test_fiber_counts_jitter_invariant(A2, pe2):
    # the count is a topological degree; moving the contour cannot change it
    F = flagship_poly()
    base = 0.27 + 0.33j * math.sqrt(5)
    jitters = [(0.23, 0.31), (0.11, 0.47), (0.37, 0.13), (0.43, 0.29), (0.19, 0.41)]
    counts = {count_roots_on_fiber(F, 0, base, A2, pe2, jitter=j) for j in jitters}
    assert counts == {2}


def test_fiber_count_wp_minus_c_and_derivative(A2, pe2):
    # wp_1 - c has two roots per cell, wp_1' - c has three
    c = 1.7 - 0.4j
    F2 = SegrePolynomial.linear(2, {3: 1, 0: -c})
    F3 = SegrePolynomial.linear(2, {6: 1, 0: -c})
    base = 0.29 + 0.37j * math.sqrt(5)
    for jit in [(0.23, 0.31), (0.41, 0.17)]:
        assert count_roots_on_fiber(F2, 0, base, A2, pe2, jitter=jit) == 2
        assert count_roots_on_fiber(F3, 0, base, A2, pe2, jitter=jit) == 3


def test_double_root_counted_with_multiplicity(A2, pe2):
    # wp - e1 vanishes to second order at the half period
    ev = pe2.evals[0]
    e1 = ev.wp(0.5)
    F = SegrePolynomial.linear(2, {3: 1, 0: -e1})
    base = 0.27 + 0.33j * math.sqrt(5)
    assert count_roots_on_fiber(F, 0, base, A2, pe2) == 2


def test_degenerate_fiber_detected(A2, pe2):
    # F depends only on the pinned factor: a generic fiber of factor 1 has no
    # zero, and the one through a zero of F lies in W
    base = 0.27 + 0.33j * math.sqrt(5)
    c = pe2.evals[1].wp(base)
    F = SegrePolynomial.linear(2, {1: 1, 0: -c})
    assert bidegree_of(F, A2) == (0, 2)
    # a constant nonzero restriction has zero roots
    F0 = SegrePolynomial.linear(2, {1: 1, 0: -(c + 50.0)})
    assert count_roots_on_fiber(F0, 0, base, A2, pe2) == 0


def test_bidegree_measurements(A2):
    assert bidegree_of(flagship_poly(), A2) == (2, 2)
    F20 = SegrePolynomial.linear(2, {3: 1, 0: -1.3})
    assert bidegree_of(F20, A2) == (2, 0)
    F03 = SegrePolynomial.linear(2, {2: 1, 0: -0.7})
    assert bidegree_of(F03, A2) == (0, 3)


def test_point_count_on_single_curve(A1):
    pe = ProductEvaluator(A1)
    F2 = SegrePolynomial.linear(1, {1: 1, 0: -2.3})
    assert point_count_on_curve(F2, A1, pe) == 2
    F3 = SegrePolynomial.linear(1, {2: 1, 0: -1.1})
    assert point_count_on_curve(F3, A1, pe) == 3
    with pytest.raises(ValueError):
        point_count_on_curve(F2, ProductVariety((factor_sqrt(2), factor_sqrt(5))))


def test_counts_keep_zeros_near_the_pole(A1, A2):
    # wp = K has its zeros about K^-1/2 from the pole: 0.03 for K = 1000 and
    # 0.058 for K = 300, inside a pole circle of radius 0.06
    assert bidegree_of(SegrePolynomial.linear(2, {4: 1, 0: -1000}), A2) == (2, 2)
    assert bidegree_of(SegrePolynomial.linear(2, {3: 1, 0: -1000}), A2) == (2, 0)
    assert point_count_on_curve(SegrePolynomial.linear(1, {1: 1, 0: -300}), A1) == 2


def test_unresolved_count_raises(A1, monkeypatch):
    from eac import solver

    monkeypatch.setattr(solver, "cell_seeds", lambda system, cells: [(None, [])])
    with pytest.raises(ContourError):
        point_count_on_curve(SegrePolynomial.linear(1, {1: 1, 0: -2.3}), A1)


# the exponent rule against the contour oracle


def contour_bidegree(F, A, pe):
    """Both fiber counts at a generic point of the other factor, the first jitter that resolves."""
    out = []
    for j in (0, 1):
        fixed = 0.37 + 0.29 * pe.evals[1 - j].tau
        for jitter in ((0.23, 0.31), (0.41, 0.17), (0.13, 0.47)):
            try:
                out.append(count_roots_on_fiber(F, j, fixed, A, pe, jitter=jitter))
                break
            except ContourError:
                continue
    return tuple(out)


@pytest.mark.parametrize("name", catalog_names())
def test_bidegree_rule_matches_the_contour_oracle_on_the_catalog(name, pe2):
    inst = builtin_instance(name)
    assert bidegree_of(inst.F, inst.A) == contour_bidegree(inst.F, inst.A, pe2) == inst.W.bidegree


def test_bidegree_rule_matches_the_contour_oracle_on_random_polynomials(A2, pe2):
    rng = random.Random(5)
    # wp_1'^2 - 4 wp_1^3 + wp_2: the top term of factor 1 cancels, wp_1 is left
    polys = [SegrePolynomial.from_dict(2, {(0, 0, 0, 0, 0, 0, 2, 0, 0): 1,
                                           (0, 0, 0, 3, 0, 0, 0, 0, 0): -4,
                                           (0, 1, 0, 0, 0, 0, 0, 0, 0): 1})]
    while len(polys) < 60:
        table = {}
        for _ in range(rng.randint(1, 4)):
            e = [0] * 9
            for _ in range(rng.randint(1, 2)):
                e[rng.randrange(1, 9)] += rng.randint(1, 2)
            table[tuple(e)] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        polys.append(SegrePolynomial.from_dict(2, table))
    # Z2, Z5 and Z8 carry wp_2', Z6, Z7 and Z8 wp_1'
    squares = sum(any(e[2] + e[5] + e[8] > 1 or e[6] + e[7] + e[8] > 1 for e, _ in F.monomials)
                  for F in polys)
    assert squares >= 40
    for F in polys:
        assert bidegree_of(F, A2) == contour_bidegree(F, A2, pe2), F.monomials
    assert bidegree_of(polys[0], A2) == (2, 2)


def test_bidegree_rule_known_values(A2, pe2):
    # one term never cancels, however small beside another
    assert bidegree_of(SegrePolynomial.linear(2, {1: 1e6, 3: 1e-14}), A2) == (2, 2)
    assert bidegree_of(SegrePolynomial.linear(1, {2: 1}), ProductVariety((A2.factors[0],))) == (3,)
    # at tau_1 = rho g2 vanishes: wp_1'^2 - 4 wp_1^3 + wp_2 = wp_2 - g3 has no wp_1
    rho = EllipticFactor(Fraction(1, 2), MultiQuadElem.sqrt_of(3, Fraction(1, 2)))
    A = ProductVariety((rho, A2.factors[1]))
    F = SegrePolynomial.from_dict(2, {(0, 0, 0, 0, 0, 0, 2, 0, 0): 1,
                                      (0, 0, 0, 3, 0, 0, 0, 0, 0): -4,
                                      (0, 1, 0, 0, 0, 0, 0, 0, 0): 1})
    assert abs(WpEvaluator(rho.tau).invariants()[0]) < 1e-9
    assert bidegree_of(F, A) == (0, 2)
    # the differential equation itself vanishes on the whole product
    g2, g3 = pe2.evals[0].invariants()
    F = SegrePolynomial.from_dict(2, {(0, 0, 0, 0, 0, 0, 2, 0, 0): 1,
                                      (0, 0, 0, 3, 0, 0, 0, 0, 0): -4,
                                      (0, 0, 0, 1, 0, 0, 0, 0, 0): g2,
                                      (1, 0, 0, 0, 0, 0, 0, 0, 0): g3})
    with pytest.raises(NotAHypersurface, match="W is all of A"):
        bidegree_of(F, A2)
    # a nonzero constant has no zeros on any fiber: W is empty
    with pytest.raises(NotAHypersurface, match="W is empty"):
        bidegree_of(SegrePolynomial.linear(2, {0: 1}), A2)


def test_jacobian_probe_full_rank_at_transverse_solution(A2, pe2):
    # solve wp1(l) wp2(l) = 1 along the diagonal from a coarse scan
    F = flagship_poly()

    def G(l):
        return pe2.eval_polynomial(F, (l, l))

    l = 0.35 + 0.25j
    for _ in range(60):
        h = 1e-7
        d = (G(l + h) - G(l - h)) / (2 * h)
        di = (G(l + 1j * h) - G(l - 1j * h)) / (2 * h)
        grad = d if abs(d) > abs(di) else -1j * di
        lnew = l - G(l) / grad
        if abs(lnew - l) > 1.0:
            break
        l = lnew
        if abs(G(l)) < 1e-12:
            break
    assert abs(G(l)) < 1e-10
    assert jacobian_probe(l, (1, 1), F, A2, pe2) == 2


def test_jacobian_probe_detects_degenerate_touch(A2, pe2):
    # at a simultaneous half period both partials of wp1 wp2 - 1 vanish, so
    # the hypersurface tangent column collapses and only the direction is left
    F = flagship_poly()
    tau2 = A2.factors[1].tau
    direction = (0.5, tau2 / 2.0)
    assert jacobian_probe(1.0, direction, F, A2, pe2) == 1
