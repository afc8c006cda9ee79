"""Weierstrass functions, lattice invariants, and fiber root counting.

Two independent evaluation backends share one interface:

  "theta"        Jacobi's theta_1 series in V = exp(i pi z), p = exp(i pi tau),
                 whose m-th term has size |p|^(m^2), so a tail bound picks
                 its length (ThetaSeries._lattice): 4 terms give 30 digits at
                 tau = i sqrt 2. wp and wp' are its logarithmic derivatives
                 with log sin(pi z) split off (theta1_logderivs); near a pole
                 V - 1/V is 2 sinh(i pi z) in doubles, so values keep their
                 relative accuracy. ThetaSeries.wp_pair_grid writes them once over
                 arrays in one arithmetic: doubles in WpEvaluator, 30 digits
                 of eac.fixed in WpFixed for the solver's verification.
  "lattice-sum"  row-resummed series: the double sum over the lattice is
                 collapsed along the real direction into cosecant rows,
                 sum_n pi^2 / sin^2(pi (z - n tau)) minus matching
                 constants, which again decays geometrically in n.

The lattice-sum backend shares no formula with the theta series: it is the
independent cross-check of harvested points, and its g2 and g3 come from
cosecant rows, the theta backend's from segre's q-series. Both reduce the
argument to the fundamental domain first, so truncation orders stay
uniform. A point within EPS of the lattice raises AtInfinity, never a NaN;
wp_pair is its one source, and ProductEvaluator.eval_polynomial re-raises
it with the factor's index. ProductEvaluator holds the float lattice of a
curve product: its reduce and torus_distances apply reduce_to_fundamental.

count_roots_on_fiber and point_count_on_curve count zeros with
solver.cell_seeds on one period cell: the contour oracle of
segre.bidegree_of's exponent rule. An unresolved count raises ContourError.
"""

from __future__ import annotations

import cmath
import itertools
import math

import numpy as np

# perfbench wraps the fiber-degree rule as weierstrass.bidegree_of; EPS is the
# series' tail bound and the distance to the lattice that makes a point a pole
from .fixed import ONE as FIXED_ONE, PI, Fixed
from .segre import (EPS, SegrePolynomial, _qseries_terms, bidegree_of,  # noqa: F401
                    eisenstein_invariants, lattice_invariants, segre_stack)
from .variety import ProductVariety

# Below this |z| the factor V - 1/V of the theta series is taken as
# 2 sinh(i pi z); above it V - 1/V loses under two bits to cancellation.
NEAR_POLE = 0.1
# ThetaSeries._lattice's bound on what the series' ratios add to its first
# term left out: 10 at most on the lattices tried, from 0.1i to 2i.
TAIL_GAIN = 32.0


class AtInfinity(Exception):
    """Signal: the requested point is a lattice point, the value is a pole."""

    def __init__(self, factor: int | None = None):
        self.factor = factor
        super().__init__(f"point at infinity (factor {factor})")


class ContourError(RuntimeError):
    """A zero count could not be resolved on its contour."""


def lattice_coords(z, tau: complex):
    """(a, b) with z = a + b tau, for a complex z or numpy arrays that broadcast."""
    b = z.imag / tau.imag
    return z.real - b * tau.real, b


def lattice_shift(z, tau: complex):
    """The integers (m, n) of the lattice point m + n tau that reduce_to_fundamental subtracts.

    z is a complex number or a numpy array of them, and tau a period or an
    array of periods that broadcasts against z; both round half to even.
    """
    a, b = lattice_coords(z, tau)
    if isinstance(z, np.ndarray):
        return np.round(a), np.round(b)
    return round(a), round(b)


def reduce_to_fundamental(z, tau: complex):
    """Translate z by the lattice Z + tau Z into the centered domain."""
    m, n = lattice_shift(z, tau)
    return z - m - n * tau


def theta1_logderivs(v, vi, v_minus_vi, p, rho, one):
    """(log theta_1)'' and (log theta_1)''' at pi w, from V = exp(i pi w).

    v, vi and v_minus_vi are V, 1/V and V - 1/V at reduced points w, the last
    without cancellation near w = 0. By DLMF 20.2.1, theta_1(pi w) is
    2 sum_n (-1)^n p^((n+1/2)^2) sin((2n+1) pi w): a constant times sin(pi w) S,
    S = rho_0 + sum_m rho_m (y^m + yi^m) with y, yi = p V^2, p / V^2 and
    rho_m = sum_{n >= m} (-1)^n p^(n^2 + n - m). So S^(j) = (2i)^j sum_m m^j
    rho_m (y^m + (-1)^j yi^m), with |y|, |yi| <= 1 on reduced points, and
    log sin(pi w) is rational in V; near a half period the two parts cancel
    at the size of their terms, not of theta_1^(k)/theta_1. + - * and two
    divisions per point, in any number type whose unit is one.
    """
    y, yi = p * v * v, p * vi * vi
    ym, yim, s0, s1, s2, s3 = y, yi, rho[0], 0, 0, 0
    for m, c in enumerate(rho[1:], 1):
        a, b = ym + yim, ym - yim
        s0, s1, s2, s3 = s0 + c * a, s1 + m * c * b, s2 + m * m * c * a, s3 + m ** 3 * c * b
        ym, yim = ym * y, yim * yi
    g, r = one / s0, one / v_minus_vi
    e1, e2, e3, r2 = s1 * g, s2 * g, s3 * g, r * r
    return (4 * (r2 + e1 * e1 - e2),
            -8j * (e3 + e1 * (2 * e1 * e1 - 3 * e2) + (v + vi) * r2 * r))


class ThetaSeries:
    """wp and wp' of one lattice over arrays of points, from theta1_logderivs.

    With sigma from theta_1 (DLMF 23.6.9) and wp = -(log sigma)'',
    wp = c0 - pi^2 (log theta_1)''(pi z) and wp' = -pi^3 (log theta_1)'''(pi z),
    c0 = (pi^2/3) theta_1'''(0)/theta_1'(0). A subclass fixes the arithmetic:
    it sets tau, the unit one and g2, calls _lattice with p = exp(i pi tau)
    and pi in its number type, and gives _exponentials(z): V, 1/V and V - 1/V
    at each reduced point, and a pole mask for _at_poles (by default none).
    """

    def _lattice(self, p, pi, eps: float):
        """theta_terms, the rho_m, pi^2, -pi^3 and c0, for wp and wp' to eps.

        The term left out, m = theta_terms + 1, has size |p|^(m^2) and weight
        8 m^3 in S'''. wp' carries pi^3 and, for Im tau < 1, values of size
        Im tau^-3 (wp'(z; tau) = tau^-3 wp'(z/tau; -1/tau)); TAIL_GAIN bounds
        what the ratios add. p underflowing to 0.0 (Im tau > 237) leaves one term.
        """
        absp = math.exp(-math.pi * self.tau.imag)
        gain = TAIL_GAIN * math.pi ** 3 * max(1.0, self.tau.imag ** -3)
        n = next(n for n in itertools.count(1) if gain * (n + 1) ** 3 * absp ** ((n + 1) ** 2) < eps)
        a = [(-1) ** k * p ** (k * k + k) for k in range(n + 1)]
        self.p, self.theta_terms, self.pi2, self.minus_pi3 = p, n, pi * pi, pi * pi * pi * -1
        self.rho = [sum((-1) ** k * p ** (k * k + k - m) for k in range(m, n + 1)) for m in range(n + 1)]
        self.c0 = self.pi2 * sum((2 * k + 1) ** 3 * x for k, x in enumerate(a)) / (
            sum((2 * k + 1) * x for k, x in enumerate(a)) * -3)

    def wp_pair_grid(self, z):
        """(wp, wp') at the points z, in the series' number type."""
        v, vi, v_minus_vi, pole = self._exponentials(z)
        l2, l3 = theta1_logderivs(v, vi, v_minus_vi, self.p, self.rho, self.one)
        return (self._at_poles(self.c0 - self.pi2 * l2, pole),
                self._at_poles(self.minus_pi3 * l3, pole))

    @staticmethod
    def _at_poles(values, pole):
        return values


class WpEvaluator(ThetaSeries):
    """Weierstrass wp and wp' for one lattice Z + tau Z, in doubles.

    backend selects the series family; both honor EPS as a target absolute
    tail bound (values near poles are large, accuracy there is relative).
    """

    one = 1.0

    def __init__(self, tau: complex, backend: str = "theta"):
        tau = complex(tau)
        if backend not in ("theta", "lattice-sum"):
            raise ValueError(f"unknown backend {backend!r}")
        self.tau = tau
        self.backend = backend
        self.nterms = _qseries_terms(tau, EPS)  # the lattice-sum rows
        self._lattice(cmath.exp(1j * math.pi * tau), math.pi, 1e-17)  # a tail below rounding
        self.g2 = lattice_invariants(tau)[0]

    # lattice geometry

    def reduce(self, z: complex) -> complex:
        return reduce_to_fundamental(z, self.tau)

    def invariants(self) -> tuple[complex, complex]:
        """(g2, g3) for this lattice: segre.lattice_invariants, or the cosecant rows."""
        return lattice_invariants(self.tau) if self.backend == "theta" else self._invariants_rows()

    def _invariants_rows(self) -> tuple[complex, complex]:
        """Eisenstein sums collapsed along the real direction into cosecant rows.

        Summing 1/(m + n tau)^k over m for fixed n is a derivative of the
        cotangent expansion: with s = 1/sin(pi n tau), c = cos(pi n tau),
          sum_m (z + m)^-4 |_{z=n tau} = pi^4 (s^2/3 + c^2 s^4),
          sum_m (z + m)^-6 |_{z=n tau} = pi^6 (2 s^2/15 + c^2 s^4 + c^4 s^6),
        and the n = 0 rows are 2 zeta(4) and 2 zeta(6).
        """
        tau, pi = self.tau, math.pi
        G4, G6 = 2.0 * pi ** 4 / 90.0, 2.0 * pi ** 6 / 945.0
        for n in range(1, self.nterms + 5):
            s, c = 1.0 / cmath.sin(pi * n * tau), cmath.cos(pi * n * tau)
            s2, c2 = s * s, c * c
            G4 += 2.0 * pi ** 4 * (s2 / 3.0 + c2 * s2 * s2)
            G6 += 2.0 * pi ** 6 * (2.0 * s2 / 15.0 + c2 * s2 * s2 + c2 * c2 * s2 * s2 * s2)
        return complex(60.0 * G4), complex(140.0 * G6)

    # scalar evaluation

    def wp_pair(self, z: complex) -> tuple[complex, complex]:
        """(wp(z), wp'(z)); a lattice point raises AtInfinity."""
        z = complex(z)
        zr = self.reduce(z)
        if abs(zr) < EPS:
            raise AtInfinity()
        if self.backend == "lattice-sum":
            return self._wp_rows(zr), self._wp_prime_rows(zr)
        wp, wpp = self.wp_pair_grid(np.array([z]))
        return complex(wp[0]), complex(wpp[0])

    def wp(self, z: complex) -> complex:
        return self.wp_pair(z)[0]

    def wp_prime(self, z: complex) -> complex:
        return self.wp_pair(z)[1]

    def _wp_rows(self, z: complex) -> complex:
        ns = range(-self.nterms - 1, self.nterms + 2)
        total = sum((1.0 / cmath.sin(math.pi * (z - n * self.tau)) ** 2 for n in ns), 0j)
        const = sum((2.0 / cmath.sin(math.pi * n * self.tau) ** 2 for n in ns if n > 0), 0j)
        return math.pi ** 2 * (total - const) - math.pi ** 2 / 3.0

    def _wp_prime_rows(self, z: complex) -> complex:
        cs = (math.pi * (z - n * self.tau) for n in range(-self.nterms - 1, self.nterms + 2))
        return -2.0 * math.pi ** 3 * sum((cmath.cos(c) / cmath.sin(c) ** 3 for c in cs), 0j)

    # the theta series over numpy arrays, pole entries become inf

    def _exponentials(self, z: np.ndarray):
        if self.backend != "theta":
            raise ValueError(
                f"grid evaluation needs the theta backend, not {self.backend!r}")
        zr = self.reduce(np.asarray(z, dtype=complex))
        dist = np.abs(zr)
        pole = dist < EPS
        if self.p == 0:  # Im tau > 237: past |Im z| = 200, wp and wp' are the clipped point's
            np.clip(zr.imag, -200.0, 200.0, out=zr.imag)
        w = 1j * math.pi * np.where(pole, 0.25, zr)
        v = np.exp(w)
        vi = 1.0 / v
        d = v - vi
        near = dist < NEAR_POLE
        if near.any():
            d[near] = 2.0 * np.sinh(w[near])
        return v, vi, d, pole

    @staticmethod
    def _at_poles(values: np.ndarray, pole: np.ndarray) -> np.ndarray:
        values[pole] = np.inf
        return values

    def wp_grid(self, z: np.ndarray) -> np.ndarray:
        return self.wp_pair_grid(z)[0]

    def wp_prime_grid(self, z: np.ndarray) -> np.ndarray:
        return self.wp_pair_grid(z)[1]


class WpFixed(ThetaSeries):
    """wp and wp' of one lattice to 30 digits, in eac.fixed.Fixed over object arrays.

    The series runs to its 1e-30 tail bound, g2 (segre.eisenstein_invariants)
    to 1e-30 of its n^3 weights. Points, doubles or Fixed, and tau's double are
    taken exactly onto the grid and reduced there by lattice_shift's lattice
    point. V = exp(i pi w) and p = exp(i pi tau) are Fixed.exp; V - 1/V, off by
    about 2^-127, is 1e-31 relative at |w| = 1e-8. Poles raise ZeroDivisionError.
    """

    one = FIXED_ONE

    def __init__(self, tau: complex):
        self.tau = complex(tau)
        absq = math.exp(-2.0 * math.pi * self.tau.imag)
        e4_terms = next(n for n in itertools.count(_qseries_terms(self.tau, 1e-30))
                        if n ** 3 * absq ** n < 1e-30)
        self.tau_grid = Fixed.lift(self.tau)
        p = (1j * PI * self.tau_grid).exp()
        self._lattice(p, PI, 1e-30)
        self.g2 = eisenstein_invariants(p * p, PI, FIXED_ONE, e4_terms)[0]

    def _exponentials(self, z):
        m, n = (np.array(k.astype(int).tolist(), dtype=object)
                for k in lattice_shift(np.array([complex(x) for x in z]), self.tau))
        w = Fixed.stack([Fixed.lift(x) for x in z]) - Fixed(
            m * FIXED_ONE.re + n * self.tau_grid.re, n * self.tau_grid.im)
        v = (1j * PI * w).exp()
        vi = FIXED_ONE / v
        return v, vi, v - vi, None


class ProductEvaluator:
    """Per-factor evaluators for a curve product, sharing one backend.

    It holds each factor's float tau, so the float lattice of the product
    lives here: reduce and torus_distances use reduce_to_fundamental, the
    reduction that wp evaluation applies to its argument.
    """

    def __init__(self, A: ProductVariety, backend: str = "theta"):
        self.A = A
        self.evals = tuple(WpEvaluator(f.tau, backend) for f in A.factors)
        self.taus = np.array([ev.tau for ev in self.evals])

    def reduce(self, rows) -> np.ndarray:
        """(n, g) points, each factor translated into its fundamental domain."""
        rows = np.asarray(rows, dtype=complex).reshape(-1, len(self.evals))
        return reduce_to_fundamental(rows, self.taus)

    def torus_distances(self, z, others) -> np.ndarray:
        """Distance on C^g from z to the nearest lattice translate of each row of others."""
        diff = self.reduce(np.asarray(z, dtype=complex) - np.asarray(others, dtype=complex))
        return np.sqrt(np.sum(np.abs(diff) ** 2, axis=1))

    def eval_polynomial(self, F: SegrePolynomial, z: tuple[complex, ...]) -> complex:
        """F(exp(z)); raises AtInfinity(j) if factor j sits at a pole."""
        wps, wpps = [], []
        for j, (zj, ev) in enumerate(zip(z, self.evals, strict=True)):
            try:
                p, pp = ev.wp_pair(zj)
            except AtInfinity:
                raise AtInfinity(j) from None
            wps.append(p)
            wpps.append(pp)
        return complex(F.eval_affine(np.array(segre_stack(wps, wpps, 1.0), dtype=complex)))


def count_roots_on_fiber(F: SegrePolynomial, which: int, fixed: complex,
                         A: ProductVariety, pe: ProductEvaluator | None = None,
                         jitter: tuple[float, float] = (0.23, 0.31)) -> int:
    """Zeros of z -> F(exp(...)) on one curve fiber, counted with multiplicity.

    which selects the moving factor (0-based); any other factor is pinned at
    fixed. The count is over cell (0, 0) of the pulled-back system on the
    line z = base + l e_which, with base placing the cell's corner at
    jitter - (1, 1) in the factor's lattice coordinates, so that exactly one
    lattice point lies inside; solver.cell_seeds counts it, and an
    unresolved count raises ContourError.
    """
    from .solver import CELL_OFFSET, PulledBackSystem, cell_seeds

    pe = pe or ProductEvaluator(A)
    tau = pe.evals[which].tau
    base = [complex(fixed)] * A.g
    base[which] = ((jitter[0] - 1.0 - CELL_OFFSET[0])
                   + (jitter[1] - 1.0 - CELL_OFFSET[1]) * tau)
    direction = [0.0] * A.g
    direction[which] = 1.0
    system = PulledBackSystem(F, direction, A, pe, base=base)
    count, _ = cell_seeds(system, [(0, 0)])[0]
    if count is None:
        raise ContourError("the period cell's zero count could not be resolved")
    return count


def point_count_on_curve(F: SegrePolynomial, A: ProductVariety,
                         pe: ProductEvaluator | None = None,
                         jitter: tuple[float, float] = (0.23, 0.31)) -> int:
    """Zeros of z -> F(exp(z)) on a single curve, counted with multiplicity."""
    if A.g != 1:
        raise ValueError("point_count_on_curve expects a single factor")
    return count_roots_on_fiber(F, 0, 0j, A, pe, jitter)


def jacobian_probe(l: complex, L_direction: tuple[complex, ...],
                   F: SegrePolynomial, A: ProductVariety,
                   pe: ProductEvaluator | None = None,
                   step: float = 1e-6, rel_tol: float = 1e-8) -> int:
    """Numerical rank of the intersection differential at a solution point.

    Columns are the L direction and the tangent of the hypersurface at
    exp(z(l)), the latter from central differences of the pulled-back
    polynomial. Rank 2 means the meeting is transverse-like; rank < 2 flags
    a degenerate touch.
    """
    if A.g != 2:
        raise ValueError("the probe is implemented for two factors")
    pe = pe or ProductEvaluator(A)
    v = np.array(L_direction, dtype=complex)
    z = tuple(l * c for c in L_direction)

    def G(z1: complex, z2: complex) -> complex:
        return pe.eval_polynomial(F, (z1, z2))

    h = step
    d1 = (G(z[0] + h, z[1]) - G(z[0] - h, z[1])) / (2.0 * h)
    d2 = (G(z[0], z[1] + h) - G(z[0], z[1] - h)) / (2.0 * h)
    tangent = np.array([-d2, d1], dtype=complex)
    M = np.column_stack([v, tangent])
    s = np.linalg.svd(M, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.sum(s > rel_tol * s[0]))
