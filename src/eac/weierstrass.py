"""Weierstrass functions, lattice invariants, and fiber root counting.

Two independent evaluation backends share one interface:

  "theta"        q-expansions in u = exp(2 pi i z), q = exp(2 pi i tau),
                 whose terms decay like |q|^n, so a tail bound picks the
                 truncation order. theta_sums writes the series once, with
                 two reciprocals per term and the constant q-sum
                 (theta_const) summed once per lattice; near a pole 1 - u
                 is -expm1(2 pi i z), so values keep their relative accuracy.
                 ThetaSeries.wp_pair_grid scales it to wp and wp' over
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
from .fixed import ONE as FIXED_ONE, Fixed
from .segre import (EPS, SegrePolynomial, _qseries_terms, bidegree_of,  # noqa: F401
                    eisenstein_invariants, lattice_invariants, segre_stack)
from .variety import ProductVariety

# Below this |z| the n = 0 factor 1 - u of the theta series is taken as
# -expm1(2 pi i z); above it 1 - u loses under two bits to cancellation.
NEAR_POLE = 0.1


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


def theta_const(q, nterms: int, one):
    """The constant 1/12 - sum 2 q^n/(1 - q^n)^2 of the wp series, to nterms powers."""
    const = one / 12
    qn = one
    for _ in range(nterms):
        qn = qn * q
        rq = one / (one - qn)
        const = const - 2 * qn * rq * rq
    return const


def theta_sums(u, q, nterms: int, one, const=None, one_minus_u=None):
    """The q-series S, S' with wp = (2 pi i)^2 S and wp' = (2 pi i)^3 S'.

    u = exp(2 pi i z) and q = exp(2 pi i tau) for a reduced z (DLMF 23.8),
    summed to nterms powers of q with + - * / alone, in any number type
    whose unit is one. Each geometric factor w takes one reciprocal
    r = 1/(1 - w), which builds w/(1 - w)^2 = w r^2 and w(1 + w)/(1 - w)^3 =
    (w r^2)(1 + w) r; 1/u is taken once. const is theta_const(q, nterms, one),
    for callers to compute once per lattice. one_minus_u, when given, is
    1 - u as -expm1(2 pi i z): near a pole 1 - u cancels, losing eps/|z|.
    """
    if const is None:
        const = theta_const(q, nterms, one)
    iu = one / u
    r = one / (one - u if one_minus_u is None else one_minus_u)
    s = u * r * r
    sp = s * (one + u) * r
    qn = one
    for _ in range(nterms):
        qn = qn * q
        w = qn * u
        x = qn * iu
        rw = one / (one - w)
        rx = one / (one - x)
        tw = w * rw * rw
        tx = x * rx * rx
        s = s + tw + tx
        sp = sp + tw * (one + w) * rw - tx * (one + x) * rx
    return s + const, sp


class ThetaSeries:
    """wp and wp' of one lattice over arrays of points, from theta_sums.

    A subclass fixes the arithmetic: q, const, nterms, the unit one, g2 and
    two_pi_i_2, two_pi_i_3 = (2 pi i)^2, (2 pi i)^3 in its number type, and
    _exponentials(z): u = exp(2 pi i w) and 1 - u at each reduced point w,
    and a pole mask for _at_poles (by default none).
    """

    def wp_pair_grid(self, z):
        """(wp, wp') at the points z, in the series' number type."""
        u, one_minus_u, pole = self._exponentials(z)
        s, sp = theta_sums(u, self.q, self.nterms, self.one, self.const, one_minus_u)
        return (self._at_poles(self.two_pi_i_2 * s, pole),
                self._at_poles(self.two_pi_i_3 * sp, pole))

    @staticmethod
    def _at_poles(values, pole):
        return values


class WpEvaluator(ThetaSeries):
    """Weierstrass wp and wp' for one lattice Z + tau Z, in doubles.

    backend selects the series family; both honor EPS as a target absolute
    tail bound (values near poles are large, accuracy there is relative).
    """

    one = 1.0
    two_pi_i_2 = (2j * math.pi) ** 2
    two_pi_i_3 = (2j * math.pi) ** 3

    def __init__(self, tau: complex, backend: str = "theta"):
        tau = complex(tau)
        if backend not in ("theta", "lattice-sum"):
            raise ValueError(f"unknown backend {backend!r}")
        self.tau = tau
        self.backend = backend
        self.nterms = _qseries_terms(tau, EPS)
        self.q = cmath.exp(2j * math.pi * tau)
        self.const = theta_const(self.q, self.nterms, 1.0)
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
        tau = self.tau
        pi = math.pi
        G4 = 2.0 * pi ** 4 / 90.0
        G6 = 2.0 * pi ** 6 / 945.0
        nrows = self.nterms + 4
        for n in range(1, nrows + 1):
            s = 1.0 / cmath.sin(pi * n * tau)
            c = cmath.cos(pi * n * tau)
            s2 = s * s
            c2 = c * c
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
        tau = self.tau
        nrows = self.nterms + 1
        total = 0.0 + 0.0j
        for n in range(-nrows, nrows + 1):
            total += 1.0 / cmath.sin(math.pi * (z - n * tau)) ** 2
        const = 0.0 + 0.0j
        for n in range(1, nrows + 1):
            const += 2.0 / cmath.sin(math.pi * n * tau) ** 2
        return math.pi ** 2 * (total - const) - math.pi ** 2 / 3.0

    def _wp_prime_rows(self, z: complex) -> complex:
        tau = self.tau
        nrows = self.nterms + 1
        total = 0.0 + 0.0j
        for n in range(-nrows, nrows + 1):
            c = math.pi * (z - n * tau)
            total += cmath.cos(c) / cmath.sin(c) ** 3
        return -2.0 * math.pi ** 3 * total

    # the theta series over numpy arrays, pole entries become inf

    def _exponentials(self, z: np.ndarray):
        if self.backend != "theta":
            raise ValueError(
                f"grid evaluation needs the theta backend, not {self.backend!r}")
        zr = self.reduce(np.asarray(z, dtype=complex))
        dist = np.abs(zr)
        pole = dist < EPS
        w = 2j * math.pi * np.where(pole, 0.25, zr)
        u = np.exp(w)
        m = 1.0 - u
        near = dist < NEAR_POLE
        if near.any():
            m[near] = -np.expm1(w[near])
        return u, m, pole

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
    to 1e-30 of its n^3 weights. Points, doubles or mpmath numbers, are
    reduced at 40 digits by the lattice point lattice_shift gives in doubles,
    where u and (below NEAR_POLE) 1 - u = -expm1(2 pi i w) are taken, as are
    q, pi and 2 pi i, then rounded once onto the grid. Poles raise ZeroDivisionError.
    """

    one = FIXED_ONE

    def __init__(self, tau: complex):
        from mpmath import mp

        self.tau = complex(tau)
        self.nterms = _qseries_terms(self.tau, 1e-30)
        absq = math.exp(-2.0 * math.pi * self.tau.imag)
        e4_terms = next(n for n in itertools.count(self.nterms) if n ** 3 * absq ** n < 1e-30)
        with mp.workdps(40):
            self.tau_40 = mp.mpc(self.tau.real, self.tau.imag)
            self.two_pi_i = 2j * mp.pi
            self.q = Fixed.lift(mp.exp(self.two_pi_i * self.tau_40))
            self.two_pi_i_2 = Fixed.lift(self.two_pi_i ** 2)
            self.two_pi_i_3 = Fixed.lift(self.two_pi_i ** 3)
            pi = Fixed.lift(+mp.pi)
        self.const = theta_const(self.q, self.nterms, FIXED_ONE)
        self.g2 = eisenstein_invariants(self.q, pi, FIXED_ONE, e4_terms)[0]

    def _exponentials(self, z):
        from mpmath import mp

        approx = np.array([complex(x) for x in z], dtype=complex)
        shifts = [(int(m), int(n)) for m, n in zip(*lattice_shift(approx, self.tau))]
        with mp.workdps(40):
            lattice = {mn: mn[0] + mn[1] * self.tau_40 for mn in set(shifts)}
            ws = [self.two_pi_i * (mp.mpc(x) - lattice[mn]) for x, mn in zip(z, shifts)]
            us = [Fixed.lift(mp.exp(w)) for w in ws]
            vs = [Fixed.lift(-mp.expm1(w)) if abs(a - m - n * self.tau) < NEAR_POLE
                  else FIXED_ONE - u for w, u, a, (m, n) in zip(ws, us, approx.tolist(), shifts)]
        return Fixed.stack(us), Fixed.stack(vs), None


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
