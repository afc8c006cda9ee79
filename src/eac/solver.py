"""Numerical harvest of intersection points between exp(L) and a hypersurface.

The parameter space is L itself: for a one-dimensional L with direction v the
pulled-back function is G(l) = F(exp(l v)). The plane of l is tiled by
preimages of period cells of an anchor factor (the first with a nonzero
direction entry), walked in a deterministic spiral outward from the origin.

exp is not injective on L when L meets the period lattice: its kernel
Lambda_L (hull.kernel_lattice) shifts whole cells, by the cell-shift lattice
K in Z^2 that is Lambda_L read in the anchor's lattice coordinates, onto
cells with the same image in the product. The walk therefore reduces each
spiral cell modulo K and scans only the first cell of each class of Z^2/K,
so the cell budget counts distinct cells of L / Lambda_L. When K has rank 2
the walk is finite and ends after the last class; when Lambda_L = 0, as for
an irrational slope, it is the plain spiral.

Each cell gets a coarse grid scan for local minima of |G|, Newton refinement,
an independent verification pass, and group-level deduplication of the
resulting points of the product variety, which still catches seeds of one
cell, or of neighbouring cells, converging to one root.
On the grid of cell (p, q) the anchor coordinate is (p + a) + (q + b) tau, a
lattice translate of the same unit-box grid in every cell, so the anchor
factor's wp and wp' are computed once per harvest and grid size
(PulledBackSystem.anchor_grid) and each scan evaluates only the other factor.

Newton refines the seeds of a chunk of cells at once, as one masked array
iteration, with the analytic derivative G'(l): each factor enters as a
first-order jet, with d wp = c wp' and d wp' = c (6 wp^2 - g2/2) for
z = l c (DLMF 23.3), and the jets pass through the same Segre stack and F
as the values. G'(l) at a root also gives its Jacobian rank: the
differential of the intersection has rank 2 exactly when the root is simple.

Verification recomputes each residual with mpmath at 30 digits, using the
same theta series (weierstrass.theta_sums) as the scan but none of its
double-precision arithmetic, summed to the length whose tail bound is 1e-30
for each factor's tau, and each solution must carry winding number
>= 1 on a small circle, so spurious minima and pseudo-roots are rejected
rather than reported. The lattice-sum backend, which shares no formula with
the theta series, is the independent cross-check of harvested points.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .exactlinalg import hermite_normal_form
from .segre import SegrePolynomial, segre_stack
from .variety import ProductVariety
from .weierstrass import (NEAR_POLE, ContourError, ProductEvaluator, _qseries_terms,
                          _winding, theta_const, theta_sums)

# Seeds kept per cell scan, and Newton steps per seed.
SEEDS_PER_CELL = 64
NEWTON_STEPS = 50
# Relative tolerance of the in-harvest rank, as in weierstrass.jacobian_probe.
RANK_TOL = 1e-8


class UncertifiedError(RuntimeError):
    """The solver was asked to run without a nonzero certificate."""


@dataclass(frozen=True)
class SolverConfig:
    seed: int = 0
    grid: int = 200
    budget_cells: int = 64
    target_count: int = 30
    coarse_threshold: float = 0.5
    solve_tol: float = 1e-10
    dedup_tol: float = 1e-6

    def __post_init__(self):
        """Reject out-of-range settings by field name, with the schema's bounds."""
        minimums = {"seed": 0, "grid": 10, "budget_cells": 1, "target_count": 1}
        for name, low in minimums.items():
            if getattr(self, name) < low:
                raise ValueError(
                    f"{name} must be at least {low}, got {getattr(self, name)}")
        for name in ("coarse_threshold", "solve_tol", "dedup_tol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")

    def replace(self, **kw) -> SolverConfig:
        from dataclasses import replace as _r

        return _r(self, **kw)


@dataclass
class SolutionPoint:
    l: complex
    z: tuple[complex, ...]
    residual: float
    verified_residual: float
    winding: int
    jacobian_rank: int
    cell: int


@dataclass
class FailureRecord:
    l: complex
    cell: int
    reason: str


@dataclass
class SolveReport:
    solutions: list[SolutionPoint] = field(default_factory=list)
    failures: list[FailureRecord] = field(default_factory=list)
    cells_scanned: int = 0
    cells_with_solutions: set = field(default_factory=set)
    seeds_refined: int = 0
    seeds_duplicate: int = 0
    newton_iterations: int = 0
    failures_by_reason: dict = field(default_factory=dict)
    budget_exhausted: bool = False
    cells_exhausted: bool = False
    target_reached: bool = False
    defect: bool = False
    timings: dict = field(default_factory=dict)


def spiral_cells():
    """Deterministic walk of Z^2 outward from the origin."""
    yield (0, 0)
    r = 1
    while True:
        for q in range(-r + 1, r + 1):
            yield (r, q)
        for p in range(r - 1, -r - 1, -1):
            yield (p, r)
        for q in range(r - 1, -r - 1, -1):
            yield (-r, q)
        for p in range(-r + 1, r + 1):
            yield (p, -r)
        r += 1


def reduce_cell(cell: tuple[int, int],
                shifts: tuple[tuple[int, int], ...]) -> tuple[int, int]:
    """Canonical representative of a cell modulo the lattice of HNF rows shifts."""
    p = cell
    for row in shifts:
        c = 0 if row[0] else 1
        k = p[c] // row[c]
        p = (p[0] - k * row[0], p[1] - k * row[1])
    return p


def class_count(shifts: tuple[tuple[int, int], ...]) -> int | None:
    """The index [Z^2 : K], or None when K has rank below 2."""
    if len(shifts) < 2:
        return None
    return shifts[0][0] * shifts[1][1]


def distinct_cells(shifts: tuple[tuple[int, int], ...]):
    """The spiral walk modulo K: each class of Z^2 / K once, as its reduced cell.

    shifts is the Hermite normal form basis of K. The walk is infinite unless
    K has rank 2, and then ends after the last of the [Z^2 : K] classes.
    """
    total = class_count(shifts)
    seen = set()
    for cell in spiral_cells():
        cell = reduce_cell(cell, shifts)
        if cell not in seen:
            seen.add(cell)
            yield cell
            if len(seen) == total:
                return


def thread_count() -> int:
    """Scan threads: EAC_THREADS if set, else up to 4, never above the CPU count."""
    cpus = os.cpu_count() or 1
    env = os.environ.get("EAC_THREADS", "").strip()
    if env:
        try:
            return min(max(1, int(env)), cpus)
        except ValueError:
            pass
    return min(4, cpus)


class Jet:
    """A value and its derivative in l, for numpy arrays: a first-order jet.

    Sums and products follow the Leibniz rule, and other operands are
    constants, so segre_stack and SegrePolynomial.eval_affine carry G'
    along with G.
    """

    __slots__ = ("val", "der")

    def __init__(self, val, der):
        self.val = val
        self.der = der

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val + other.val, self.der + other.der)
        return Jet(self.val + other, self.der)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val * other.val, self.val * other.der + self.der * other.val)
        return Jet(self.val * other, self.der * other)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        return Jet(self.val ** e, e * self.val ** (e - 1) * self.der)


class PulledBackSystem:
    """G(l) = F(exp(l v)) for a one-dimensional parameter subspace."""

    def __init__(self, F: SegrePolynomial, direction: tuple[complex, ...],
                 A: ProductVariety, pe: ProductEvaluator | None = None):
        if A.g not in (1, 2):
            raise ValueError("the solver handles one or two curve factors")
        self.F = F
        self.A = A
        self.v = tuple(complex(c) for c in direction)
        if all(c == 0 for c in self.v):
            raise ValueError("zero direction vector")
        self.pe = pe or ProductEvaluator(A)
        self.anchor = next(j for j, c in enumerate(self.v) if c != 0)
        self._anchor_grids = {}
        self._anchor_lock = threading.Lock()

    def anchor_grid(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(wp, wp') of the anchor factor on the n x n unit-box grid of a cell.

        At box point (a, b) of cell (p, q) the anchor coordinate l v_anchor is
        (p + a) + (q + b) tau_anchor, a lattice translate of a + b tau_anchor,
        so one grid serves every cell. It is built on first use, once per grid
        size, under a lock so that concurrent scans never both build it.
        """
        with self._anchor_lock:
            if n not in self._anchor_grids:
                aa, bb = unit_box(n)
                ev = self.pe.evals[self.anchor]
                self._anchor_grids[n] = ev.wp_pair_grid(aa + bb * ev.tau)
            return self._anchor_grids[n]

    def eval_grid(self, l: np.ndarray, anchor_pair=None) -> np.ndarray:
        """|G| on an array of parameter values, inf at pole hits."""
        vals = self.eval_grid_complex(l, anchor_pair)
        out = np.abs(vals)
        out[~np.isfinite(out)] = np.inf
        return out

    def eval_grid_complex(self, l: np.ndarray, anchor_pair=None) -> np.ndarray:
        """G on an array of parameter values.

        anchor_pair, when given, is the anchor factor's (wp, wp') at l, shaped
        like l, as anchor_grid holds it for the cell grids; only the other
        factors are then evaluated.
        """
        l = np.asarray(l, dtype=complex)
        wps, wpps = [], []
        for j, (ev, c) in enumerate(zip(self.pe.evals, self.v)):
            p, pp = (anchor_pair if j == self.anchor and anchor_pair is not None
                     else ev.wp_pair_grid(l * c))
            wps.append(p)
            wpps.append(pp)
        stack = segre_stack(wps, wpps, np.ones_like(wps[0]))
        with np.errstate(invalid="ignore", over="ignore"):
            return np.asarray(self.F.eval_affine(stack), dtype=complex)

    def eval_jet(self, l: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """G and its derivative G' on an array of parameter values.

        Factor j moves as z = l c_j, so its wp and wp' enter as the jets
        (wp, c_j wp') and (wp', c_j (6 wp^2 - g2/2)); G is the same array
        that eval_grid_complex returns.
        """
        l = np.asarray(l, dtype=complex)
        wps, wpps = [], []
        for ev, c in zip(self.pe.evals, self.v):
            p, pp = ev.wp_pair_grid(l * c)
            g2 = ev.invariants()[0]
            wps.append(Jet(p, c * pp))
            wpps.append(Jet(pp, c * (6.0 * p * p - g2 / 2.0)))
        one = Jet(np.ones_like(l), np.zeros_like(l))
        with np.errstate(invalid="ignore", over="ignore"):
            g = self.F.eval_affine(segre_stack(wps, wpps, one))
        return g.val, g.der

    def z_of(self, l: complex) -> tuple[complex, ...]:
        return tuple(l * c for c in self.v)

    def pole_distance(self, l):
        """Distance from exp(l v) to the nearest pole across the factors.

        l is a complex number or an array, which gives an array of distances.
        """
        dists = [ev.dist_to_lattice(zj) for zj, ev in zip(self.z_of(l), self.pe.evals)]
        return np.min(dists, axis=0)

    def cell_shifts(self, kernel) -> tuple[tuple[int, int], ...]:
        """HNF basis of K, the cell shifts (p, q) that l -> l + lambda makes.

        kernel is an integer basis of Lambda_L in the lattice chart. A kernel
        vector moves the anchor coordinate l v_anchor by its two anchor
        entries, which is a shift of whole cells; the projection is injective
        on realified L, so K has the rank of Lambda_L.
        """
        j = 2 * self.anchor
        return tuple(tuple(r) for r in hermite_normal_form([k[j:j + 2] for k in kernel]))

    def cell_box(self, p: int, q: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Map unit-box grid coordinates into cell (p, q) of the l-plane."""
        tau = self.pe.evals[self.anchor].tau
        va = self.v[self.anchor]
        return ((p + a) + (q + b) * tau) / va


def unit_box(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cell-centred n x n grid coordinates (a, b) in the unit box."""
    a = (np.arange(n) + 0.5) / n
    return np.meshgrid(a, a, indexing="ij")


def coarse_scan(system: PulledBackSystem, p: int, q: int,
                cfg: SolverConfig) -> list[tuple[complex, float]]:
    """Local minima of |G| below the coarse threshold on one cell grid.

    The anchor factor's values come from the shared anchor_grid; only the
    other factor is evaluated on this cell.
    """
    n = cfg.grid
    aa, bb = unit_box(n)
    grid = system.cell_box(p, q, aa, bb)
    vals = system.eval_grid(grid, system.anchor_grid(n))
    padded = np.pad(vals, 1, constant_values=np.inf)
    neigh = np.minimum.reduce([
        padded[i:i + n, j:j + n]
        for i in range(3) for j in range(3) if not (i == 1 and j == 1)
    ])
    mask = (vals < cfg.coarse_threshold) & (vals <= neigh) & np.isfinite(vals)
    idx = np.argwhere(mask)
    seeds = [(complex(grid[i, j]), float(vals[i, j])) for i, j in idx]
    seeds.sort(key=lambda s: s[1])
    return seeds[:SEEDS_PER_CELL]


class Refined(tuple):
    """One seed's Newton outcome: (l, residual) or (None, reason).

    steps counts the Newton steps taken; deriv is G'(l) at a converged l.
    """

    def __new__(cls, l, value, steps: int, deriv: complex | None = None):
        out = super().__new__(cls, (l, value))
        out.steps = steps
        out.deriv = deriv
        return out


def newton_refine(system: PulledBackSystem, seeds, cfg: SolverConfig) -> list[Refined]:
    """Complex Newton iteration from each of a non-empty sequence of seeds.

    All seeds still active share one evaluation of G and G' per step. Each
    seed follows its own rules in this order: a pole stop at distance 1e-9,
    a non-finite value, convergence at solve_tol, a singular derivative, a
    step capped at unit length, and divergence beyond three cell diameters,
    for at most NEWTON_STEPS steps. Returns one Refined per seed, in order.
    """
    start = np.asarray(seeds, dtype=complex)
    if start.ndim != 1 or not start.size:
        raise ValueError("newton_refine needs a non-empty sequence of seeds")
    tau = system.pe.evals[system.anchor].tau
    diam = (1.0 + abs(tau)) / abs(system.v[system.anchor])
    max_move = 3.0 * max(diam, 1.0)
    out = [None] * start.size
    l = start.copy()
    steps = np.zeros(start.size, dtype=int)
    active = np.arange(start.size)

    def fail(indices, reason):
        for i in indices:
            out[i] = Refined(None, reason, int(steps[i]))

    def converge(mask, res, dg):
        for k in np.flatnonzero(mask):
            i = active[k]
            out[i] = Refined(complex(l[i]), float(res[k]), int(steps[i]), complex(dg[k]))

    for _ in range(NEWTON_STEPS):
        pole = system.pole_distance(l[active]) < 1e-9
        fail(active[pole], "landed on a pole")
        active = active[~pole]
        if not active.size:
            break
        g, dg = system.eval_jet(l[active])
        res = np.abs(g)
        bad = ~(np.isfinite(g.real) & np.isfinite(g.imag))
        conv = ~bad & (res < cfg.solve_tol)
        singular = ~(bad | conv) & (~np.isfinite(dg.real) | (np.abs(dg) < 1e-14))
        fail(active[bad], "non-finite value")
        converge(conv, res, dg)
        fail(active[singular], "singular derivative")
        go = ~(bad | conv | singular)
        active, step = active[go], g[go] / dg[go]
        size = np.abs(step)
        big = size > 1.0
        step[big] = step[big] / size[big]
        l[active] = l[active] - step
        steps[active] += 1
        far = np.abs(l[active] - start[active]) > max_move
        fail(active[far], "diverged from its cell")
        active = active[~far]
    if active.size:
        g, dg = system.eval_jet(l[active])
        res = np.abs(g)
        conv = res < cfg.solve_tol
        converge(conv, res, dg)
        for k in np.flatnonzero(~conv):
            fail([active[k]], f"no convergence, residual {res[k]:.2e}")
    return out


def jacobian_rank(system: PulledBackSystem, deriv: complex) -> int:
    """Rank of the intersection differential at a root, from G'(l).

    The matrix [v, tangent of W] of weierstrass.jacobian_probe has
    determinant G'(l), so its rank is 2 exactly when the root is simple.
    The probe calls it 2 when its smaller singular value exceeds RANK_TOL
    times the larger; with the larger taken as |v|, that is
    |G'| > RANK_TOL |v|^2. One-factor systems have no such matrix: -1.
    """
    if system.A.g == 1:
        return -1
    v2 = sum(abs(c) ** 2 for c in system.v)
    return 2 if abs(deriv) > RANK_TOL * v2 else 1


@functools.lru_cache(maxsize=16)
def _lattice_30_digits(tau: complex):
    """q = exp(2 pi i tau), the theta constant and the 1e-30 series length.

    Verification needs these for each of a harvest's one or two lattices at
    every point; the values are immutable mpmath numbers.
    """
    from mpmath import mp

    with mp.workdps(30):
        q = mp.exp(2j * mp.pi * mp.mpc(tau.real, tau.imag))
        nterms = _qseries_terms(tau, 1e-30)
        return q, theta_const(q, nterms, mp.mpf(1)), nterms


def verify_solution(system: PulledBackSystem, l: complex, cfg: SolverConfig,
                    winding_radius: float = 1e-3) -> tuple[bool, float, int, str]:
    """Independent acceptance test for a refined point.

    Re-evaluates the residual with mpmath at 30 digits through the theta
    series of the scan, summed to the length whose tail bound is 1e-30, and
    requires a positive winding of G on a small circle around l. Returns
    (accepted, verified residual, winding, reason).
    """
    from mpmath import mp

    with mp.workdps(30):
        two_pi_i = 2j * mp.pi
        one = mp.mpf(1)
        wps, wpps = [], []
        for zj, ev in zip(system.z_of(l), system.pe.evals):
            zr = ev.reduce(zj)
            q, const, nterms = _lattice_30_digits(ev.tau)
            w = two_pi_i * mp.mpc(zr.real, zr.imag)
            m = -mp.expm1(w) if abs(zr) < NEAR_POLE else None
            s, sp = theta_sums(mp.exp(w), q, nterms, one, const, m)
            wps.append(two_pi_i ** 2 * s)
            wpps.append(two_pi_i ** 3 * sp)
        vres = float(abs(system.F.eval_affine(segre_stack(wps, wpps, one))))
    if vres > 10.0 * cfg.solve_tol:
        return False, vres, 0, "doubled-precision residual too large"
    radius = winding_radius
    for _ in range(4):
        circle = l + radius * np.exp(
            2j * math.pi * np.linspace(0.0, 1.0, 400, endpoint=False))
        if system.pole_distance(circle[::40]).min() < 1e-6:
            radius *= 0.5
            continue
        try:
            w = _winding(system.eval_grid_complex(circle), tol=1e-2)
        except ContourError:
            radius *= 0.5
            continue
        if w >= 1:
            return True, vres, w, ""
        return False, vres, w, "winding number zero"
    return False, vres, 0, "no clean winding circle"


def harvest_density(system: PulledBackSystem, cfg: SolverConfig,
                    certified: bool = False, kernel=()) -> SolveReport:
    """Scan distinct cells in spiral order until the target count or the budget.

    Requires certified=True: running without a nonzero certificate is a
    precondition violation, not a soft warning. kernel is an integer basis of
    Lambda_L (hull.kernel_lattice); cells are walked modulo the shifts it
    induces, and an empty kernel walks every cell. The seeds of each chunk of
    scanned cells are refined in one newton_refine call, then taken in cell
    order, and by |G| within a cell, until the target is reached.
    Deduplication is by group distance on the product variety at dedup_tol.
    Each accepted point records its Jacobian rank from G' (jacobian_rank).
    """
    if not certified:
        raise UncertifiedError(
            "harvest requires a certified instance (nonzero certificate)")
    report = SolveReport()
    t0 = time.perf_counter()
    shifts = system.cell_shifts(kernel)
    cells = list(itertools.islice(distinct_cells(shifts), cfg.budget_cells))
    walks_all = len(cells) == class_count(shifts)
    accepted = np.empty((0, system.A.g), dtype=complex)
    workers = thread_count()
    stage = dict.fromkeys(("scan_s", "newton_s", "dedup_s", "verify_s", "jacobian_s"), 0.0)

    def timed(name, fn, *args):
        ts = time.perf_counter()
        out = fn(*args)
        stage[name] += time.perf_counter() - ts
        return out

    def scan(cell):
        p, q = cell
        return coarse_scan(system, p, q, cfg)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        for i in range(0, len(cells), workers):
            chunk = cells[i:i + workers]
            mapper = pool.map if workers > 1 and len(chunk) > 1 else map
            seed_lists = timed("scan_s", lambda: list(mapper(scan, chunk)))
            batch = [seed for seeds in seed_lists for seed, _ in seeds]
            refined = iter(timed("newton_s", newton_refine, system, batch, cfg)
                           if batch else ())
            for offset, seeds in enumerate(seed_lists):
                cell_index = i + offset
                report.cells_scanned += 1
                for (seed, _), r in zip(seeds, refined):
                    if report.target_reached:
                        break
                    report.seeds_refined += 1
                    report.newton_iterations += r.steps
                    l, res = r
                    if l is None:
                        report.failures.append(
                            FailureRecord(complex(seed), cell_index, res))
                        continue
                    zred = system.A.reduce_point(system.z_of(l))
                    dists = timed("dedup_s", system.A.torus_distances, zred, accepted)
                    if np.any(dists < cfg.dedup_tol):
                        report.seeds_duplicate += 1
                        continue
                    ok, vres, wind, reason = timed(
                        "verify_s", verify_solution, system, l, cfg)
                    if not ok:
                        report.failures.append(FailureRecord(l, cell_index, reason))
                        continue
                    rank = timed("jacobian_s", jacobian_rank, system, r.deriv)
                    report.solutions.append(SolutionPoint(
                        l=l, z=tuple(complex(x) for x in zred),
                        residual=res, verified_residual=float(vres),
                        winding=int(wind), jacobian_rank=rank, cell=cell_index))
                    accepted = np.vstack([accepted, zred])
                    report.cells_with_solutions.add(cell_index)
                    if len(report.solutions) >= cfg.target_count:
                        report.target_reached = True
                if report.target_reached:
                    break
            if report.target_reached:
                break
    report.failures_by_reason = dict(sorted(Counter(
        f.reason.split(",")[0] for f in report.failures).items()))
    report.cells_exhausted = walks_all and not report.target_reached
    report.budget_exhausted = not (report.target_reached or report.cells_exhausted)
    report.defect = not report.solutions
    report.timings = {"total_s": time.perf_counter() - t0, **stage}
    return report
