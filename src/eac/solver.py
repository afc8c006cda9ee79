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

Each cell gets a coarse grid scan for local minima of |G|, Newton refinement
with central differences, an independent verification pass, and group-level
deduplication of the resulting points of the product variety, which still
catches seeds of one cell, or of neighbouring cells, converging to one root.
On the grid of cell (p, q) the anchor coordinate is (p + a) + (q + b) tau, a
lattice translate of the same unit-box grid in every cell, so the anchor
factor's wp and wp' are computed once per harvest and grid size
(PulledBackSystem.anchor_grid) and each scan evaluates only the other factor.

Verification recomputes each residual with mpmath at 30 digits, using the
same theta series (weierstrass.theta_sums) as the scan but none of its
double-precision arithmetic, summed to the length whose tail bound is 1e-30
for each factor's tau, and each solution must carry winding number
>= 1 on a small circle, so spurious minima and pseudo-roots are rejected
rather than reported. The lattice-sum backend, which shares no formula with
the theta series, is the independent cross-check of harvested points.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .exactlinalg import hermite_normal_form
from .segre import SegrePolynomial, segre_stack
from .variety import ProductVariety
from .weierstrass import (ContourError, ProductEvaluator, _qseries_terms, _winding,
                          theta_sums)


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
    newton_steps: int = 50
    seeds_per_cell: int = 64

    def __post_init__(self):
        """Reject out-of-range settings by field name, with the schema's bounds."""
        minimums = {"seed": 0, "grid": 10, "budget_cells": 1, "target_count": 1,
                    "newton_steps": 1, "seeds_per_cell": 1}
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

    def eval_one(self, l: complex) -> complex:
        return complex(self.eval_grid_complex(np.array([l], dtype=complex))[0])

    def z_of(self, l: complex) -> tuple[complex, ...]:
        return tuple(l * c for c in self.v)

    def pole_distance(self, l: complex) -> float:
        """Distance from exp(l v) to the nearest pole across the factors."""
        dists = []
        for zj, ev in zip(self.z_of(l), self.pe.evals):
            dists.append(ev.dist_to_lattice(zj))
        return min(dists)

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
    return seeds[:cfg.seeds_per_cell]


def newton_refine(system: PulledBackSystem, seed: complex, cfg: SolverConfig,
                  fd_step: float = 1e-7):
    """Complex Newton iteration from a seed. Returns (l, residual) or a reason."""
    l = complex(seed)
    tau = system.pe.evals[system.anchor].tau
    diam = (1.0 + abs(tau)) / abs(system.v[system.anchor])
    max_move = 3.0 * max(diam, 1.0)
    for _ in range(cfg.newton_steps):
        if system.pole_distance(l) < 1e-9:
            return None, "landed on a pole"
        g = system.eval_one(l)
        if not np.isfinite(g.real) or not np.isfinite(g.imag):
            return None, "non-finite value"
        if abs(g) < cfg.solve_tol:
            return l, abs(g)
        batch = np.array([l + fd_step, l - fd_step], dtype=complex)
        gp, gm = system.eval_grid_complex(batch)
        deriv = (gp - gm) / (2.0 * fd_step)
        if not np.isfinite(deriv.real) or abs(deriv) < 1e-14:
            return None, "singular derivative"
        step = g / deriv
        if abs(step) > 1.0:
            step = step / abs(step)
        l = l - step
        if abs(l - seed) > max_move:
            return None, "diverged from its cell"
    g = abs(system.eval_one(l))
    if g < cfg.solve_tol:
        return l, g
    return None, f"no convergence, residual {g:.2e}"


def verify_solution(system: PulledBackSystem, l: complex, cfg: SolverConfig,
                    winding_radius: float = 1e-3) -> tuple[bool, float, int, str]:
    """Independent acceptance test for a refined point.

    Re-evaluates the residual with mpmath at 30 digits through the theta
    series of the scan, summed to the length whose tail bound is 1e-30, and
    requires a positive winding of G on a small circle around l. Returns
    (accepted, verified residual, winding, reason).
    """
    from mpmath import mp

    old_dps = mp.dps
    try:
        mp.dps = 30
        two_pi_i = 2j * mp.pi
        wps, wpps = [], []
        for zj, ev in zip(system.z_of(l), system.pe.evals):
            zr = ev.reduce(zj)
            u = mp.exp(two_pi_i * mp.mpc(zr.real, zr.imag))
            q = mp.exp(two_pi_i * mp.mpc(ev.tau.real, ev.tau.imag))
            s, sp = theta_sums(u, q, _qseries_terms(ev.tau, 1e-30), mp.mpf(1))
            wps.append(two_pi_i ** 2 * s)
            wpps.append(two_pi_i ** 3 * sp)
        vres = float(abs(system.F.eval_affine(segre_stack(wps, wpps, mp.mpf(1)))))
    finally:
        mp.dps = old_dps
    if vres > 10.0 * cfg.solve_tol:
        return False, vres, 0, "doubled-precision residual too large"
    radius = winding_radius
    for _ in range(4):
        circle = l + radius * np.exp(
            2j * math.pi * np.linspace(0.0, 1.0, 400, endpoint=False))
        if min(system.pole_distance(c) for c in circle[::40]) < 1e-6:
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
                    certified: bool = False, jacobian_cb=None,
                    kernel=()) -> SolveReport:
    """Scan distinct cells in spiral order until the target count or the budget.

    Requires certified=True: running without a nonzero certificate is a
    precondition violation, not a soft warning. kernel is an integer basis of
    Lambda_L (hull.kernel_lattice); cells are walked modulo the shifts it
    induces, and an empty kernel walks every cell. Deduplication is by group
    distance on the product variety at dedup_tol. jacobian_cb, when given,
    maps an accepted parameter to a recorded rank.
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
            for offset, seeds in enumerate(seed_lists):
                cell_index = i + offset
                report.cells_scanned += 1
                for seed, _ in seeds:
                    if report.target_reached:
                        break
                    report.seeds_refined += 1
                    l, res = timed("newton_s", newton_refine, system, seed, cfg)
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
                    rank = (timed("jacobian_s", jacobian_cb, l)
                            if jacobian_cb is not None else -1)
                    report.solutions.append(SolutionPoint(
                        l=complex(l), z=tuple(complex(x) for x in zred),
                        residual=float(res), verified_residual=float(vres),
                        winding=int(wind), jacobian_rank=int(rank), cell=cell_index))
                    accepted = np.vstack([accepted, zred])
                    report.cells_with_solutions.add(cell_index)
                    if len(report.solutions) >= cfg.target_count:
                        report.target_reached = True
                if report.target_reached:
                    break
            if report.target_reached:
                break
    report.cells_exhausted = walks_all and not report.target_reached
    report.budget_exhausted = not (report.target_reached or report.cells_exhausted)
    report.defect = not report.solutions
    report.timings = {"total_s": time.perf_counter() - t0, **stage}
    return report
