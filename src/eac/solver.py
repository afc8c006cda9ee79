"""Numerical harvest of intersection points between exp(L) and a hypersurface.

The parameter space is L itself: for a one-dimensional L with direction v the
pulled-back function is G(l) = F(exp(l v)). The l-plane is tiled by
preimages of period cells of an anchor factor (the first with a nonzero
direction entry), shifted by CELL_OFFSET so that no pole sits on a cell
edge, and walked in a spiral outward from the origin. When L meets the
period lattice, the kernel Lambda_L of exp on L (hull.kernel_lattice)
shifts whole cells, by the lattice K in Z^2 that is Lambda_L read in the
anchor's lattice coordinates, onto cells with the same image; the walk
visits each class of Z^2/K once, and ends after the last when K has rank 2.

cell_seeds counts each cell's zeros by the argument principle on one box
per cell, and takes a box's N zeros, up to MOMENT_MAX_ZEROS, as the roots
of the polynomial whose power sums about the box centre are the contour
moments of G'/G (Delves and Lyness, Math. Comp. 21 (1967); ZEAL, Kravanja,
Van Barel et al., Comput. Phys. Commun. 124 (2000)). A box whose roots
fail their checks is split in four. Every contour integral is one _Edges
panel sum, also on the small boxes of box_windings that give pole orders
and verification windings. The mean count per cell is the certificate
read as a zero density (forms.zeros_per_cell), and sizes every chunk of
cells counted together. G and G'(l) come from pulled_back_jet alone:
in doubles through eval_jet, for the contours and for Newton on a batch of
seeds as one array, and at 30 digits through verify_points, whose G' gives
each verified point its Jacobian rank. Verified points are deduplicated on
the product variety and placed in the cell that holds them, so each cell
reports its zeros expected against its zeros found. The lattice-sum
backend, which shares no formula with the theta series, is the independent
cross-check of harvested points.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .exactlinalg import hermite_normal_form
from .instance import SolverConfig
from .segre import SegrePolynomial, segre_stack
from .variety import ProductVariety
from .weierstrass import ProductEvaluator, WpFixed, lattice_coords

NEWTON_STEPS = 50
# Relative tolerance of the in-harvest rank, as in weierstrass.jacobian_probe.
RANK_TOL = 1e-8
# Cell shift in the anchor's lattice coordinates: the anchor's pole sits a
# third of the way into the cell, and so a third of a box from the nearest
# edge of every box that halving makes.
CELL_OFFSET = (2.0 / 3.0, 2.0 / 3.0)
# Box corners and panel ends are integers, CELL_UNITS to a cell side, so
# neighbouring boxes and cells share their edges exactly.
CELL_UNITS = 1 << 20
PANEL_UNITS = CELL_UNITS // 4  # longest quadrature panel
_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)
PANEL_NODES = np.concatenate([[0.0], (_GL_X + 1.0) / 2.0, [1.0]])
PANEL_WEIGHTS = _GL_W / 2.0
PANEL_TOL = 1e-3  # on each panel's integral of G'/G
INTEGER_TOL = 1e-2  # on a box's winding number
# A box is halved at most this often, down to a side of 2^-13 of a cell side.
MAX_BOX_DEPTH = 13
# A box of 2 to MOMENT_MAX_ZEROS zeros takes them from its power sums when
# they reproduce the next power sum within MOMENT_TOL (moment_roots).
MOMENT_MAX_ZEROS = 8
MOMENT_TOL = 1e-3
MAX_PANELS_PER_CELL = 1000
# Pole orders and verification windings are read on boxes of this half side
# (about 1e-3 of a cell side); poles closer than two half sides count as one.
WIND_UNITS = 1 << 10
# eval_jet's points per array pass: 128 KiB, below numpy's 256 KiB threshold
# for eliding temporaries into in-place loops that round differently.
GRID_BLOCK = 8192
# The 30-digit series of a lattice, built once per tau.
_wp_30_digits = functools.lru_cache(maxsize=16)(WpFixed)


class UncertifiedError(RuntimeError):
    """The solver was asked to run without a nonzero certificate."""


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
    """A seed that gave no point: where it stopped, why, and |G| there."""

    l: complex
    cell: int
    reason: str
    residual: float


@dataclass
class SolveReport:
    solutions: list[SolutionPoint] = field(default_factory=list)
    failures: list[FailureRecord] = field(default_factory=list)
    cells_scanned: int = 0
    cells: list = field(default_factory=list)
    incomplete_cells: list = field(default_factory=list)
    seeds_duplicate: int = 0
    newton_iterations: int = 0
    closed_form_mean: float = 0.0
    cells_counted: int = 0
    cells_exhausted: bool = False
    target_reached: bool = False
    timings: dict = field(default_factory=dict)

    @property
    def cells_with_solutions(self) -> set[int]:
        return {s.cell for s in self.solutions}

    @property
    def seeds_refined(self) -> int:
        """Each refined seed gives a point, a failure or a duplicate."""
        return len(self.solutions) + len(self.failures) + self.seeds_duplicate

    @property
    def failures_by_reason(self) -> dict[str, int]:
        return dict(sorted(Counter(f.reason for f in self.failures).items()))

    @property
    def budget_exhausted(self) -> bool:
        return not (self.target_reached or self.cells_exhausted)

    @property
    def defect(self) -> bool:
        return not self.solutions


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


class Jet:
    """A value and its derivative in l: a first-order jet of numpy arrays or Fixed values.

    Sums and products follow the Leibniz rule, and other operands are
    constants, so segre_stack and SegrePolynomial.eval_affine carry G' along.
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


def pulled_back_jet(F: SegrePolynomial, series, zs, v):
    """G and G' = dG/dl of G(l) = F(exp(z)) at points z_j = base_j + l v_j.

    series holds each factor's weierstrass.ThetaSeries, all in one
    arithmetic, and zs each factor's points. Factor j's wp and wp' enter as
    the jets (wp, v_j wp') and (wp', v_j (6 wp^2 - g2/2)) (DLMF 23.3).
    """
    wps, wpps = [], []
    for s, z, c in zip(series, zs, v):
        p, pp = s.wp_pair_grid(z)
        wps.append(Jet(p, c * pp))
        wpps.append(Jet(pp, c * (6.0 * p * p - s.g2 / 2.0)))
    one = series[0].one
    g = F.eval_affine(segre_stack(wps, wpps, Jet(one, 0 * one)))
    return g.val, g.der


class PulledBackSystem:
    """G(l) = F(exp(base + l v)) on an affine complex line, base 0 by default.

    The harvest walks the subspace through the origin; the fiber counts of
    weierstrass move one factor along a line through a pinned point.
    """

    def __init__(self, F: SegrePolynomial, direction: tuple[complex, ...],
                 A: ProductVariety, pe: ProductEvaluator | None = None,
                 base: tuple[complex, ...] | None = None):
        if A.g not in (1, 2):
            raise ValueError("the solver handles one or two curve factors")
        self.F = F
        self.A = A
        self.v = tuple(complex(c) for c in direction)
        if all(c == 0 for c in self.v):
            raise ValueError("zero direction vector")
        self.base = tuple(complex(b) for b in base) if base is not None else (0j,) * A.g
        self.pe = pe or ProductEvaluator(A)
        self.anchor = next(j for j, c in enumerate(self.v) if c != 0)

    def eval_jet(self, l: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """G and G' in doubles at an array l of any shape, by blocks of GRID_BLOCK points."""
        l = np.asarray(l, dtype=complex)
        flat = l.ravel()
        with np.errstate(invalid="ignore", over="ignore"):
            blocks = [pulled_back_jet(self.F, self.pe.evals,
                                      self.z_of(flat[k:k + GRID_BLOCK]), self.v)
                      for k in range(0, max(flat.size, 1), GRID_BLOCK)]
        return tuple(np.concatenate(parts).reshape(l.shape) for parts in zip(*blocks))

    def z_of(self, l):
        """The point base + l v, per factor, for a complex l or an array."""
        return tuple(b + l * c for b, c in zip(self.base, self.v))

    def pole_distance(self, l):
        """Distance from exp(base + l v) to the nearest pole across the factors.

        l is a complex number or an array, which gives an array of distances.
        """
        dists = [abs(ev.reduce(zj)) for zj, ev in zip(self.z_of(l), self.pe.evals)]
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

    def cell_box(self, p: int, q: int, a, b):
        """Map unit-box coordinates (a, b) into shifted cell (p, q) of the l-plane."""
        tau = self.pe.evals[self.anchor].tau
        va = self.v[self.anchor]
        return ((p + CELL_OFFSET[0] + a) + (q + CELL_OFFSET[1] + b) * tau) / va

    def cell_position(self, l: complex) -> tuple[float, float]:
        """The inverse of cell_box at cell (0, 0): l lies in cell (floor x, floor y)."""
        x, y = lattice_coords(l * self.v[self.anchor], self.pe.evals[self.anchor].tau)
        return x - CELL_OFFSET[0], y - CELL_OFFSET[1]

    def cell_poles(self, p: int, q: int) -> list[tuple[complex, float, float]]:
        """The poles of G in shifted cell (p, q), as l with its cell_position.

        Factor j has a pole where base_j + l c_j lies in its lattice, which
        is found from the lattice coordinates of the cell's corners. A factor
        with c_j = 0 is constant on the line. Poles closer than two box half
        sides are one pole, as their winding boxes cannot tell them apart.
        """
        corners = [complex(self.cell_box(p, q, a, b)) for a in (0, 1) for b in (0, 1)]
        merge = 2.0 * WIND_UNITS / CELL_UNITS / abs(self.v[self.anchor])
        out = []
        for ev, b, c in zip(self.pe.evals, self.base, self.v):
            if c == 0:
                continue
            ms, ns = zip(*(lattice_coords(b + w * c, ev.tau) for w in corners))
            for m in range(math.floor(min(ms)), math.ceil(max(ms)) + 1):
                for n in range(math.floor(min(ns)), math.ceil(max(ns)) + 1):
                    l = (m + n * ev.tau - b) / c
                    x, y = self.cell_position(l)
                    if ((math.floor(x), math.floor(y)) == (p, q)
                            and all(abs(l - o[0]) > merge for o in out)):
                        out.append((l, x, y))
        return out


def coarse_scan(system: PulledBackSystem, p: int, q: int,
                n: int = 200) -> list[tuple[complex, float]]:
    """Every local minimum of |G| on an n x n grid of shifted cell (p, q), by |G|.

    A dense-grid oracle for the argument-principle count; the harvest does
    not call it.
    """
    a = (np.arange(n) + 0.5) / n
    grid = system.cell_box(p, q, *np.meshgrid(a, a, indexing="ij"))
    vals = np.abs(system.eval_jet(grid)[0])
    vals[~np.isfinite(vals)] = np.inf
    padded = np.pad(vals, 1, constant_values=np.inf)
    neigh = np.minimum.reduce([
        padded[i:i + n, j:j + n]
        for i in range(3) for j in range(3) if not (i == 1 and j == 1)
    ])
    idx = np.argwhere((vals <= neigh) & np.isfinite(vals))
    return sorted(((complex(grid[i, j]), float(vals[i, j])) for i, j in idx),
                  key=lambda s: s[1])


def _box_sides(x0, y0, h):
    """The four edges of the box with corner (x0, y0) and side h: bottom, right, top, left.

    The box runs counterclockwise along the first two and against the last two.
    """
    return [(0, y0, x0, x0 + h), (1, x0 + h, y0, y0 + h),
            (0, y0 + h, x0, x0 + h), (1, x0, y0, y0 + h)]


class _Edges:
    """Integrals of G'/G along the axis-parallel edges of boxes, with their nodes.

    An edge is (axis, c, a, b) in CELL_UNITS: y = c and a <= x <= b for
    axis 0, x = c and a <= y <= b for axis 1, run from a to b. An edge longer
    than PANEL_UNITS, or whose panel failed its check, is the sum of its
    parts. A panel passes when two values of the integral of G'/G agree to
    PANEL_TOL: the Gauss-Legendre sum, and log G(b) - log G(a) with the
    argument followed through the samples, each step below 1.5 radians.
    A panel through a pole or a zero of G, a panel too short to cut, and
    every panel past the budget of max_panels evaluations are NaN. A panel
    that passes keeps its 8 nodes l and the weighted values w of G'/G there,
    so that any polynomial f in l is integrated against G'/G as sum w f(l).
    """

    def __init__(self, system: PulledBackSystem, max_panels: int):
        self.system = system
        self.values = {}
        self.nodes = {}
        self.parts = {}
        self.pending = set()
        self.budget = max_panels

    def get(self, edge):
        """The integral of G'/G along edge, or None while a panel of it is unevaluated."""
        if edge in self.values:
            return self.values[edge]
        axis, c, a, b = edge
        if edge not in self.parts and b - a > PANEL_UNITS:
            self.parts[edge] = [(axis, c, a, (a + b) // 2), (axis, c, (a + b) // 2, b)]
        if edge not in self.parts:
            self.pending.add(edge)
            return None
        parts = [self.get(e) for e in self.parts[edge]]
        if any(v is None for v in parts):
            return None
        self.values[edge] = sum(parts)
        return self.values[edge]

    def box(self, x0, y0, h):
        """The winding number of G around the box with corner (x0, y0) and side h.

        It is the integral of G'/G around the box over 2 pi i, or None while
        a panel is pending.
        """
        sides = [self.get(e) for e in _box_sides(x0, y0, h)]
        if any(v is None for v in sides):
            return None
        return (sides[0] + sides[1] - sides[2] - sides[3]) / (2j * math.pi)

    def leaves(self, edge) -> list:
        """The panels, in order, whose integrals sum to a finite integral along edge."""
        if edge in self.nodes:
            return [edge]
        return [p for e in self.parts[edge] for p in self.leaves(e)]

    def power_sums(self, x0, y0, h, c: complex, kmax: int, poles) -> np.ndarray:
        """sum (z - c)^k over the zeros z in a box of finite winding, for k = 0..kmax.

        Each is (1/2 pi i) times the integral of (l - c)^k G'/G around the
        box, plus order (p - c)^k for each (p, order) of poles, the poles
        inside: the power sums about c, not shifted from the origin, so a
        far cell loses no digits to cancellation.
        """
        sides = [[self.nodes[p] for p in self.leaves(e)] for e in _box_sides(x0, y0, h)]
        l = np.concatenate([nl for side in sides for nl, _ in side] + [[p for p, _ in poles]])
        w = np.concatenate([nw for side in sides[:2] for _, nw in side]
                           + [-nw for side in sides[2:] for _, nw in side]) / (2j * math.pi)
        w = np.concatenate([w, [order for _, order in poles]])
        return np.vander(l - c, kmax + 1, increasing=True).T @ w

    def evaluate(self):
        """Evaluate every pending panel in one eval_jet call."""
        edges = sorted(self.pending)
        self.pending = set()
        self.budget -= len(edges)
        if self.budget < 0:
            self.values.update(dict.fromkeys(edges, complex("nan")))
            return
        axis, c, a, b = np.array(edges, dtype=np.int64).T
        s = a[:, None] + (b - a)[:, None] * PANEL_NODES
        fixed = np.broadcast_to(c[:, None], s.shape)
        horizontal = (axis == 0)[:, None]
        x = np.where(horizontal, s, fixed) / CELL_UNITS
        y = np.where(horizontal, fixed, s) / CELL_UNITS
        l = self.system.cell_box(0, 0, x, y)
        g, dg = (v.reshape(l.shape) for v in self.system.eval_jet(l.ravel()))
        with np.errstate(all="ignore"):
            ratio = dg[:, 1:-1] / g[:, 1:-1] * (l[:, -1] - l[:, 0])[:, None]
            i0 = ratio @ PANEL_WEIGHTS
            weighted = ratio * PANEL_WEIGHTS
            steps = np.angle(g[:, 1:] / g[:, :-1])
            logs = np.log(np.abs(g[:, -1] / g[:, 0])) + 1j * steps.sum(axis=1)
            ok = (np.abs(i0 - logs) < PANEL_TOL) & (np.abs(steps).max(axis=1) < 1.5)
        singular = ~np.all(np.isfinite(g) & (g != 0), axis=1)
        for k, edge in enumerate(edges):
            ax, cc, aa, bb = edge
            if ok[k]:
                self.values[edge] = complex(i0[k])
                self.nodes[edge] = (l[k, 1:-1], weighted[k])
            elif singular[k] or bb - aa < 8:
                self.values[edge] = complex("nan")
            else:
                # past the first halving a panel is cut in four, so that a
                # zero near the edge is reached in fewer rounds
                n = 2 if bb - aa > PANEL_UNITS // 2 else 4
                step = (bb - aa) // n
                self.parts[edge] = [(ax, cc, aa + i * step, bb if i == n - 1 else aa + (i + 1) * step)
                                    for i in range(n)]


def _winding(s0) -> int | None:
    """The winding s0 rounded, or None unless it is finite and within INTEGER_TOL of it."""
    if np.isfinite(s0) and abs(s0 - round(s0.real)) < INTEGER_TOL:
        return round(s0.real)
    return None


def box_windings(system: PulledBackSystem, ls) -> list[int | None]:
    """Winding number of G around a box of half side WIND_UNITS at each l.

    Each box is centred on the grid point nearest l, and every box is
    integrated by one _Edges, so a zero inside winds +1 and a pole of order n
    winds -n; a zero inside a pole's box cancels against it. The winding is
    None where a panel fails or the sum is not within INTEGER_TOL of an
    integer.
    """
    edges = _Edges(system, MAX_PANELS_PER_CELL * len(ls))
    corners = [[round(c * CELL_UNITS) - WIND_UNITS for c in system.cell_position(l)] for l in ls]
    while True:
        sums = [edges.box(x0, y0, 2 * WIND_UNITS) for x0, y0 in corners]
        if not edges.pending:
            return [_winding(s) for s in sums]
        edges.evaluate()


def moment_roots(sums) -> np.ndarray | None:
    """The n numbers whose k-th power sums are sums[k] for k = 1..n, or None.

    sums runs from k = 0 to n + 1. Newton's identities give the monic
    polynomial of degree n with these power sums, and np.roots its roots.
    They are refused when a power sum is not finite, or when the sum of
    their (n + 1)-th powers misses sums[n + 1] by MOMENT_TOL or more of the
    sum of those powers' absolute values.
    """
    if not np.all(np.isfinite(sums)):
        return None
    s = [complex(x) for x in sums]
    n = len(s) - 2
    coeffs = [1.0]
    for k in range(1, n + 1):
        coeffs.append(-(s[k] + sum(coeffs[i] * s[k - i] for i in range(1, k))) / k)
    roots = np.roots(coeffs)
    top = roots ** (n + 1)
    if not abs(top.sum() - s[n + 1]) < MOMENT_TOL * np.abs(top).sum():
        return None
    return roots


def _box_seeds(system: PulledBackSystem, edges: _Edges, box, count: int, poles):
    """Newton seeds for the count >= 1 zeros of a box, or None to split it.

    box is (x0, y0, h, depth) and poles the (l, order) of the poles inside;
    the power sums S_k are taken about the box centre c. One zero is
    c + S_1. Two to MOMENT_MAX_ZEROS zeros are c plus the moment_roots of
    S_0..S_(count + 1), when all of them lie inside the box in the anchor's
    lattice coordinates. Otherwise a box at MAX_BOX_DEPTH gives the mean of
    its zeros, c + S_1 / count, as one seed.
    """
    x0, y0, h, depth = box
    moments = 1 < count <= MOMENT_MAX_ZEROS
    if count > 1 and not moments and depth < MAX_BOX_DEPTH:
        return None
    c = complex(system.cell_box(0, 0, (x0 + h / 2) / CELL_UNITS, (y0 + h / 2) / CELL_UNITS))
    sums = edges.power_sums(x0, y0, h, c, count + 1 if moments else 1, poles)
    roots = moment_roots(sums) if moments else None
    if roots is not None:
        x, y = (t * CELL_UNITS for t in system.cell_position(c + roots))
        if np.all((x0 <= x) & (x < x0 + h) & (y0 <= y) & (y < y0 + h)):
            return [c + complex(r) for r in roots]
    if count == 1 or depth == MAX_BOX_DEPTH:
        return [c + complex(sums[1]) / count]
    return None


def cell_seeds(system: PulledBackSystem, cells) -> list[tuple[int | None, list[complex]]]:
    """Zero count and Newton seeds of each shifted cell, by the argument principle.

    Each cell starts as one box. A box's count is its winding number, the
    integral of G'/G around it over 2 pi i, plus the orders of the poles
    inside it, each minus the winding of its box_windings box. _box_seeds
    takes the seeds of a box with zeros from its power sums; a box is split
    in four when it refuses them or when its winding is not within
    INTEGER_TOL of an integer, down to MAX_BOX_DEPTH. A cell's count is None
    when a pole order, a panel or a box could not be resolved.
    """
    edges = _Edges(system, MAX_PANELS_PER_CELL * len(cells))
    poles = [system.cell_poles(*cell) for cell in cells]
    # the pole boxes take their own rounds; sharing the cells' would reorder the seeds
    windings = iter(box_windings(system, [l for cell_poles in poles for l, _, _ in cell_poles]))
    poles = [[(l, x * CELL_UNITS, y * CELL_UNITS, next(windings)) for l, x, y in cell_poles]
             for cell_poles in poles]
    failed = {k for k, cell_poles in enumerate(poles) if any(w is None for *_, w in cell_poles)}
    counts = [0] * len(cells)
    seeds = [[] for _ in cells]
    boxes = [(k, p * CELL_UNITS, q * CELL_UNITS, CELL_UNITS, 0) for k, (p, q) in enumerate(cells)]
    while boxes:
        waiting = []
        for box in boxes:
            k, x0, y0, h, depth = box
            if k in failed:
                continue
            s0 = edges.box(x0, y0, h)
            if s0 is None:
                waiting.append(box)
                continue
            inside = [(l, -w) for l, x, y, w in poles[k]
                      if x0 <= x < x0 + h and y0 <= y < y0 + h]
            count = _winding(s0)
            if count is not None:
                count += sum(order for _, order in inside)
            if count == 0:
                continue
            found = _box_seeds(system, edges, box[1:], count, inside) if (count or 0) > 0 else None
            if found is not None:
                counts[k] += count
                seeds[k] += found
            elif not np.isfinite(s0) or depth == MAX_BOX_DEPTH or (count or 0) < 0:
                failed.add(k)
            else:
                h //= 2
                waiting += [(k, x0 + dx, y0 + dy, h, depth + 1)
                            for dx in (0, h) for dy in (0, h)]
        boxes = waiting
        if edges.pending:
            edges.evaluate()
    return [(None if k in failed else counts[k], seeds[k]) for k in range(len(cells))]


@dataclass
class Refined:
    """One seed's Newton outcome.

    l is the last iterate at which G was evaluated, or the pole it landed
    on; residual is |G(l)| there (inf at a pole). reason is None when l
    converged; steps counts the Newton steps taken.
    """

    l: complex
    residual: float
    reason: str | None
    steps: int


def newton_refine(system: PulledBackSystem, seeds, cfg: SolverConfig) -> list[Refined]:
    """Complex Newton iteration from each of a non-empty sequence of seeds.

    All seeds still active share one evaluation of G and G' per step. Each
    seed follows its own rules in this order: a pole stop at distance 1e-9,
    a non-finite value, convergence at solve_tol, a singular derivative, a
    step capped at unit length, and divergence beyond three cell diameters,
    for at most NEWTON_STEPS steps. Returns one Refined per seed, in order;
    a seed that fails keeps its last iterate and residual.
    """
    start = np.asarray(seeds, dtype=complex)
    if start.ndim != 1 or not start.size:
        raise ValueError("newton_refine needs a non-empty sequence of seeds")
    tau = system.pe.evals[system.anchor].tau
    diam = (1.0 + abs(tau)) / abs(system.v[system.anchor])
    max_move = 3.0 * max(diam, 1.0)
    out = [None] * start.size
    l = start.copy()
    resid = np.full(start.size, np.inf)
    steps = np.zeros(start.size, dtype=int)
    active = np.arange(start.size)

    def settle(indices, reason):
        """Record the seeds at indices: failed for a reason, or converged for None."""
        for i in indices:
            out[i] = Refined(complex(l[i]), float(resid[i]), reason, int(steps[i]))

    for _ in range(NEWTON_STEPS):
        pole = system.pole_distance(l[active]) < 1e-9
        resid[active[pole]] = np.inf
        settle(active[pole], "landed on a pole")
        active = active[~pole]
        if not active.size:
            break
        g, dg = system.eval_jet(l[active])
        # hypot rounds |G| correctly, as abs does on one value; np.abs may not
        resid[active] = res = np.hypot(g.real, g.imag)
        bad = ~(np.isfinite(g.real) & np.isfinite(g.imag))
        conv = ~bad & (res < cfg.solve_tol)
        singular = ~(bad | conv) & (~np.isfinite(dg.real) | (np.abs(dg) < 1e-14))
        settle(active[bad], "non-finite value")
        settle(active[conv], None)
        settle(active[singular], "singular derivative")
        go = ~(bad | conv | singular)
        active, step = active[go], g[go] / dg[go]
        size = np.abs(step)
        big = size > 1.0
        step[big] = step[big] / size[big]
        moved = l[active] - step
        steps[active] += 1
        far = np.abs(moved - start[active]) > max_move
        settle(active[far], "diverged from its cell")  # l keeps the iterate before the step
        active = active[~far]
        l[active] = moved[~far]
    if active.size:
        g, dg = system.eval_jet(l[active])
        resid[active] = res = np.hypot(g.real, g.imag)
        conv = res < cfg.solve_tol
        settle(active[conv], None)
        settle(active[~conv], "no convergence")
    return out


def jacobian_rank(system: PulledBackSystem, deriv: complex) -> int:
    """Rank of the intersection differential at a root, from G'(l) or |G'(l)|.

    The matrix [v, tangent of W] of weierstrass.jacobian_probe has
    determinant G'(l), so its rank is 2 exactly when the root is simple. The
    probe calls it 2 when its smaller singular value exceeds RANK_TOL times
    the larger, |v|: |G'| > RANK_TOL |v|^2. One-factor systems give -1.
    """
    if system.A.g == 1:
        return -1
    v2 = sum(abs(c) ** 2 for c in system.v)
    return 2 if abs(deriv) > RANK_TOL * v2 else 1


def verify_points(system: PulledBackSystem, ls,
                  cfg: SolverConfig) -> list[tuple[bool, float, int, str, float]]:
    """Independent acceptance test for refined points, each stage one array pass.

    Re-evaluates G and G' with pulled_back_jet to 30 digits (weierstrass.WpFixed)
    at the double point z_of(l), reduced exactly on its grid by the lattice
    point that ProductEvaluator.reduce subtracts, so the residual is |G| at z_of(l)
    itself. A point that passes then needs a positive winding of G around
    its box_windings box. Returns (accepted, verified residual, winding,
    reason, |G'|) per point, each a function of its l alone.
    """
    ls = np.asarray(ls, dtype=complex)
    zs = np.array([system.z_of(l) for l in ls.tolist()], dtype=complex).reshape(len(ls), system.A.g)
    g, dg = pulled_back_jet(system.F, [_wp_30_digits(ev.tau) for ev in system.pe.evals],
                            zs.T.tolist(), system.v)
    vres = [float(v) for v in abs(g)]
    out = [(False, v, 0, "doubled-precision residual too large", float(d))
           for v, d in zip(vres, abs(dg))]
    passed = [i for i, v in enumerate(vres) if v <= 10.0 * cfg.solve_tol]
    for i, w in zip(passed, box_windings(system, ls[passed])):
        reason = "no clean winding box" if w is None else "" if w >= 1 else "winding number zero"
        out[i] = (not reason, vres[i], w or 0, reason, out[i][4])
    return out


def verify_solution(system: PulledBackSystem, l: complex,
                    cfg: SolverConfig) -> tuple[bool, float, int, str, float]:
    """verify_points for one point."""
    return verify_points(system, [l], cfg)[0]


def harvest_density(system: PulledBackSystem, cfg: SolverConfig,
                    zeros_per_cell: float, kernel=()) -> SolveReport:
    """Scan distinct cells in spiral order until the target count or the budget.

    zeros_per_cell is the certificate's mean zero count per cell
    (forms.zeros_per_cell); one that is not positive raises UncertifiedError.
    kernel is an integer basis of Lambda_L (hull.kernel_lattice); an empty
    kernel walks every cell, drawn from one distinct_cells generator as chunks
    and home cells need them. cell_seeds counts and seeds cells in chunks,
    each of the ceil(need / zeros_per_cell) cells that the certificate says
    the target still needs, capped at the budget. Each chunk's seeds are
    refined in one newton_refine batch and taken in cell order until the
    target is reached. cells_scanned counts the cells whose seeds were
    taken, cells_counted those cell_seeds counted; cells counted past the
    target are not reported. A batch's converged points are reduced in
    one ProductEvaluator.reduce call and deduplicated by torus distance at
    dedup_tol, read from one matrix of their distances to each other and to
    the points accepted before the batch; one verify_points call takes the
    ones apart from the accepted points and each other, as many as the
    target still needs, and its G' gives their ranks. Each point is labelled
    with the walk index of the cell that holds it; a cell whose seeds were
    all taken is incomplete when its points found differ from its count.
    """
    if not zeros_per_cell > 0:
        raise UncertifiedError(
            f"harvest requires a nonzero certificate, got {zeros_per_cell} zeros per cell")
    report = SolveReport(closed_form_mean=zeros_per_cell)
    t0 = time.perf_counter()
    shifts = system.cell_shifts(kernel)
    cells_ahead = distinct_cells(shifts)
    walk, index = [], {}
    accepted = np.empty((0, system.A.g), dtype=complex)
    stage = dict.fromkeys(("scan_s", "newton_s", "dedup_s", "verify_s", "jacobian_s"), 0.0)
    expected = {}
    taken_whole = []

    def timed(name, fn, *args):
        ts = time.perf_counter()
        out = fn(*args)
        stage[name] += time.perf_counter() - ts
        return out

    def draw(n):
        """Extend the walk to n cells, or to its end."""
        for cell in itertools.islice(cells_ahead, max(n - len(walk), 0)):
            index[cell] = len(walk)
            walk.append(cell)

    def home(l):
        x, y = system.cell_position(l)
        cell = reduce_cell((math.floor(x), math.floor(y)), shifts)
        while cell not in index:  # every class is on the walk, so this ends
            draw(len(walk) + 1)
        return index[cell]

    def verify_from(j0):
        """One verify_points call, keyed by batch row, on what the walk may take from row j0 on."""
        near, group = kept.copy(), []
        for j in range(j0, len(converged)):
            if close[j, near].any():
                continue
            near[j] = True
            group.append(j)
            if len(group) == cfg.target_count - len(report.solutions):
                break
        return dict(zip(group, verify_points(system, [refined[converged[j]].l for j in group], cfg)))

    while not report.target_reached and report.cells_scanned < cfg.budget_cells:
        start = report.cells_scanned
        need = cfg.target_count - len(report.solutions)
        end = min(start + math.ceil(need / zeros_per_cell), cfg.budget_cells)
        draw(end)
        cells = walk[start:end]
        if not cells:
            break
        counted = timed("scan_s", cell_seeds, system, cells)
        report.cells_counted += len(cells)
        batch = [seed for _, seeds in counted for seed in seeds]
        refined = timed("newton_s", newton_refine, system, batch, cfg) if batch else []
        converged = [i for i, r in enumerate(refined) if r.reason is None]
        # each z_of(l) in Python complex arithmetic: a row does not depend on its batch
        rows = timed("dedup_s", system.pe.reduce, [system.z_of(refined[i].l) for i in converged])
        n = len(rows)
        d = timed("dedup_s", system.pe.torus_distances, rows[:, None], np.vstack([rows, accepted]))
        # close[i, j]: rows i and j within dedup_tol; close[i, n]: row i within it of accepted
        close = d.reshape(n, n + len(accepted)) < cfg.dedup_tol
        close = np.column_stack([close[:, :n], close[:, n:].any(axis=1)])
        row, kept = {k: j for j, k in enumerate(converged)}, np.arange(n + 1) == n
        candidates = iter(enumerate(refined))
        checked = {}
        for cell_index, (count, seeds) in enumerate(counted, start):
            if report.target_reached:
                break
            report.cells_scanned += 1
            expected[cell_index] = count
            for k, r in itertools.islice(candidates, len(seeds)):
                if report.target_reached:
                    break
                report.newton_iterations += r.steps
                if r.reason is not None:
                    report.failures.append(FailureRecord(r.l, cell_index, r.reason, r.residual))
                    continue
                j = row[k]
                if close[j, kept].any():
                    report.seeds_duplicate += 1
                    continue
                if j not in checked:
                    checked.update(timed("verify_s", verify_from, j))
                ok, vres, wind, reason, deriv = checked[j]
                if not ok:
                    report.failures.append(FailureRecord(r.l, cell_index, reason, r.residual))
                    continue
                rank = timed("jacobian_s", jacobian_rank, system, deriv)
                report.solutions.append(SolutionPoint(
                    l=r.l, z=tuple(complex(x) for x in rows[j]),
                    residual=r.residual, verified_residual=float(vres),
                    winding=int(wind), jacobian_rank=rank, cell=home(r.l)))
                kept[j] = True
                report.target_reached = len(report.solutions) >= cfg.target_count
            else:
                taken_whole.append(cell_index)
        accepted = np.vstack([accepted, rows[kept[:-1]]])
    found = Counter(s.cell for s in report.solutions)
    report.cells = [{"cell": i, "expected": n, "found": found[i]}
                    for i, n in expected.items()]
    report.incomplete_cells = [i for i in taken_whole if found[i] != expected[i]]
    report.cells_exhausted = (report.cells_scanned == class_count(shifts)
                              and not report.target_reached)
    report.timings = {"total_s": time.perf_counter() - t0, **stage}
    return report
