import dataclasses
import itertools
import math

import numpy as np
import pytest

from eac.forms import eac_certificate, hypersurface_form, zeros_per_cell
from eac.hull import kernel_lattice, rational_hull
from eac.instance import builtin_instance
from eac.multiquad import MultiQuadElem
from eac.pipeline import certify
from eac.segre import SegrePolynomial
from eac import solver
from eac.solver import (PulledBackSystem, SolverConfig, UncertifiedError,
                        box_windings, cell_seeds, class_count, coarse_scan, distinct_cells,
                        harvest_density, newton_refine, reduce_cell,
                        spiral_cells, verify_points, verify_solution)
from eac.variety import ExactSubspace, ProductVariety
from eac.weierstrass import WpFixed, jacobian_probe, theta1_logderivs
from tests.conftest import closed_form_zeros_per_cell, factor_sqrt

DIAGONAL_KERNEL = ((1, 0, 1, 0),)


def flagship_system(pe2, A2):
    F = SegrePolynomial.linear(2, {4: 1, 0: -1})
    return PulledBackSystem(F, (1, 1), A2, pe2)


def one_factor_system(A1, level=1.7):
    return PulledBackSystem(SegrePolynomial.linear(1, {1: 1, 0: -level}), (1,), A1)


def harvest(system, cfg, **kwargs):
    """harvest_density sized by the float oracle of the certificate's zeros per cell."""
    return harvest_density(system, cfg, closed_form_zeros_per_cell(system), **kwargs)


def test_spiral_first_ring_pinned():
    walker = spiral_cells()
    first9 = [next(walker) for _ in range(9)]
    assert first9 == [(0, 0), (1, 0), (1, 1), (0, 1), (-1, 1),
                      (-1, 0), (-1, -1), (0, -1), (1, -1)]


def test_spiral_covers_square_rings():
    cells = list(itertools.islice(spiral_cells(), 25))
    assert len(set(cells)) == 25
    assert set(cells) == {(p, q) for p in range(-2, 3) for q in range(-2, 3)}


def test_system_validation(A2, pe2):
    F = SegrePolynomial.linear(2, {4: 1, 0: -1})
    with pytest.raises(ValueError):
        PulledBackSystem(F, (0, 0), A2, pe2)
    A3 = ProductVariety(tuple(factor_sqrt(d) for d in (2, 3, 5)))
    with pytest.raises(ValueError):
        PulledBackSystem(F, (1, 0, 0), A3)


def test_system_evaluation_consistency(A2, pe2):
    sys_ = flagship_system(pe2, A2)
    l = 0.31 + 0.27j
    direct = pe2.eval_polynomial(sys_.F, (l, l))
    got = sys_.eval_jet(np.array([l]))[0][0]
    assert abs(got - direct) < 1e-12 * max(1.0, abs(direct))
    assert sys_.z_of(l) == (l, l)
    assert sys_.anchor == 0
    assert sys_.pole_distance(0.0) < 1e-12
    assert sys_.pole_distance(0.25 + 0.25j) > 0.1
    # anchor skips zero entries
    F1 = SegrePolynomial.linear(2, {1: 1, 0: -1.5})
    sys1 = PulledBackSystem(F1, (0, 1), A2, pe2)
    assert sys1.anchor == 1


def test_cell_box_translates_by_anchor_periods(A2, pe2):
    sys_ = flagship_system(pe2, A2)
    a = np.array([0.5])
    b = np.array([0.5])
    base = sys_.cell_box(0, 0, a, b)[0]
    right = sys_.cell_box(1, 0, a, b)[0]
    up = sys_.cell_box(0, 1, a, b)[0]
    tau1 = pe2.evals[0].tau
    assert abs(right - base - 1.0) < 1e-12
    assert abs(up - base - tau1) < 1e-12


def test_coarse_scan_finds_seed_candidates(A2, pe2):
    # the oracle keeps every local minimum of |G| on the grid, whatever its
    # size, so a seed near each zero the contour count finds
    sys_ = flagship_system(pe2, A2)
    seeds = coarse_scan(sys_, 0, 0, n=120)
    vals = [v for _, v in seeds]
    assert vals == sorted(vals) and all(np.isfinite(vals))
    count, contour = cell_seeds(sys_, [(0, 0)])[0]
    assert len(contour) == count >= 2
    step = (1 + abs(pe2.evals[0].tau)) / 120
    for root in contour:
        assert min(abs(l - root) for l, _ in seeds) < step


def test_newton_refine_converges_from_coarse_seed(A2, pe2):
    sys_ = flagship_system(pe2, A2)
    cfg = SolverConfig()
    seeds = coarse_scan(sys_, 0, 0)
    r = newton_refine(sys_, [seeds[0][0]], cfg)[0]
    assert r.reason is None
    assert r.residual < cfg.solve_tol
    assert abs(sys_.eval_jet(np.array([r.l]))[0][0]) == r.residual


def test_newton_refine_reports_pole_landing(A2, pe2):
    sys_ = flagship_system(pe2, A2)
    r = newton_refine(sys_, [0.0 + 0.0j], SolverConfig())[0]
    assert r.reason == "landed on a pole"
    # a failed seed keeps where it stopped: here the seed itself, at the pole
    assert (r.l, r.residual, r.steps) == (0j, math.inf, 0)


def central_difference_newton(system, seed, cfg, fd_step=1e-7):
    """The per-seed Newton loop with central differences, as an oracle."""
    l = complex(seed)
    for _ in range(solver.NEWTON_STEPS):
        if system.pole_distance(l) < 1e-9:
            return None
        g = system.eval_jet(np.array([l]))[0][0]
        if abs(g) < cfg.solve_tol:
            return l
        gp, gm = system.eval_jet(np.array([l + fd_step, l - fd_step]))[0]
        step = g / ((gp - gm) / (2.0 * fd_step))
        if abs(step) > 1.0:
            step = step / abs(step)
        l = l - step
    return None


@pytest.mark.parametrize("case", ["diagonal", "irrational", "one-factor"])
def test_batched_newton_matches_one_seed_batches_and_the_oracle(A1, A2, pe2, case):
    sys_ = anchor_cases(A1, A2, pe2)[case]
    cfg = SolverConfig()
    seeds = [seed for _, cell in cell_seeds(sys_, [(0, 0), (1, 0), (-1, 1)])
             for seed in cell]
    seeds.append(0j)  # a pole
    batch = newton_refine(sys_, seeds, cfg)
    assert len(batch) == len(seeds)
    for seed, got in zip(seeds, batch):
        one = newton_refine(sys_, [seed], cfg)[0]
        assert got == one and got.steps == one.steps
        want = central_difference_newton(sys_, seed, cfg)
        assert (got.reason is not None) == (want is None)
        if want is not None:
            assert abs(got.l - want) < 1e-12
            assert got.steps <= solver.NEWTON_STEPS
    assert batch[-1].reason == "landed on a pole" and batch[-1].steps == 0
    assert sum(r.reason is None for r in batch) >= 4


def test_newton_refine_refuses_an_empty_batch(A2, pe2):
    with pytest.raises(ValueError):
        newton_refine(flagship_system(pe2, A2), [], SolverConfig())


def test_newton_reports_no_convergence_after_the_step_limit(A2, pe2):
    sys_ = flagship_system(pe2, A2)
    cfg = SolverConfig(solve_tol=1e-20)
    seeds = cell_seeds(sys_, [(0, 0)])[0][1]
    for r in newton_refine(sys_, seeds, cfg):
        # the residual has its own field, and the iterate is where Newton stalled
        assert r.reason == "no convergence" and r.steps == solver.NEWTON_STEPS
        assert r.residual == abs(sys_.eval_jet(np.array([r.l]))[0][0]) >= cfg.solve_tol


def test_rank_from_the_derivative_flags_the_degenerate_touch(A2, pe2):
    # the fixture of test_weierstrass: at a simultaneous half period both
    # partials of wp1 wp2 - 1 vanish, so G' does too
    tau2 = A2.factors[1].tau
    direction = (0.5, tau2 / 2.0)
    sys_ = PulledBackSystem(flagship_system(pe2, A2).F, direction, A2, pe2)
    _, dg = sys_.eval_jet(np.array([1.0]))
    assert solver.jacobian_rank(sys_, dg[0]) == 1
    assert jacobian_probe(1.0, direction, sys_.F, A2, pe2) == 1


def test_newton_caps_each_step_at_unit_length(A2, pe2):
    # next to the degenerate touch |G / G'| is about 124, so an uncapped
    # first step would leave the cell at once
    tau2 = A2.factors[1].tau
    sys_ = PulledBackSystem(flagship_system(pe2, A2).F, (0.5, tau2 / 2.0), A2, pe2)
    g, dg = sys_.eval_jet(np.array([1.001]))
    assert abs(g[0] / dg[0]) > 100
    assert newton_refine(sys_, [1.001], SolverConfig())[0].steps > 1


def test_harvest_rank_comes_from_the_derivative(A1, A2, pe2):
    sys_ = flagship_system(pe2, A2)
    report = harvest(sys_, SolverConfig(budget_cells=2, target_count=3))
    assert report.solutions
    for s in report.solutions:
        assert s.jacobian_rank == 2 == jacobian_probe(s.l, sys_.v, sys_.F, A2, pe2)
    one = harvest(one_factor_system(A1), SolverConfig(), kernel=((1, 0), (0, 1)))
    assert one.solutions and all(s.jacobian_rank == -1 for s in one.solutions)


def test_harvest_counts_newton_iterations_and_failures_by_reason(A2, pe2, monkeypatch):
    sys_ = flagship_system(pe2, A2)
    real_seeds, real_newton = solver.cell_seeds, solver.newton_refine
    batches = []

    def seeds_with_a_pole_seed(system, cells):
        # l = (p + 1) + (q + 1) tau_1 is the anchor's pole in shifted cell (p, q)
        tau = pe2.evals[0].tau
        return [(count, [(p + 1) + (q + 1) * tau] + seeds)
                for (p, q), (count, seeds) in zip(cells, real_seeds(system, cells))]

    def recording(system, seeds, cfg):
        out = real_newton(system, seeds, cfg)
        batches.extend(out)
        return out

    monkeypatch.setattr(solver, "cell_seeds", seeds_with_a_pole_seed)
    monkeypatch.setattr(solver, "newton_refine", recording)
    report = harvest(sys_, SolverConfig(budget_cells=2, target_count=40))
    assert not report.target_reached and report.seeds_refined == len(batches)
    assert report.failures_by_reason == {"landed on a pole": 2}
    assert report.newton_iterations == sum(r.steps for r in batches) > 0
    # nothing converges below the rounding level of G
    batches.clear()
    stuck = harvest(sys_, SolverConfig(budget_cells=1, solve_tol=1e-20))
    assert stuck.defect
    assert stuck.failures_by_reason == {"landed on a pole": 1,
                                        "no convergence": stuck.seeds_refined - 1}
    assert stuck.newton_iterations == solver.NEWTON_STEPS * (stuck.seeds_refined - 1)


def anchor_cases(A1, A2, pe2):
    sqrt2 = complex(MultiQuadElem.sqrt_of(2))
    return {
        "diagonal": flagship_system(pe2, A2),
        "irrational": PulledBackSystem(SegrePolynomial.linear(2, {4: 1, 0: -1}),
                                       (1, sqrt2), A2, pe2),
        "one-factor": one_factor_system(A1),
        "anchor-1": PulledBackSystem(SegrePolynomial.linear(2, {1: 1, 0: -1.5}),
                                     (0, 1), A2, pe2),
    }


@pytest.mark.parametrize("case", ["diagonal", "irrational", "one-factor", "anchor-1"])
def test_batched_cell_counts_match_one_cell_at_a_time(A1, A2, pe2, case):
    # a chunk shares the edges of neighbouring cells and evaluates every
    # round of all its cells at once; each cell alone must count the same
    sys_ = anchor_cases(A1, A2, pe2)[case]
    cells = [(0, 0), (1, 0), (0, 1), (-5, 7)]
    batch = cell_seeds(sys_, cells)
    for cell, (count, seeds) in zip(cells, batch):
        alone_count, alone = cell_seeds(sys_, [cell])[0]
        assert count == alone_count == len(seeds) >= 1
        for seed in seeds:
            assert min(abs(seed - other) for other in alone) < 1e-6


def test_harvest_evaluates_no_grid(A2, pe2, monkeypatch):
    # the harvest evaluates G on flat arrays of contour nodes only
    sys_ = PulledBackSystem(SegrePolynomial.linear(2, {4: 1, 0: -1}),
                            (1, complex(MultiQuadElem.sqrt_of(2))), A2, pe2)
    shapes = []
    for ev in pe2.evals:
        build = ev.wp_pair_grid

        def recording(z, build=build):
            shapes.append(np.shape(z))
            return build(z)

        monkeypatch.setattr(ev, "wp_pair_grid", recording)
    report = harvest(sys_, SolverConfig(budget_cells=6, target_count=100))
    assert report.cells_scanned == 6
    assert shapes and all(len(shape) == 1 for shape in shapes)
    # counting, Newton and verification together stay far below the 40,000
    # points a 200 x 200 grid took per cell
    assert sum(shape[0] for shape in shapes) / (2 * 6) < 4000


def test_a_double_evaluation_does_not_depend_on_its_batch():
    # from 16384 points (256 KiB) on, numpy elides temporaries into in-place
    # loops that round differently; eval_jet's blocks stay below that
    system, _ = catalog_case("irrational-slope")
    rng = np.random.default_rng(11)
    l = rng.uniform(-5, 5, 20000) + 1j * rng.uniform(-5, 5, 20000)
    g, dg = system.eval_jet(l)
    alone = system.eval_jet(l[:100])
    assert g[:100].tobytes() == alone[0].tobytes() and dg[:100].tobytes() == alone[1].tobytes()


def catalog_case(name):
    inst = builtin_instance(name)
    L = certify(inst).L_used
    system = PulledBackSystem(inst.F, tuple(complex(x) for x in L.basis[0]), inst.A)
    return system, system.cell_shifts(kernel_lattice(L, inst.A))


def dense_newton_roots(system, cell, n=200):
    """Distinct roots in the shifted cell, by Newton from every grid minimum."""
    cfg = SolverConfig()
    seeds = [l for l, _ in coarse_scan(system, *cell, n=n)]
    roots = []
    for l in [r.l for r in newton_refine(system, seeds, cfg) if r.reason is None]:
        x, y = system.cell_position(l)
        if (math.floor(x), math.floor(y)) == cell and all(abs(l - r) > 1e-8 for r in roots):
            roots.append(l)
    return roots


@pytest.mark.parametrize("name, cell", [("diag-deriv-prod", (0, 1)),
                                        ("irrational-slope", (1, 0))])
def test_cell_count_matches_a_dense_newton_search(name, cell):
    system, _ = catalog_case(name)
    count, seeds = cell_seeds(system, [cell])[0]
    roots = dense_newton_roots(system, cell)
    assert count == len(roots) == len(seeds) >= 4
    # each seed stands for one zero of its box, so Newton takes each seed to a
    # different one of the oracle's roots
    refined = [r.l for r in newton_refine(system, seeds, SolverConfig()) if r.reason is None]
    assert all(min(abs(l - r) for r in roots) < 1e-9 for l in refined)
    assert len({min(range(len(roots)), key=lambda k: abs(l - roots[k])) for l in refined}) \
        == count


def test_power_sums_seed_three_zeros_beside_a_pole(A1, monkeypatch):
    # W: wp' = 1.7 on one curve: the cell's one box holds the 3 zeros and
    # the pole of order 3, and its power sums seed all three at once
    sys_ = PulledBackSystem(SegrePolynomial.linear(1, {2: 1, 0: -1.7}), (1,), A1)
    assert box_windings(sys_, [l for l, _, _ in sys_.cell_poles(0, 0)]) == [-3]
    calls = []
    real = solver.moment_roots

    def recording(sums):
        out = real(sums)
        calls.append((len(sums) - 2, out is not None))
        return out

    monkeypatch.setattr(solver, "moment_roots", recording)
    count, seeds = cell_seeds(sys_, [(0, 0)])[0]
    assert count == len(seeds) == 3 and calls == [(3, True)]
    refined = newton_refine(sys_, seeds, SolverConfig())
    assert all(r.reason is None for r in refined)
    roots = [r.l for r in refined]
    assert min(abs(a - b) for a, b in itertools.combinations(roots, 2)) > 1e-3
    for l in roots:
        x, y = sys_.cell_position(l)
        assert (math.floor(x), math.floor(y)) == (0, 0)


def test_power_sum_seeds_reach_the_zeros_that_splitting_reaches(monkeypatch):
    # with MOMENT_TOL at 0 every box of several zeros is split, as before
    # power sums seeded them; counts and Newton's zeros must not change
    system, shifts = catalog_case("diag-prod-one")
    cells = list(itertools.islice(distinct_cells(shifts), 3))
    default = cell_seeds(system, cells)
    monkeypatch.setattr(solver, "MOMENT_TOL", 0.0)
    split = cell_seeds(system, cells)
    assert default != split
    cfg = SolverConfig()
    for (count, seeds), (split_count, split_seeds) in zip(default, split):
        assert count == split_count == len(seeds) == len(split_seeds) >= 2
        got, want = (newton_refine(system, s, cfg) for s in (seeds, split_seeds))
        assert all(r.reason is None for r in got + want)
        got, want = [r.l for r in got], [r.l for r in want]
        assert all(min(abs(l - w) for w in want) < 1e-9 for l in got)
        assert all(min(abs(w - l) for l in got) < 1e-9 for w in want)


def test_moment_roots_check_the_next_power_sum():
    roots = np.array([0.1 + 0.2j, -0.3j, 0.25])
    sums = np.array([np.sum(roots ** k) for k in range(5)])
    got = solver.moment_roots(sums)
    assert got is not None and len(got) == 3
    assert all(min(abs(r - g) for g in got) < 1e-12 for r in roots)
    # a fourth zero missed by the count leaves the next power sum unmatched
    four = np.append(roots, 0.4 + 0.1j)
    assert solver.moment_roots(np.array([np.sum(four ** k) for k in range(5)])) is None
    assert solver.moment_roots(np.array([3, np.nan, 0, 0, 0])) is None


def closed_line(case, A1):
    """A line L whose exp is closed: L = C on one curve, or a rational slope on E x E."""
    if case == "one-factor":
        return one_factor_system(A1), ExactSubspace.complex_span([[1]], 1), A1, (2,)
    A = ProductVariety((factor_sqrt(2), factor_sqrt(2)), pairwise_nonisogenous=False)
    direction = {"diagonal": [1, 1], "slope-2": [1, 2], "slope-1/2": [2, 1]}[case]
    L = ExactSubspace.complex_span([direction], 2)
    system = PulledBackSystem(SegrePolynomial.linear(2, {4: 1, 0: -1}),
                              tuple(complex(x) for x in L.basis[0]), A)
    return system, L, A, (2, 2)


@pytest.mark.parametrize("case", ["one-factor", "diagonal", "slope-2", "slope-1/2"])
def test_counts_over_all_classes_equal_the_pole_density(A1, case):
    # with K of rank 2 the cells of Z^2 / K tile L / Lambda_L, whose zeros
    # equal its poles: [Z^2 : K] sum_j d_j |v_j|^2 Im tau_a / (|v_a|^2 Im tau_j)
    system, L, A, degrees = closed_line(case, A1)
    shifts = system.cell_shifts(kernel_lattice(L, A))
    classes = class_count(shifts)
    assert classes == {"slope-1/2": 4}.get(case, 1)
    density = closed_form_zeros_per_cell(system, degrees)
    counts = [count for count, _ in cell_seeds(system, list(distinct_cells(shifts)))]
    assert sum(counts) == round(classes * density)
    assert abs(classes * density - round(classes * density)) < 1e-12
    # exp(L) is closed, and meets W in the certificate's value of points,
    # which is classes times the certificate's zeros per cell
    cert = eac_certificate(hypersurface_form(*degrees), L, A, rational_hull(L, A))
    assert classes * zeros_per_cell(cert, L, A) == sum(counts) == cert.value


def test_cell_count_is_none_where_the_contour_fails(A2, pe2, monkeypatch):
    sys_ = flagship_system(pe2, A2)
    monkeypatch.setattr(sys_, "eval_jet", lambda l: (np.zeros_like(l), np.zeros_like(l)))
    assert cell_seeds(sys_, [(0, 0)]) == [(None, [])]


def test_cell_poles_merge_across_factors(A2, pe2):
    # l = 0 is a pole of both factors on the diagonal: one pole of order 4
    sys_ = flagship_system(pe2, A2)
    poles = sys_.cell_poles(-1, -1)
    assert [l for l, _, _ in poles].count(0j) == 1
    assert all(math.floor(x) == -1 and math.floor(y) == -1 for _, x, y in poles)
    # the winding box of a pole of order n winds -n
    assert box_windings(sys_, [0j, 1 + pe2.evals[0].tau]) == [-4, -2]


def test_box_windings_read_zeros_and_failures(A2, pe2):
    sys_ = flagship_system(pe2, A2)
    _, seeds = cell_seeds(sys_, [(0, 0)])[0]
    r = newton_refine(sys_, seeds[:1], SolverConfig())[0]
    assert r.reason is None
    l = r.l
    assert box_windings(sys_, [l]) == [1]
    # shifted by a box half side along the cell's first side, the box's
    # edge passes within half a grid unit of the zero, and no panel resolves
    edge = l - solver.WIND_UNITS / solver.CELL_UNITS / sys_.v[sys_.anchor]
    assert box_windings(sys_, [edge]) == [None]
    assert box_windings(sys_, []) == []


@pytest.mark.parametrize("winding, reason", [(None, "no clean winding box"),
                                             (0, "winding number zero")])
def test_verify_points_rejects_an_unclean_or_zero_winding(A2, pe2, monkeypatch, winding, reason):
    sys_ = flagship_system(pe2, A2)
    _, seeds = cell_seeds(sys_, [(0, 0)])[0]
    r = newton_refine(sys_, seeds[:1], SolverConfig())[0]
    assert r.reason is None
    l = r.l
    monkeypatch.setattr(solver, "box_windings", lambda system, ls: [winding] * len(ls))
    ok, vres, wind, why, _ = verify_points(sys_, [l], SolverConfig())[0]
    assert (ok, wind, why) == (False, 0, reason)
    assert vres < 10 * SolverConfig().solve_tol


def test_harvest_places_points_by_position_and_finds_every_counted_zero():
    system, shifts = catalog_case("irrational-slope")
    report = harvest(system, SolverConfig(target_count=40))
    assert report.target_reached and not report.incomplete_cells
    order = list(itertools.islice(distinct_cells(shifts), report.cells_scanned + 8))
    for s in report.solutions:
        x, y = system.cell_position(s.l)
        assert order[s.cell] == reduce_cell((math.floor(x), math.floor(y)), shifts)
    cells = report.cells
    assert [c["cell"] for c in cells] == list(range(report.cells_scanned))
    assert all(c["found"] == c["expected"] for c in cells[:-1])
    assert sum(c["found"] for c in cells) == len(report.solutions) == 40
    assert report.seeds_refined == 40 and report.newton_iterations <= 3 * 40


@pytest.mark.parametrize("name", ["diag-prod-one", "irrational-slope"])
def test_reported_z_is_the_verified_point(name):
    # z is the reduced row of z_of(l) bit for bit, and the residual that
    # verify_points gives at l alone is the one the report carries
    system, _ = catalog_case(name)
    cfg = SolverConfig(target_count=8)
    report = harvest(system, cfg)
    assert len(report.solutions) == 8
    for s in report.solutions:
        row = system.pe.reduce([system.z_of(s.l)])[0]
        assert np.array(s.z).tobytes() == row.tobytes()
        assert verify_points(system, [s.l], cfg)[0][1] == s.verified_residual


def test_points_are_placed_in_the_cell_that_holds_them(A2, pe2, monkeypatch):
    # every seed of the chunk is handed to its first cell, yet each point
    # lands in the cell whose count it belongs to
    real_seeds = solver.cell_seeds

    def all_in_the_first(system, cells):
        counted = real_seeds(system, cells)
        pooled = [seed for _, seeds in counted for seed in seeds]
        return [(counted[0][0], pooled)] + [(count, []) for count, _ in counted[1:]]

    monkeypatch.setattr(solver, "cell_seeds", all_in_the_first)
    report = harvest(flagship_system(pe2, A2), SolverConfig(budget_cells=3, target_count=40),
                     kernel=DIAGONAL_KERNEL)
    assert [c["found"] for c in report.cells] == [c["expected"] for c in report.cells]
    assert report.incomplete_cells == [] and report.cells_with_solutions == {0, 1, 2}


def test_harvest_names_a_cell_whose_zeros_were_not_all_found(A2, pe2, monkeypatch):
    real_seeds = solver.cell_seeds

    def one_seed_short(system, cells):
        return [(count, seeds[1:]) for count, seeds in real_seeds(system, cells)]

    monkeypatch.setattr(solver, "cell_seeds", one_seed_short)
    report = harvest(flagship_system(pe2, A2), SolverConfig(budget_cells=2, target_count=40),
                     kernel=DIAGONAL_KERNEL)
    assert report.incomplete_cells == [0, 1]
    assert all(c["found"] == c["expected"] - 1 for c in report.cells)


def test_verify_solution_sums_to_the_30_digit_tail_bound(A2, pe2, monkeypatch):
    lengths = []

    def recording(v, vi, v_minus_vi, p, rho, one):
        lengths.append(len(rho) - 1)
        return theta1_logderivs(v, vi, v_minus_vi, p, rho, one)

    monkeypatch.setattr("eac.weierstrass.theta1_logderivs", recording)
    verify_solution(flagship_system(pe2, A2), 0.31 + 0.27j, SolverConfig())
    assert lengths == [WpFixed(ev.tau).theta_terms for ev in pe2.evals]
    assert all(n > ev.theta_terms for n, ev in zip(lengths, pe2.evals))
    # terms of size |p|^(m^2), p = exp(i pi tau): at most 5 at i sqrt 2 and 4 at i sqrt 5
    assert [ev.tau for ev in pe2.evals] == [1j * math.sqrt(2), 1j * math.sqrt(5)]
    assert lengths[0] <= 5 and lengths[1] <= 4


def test_verify_solution_accepts_true_roots_rejects_perturbed(A2, pe2):
    sys_ = flagship_system(pe2, A2)
    cfg = SolverConfig()
    seeds = coarse_scan(sys_, 0, 0)
    r = newton_refine(sys_, [seeds[0][0]], cfg)[0]
    assert r.reason is None
    l = r.l
    ok, vres, wind, reason, _ = verify_solution(sys_, l, cfg)
    assert ok and reason == ""
    assert vres < 10 * cfg.solve_tol
    assert wind >= 1
    # a nearby non-root must fail the doubled-precision residual gate
    bad_ok, bad_vres, _, bad_reason, _ = verify_solution(sys_, l + 1e-4, cfg)
    assert not bad_ok
    assert bad_vres > 10 * cfg.solve_tol
    assert "residual" in bad_reason


def test_harvest_requires_certification(A2, pe2):
    # a vanished certificate reads as no zeros per cell, which the harvest refuses
    sys_ = flagship_system(pe2, A2)
    for zeros_per_cell in (0.0, -1.0, math.nan):
        with pytest.raises(UncertifiedError, match="nonzero certificate"):
            harvest_density(sys_, SolverConfig(), zeros_per_cell)


def test_harvest_flagship_small_budget(A2, pe2):
    sys_ = flagship_system(pe2, A2)
    cfg = SolverConfig(budget_cells=4, target_count=6)
    report = harvest(sys_, cfg)
    assert report.solutions
    assert report.cells_scanned <= 4
    for s in report.solutions:
        assert s.residual < cfg.solve_tol
        assert s.verified_residual < 10 * cfg.solve_tol
        assert s.winding >= 1
        assert isinstance(s.l, complex) and not isinstance(s.l, np.complexfloating)
    # pairwise distinct as points of the product variety
    for i, s in enumerate(report.solutions):
        for t in report.solutions[i + 1:]:
            assert A2.torus_distance(s.z, t.z) > cfg.dedup_tol
    stages = ("scan_s", "newton_s", "dedup_s", "verify_s", "jacobian_s")
    assert set(report.timings) == {"total_s", *stages}
    assert report.timings["newton_s"] > 0 and report.timings["verify_s"] > 0
    assert all(s.jacobian_rank == 2 for s in report.solutions)
    assert sum(report.timings[k] for k in stages) <= report.timings["total_s"]


def test_p_translate_cells_give_the_same_points(A2, pe2):
    # for the diagonal direction, cell (1, 0) shifts l by one, which moves
    # exp(l v) by the lattice vector (1, 1): both cells hold the same points
    sys_ = flagship_system(pe2, A2)
    cfg = SolverConfig()

    def refined_zs(p, q):
        zs = []
        seeds = cell_seeds(sys_, [(p, q)])[0][1]
        for l in [r.l for r in newton_refine(sys_, seeds, cfg) if r.reason is None]:
            z = pe2.reduce([sys_.z_of(l)])[0]
            if all(A2.torus_distance(z, w) > cfg.dedup_tol for w in zs):
                zs.append(z)
        return zs

    def same_points(xs, ys):
        return all(any(A2.torus_distance(x, y) < cfg.dedup_tol for y in ys) for x in xs)

    here, right = refined_zs(0, 0), refined_zs(1, 0)
    assert len(here) >= 2
    assert len(right) == len(here)
    assert same_points(here, right) and same_points(right, here)
    assert sys_.cell_shifts(DIAGONAL_KERNEL) == ((1, 0),)


@pytest.mark.parametrize("shifts", [(), ((1, 0),), ((2, 0),), ((1, 1),),
                                    ((0, 3),), ((2, 1), (0, 3)), ((1, 0), (0, 1))])
def test_walk_yields_one_cell_per_class(shifts):
    cells = list(itertools.islice(distinct_cells(shifts), 40))
    total = class_count(shifts)
    assert len(cells) == (40 if total is None else min(total, 40))
    assert all(reduce_cell(c, shifts) == c for c in cells)
    assert len(set(cells)) == len(cells)
    # two cells share a class iff their difference lies in K
    for c in cells:
        for k in shifts:
            assert reduce_cell((c[0] + 3 * k[0], c[1] + 3 * k[1]), shifts) == c
            assert reduce_cell((c[0] - 2 * k[0], c[1] - 2 * k[1]), shifts) == c
    if not shifts:
        assert cells == list(itertools.islice(spiral_cells(), 40))


def test_walk_modulo_a_rank_one_kernel_visits_rows():
    assert list(itertools.islice(distinct_cells(((1, 0),)), 5)) == [
        (0, 0), (0, 1), (0, -1), (0, 2), (0, -2)]
    # K = Z(2, 0) leaves two classes in each row
    assert list(itertools.islice(distinct_cells(((2, 0),)), 6)) == [
        (0, 0), (1, 0), (1, 1), (0, 1), (1, -1), (0, -1)]
    assert list(distinct_cells(((2, 1), (0, 3)))) == [
        (0, 0), (1, 0), (1, 1), (0, 1), (1, 2), (0, 2)]
    assert class_count(((2, 1), (0, 3))) == 6


@pytest.mark.parametrize("direction, shifts", [
    ((1, 1), ((1, 0),)),
    ((1, 2), ((1, 0),)),
    ((2, 1), ((2, 0),)),
    ((1, MultiQuadElem.sqrt_of(2)), ()),
])
def test_cell_shift_lattice_per_direction(A2, pe2, direction, shifts):
    L = ExactSubspace.complex_span([direction], 2)
    F = SegrePolynomial.linear(2, {4: 1, 0: -1})
    sys_ = PulledBackSystem(F, tuple(complex(x) for x in L.basis[0]), A2, pe2)
    assert sys_.cell_shifts(kernel_lattice(L, A2)) == shifts


def test_one_factor_kernel_has_rank_two_and_index_one(A1):
    L = ExactSubspace.complex_span([[1]], 1)
    shifts = one_factor_system(A1).cell_shifts(kernel_lattice(L, A1))
    assert len(shifts) == 2
    assert class_count(shifts) == 1


def test_one_factor_harvest_scans_one_cell(A1):
    # wp = 1.7 has two roots per period cell, and every l-cell is a period
    # cell, so a walk of the whole plane would only re-find those two
    sys_ = one_factor_system(A1)
    report = harvest(sys_, SolverConfig(target_count=30), kernel=((1, 0), (0, 1)))
    assert report.cells_scanned == 1
    assert len(report.solutions) == 2
    assert report.cells_exhausted
    assert not report.budget_exhausted
    assert not report.target_reached
    assert not report.defect
    assert report.seeds_refined == (len(report.solutions) + len(report.failures)
                                    + report.seeds_duplicate)


def test_harvest_counts_duplicate_seeds(A2, pe2):
    sys_ = flagship_system(pe2, A2)
    cfg = SolverConfig(budget_cells=2, target_count=40)
    plain = harvest(sys_, cfg)
    walked = harvest(sys_, cfg, kernel=DIAGONAL_KERNEL)
    for r in (plain, walked):
        assert r.seeds_refined == len(r.solutions) + len(r.failures) + r.seeds_duplicate
    # the plain walk's second cell is (1, 0), a translate of (0, 0)
    assert plain.seeds_duplicate >= len(plain.solutions)
    assert len(walked.solutions) > len(plain.solutions)
    assert walked.seeds_duplicate < plain.seeds_duplicate


def test_harvest_deterministic_across_thread_counts(A2, pe2, monkeypatch):
    # the harvest runs on one thread and reads no EAC_THREADS
    sys_ = flagship_system(pe2, A2)
    cfg = SolverConfig(budget_cells=6, target_count=8)
    monkeypatch.setenv("EAC_THREADS", "1")
    serial = harvest(sys_, cfg)
    monkeypatch.setenv("EAC_THREADS", "2")
    threaded = harvest(sys_, cfg)
    key = lambda r: [(s.l, s.z, s.residual, s.verified_residual, s.winding, s.cell)
                     for s in r.solutions]
    assert key(serial) == key(threaded)
    assert serial.cells == threaded.cells
    assert serial.cells_scanned == threaded.cells_scanned
    assert serial.seeds_refined == threaded.seeds_refined


def test_harvest_respects_target(A2, pe2):
    sys_ = flagship_system(pe2, A2)
    report = harvest(sys_, SolverConfig(budget_cells=10, target_count=2))
    assert len(report.solutions) == 2
    assert report.target_reached
    assert not report.budget_exhausted
    assert not report.defect


def reject_every_point(system, ls, cfg):
    return [(False, 1.0, 0, "doubled-precision residual too large", 1.0)] * len(ls)


def test_harvest_defect_flag_when_nothing_survives(A2, pe2, monkeypatch):
    # a verification that rejects every point is exactly the
    # certified-but-empty defect condition
    monkeypatch.setattr(solver, "verify_points", reject_every_point)
    sys_ = flagship_system(pe2, A2)
    report = harvest(sys_, SolverConfig(budget_cells=3))
    assert not report.solutions
    assert report.incomplete_cells == [0, 1, 2]
    assert report.budget_exhausted
    assert not report.cells_exhausted
    assert report.defect


def test_harvest_defect_when_every_distinct_cell_is_empty(A1, monkeypatch):
    monkeypatch.setattr(solver, "verify_points", reject_every_point)
    report = harvest(one_factor_system(A1), SolverConfig(), kernel=((1, 0), (0, 1)))
    assert report.cells_scanned == 1
    assert report.cells_exhausted
    assert not report.budget_exhausted
    assert report.defect


def test_config_replace_is_functional():
    cfg = SolverConfig()
    cfg2 = dataclasses.replace(cfg, seed=7, budget_cells=5)
    assert cfg2.seed == 7 and cfg2.budget_cells == 5
    assert cfg.seed == 0 and cfg.budget_cells == 64
    with pytest.raises(Exception):
        cfg.seed = 3
    with pytest.raises(ValueError, match="budget_cells"):
        dataclasses.replace(cfg, budget_cells=0)
