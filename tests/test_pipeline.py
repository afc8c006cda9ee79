import dataclasses
import itertools
import json
import math
import statistics
import sys

import numpy as np
import pytest

from eac import hull, pipeline
from eac.forms import eac_certificate, hypersurface_form, zeros_per_cell
from eac.hull import kernel_lattice, rational_hull
from eac.instance import builtin_instance, catalog_dicts, catalog_names, instance_from_dict
from eac.pipeline import (BidegreeMismatch, certify, decide, density_summary,
                          resolve_w, solve)
from eac.segre import SegrePolynomial, segre_stack
from eac import solver
from eac.solver import PulledBackSystem, SolverConfig
from eac.weierstrass import _qseries_terms, jacobian_probe
from tests.conftest import closed_form_zeros_per_cell, one_curve_dict, tiny_monomial_dict
from tests.reference import lift_mp, mp_of, theta_sums

SMALL = SolverConfig(budget_cells=4, target_count=3)
# the catalog instances with a nonzero certificate and a one-dimensional L
HARVESTABLE = ("anti-diagonal", "diag-cross-deriv", "diag-deriv-match", "diag-deriv-prod",
               "diag-prod-one", "diag-prod-two", "diag-sum-three", "irrational-slope",
               "rational-slope")


def variant(name, **edits):
    data = json.loads(json.dumps(catalog_dicts()[name]))
    for key, value in edits.items():
        data[key] = value
    return instance_from_dict(data)


def test_resolve_w_measures_when_missing(flagship):
    data = json.loads(json.dumps(flagship.raw))
    del data["W"]["bidegree"]
    inst = instance_from_dict(data)
    assert inst.W.bidegree is None
    W, measured = resolve_w(inst)
    assert measured == (2, 2)
    assert W.bidegree == (2, 2)
    # the evaluator only supplies g2 and g3, so the rule needs none
    assert resolve_w(inst) == (W, measured)


def test_resolve_w_cross_checks_on_always(flagship):
    # a declared bidegree is checked against W's polynomial on every call
    W, measured = resolve_w(flagship)
    assert W == flagship.W and measured == (2, 2)
    data = json.loads(json.dumps(flagship.raw))
    data["W"]["bidegree"] = [1, 1]
    bad = instance_from_dict(data)
    with pytest.raises(BidegreeMismatch, match=r"declared bidegree \(1, 1\)"):
        resolve_w(bad)
    # and the mismatch propagates through decide
    with pytest.raises(BidegreeMismatch):
        decide(bad)


def test_resolve_w_reads_a_tiny_monomial():
    inst = instance_from_dict(tiny_monomial_dict())
    W, measured = resolve_w(inst)
    assert measured == W.bidegree == (2, 0)
    free = decide(inst).verdicts.free
    assert free.ok is False
    assert free.witness == "W is a union of translates of factor 2"


def test_decide_flagship_composition(flagship):
    decision = decide(flagship)
    assert decision.verdicts.certified_ready
    assert decision.W_effective.bidegree == (2, 2)
    assert decision.hull.dim == 3
    assert [s.dim for s in decision.chain.chain] == [1, 3, 2]


def test_decide_computes_the_hull_of_L_once(flagship, monkeypatch):
    calls = []
    real = hull.rational_hull

    def counting(L, A):
        calls.append(L)
        return real(L, A)

    monkeypatch.setattr(hull, "rational_hull", counting)
    decision = decide(flagship)
    assert sum(1 for L in calls if L is flagship.L) == 1
    assert decision.hull is decision.chain.hull
    assert decision.hull == real(flagship.L, flagship.A)


def test_certify_flagship(flagship):
    out = certify(flagship)
    assert not out.refused
    assert out.reason is None
    assert out.certificate.value_str == "2*sqrt(5)+2*sqrt(2)"
    assert out.L_used is flagship.L


def test_certify_refusals_name_their_witness():
    out = certify(builtin_instance("axis-line"))
    assert out.refused
    assert out.reason == "not free: L lies in the subproduct of factors [1]"
    assert out.certificate is None
    out = certify(builtin_instance("fiber-wp1"))
    assert out.refused
    assert "union of translates of factor 2" in out.reason


def test_certify_reduces_oversized_parameter_space(flagship):
    data = json.loads(json.dumps(flagship.raw))
    data["L"]["basis"] = [["1", "0"], ["0", "1"]]
    inst = instance_from_dict(data)
    assert inst.L.dim == 2
    out = certify(inst)
    assert not out.refused
    assert out.L_used.dim == 1
    assert out.L_used is not inst.L
    assert out.certificate.nonzero
    # the cut is seeded, so reruns agree
    again = certify(inst)
    assert again.L_used.basis == out.L_used.basis
    assert again.certificate.value == out.certificate.value


def test_certify_computes_each_hull_once(flagship, monkeypatch):
    # the certificate pairs against decide's hull of a line; L = C^2 adds
    # only the hull of the line it is cut down to
    calls = []
    real = hull.rational_hull

    def counting(L, A):
        calls.append(L.dim)
        return real(L, A)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "eac" and getattr(module, "rational_hull", None) is real:
            monkeypatch.setattr(module, "rational_hull", counting)
    for name in catalog_names():
        calls.clear()
        certify(builtin_instance(name))
        assert calls == [1], name
    data = json.loads(json.dumps(flagship.raw))
    data["L"]["basis"] = [["1", "0"], ["0", "1"]]
    calls.clear()
    assert certify(instance_from_dict(data)).certificate.nonzero
    assert calls == [2, 1]


def test_solve_flagship_small_budget(flagship):
    out = solve(dataclasses.replace(flagship, config=SMALL))
    assert out.exit_code == 0
    assert not out.certify.refused
    assert out.report.solutions
    for s in out.report.solutions:
        assert s.winding >= 1
        assert s.jacobian_rank in (1, 2)
    assert any(s.jacobian_rank == 2 for s in out.report.solutions)


def test_solve_anti_diagonal_reaches_its_target():
    # exp has the kernel Z(1, 0, -1, 0) on this line; walking every cell of
    # the plane stopped at 27 of 30 points within the 64-cell budget
    inst = builtin_instance("anti-diagonal")
    assert inst.config.target_count == 30
    out = solve(inst)
    assert out.exit_code == 0
    assert len(out.report.solutions) == 30
    assert out.report.target_reached
    assert out.report.cells_scanned <= 16


def test_solve_refuses_before_scanning():
    out = solve(builtin_instance("axis-line"))
    assert out.exit_code == 4
    assert out.report is None
    assert out.certify.refused


def test_solve_reports_certified_emptiness(flagship, monkeypatch):
    # a verification that rejects every point leaves the harvest empty
    monkeypatch.setattr(solver, "verify_points", lambda system, ls, cfg: [(
        False, 1.0, 0, "doubled-precision residual too large", 1.0)] * len(ls))
    cfg = SolverConfig(budget_cells=1)
    out = solve(dataclasses.replace(flagship, config=cfg))
    assert out.exit_code == 5
    assert out.certify.certificate.nonzero
    assert out.report.defect


def test_density_summary_statistics(flagship):
    out = solve(dataclasses.replace(flagship, config=SolverConfig(budget_cells=6, target_count=5)))
    stats = density_summary(flagship, out.report)
    assert stats["points"] == len(out.report.solutions) >= 2
    assert stats["cells"] == len(out.report.cells_with_solutions)
    assert 0 < stats["min_pairwise_distance"] <= stats["median_nearest_distance"]
    assert sum(n for _, n in stats["per_cell"]) == stats["points"]
    assert stats["per_cell"] == sorted(stats["per_cell"])
    # the scalar torus_distance is the oracle for the vectorized rows
    zs = [s.z for s in out.report.solutions]
    nearest = [min(flagship.A.torus_distance(p, q) for j, q in enumerate(zs) if j != i)
               for i, p in enumerate(zs)]
    assert stats["min_pairwise_distance"] == pytest.approx(min(nearest), rel=1e-12)
    assert stats["median_nearest_distance"] == pytest.approx(
        statistics.median(nearest), rel=1e-12)


def test_density_summary_degenerate_sizes(flagship):
    out = solve(dataclasses.replace(flagship, config=SolverConfig(budget_cells=2, target_count=1)))
    stats = density_summary(flagship, out.report)
    assert stats["points"] == 1
    assert stats["min_pairwise_distance"] is None
    assert stats["median_nearest_distance"] is None


def test_catalog_verdicts_and_certificates_agree():
    for name in catalog_names():
        inst = builtin_instance(name)
        out = certify(inst)
        ready = out.decision.verdicts.certified_ready
        assert out.refused == (not ready), name
        if out.refused:
            assert out.reason, name
        else:
            assert out.certificate.nonzero, name


def test_certify_refuses_exactly_when_it_has_no_certificate():
    # a free and rotund pair always gets a nonzero certificate, so a refusal
    # is the absence of one, and it names its reason
    squared = json.loads(json.dumps(catalog_dicts()["diag-prod-one"]))
    squared["W"] = {"kind": "segre-hypersurface", "dim": 1, "monomials": [
        {"exponents": [0, 0, 0, 0, 0, 0, 2, 0, 0], "re": 1.0},
        {"exponents": [0, 1, 0, 0, 0, 0, 0, 0, 0], "re": -1.0}]}
    instances = [builtin_instance(name) for name in catalog_names()]
    instances += [instance_from_dict(one_curve_dict("g1", terms))
                  for terms in ([([0, 1, 0], 1.0), ([1, 0, 0], -2.0)],
                                [([0, 1, 0], 1.0), ([1, 0, 0], -1.7)],
                                [([0, 0, 1], 1.0), ([1, 0, 0], -1.7)])]
    instances.append(instance_from_dict(squared))
    for inst in instances:
        out = certify(inst)
        assert out.refused is (out.certificate is None), inst.label
        assert out.refused is not out.decision.verdicts.certified_ready, inst.label
        assert (out.reason is not None) is out.refused, inst.label
        assert out.refused or out.certificate.nonzero, inst.label
    assert sum(certify(inst).refused for inst in instances) == 5
    assert certify(instances[-1]).certificate.value_str == "6*sqrt(5)+2*sqrt(2)"


def catalog_system(name):
    inst = builtin_instance(name)
    out = certify(inst)
    assert not out.refused and out.L_used.dim == 1, name
    direction = tuple(complex(x) for x in out.L_used.basis[0])
    return inst, PulledBackSystem(inst.F, direction, inst.A)


def test_harvestable_list_is_every_certified_catalog_instance():
    assert tuple(n for n in catalog_names() if not certify(builtin_instance(n)).refused) \
        == HARVESTABLE


@pytest.mark.parametrize("name", HARVESTABLE)
def test_harvest_ranks_match_the_jacobian_probe(name):
    inst, system = catalog_system(name)
    out = solve(inst)
    assert out.exit_code == 0 and out.report.solutions
    for s in out.report.solutions:
        assert s.jacobian_rank == jacobian_probe(s.l, system.v, inst.F, inst.A), (name, s.l)
    # every cell before the one that reached the target gave all its zeros
    assert not out.report.incomplete_cells
    assert all(c["found"] == c["expected"] for c in out.report.cells[:-1]), name


def harvest_fields(report):
    """A harvest report's fields, less its timings, its closed form and the cells it counted."""
    out = dataclasses.asdict(report)
    del out["timings"], out["closed_form_mean"], out["cells_counted"]
    return out


@pytest.fixture
def harvest_calls(monkeypatch):
    """What the harvest hands on: each cell_seeds result and each newton_refine batch."""
    calls = {"counted": [], "refined": []}
    real_seeds, real_newton = solver.cell_seeds, solver.newton_refine

    def counting(system, cells):
        calls["counted"].append(real_seeds(system, cells))
        return calls["counted"][-1]

    def refining(system, seeds, cfg):
        calls["refined"].extend(seeds)
        return real_newton(system, seeds, cfg)

    monkeypatch.setattr(solver, "cell_seeds", counting)
    monkeypatch.setattr(solver, "newton_refine", refining)
    return calls


def seeds_of(chunks):
    """The seeds of every cell in a list of cell_seeds results, in walk order."""
    return [seed for counted in chunks for _, seeds in counted for seed in seeds]


@pytest.mark.parametrize("name", HARVESTABLE)
def test_the_certificate_sizes_every_chunk(name, harvest_calls):
    inst = builtin_instance(name)
    for target in (30, 60):
        for made in harvest_calls.values():
            made.clear()
        cfg = dataclasses.replace(inst.config, target_count=target)
        report = solve(dataclasses.replace(inst, config=cfg)).report
        chunks = harvest_calls["counted"]
        assert report.target_reached, (name, target)
        assert len(chunks[0]) == math.ceil(target / report.closed_form_mean), (name, target)
        # every counted cell is scanned, and Newton sees exactly their seeds
        assert len(report.cells) == report.cells_scanned == report.cells_counted, (name, target)
        assert report.cells_counted == sum(map(len, chunks)), (name, target)
        assert harvest_calls["refined"] == seeds_of(chunks), (name, target)
        # the cells short of the mean leave one harvest a second chunk
        want = [8, 1] if (name, target) == ("diag-cross-deriv", 30) else [report.cells_counted]
        assert list(map(len, chunks)) == want, (name, target)


@pytest.mark.parametrize("name", ["diag-prod-one", "irrational-slope"])
def test_an_overestimated_mean_costs_a_chunk_not_a_point(name, harvest_calls, monkeypatch):
    inst = builtin_instance(name)
    cfg = dataclasses.replace(inst.config, target_count=60)
    once = solve(dataclasses.replace(inst, config=cfg)).report
    real_mean = pipeline.zeros_per_cell
    monkeypatch.setattr(pipeline, "zeros_per_cell",
                        lambda cert, L, A: 2 * real_mean(cert, L, A))
    harvest_calls["counted"].clear()
    twice = solve(dataclasses.replace(inst, config=cfg)).report
    assert twice.closed_form_mean == 2 * once.closed_form_mean
    assert len(harvest_calls["counted"]) >= 2, name
    # every chunk that cell_seeds counted is in cells_counted, taken or not
    assert twice.cells_counted == sum(map(len, harvest_calls["counted"])), name
    assert twice.cells_counted >= twice.cells_scanned
    assert harvest_fields(twice) == harvest_fields(once), name


@pytest.mark.parametrize("name", ["diag-prod-one", "irrational-slope"])
def test_an_underestimated_mean_costs_newton_work_not_a_point(name, harvest_calls, monkeypatch):
    inst = builtin_instance(name)
    cfg = dataclasses.replace(inst.config, target_count=60)
    once = solve(dataclasses.replace(inst, config=cfg)).report
    real_mean = pipeline.zeros_per_cell
    monkeypatch.setattr(pipeline, "zeros_per_cell",
                        lambda cert, L, A: real_mean(cert, L, A) / 2)
    for made in harvest_calls.values():
        made.clear()
    half = solve(dataclasses.replace(inst, config=cfg)).report
    assert half.closed_form_mean == once.closed_form_mean / 2
    # the cells past the target are counted and refined, and reported nowhere
    assert half.cells_counted > half.cells_scanned, name
    assert harvest_calls["refined"] == seeds_of(harvest_calls["counted"]), name
    assert harvest_fields(half) == harvest_fields(once), name


def certificate_zeros_per_cell(inst, degrees=None):
    """forms.zeros_per_cell of inst's certificate, with W's class of the given degrees."""
    out = certify(inst)
    assert not out.refused, inst.label
    L = out.L_used
    cert = out.certificate
    if degrees is not None:
        cert = eac_certificate(hypersurface_form(*degrees), L, inst.A, rational_hull(L, inst.A))
    return zeros_per_cell(cert, L, inst.A)


def test_zeros_per_cell_is_the_pulled_back_class():
    r = math.sqrt(2 / 5)
    flagship = builtin_instance("diag-prod-one")
    # d_j counts W's points on a fiber of factor j: (3, 2) and (2, 3) differ
    assert certificate_zeros_per_cell(flagship, (3, 2)) == pytest.approx(3 + 2 * r, rel=1e-15)
    assert certificate_zeros_per_cell(flagship, (2, 3)) == pytest.approx(2 + 3 * r, rel=1e-15)
    # v = (1, 2): |v_2|^2 = 4
    steep = builtin_instance("rational-slope")
    assert certificate_zeros_per_cell(steep, (2, 2)) == pytest.approx(2 + 8 * r, rel=1e-15)
    # on one curve every cell is a period cell, holding d zeros
    for terms, d in (([([0, 1, 0], 1.0), ([1, 0, 0], -1.7)], 2),
                     ([([0, 0, 1], 1.0), ([1, 0, 0], -1.7)], 3)):
        assert certificate_zeros_per_cell(instance_from_dict(one_curve_dict("g1", terms))) == d


SQRT2 = {"tau_re": "0", "tau_im": {"d": 2, "q": "1"}}
SQRT5 = {"tau_re": "0", "tau_im": {"d": 5, "q": "1"}}
# the flagship with its factors' tau or its L replaced
ZEROS_PER_CELL_VARIANTS = {
    "tau2=tau1": lambda: variant("diag-prod-one", factors=[SQRT2, SQRT2], assertions={}),
    "sheared": lambda: variant("diag-prod-one", factors=[dict(SQRT2, tau_re="1/2"), SQRT5],
                               L={"basis": [["1", "-3"]]}),
    "complex-entry": lambda: variant("diag-prod-one",
                                     L={"basis": [[{"re": "1", "im": "1"}, "2"]]}),
    # L = C^2 is cut to the line (1, 3/4), which the harvest walks
    "cut-plane": lambda: variant("diag-prod-one", L={"basis": [["1", "0"], ["0", "1"]]},
                                 solver={"seed": 1}),
}


@pytest.mark.parametrize("name", HARVESTABLE + tuple(ZEROS_PER_CELL_VARIANTS))
def test_zeros_per_cell_matches_the_float_oracle(name):
    make = ZEROS_PER_CELL_VARIANTS.get(name)
    inst = make() if make else builtin_instance(name)
    out = certify(inst)
    L = out.L_used
    system = PulledBackSystem(inst.F, tuple(complex(x) for x in L.basis[0]), inst.A)
    want = closed_form_zeros_per_cell(system)
    assert zeros_per_cell(out.certificate, L, inst.A) == pytest.approx(want, rel=1e-15), name


def test_closed_exp_l_meets_w_in_the_certificate_count():
    # tau_2 = tau_1 closes the diagonal: Lambda_L has rank 2, one cell
    # covers exp(L), and it meets W in exactly the certificate's 4 points
    inst = ZEROS_PER_CELL_VARIANTS["tau2=tau1"]()
    out = solve(inst)
    assert out.exit_code == 0
    assert out.certify.certificate.value == 4
    report = out.report
    assert report.cells_exhausted and report.cells_scanned == 1
    assert len(report.solutions) == 4 == report.closed_form_mean
    stats = density_summary(inst, report)
    assert stats["points"] == 4 and stats["cells"] == 1


@pytest.mark.parametrize("name, closed_form", [
    ("diag-prod-one", 2 + 2 * math.sqrt(2 / 5)),
    ("irrational-slope", 2 + 4 * math.sqrt(2 / 5)),
])
def test_measured_mean_count_matches_the_closed_form(name, closed_form):
    inst = builtin_instance(name)
    config = dataclasses.replace(inst.config, budget_cells=100, target_count=100000)
    out = solve(dataclasses.replace(inst, config=config))
    assert out.report.cells_scanned == 100
    stats = density_summary(inst, out.report)
    assert stats["closed_form_zeros_per_cell"] == pytest.approx(closed_form, rel=1e-12)
    assert stats["mean_zeros_per_cell"] == pytest.approx(closed_form, rel=0.01), name


# Zeros in the first cells of the walk, each cell shifted by 0.0137 e1 +
# 0.0211 e2, from the winding of G on 1000 samples per side plus pole
# orders measured on circles of radius 1e-3: an independent boundary count.
REFERENCE_COUNTS = {
    "anti-diagonal": (18, 59), "diag-cross-deriv": (22, 84), "diag-deriv-match": (25, 105),
    "diag-deriv-prod": (29, 142), "diag-prod-one": (18, 59), "diag-prod-two": (18, 59),
    "diag-sum-three": (21, 66), "irrational-slope": (18, 77), "rational-slope": (13, 92),
}


@pytest.mark.parametrize("name", HARVESTABLE)
def test_cell_counts_match_an_independent_boundary_count(name, monkeypatch):
    monkeypatch.setattr(solver, "CELL_OFFSET", (0.0137, 0.0211))
    inst, system = catalog_system(name)
    shifts = system.cell_shifts(kernel_lattice(certify(inst).L_used, inst.A))
    ncells, zeros = REFERENCE_COUNTS[name]
    cells = list(itertools.islice(solver.distinct_cells(shifts), ncells))
    assert sum(count for count, _ in solver.cell_seeds(system, cells)) == zeros


@pytest.mark.parametrize("name", HARVESTABLE)
def test_every_resolved_cell_gets_one_seed_per_zero(name):
    # a box's power sums give all of its zeros at once, never their mean
    inst, system = catalog_system(name)
    shifts = system.cell_shifts(kernel_lattice(certify(inst).L_used, inst.A))
    cells = list(itertools.islice(solver.distinct_cells(shifts), 20))
    counted = solver.cell_seeds(system, cells)
    assert all(count is not None for count, _ in counted), name
    assert all(len(seeds) == count for count, seeds in counted), name


@pytest.mark.parametrize("name, zeros", [("diag-prod-one", 326), ("irrational-slope", 452)])
def test_a_100_cell_harvest_finds_every_counted_zero(name, zeros):
    inst, _ = catalog_system(name)
    cfg = dataclasses.replace(inst.config, budget_cells=100, target_count=100000)
    report = solve(dataclasses.replace(inst, config=cfg)).report
    assert report.cells_scanned == 100
    assert sum(c["expected"] for c in report.cells) == len(report.solutions) == zeros
    assert all(c["found"] == c["expected"] for c in report.cells)
    assert report.incomplete_cells == [] and report.seeds_duplicate == 0


def mp_value(system, l, zs=None):
    """G at l, an mpmath number, from the theta series at working precision.

    zs, when given, replaces the products l c_j: the value is then F(exp(z))
    at the point the solver evaluates, system.z_of(l) in doubles.
    """
    from mpmath import mp

    one, two_pi_i = mp.mpf(1), 2j * mp.pi
    wps, wpps = [], []
    for j, (ev, c) in enumerate(zip(system.pe.evals, system.v)):
        tau = mp.mpc(ev.tau.real, ev.tau.imag)
        z = l * mp.mpc(c.real, c.imag) if zs is None else mp.mpc(zs[j].real, zs[j].imag)
        shift = complex(z) - ev.reduce(complex(z))
        b = round(shift.imag / ev.tau.imag)
        a = round(shift.real - b * ev.tau.real)
        u = mp.exp(two_pi_i * (z - a - b * tau))
        s, sp = theta_sums(u, mp.exp(two_pi_i * tau), _qseries_terms(ev.tau, 1e-40), one)
        wps.append(two_pi_i ** 2 * s)
        wpps.append(two_pi_i ** 3 * sp)
    return system.F.eval_affine(segre_stack(wps, wpps, one))


@pytest.mark.parametrize("name", HARVESTABLE)
def test_verified_residual_matches_60_digits(name):
    from mpmath import mp

    inst, system = catalog_system(name)
    # every point of the 60-point harvest of `eac density`, far cells included
    cfg = dataclasses.replace(inst.config, target_count=60, budget_cells=64)
    out = solve(dataclasses.replace(inst, config=cfg))
    assert len(out.report.solutions) == 60, name
    for s in out.report.solutions:
        # at the doubles z_of(l), as verification evaluates: an irrational
        # direction puts l c_j off the double grid by about 1e-16 |z|
        with mp.workdps(60):
            want = abs(mp_value(system, s.l, system.z_of(s.l)))
        assert abs(s.verified_residual - want) <= 1e-25, (name, s.l)
    # a point moved off the root fails the residual gate
    for s in out.report.solutions[:5]:
        ok, _, _, reason, _ = solver.verify_solution(system, s.l + 1e-6, cfg)
        assert not ok and reason == "doubled-precision residual too large", (name, s.l)


@pytest.mark.parametrize("name", HARVESTABLE + ("one-factor",))
def test_verify_points_matches_verify_solution_point_by_point(name, A1):
    if name == "one-factor":
        cfg = SolverConfig(budget_cells=4, target_count=3)
        systems = [(system, solver.harvest_density(system, cfg,
                                                   closed_form_zeros_per_cell(system)))
                   for system in one_factor_systems(A1)]
    else:
        inst, system = catalog_system(name)
        cfg = dataclasses.replace(inst.config, target_count=5)
        systems = [(system, solve(dataclasses.replace(inst, config=cfg)).report)]
    for system, report in systems:
        points = report.solutions
        assert points, name
        ls = [s.l for s in points] + [s.l + 1e-6 for s in points]
        # |z| = 0.02 in the anchor factor: 1 - u comes from expm1 inside the batch
        ls.insert(1, 0.02 / system.v[system.anchor])
        batch = solver.verify_points(system, ls, cfg)
        assert batch == [solver.verify_solution(system, l, cfg) for l in ls], name
        kept = batch[:1] + batch[2:len(points) + 1]
        # the report's rank is read from verification's |G'|
        assert [(*v[:4], solver.jacobian_rank(system, v[4])) for v in kept] == [
            (True, s.verified_residual, s.winding, "", s.jacobian_rank) for s in points], name
        assert all(not v[0] for v in batch[len(points) + 1:]), name
        assert solver.verify_points(system, [], cfg) == []


@pytest.mark.parametrize("name", ["irrational-slope", "diag-prod-one"])
def test_harvest_verifies_no_point_past_the_target(name, monkeypatch):
    handed = []

    def counting(system, ls, cfg):
        handed.append(len(ls))
        return verify_points(system, ls, cfg)

    verify_points = solver.verify_points
    monkeypatch.setattr(solver, "verify_points", counting)
    inst = builtin_instance(name)
    cfg = dataclasses.replace(inst.config, target_count=60)
    report = solve(dataclasses.replace(inst, config=cfg)).report
    assert len(report.solutions) == 60
    # every point handed over was accepted: none was verified in vain
    assert sum(handed) == 60 and not report.failures


def one_factor_systems(A1):
    level = SegrePolynomial.linear(1, {1: 1, 0: -1.7})
    # wp'^2 + 0.5 wp' - 3 wp + 2 exercises products and powers of jets
    mixed = SegrePolynomial.from_dict(1, {(0, 0, 2): 1, (0, 0, 1): 0.5,
                                          (0, 1, 0): -3, (1, 0, 0): 2})
    return [PulledBackSystem(F, (1,), A1) for F in (level, mixed)]


@pytest.mark.parametrize("name", HARVESTABLE + ("one-factor",))
def test_analytic_derivative_matches_mpmath(name, A1):
    from mpmath import mp

    systems = (one_factor_systems(A1) if name == "one-factor"
               else [catalog_system(name)[1]])
    for system in systems:
        ls = system.cell_box(0, 0, np.array([0.3, 0.7, 0.45]), np.array([0.6, 0.2, 0.85]))
        ls = np.concatenate([ls, system.cell_box(2, -1, np.array([0.55]), np.array([0.35]))])
        _, dg = system.eval_jet(ls)
        with mp.workdps(30):
            for l, got in zip(ls, dg):
                want = complex(mp.diff(lambda t: mp_value(system, t), mp.mpc(l.real, l.imag)))
                assert abs(got - want) <= 1e-11 * abs(want), (name, l, got, want)


@pytest.mark.parametrize("name", ["diag-deriv-prod", "diag-cross-deriv"])
def test_30_digit_g_prime_matches_a_central_difference(name):
    # W has wp' terms, so g2 enters G'; a double g2 would miss 1e-20 by far
    from mpmath import mp

    inst, system = catalog_system(name)
    cfg = dataclasses.replace(inst.config, target_count=6)
    ls = [s.l for s in solve(dataclasses.replace(inst, config=cfg)).report.solutions]
    assert len(ls) == 6
    series = [solver._wp_30_digits(ev.tau) for ev in system.pe.evals]
    zs = np.array([system.z_of(l) for l in ls]).T.tolist()
    g, dg = solver.pulled_back_jet(system.F, series, zs, system.v)
    # the G that verification reads its residuals from
    assert [float(v) for v in abs(g)] == [v[1] for v in solver.verify_points(system, ls, cfg)]
    with mp.workdps(40):
        h = mp.mpf(1e-12)
        sides = [solver.pulled_back_jet(system.F, series,
                                        [[lift_mp((mp.mpc(l) + sign * h) * c) for l in ls]
                                         for c in system.v], system.v)[0]
                 for sign in (1, -1)]
        for k, l in enumerate(ls):
            central = (mp_of(sides[0], k) - mp_of(sides[1], k)) / (2 * h)
            assert abs(central - mp_of(dg, k)) <= 1e-20 * abs(mp_of(dg, k)), (name, l)
