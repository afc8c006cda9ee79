import json
import statistics

import pytest

from eac.instance import builtin_instance, catalog_dicts, catalog_names, instance_from_dict
from eac.pipeline import (BidegreeMismatch, certify, decide, density_summary,
                          resolve_w, solve)
from eac.solver import SolverConfig

SMALL = SolverConfig(budget_cells=4, target_count=3)


def variant(name, **edits):
    data = json.loads(json.dumps(catalog_dicts()[name]))
    for key, value in edits.items():
        data[key] = value
    return instance_from_dict(data)


def test_resolve_w_trusts_declared_by_default(flagship, pe2):
    W, measured = resolve_w(flagship, pe2)
    assert W.bidegree == (2, 2)
    assert measured is None


def test_resolve_w_measures_when_missing(flagship, pe2):
    data = json.loads(json.dumps(flagship.raw))
    del data["W"]["bidegree"]
    inst = instance_from_dict(data)
    assert inst.W.bidegree is None
    W, measured = resolve_w(inst, pe2)
    assert measured == (2, 2)
    assert W.bidegree == (2, 2)
    # "never" leaves the gap in place
    W2, m2 = resolve_w(inst, pe2, measure="never")
    assert W2.bidegree is None and m2 is None


def test_resolve_w_cross_checks_on_always(flagship, pe2):
    W, measured = resolve_w(flagship, pe2, measure="always")
    assert measured == (2, 2)
    data = json.loads(json.dumps(flagship.raw))
    data["W"]["bidegree"] = [1, 1]
    bad = instance_from_dict(data)
    with pytest.raises(BidegreeMismatch, match=r"declared bidegree \(1, 1\)"):
        resolve_w(bad, pe2, measure="always")
    # and the mismatch propagates through decide
    with pytest.raises(BidegreeMismatch):
        decide(bad, pe2, measure="always")


def test_decide_flagship_composition(flagship, pe2):
    decision = decide(flagship, pe2)
    assert decision.verdicts.certified_ready
    assert decision.W_effective.bidegree == (2, 2)
    assert decision.measured_bidegree is None
    assert decision.hull.dim == 3
    assert [s.dim for s in decision.chain.chain] == [1, 3, 2]


def test_certify_flagship(flagship, pe2):
    out = certify(flagship, pe2)
    assert not out.refused
    assert out.reason is None
    assert out.certificate.value_str == "2*sqrt(5)+2*sqrt(2)"
    assert out.L_used is flagship.L


def test_certify_refusals_name_their_witness(pe2):
    out = certify(builtin_instance("axis-line"))
    assert out.refused
    assert out.reason == "not free: L lies in the subproduct of factors [1]"
    assert out.certificate is None
    out = certify(builtin_instance("fiber-wp1"))
    assert out.refused
    assert "union of translates of factor 2" in out.reason


def test_certify_indeterminate_without_w_data(flagship, pe2):
    data = json.loads(json.dumps(flagship.raw))
    del data["W"]["bidegree"]
    inst = instance_from_dict(data)
    decision = decide(inst, pe2, measure="never")
    assert decision.verdicts.indeterminate
    out = certify(inst, pe2, decision=decision)
    assert out.refused
    assert out.reason.startswith("indeterminate:")
    assert "no bidegree or projection data" in out.reason


def test_certify_reduces_oversized_parameter_space(flagship, pe2):
    data = json.loads(json.dumps(flagship.raw))
    data["L"]["basis"] = [["1", "0"], ["0", "1"]]
    inst = instance_from_dict(data)
    assert inst.L.dim == 2
    out = certify(inst, pe2)
    assert not out.refused
    assert out.L_used.dim == 1
    assert out.L_used is not inst.L
    assert out.certificate.nonzero
    # the cut is seeded, so reruns agree
    again = certify(inst, pe2)
    assert again.L_used.basis == out.L_used.basis
    assert again.certificate.value == out.certificate.value


def test_solve_flagship_small_budget(flagship, pe2):
    out = solve(flagship, pe2, config=SMALL)
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


def test_solve_refuses_before_scanning(pe2):
    out = solve(builtin_instance("axis-line"))
    assert out.exit_code == 4
    assert out.report is None
    assert out.certify.refused


def test_solve_reports_certified_emptiness(flagship, pe2):
    # an impossible coarse threshold leaves every cell without seeds
    cfg = SolverConfig(budget_cells=1, coarse_threshold=1e-15)
    out = solve(flagship, pe2, config=cfg)
    assert out.exit_code == 5
    assert out.certify.certificate.nonzero
    assert out.report.defect


def test_density_summary_statistics(flagship, pe2):
    out = solve(flagship, pe2, config=SolverConfig(budget_cells=6, target_count=5))
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


def test_density_summary_degenerate_sizes(flagship, pe2):
    out = solve(flagship, pe2, config=SolverConfig(budget_cells=2, target_count=1))
    stats = density_summary(flagship, out.report)
    assert stats["points"] == 1
    assert stats["min_pairwise_distance"] is None
    assert stats["median_nearest_distance"] is None


def test_catalog_verdicts_and_certificates_agree(pe2):
    for name in catalog_names():
        inst = builtin_instance(name)
        decision = decide(inst)
        out = certify(inst, decision=decision)
        ready = decision.verdicts.certified_ready
        assert out.refused == (not ready), name
        if out.refused:
            assert out.reason, name
        else:
            assert out.certificate.nonzero, name
