import functools
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from eac import instance, solver
from eac.cli import build_parser, main
from eac.instance import (InstanceError, builtin_instance, catalog_dicts,
                          catalog_names, instance_from_dict, load_instance,
                          validate_report)
from eac.multiquad import ComplexMQ
from eac.segre import SegrePolynomial
from eac.solver import SolverConfig
from eac.variety import EllipticFactor, ExactSubspace
from eac.weierstrass import WpEvaluator
from tests.conftest import one_curve_dict, tiny_monomial_dict

PKG_ROOT = Path(__file__).resolve().parents[1]


def flagship_dict():
    return json.loads(json.dumps(catalog_dicts()["diag-prod-one"]))


# instance loading


def test_catalog_is_well_stocked():
    names = catalog_names()
    assert len(names) >= 10
    assert names == sorted(names)
    assert "diag-prod-one" in names
    for name in names:
        inst = builtin_instance(name)
        assert inst.label == name
        assert re.fullmatch(r"[0-9a-f]{16}", inst.hash)


def test_unknown_catalog_name_rejected():
    with pytest.raises(InstanceError):
        builtin_instance("no-such-instance")


def test_hash_depends_on_content_only():
    a = instance_from_dict(flagship_dict())
    b = instance_from_dict(flagship_dict())
    assert a.hash == b.hash
    changed = flagship_dict()
    changed["W"]["monomials"][0]["re"] = 2.0
    assert instance_from_dict(changed).hash != a.hash


def test_example_files_load(tmp_path):
    for name in ("diag-prod-one", "irrational-slope"):
        path = PKG_ROOT / "docs" / "examples" / f"{name}.json"
        inst = load_instance(str(path))
        assert inst.label == name
        assert inst.A.g == 2


def test_load_instance_error_paths(tmp_path):
    with pytest.raises(InstanceError, match="no such instance file"):
        load_instance(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(InstanceError, match="invalid JSON at line 1"):
        load_instance(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(InstanceError, match="top level"):
        load_instance(str(arr))


def test_schema_violations_carry_paths():
    data = flagship_dict()
    del data["factors"]
    with pytest.raises(InstanceError, match=r"validation failed at \$"):
        instance_from_dict(data)
    data = flagship_dict()
    data["factors"][0]["tau_im"] = {"d": -2, "q": "1"}
    with pytest.raises(InstanceError, match=r"\$\['factors'\]\[0\]"):
        instance_from_dict(data)


E4 = (0, 0, 0, 0, 1, 0, 0, 0, 0)
TINY_TAU_IM = "1/100000000000000000000"


@pytest.mark.parametrize("edit, construct, match, field", [
    (lambda d: d["factors"][0].update(tau_im="-1"),
     lambda: EllipticFactor(0, -1), "upper half plane", "factors[0]"),
    (lambda d: d["L"].update(basis=[["1"]]),
     lambda: ExactSubspace("complex", ((1,),), 2), "expected 2 entries", "L.basis"),
    (lambda d: d["W"]["monomials"][0].update(exponents=[0, 1, 0]),
     lambda: SegrePolynomial.from_dict(2, {(0, 1, 0): 1.0}), "expected length 9",
     "W.monomials"),
    (lambda d: d["W"]["monomials"][0].update(re=float("nan")),
     lambda: SegrePolynomial.from_dict(2, {E4: complex(1, float("inf"))}), "not finite",
     "W.monomials"),
    # a tau_im so small that |q| = exp(-2 pi tau_im) rounds to 1 in doubles
    (lambda d: d["factors"][0].update(tau_im=TINY_TAU_IM),
     lambda: EllipticFactor(0, Fraction(TINY_TAU_IM)), "upper half plane", "factors[0]"),
    (lambda d: d.update(solver={"solve_tol": math.inf}),
     lambda: SolverConfig(solve_tol=math.inf), "solve_tol must be positive and finite",
     "solver"),
    (lambda d: d.update(solver={"dedup_tol": math.inf}),
     lambda: SolverConfig(dedup_tol=math.inf), "dedup_tol must be positive and finite",
     "solver"),
], ids=["tau-sign", "row-length", "exponent-length", "finite-coefficient", "tau-tiny",
        "infinite-solve-tol", "infinite-dedup-tol"])
def test_each_value_rule_is_the_constructors(edit, construct, match, field, tmp_path):
    # the model raises its own ValueError; a file adds only the field path
    with pytest.raises(ValueError, match=match) as api:
        construct()
    assert not isinstance(api.value, InstanceError)
    data = flagship_dict()
    edit(data)
    path = tmp_path / "rule.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InstanceError, match=match) as from_file:
        load_instance(str(path))
    assert str(from_file.value).startswith(f"{field}: ")


def test_semantic_validation_beyond_schema():
    data = flagship_dict()
    data["W"]["dim"] = 2
    with pytest.raises(InstanceError, match="hypersurface"):
        instance_from_dict(data)
    data = flagship_dict()
    data["L"]["basis"] = [["1", "1"], ["2", "2"]]
    with pytest.raises(InstanceError, match="L.basis"):
        instance_from_dict(data)
    data = flagship_dict()
    data["solver"] = {"solve_tol": float("nan")}
    with pytest.raises(InstanceError, match="solver: solve_tol must be positive"):
        instance_from_dict(data)


def test_solver_block_round_trips():
    data = flagship_dict()
    data["solver"] = {"seed": 11, "budget_cells": 9, "target_count": 5}
    inst = instance_from_dict(data)
    assert inst.config.seed == 11
    assert inst.config.budget_cells == 9
    assert inst.config.target_count == 5
    assert inst.config.solve_tol == 1e-10


@pytest.mark.parametrize("field, value", [("grid", 200), ("coarse_threshold", 0.5)])
def test_removed_solver_settings_fail_validation(field, value):
    data = flagship_dict()
    data["solver"] = {"seed": 1, field: value}
    with pytest.raises(InstanceError, match=f"'{field}' was unexpected"):
        instance_from_dict(data)


def test_validators_are_built_once_and_keep_their_messages(monkeypatch, tmp_path):
    # each schema is compiled once, and a rejection is worded from that same
    # compiled check, building nothing more
    compiled = []
    real = instance._compile
    monkeypatch.setattr(instance, "_compile",
                        lambda schema: compiled.append(schema.get("title")) or real(schema))
    monkeypatch.setattr(instance, "_checker", functools.cache(instance._checker.__wrapped__))
    out = tmp_path / "r.json"
    for _ in range(3):
        assert main(["check", "catalog:diag-prod-one", "--out", str(out)]) == 0
        validate_report(json.loads(out.read_text()))
    built = len(compiled)
    for _ in range(3):
        with pytest.raises(ValueError, match=r"at \$: 'label' is a required property"):
            validate_report({"command": "check"})
    data = flagship_dict()
    data["factors"][0]["tau_re"] = 3
    with pytest.raises(InstanceError, match=r"at \$\['factors'\]\[0\]\['tau_re'\]: 3 is not"):
        instance_from_dict(data)
    assert [t for t in compiled if t] == ["eac instance file", "eac command report"]
    assert len(compiled) == built
    assert instance._checker.cache_info().misses == 2


def test_importing_the_cli_does_not_import_jsonschema(tmp_path):
    # nor can any command: with jsonschema blocked, valid files and their valid
    # reports are checked, a rejected file exits 1 naming its field path, and an
    # invalid report raises ValueError naming its path. check, hull and certify
    # import nothing numeric either, also for a W with a wp'^2 term, whose fiber
    # degrees need g2 and g3, and a density run afterwards still finds what
    # solve and density_summary import themselves
    example = str(PKG_ROOT / "docs" / "examples" / "diag-prod-one.json")
    # W: wp_1'^2 = wp_2, with no declared bidegree
    data = json.loads(Path(example).read_text())
    data["W"] = {"kind": "segre-hypersurface", "dim": 1, "monomials": [
        {"exponents": [0, 0, 0, 0, 0, 0, 2, 0, 0], "re": 1.0, "im": 0.0},
        {"exponents": [0, 1, 0, 0, 0, 0, 0, 0, 0], "re": -1.0, "im": 0.0}]}
    squared = tmp_path / "wp1-prime-squared.json"
    squared.write_text(json.dumps(data))
    data = json.loads(Path(example).read_text())
    data["factors"][0]["tau_re"] = 3
    rejected = tmp_path / "tau-re-number.json"
    rejected.write_text(json.dumps(data))
    numeric = ["numpy", "mpmath", "eac.solver", "eac.weierstrass", "eac.fixed"]
    code = f"""
import json, sys, eac.cli
from eac.instance import builtin_instance, load_instance, validate_report
print('jsonschema' in sys.modules)
sys.modules['jsonschema'] = None
load_instance({example!r})
for path in ({example!r}, {str(squared)!r}):
    for command in ("check", "hull", "certify"):
        out = {str(tmp_path)!r} + "/" + command + ".json"
        assert eac.cli.main([command, path, "--out", out]) == 0
        validate_report(json.load(open(out)))
report = json.load(open({str(tmp_path)!r} + "/certify.json"))
print("squared", report["verdicts"]["bidegree"], report["certificate"]["value"])
print("loaded", sorted(set({numeric!r}) & set(sys.modules)))
assert eac.cli.main(["density", {example!r}]) == 0
print("rejected", eac.cli.main(["check", {str(rejected)!r}]))
report["certificate"]["value"] = 3
try:
    validate_report(report)
except ValueError as e:
    print("invalid report:", e)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(PKG_ROOT / "src")), check=True)
    lines = proc.stdout.splitlines()
    assert lines[0] == "False"
    assert "squared [6, 2] 6*sqrt(5)+2*sqrt(2)" in lines
    assert "loaded []" in lines
    assert "rejected 1" in lines
    assert proc.stderr.splitlines() == ["error: instance validation failed at "
                                        "$['factors'][0]['tau_re']: 3 is not of type 'string'"]
    assert ("invalid report: report validation failed at $['certificate']['value']: "
            "3 is not of type 'string', 'null'") in lines


def test_one_parser_serves_successive_main_calls(tmp_path):
    # the in-process calls share one parser; each must report as a lone call
    # in a fresh interpreter does, so no option leaks into the next call
    runs = [["density", "catalog:diag-prod-one", "--budget", "3", "--target", "5"],
            ["density", "catalog:diag-prod-one"],
            ["check", "catalog:diag-prod-one"]]
    codes = [main(argv + ["--out", str(tmp_path / f"shared{i}.json")])
             for i, argv in enumerate(runs)]
    assert build_parser() is build_parser()
    for i, argv in enumerate(runs):
        alone = tmp_path / f"alone{i}.json"
        proc = subprocess.run([sys.executable, "-m", "eac.cli", *argv, "--out", str(alone)],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(PKG_ROOT / "src")))
        assert proc.returncode == codes[i]
        reports = [json.loads(p.read_text()) for p in (tmp_path / f"shared{i}.json", alone)]
        for r in reports:
            r.pop("timings")
        assert reports[0] == reports[1]
    config = json.loads((tmp_path / "shared1.json").read_text())["solve"]["config"]
    assert config["target_count"] == 60 and config["budget_cells"] != 3


def test_report_validator_rejects_malformed():
    with pytest.raises(Exception):
        validate_report({"command": "check"})


# command line


def run_cli(args):
    return main(list(args))


def test_cli_list(capsys):
    assert run_cli(["list"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert all(line.startswith("catalog:") for line in lines)
    assert "catalog:diag-prod-one" in lines
    assert len(lines) == len(catalog_names())


def test_cli_check_flagship(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run_cli(["check", "catalog:diag-prod-one", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "free and rotund" in text
    report = json.loads(out.read_text())
    assert report["exit_code"] == 0
    assert report["verdicts"]["free"] is True
    assert report["verdicts"]["rotund"] is True
    assert report["verdicts"]["bidegree"] == [2, 2]
    assert report["hull"]["dim_T"] == 3
    assert report["chain"]["rounds"] == 1


@pytest.mark.parametrize("command, stage", [
    ("check", "decide_s"), ("hull", "hull_s"), ("certify", "certify_s")])
def test_cli_exact_commands_time_load_and_stage(command, stage, tmp_path):
    out = tmp_path / "r.json"
    run_cli([command, str(PKG_ROOT / "docs" / "examples" / "diag-prod-one.json"),
             "--out", str(out)])
    timings = json.loads(out.read_text())["timings"]
    assert set(timings) == {"load_s", stage, "total_s"}
    assert 0 < timings["load_s"] + timings[stage] <= timings["total_s"]


def test_cli_lists_only_the_assertions_a_file_makes(tmp_path):
    # E_sqrt3 has CM by Z[sqrt -3]: a file that asserts nothing gets nothing asserted
    out = tmp_path / "r.json"
    for assertions, listed in (
            (None, []), ({"no_cm": True}, ["no complex multiplication (asserted)"])):
        data = one_curve_dict("wp-2", WP_IS_2)
        if assertions is not None:
            data["assertions"] = assertions
        path = tmp_path / "g1.json"
        path.write_text(json.dumps(data))
        assert run_cli(["check", str(path), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["assumptions"] == listed


def test_cli_check_failure_exit_code(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run_cli(["check", "catalog:axis-line", "--out", str(out)]) == 2
    assert "not free" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["verdicts"]["free"] is False
    assert "subproduct" in report["verdicts"]["free_witness"]


@pytest.mark.parametrize("command", ["check", "certify"])
def test_cli_tiny_monomial_is_not_free(command, tmp_path, capsys):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(tiny_monomial_dict()))
    out = tmp_path / "r.json"
    assert run_cli([command, str(path), "--out", str(out)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads(out.read_text())
    validate_report(report)
    assert report["exit_code"] == 2
    assert report["verdicts"]["bidegree"] == [2, 0]
    assert report["verdicts"]["free"] is False
    assert report["verdicts"]["free_witness"] == "W is a union of translates of factor 2"


def test_cli_declared_bidegree_must_match_the_polynomial(tmp_path, capsys):
    data = flagship_dict()
    data["W"]["bidegree"] = [1, 1]
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(data))
    for command in ("check", "certify", "solve"):
        assert run_cli([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: declared bidegree (1, 1)") and len(err.splitlines()) == 1


def test_cli_polynomial_vanishing_on_the_product_exits_1(tmp_path, capsys):
    # wp_1'^2 - 4 wp_1^3 + g2 wp_1 + g3 is the differential equation: W is all of A
    g2, g3 = WpEvaluator(1j * 2 ** 0.5).invariants()
    data = flagship_dict()
    del data["W"]["bidegree"]
    data["W"]["monomials"] = [
        {"exponents": e, "re": c.real, "im": c.imag}
        for e, c in (([0, 0, 0, 0, 0, 0, 2, 0, 0], 1), ([0, 0, 0, 3, 0, 0, 0, 0, 0], -4),
                     ([0, 0, 0, 1, 0, 0, 0, 0, 0], g2), ([1, 0, 0, 0, 0, 0, 0, 0, 0], g3))]
    path = tmp_path / "whole.json"
    path.write_text(json.dumps(data))
    assert run_cli(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: W is all of A") and len(err.splitlines()) == 1


def test_cli_commands_survive_an_underflowing_q(tmp_path, capsys):
    # tau_1 = 120i gives |q| = 0.0 in doubles; every command must end in an exit code
    data = flagship_dict()
    data["factors"][0]["tau_im"] = "120"
    path = tmp_path / "tall.json"
    path.write_text(json.dumps(data))
    assert run_cli(["certify", str(path)]) == 0
    assert "2*sqrt(5)+240" in capsys.readouterr().out
    # 5 is the large-Im tau harvest defect (ROADMAP item 3), 0 once it is mended
    assert run_cli(["solve", str(path), "--budget", "2"]) in (0, 5)


def test_cli_hull_flagship(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run_cli(["hull", "catalog:diag-prod-one", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "dim_R T = 3" in text
    report = json.loads(out.read_text())
    assert report["hull"]["equations"] == [[1, 0, -1, 0]]
    assert [e["dim"] for e in report["chain"]["entries"]] == [1, 3, 2]


def test_cli_certify_flagship(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run_cli(["certify", "catalog:diag-prod-one", "--out", str(out)]) == 0
    assert "2*sqrt(5)+2*sqrt(2)" in capsys.readouterr().out
    report = json.loads(out.read_text())
    cert = report["certificate"]
    assert cert["refused"] is False
    assert cert["value"] == "2*sqrt(5)+2*sqrt(2)"
    assert cert["nonzero"] is True
    assert abs(cert["value_float"] - cert["cross_float"]) < 1e-12


def test_cli_certify_refusal(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run_cli(["certify", "catalog:axis-line", "--out", str(out)]) == 2
    assert "refused" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["certificate"]["refused"] is True
    assert "not free" in report["certificate"]["reason"]


def test_cli_certifies_a_large_constant_without_a_declared_bidegree(tmp_path, capsys):
    # W = {wp_1 wp_2 = 1000}: its zeros on a fiber lie near the pole, and
    # measuring the bidegree must still give (2, 2)
    data = flagship_dict()
    data["W"]["monomials"][1]["re"] = -1000.0
    del data["W"]["bidegree"]
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "r.json"
    assert run_cli(["certify", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["verdicts"]["bidegree"] == [2, 2]
    assert report["certificate"]["nonzero"] is True


def test_cli_solve_flagship_with_csv(tmp_path, capsys):
    out = tmp_path / "r.json"
    csv = tmp_path / "r.csv"
    code = run_cli(["solve", "catalog:diag-prod-one", "--budget", "4",
                    "--target", "3", "--out", str(out), "--csv", str(csv)])
    assert code == 0
    report = json.loads(out.read_text())
    sol = report["solve"]
    assert sol["distinct_count"] >= 1
    assert sol["config"]["budget_cells"] == 4
    assert sol["config"]["target_count"] == 3
    for s in sol["solutions"]:
        assert s["residual"] < 1e-10
        assert s["winding"] >= 1
        assert len(s["z"]) == 2
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "re_l,im_l,residual,cell"
    assert len(lines) == 1 + sol["distinct_count"]


def test_cli_solve_uncertified_exit_code(tmp_path):
    out = tmp_path / "r.json"
    csv = tmp_path / "r.csv"
    csv.write_text("stale\n")
    assert run_cli(["solve", "catalog:axis-line", "--out", str(out), "--csv", str(csv)]) == 4
    report = json.loads(out.read_text())
    assert report["exit_code"] == 4
    assert report["solve"] is None
    assert csv.read_text() == "re_l,im_l,residual,cell\n"


def reject_every_point(system, ls, cfg):
    return [(False, 1.0, 0, "doubled-precision residual too large", 1.0)] * len(ls)


def test_cli_solve_certified_but_empty(tmp_path, capsys, monkeypatch):
    # a verification that rejects every point leaves the harvest empty
    monkeypatch.setattr(solver, "verify_points", reject_every_point)
    data = flagship_dict()
    data["solver"] = {"budget_cells": 1}
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "r.json"
    code = run_cli(["solve", str(path), "--out", str(out)])
    assert code == 5
    assert "defect" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["solve"]["defect"] is True
    assert report["certificate"]["nonzero"] is True


@pytest.mark.parametrize("option, value, field", [
    ("--budget", "0", "budget_cells"),
    ("--budget", "-3", "budget_cells"),
    ("--target", "0", "target_count"),
])
def test_cli_rejects_out_of_range_overrides(option, value, field, capsys):
    assert run_cli(["solve", "catalog:irrational-slope", option, value]) == 1
    assert f"error: solver override: {field} must be" in capsys.readouterr().err


def test_cli_has_no_grid_option(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(["solve", "catalog:irrational-slope", "--grid", "200"])
    assert exit_info.value.code == 1
    assert "unrecognized arguments: --grid" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["check", "catalog:diag-prod-one", "--bogus"], "unrecognized arguments: --bogus"),
    (["check"], "required: instance"),
    (["solve", "catalog:axis-line", "--budget", "x"], "invalid int value: 'x'"),
    (["hull", "catalog:diag-prod-one", "--seed", "1"], "unrecognized arguments: --seed"),
    (["check", "catalog:diag-prod-one", "--seed", "1"], "unrecognized arguments: --seed"),
])
def test_cli_usage_errors_exit_1(argv, message, capsys):
    # exit 2 is a failed check or a refused certificate, never a usage error
    with pytest.raises(SystemExit) as exit_info:
        run_cli(argv)
    assert exit_info.value.code == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["solve", "--help"]])
def test_cli_help_and_version_exit_0(argv):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(argv)
    assert exit_info.value.code == 0


def test_cli_seed_only_where_reduce_L_reads_it():
    for command in ("certify", "solve", "density"):
        assert build_parser().parse_args([command, "catalog:x", "--seed", "7"]).seed == 7


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "1e400"])
@pytest.mark.parametrize("command", ["check", "solve"])
def test_cli_non_finite_coefficient_is_one_error_line(literal, command, tmp_path, capsys):
    text = json.dumps(flagship_dict()).replace('"re": -1.0', f'"re": {literal}', 1)
    assert literal in text
    path = tmp_path / "w.json"
    path.write_text(text)
    assert run_cli([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: W.monomials: ") and "not finite" in captured.err
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["factors"][0].update(tau_im=TINY_TAU_IM), "factors[0]: tau must lie"),
    (lambda d: d.update(solver={"dedup_tol": math.inf}), "solver: dedup_tol must be"),
    (lambda d: d["factors"][0].update(tau_re="1/0"),
     "factors[0].tau_re: bad rational literal '1/0' (zero denominator)"),
], ids=["tau-tiny", "infinite-dedup-tol", "zero-denominator"])
def test_cli_unusable_value_is_one_error_line(edit, message, tmp_path, capsys):
    data = flagship_dict()
    edit(data)
    path = tmp_path / "w.json"
    path.write_text(json.dumps(data))
    assert run_cli(["solve", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert len(captured.err.splitlines()) == 1


def test_cli_summary_names_incomplete_cells(tmp_path, capsys, monkeypatch):
    real_seeds = solver.cell_seeds

    def one_seed_short(system, cells):
        return [(count, seeds[1:]) for count, seeds in real_seeds(system, cells)]

    monkeypatch.setattr(solver, "cell_seeds", one_seed_short)
    out = tmp_path / "r.json"
    assert run_cli(["solve", "catalog:diag-prod-one", "--budget", "2", "--target", "40",
                    "--out", str(out)]) == 0
    sol = json.loads(out.read_text())["solve"]
    assert sol["incomplete_cells"] == [0, 1]
    line = capsys.readouterr().out
    for c in sol["cells"]:
        assert f"incomplete cell {c['cell']} ({c['found']} of {c['expected']} found)" in line


def test_cli_density_defaults_and_stats(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = run_cli(["density", "catalog:diag-prod-one", "--budget", "3",
                    "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["solve"]["config"]["target_count"] == 60
    dens = report["density"]
    assert dens["points"] == report["solve"]["distinct_count"]
    assert dens["cells"] == len(report["solve"]["cells_with_solutions"])
    assert dens["min_pairwise_distance"] > 1e-6
    counts = [c["expected"] for c in report["solve"]["cells"]]
    assert dens["mean_zeros_per_cell"] == sum(counts) / len(counts)
    assert dens["closed_form_zeros_per_cell"] == pytest.approx(2 + 2 * math.sqrt(2 / 5),
                                                               rel=1e-12)
    # the budget caps the first chunk: every cell counted is scanned
    assert report["solve"]["cells_counted"] == 3 == report["solve"]["cells_scanned"]
    assert "median nearest" in capsys.readouterr().out
    assert set(report["timings"]) == {"total_s", "scan_s", "newton_s", "dedup_s",
                                      "verify_s", "jacobian_s", "density_s"}
    assert report["timings"]["total_s"] >= report["timings"]["scan_s"] > 0


def test_cli_reports_reproducible_modulo_timings(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for argv in (["check", "catalog:rational-slope"],
                 ["solve", "catalog:diag-prod-one", "--budget", "2", "--target", "3"]):
        for p in (a, b):
            assert run_cli(argv + ["--out", str(p)]) == 0
        ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
        ra.pop("timings"), rb.pop("timings")
        assert ra == rb


def test_cli_density_report_identical_at_one_and_two_threads(tmp_path, monkeypatch):
    reports = []
    for threads in ("1", "2"):
        monkeypatch.setenv("EAC_THREADS", threads)
        out = tmp_path / f"r{threads}.json"
        assert run_cli(["density", "catalog:irrational-slope", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        report.pop("timings")
        reports.append(report)
    assert reports[0] == reports[1]
    sol = reports[0]["solve"]
    assert sol["incomplete_cells"] == []
    assert sol["cells_scanned"] == len(sol["cells"]) == len(sol["cells_with_solutions"])


def test_cli_bad_file_exit_code(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run_cli(["check", str(missing)]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_unreadable_instance_is_one_error_line(tmp_path, capsys):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"label": "caf\xe9"}')
    for path, message in ((tmp_path, "cannot read instance file"),
                          (latin1, "not UTF-8 text")):
        assert run_cli(["check", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert len(err.splitlines()) == 1


def test_cli_unwritable_outputs_are_one_error_line(tmp_path, capsys):
    # a directory given as --out, and --csv in a directory that does not exist
    assert run_cli(["check", "catalog:diag-prod-one", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {tmp_path}") and len(err.splitlines()) == 1
    csv = tmp_path / "missing" / "s.csv"
    assert run_cli(["solve", "catalog:diag-prod-one", "--budget", "1", "--target", "1",
                    "--csv", str(csv)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {csv}") and len(err.splitlines()) == 1


def test_cli_hull_runs_no_verdicts_and_no_fiber_counts(tmp_path, capsys, monkeypatch):
    from eac import checker, pipeline, segre

    def forbidden(*args, **kwargs):
        raise AssertionError("eac hull must not decide freeness or measure W")

    for mod, name in ((checker, "check_pair"), (pipeline, "check_pair"),
                      (segre, "bidegree_of"), (pipeline, "bidegree_of")):
        monkeypatch.setattr(mod, name, forbidden)
    data = flagship_dict()
    del data["W"]["bidegree"]
    path = tmp_path / "no-bidegree.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "r.json"
    assert run_cli(["hull", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["verdicts"] is None
    assert report["hull"]["equations"] == [[1, 0, -1, 0]]


def test_cli_single_factor_end_to_end(tmp_path):
    # one curve, W cut out by wp = 2: two points, so the certificate is the
    # point count and the solver just inverts wp
    inst = {
        "label": "wp-level-set",
        "factors": [{"tau_re": "0", "tau_im": {"d": 3, "q": "1"}}],
        "L": {"basis": [["1"]]},
        "W": {
            "kind": "segre-hypersurface",
            "dim": 0,
            "monomials": [
                {"exponents": [0, 1, 0], "re": 1.0},
                {"exponents": [1, 0, 0], "re": -2.0},
            ],
        },
        "solver": {"budget_cells": 4, "target_count": 2},
    }
    path = tmp_path / "g1.json"
    path.write_text(json.dumps(inst))
    out = tmp_path / "r.json"
    assert run_cli(["certify", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["certificate"]["value"] == "2"
    assert run_cli(["solve", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["solve"]["distinct_count"] >= 1
    for s in report["solve"]["solutions"]:
        assert len(s["z"]) == 1
        assert s["jacobian_rank"] == -1


WP_IS_2 = [([0, 1, 0], 1.0), ([1, 0, 0], -2.0)]


def test_cli_single_factor_declared_bidegree_is_cross_checked(tmp_path, capsys):
    path = tmp_path / "g1.json"
    path.write_text(json.dumps(one_curve_dict("wp-2", WP_IS_2, [7, 9])))
    for command in ("check", "certify"):
        assert run_cli([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert err == "error: declared bidegree (7, 9) but W's polynomial gives (2,)\n"
    path.write_text(json.dumps(one_curve_dict("wp-2", WP_IS_2, [2])))
    out = tmp_path / "r.json"
    assert run_cli(["check", str(path), "--out", str(out)]) == 0
    assert "bidegree (2,)" in capsys.readouterr().out
    assert json.loads(out.read_text())["verdicts"]["bidegree"] == [2]
    assert run_cli(["certify", str(path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["certificate"]["value"] == "2"


def empty_w_files(tmp_path):
    """W cut out by the constant 1, on one curve and on the flagship's two."""
    two = flagship_dict()
    del two["W"]["bidegree"]
    two["W"]["monomials"] = [{"exponents": [1] + [0] * 8, "re": 1.0, "im": 0.0}]
    paths = []
    for name, data in (("one", one_curve_dict("empty", [([1, 0, 0], 1.0)])), ("two", two)):
        paths.append(tmp_path / f"empty-{name}.json")
        paths[-1].write_text(json.dumps(data))
    return paths


def test_cli_empty_w_exits_1_everywhere(tmp_path, capsys):
    # F = 1 has no zeros on any fiber: all fiber degrees are 0, which names
    # no hypersurface class, so no command decides or certifies anything
    for path in empty_w_files(tmp_path):
        for command in ("check", "certify", "solve"):
            assert run_cli([command, str(path)]) == 1, (path.name, command)
            err = capsys.readouterr().err
            assert err.startswith("error: W is empty") and len(err.splitlines()) == 1


@pytest.mark.parametrize("terms, degree", [
    ([([0, 1, 0], 1.0), ([1, 0, 0], -1.7)], 2),  # wp = 1.7
    ([([0, 0, 1], 1.0), ([1, 0, 0], -1.7)], 3),  # wp' = 1.7
    ([([1, 0, 0], 1.0)], None),  # empty
])
def test_cli_single_factor_commands_agree(terms, degree, tmp_path):
    path = tmp_path / "g1.json"
    path.write_text(json.dumps(one_curve_dict("g1", terms)))
    codes = {command: run_cli([command, str(path)]) for command in ("check", "certify", "solve")}
    assert set(codes.values()) == {0 if degree else 1}, codes
    if degree:
        out = tmp_path / "r.json"
        assert run_cli(["density", str(path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["verdicts"]["bidegree"] == [degree]
        assert report["density"]["closed_form_zeros_per_cell"] == degree
        assert report["solve"]["distinct_count"] == degree


def test_cli_single_factor_empty_l_is_not_rotund(tmp_path, capsys):
    # L = 0 on one curve: exp(L) is a point, which misses a hypersurface
    data = one_curve_dict("empty-l", WP_IS_2)
    data["L"]["basis"] = []
    path = tmp_path / "g1.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "r.json"
    assert run_cli(["check", str(path), "--out", str(out)]) == 2
    text = capsys.readouterr().out
    assert "check empty-l: failed" in text
    verdicts = json.loads(out.read_text())["verdicts"]
    assert verdicts["free"] is True and verdicts["rotund"] is False
    witness = verdicts["rotund_witness"]
    assert f"  not rotund: {witness}" in text
    assert run_cli(["certify", str(path), "--out", str(out)]) == 2
    assert json.loads(out.read_text())["certificate"]["reason"] == f"not rotund: {witness}"
    assert f"refused (not rotund: {witness})" in capsys.readouterr().out
    assert run_cli(["solve", str(path), "--out", str(out)]) == 4
    assert json.loads(out.read_text())["solve"] is None


def test_cli_reads_a_complex_l_entry(tmp_path, capsys):
    # the row (1 + i, 2) spans the line whose echelon basis is (1, 1 - i)
    data = flagship_dict()
    data["L"]["basis"] = [[{"re": "1", "im": "1"}, "2"]]
    assert instance_from_dict(data).L.basis == ((1, ComplexMQ(1, -1)),)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(data))
    assert run_cli(["certify", str(path)]) == 0
    assert "value sqrt(5)+2*sqrt(2)" in capsys.readouterr().out


@pytest.mark.parametrize("level", [3e6, 1e7])
def test_cli_single_factor_certifies_a_level_near_the_pole(level, tmp_path):
    # wp = K has two zeros about K^-1/2 from the pole; a contour count there
    # cancels them against the pole and refused "W has no points on the curve"
    inst = {
        "label": f"wp-level-{level:g}",
        "factors": [{"tau_re": "0", "tau_im": {"d": 3, "q": "1"}}],
        "L": {"basis": [["1"]]},
        "W": {"kind": "segre-hypersurface", "dim": 0,
              "monomials": [{"exponents": [0, 1, 0], "re": 1.0},
                            {"exponents": [1, 0, 0], "re": -level}]},
    }
    path = tmp_path / "g1.json"
    path.write_text(json.dumps(inst))
    out = tmp_path / "r.json"
    assert run_cli(["certify", str(path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["certificate"]["value"] == "2"


def test_cli_single_factor_scans_every_distinct_cell_once(tmp_path, capsys, monkeypatch):
    # exp is onto the curve from one period cell of l, so the walk has one
    # cell; the old walk scanned 64 cells and refined 224 seeds here
    inst = {
        "label": "wp-level-1.7",
        "factors": [{"tau_re": "0", "tau_im": {"d": 3, "q": "1"}}],
        "L": {"basis": [["1"]]},
        "W": {
            "kind": "segre-hypersurface",
            "dim": 0,
            "monomials": [
                {"exponents": [0, 1, 0], "re": 1.0},
                {"exponents": [1, 0, 0], "re": -1.7},
            ],
        },
        "solver": {"target_count": 30},
    }
    path = tmp_path / "g1.json"
    path.write_text(json.dumps(inst))
    out = tmp_path / "r.json"
    assert run_cli(["solve", str(path), "--out", str(out)]) == 0
    assert "all 1 distinct cell(s) scanned" in capsys.readouterr().out
    sol = json.loads(out.read_text())["solve"]
    assert sol["cells_scanned"] == 1
    assert sol["distinct_count"] == 2
    assert sol["cells_exhausted"] is True
    assert sol["budget_exhausted"] is False
    assert sol["defect"] is False
    assert sol["seeds_refined"] == 2 + sol["failures"] + sol["seeds_duplicate"]
    assert sol["cells"] == [{"cell": 0, "expected": 2, "found": 2}]
    monkeypatch.setattr(solver, "verify_points", reject_every_point)
    assert run_cli(["solve", str(path), "--out", str(out)]) == 5
    assert ("in all 1 distinct cell(s); reported as a defect, incomplete cell 0 (0 of 2 found)"
            in capsys.readouterr().out)
    sol = json.loads(out.read_text())["solve"]
    assert sol["defect"] is True and sol["cells_exhausted"] is True


def test_cli_solve_block_counts_newton_iterations_and_failures(tmp_path):
    # nothing converges below the rounding level of G: both seeds of the one
    # cell run all their Newton steps and fail
    inst = {
        "label": "wp-level-1.7-unreachable-tol",
        "factors": [{"tau_re": "0", "tau_im": {"d": 3, "q": "1"}}],
        "L": {"basis": [["1"]]},
        "W": {
            "kind": "segre-hypersurface",
            "dim": 0,
            "monomials": [
                {"exponents": [0, 1, 0], "re": 1.0},
                {"exponents": [1, 0, 0], "re": -1.7},
            ],
        },
        "solver": {"solve_tol": 1e-20},
    }
    path = tmp_path / "g1.json"
    path.write_text(json.dumps(inst))
    out = tmp_path / "r.json"
    assert run_cli(["solve", str(path), "--out", str(out)]) == 5
    report = json.loads(out.read_text())
    sol = report["solve"]
    assert sol["seeds_refined"] == sol["failures"] == 2
    assert sol["failures_by_reason"] == {"no convergence": 2}
    assert sol["newton_iterations"] == 100
    assert set(sol["config"]) == {"seed", "budget_cells", "target_count",
                                  "solve_tol", "dedup_tol"}
    assert sol["cells"] == [{"cell": 0, "expected": 2, "found": 0}]
    assert sol["incomplete_cells"] == [0]
    # reasons are the solver's prefixes, with positive counts
    for bad in ({"no convergence, residual 1e-3": 2}, {"no convergence": 0}):
        sol["failures_by_reason"] = bad
        with pytest.raises(ValueError, match=r"\['solve'\]\['failures_by_reason'\]"):
            validate_report(report)
