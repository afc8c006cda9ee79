"""Command line front end.

    eac check    <instance.json>   freeness, rotundity, hull summary
    eac hull     <instance.json>   rational hull and hull chain
    eac certify  <instance.json>   non-vanishing certificate or refusal
    eac solve    <instance.json>   certified intersection point harvest
    eac density  <instance.json>   larger harvest plus spread statistics
    eac selftest                   built-in verification suite

Instance may also be given as catalog:<name>; see eac list. Reports are
JSON (schema-validated, keys sorted, reproducible for a fixed seed except
the "timings" block) written to --out, with a human summary on stdout.
Exit codes: check 0 passed / 2 failed; certify 0 emitted / 2 refused; solve
and density 0 found / 4 uncertified / 5 certified but empty within budget or
all distinct cells; file problems, usage errors and a W that is not a
hypersurface (a declared bidegree its polynomial contradicts, a polynomial
that is zero or a nonzero constant) 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import replace

from . import __version__
from .hull import HullChain, HullResult, hull_chain
from .instance import (Instance, InstanceError, builtin_instance, catalog_names,
                       load_instance, validate_report)
from .pipeline import (BidegreeMismatch, CertifyOutcome, Decision, certify,
                       decide, density_summary, solve)
from .segre import NotAHypersurface


def _chain_block(chain: HullChain) -> dict:
    return {"entries": [{"kind": s.kind, "dim": s.dim} for s in chain.chain],
            "rounds": chain.rounds, "non_free": chain.non_free}


def _verdict_block(decision: Decision) -> dict:
    v = decision.verdicts
    return {
        "free": v.free.ok,
        "free_witness": v.free.witness,
        "rotund": v.rotund.ok,
        "rotund_witness": v.rotund.witness,
        "bidegree": list(decision.W_effective.bidegree),
    }


def _hull_block(instance: Instance, hull: HullResult) -> dict:
    return {
        "dim_L_complex": instance.L.dim,
        "dim_T": hull.dim,
        "codim_T": hull.codim,
        "equations": [list(e) for e in hull.equations],
    }


def _cert_block(outcome: CertifyOutcome) -> dict:
    c = outcome.certificate
    return {
        "refused": outcome.refused,
        "reason": outcome.reason,
        "value": c.value_str if c is not None else None,
        "value_float": c.value_float if c is not None else None,
        "cross_float": c.cross_float if c is not None else None,
        "nonzero": c.nonzero if c is not None else None,
    }


def _solve_block(report, cfg) -> dict:
    return {
        "config": {
            "seed": cfg.seed, "budget_cells": cfg.budget_cells,
            "target_count": cfg.target_count,
            "solve_tol": cfg.solve_tol, "dedup_tol": cfg.dedup_tol,
        },
        "solutions": [{
            "re_l": s.l.real, "im_l": s.l.imag,
            "residual": s.residual, "verified_residual": s.verified_residual,
            "winding": s.winding, "jacobian_rank": s.jacobian_rank,
            "cell": s.cell,
            "z": [[zj.real, zj.imag] for zj in s.z],
        } for s in report.solutions],
        "distinct_count": len(report.solutions),
        "cells_scanned": report.cells_scanned,
        "cells_counted": report.cells_counted,
        "cells_with_solutions": sorted(report.cells_with_solutions),
        "cells": report.cells,
        "incomplete_cells": report.incomplete_cells,
        "seeds_refined": report.seeds_refined,
        "seeds_duplicate": report.seeds_duplicate,
        "newton_iterations": report.newton_iterations,
        "failures": len(report.failures),
        "failures_by_reason": report.failures_by_reason,
        "budget_exhausted": report.budget_exhausted,
        "cells_exhausted": report.cells_exhausted,
        "target_reached": report.target_reached,
        "defect": report.defect,
    }


def _report(command: str, label: str, instance_hash: str, assumptions: list[str],
            exit_code: int) -> dict:
    """The report skeleton of every command, its blocks left for the command to fill."""
    return {
        "command": command,
        "label": label,
        "instance_hash": instance_hash,
        "assumptions": assumptions,
        "exit_code": exit_code,
        "verdicts": None, "hull": None, "chain": None,
        "certificate": None, "solve": None, "density": None,
        "selftest": None, "timings": {},
    }


def _stage_timings(t0: float, t1: float, t2: float, stage: str) -> dict:
    """load_s from t0 to t1 (read, schema check and parse), stage to t2, total_s until now."""
    return {"load_s": t1 - t0, stage: t2 - t1, "total_s": time.perf_counter() - t0}


def _base_report(command: str, instance: Instance, exit_code: int) -> dict:
    return _report(command, instance.label, instance.hash,
                   list(instance.A.assumptions()), exit_code)


def _write_file(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise InstanceError(f"cannot write {path}: {e.strerror or e}") from None


def _emit(report: dict, out_path: str | None):
    validate_report(report)
    if out_path:
        _write_file(out_path, json.dumps(report, sort_keys=True, indent=2) + "\n")


def _write_csv(solutions, path: str):
    _write_file(path, "re_l,im_l,residual,cell\n" + "".join(
        f"{s.l.real!r},{s.l.imag!r},{s.residual!r},{s.cell}\n" for s in solutions))


def _get_instance(spec: str) -> Instance:
    if spec.startswith("catalog:"):
        return builtin_instance(spec[len("catalog:"):])
    return load_instance(spec)


def _apply_overrides(instance: Instance, args) -> Instance:
    options = {"seed": "seed", "budget": "budget_cells", "target": "target_count"}
    overrides = {field: getattr(args, opt) for opt, field in options.items()
                 if getattr(args, opt, None) is not None}
    try:
        cfg = replace(instance.config, **overrides)
    except ValueError as e:
        raise InstanceError(f"solver override: {e}") from None
    return replace(instance, config=cfg)


def cmd_check(args) -> int:
    t0 = time.perf_counter()
    instance = _get_instance(args.instance)
    t1 = time.perf_counter()
    decision = decide(instance)
    t2 = time.perf_counter()
    v = decision.verdicts
    code = 0 if v.certified_ready else 2
    report = _base_report("check", instance, code)
    report["verdicts"] = _verdict_block(decision)
    report["hull"] = _hull_block(instance, decision.hull)
    report["chain"] = _chain_block(decision.chain)
    report["timings"] = _stage_timings(t0, t1, t2, "decide_s")
    _emit(report, args.out)
    print(f"check {instance.label}: {'failed' if code else 'free and rotund'}")
    if not v.free.ok:
        print(f"  not free: {v.free.witness}")
    if not v.rotund.ok:
        print(f"  not rotund: {v.rotund.witness}")
    print(f"  bidegree {decision.W_effective.bidegree}")
    return code


def cmd_hull(args) -> int:
    t0 = time.perf_counter()
    instance = _get_instance(args.instance)
    t1 = time.perf_counter()
    chain = hull_chain(instance.L, instance.A)
    t2 = time.perf_counter()
    report = _base_report("hull", instance, 0)
    report["hull"] = _hull_block(instance, chain.hull)
    report["chain"] = _chain_block(chain)
    report["timings"] = _stage_timings(t0, t1, t2, "hull_s")
    _emit(report, args.out)
    h = report["hull"]
    print(f"hull {instance.label}: dim_C L = {h['dim_L_complex']}, "
          f"dim_R T = {h['dim_T']}, {h['codim_T']} rational equation(s)")
    for e in h["equations"]:
        print(f"  covector {e}")
    dims = " -> ".join(str(x["dim"]) for x in report["chain"]["entries"])
    print(f"  chain dims {dims}, rounds {report['chain']['rounds']}"
          + (", stabilized at a proper subspace" if report["chain"]["non_free"] else ""))
    return 0


def cmd_certify(args) -> int:
    t0 = time.perf_counter()
    instance = _apply_overrides(_get_instance(args.instance), args)
    t1 = time.perf_counter()
    outcome = certify(instance)
    t2 = time.perf_counter()
    code = 2 if outcome.refused else 0
    report = _base_report("certify", instance, code)
    report["verdicts"] = _verdict_block(outcome.decision)
    report["hull"] = _hull_block(instance, outcome.decision.hull)
    report["certificate"] = _cert_block(outcome)
    report["timings"] = _stage_timings(t0, t1, t2, "certify_s")
    _emit(report, args.out)
    if outcome.refused:
        print(f"certify {instance.label}: refused ({outcome.reason})")
    else:
        c = outcome.certificate
        print(f"certify {instance.label}: value {c.value_str} "
              f"(~ {c.value_float:.6f}), nonzero")
    return code


def _run_solve(args, command: str) -> int:
    instance = _apply_overrides(_get_instance(args.instance), args)
    if command == "density" and args.target is None:
        target = max(instance.config.target_count, 60)
        instance = replace(instance, config=replace(instance.config, target_count=target))
    outcome = solve(instance)
    report = _base_report(command, instance, outcome.exit_code)
    report["verdicts"] = _verdict_block(outcome.certify.decision)
    report["hull"] = _hull_block(instance, outcome.certify.decision.hull)
    report["certificate"] = _cert_block(outcome.certify)
    if outcome.report is not None:
        report["solve"] = _solve_block(outcome.report, instance.config)
        report["timings"] = {k: float(v) for k, v in outcome.report.timings.items()}
        if command == "density":
            t0 = time.perf_counter()
            report["density"] = density_summary(instance, outcome.report)
            report["timings"]["density_s"] = time.perf_counter() - t0
    if args.csv:  # a refusal has no report and writes the header only
        _write_csv(outcome.report.solutions if outcome.report else [], args.csv)
    _emit(report, args.out)
    r = outcome.report
    missing = "".join(f", incomplete cell {c['cell']} ({c['found']} of "
                      f"{'?' if c['expected'] is None else c['expected']} found)"
                      for c in (r.cells if r else ()) if c["cell"] in r.incomplete_cells)
    if outcome.exit_code == 4:
        print(f"{command} {instance.label}: refused, uncertified "
              f"({outcome.certify.reason})")
    elif outcome.exit_code == 5:
        where = (f"in all {r.cells_scanned} distinct cell(s)" if r.cells_exhausted
                 else f"within {instance.config.budget_cells} cells")
        print(f"{command} {instance.label}: certificate nonzero but no point "
              f"passed verification {where}; reported as a defect{missing}")
    else:
        scanned = (f"all {r.cells_scanned} distinct cell(s) scanned" if r.cells_exhausted
                   else f"{r.cells_scanned} cell(s) scanned")
        print(f"{command} {instance.label}: {len(r.solutions)} verified point(s) "
              f"across {len(r.cells_with_solutions)} cell(s), {scanned}{missing}")
        if command == "density" and report["density"]:
            d = report["density"]
            if d["min_pairwise_distance"] is not None:
                print(f"  min pairwise distance {d['min_pairwise_distance']:.4f}, "
                      f"median nearest {d['median_nearest_distance']:.4f}")
    return outcome.exit_code


def cmd_solve(args) -> int:
    return _run_solve(args, "solve")


def cmd_density(args) -> int:
    return _run_solve(args, "density")


def cmd_selftest(args) -> int:
    from .selftest import run_selftest

    passed, results = run_selftest(verbose=True)
    if args.out:
        report = _report("selftest", "selftest", "", [], 0 if passed else 1)
        report["selftest"] = {"passed": passed,
                              "results": [{"name": n, "ok": ok, "detail": d}
                                          for n, ok, d in results]}
        _emit(report, args.out)
    return 0 if passed else 1


def cmd_list(args) -> int:
    for name in catalog_names():
        print(f"catalog:{name}")
    return 0


def _add_common(sp, seed: bool, solver_opts: bool):
    sp.add_argument("instance", help="instance file path or catalog:<name>")
    sp.add_argument("--out", default=None, help="write the JSON report here")
    if seed:
        sp.add_argument("--seed", type=int, default=None,
                        help="override the solver seed (the cuts of an oversized L)")
    if solver_opts:
        sp.add_argument("--budget", type=int, default=None,
                        help="cell budget for the scan")
        sp.add_argument("--target", type=int, default=None,
                        help="stop after this many verified points")
        sp.add_argument("--csv", default=None,
                        help="also write solutions as CSV (re_l,im_l,residual,cell)")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, beside file problems: exit 2 means a failed check."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first main call; parse_args leaves it unchanged."""
    p = _Parser(
        prog="eac",
        description="certify and solve exponential-algebraic intersections "
                    "on products of elliptic curves")
    p.add_argument("--version", action="version", version=f"eac {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    for name, text, func, seed, solver_opts in (
            ("check", "freeness and rotundity verdicts", cmd_check, False, False),
            ("hull", "rational hull and hull chain", cmd_hull, False, False),
            ("certify", "non-vanishing certificate", cmd_certify, True, False),
            ("solve", "harvest verified intersection points", cmd_solve, True, True),
            ("density", "larger harvest with spread statistics", cmd_density, True, True)):
        sp = sub.add_parser(name, help=text)
        _add_common(sp, seed, solver_opts)
        sp.set_defaults(func=func)
    sp = sub.add_parser("selftest", help="run the built-in verification suite")
    sp.add_argument("--out", default=None, help="write the JSON report here")
    sp.set_defaults(func=cmd_selftest)
    sp = sub.add_parser("list", help="list built-in catalog instances")
    sp.set_defaults(func=cmd_list)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InstanceError, BidegreeMismatch, NotAHypersurface) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
