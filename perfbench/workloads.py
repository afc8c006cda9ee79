"""Workload inputs, operations and output checks.

Every input is an instance file this module writes into the run's work
directory; the program reads nothing else. Each operation is one in-process
``eac.cli.main`` call with ``--out``, timed around that call only. Its report
is then checked here with the original (unwrapped) library functions.

Workloads:
  harvest-diag        eac density on the flagship diagonal line. exp on L
                      has a kernel, so most cells re-find known points.
  harvest-irrational  eac density on the irrational-slope line. Trivial
                      kernel: about one Newton seed per point.
  certify-sweep       check, hull and certify over the 14 catalog instances
                      and 14 seeded variants without a declared bidegree.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import time
from dataclasses import dataclass, field

import jsonschema
from eac import cli
from eac.instance import load_instance, validate_report
from eac.variety import ProductVariety
from eac.weierstrass import ProductEvaluator

WORKLOADS = ("harvest-diag", "harvest-irrational", "certify-sweep")

DIAG = ["1", "1"]
IRR = ["1", "sqrt(2)"]
FREE_CHAIN = [1, 3, 2]
FIBER1 = "not free: W is a union of translates of factor 1"
FIBER2 = "not free: W is a union of translates of factor 2"

# The built-in catalog as shipped (eac list), copied so that a change to the
# program's catalog cannot change the workload: L basis row, W as
# (Segre coordinate index, coefficient) pairs with index 0 the constant 1,
# the declared bidegree, the exit code of check and certify, the hull
# chain dimensions, and the certificate value or the refusal reason.
CATALOG = {
    "diag-prod-one": (DIAG, [(4, 1.0), (0, -1.0)], (2, 2), 0, FREE_CHAIN,
                      "2*sqrt(5)+2*sqrt(2)"),
    "diag-prod-two": (DIAG, [(4, 1.0), (0, -2.0)], (2, 2), 0, FREE_CHAIN,
                      "2*sqrt(5)+2*sqrt(2)"),
    "diag-sum-three": (DIAG, [(3, 1.0), (1, 1.0), (0, -3.0)], (2, 2), 0, FREE_CHAIN,
                       "2*sqrt(5)+2*sqrt(2)"),
    "diag-deriv-match": (DIAG, [(6, 1.0), (1, -1.0)], (3, 2), 0, FREE_CHAIN,
                         "3*sqrt(5)+2*sqrt(2)"),
    "diag-cross-deriv": (DIAG, [(2, 1.0), (3, -1.0)], (2, 3), 0, FREE_CHAIN,
                         "2*sqrt(5)+3*sqrt(2)"),
    "diag-deriv-prod": (DIAG, [(8, 1.0), (0, -1.0)], (3, 3), 0, FREE_CHAIN,
                        "3*sqrt(5)+3*sqrt(2)"),
    "fiber-wp1": (DIAG, [(3, 1.0), (0, -2.0)], (2, 0), 2, FREE_CHAIN, FIBER2),
    "fiber-wp2": (DIAG, [(1, 1.0), (0, -2.0)], (0, 2), 2, FREE_CHAIN, FIBER1),
    "fiber-wp1-deriv": (DIAG, [(6, 1.0), (0, -2.0)], (3, 0), 2, FREE_CHAIN, FIBER2),
    "fiber-wp2-deriv": (DIAG, [(2, 1.0), (0, -2.0)], (0, 3), 2, FREE_CHAIN, FIBER1),
    "axis-line": (["1", "0"], [(4, 1.0), (0, -1.0)], (2, 2), 2, [1, 2],
                  "not free: L lies in the subproduct of factors [1]"),
    "rational-slope": (["1", "2"], [(4, 1.0), (0, -1.0)], (2, 2), 0, FREE_CHAIN,
                       "sqrt(5)+4*sqrt(2)"),
    "irrational-slope": (IRR, [(4, 1.0), (0, -1.0)], (2, 2), 0, [1, 4, 2],
                         "sqrt(5)+2*sqrt(2)"),
    "anti-diagonal": (["1", "-1"], [(4, 1.0), (0, -1.0)], (2, 2), 0, FREE_CHAIN,
                      "2*sqrt(5)+2*sqrt(2)"),
}

# Variants take these W shapes (each has a constant term to scale), twice
# each, with a slope drawn from VARIANT_SLOPES. The slopes are the ones whose
# realified equation volume equals the hull volume, so value_float and
# cross_float must agree; for a rational slope such as 2 the two differ by
# the lattice index and only have to vanish together.
VARIANT_SHAPES = ("diag-prod-one", "diag-sum-three", "diag-deriv-prod", "fiber-wp1",
                  "fiber-wp2", "fiber-wp1-deriv", "fiber-wp2-deriv")
VARIANT_SLOPES = {"1": FREE_CHAIN, "-1": FREE_CHAIN, "sqrt(2)": [1, 4, 2],
                  "sqrt(3)": [1, 4, 2], "1+sqrt(2)": [1, 4, 2]}

HARVEST = {"harvest-diag": "diag-prod-one", "harvest-irrational": "irrational-slope"}
# what `eac density` ships: 64 cells, target raised to 60
HARVEST_SOLVER = {"budget_cells": 64, "target_count": 60}
RESIDUAL_BOUND = 1e-10
CROSS_TOL = 1e-12
# held before any wrapping, so output checks never show up in the trace
_torus_distance = ProductVariety.torus_distance


def instance_dict(label, basis, terms, bidegree=None, solver=None) -> dict:
    monomials = []
    for index, coeff in terms:
        expo = [0] * 9
        expo[index] = 1
        monomials.append({"exponents": expo, "re": coeff, "im": 0.0})
    out = {
        "label": label,
        "factors": [{"tau_re": "0", "tau_im": {"d": 2, "q": "1"}},
                    {"tau_re": "0", "tau_im": {"d": 5, "q": "1"}}],
        "assertions": {"pairwise_nonisogenous": True, "no_cm": True},
        "L": {"basis": [list(basis)]},
        "W": {"kind": "segre-hypersurface", "dim": 1, "monomials": monomials},
    }
    if bidegree is not None:
        out["W"]["bidegree"] = list(bidegree)
    if solver is not None:
        out["solver"] = solver
    return out


@dataclass
class Expect:
    """What one instance file must produce under check, hull and certify."""

    code: int
    chain: list
    bidegree: tuple
    certificate: str | None = None  # value string or refusal reason, catalog only
    variant: bool = False


@dataclass
class Op:
    key: str
    wall: float
    cpu: float
    items: int
    problems: list = field(default_factory=list)
    digest: str = ""
    report: dict | None = None


def report_digest(report: dict) -> str:
    body = {k: v for k, v in report.items() if k != "timings"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


class Workload:
    """Generated inputs plus the commands of one pass over them."""

    def __init__(self, name: str, seed: int, workdir: str):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.out_path = os.path.join(workdir, "report.json")
        self.files: list[str] = []
        self.expect: dict[str, Expect] = {}
        if name in HARVEST:
            self._harvest_inputs(HARVEST[name])
        else:
            self._sweep_inputs()

    def _write(self, stem: str, data: dict) -> str:
        path = os.path.join(self.workdir, stem + ".json")
        with open(path, "w") as fh:
            json.dump(data, fh, indent=1)
        self.files.append(path)
        return path

    def _harvest_inputs(self, label: str):
        basis, terms, bideg, _, chain, value = CATALOG[label]
        solver = dict(HARVEST_SOLVER, seed=self.seed)
        path = self._write(label, instance_dict(label, basis, terms, bideg, solver))
        self.expect[path] = Expect(0, chain, bideg, value)
        self.instance = load_instance(path)
        self.oracle = ProductEvaluator(self.instance.A, backend="lattice-sum")

    def _sweep_inputs(self):
        for label, (basis, terms, bideg, code, chain, cert) in CATALOG.items():
            path = self._write(label, instance_dict(label, basis, terms, bideg))
            self.expect[path] = Expect(code, chain, bideg, cert)
        rng = random.Random(self.seed)
        slopes = sorted(VARIANT_SLOPES)
        for i in range(2 * len(VARIANT_SHAPES)):
            shape = VARIANT_SHAPES[i % len(VARIANT_SHAPES)]
            basis, terms, bideg, code, _, _ = CATALOG[shape]
            slope = rng.choice(slopes)
            scale = round(rng.uniform(0.5, 2.5), 6)
            terms = [(j, c * scale if j == 0 else c) for j, c in terms]
            label = f"variant-{i:02d}-{shape}"
            data = instance_dict(label, [basis[0], slope], terms,
                                 solver={"seed": self.seed})
            path = self._write(label, data)
            self.expect[path] = Expect(code, VARIANT_SLOPES[slope], bideg, variant=True)

    def commands(self) -> list[tuple[str, list[str]]]:
        """(key, argv) for each operation of one pass, in a fixed order."""
        if self.name in HARVEST:
            path = self.files[0]
            return [(f"density:{os.path.basename(path)}",
                     ["density", path, "--out", self.out_path])]
        return [(f"{cmd}:{os.path.basename(path)}", [cmd, path, "--out", self.out_path])
                for path in self.files for cmd in ("check", "hull", "certify")]

    def run(self, key: str, argv: list[str]) -> Op:
        """Run one command in process, timing only the call, then check it."""
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        sink = io.StringIO()
        code, error = None, ""
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                code = cli.main(argv)
            except Exception as e:  # a crash is a failed operation, not a failed run
                error = f"{type(e).__name__}: {e}"
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        op = Op(key, wall, cpu, items=1)
        if code is None:
            op.problems.append(f"{key}: raised {error}")
            return op
        try:
            with open(self.out_path) as fh:
                op.report = json.load(fh)
        except (OSError, ValueError) as e:
            op.problems.append(f"{key}: no readable report ({e})")
            return op
        op.digest = report_digest(op.report)
        op.problems = [f"{key}: {p}" for p in self.check(argv[0], argv[1], code, op.report)]
        if self.name in HARVEST:
            op.items = len(op.report["solve"]["solutions"]) if op.report["solve"] else 0
        return op

    def check(self, cmd: str, path: str, code: int, rep: dict) -> list[str]:
        exp = self.expect[path]
        want = 0 if cmd in ("hull", "density") else exp.code
        bad = []
        if code != want or rep["exit_code"] != code:
            bad.append(f"exit code {code} (report {rep['exit_code']}), expected {want}")
        try:
            validate_report(rep)
        except jsonschema.ValidationError as e:
            bad.append(f"report fails validate_report: {e.message}")
        if cmd in ("hull", "check"):
            dims = [e["dim"] for e in rep["chain"]["entries"]]
            if dims != exp.chain:
                bad.append(f"chain dims {dims}, expected {exp.chain}")
        if cmd in ("check", "certify"):
            bideg = rep["verdicts"]["bidegree"]
            if bideg is None or tuple(bideg) != tuple(exp.bidegree):
                bad.append(f"bidegree {bideg}, expected {list(exp.bidegree)}")
            if exp.code == 2 and not rep["verdicts"]["free_witness"]:
                bad.append("failed check without a witness")
        if cmd in ("certify", "density"):
            bad += self._check_certificate(exp, rep["certificate"])
        if cmd == "density":
            bad += self._check_points(rep)
        return bad

    @staticmethod
    def _check_certificate(exp: Expect, cert: dict) -> list[str]:
        bad = []
        if exp.code == 0:
            if cert["refused"] or not cert["nonzero"]:
                bad.append(f"certificate refused or zero: {cert['reason']}")
            elif exp.certificate is not None and cert["value"] != exp.certificate:
                bad.append(f"certificate {cert['value']}, expected {exp.certificate}")
            elif exp.variant and abs(cert["value_float"] - cert["cross_float"]) > CROSS_TOL:
                bad.append(f"value_float {cert['value_float']!r} and cross_float "
                           f"{cert['cross_float']!r} differ")
        elif not cert["refused"]:
            bad.append("certificate emitted for a pair that must be refused")
        elif exp.certificate is not None and cert["reason"] != exp.certificate:
            bad.append(f"refusal {cert['reason']!r}, expected {exp.certificate!r}")
        elif exp.variant and not (cert["reason"] or "").startswith("not free: W is a union"):
            bad.append(f"refusal without the fiber witness: {cert['reason']!r}")
        return bad

    def _check_points(self, rep: dict) -> list[str]:
        inst = self.instance
        solve = rep["solve"]
        if not solve:
            return ["no solve block"]
        sols = solve["solutions"]
        bad = []
        if not sols or solve["distinct_count"] != len(sols):
            bad.append(f"{len(sols)} solutions, distinct_count {solve['distinct_count']}")
        pts = []
        for s in sols:
            z = tuple(complex(re, im) for re, im in s["z"])
            res = abs(self.oracle.eval_polynomial(inst.F, z))
            if not res < RESIDUAL_BOUND:
                bad.append(f"lattice-sum residual {res:.3e} at l = {s['re_l']}+{s['im_l']}i")
            if s["winding"] < 1:
                bad.append(f"winding {s['winding']} at l = {s['re_l']}+{s['im_l']}i")
            pts.append(z)
        tol = inst.config.dedup_tol
        for i in range(len(pts)):
            for j in range(i):
                d = _torus_distance(inst.A, pts[i], pts[j])
                if not d > tol:
                    bad.append(f"points {j} and {i} are {d:.3e} apart, dedup_tol {tol}")
        return bad


def run_passes(wl: Workload, seconds: float, on_op=None) -> list[Op]:
    """Whole passes over the workload's commands until `seconds` have passed."""
    ops: list[Op] = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        for key, argv in wl.commands():
            op = wl.run(key, argv)
            if on_op is not None:
                on_op(op)
            ops.append(op)
    return ops

