"""Per-layer timing by wrapping the public functions of the eac modules.

Nothing under src/ changes. Each target function is replaced, in every
loaded eac module that holds a reference to it, by a wrapper that counts
calls and busy time. A function imported by name (pipeline does
``from .hull import rational_hull``) is looked up in the importing module
at call time, so that module's reference is the one that must be patched.

Busy time is inclusive: certify's time contains the check_pair, hull and
certificate calls made inside it. Calls made on the solver's scan threads
add their busy time up, so busy time can exceed wall time.
"""

from __future__ import annotations

import functools
import statistics
import sys
import threading
import time
from collections import Counter

import numpy as np

# Failure reasons returned by solver.newton_refine and solver.verify_solution,
# by prefix; "no convergence" carries the residual after the prefix.
FAIL_REASONS = {
    "landed on a pole": "landed_on_pole",
    "non-finite value": "non_finite_value",
    "singular derivative": "singular_derivative",
    "diverged from its cell": "diverged",
    "no convergence": "no_convergence",
    "doubled-precision residual too large": "residual_too_large",
    "winding number zero": "winding_zero",
    "no clean winding circle": "no_winding_circle",
}
FAIL_SLUGS = list(FAIL_REASONS.values()) + ["other"]


def fail_slug(reason: str) -> str:
    for prefix, slug in FAIL_REASONS.items():
        if reason.startswith(prefix):
            return slug
    return "other"


def _union_length(spans) -> float:
    total, end = 0.0, None
    for t0, t1 in sorted(spans):
        if end is None or t0 > end:
            total += t1 - t0
            end = t1
        elif t1 > end:
            total += t1 - end
            end = t1
    return total


class Tracer:
    """Call counts, busy seconds and outcome counters keyed by layer name."""

    def __init__(self):
        self._lock = threading.Lock()
        self.calls = Counter()
        self.busy = Counter()
        self.counts = Counter()
        self._spans = []
        self.scan_walls = []
        self.ops = 0
        self._undo = []

    # hooks run under the lock with the call's arguments and result

    def _grid_points(self, args, out, dt):
        self.counts["grid_points"] += int(np.size(args[1]))

    def _scan(self, args, out, dt):
        self.counts["seeds"] += len(out)

    def _newton(self, args, out, dt):
        if out[0] is None:
            self.counts["newton_fail"] += 1
            self.counts["fail." + fail_slug(out[1])] += 1

    def _verify(self, args, out, dt):
        if not out[0]:
            self.counts["verify_reject"] += 1
            self.counts["fail." + fail_slug(out[3])] += 1

    def _resolve_w(self, args, out, dt):
        if out[1] is not None:
            self.calls["pipeline.resolve_w.measuring"] += 1
            self.busy["pipeline.resolve_w.measuring"] += dt

    def _wrap(self, name, fn, hook=None, spans=False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            returned = False
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                returned = True
                return out
            finally:
                t1 = time.perf_counter()
                with self._lock:
                    self.calls[name] += 1
                    self.busy[name] += t1 - t0
                    if spans:
                        self._spans.append((t0, t1))
                    if returned and hook is not None:
                        hook(args, out, t1 - t0)
        return wrapper

    def install(self):
        from eac import (checker, forms, hull, instance, pipeline, solver,
                         variety, weierstrass)

        functions = [
            (instance.load_instance, "instance.load_instance", None),
            (instance.validate_report, "instance.validate_report", None),
            (checker.check_pair, "checker.check_pair", None),
            (hull.rational_hull, "hull.rational_hull", None),
            (hull.hull_chain, "hull.hull_chain", None),
            (forms.eac_certificate, "forms.eac_certificate", None),
            (pipeline.certify, "pipeline.certify", None),
            (pipeline.resolve_w, "pipeline.resolve_w", self._resolve_w),
            (pipeline.density_summary, "pipeline.density_summary", None),
            (weierstrass.bidegree_of, "weierstrass.bidegree_of", None),
            (weierstrass.jacobian_probe, "pipeline.jacobian_probe", None),
            (solver.coarse_scan, "solver.coarse_scan", self._scan),
            (solver.newton_refine, "solver.newton_refine", self._newton),
            (solver.verify_solution, "solver.verify_solution", self._verify),
        ]
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "eac" or n.startswith("eac."))]
        for fn, name, hook in functions:
            wrapper = self._wrap(name, fn, hook, spans=(name == "solver.coarse_scan"))
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, fn))
        methods = [
            (weierstrass.WpEvaluator, "wp_grid", "weierstrass.grid", self._grid_points),
            (weierstrass.WpEvaluator, "wp_prime_grid", "weierstrass.grid", self._grid_points),
            (variety.ProductVariety, "torus_distance", "variety.torus_distance", None),
        ]
        for cls, attr, name, hook in methods:
            fn = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(name, fn, hook))
            self._undo.append((cls, attr, fn))

    def uninstall(self):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def end_op(self):
        """Close one operation: record the wall time its coarse scans covered."""
        with self._lock:
            self.scan_walls.append(_union_length(self._spans))
            self._spans.clear()
            self.ops += 1

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer figures over all operations traced so far."""
        c, b, k = self.calls, self.busy, self.counts
        ops = max(self.ops, 1)

        def ms_per_call(name):
            return 1e3 * b[name] / c[name] if c[name] else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        newton = c["solver.newton_refine"]
        converged = newton - k["newton_fail"]
        verified = c["solver.verify_solution"]
        points = verified - k["verify_reject"]
        scans = c["solver.coarse_scan"]
        out = {
            "instance.load_ms": (ms_per_call("instance.load_instance"), "ms"),
            "instance.validate_report_ms": (ms_per_call("instance.validate_report"), "ms"),
            "checker.check_pair_ms": (ms_per_call("checker.check_pair"), "ms"),
            "hull.rational_hull_ms": (ms_per_call("hull.rational_hull"), "ms"),
            "hull.hull_chain_ms": (ms_per_call("hull.hull_chain"), "ms"),
            "forms.eac_certificate_ms": (ms_per_call("forms.eac_certificate"), "ms"),
            "pipeline.certify_ms": (ms_per_call("pipeline.certify"), "ms"),
            "pipeline.resolve_w_ms": (ms_per_call("pipeline.resolve_w.measuring"), "ms"),
            "weierstrass.bidegree_of_ms": (ms_per_call("weierstrass.bidegree_of"), "ms"),
            "weierstrass.grid_ns_per_pt": (
                1e9 * ratio(b["weierstrass.grid"], k["grid_points"]), "ns"),
            "weierstrass.grid_calls": (c["weierstrass.grid"] / ops, "count"),
            "weierstrass.grid_points": (k["grid_points"] / ops, "count"),
            "solver.coarse_scan.ms_per_cell": (ms_per_call("solver.coarse_scan"), "ms"),
            "solver.scan_wall_s": (
                statistics.median(self.scan_walls) if self.scan_walls else 0.0, "s"),
            "solver.coarse_scan.calls": (scans / ops, "count"),
            "solver.seeds_per_cell": (ratio(k["seeds"], scans), "count"),
            "solver.newton_refine.ms_per_seed": (ms_per_call("solver.newton_refine"), "ms"),
            "solver.newton_refine.fail_ratio": (ratio(k["newton_fail"], newton), "ratio"),
            "solver.verify_solution.ms_per_point": (
                ms_per_call("solver.verify_solution"), "ms"),
            "solver.verify_solution.reject_ratio": (
                ratio(k["verify_reject"], verified), "ratio"),
            "solver.seeds_per_point": (ratio(newton, points), "count"),
            "solver.dup_ratio": (ratio(converged - verified, converged), "ratio"),
            "solver.points_per_op": (points / ops, "count"),
            "variety.torus_distance.calls": (c["variety.torus_distance"] / ops, "count"),
            "variety.torus_distance_ms": (1e3 * b["variety.torus_distance"] / ops, "ms"),
            "pipeline.jacobian_probe.ms_per_point": (
                ms_per_call("pipeline.jacobian_probe"), "ms"),
            "pipeline.density_summary_ms": (ms_per_call("pipeline.density_summary"), "ms"),
        }
        for slug in FAIL_SLUGS:
            out["solver.fail." + slug] = (k["fail." + slug] / ops, "count")
        return out
