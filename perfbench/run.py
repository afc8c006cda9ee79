#!/usr/bin/env python3
"""Benchmark of the eac certifier and point harvester.

    python3 perfbench/run.py --workload harvest-diag --seed 1 --seconds 25 --trace 0

Runs one workload (harvest-diag, harvest-irrational or certify-sweep, see
workloads.py) against the eac sources in this checkout's src/, in one
process with EAC_THREADS set to the number of CPUs this process may use.
Every report is checked; a wrong one counts as a failed operation.

--trace 0 prints the end-to-end metrics; --trace 1 wraps the eac layers
(tracer.py) and prints the per-layer metrics instead. Human-readable lines
and one {"details": ...} line come first; the last line of standard output
is the result object {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# What a fresh `eac` process pays before it can work on these inputs.
SETUP_CODE = """
import sys
import eac.cli
from eac.instance import load_instance
from eac.weierstrass import ProductEvaluator
for path in sys.argv[1:]:
    ProductEvaluator(load_instance(path).A)
"""
SETUP_REPEATS = 7
IMPORT_REPEATS = 3
IMPORTS = {"cli.import_s": "eac.cli", "cli.import_jsonschema_s": "jsonschema",
           "cli.import_numpy_s": "numpy"}
CHILD_TIMEOUT_S = 120


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def setup_seconds(files: list[str]) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, *files], cwd=ROOT,
                       env=child_env(), check=True, timeout=CHILD_TIMEOUT_S,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def import_seconds() -> dict[str, float]:
    """Cumulative import time of eac.cli, jsonschema and numpy, by -X importtime."""
    samples = {k: [] for k in IMPORTS}
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import eac.cli"],
                              cwd=ROOT, env=child_env(), check=True,
                              timeout=CHILD_TIMEOUT_S, capture_output=True, text=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
        for metric, module in IMPORTS.items():
            samples[metric].append(cumulative.get(module, 0.0))
    return {k: statistics.median(v) for k, v in samples.items()}


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(nproc: int) -> dict:
    from importlib.metadata import version

    import mpmath
    import numpy

    return {"nproc": nproc, "EAC_THREADS": os.environ["EAC_THREADS"],
            "git_commit": git_commit(), "python": platform.python_version(),
            "numpy": numpy.__version__, "mpmath": mpmath.__version__,
            "jsonschema": version("jsonschema")}


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def mark_digest_changes(ops) -> str:
    """Fail every op whose report differs from the first one of the same command.

    Returns the workload fingerprint: a digest over the first report digest
    of each command, timings excluded.
    """
    first = {}
    for op in ops:
        if not op.digest:
            continue
        if first.setdefault(op.key, op.digest) != op.digest:
            op.problems.append(f"{op.key}: report differs from the first run of this command")
    blob = json.dumps(sorted(first.items())).encode()
    return hashlib.sha256(blob).hexdigest()


def end_to_end(wl, seconds: float) -> tuple[dict, list, dict]:
    from workloads import run_passes

    setup = setup_seconds(wl.files)
    ops = run_passes(wl, seconds)
    n = len(ops)
    metrics = {
        "setup_s": (statistics.median(setup), "s", SETUP_REPEATS),
        "op_ms.p50": (1e3 * statistics.median(op.wall for op in ops), "ms", n),
        "ms_per_item": (1e3 * statistics.median(op.wall / max(op.items, 1) for op in ops),
                        "ms", n),
        "cpu_ms_per_item": (1e3 * statistics.median(op.cpu / max(op.items, 1) for op in ops),
                            "ms", n),
    }
    return metrics, ops, {"setup_s_samples": setup}


def per_layer(wl, seconds: float, harvest: bool) -> tuple[dict, list, dict]:
    from tracer import Tracer
    from workloads import run_passes

    imports = import_seconds()
    untraced = run_passes(wl, seconds / 2)
    single = []
    if harvest:
        threads = os.environ["EAC_THREADS"]
        os.environ["EAC_THREADS"] = "1"
        try:
            single = [wl.run(*wl.commands()[0])]
        finally:
            os.environ["EAC_THREADS"] = threads
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_passes(wl, seconds / 2, on_op=lambda op: tracer.end_op())
    finally:
        tracer.uninstall()
    n = len(traced)
    metrics = {k: (v, u, n) for k, (v, u) in tracer.metrics().items()}
    for k, v in imports.items():
        metrics[k] = (v, "s", IMPORT_REPEATS)
    # the report's own counters next to the wrapped call counts; the gaps are
    # recorded, not gated on
    solves = [op.report["solve"] for op in traced if op.report and op.report["solve"]]
    cells = sum(s["cells_scanned"] for s in solves)
    seeds = sum(s["seeds_refined"] for s in solves)
    failures = sum(s["failures"] for s in solves)
    c, k = tracer.calls, tracer.counts
    metrics["solver.cells_scanned"] = (cells / n, "count", n)
    metrics["solver.gap.scan_calls"] = ((c["solver.coarse_scan"] - cells) / n, "count", n)
    metrics["solver.gap.seeds_refined"] = ((c["solver.newton_refine"] - seeds) / n, "count", n)
    metrics["solver.gap.failures"] = (
        (k["newton_fail"] + k["verify_reject"] - failures) / n, "count", n)
    untraced_wall = statistics.median(op.wall for op in untraced)
    metrics["cmd_ms.p90"] = (1e3 * p90([op.wall for op in untraced]), "ms", len(untraced))
    metrics["baseline.harvest_1thread_s"] = (single[0].wall if single else 0.0, "s", len(single))
    metrics["baseline.harvest_nproc_s"] = (untraced_wall if harvest else 0.0, "s", len(untraced))
    metrics["trace.overhead_ratio"] = (
        statistics.median(op.wall for op in traced) / untraced_wall - 1.0, "ratio", n)
    return metrics, untraced + single + traced, {
        "untraced_ops": len(untraced), "traced_ops": n, "single_thread_ops": len(single)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "eac", "__init__.py")):
        print(f"perfbench: no eac sources under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    os.environ["EAC_THREADS"] = str(nproc)
    sys.path.insert(0, SRC)
    import eac

    if os.path.dirname(os.path.abspath(eac.__file__)) != os.path.join(SRC, "eac"):
        print(f"perfbench: imported eac from {eac.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import HARVEST, WORKLOADS, Workload

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    import mpmath  # noqa: F401  verify_solution imports it lazily; pay that before timing

    harvest = args.workload in HARVEST
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        wl = Workload(args.workload, args.seed, workdir)
        if args.trace:
            metrics, ops, extra = per_layer(wl, args.seconds, harvest)
        else:
            metrics, ops, extra = end_to_end(wl, args.seconds)
    fingerprint = mark_digest_changes(ops)
    failed = sum(1 for op in ops if op.problems)
    walls = sorted(op.wall for op in ops)
    problems = [p for op in ops for p in op.problems]
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit:6s} n={samples}")
    print(f"{'ops_failed_ratio':40s} {failed / len(ops):14.6g} {'ratio':6s} n={len(ops)}")
    details = dict(environment(nproc), workload=args.workload, seed=args.seed,
                   seconds=args.seconds, trace=args.trace, report_digest=fingerprint,
                   ops_failed_ratio=failed / len(ops), problems=problems[:20],
                   op_wall_s_min_median_max=[walls[0], statistics.median(walls), walls[-1]],
                   **extra)
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
