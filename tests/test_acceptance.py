"""Acceptance gate: one test per shipped guarantee, at the stated tolerance.

Each test ends with a single printed pass line carrying the measured margin,
so a -s run reads as a checklist. Budgets and tolerances here are the
promises, not what happens to pass today; do not loosen them to keep green.
"""

import dataclasses
import json
import math
import random
import time

import numpy as np
import pytest
from scipy.spatial import cKDTree

from eac.cli import main
from eac.forms import eac_certificate, hypersurface_form, residual_covectors
from eac.hull import rational_hull
from eac.instance import builtin_instance, catalog_names
from eac.multiquad import MultiQuadElem
from eac.pipeline import certify, solve
from eac.segre import SegrePolynomial
from eac.solver import SolverConfig
from eac.variety import ExactSubspace, ProductVariety
from eac.weierstrass import (ProductEvaluator, WpEvaluator, jacobian_probe,
                             point_count_on_curve)
from tests.conftest import factor_sqrt
from tests.test_forms import (_recombine_check, brute_wedge_covectors,
                              brute_wedge_forms, to_mask_form)

FLAGSHIP = "catalog:diag-prod-one"


def test_criterion_1_hull_exact_and_fast(tmp_path):
    out = tmp_path / "hull.json"
    t0 = time.perf_counter()
    code = main(["hull", FLAGSHIP, "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    report = json.loads(out.read_text())
    assert report["hull"]["dim_T"] == 3
    assert report["hull"]["codim_T"] == 1
    # the single defining equation a1 - a2 = 0, i.e. Re z1 = Re z2
    assert report["hull"]["equations"] == [[1, 0, -1, 0]]
    assert [e["dim"] for e in report["chain"]["entries"]] == [1, 3, 2]
    assert report["chain"]["rounds"] == 1
    assert elapsed < 1.0
    print(f"criterion 1: PASS hull {{a1 = a2}}, dim 3, one round, {elapsed:.3f}s")


def test_criterion_2_certificate_with_independent_oracle(tmp_path, A2, diagonal_line):
    # oracle first: expand eta ^ omega_T ^ omega_T' in a dense mask algebra
    # that shares nothing with the sparse forms implementation
    hull = rational_hull(diagonal_line, A2)
    zero = MultiQuadElem()
    omega_T = brute_wedge_covectors(
        [[MultiQuadElem.from_rational(c) for c in e] for e in hull.equations], 4, zero)
    omega_Tp = brute_wedge_covectors(residual_covectors(diagonal_line, hull, A2), 4, zero)
    eta = to_mask_form(hypersurface_form(2, 2), zero)
    prod = brute_wedge_forms(eta, brute_wedge_forms(omega_T, omega_Tp, zero), zero)
    oracle = prod.get(0b1111, zero)

    out = tmp_path / "cert.json"
    t0 = time.perf_counter()
    code = main(["certify", FLAGSHIP, "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    report = json.loads(out.read_text())
    cert = report["certificate"]
    assert cert["value"] == "2*sqrt(5)+2*sqrt(2)"
    assert cert["nonzero"] is True
    assert oracle == MultiQuadElem({5: 2, 2: 2})
    assert abs(cert["value_float"] - float(oracle)) < 1e-12
    assert abs(cert["value_float"] - (2 * math.sqrt(5) + 2 * math.sqrt(2))) < 1e-12
    assert abs(cert["value_float"] - cert["cross_float"]) < 1e-12
    assert elapsed < 1.0
    print(f"criterion 2: PASS value 2*sqrt(5)+2*sqrt(2) == oracle, {elapsed:.3f}s")


def test_criterion_3_solver_finds_verified_point(tmp_path):
    out = tmp_path / "solve.json"
    t0 = time.perf_counter()
    code = main(["solve", FLAGSHIP, "--budget", "8", "--target", "3",
                 "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    report = json.loads(out.read_text())
    sols = report["solve"]["solutions"]
    assert len(sols) >= 1
    for s in sols:
        assert s["residual"] < 1e-10
        assert s["winding"] >= 1
    assert elapsed < 60.0
    print(f"criterion 3: PASS {len(sols)} verified point(s), "
          f"max residual {max(s['residual'] for s in sols):.2e}, {elapsed:.1f}s")


def test_criterion_4_density_harvest(tmp_path, A2):
    out = tmp_path / "density.json"
    t0 = time.perf_counter()
    code = main(["density", FLAGSHIP, "--budget", "160", "--target", "30",
                 "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    report = json.loads(out.read_text())
    sols = report["solve"]["solutions"]
    assert len(sols) >= 25
    pts = [tuple(complex(re, im) for re, im in s["z"]) for s in sols]
    min_d = min(A2.torus_distance(p, q)
                for i, p in enumerate(pts) for q in pts[i + 1:])
    assert min_d > 1e-6
    cells = {s["cell"] for s in sols}
    assert len(cells) >= 5
    assert elapsed < 600.0
    print(f"criterion 4: PASS {len(pts)} distinct points "
          f"(min separation {min_d:.3f}) in {len(cells)} cells, {elapsed:.1f}s")


def test_criterion_5_jacobian_rank_at_harvested_point(flagship, pe2):
    outcome = solve(dataclasses.replace(
        flagship, config=SolverConfig(budget_cells=4, target_count=3)))
    assert outcome.exit_code == 0
    ranked = [s for s in outcome.report.solutions if s.jacobian_rank == 2]
    assert ranked
    # re-probe one point with the finite-difference tolerance made explicit
    s = ranked[0]
    direction = tuple(complex(x) for x in outcome.certify.L_used.basis[0])
    rank = jacobian_probe(s.l, direction, flagship.F, flagship.A, pe2,
                          step=1e-6, rel_tol=1e-8)
    assert rank == 2
    print(f"criterion 5: PASS jacobian rank 2 at l = {s.l:.4f} "
          f"({len(ranked)}/{len(outcome.report.solutions)} harvested points)")


def test_criterion_6_catalog_concordance():
    names = catalog_names()
    assert len(names) >= 10
    cfg = SolverConfig(budget_cells=8, target_count=2)
    disagreements = []
    for name in names:
        inst = builtin_instance(name)
        cert = certify(inst)
        ready = bool(cert.decision.verdicts.free.ok) and bool(cert.decision.verdicts.rotund.ok)
        cert_nonzero = cert.certificate is not None and cert.certificate.nonzero
        solved = solve(dataclasses.replace(inst, config=cfg)).exit_code == 0
        if not (ready == cert_nonzero == solved):
            disagreements.append((name, ready, cert_nonzero, solved))
    assert disagreements == []
    print(f"criterion 6: PASS {len(names)} instances, "
          "checks == certificate == solver, zero disagreements")


def test_criterion_7_evaluator_quality():
    taus = (1j * math.sqrt(2), 1j * math.sqrt(5))
    worst = 0.0
    for tau in taus:
        evs = {b: WpEvaluator(tau, backend=b) for b in ("theta", "lattice-sum")}
        for backend, ev in evs.items():
            g2, g3 = ev.invariants()
            rng = random.Random(hash((backend, tau.imag)) & 0xFFFF)
            for _ in range(100):
                z = (rng.uniform(0.05, 0.95) + rng.uniform(0.05, 0.95) * tau)
                p, dp = ev.wp(z), ev.wp_prime(z)
                checks = (
                    (p, ev.wp(-z)),
                    (dp, -ev.wp_prime(-z)),
                    (p, ev.wp(z + 1)),
                    (p, ev.wp(z + tau)),
                    (dp * dp, 4 * p ** 3 - g2 * p - g3),
                )
                for lhs, rhs in checks:
                    res = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)
                    worst = max(worst, res)
                    assert res < 1e-10
        rng = random.Random(5)
        for _ in range(100):
            z = rng.uniform(0.05, 0.95) + rng.uniform(0.05, 0.95) * tau
            a, b = evs["theta"], evs["lattice-sum"]
            assert abs(a.wp(z) - b.wp(z)) < 1e-9 * max(1.0, abs(a.wp(z)))
            assert abs(a.wp_prime(z) - b.wp_prime(z)) < 1e-9 * max(1.0, abs(a.wp_prime(z)))

    A1 = ProductVariety((factor_sqrt(3),))
    pe1 = ProductEvaluator(A1)
    jitters = ((0.23, 0.31), (0.11, 0.47), (0.37, 0.19))
    for c in (1.7, -0.6 + 0.4j):
        wp_counts = {point_count_on_curve(
            SegrePolynomial.linear(1, {1: 1, 0: -c}), A1, pe1, jitter=j)
            for j in jitters}
        dwp_counts = {point_count_on_curve(
            SegrePolynomial.linear(1, {2: 1, 0: -c}), A1, pe1, jitter=j)
            for j in jitters}
        assert wp_counts == {2}
        assert dwp_counts == {3}
    print(f"criterion 7: PASS worst identity residual {worst:.2e}, "
          "fiber counts 2/3 under all jitters")


def test_criterion_8_recombined_equations(A2, A3, diagonal_line):
    rng = random.Random(20260822)
    spaces = [
        (diagonal_line, A2),
        (ExactSubspace.complex_span([[1, 2]], 2), A2),
        (ExactSubspace.complex_span([[1, 1, 1]], 3), A3),
        (ExactSubspace.complex_span([[1, 1, 0], [0, 1, 1]], 3), A3),
    ]
    n_exact = n_float = 0
    for i in range(200):
        L, A = spaces[i % len(spaces)]
        exact = i % 2 == 0
        _recombine_check(L, A, rng, exact)
        n_exact += exact
        n_float += not exact
    print(f"criterion 8: PASS 200 recombinations proportional "
          f"({n_exact} exact, {n_float} float at 1e-12)")


def test_criterion_9_translates_fill_hull():
    # parameters t = x + iy over one fundamental cell of the first factor,
    # pushed around the second factor by n copies of its period; lattice
    # coordinates of the point on the diagonal are (x, y/s2, x, (y + n s2)/s5)
    s2, s5 = math.sqrt(2.0), math.sqrt(5.0)
    nx, ny, nn = 25, 20, 20
    xs = (np.arange(nx) + 0.5) / nx
    ys = (np.arange(ny) + 0.5) * s2 / ny
    ns = np.arange(nn)
    X, Y, N = np.meshgrid(xs, ys, ns, indexing="ij")
    x = X.ravel()
    b1 = (Y.ravel() / s2) % 1.0
    b2 = ((Y.ravel() + N.ravel() * s2) / s5) % 1.0
    samples = np.column_stack([x, b1, x, b2])
    assert samples.shape == (10000, 4)

    m = 33
    mid = (np.arange(m) + 0.5) / m
    Ga, Gb1, Gb2 = np.meshgrid(mid, mid, mid, indexing="ij")
    grid = np.column_stack([Ga.ravel(), Gb1.ravel(), Ga.ravel(), Gb2.ravel()])

    tree = cKDTree(samples, boxsize=1.0)
    dists, _ = tree.query(grid, k=1)
    covering = float(dists.max())
    assert covering < 0.05
    print(f"criterion 9: PASS covering radius {covering:.4f} < 0.05 "
          "with 10^4 translates")
