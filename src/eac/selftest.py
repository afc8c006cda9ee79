"""Built-in verification suite runnable from the command line.

Each entry exercises one load-bearing invariant with fresh randomness or a
frozen expected value: field axioms for the exact scalars, hull and
certificate values for the flagship diagonal instance, differential
equation residuals for both evaluator backends, fiber degrees against
contour counts, and a quick solver round trip. The evaluator factory hook
exists so a deliberately corrupted evaluator makes the suite fail; the
wiring is the fault injection test for the suite itself.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction


def run_selftest(verbose: bool = False, evaluator_factory=None
                 ) -> tuple[bool, list[tuple[str, bool, str]]]:
    from .forms import eac_certificate, hypersurface_form
    from .hull import hull_chain, rational_hull
    from .instance import builtin_instance
    from .multiquad import MultiQuadElem
    from .pipeline import certify, solve
    from .segre import bidegree_of
    from .variety import EllipticFactor, ExactSubspace, ProductVariety
    from .weierstrass import ProductEvaluator, WpEvaluator, count_roots_on_fiber

    results: list[tuple[str, bool, str]] = []

    def record(name: str, fn):
        try:
            detail = fn() or ""
            ok = True
        except Exception as e:  # noqa: BLE001 - the suite reports, not raises
            detail = f"{type(e).__name__}: {e}"
            ok = False
        results.append((name, ok, detail))
        if verbose:
            print(f"  [{'ok' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail and not ok else ""))

    def make_eval(tau, backend="theta"):
        if evaluator_factory is not None:
            return evaluator_factory(tau, backend)
        return WpEvaluator(tau, backend=backend)

    def t_field_axioms():
        rng = random.Random(7)
        rads = [1, 2, 3, 5, 7]

        def rand_elem():
            return MultiQuadElem({rng.choice(rads): Fraction(rng.randint(-9, 9),
                                                             rng.randint(1, 9))
                                  for _ in range(3)})

        for _ in range(60):
            a, b, c = rand_elem(), rand_elem(), rand_elem()
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            if not a.is_zero():
                assert a * a.inv() == MultiQuadElem.one()
                assert abs(float(a) * float(a.inv()) - 1.0) < 1e-9

    def _flagship():
        A = ProductVariety((
            EllipticFactor(Fraction(0), MultiQuadElem.sqrt_of(2)),
            EllipticFactor(Fraction(0), MultiQuadElem.sqrt_of(5)),
        ))
        L = ExactSubspace.complex_span([[1, 1]], 2)
        return A, L

    def t_hull_flagship():
        A, L = _flagship()
        hull = rational_hull(L, A)
        assert hull.dim == 3, hull.dim
        assert hull.equations == ((1, 0, -1, 0),), hull.equations
        chain = hull_chain(L, A)
        assert chain.rounds == 1 and not chain.non_free
        assert chain.chain[-1].dim == 2

    def t_certificate_flagship():
        A, L = _flagship()
        cert = eac_certificate(hypersurface_form(2, 2), L, A, rational_hull(L, A))
        assert cert.value_str == "2*sqrt(5)+2*sqrt(2)", cert.value_str
        assert abs(cert.value_float - (2 * math.sqrt(5) + 2 * math.sqrt(2))) < 1e-12
        assert abs(cert.cross_float) > 1e-9

    def t_wp_differential_equation():
        for tau in (1j * math.sqrt(2), 1j * math.sqrt(5), 0.5 + 1j):
            for backend in ("theta", "lattice-sum"):
                ev = make_eval(tau, backend)
                g2, g3 = ev.invariants()
                for z in (0.31 + 0.21j, 0.11 - 0.37j, 0.45 + 0.18j * tau.imag):
                    p = ev.wp(z)
                    dp = ev.wp_prime(z)
                    lhs = dp * dp
                    rhs = 4 * p ** 3 - g2 * p - g3
                    scale = max(abs(lhs), abs(rhs), 1.0)
                    assert abs(lhs - rhs) / scale < 1e-9, \
                        f"ode residual {abs(lhs - rhs) / scale:.2e} at tau={tau}"

    def t_backend_agreement():
        tau = 1j * math.sqrt(2)
        a = make_eval(tau, "theta")
        b = make_eval(tau, "lattice-sum")
        rng = random.Random(3)
        for _ in range(25):
            z = rng.uniform(0.05, 0.95) + rng.uniform(0.05, 0.95) * tau
            assert abs(a.wp(z) - b.wp(z)) < 1e-9 * max(1.0, abs(a.wp(z)))
            assert abs(a.wp_prime(z) - b.wp_prime(z)) < 1e-9 * max(1.0, abs(a.wp_prime(z)))

    def t_parity_periodicity():
        tau = 1j * math.sqrt(5)
        ev = make_eval(tau)
        rng = random.Random(11)
        for _ in range(10):
            z = rng.uniform(0.1, 0.9) + rng.uniform(0.1, 0.9) * tau
            assert abs(ev.wp(z) - ev.wp(-z)) < 1e-9 * max(1.0, abs(ev.wp(z)))
            assert abs(ev.wp_prime(z) + ev.wp_prime(-z)) < 1e-9 * max(1.0, abs(ev.wp_prime(z)))
            assert abs(ev.wp(z + 1) - ev.wp(z)) < 1e-9 * max(1.0, abs(ev.wp(z)))
            assert abs(ev.wp(z + tau) - ev.wp(z)) < 1e-9 * max(1.0, abs(ev.wp(z)))

    def t_fiber_counts():
        inst = builtin_instance("diag-prod-one")
        if evaluator_factory is not None:
            raise AssertionError("fiber counts unavailable under a custom evaluator")
        pe = ProductEvaluator(inst.A)
        rule = bidegree_of(inst.F, inst.A)
        # each fiber pinned at a generic point of the other factor
        fixed = (0.27 + 0.33 * pe.evals[1].tau, 0.31 + 0.41 * pe.evals[0].tau)
        counted = tuple(count_roots_on_fiber(inst.F, j, fixed[j], inst.A, pe) for j in (0, 1))
        assert rule == counted == (2, 2), f"exponent rule {rule}, contour counts {counted}"

    def t_catalog_concordance_quick():
        for name in ("diag-prod-one", "fiber-wp1", "axis-line"):
            inst = builtin_instance(name)
            out = certify(inst)
            if name == "diag-prod-one":
                assert not out.refused
            else:
                assert out.refused

    def t_solver_round_trip():
        inst = builtin_instance("diag-prod-one")
        from dataclasses import replace

        inst = replace(inst, config=replace(inst.config, target_count=3, budget_cells=4))
        out = solve(inst)
        assert out.exit_code == 0, f"exit {out.exit_code}"
        assert len(out.report.solutions) >= 3
        for s in out.report.solutions:
            assert s.verified_residual < 1e-9
            assert s.winding >= 1

    record("field axioms for exact scalars", t_field_axioms)
    record("hull of the diagonal line", t_hull_flagship)
    record("certificate of the flagship pair", t_certificate_flagship)
    record("differential equation for both backends", t_wp_differential_equation)
    record("backend agreement on a grid", t_backend_agreement)
    record("parity and periodicity", t_parity_periodicity)
    record("fiber counts of the flagship hypersurface", t_fiber_counts)
    record("catalog concordance sample", t_catalog_concordance_quick)
    record("solver round trip", t_solver_round_trip)
    passed = all(ok for _, ok, _ in results)
    return passed, results
