"""End-to-end flows: decide, hull, certify, solve, density.

This is the glue the command line and the test suites share. Every flow is
gated the same way: verdicts first, the certificate only for free and rotund
pairs, the solver only with a nonzero certificate in hand. Refusals carry
the witness instead of a silent zero. decide computes the rational hull of
L once, as the first step of its hull chain, and certify pairs W's class
against that same hull. decide, hull and certify stay on the exact layer:
solve and density_summary import the solver, weierstrass and numpy
themselves.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .checker import PairVerdict, SubvarietyData, check_pair, reduce_L
from .forms import Certificate, eac_certificate, hypersurface_form, zeros_per_cell
from .hull import HullChain, HullResult, hull_chain, kernel_lattice, rational_hull
from .instance import Instance, SolverConfig
from .segre import bidegree_of

if TYPE_CHECKING:
    from .solver import SolveReport
    from .weierstrass import ProductEvaluator


class BidegreeMismatch(ValueError):
    """The declared bidegree contradicts W's polynomial; the instance is inconsistent."""


@dataclass
class Decision:
    verdicts: PairVerdict
    W_effective: SubvarietyData
    chain: HullChain

    @property
    def hull(self) -> HullResult:
        return self.chain.hull


@dataclass
class CertifyOutcome:
    decision: Decision
    certificate: Certificate | None
    refused: bool
    reason: str | None
    L_used: object = None


def resolve_w(instance: Instance, pe: ProductEvaluator | None = None
              ) -> tuple[SubvarietyData, tuple[int, ...]]:
    """W with its fiber degrees read from F's exponents (bidegree_of), one per factor.

    Returns (W, measured): a declared bidegree that disagrees with the rule
    raises BidegreeMismatch, and a missing one is filled in. An F that is
    zero or a nonzero constant raises NotAHypersurface.
    """
    W = instance.W
    measured = bidegree_of(instance.F, instance.A, pe)
    if W.bidegree is not None and tuple(W.bidegree) != measured:
        raise BidegreeMismatch(
            f"declared bidegree {tuple(W.bidegree)} but W's polynomial gives {measured}")
    return SubvarietyData(bidegree=measured), measured


def decide(instance: Instance, pe: ProductEvaluator | None = None) -> Decision:
    """Verdicts on the pair and the hull chain of L, whose first step is the hull."""
    W_eff, _ = resolve_w(instance, pe)
    verdicts = check_pair(instance.L, W_eff, instance.A)
    chain = hull_chain(instance.L, instance.A)
    return Decision(verdicts=verdicts, W_effective=W_eff, chain=chain)


def certify(instance: Instance, pe: ProductEvaluator | None = None,
            decision: Decision | None = None) -> CertifyOutcome:
    """Produce the non-vanishing certificate or an explicit refusal.

    A free and rotund pair has dim L >= 1. When L is larger than a line, the
    dimension that complements the hypersurface W, it is first cut down by
    rational hyperplanes drawn from the solver seed, and the certificate
    describes the cut line and its own hull; the solver consumes the same
    line. Otherwise the certificate reuses the decision's hull of L.
    """
    A = instance.A
    if decision is None:
        decision = decide(instance, pe)
    v = decision.verdicts
    if not v.free.ok:
        return CertifyOutcome(decision, None, True, f"not free: {v.free.witness}")
    if not v.rotund.ok:
        return CertifyOutcome(decision, None, True, f"not rotund: {v.rotund.witness}")
    W = decision.W_effective
    L, hull = instance.L, decision.hull
    if L.dim > 1:
        L = reduce_L(L, W, A, seed=instance.config.seed)
        hull = rational_hull(L, A)
    cert = eac_certificate(hypersurface_form(*W.bidegree), L, A, hull)
    if not cert.nonzero:
        return CertifyOutcome(decision, cert, True,
                              "certificate vanished on a free and rotund pair",
                              L_used=L)
    return CertifyOutcome(decision, cert, False, None, L_used=L)


@dataclass
class SolveOutcome:
    certify: CertifyOutcome
    report: SolveReport | None
    exit_code: int


def solve(instance: Instance, pe: ProductEvaluator | None = None,
          config: SolverConfig | None = None) -> SolveOutcome:
    """Certify, then harvest verified intersection points.

    Exit code 0: at least one verified point. 4: refused before solving.
    5: certified but nothing verified within budget, or in any of the finitely
    many distinct cells (reported as a defect). The certificate, read as the
    mean zero count per cell (forms.zeros_per_cell), sizes the harvest's
    first chunk. The kernel of exp on L is computed here, once per harvest,
    so that the walk skips cells whose image in the product was already
    scanned.
    """
    from .solver import PulledBackSystem, harvest_density
    from .weierstrass import ProductEvaluator

    pe = pe or ProductEvaluator(instance.A)
    cfg = config or instance.config
    outcome = certify(instance, pe)
    if outcome.refused:
        return SolveOutcome(outcome, None, 4)
    L = outcome.L_used
    direction = tuple(complex(x) for x in L.basis[0])
    system = PulledBackSystem(instance.F, direction, instance.A, pe)
    report = harvest_density(system, cfg, zeros_per_cell(outcome.certificate, L, instance.A),
                             kernel=kernel_lattice(L, instance.A))
    code = 0 if report.solutions else 5
    return SolveOutcome(outcome, report, code)


def density_summary(instance: Instance, report: SolveReport) -> dict:
    """Spread statistics of the harvested points on the product variety.

    mean_zeros_per_cell is the mean of the scanned cells' resolved zero
    counts, beside the certificate's closed form that the harvest sized its
    first chunk from.
    """
    pts = [s.z for s in report.solutions]
    counts = [c["expected"] for c in report.cells if c["expected"] is not None]
    out = {
        "points": len(pts),
        "cells": len(report.cells_with_solutions),
        "min_pairwise_distance": None,
        "median_nearest_distance": None,
        "mean_zeros_per_cell": sum(counts) / len(counts) if counts else None,
        "closed_form_zeros_per_cell": report.closed_form_mean,
        "per_cell": sorted(
            [[c, sum(1 for s in report.solutions if s.cell == c)]
             for c in report.cells_with_solutions]),
    }
    if len(pts) >= 2:
        import numpy as np

        from .weierstrass import ProductEvaluator

        zs = np.array(pts, dtype=complex)
        d = ProductEvaluator(instance.A).torus_distances(zs[:, None], zs).reshape(len(pts), -1)
        np.fill_diagonal(d, np.inf)
        nearest = d.min(axis=1).tolist()
        out["min_pairwise_distance"] = min(nearest)
        out["median_nearest_distance"] = statistics.median(nearest)
    return out
