"""End-to-end flows: decide, hull, certify, solve, density.

This is the glue the command line and the test suites share. Every flow is
gated the same way: verdicts first, the certificate only for free and rotund
pairs, the solver only with a nonzero certificate in hand. Refusals carry
the witness instead of a silent zero. Every flow takes the instance alone:
W's fiber degrees come from its polynomial, and the solver configuration
from instance.config. decide computes the rational hull of L once, as the
first step of its hull chain, and certify pairs W's class against that same
hull. decide, hull and certify stay on the exact layer: solve and
density_summary import the solver, weierstrass and numpy themselves.
"""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .checker import PairVerdict, SubvarietyData, check_pair, reduce_L
from .forms import Certificate, eac_certificate, hypersurface_form, zeros_per_cell
from .hull import HullChain, HullResult, hull_chain, kernel_lattice, rational_hull
from .instance import Instance
from .segre import bidegree_of

if TYPE_CHECKING:
    from .solver import SolveReport


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
    reason: str | None
    L_used: object = None

    @property
    def refused(self) -> bool:
        return self.certificate is None


def resolve_w(instance: Instance) -> tuple[SubvarietyData, tuple[int, ...]]:
    """W with its fiber degrees read from F's exponents (bidegree_of), one per factor.

    Returns (W, measured): a declared bidegree that disagrees with the rule
    raises BidegreeMismatch, and a missing one is filled in. An F that is
    zero or a nonzero constant raises NotAHypersurface.
    """
    W = instance.W
    measured = bidegree_of(instance.F, instance.A)
    if W.bidegree is not None and tuple(W.bidegree) != measured:
        raise BidegreeMismatch(
            f"declared bidegree {tuple(W.bidegree)} but W's polynomial gives {measured}")
    return SubvarietyData(bidegree=measured), measured


def decide(instance: Instance) -> Decision:
    """Verdicts on the pair and the hull chain of L, whose first step is the hull."""
    W_eff, _ = resolve_w(instance)
    verdicts = check_pair(instance.L, W_eff, instance.A)
    chain = hull_chain(instance.L, instance.A)
    return Decision(verdicts=verdicts, W_effective=W_eff, chain=chain)


def certify(instance: Instance) -> CertifyOutcome:
    """Produce the non-vanishing certificate or an explicit refusal.

    A free and rotund pair has dim L >= 1. When L is larger than a line, the
    dimension that complements the hypersurface W, it is first cut down by
    rational hyperplanes drawn from the solver seed, and the certificate
    describes the cut line and its own hull; the solver consumes the same
    line. Otherwise the certificate reuses the decision's hull of L. It never
    vanishes: a free and rotund pair has every v_j nonzero and every fiber
    degree positive, so its cross value is positive (README, "Zero density").
    """
    A = instance.A
    decision = decide(instance)
    v = decision.verdicts
    if not v.free.ok:
        return CertifyOutcome(decision, None, f"not free: {v.free.witness}")
    if not v.rotund.ok:
        return CertifyOutcome(decision, None, f"not rotund: {v.rotund.witness}")
    W = decision.W_effective
    L, hull = instance.L, decision.hull
    if L.dim > 1:
        L = reduce_L(L, W, A, seed=instance.config.seed)
        hull = rational_hull(L, A)
    cert = eac_certificate(hypersurface_form(*W.bidegree), L, A, hull)
    return CertifyOutcome(decision, cert, None, L_used=L)


@dataclass
class SolveOutcome:
    certify: CertifyOutcome
    report: SolveReport | None

    @property
    def exit_code(self) -> int:
        """4 if refused before solving, 0 with a verified point, 5 without."""
        return 4 if self.certify.refused else 0 if self.report.solutions else 5


def solve(instance: Instance) -> SolveOutcome:
    """Certify, then harvest verified intersection points with instance.config.

    Exit code 0: at least one verified point. 4: refused before solving.
    5: certified but nothing verified within budget, or in any of the finitely
    many distinct cells (reported as a defect). The certificate, read as the
    mean zero count per cell (forms.zeros_per_cell), sizes every chunk of
    the harvest. The kernel of exp on L is computed here, once per harvest,
    so that the walk skips cells whose image in the product was already
    scanned. Another configuration is dataclasses.replace(instance, config=...).
    """
    from .solver import PulledBackSystem, harvest_density

    outcome = certify(instance)
    if outcome.refused:
        return SolveOutcome(outcome, None)
    L = outcome.L_used
    direction = tuple(complex(x) for x in L.basis[0])
    system = PulledBackSystem(instance.F, direction, instance.A)
    report = harvest_density(system, instance.config,
                             zeros_per_cell(outcome.certificate, L, instance.A),
                             kernel=kernel_lattice(L, instance.A))
    return SolveOutcome(outcome, report)


def density_summary(instance: Instance, report: SolveReport) -> dict:
    """Spread statistics of the harvested points on the product variety.

    mean_zeros_per_cell is the mean of the scanned cells' resolved zero
    counts, beside the certificate's closed form that the harvest sized its
    chunks from.
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
        "per_cell": [[c, n] for c, n in sorted(Counter(s.cell for s in report.solutions).items())],
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
