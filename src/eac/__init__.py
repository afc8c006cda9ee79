"""Exact certificates and numerical solving for exponential-algebraic
intersections on products of elliptic curves."""

from __future__ import annotations

__version__ = "0.1.0"

from .checker import (PairVerdict, SubvarietyData, Verdict, check_free,
                      check_pair, check_rotund, reduce_L)
from .forms import (Certificate, ExteriorForm, eac_certificate,
                    holomorphic_form_realized, hypersurface_form, integrate_top)
from .hull import (HullChain, HullResult, complexification, hull_chain,
                   kernel_lattice, rational_hull)
from .instance import (Instance, InstanceError, builtin_instance,
                       catalog_names, instance_from_dict, load_instance)
from .multiquad import ComplexMQ, MultiQuadElem, parse_mq, render_mq
from .pipeline import certify, decide, density_summary, solve
from .segre import SegrePolynomial
from .solver import (PulledBackSystem, SolutionPoint, SolveReport,
                     SolverConfig, harvest_density)
from .variety import EllipticFactor, ExactSubspace, ProductVariety
from .weierstrass import (AtInfinity, ProductEvaluator, WpEvaluator,
                          bidegree_of, count_roots_on_fiber,
                          jacobian_probe, point_count_on_curve)

__all__ = [
    "AtInfinity", "Certificate", "ComplexMQ", "EllipticFactor", "ExactSubspace",
    "ExteriorForm", "HullChain", "HullResult", "Instance",
    "InstanceError", "MultiQuadElem", "PairVerdict", "ProductEvaluator",
    "ProductVariety", "PulledBackSystem", "SegrePolynomial",
    "SolutionPoint", "SolveReport", "SolverConfig", "SubvarietyData", "Verdict",
    "WpEvaluator", "bidegree_of", "builtin_instance", "catalog_names",
    "certify", "check_free", "check_pair", "check_rotund",
    "complexification", "count_roots_on_fiber",
    "decide", "density_summary", "eac_certificate",
    "harvest_density", "holomorphic_form_realized",
    "hull_chain", "hypersurface_form", "instance_from_dict", "integrate_top",
    "jacobian_probe", "kernel_lattice", "load_instance", "parse_mq", "point_count_on_curve",
    "rational_hull", "reduce_L", "render_mq", "solve",
]
