import json

import pytest

from eac.instance import builtin_instance, catalog_dicts
from eac.multiquad import MultiQuadElem
from eac.segre import bidegree_of
from eac.variety import EllipticFactor, ExactSubspace, ProductVariety
from eac.weierstrass import ProductEvaluator


def factor_sqrt(d: int) -> EllipticFactor:
    return EllipticFactor(0, MultiQuadElem.sqrt_of(d))


def closed_form_zeros_per_cell(system, degrees=None) -> float:
    """The float oracle of forms.zeros_per_cell: W's class pulled back along L, per cell.

    W of fiber degrees (d_1, ..., d_g), read by bidegree_of unless given,
    meets a fiber of factor j in d_j points, so its class pulls back to
    d_j |v_j|^2 / Im tau_j zeros per unit area of the l-plane, and a cell
    has area Im tau_a / |v_a|^2 for the anchor a: the mean is
    sum_j d_j (|v_j|^2 / |v_a|^2) (Im tau_a / Im tau_j). The anchor's own
    term is d_a exactly, and so the mean is d_1 exactly on one curve.
    """
    if degrees is None:
        degrees = bidegree_of(system.F, system.A)
    va, ta = abs(system.v[system.anchor]) ** 2, system.pe.evals[system.anchor].tau.imag
    return sum(d * (abs(c) ** 2 / va) * (ta / ev.tau.imag)
               for d, c, ev in zip(degrees, system.v, system.pe.evals))


def one_curve_dict(label, terms, bidegree=None):
    """W on E_sqrt3 as (exponents of (1, wp, wp'), coefficient) pairs, L = C."""
    data = {
        "label": label,
        "factors": [{"tau_re": "0", "tau_im": {"d": 3, "q": "1"}}],
        "L": {"basis": [["1"]]},
        "W": {"kind": "segre-hypersurface", "dim": 0,
              "monomials": [{"exponents": e, "re": c} for e, c in terms]},
    }
    if bidegree is not None:
        data["W"]["bidegree"] = bidegree
    return data


def tiny_monomial_dict() -> dict:
    """The flagship with W = 1e-14 wp_1 (plus a zero constant) and no bidegree.

    One term never cancels, so bidegree_of reads (2, 0) from its exponents:
    W is a union of translates of factor 2, and the pair is not free.
    """
    data = json.loads(json.dumps(catalog_dicts()["diag-prod-one"]))
    data["label"] = "tiny-monomial"
    data["W"]["monomials"] = [
        {"exponents": [0, 0, 0, 1, 0, 0, 0, 0, 0], "re": 1e-14, "im": 0.0},
        {"exponents": [1, 0, 0, 0, 0, 0, 0, 0, 0], "re": 0.0, "im": 0.0}]
    del data["W"]["bidegree"]
    return data


@pytest.fixture(scope="session")
def flagship():
    return builtin_instance("diag-prod-one")


@pytest.fixture(scope="session")
def A2(flagship):
    return flagship.A


@pytest.fixture(scope="session")
def pe2(flagship):
    # shared so invariants and term counts are computed once per session
    return ProductEvaluator(flagship.A)


@pytest.fixture(scope="session")
def A1():
    return ProductVariety((factor_sqrt(3),), pairwise_nonisogenous=True, no_cm=True)


@pytest.fixture(scope="session")
def A3():
    return ProductVariety(tuple(factor_sqrt(d) for d in (2, 3, 5)),
                          pairwise_nonisogenous=True, no_cm=True)


@pytest.fixture(scope="session")
def diagonal_line():
    return ExactSubspace.complex_span([[1, 1]], 2)
