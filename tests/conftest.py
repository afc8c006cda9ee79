import json

import pytest

from eac.instance import builtin_instance, catalog_dicts
from eac.multiquad import MultiQuadElem
from eac.variety import EllipticFactor, ExactSubspace, ProductVariety
from eac.weierstrass import ProductEvaluator


def factor_sqrt(d: int) -> EllipticFactor:
    return EllipticFactor(0, MultiQuadElem.sqrt_of(d))


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
