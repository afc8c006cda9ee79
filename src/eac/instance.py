"""Instance files: parsing, validation, hashing, and a built-in catalog.

An instance bundles the curve product (periods as exact literals), the
parameter subspace L (basis vectors with multiquadratic string entries), the
hypersurface W (a polynomial in Segre coordinates, optional bidegree), and
solver settings. Files are JSON validated against a strict schema; parse
errors carry the offending line or field path. Rules on values belong to the
model constructors (EllipticFactor, ExactSubspace, SegrePolynomial.from_dict);
instance_from_dict only adds the field path to their ValueErrors.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .checker import SubvarietyData
from .multiquad import ComplexMQ, MultiQuadElem, parse_mq
from .segre import SegrePolynomial
from .solver import SolverConfig
from .variety import EllipticFactor, ExactSubspace, ProductVariety


class InstanceError(ValueError):
    """A file could not be read, parsed, validated or written; the message names it."""


def _load_schema(name: str) -> dict:
    text = resources.files("eac.schemas").joinpath(name).read_text()
    return json.loads(text)


@functools.lru_cache(maxsize=None)
def _validator(name: str):
    """A Draft 7 validator of one packaged schema, checked against its metaschema once."""
    import jsonschema

    schema = _load_schema(name)
    jsonschema.Draft7Validator.check_schema(schema)
    return jsonschema.Draft7Validator(schema)


def _validate(obj, name: str):
    """Raise the most relevant jsonschema.ValidationError of obj, if it has one."""
    from jsonschema.exceptions import best_match

    error = best_match(_validator(name).iter_errors(obj))
    if error is not None:
        raise error


def validate_report(obj: dict):
    _validate(obj, "report.schema.json")


@dataclass(frozen=True)
class Instance:
    label: str
    A: ProductVariety
    L: ExactSubspace
    W: SubvarietyData
    F: SegrePolynomial
    config: SolverConfig
    raw: dict

    @property
    def hash(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _parse_rational(s: str, where: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as e:
        raise InstanceError(f"{where}: bad rational literal {s!r} ({e})") from None


def _parse_tau_im(spec, where: str) -> MultiQuadElem:
    if isinstance(spec, str):
        return _parse_entry(spec, where).re
    return MultiQuadElem.sqrt_of(spec["d"], _parse_rational(spec["q"], where + ".q"))


def _parse_entry(spec, where: str) -> ComplexMQ:
    try:
        if isinstance(spec, str):
            return ComplexMQ(parse_mq(spec))
        return ComplexMQ(parse_mq(spec["re"]), parse_mq(spec["im"]))
    except ValueError as e:
        raise InstanceError(f"{where}: {e}") from None


def instance_from_dict(data: dict, label_fallback: str = "unnamed") -> Instance:
    from jsonschema import ValidationError

    try:
        _validate(data, "instance.schema.json")
    except ValidationError as e:
        path = "$" + "".join(f"[{p!r}]" if isinstance(p, str) else f"[{p}]"
                             for p in e.absolute_path)
        raise InstanceError(f"instance validation failed at {path}: {e.message}") from None
    g = len(data["factors"])
    factors = []
    for j, f in enumerate(data["factors"]):
        tau_re = _parse_rational(f["tau_re"], f"factors[{j}].tau_re")
        tau_im = _parse_tau_im(f["tau_im"], f"factors[{j}].tau_im")
        try:
            factors.append(EllipticFactor(tau_re=tau_re, tau_im=tau_im))
        except ValueError as e:
            raise InstanceError(f"factors[{j}]: {e}") from None
    asserts = data.get("assertions", {})
    A = ProductVariety(tuple(factors),
                       pairwise_nonisogenous=asserts.get("pairwise_nonisogenous", True),
                       no_cm=asserts.get("no_cm", True))
    basis_rows = tuple(tuple(_parse_entry(x, f"L.basis[{i}][{k}]") for k, x in enumerate(row))
                       for i, row in enumerate(data["L"]["basis"]))
    try:
        L = ExactSubspace("complex", basis_rows, g)
    except ValueError as e:
        raise InstanceError(f"L.basis: {e}") from None
    wspec = data["W"]
    table = {}
    for mono in wspec["monomials"]:
        expo = tuple(mono["exponents"])
        coeff = complex(mono["re"], mono.get("im", 0.0))
        table[expo] = table.get(expo, 0.0) + coeff
    try:
        F = SegrePolynomial.from_dict(g, table)
    except ValueError as e:
        raise InstanceError(f"W.monomials: {e}") from None
    if wspec.get("dim", g - 1) != g - 1:
        raise InstanceError(f"W.dim: a hypersurface in {g} factor(s) has dimension {g - 1}")
    W = SubvarietyData(bidegree=wspec.get("bidegree"))
    try:
        config = SolverConfig(**data.get("solver", {}))
    except ValueError as e:
        raise InstanceError(f"solver: {e}") from None
    label = data.get("label", label_fallback)
    return Instance(label=label, A=A, L=L, W=W, F=F, config=config, raw=data)


def load_instance(path: str) -> Instance:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise InstanceError(f"no such instance file: {path}") from None
    except OSError as e:
        raise InstanceError(f"cannot read instance file {path}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise InstanceError(f"{path}: not UTF-8 text (byte {e.start}: {e.reason})") from None
    except json.JSONDecodeError as e:
        raise InstanceError(
            f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from None
    if not isinstance(data, dict):
        raise InstanceError(f"{path}: top level must be an object")
    import os

    return instance_from_dict(data, label_fallback=os.path.basename(path))


# built-in catalog


def _z(i: int, coeff: float = 1.0) -> dict:
    """The monomial coeff * Z_i."""
    return {"exponents": [int(k == i) for k in range(9)], "re": coeff, "im": 0.0}


def _instance_dict(label: str, basis: list[list[str]], monomials: list[dict],
                   bidegree: tuple[int, int]) -> dict:
    return {
        "label": label,
        "factors": [{"tau_re": "0", "tau_im": {"d": 2, "q": "1"}},
                    {"tau_re": "0", "tau_im": {"d": 5, "q": "1"}}],
        "assertions": {"pairwise_nonisogenous": True, "no_cm": True},
        "L": {"basis": basis},
        "W": {"kind": "segre-hypersurface", "dim": 1, "monomials": monomials,
              "bidegree": list(bidegree)},
    }


def catalog_dicts() -> dict[str, dict]:
    """Built-in g = 2 instances over the lattices Z + i sqrt(2) Z, Z + i sqrt(5) Z.

    Covers the diagonal, rational, irrational, and degenerate parameter
    lines against hypersurfaces of assorted bidegrees, including fiber
    unions that break freeness.
    """
    diag = [["1", "1"]]
    return {
        "diag-prod-one": _instance_dict(
            "diag-prod-one", diag, [_z(4), _z(0, -1.0)], (2, 2)),
        "diag-prod-two": _instance_dict(
            "diag-prod-two", diag, [_z(4), _z(0, -2.0)], (2, 2)),
        "diag-sum-three": _instance_dict(
            "diag-sum-three", diag, [_z(3), _z(1), _z(0, -3.0)], (2, 2)),
        "diag-deriv-match": _instance_dict(
            "diag-deriv-match", diag, [_z(6), _z(1, -1.0)], (3, 2)),
        "diag-cross-deriv": _instance_dict(
            "diag-cross-deriv", diag, [_z(2), _z(3, -1.0)], (2, 3)),
        "diag-deriv-prod": _instance_dict(
            "diag-deriv-prod", diag, [_z(8), _z(0, -1.0)], (3, 3)),
        "fiber-wp1": _instance_dict(
            "fiber-wp1", diag, [_z(3), _z(0, -2.0)], (2, 0)),
        "fiber-wp2": _instance_dict(
            "fiber-wp2", diag, [_z(1), _z(0, -2.0)], (0, 2)),
        "fiber-wp1-deriv": _instance_dict(
            "fiber-wp1-deriv", diag, [_z(6), _z(0, -2.0)], (3, 0)),
        "fiber-wp2-deriv": _instance_dict(
            "fiber-wp2-deriv", diag, [_z(2), _z(0, -2.0)], (0, 3)),
        "axis-line": _instance_dict(
            "axis-line", [["1", "0"]], [_z(4), _z(0, -1.0)], (2, 2)),
        "rational-slope": _instance_dict(
            "rational-slope", [["1", "2"]], [_z(4), _z(0, -1.0)], (2, 2)),
        "irrational-slope": _instance_dict(
            "irrational-slope", [["1", "sqrt(2)"]], [_z(4), _z(0, -1.0)], (2, 2)),
        "anti-diagonal": _instance_dict(
            "anti-diagonal", [["1", "-1"]], [_z(4), _z(0, -1.0)], (2, 2)),
    }


def builtin_instance(name: str) -> Instance:
    table = catalog_dicts()
    if name not in table:
        raise InstanceError(f"unknown catalog instance {name!r}; "
                            f"available: {', '.join(sorted(table))}")
    return instance_from_dict(table[name], label_fallback=name)


def catalog_names() -> list[str]:
    return sorted(catalog_dicts())
