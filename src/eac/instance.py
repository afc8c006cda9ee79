"""Instance files: parsing, validation, hashing, and a built-in catalog.

An instance bundles the curve product (periods as exact literals), the
parameter subspace L (basis vectors with multiquadratic string entries), the
hypersurface W (a polynomial in Segre coordinates, optional bidegree), and
solver settings. Files and reports are held to strict Draft 7 schemas by one check compiled
from each, which decides validity and words a rejection at its field path; parse errors
carry the offending line. Rules on values belong to the model constructors (EllipticFactor,
ExactSubspace, SegrePolynomial.from_dict); instance_from_dict adds the field path to them.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import numbers
import os
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .checker import SubvarietyData
from .multiquad import ComplexMQ, MultiQuadElem, parse_mq
from .segre import SegrePolynomial
from .variety import EllipticFactor, ExactSubspace, ProductVariety


class InstanceError(ValueError):
    """A file could not be read, parsed, validated or written; the message names it."""


def _load_schema(name: str) -> dict:
    text = resources.files("eac.schemas").joinpath(name).read_text()
    return json.loads(text)


def _types() -> dict:
    """Draft 7 types as jsonschema tests them, new on each call so that each rule owns its why."""
    return {  # a bool is no number, 3.0 is an integer
        "object": lambda x: isinstance(x, dict),
        "array": lambda x: isinstance(x, list),
        "string": lambda x: isinstance(x, str),
        "boolean": lambda x: isinstance(x, bool),
        "null": lambda x: x is None,
        "number": lambda x: (type(x) is float or type(x) is int
                             or isinstance(x, numbers.Number) and not isinstance(x, bool)),
        "integer": lambda x: ((isinstance(x, int) and not isinstance(x, bool))
                              or (isinstance(x, float) and x.is_integer())),
    }


def _keyword(key: str, value, schema: dict):
    """(the type test of the values a keyword applies to, or None for all, its test, its why)."""
    types = _types()
    obj, arr, num = types["object"], types["array"], types["number"]
    if key == "type":
        names = [value] if isinstance(value, str) else value
        kinds = [types[t] for t in names]
        return (None, kinds[0] if len(kinds) == 1 else lambda x: any(k(x) for k in kinds),
                lambda x: (f"{x!r} is not of type {', '.join(map(repr, names))}",))
    if key in ("enum", "const"):  # jsonschema's equality: True != 1 == 1.0
        values = value if key == "enum" else [value]
        if any(isinstance(v, (list, dict)) for v in values):
            raise ValueError(f"schema keyword {key!r} over arrays or objects is not compiled")
        return (None, lambda x: any(v is x if isinstance(v, bool) or isinstance(x, bool)
                                    else v == x for v in values), lambda x: (
            f"{x!r} is not one of {value!r}" if key == "enum" else f"{value!r} was expected",))
    if key == "oneOf":  # worded at the oneOf, never inside a branch
        branches = [_compile(s) for s in value]
        return (None, lambda x: sum(branch(x) for branch in branches) == 1, lambda x: (
            f"{x!r} is valid under {sum(b(x) for b in branches)} of the given schemas, not 1",))
    if key == "properties":
        props = {k: _compile(s) for k, s in value.items()}
        return (obj, lambda x: all(props[k](v) for k, v in x.items() if k in props),
                lambda x: next((k,) + props[k].why(v) for k, v in x.items()
                               if k in props and not props[k](v)))
    if key == "additionalProperties":
        known = schema.get("properties", {})
        extra = _compile(value) if isinstance(value, dict) else lambda _: value

        def why(x):
            extras = sorted(k for k in x if k not in known)
            if value is False:
                return (f"Additional properties are not allowed ({', '.join(map(repr, extras))} "
                        f"{'was' if len(extras) == 1 else 'were'} unexpected)",)
            return next((k,) + extra.why(x[k]) for k in extras if not extra(x[k]))
        return obj, lambda x: all(extra(v) for k, v in x.items() if k not in known), why
    if key in ("propertyNames", "items"):  # a name's error is at its object, as in jsonschema
        sub, items = _compile(value), key == "items"
        return (arr if items else obj), lambda x: all(map(sub, x)), lambda x: next(
            ((i,) if items else ()) + sub.why(v) for i, v in enumerate(x) if not sub(v))
    tests = {"required": (obj, lambda x: x.keys() >= set(value), lambda x: (
                 f"{next(k for k in value if k not in x)!r} is a required property",)),
             "minItems": (arr, lambda x: len(x) >= value, lambda x: (f"{x!r} is too short",)),
             "maxItems": (arr, lambda x: len(x) <= value, lambda x: (f"{x!r} is too long",)),
             "maxLength": (types["string"], lambda x: len(x) <= value,
                           lambda x: (f"{x!r} is too long",)),
             "minimum": (num, lambda x: not x < value,  # so NaN passes
                         lambda x: (f"{x!r} is less than the minimum of {value!r}",)),
             "exclusiveMinimum": (num, lambda x: not x <= value, lambda x: (
                 f"{x!r} is less than or equal to the minimum of {value!r}",))}
    if key not in tests:
        raise ValueError(f"schema keyword {key!r} is not compiled")
    return tests[key]


def _compile(schema: dict):
    """A test deciding what Draft7Validator(schema).is_valid decides, for the keywords above;
    its why(x), for a rejected x, is (*path, message) of the shallowest failure, first on ties."""
    if not isinstance(schema, dict):
        raise ValueError(f"schema {schema!r} is not an object")
    tests = [_keyword(k, v, schema) for k, v in schema.items() if k not in ("$schema", "title")]

    def check(x) -> bool:
        for applies, test, _ in tests:
            if (applies is None or applies(x)) and not test(x):
                return False
        return True
    rule = tests[0][1] if len(tests) == 1 and tests[0][0] is None else check
    rule.why = lambda x: min((why(x) for applies, test, why in tests
                              if (applies is None or applies(x)) and not test(x)), key=len)
    return rule


@functools.cache
def _checker(name: str):
    return _compile(_load_schema(name))


def _validate(obj, name: str, error: type):
    """Raise error naming the field path, as $['factors'][0], and the rule if obj is invalid."""
    if not _checker(name)(obj):
        *path, message = _checker(name).why(obj)
        where = "".join(f"[{p!r}]" if isinstance(p, str) else f"[{p}]" for p in path)
        raise error(f"{name.split('.')[0]} validation failed at ${where}: {message}")


def validate_report(obj: dict):
    _validate(obj, "report.schema.json", ValueError)


@dataclass(frozen=True)
class SolverConfig:
    """An instance's solver block: seed, cell budget, target and tolerances."""

    seed: int = 0
    budget_cells: int = 64
    target_count: int = 30
    solve_tol: float = 1e-10
    dedup_tol: float = 1e-6

    def __post_init__(self):
        """Reject out-of-range settings by field name, with the schema's bounds."""
        minimums = {"seed": 0, "budget_cells": 1, "target_count": 1}
        for name, low in minimums.items():
            if getattr(self, name) < low:
                raise ValueError(
                    f"{name} must be at least {low}, got {getattr(self, name)}")
        for name in ("solve_tol", "dedup_tol"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(
                    f"{name} must be positive and finite, got {getattr(self, name)}")


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
        why = e if isinstance(e, ValueError) else "zero denominator"
        raise InstanceError(f"{where}: bad rational literal {s!r} ({why})") from None


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
    _validate(data, "instance.schema.json", InstanceError)
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
                       pairwise_nonisogenous=asserts.get("pairwise_nonisogenous", False),
                       no_cm=asserts.get("no_cm", False))
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
