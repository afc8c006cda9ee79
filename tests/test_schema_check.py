"""The compiled schema check against jsonschema's Draft 7 validator as the oracle.

Validity of instance files and reports is decided and a rejection worded by
instance._checker, a test compiled once from each packaged schema. These tests
hold it to Draft7Validator's verdict on mutated copies of real documents and
on small random schemas, and its worded path to one of Draft7Validator's.
"""

import copy
import functools
import json
import math
from pathlib import Path

import jsonschema
from jsonschema.exceptions import best_match
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eac import instance
from eac.cli import main
from eac.instance import catalog_dicts, catalog_names

PKG_ROOT = Path(__file__).resolve().parents[1]
INSTANCE, REPORT = "instance.schema.json", "report.schema.json"

# one value of each JSON type, and the edge values Draft 7 types decide
VALUES = [None, True, False, 0, 1, -1, 2.0, 2.5, -0.5, math.nan, math.inf, "", "x", "3",
          [], [1], [[1.0, 2.0]], {}, {"d": 2, "q": "1"}, np.float64(1.5), np.float64(2.0),
          np.float64(math.nan), np.int64(3), np.int64(-1)]
KEYS = ["bogus", "label", "timings", "assertions", "no convergence", "no such reason"]


@functools.cache
def oracle(name: str):
    return jsonschema.Draft7Validator(instance._load_schema(name))


def agree(name: str, doc) -> bool:
    """Both checkers' verdict on doc, after asserting that they are the same."""
    verdict = oracle(name).is_valid(doc)
    assert instance._checker(name)(doc) == verdict
    return verdict


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """(schema name, document) of every catalog instance, example file and command report."""
    docs = [(INSTANCE, d) for d in catalog_dicts().values()]
    docs += [(INSTANCE, json.loads(p.read_text()))
             for p in sorted((PKG_ROOT / "docs" / "examples").glob("*.json"))]
    out = tmp_path_factory.mktemp("reports") / "r.json"
    runs = [[command, f"catalog:{name}"] for name in catalog_names()
            for command in ("check", "hull", "certify")]
    runs += [["density", "catalog:diag-prod-one"], ["selftest"]]
    for argv in runs:
        main(argv + ["--out", str(out)])
        docs.append((REPORT, json.loads(out.read_text())))
    return docs


def nodes(doc, path=()):
    yield path
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from nodes(v, path + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from nodes(v, path + (i,))


def at(doc, path):
    for p in path:
        doc = doc[p]
    return doc


def mutate(doc, data):
    """doc with one node replaced, or one key or item dropped or added; drawn from data."""
    path = data.draw(st.sampled_from(list(nodes(doc))))
    node = at(doc, path)
    kinds = ["replace"] + (["drop", "add"] if isinstance(node, dict) else [])
    kinds += ["drop", "add"] if isinstance(node, list) else []
    kind = data.draw(st.sampled_from(kinds))
    value = copy.deepcopy(data.draw(st.sampled_from(VALUES)))
    if kind == "replace":
        if not path:
            return value
        at(doc, path[:-1])[path[-1]] = value
    elif kind == "drop" and node:
        del node[data.draw(st.sampled_from(list(node.keys() if isinstance(node, dict)
                                                 else range(len(node)))))]
    elif kind == "add" and isinstance(node, dict):
        node[data.draw(st.sampled_from(KEYS))] = value
    elif kind == "add":
        node.append(value)
    return doc


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_compiled_check_agrees_on_mutated_documents(documents, data):
    name, doc = data.draw(st.sampled_from(documents))
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        doc = mutate(doc, data)
    agree(name, doc)


# keywords worded otherwise than jsonschema words them
LOOSE = {"oneOf", "minItems", "maxItems", "maxLength"}


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_rejection_is_worded_at_a_draft7_error(documents, data):
    # after one mutation the worded path is one of iter_errors' paths and its message one
    # of theirs there; it is best_match's path, or a oneOf's where best_match descends
    # into the oneOf or takes a later sibling
    name, doc = data.draw(st.sampled_from(documents))
    doc = mutate(copy.deepcopy(doc), data)
    if agree(name, doc):
        return
    *path, message = instance._checker(name).why(doc)
    errors = list(oracle(name).iter_errors(doc))
    there = [e for e in errors if list(e.absolute_path) == path]
    assert there
    assert message in {e.message for e in there} or {e.validator for e in there} & LOOSE
    best = list(best_match(errors).absolute_path)
    if best != path:
        assert "of the given schemas, not 1" in message
        assert best[:len(path)] == path or best[:-1] == path[:-1]


def test_every_document_is_valid(documents):
    assert all(agree(name, doc) for name, doc in documents)


def edit(path, value):
    def apply(doc):
        at(doc, path[:-1])[path[-1]] = value
    return apply


def drop(path):
    def apply(doc):
        del at(doc, path[:-1])[path[-1]]
    return apply


@pytest.mark.parametrize("name, base, change, valid", [
    (INSTANCE, 0, drop(("W", "kind")), False),
    (INSTANCE, 0, edit(("W", "colour"), "red"), False),
    (INSTANCE, 0, edit(("factors", 0, "tau_re"), 3), False),
    (INSTANCE, 0, edit(("W", "dim"), True), False),
    (INSTANCE, 0, edit(("W", "dim"), 1.0), True),
    (INSTANCE, 0, edit(("W", "dim"), 1.5), False),
    (INSTANCE, 0, edit(("W", "bidegree", 0), -1), False),
    (INSTANCE, 0, edit(("W", "monomials", 0, "re"), math.nan), True),
    (INSTANCE, 0, edit(("W", "monomials", 0, "re"), np.float64(2.5)), True),
    (INSTANCE, 0, edit(("W", "monomials", 0, "re"), True), False),
    (INSTANCE, 0, edit(("W", "monomials", 0, "exponents", 0), np.int64(1)), False),
    (INSTANCE, 0, edit(("W", "monomials", 0, "exponents", 0), np.float64(1.0)), True),
    (INSTANCE, 0, edit(("solver",), {"solve_tol": math.nan}), True),
    (INSTANCE, 0, edit(("solver",), {"solve_tol": 0.0}), False),
    (INSTANCE, 0, edit(("solver",), {"budget_cells": 0}), False),
    (INSTANCE, 0, edit(("label",), "x" * 121), False),
    (INSTANCE, 0, edit(("W", "kind"), "segre-hypersurface "), False),
    (INSTANCE, 0, edit(("factors",), []), False),
    (REPORT, -2, edit(("solve", "failures_by_reason", "no such reason"), 1), False),
    (REPORT, -2, edit(("solve", "failures_by_reason", "no convergence"), 0), False),
    (REPORT, -2, edit(("solve", "failures_by_reason", "no convergence"), 2), True),
    (REPORT, -2, edit(("solve", "cells", 0, "expected"), None), True),
    (REPORT, -2, edit(("density", "points"), np.int64(60)), False),
    (REPORT, -2, edit(("timings", "load_s"), np.float64(0.1)), True),
    (REPORT, -2, edit(("command",), "solve"), True),
    (REPORT, -2, edit(("command",), "bogus"), False),
    (REPORT, -2, edit(("exit_code",), False), False),
    (REPORT, -1, drop(("selftest", "results", 0, "ok")), False),
])
def test_named_mutations(documents, name, base, change, valid):
    doc = copy.deepcopy(documents[base][1])
    change(doc)
    assert agree(name, doc) is valid


SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from([
    1.0, 2.5, -0.5, math.nan, math.inf, np.float64(1.0), np.float64(-2.5), np.int64(2)]),
    st.text("ab", max_size=3))
JSON = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(st.sampled_from("abc"), inner, max_size=3), max_leaves=8)
TYPES = ["object", "array", "string", "boolean", "null", "number", "integer"]
BOUNDS = st.sampled_from([-1, 0, 1, 2, 0.5, -1.5])
ENUMS = st.one_of(st.none(), st.booleans(), st.integers(-1, 2), st.sampled_from([1.0, "a", ""]))
LEAF = st.fixed_dictionaries({}, optional={
    "type": st.sampled_from(TYPES) | st.lists(st.sampled_from(TYPES), min_size=1, max_size=3,
                                               unique=True),
    "enum": st.lists(ENUMS, min_size=1, max_size=3), "const": ENUMS,
    "minimum": BOUNDS, "exclusiveMinimum": BOUNDS, "maxLength": st.integers(0, 2),
    "minItems": st.integers(0, 2), "maxItems": st.integers(0, 2)})
SCHEMAS = st.recursive(LEAF, lambda inner: st.fixed_dictionaries({}, optional={
    "oneOf": st.lists(inner, min_size=1, max_size=3), "items": inner,
    "properties": st.dictionaries(st.sampled_from("abc"), inner, max_size=2),
    "additionalProperties": st.booleans() | inner, "propertyNames": inner,
    "required": st.lists(st.sampled_from("abc"), max_size=2, unique=True)}), max_leaves=6)


@settings(max_examples=600, deadline=None)
@given(SCHEMAS, JSON)
def test_compiled_keywords_agree_with_draft7(schema, doc):
    assert instance._compile(schema)(doc) == jsonschema.Draft7Validator(schema).is_valid(doc)


ONE_OF = {"oneOf": [{"type": "integer"}, {"minimum": 0}]}


@pytest.mark.parametrize("schema, doc, valid", [
    # 3 matches both branches; a string or a bool matches "minimum" only
    (ONE_OF, 3, False), (ONE_OF, -1, True), (ONE_OF, 2.5, True), (ONE_OF, "x", True),
    (ONE_OF, True, True),
    ({"minimum": 0}, math.nan, True), ({"exclusiveMinimum": 0}, math.nan, True),
    ({"minimum": 0}, np.float64(math.nan), True), ({"exclusiveMinimum": 0}, 0, False),
    ({"enum": [1, "a"]}, True, False), ({"enum": [True]}, 1, False),
    ({"enum": [0]}, False, False), ({"const": 1}, 1.0, True), ({"const": False}, False, True),
    ({"type": "integer"}, 3.0, True), ({"type": "integer"}, True, False),
    ({"type": "integer"}, np.int64(3), False), ({"type": "integer"}, np.float64(3.0), True),
    ({"type": "number"}, True, False), ({"type": "number"}, np.float64(1.5), True),
    ({"type": "number"}, np.int64(3), True), ({"type": ["string", "null"]}, None, True),
])
def test_draft7_edge_cases(schema, doc, valid):
    assert instance._compile(schema)(doc) is valid
    assert jsonschema.Draft7Validator(schema).is_valid(doc) is valid


@pytest.mark.parametrize("schema", [
    {"type": "string", "pattern": "^a"}, {"items": [{"type": "string"}]},
    {"enum": [[1], "a"]}, {"properties": {"a": True}}, {"$ref": "#"}])
def test_compile_refuses_what_it_does_not_implement(schema):
    with pytest.raises(ValueError, match="not compiled|not an object"):
        instance._compile(schema)


@pytest.mark.parametrize("name", [INSTANCE, REPORT])
def test_packaged_schemas_are_valid_draft7(name):
    jsonschema.Draft7Validator.check_schema(instance._load_schema(name))
