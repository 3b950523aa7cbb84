"""The schema check against jsonschema, its worded rejections, strict
integers, and a package that never imports jsonschema.

jsonschema is a test dependency only: here it is the reference oracle
that the schema check's answers and diagnostic paths are compared
against.
"""

import ast
import copy
import json
import re
import subprocess
import sys
from functools import lru_cache, reduce
from operator import getitem
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from jsonschema.exceptions import best_match

import p4flowgen
from p4flowgen import cli, program_doc, schema_compiler, trace_doc
from p4flowgen.simulator import run_trace
from p4flowgen.builtin_examples import asset_path, guess_game_solution
from p4flowgen.core_model import HEADER_FIELD_BITS, PORT_MAX, RING_CAPACITY_MAX, SEED_MAX
from p4flowgen.program_doc import (
    DocError,
    load_schema,
    schema_check,
    solution_from_doc,
)
from p4flowgen.schema_compiler import compile_schema
from p4flowgen.trace_doc import dumps_results, trace_from_doc

DATA = Path(__file__).parent / "data"
ASSETS = sorted(asset_path("guess_game").parent.glob("*.json"))
PROGRAM_DOCS = [json.loads(p.read_text()) for p in [*ASSETS, DATA / "all_ops.json"]]
TRACE_DOCS = [json.loads(p.read_text()) for p in sorted(DATA.glob("*_trace.json"))]

VALUES = [
    None, True, False, 0, 1, 1.0, 5.0, -1, 8, 65536, 2**70, "", "x", "1bad",
    "0x1f", "assign_const", "if", [], {}, {"var": "x"},
    {"width": 8, "value": 1}, [{"op": "rand", "target": "x"}],
]
KEYS = [
    "op", "target", "width", "value", "bool", "else", "hint", "var", "const",
    "ordinal", "udp", "tcp", "seed", "extra",
]


def _slots(node, out):
    """``(container, key)`` for every container and every child in it;
    ``key`` None means "add a child"."""
    if isinstance(node, (dict, list)):
        out.append((node, None))
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            out.append((node, key))
            _slots(child, out)
    return out


def _near(value):
    """Values just outside or beside ``value``'s type and range."""
    if isinstance(value, int) and not isinstance(value, bool):
        return [float(value), -value - 1, value + 2**64, str(value)]
    if isinstance(value, str):
        return [value + "-", value.upper(), value[:1]]
    return []


# jsonschema's draft 2020-12 with integers as strict as the package's
# schema check: 5.0 and True are not integers.
StrictValidator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda checker, x: type(x) is int
    ),
)


@lru_cache(maxsize=None)
def jsonschema_validator(name: str):
    """The reference validator for the shipped schema ``name``."""
    return StrictValidator(load_schema(name))


def best_match_of(validator, doc):
    """jsonschema's best_match for ``doc``: its path in DocError form and
    the keyword it names."""
    error = best_match(validator.iter_errors(doc))
    path = error.json_path
    return (path[2:] if path.startswith("$.") else path), error.validator


@st.composite
def mutated(draw, docs, most=3):
    """A copy of one of ``docs`` with one to ``most`` keys or items
    replaced, dropped or added anywhere in the tree."""
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    for _ in range(draw(st.integers(1, most))):
        node, key = draw(st.sampled_from(_slots(doc, [])))
        old = None if key is None else node[key]
        value = copy.deepcopy(draw(st.sampled_from(VALUES + _near(old))))
        if key is None and isinstance(node, dict):
            node[draw(st.sampled_from(KEYS))] = value
        elif key is None:
            node.insert(draw(st.integers(0, len(node))), value)
        elif draw(st.booleans()):
            node[key] = value
        else:
            del node[key]
    return doc


ONE_OF = {"oneOf": [{"type": "integer"}, {"minimum": 0}]}
# An allOf of if/then pairs on one string tag, the shape of the shipped
# command's union of ops.
TAGGED_MEMBERS = [
    {
        "if": {"properties": {"op": {"const": "a"}}},
        "then": {"required": ["x"], "properties": {"x": {"type": "integer"}}},
    },
    {
        "if": {"properties": {"op": {"enum": ["b", "c"]}}},
        "then": {"type": "object", "required": ["y"], "properties": {"y": {}}},
    },
]
TAGGED = {"allOf": TAGGED_MEMBERS}
# The same union with closed branches, the shape of the shipped command.
TAGGED_CLOSED = {"allOf": [
    {
        "if": {"properties": {"op": {"const": "a"}}},
        "then": {
            "additionalProperties": False,
            "properties": {"op": True, "x": {"type": "integer"}},
        },
    },
    {
        "if": {"properties": {"op": {"enum": ["b", "c"]}}},
        "then": {
            "additionalProperties": False,
            "required": ["y"],
            "properties": {"op": True, "y": {}},
        },
    },
]}
KEYWORD_CASES = [
    (TAGGED, {"op": "a", "x": 1}, True),
    (TAGGED, {"op": "a", "x": 1.5}, False),  # the matched then fails
    (TAGGED, {"op": "a", "y": 1}, False),
    (TAGGED, {"op": "c", "y": 1}, True),  # a tag of an enum member
    (TAGGED, {"op": "c", "x": 1}, False),
    # no tag: every if holds vacuously, so every then applies
    (TAGGED, {"x": 1}, False),
    (TAGGED, {"x": 1, "y": 1}, True),
    # a tag that is not a str, or an unknown one: no then applies
    (TAGGED, {"op": 5, "x": "z"}, True),
    (TAGGED, {"op": True}, True),
    (TAGGED, {"op": None}, True),
    (TAGGED, {"op": ["a"]}, True),
    (TAGGED, {"op": "d"}, True),
    # not an object: every then applies, and one demands an object
    (TAGGED, "a", False),
    (TAGGED, [], False),
    (TAGGED_CLOSED, {"op": "a", "x": 1}, True),
    (TAGGED_CLOSED, {"op": "c", "y": 1}, True),
    (TAGGED_CLOSED, {"op": "a", "x": 1, "y": 1}, False),  # a key of another branch
    (TAGGED_CLOSED, {"op": "b", "x": 1, "y": 1}, False),
    # an unknown or non-str tag applies no branch, so nothing is closed
    (TAGGED_CLOSED, {"op": "d", "z": 1}, True),
    (TAGGED_CLOSED, {"op": 5, "z": 1}, True),
    # no tag: every closed branch applies, and none lists the other's key
    (TAGGED_CLOSED, {"x": 1}, False),
    (TAGGED_CLOSED, {}, False),
    (TAGGED_CLOSED, "a", True),
    (ONE_OF, -1, True),
    (ONE_OF, 0.5, True),
    (ONE_OF, 1, False),
    (ONE_OF, "a", True),
    (ONE_OF, 2, False),
    ({"not": {"type": "string"}}, "a", False),
    ({"not": {"type": "string"}}, 1, True),
    ({"minimum": 0, "maximum": 10}, -1, False),
    ({"minimum": 0, "maximum": 10}, 10.5, False),
    ({"minimum": 0, "maximum": 10}, "x", True),
    ({"minimum": 0, "maximum": 10}, True, True),
    ({"const": 1}, 1.0, True),
    ({"const": 1}, True, False),
    ({"const": True}, 1, False),
    ({"enum": [8, 16]}, 8.0, True),
    ({"enum": [8, 16]}, "8", False),
    ({"enum": [1]}, True, False),
    ({"type": "integer"}, 2**70, True),
    ({"type": "integer"}, 5.0, False),
    ({"type": "integer"}, True, False),
    ({"type": "null"}, None, True),
    ({"type": "boolean"}, 0, False),
    ({"type": "string"}, "", True),
    ({"items": {"type": "integer"}}, [1, 2], True),
    ({"items": {"type": "integer"}}, [1, 1.0], False),
    ({"items": {"type": "integer"}, "minItems": 1}, "ab", True),
    ({"minItems": 1}, [], False),
    ({"pattern": "^a"}, "ba", False),
    ({"pattern": "^a"}, 1, True),
    ({"required": ["a"], "minProperties": 2}, {"a": 1}, False),
    ({"maxProperties": 1}, {"a": 1, "b": 2}, False),
    ({"additionalProperties": {"type": "string"}, "properties": {"a": {}}},
     {"a": 1, "b": "x"}, True),
    ({"additionalProperties": {"type": "string"}, "properties": {"a": {}}},
     {"b": 1}, False),
    ({"properties": {"a": {}}, "additionalProperties": False}, {"b": 1}, False),
    ({"if": {"minimum": 5}, "then": {"maximum": 7}}, 9, False),
    ({"if": {"minimum": 5}, "then": {"maximum": 7}}, 3, True),
]

# Commands whose "body" is a block of commands, as in the program schema.
BLOCK = {
    "$defs": {
        "command": {
            "type": "object",
            "required": ["op"],
            "properties": {"op": {"type": "string"}},
            "allOf": [
                {
                    "if": {"properties": {"op": {"const": "atomic"}}},
                    "then": {
                        "additionalProperties": False,
                        "required": ["body"],
                        "properties": {
                            "op": True,
                            "body": {"items": {"$ref": "#/$defs/command"}},
                        },
                    },
                },
                {
                    "if": {"properties": {"op": {"const": "rand"}}},
                    "then": {
                        "additionalProperties": False,
                        "required": ["target"],
                        "properties": {"op": True, "target": {"pattern": "^[a-z]+$"}},
                    },
                },
            ],
        }
    },
    "$ref": "#/$defs/command",
}

DIAGNOSIS_CASES = [
    # (schema, rejected document, reported path, words of the message)
    ({"type": "integer"}, 5.0, "$", "not of type 'integer'"),
    ({"properties": {"v": {"const": 1}}}, {"v": 2}, "v", "1 was expected"),
    ({"items": {"enum": [8, 16]}}, [8, 12], "$[1]", "not one of [8, 16]"),
    ({"pattern": "^a"}, "ba", "$", "pattern '^a'"),
    ({"minimum": 0}, -1, "$", "minimum of 0"),
    ({"maximum": 10}, 10.5, "$", "maximum of 10"),
    ({"minItems": 1}, [], "$", "minItems of 1"),
    ({"required": ["a", "b"]}, {"a": 1}, "$", "'b' is a required property"),
    ({"minProperties": 2}, {"a": 1}, "$", "minProperties of 2"),
    ({"maxProperties": 1}, {"a": 1, "b": 2}, "$", "maxProperties of 1"),
    ({"properties": {"a": {"properties": {"b": {"type": "string"}}}}},
     {"a": {"b": 1}}, "a.b", "not of type 'string'"),
    ({"properties": {"a": {}}, "additionalProperties": False},
     {"a": 1, "b": 1, "c": 1}, "$", "additional properties are not allowed: 'b', 'c'"),
    ({"additionalProperties": {"type": "string"}}, {"a": "x", "b": 1}, "b",
     "not of type 'string'"),
    ({"items": {"type": "integer"}}, [1, 1.0], "$[1]", "not of type 'integer'"),
    ({"$defs": {"n": {"minimum": 0}}, "properties": {"a": {"$ref": "#/$defs/n"}}},
     {"a": -1}, "a", "minimum of 0"),
    ({"allOf": [{"minimum": 0}, {"maximum": 5}]}, 6, "$", "maximum of 5"),
    (ONE_OF, 1, "$", "valid under 2 of the oneOf schemas"),
    # no branch holds: the deepest failure, then one that is not a type
    # mismatch; a tie is the oneOf's own
    ({"oneOf": [{"items": {"type": "integer"}}, {"type": "null"}]}, [1, "x"],
     "$[1]", "not of type 'integer'"),
    ({"oneOf": [{"type": "string", "pattern": "^a"}, {"type": "null"}]}, "b",
     "$", "pattern '^a'"),
    ({"oneOf": [{"type": "integer"}, {"type": "null"}]}, "x", "$",
     "not valid under any of the oneOf schemas"),
    ({"not": {"type": "string"}}, "a", "$", "must not be valid under"),
    ({"if": {"minimum": 5}, "then": {"maximum": 7}}, 9, "$", "maximum of 7"),
    ({"properties": {"a": False}}, {"a": 1}, "a", "not allowed"),
    # the node's own keywords, and those that judge the value as a
    # whole, come before its members
    ({"properties": {"t": {"type": "object"}}, "not": {"required": ["t"]}},
     {"t": 1}, "$", "must not be valid under"),
    ({"required": ["a"], "properties": {"b": {"type": "string"}}}, {"b": 1}, "$",
     "'a' is a required property"),
    ({"properties": {"a": {"type": "string"}}, "additionalProperties": False},
     {"a": 1, "c": 1}, "$", "additional properties are not allowed: 'c'"),
    # a bad command inside a dispatched branch is named by its path
    (BLOCK, {"op": "atomic", "body": [{"op": "rand", "target": "X"}]},
     "body[0].target", "pattern '^[a-z]+$'"),
    (BLOCK, {"op": "atomic", "body": [{"op": "rand", "body": []}]},
     "body[0]", "'target' is a required property"),
    # a stray key is named before a bad member
    (TAGGED_CLOSED, {"op": "a", "x": 1.5, "y": 1}, "$",
     "additional properties are not allowed: 'y'"),
    (BLOCK, {"op": "rand", "target": "X", "x": 1}, "$",
     "additional properties are not allowed: 'x'"),
]


DIFFERENTIAL = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestAgreesWithJsonschema:
    @pytest.mark.parametrize("name", ["program", "trace"])
    def test_shipped_docs_accepted(self, name):
        for doc in PROGRAM_DOCS if name == "program" else TRACE_DOCS:
            assert schema_check(name)(doc) is None
            assert jsonschema_validator(name).is_valid(doc)

    @DIFFERENTIAL
    @given(mutated(PROGRAM_DOCS))
    def test_mutated_program_docs(self, doc):
        expected = jsonschema_validator("program").is_valid(doc)
        assert (schema_check("program")(doc) is None) == expected

    @DIFFERENTIAL
    @given(mutated(TRACE_DOCS))
    def test_mutated_trace_docs(self, doc):
        expected = jsonschema_validator("trace").is_valid(doc)
        assert (schema_check("trace")(doc) is None) == expected


class TestDiagnostics:
    @DIFFERENTIAL
    @given(st.sampled_from(["program", "trace"]).flatmap(
        lambda name: st.tuples(
            st.just(name), mutated(PROGRAM_DOCS if name == "program" else TRACE_DOCS, 1)
        )
    ))
    def test_single_mutation_path_agrees_with_best_match(self, named):
        name, doc = named
        error = schema_check(name)(doc)
        if error is None:
            return
        path, keyword = best_match_of(jsonschema_validator(name), doc)
        assert error.path == path, (error, path, keyword)

    @pytest.mark.parametrize("schema, doc, path, words", DIAGNOSIS_CASES)
    def test_each_keyword_names_its_failure(self, schema, doc, path, words):
        assert not StrictValidator(schema).is_valid(doc)
        error = compile_schema(schema)(doc)
        assert isinstance(error, DocError)
        assert error.path == path
        assert words in error.message


def _tags(member, key):
    """The values of ``key`` that an allOf member's ``if`` tests for."""
    condition = member.get("if", {}) if isinstance(member, dict) else {}
    test = condition.get("properties", {}).get(key)
    if not isinstance(test, dict):
        return []
    return [*test.get("enum", []), *([test["const"]] if "const" in test else [])]


class TestCompiler:
    @pytest.mark.parametrize(
        "schema",
        [
            {"type": "array", "uniqueItems": True},
            {"type": ["null", "string"]},
            {"type": "number"},
            {"enum": ["a", [1]]},
            {"const": {"a": 1}},
            {"properties": {"a": {"format": "email"}}},
            {"$defs": {"a": {"anyOf": [True]}}, "$ref": "#/$defs/a"},
            {"if": {"type": "string"}, "else": False},
            {"unevaluatedProperties": {"type": "string"}},
            {"unevaluatedProperties": False},
            {"$ref": "other.schema.json"},
            {"$ref": "#/$defs/missing"},
            {"$defs": {"a": {"$ref": "#/$defs/a"}}, "$ref": "#/$defs/a"},
            {"$defs": {"a": {"$ref": "#/$defs/b"}, "b": {"$ref": "#/$defs/a"}},
             "properties": {"x": {"$ref": "#/$defs/a"}}},
        ],
    )
    def test_unimplemented_schema_raises(self, schema):
        with pytest.raises(ValueError):
            compile_schema(schema)

    def test_implements_only_what_the_shipped_schemas_use(self):
        used = set()

        def walk(schema):
            if not isinstance(schema, dict):
                return
            used.update(schema)
            for name, value in schema.items():
                if name in ("properties", "$defs"):
                    for sub in value.values():
                        walk(sub)
                elif name in ("allOf", "oneOf"):
                    for sub in value:
                        walk(sub)
                elif name in ("additionalProperties", "items", "not", "if", "then"):
                    walk(value)

        walk(load_schema("program"))
        walk(load_schema("trace"))
        assert schema_compiler._IMPLEMENTED == used

    def test_shipped_command_union_dispatches_on_its_op(self):
        # Each op of the shipped command selects its own allOf member,
        # and the walk refuses a bare command of each op as jsonschema does.
        program = load_schema("program")
        command = program["$defs"]["command"]
        ops = set(command["properties"]["op"]["enum"])
        tags = [tag for member in command["allOf"] for tag in _tags(member, "op")]
        assert sorted(tags) == sorted(ops)
        schema = {"$defs": program["$defs"], "$ref": "#/$defs/command"}
        check, oracle = compile_schema(schema), StrictValidator(schema)
        for op in sorted(ops):
            for doc in ({"op": op}, {"op": op, "no_such_key": 1}):
                error = check(doc)
                assert (error is None) is oracle.is_valid(doc), (doc, error)
                if error is not None:
                    assert error.path == best_match_of(oracle, doc)[0], (doc, error)

    @pytest.mark.parametrize(
        "members, key",
        [
            (TAGGED_MEMBERS, "op"),
            (BLOCK["$defs"]["command"]["allOf"], "op"),
            ([], None),
            ([True], None),
            ([{"if": {"properties": {"op": {"const": 1}}}, "then": {}}], None),
            ([{"if": {"properties": {"op": {"enum": ["a", 1]}}}, "then": {}}], None),
            ([{"if": {"properties": {"op": {"const": "a"}}}, "then": {}, "else": {}}], None),
            ([{"if": {"properties": {"op": {"const": "a"}}}}], None),
            ([{"if": {"properties": {"op": {"const": "a"}}, "required": ["op"]},
               "then": {}}], None),
            ([{"if": {"properties": {"op": {"const": "a", "type": "string"}}},
               "then": {}}], None),
            ([{"if": {"properties": {"op": {"pattern": "a"}}}, "then": {}}], None),
            ([{"if": {"properties": {"op": True}}, "then": {}}], None),
            ([{"if": {"properties": {"op": {"const": "a"}, "v": {}}}, "then": {}}], None),
            ([*TAGGED_MEMBERS, {"if": {"properties": {"kind": {"const": "a"}}},
                                "then": {}}], None),
        ],
    )
    def test_tagged_union_shape(self, members, key):
        # An allOf of if/then members, tagged by ``key`` or by no one key:
        # the walk agrees with jsonschema on every tag the members name,
        # on unknown and non-str tags, and on documents with no tag.
        schema = {"$defs": BLOCK["$defs"], "allOf": members}
        if any(set(m) - schema_compiler._IMPLEMENTED for m in members if isinstance(m, dict)):
            with pytest.raises(ValueError):
                compile_schema(schema)
            return
        tag = key or "op"
        values = {"zz", 5, None, True}
        for member in members:
            values.update(_tags(member, tag))
        docs = ["a", [], {}, {"x": 1, "y": 1}, {"kind": "a"}]
        for value in sorted(values, key=repr):
            for extra in ({}, {"x": 1}, {"x": 1.5}, {"y": 1}, {"body": []},
                          {"target": "ab"}, {"target": "A"}):
                docs.append({tag: value, **extra})
        check, oracle = compile_schema(schema), StrictValidator(schema)
        for doc in docs:
            assert (check(doc) is None) is oracle.is_valid(doc), doc

    @pytest.mark.parametrize("schema, doc, valid", KEYWORD_CASES)
    def test_keyword_semantics(self, schema, doc, valid):
        # Cases the shipped schemas cannot tell apart, e.g. a oneOf
        # whose branches never overlap; jsonschema must agree with each.
        assert (compile_schema(schema)(doc) is None) is valid
        assert StrictValidator(schema).is_valid(doc) is valid


def _guess_doc_with_float_criterion():
    doc = json.loads(asset_path("guess_game").read_text())
    doc["selectors"][0]["criteria"][0]["value"] = 5.0
    return doc


def _trace_with(key, value):
    doc = copy.deepcopy(TRACE_DOCS[0])
    if key == "seed":
        doc["seed"] = value
    else:
        doc["packets"][0][key] = value
    return doc


class TestStrictIntegers:
    def test_float_criterion_value_is_a_doc_error(self):
        with pytest.raises(DocError) as err:
            solution_from_doc(_guess_doc_with_float_criterion())
        assert err.value.path == "selectors[0].criteria[0].value"
        assert "integer" in err.value.message

    @pytest.mark.parametrize(
        "key, value, path",
        [("seed", 1.0, "seed"), ("ingress_port", 3.0, "packets[0].ingress_port")],
    )
    def test_float_trace_integer_is_a_doc_error(self, key, value, path):
        with pytest.raises(DocError) as err:
            trace_from_doc(_trace_with(key, value))
        assert err.value.path == path
        assert "integer" in err.value.message

    def test_bool_is_not_an_integer(self):
        with pytest.raises(DocError) as err:
            trace_from_doc(_trace_with("seed", True))
        assert err.value.path == "seed"

    def test_cli_check_exits_1(self, tmp_path, capsys):
        program = tmp_path / "prog.json"
        program.write_text(json.dumps(_guess_doc_with_float_criterion()))
        assert cli.main(["check", str(program)]) == 1
        assert "selectors[0].criteria[0].value" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, path",
        [("seed", 1.0, "seed"), ("ingress_port", 3.0, "packets[0].ingress_port")],
    )
    def test_cli_simulate_exits_1(self, tmp_path, capsys, key, value, path):
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps(_trace_with(key, value)))
        program = str(DATA / "all_ops.json")
        assert cli.main(["simulate", program, "-t", str(trace)]) == 1
        assert f"error: {path}:" in capsys.readouterr().err


def test_both_schemas_bound_ports_by_port_max():
    def forward_ports(node):  # the port schema of each forward branch
        if isinstance(node, dict):
            if node.get("if", {}).get("properties", {}).get("op") == {"const": "forward"}:
                yield node["then"]["properties"]["port"]
            for value in node.values():
                yield from forward_ports(value)
        elif isinstance(node, list):
            for value in node:
                yield from forward_ports(value)

    ingress = load_schema("trace")["$defs"]["packet"]["properties"]["ingress_port"]
    ports = [ingress, *forward_ports(load_schema("program"))]
    assert len(ports) == 2
    for port in ports:
        assert (port["minimum"], port["maximum"]) == (0, PORT_MAX)


def test_schema_bounds_ring_capacity_by_the_builders_bound():
    capacity = load_schema("program")["$defs"]["ring"]["properties"]["capacity"]
    assert (capacity["minimum"], capacity["maximum"]) == (1, RING_CAPACITY_MAX)


@pytest.mark.parametrize("capacity", [RING_CAPACITY_MAX + 1, 10**12])
def test_ring_capacity_past_the_bound_is_a_doc_error(capacity):
    doc = json.loads(asset_path("guess_game").read_text())
    doc["processors"][0]["rings"] = [{"name": "r", "width": 8, "capacity": capacity}]
    with pytest.raises(DocError) as err:
        solution_from_doc(doc)
    assert err.value.path == "processors[0].rings[0].capacity"


# Every pattern in the shipped schemas, with one string it accepts. Python's
# ``$`` also matches before a final newline; ``(?!\n)`` refuses one there.
PATTERN_SAMPLES = {
    "^[A-Za-z_][A-Za-z0-9_]*$(?!\\n)": "guess_req",
    "^[A-Za-z_][A-Za-z0-9_]*(\\.[A-Za-z_][A-Za-z0-9_]*)?$(?!\\n)": "udp.dstPort",
    "^(0x[0-9a-fA-F]+|[0-9]+)$(?!\\n)": "0x1f",
    "^([0-9a-fA-F]{2})*$(?!\\n)": "0a",
}


def test_every_shipped_pattern_refuses_a_trailing_newline():
    slots = []
    _slots([load_schema("program"), load_schema("trace")], slots)
    assert {node[key] for node, key in slots if key == "pattern"} == PATTERN_SAMPLES.keys()
    for pattern, sample in PATTERN_SAMPLES.items():
        schema = {"pattern": pattern}
        for text, valid in ((sample, True), (sample + "\n", False)):
            assert (compile_schema(schema)(text) is None) is valid
            assert StrictValidator(schema).is_valid(text) is valid


@pytest.mark.parametrize("path", [
    "layouts[0].name", "selectors[0].criteria[0].field",
    "packets[0].udp.dstPort", "packets[0].payload",
])
def test_a_value_with_a_trailing_newline_is_a_doc_error(tmp_path, capsys, path):
    program = json.loads(asset_path("guess_game").read_text())
    trace = {"seed": 0, "packets": [{"udp": {"dstPort": "5555"}, "payload": "07"}]}
    *keys, last = [int(k) if k.isdigit() else k for k in re.findall(r"\w+", path)]
    reduce(getitem, keys, trace if keys[0] == "packets" else program)[last] += "\n"
    with pytest.raises(DocError) as err:
        solution_from_doc(program)
        trace_from_doc(trace)
    assert err.value.path == path
    (tmp_path / "p.json").write_text(json.dumps(program))
    (tmp_path / "t.json").write_text(json.dumps(trace))
    assert cli.main(["simulate", str(tmp_path / "p.json"), "-t", str(tmp_path / "t.json")]) == 1
    assert f"error: {path}:" in capsys.readouterr().err


def test_no_package_module_imports_jsonschema():
    package = Path(p4flowgen.__file__).parent
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert all(n.split(".")[0] != "jsonschema" for n in names), (
                f"{path.name}:{node.lineno} imports jsonschema"
            )


def test_rejection_is_worded_without_jsonschema(tmp_path):
    program = tmp_path / "prog.json"
    program.write_text(json.dumps(_guess_doc_with_float_criterion()))
    script = (
        "import sys\n"
        "sys.modules['jsonschema'] = None  # any import of it fails\n"
        f"sys.path.insert(0, {str(Path(p4flowgen.__file__).parents[1])!r})\n"
        "from p4flowgen import cli\n"
        f"sys.exit(cli.main(['check', {str(program)!r}]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True
    )
    assert proc.returncode == 1, proc.stderr
    assert "selectors[0].criteria[0].value" in proc.stderr


# -- the trace check's accept path against the reference sequence ----------

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def _bench_trace(trace, count=12):
    """The first ``count`` packets of a generated benchmark trace."""
    return {"seed": trace["seed"], "packets": trace["packets"][:count]}


BENCH_TRACES = [
    _bench_trace(workloads.guess_stream(workloads.DEFAULT_SEED)[0]),
    _bench_trace(workloads.many_flows(workloads.DEFAULT_SEED)[1]),
]
ALL_TRACES = TRACE_DOCS + BENCH_TRACES


def _refuse_to_word(x):
    raise AssertionError("a valid document had a failure worded")


def test_valid_documents_are_accepted_without_wording(monkeypatch):
    # The failures a valid document meets inside oneOf, not and if are
    # worded only when reported, i.e. never.
    monkeypatch.setattr(program_doc, "_brief", _refuse_to_word)
    monkeypatch.setattr(program_doc, "_repr", _refuse_to_word)
    for doc in [*PROGRAM_DOCS, workloads.many_flows(workloads.DEFAULT_SEED)[0]]:
        program_doc.validate_program_doc(doc)
    for doc in ALL_TRACES:
        program_doc.validate_trace_doc(doc)


@lru_cache(maxsize=None)
def _compiled_trace_schema():
    return compile_schema(load_schema("trace"))


def reference_load(doc):
    """The trace as the reader gives it after the whole-document schema
    check: ``(seed, packets)``, or the first DocError raised."""
    error = _compiled_trace_schema()(doc)
    if error is not None:
        raise error
    read = trace_doc._packet_reader()
    return doc["seed"], [read(p, f"packets[{i}]") for i, p in enumerate(doc["packets"])]


def outcome(load, doc):
    """``("ok", seed, packets)`` or ``("error", path, message)``; the
    packets are read inside the ``try``, since a stream raises as it goes."""
    try:
        seed, packets = load(doc)
        packets = list(packets)
    except DocError as e:
        return "error", e.path, e.message
    return "ok", seed, packets


def assert_loads_as_the_reference(doc):
    expected = outcome(reference_load, doc)
    assert outcome(trace_from_doc, doc) == expected
    assert outcome(trace_doc.stream_trace, doc) == expected


def _field_texts(width):
    return [
        str(2**width - 1), str(2**width), hex(2**width - 1), hex(2**width),
        "0", "07", "0x", "0X1f", "0xg", "", " 5", "+5", "1_0", "\u0663",
        "5\n", "0x1f\n", "0" * 4400 + "7", "9" * 5000, "0x" + "f" * 5000,
    ]


@st.composite
def field_mutated(draw, docs):
    """A copy of one of ``docs`` with one header field of one packet set
    to a text just inside or outside what the trace format accepts."""
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    packet = draw(st.sampled_from(doc["packets"]))
    group = draw(st.sampled_from(sorted(HEADER_FIELD_BITS)))
    fields = packet.setdefault(group, {})
    name = draw(st.sampled_from([*HEADER_FIELD_BITS[group], "bogus"]))
    width = HEADER_FIELD_BITS[group].get(name, 16)
    fields[name] = draw(st.sampled_from(_field_texts(width)))
    return doc


_DROP = object()


def _packet(**changes):
    """A one-byte UDP trace packet with ``changes`` applied; a key given
    ``_DROP`` is removed."""
    packet = {"udp": {"dstPort": "5555"}, "payload": "07"}
    packet.update(changes)
    return {key: value for key, value in packet.items() if value is not _DROP}


# (id, trace, the path of its DocError or None when it loads)
PINNED_TRACES = [
    *[
        (f"{group}.{name}={text}", {"seed": 0, "packets": [_packet(**{group: {name: text}})]},
         None if fits else f"packets[0].{group}.{name}")
        for group, name in (("ipv4", "ttl"), ("udp", "dstPort"), ("eth", "dstAddr"))
        for width in [HEADER_FIELD_BITS[group][name]]
        for text, fits in (
            (str(2**width - 1), True), (str(2**width), False),
            (hex(2**width - 1), True), (hex(2**width), False),
        )
    ],
    ("hex", {"seed": 0, "packets": [_packet(udp={"dstPort": "0x15b3"})]}, None),
    ("hex upper prefix", {"seed": 0, "packets": [_packet(udp={"dstPort": "0X15b3"})]},
     "packets[0].udp.dstPort"),
    ("hex no digits", {"seed": 0, "packets": [_packet(udp={"dstPort": "0x"})]},
     "packets[0].udp.dstPort"),
    ("leading zeros", {"seed": 0, "packets": [_packet(udp={"dstPort": "0" * 4400 + "7"})]},
     None),
    ("digits past the limit", {"seed": 0, "packets": [_packet(udp={"dstPort": "1" * 4400})]},
     "packets[0].udp.dstPort"),
    ("null group", {"seed": 0, "packets": [_packet(eth=None)]}, "packets[0].eth"),
    ("bool port", {"seed": 0, "packets": [_packet(ingress_port=True)]},
     "packets[0].ingress_port"),
    ("float port", {"seed": 0, "packets": [_packet(ingress_port=1.0)]},
     "packets[0].ingress_port"),
    ("port at the maximum", {"seed": 0, "packets": [_packet(ingress_port=PORT_MAX)]}, None),
    ("port past the maximum", {"seed": 0, "packets": [_packet(ingress_port=PORT_MAX + 1)]},
     "packets[0].ingress_port"),
    ("negative port", {"seed": 0, "packets": [_packet(ingress_port=-1)]},
     "packets[0].ingress_port"),
    ("seed at the maximum", {"seed": SEED_MAX, "packets": []}, None),
    ("seed past the maximum", {"seed": SEED_MAX + 1, "packets": []}, "seed"),
    ("negative seed", {"seed": -1, "packets": []}, "seed"),
    ("udp and tcp", {"seed": 0, "packets": [_packet(tcp={})]}, "packets[0]"),
    ("no transport", {"seed": 0, "packets": [_packet(udp=_DROP)]}, "packets[0]"),
    ("newline in a field", {"seed": 0, "packets": [_packet(udp={"dstPort": "5555\n"})]},
     "packets[0].udp.dstPort"),
    ("newline in the payload", {"seed": 0, "packets": [_packet(payload="07\n")]},
     "packets[0].payload"),
    ("unknown field", {"seed": 0, "packets": [_packet(udp={"dstport": "1"})]},
     "packets[0].udp.dstport"),
    # A schema error anywhere is reported before a width error in an
    # earlier packet.
    ("schema error after a width error", {"seed": 0, "packets": [
        _packet(udp={"dstPort": "70000"}), _packet(payload="0"),
    ]}, "packets[1].payload"),
    ("width error after an unknown field", {"seed": 0, "packets": [
        _packet(udp={"dstport": "1"}), _packet(udp={"dstPort": "70000"}),
    ]}, "packets[0].udp.dstport"),
]


class TestTraceAcceptPath:
    @pytest.mark.parametrize("doc", ALL_TRACES)
    def test_shipped_and_bench_traces_load_as_the_reference(self, doc):
        assert outcome(trace_from_doc, doc)[0] == "ok"
        assert_loads_as_the_reference(doc)

    @DIFFERENTIAL
    @given(mutated(ALL_TRACES, most=1))
    def test_single_mutations_load_as_the_reference(self, doc):
        assert_loads_as_the_reference(doc)

    @DIFFERENTIAL
    @given(field_mutated(ALL_TRACES))
    def test_field_mutations_load_as_the_reference(self, doc):
        assert_loads_as_the_reference(doc)

    @pytest.mark.parametrize(
        "doc, path", [case[1:] for case in PINNED_TRACES], ids=[case[0] for case in PINNED_TRACES]
    )
    def test_pinned_cases(self, doc, path):
        assert_loads_as_the_reference(doc)
        got = outcome(trace_from_doc, doc)
        assert got[0] == ("ok" if path is None else "error")
        if path is not None:
            assert got[1] == path

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out_file"])
    @pytest.mark.parametrize("doc", [case[1] for case in PINNED_TRACES] + ALL_TRACES)
    def test_simulate_gives_the_reference_outcome(self, doc, to_file, tmp_path, capsys):
        # The reference's results, or exit 1 with its DocError and nothing written.
        expected = outcome(reference_load, doc)
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps(doc))
        out = tmp_path / "out" / "results.json"
        out.parent.mkdir()
        argv = ["simulate", str(asset_path("guess_game")), "-t", str(trace)]
        code = cli.main(argv + (["-o", str(out)] if to_file else []))
        captured = capsys.readouterr()
        written = out.read_text() if to_file and out.exists() else captured.out
        if expected[0] == "error":
            assert (code, captured.err) == (1, f"error: {expected[1]}: {expected[2]}\n")
            assert written == "" and list(out.parent.iterdir()) == []
        else:
            _, seed, packets = expected
            assert (code, captured.err) == (0, "")
            assert written == dumps_results(seed, run_trace(guess_game_solution(), packets, seed))


# -- the program check's accept path against the reference sequence --------

MANY_FLOWS = workloads.many_flows(workloads.DEFAULT_SEED)[0]
ALL_PROGRAMS = PROGRAM_DOCS + [MANY_FLOWS]


@lru_cache(maxsize=None)
def _compiled_program_schema():
    return compile_schema(load_schema("program"))


def reference_solution(doc):
    """The Solution of ``doc`` after the whole-document schema check, or the
    first error raised."""
    error = _compiled_program_schema()(doc)
    if error is not None:
        raise error
    return program_doc._program_reader()(doc)


def program_outcome(load, doc):
    """``("ok", the solution's document)`` or ``("error", class, path,
    message)``; any other exception is raised."""
    try:
        solution = load(doc)
    except (DocError, program_doc.DocSemanticError) as e:
        return "error", type(e).__name__, e.path, e.message
    return "ok", program_doc.dumps_doc(program_doc.solution_to_doc(solution))


def assert_replays_as_the_reference(doc):
    got = program_outcome(solution_from_doc, doc)
    assert got == program_outcome(reference_solution, doc)
    # The replay's own wording of a schema rule is never the one reported:
    # a document the schema accepts meets none of those rules.
    assert got[-1] != program_doc._NOT_A_PROGRAM


def _all_ops_with(*changes):
    """``tests/data/all_ops.json`` with each ``(path, value)`` of
    ``changes`` set; a path is a tuple of keys and indices, and ``_DROP``
    removes the key."""
    doc = copy.deepcopy(PROGRAM_DOCS[-1])
    for path, value in changes:
        node = reduce(getitem, path[:-1], doc)
        if value is _DROP:
            del node[path[-1]]
        else:
            node[path[-1]] = value
    return doc


BODY = ("processors", 0, "body")
# (id, program, the path of its error or None when it loads)
PINNED_PROGRAMS = [
    ("bool width", _all_ops_with((("layouts", 0, "fields", 0, "width"), True)),
     "layouts[0].fields[0].width"),
    ("float width", _all_ops_with((("layouts", 0, "fields", 0, "width"), 8.0)), None),
    ("float version", _all_ops_with((("version",), 1.0)), None),
    ("bool version", _all_ops_with((("version",), True)), "version"),
    ("float value", _all_ops_with(((*BODY, 0, "value", "value"), 4660.0)),
     "processors[0].body[0].value.value"),
    ("unknown command key", _all_ops_with(((*BODY, 8, "extra"), 1)), "processors[0].body[8]"),
    ("key of another op", _all_ops_with(((*BODY, 8, "hint"), "table")), "processors[0].body[8]"),
    ("missing command key", _all_ops_with(((*BODY, 8, "target"), _DROP)),
     "processors[0].body[8]"),
    *[(f"ordinal {value!r}", _all_ops_with(((*BODY, 0, "ordinal"), value)),
       "processors[0].body[0].ordinal") for value in ("1", 1.0, True, -1, None)],
    ("no ordinal", _all_ops_with(((*BODY, 0, "ordinal"), _DROP)), None),
    ("bad hint", _all_ops_with(((*BODY, 5, "hint"), "switch")), "processors[0].body[5].hint"),
    ("null hint", _all_ops_with(((*BODY, 5, "hint"), None)), "processors[0].body[5].hint"),
    ("float end ordinal", _all_ops_with(((*BODY, 11, "end_ordinal"), 1.5)),
     "processors[0].body[11].end_ordinal"),
    ("null else ordinal", _all_ops_with(((*BODY, 12, "else_ordinal"), None)), None),
    ("str else ordinal", _all_ops_with(((*BODY, 12, "else_ordinal"), "1")),
     "processors[0].body[12].else_ordinal"),
    ("bool case ordinal", _all_ops_with(((*BODY, 11, "cases", 0, "ordinal"), False)),
     "processors[0].body[11].cases[0].ordinal"),
    ("null else", _all_ops_with(((*BODY, 12, "else"), None)), None),
    ("int truncate_payload", _all_ops_with((("processors", 0, "truncate_payload"), 0)),
     "processors[0].truncate_payload"),
    ("empty output", _all_ops_with((("processors", 0, "output"), "")), "processors[0].output"),
    ("no fields", _all_ops_with((("layouts", 0, "fields"), [])), "layouts[0].fields"),
    ("no criteria", _all_ops_with((("selectors", 0, "criteria"), [])), "selectors[0].criteria"),
    ("bad target", _all_ops_with(((*BODY, 0, "target"), "s-const")),
     "processors[0].body[0].target"),
    ("undeclared target", _all_ops_with(((*BODY, 0, "target"), "nope")),
     "processors[0].body[0]"),
    ("undeclared ring", _all_ops_with(((*BODY, 9, "ring"), "nope")), "processors[0].body[9]"),
    ("port past the maximum", _all_ops_with(((*BODY, 11, "cases", 0, "body", 0), {
        "op": "forward", "port": PORT_MAX + 1})), "processors[0].body[11].cases[0].body[0].port"),
    ("bool local of 16 bits", _all_ops_with((("processors", 0, "locals", 0), {
        "name": "eq_if", "width": 16, "bool": True})), "processors[0].locals[0].width"),
    ("operand of two keys", _all_ops_with(((*BODY, 1, "source"), {
        "var": "a", "const": {"width": 16, "value": 1}})), "processors[0].body[1].source"),
    ("criterion field with a newline", _all_ops_with((("selectors", 0, "criteria", 0, "field"),
                                                     "udp.dstPort\n")),
     "selectors[0].criteria[0].field"),
    ("tuple body", _all_ops_with(((*BODY,), ())), "processors[0].body"),
    # A schema error anywhere is reported before a semantic error before it.
    ("schema error after a duplicate name", _all_ops_with(
        (("layouts", 1, "name"), "ops_req"), (("selectors", 0, "stack"), "IPV4_SCTP")),
     "selectors[0].stack"),
    ("duplicate name", _all_ops_with((("layouts", 1, "name"), "ops_req")), "layouts[1]"),
]


def _all_ops_appended(path):
    """``tests/data/all_ops.json`` with an empty object appended to the
    array at ``path``."""
    return _all_ops_with((path, [*reduce(getitem, path, PROGRAM_DOCS[-1]), {}]))


def _dotted(path) -> str:
    return ".".join(map(str, path))


PROC = ("processors", 0)
CASES = (*BODY, 11, "cases")
# (id, program, the path of its error): each breaks a schema rule that the
# replay leaves to the builder call it makes, so only that call refuses it.
BUILDER_RULE_PROGRAMS = [
    *[(f"bad identifier at {_dotted(path)}", _all_ops_with((path, "bad-name")),
       schema_compiler._json_path(path)) for path in [
        ("layouts", 0, "name"), ("layouts", 0, "fields", 0, "name"), (*PROC, "locals", 0, "name"),
        (*PROC, "locals", 3, "name"), (*PROC, "shared", 0, "name"), (*PROC, "rings", 0, "name"),
        (*PROC, "name"), ("selectors", 0, "name"),
    ]],
    *[(f"bad width at {_dotted(path)}", _all_ops_with((path, 12)),
       schema_compiler._json_path(path)) for path in [
        ("layouts", 0, "fields", 0, "width"), (*PROC, "locals", 3, "width"),
        (*PROC, "shared", 0, "width"), (*PROC, "rings", 0, "width"),
        (*BODY, 0, "value", "width"), (*BODY, 4, "rhs", "const", "width"),
        (*CASES, 0, "value", "width"), ("selectors", 0, "criteria", 0, "width"),
    ]],
    ("stack IPV4_SCTP", _all_ops_with((("selectors", 0, "stack"), "IPV4_SCTP")),
     "selectors[0].stack"),
    ("value -1", _all_ops_with(((*BODY, 0, "value", "value"), -1)),
     "processors[0].body[0].value.value"),
    ("initial -1", _all_ops_with(((*PROC, "shared", 0, "initial"), -1)),
     "processors[0].shared[0].initial"),
    ("criterion -1", _all_ops_with((("selectors", 0, "criteria", 0, "value"), -1)),
     "selectors[0].criteria[0].value"),
    *[(f"capacity {n}", _all_ops_with(((*PROC, "rings", 0, "capacity"), n)),
       "processors[0].rings[0].capacity") for n in (0, RING_CAPACITY_MAX + 1)],
    *[(f"no {path[-1]} at {_dotted(path[:-1]) or '$'}", _all_ops_with((path, _DROP)),
       schema_compiler._json_path(path[:-1])) for path in [
        ("layouts",), ("layouts", 0, "fields"), ("layouts", 0, "fields", 0, "width"),
        (*PROC, "locals", 0, "width"), (*PROC, "locals", 3, "name"),
        (*PROC, "shared", 0, "initial"), (*PROC, "rings", 0, "capacity"), (*PROC, "input"),
        (*BODY, 0, "value", "value"), (*BODY, 10, "source"), (*BODY, 12, "cond"),
        (*BODY, 11, "cases"), (*CASES, 0, "body"), (*CASES, 3, "body", 0, "body"),
        ("selectors", 0, "processor"), ("selectors", 0, "criteria", 0, "field"),
        ("processors", 1, "body", 1, "port"),
    ]],
    ("empty operand", _all_ops_with(((*BODY, 1, "source"), {})), "processors[0].body[1].source"),
    *[(f"{{}} appended to {_dotted(path)}", _all_ops_appended(path),
       f"{schema_compiler._json_path(path)}[{len(reduce(getitem, path, PROGRAM_DOCS[-1]))}]")
      for path in [
        ("layouts",), ("layouts", 0, "fields"), ("processors",), (*PROC, "locals"),
        (*PROC, "shared"), (*PROC, "rings"), BODY, CASES, ("selectors",),
        ("selectors", 0, "criteria"),
    ]],
]


@pytest.mark.parametrize(
    "doc, path", [case[1:] for case in BUILDER_RULE_PROGRAMS],
    ids=[case[0] for case in BUILDER_RULE_PROGRAMS],
)
def test_a_rule_left_to_the_builder_is_refused(doc, path):
    assert_replays_as_the_reference(doc)
    got = program_outcome(solution_from_doc, doc)
    assert got[:3] == ("error", "DocError", path)


class TestProgramAcceptPath:
    @pytest.mark.parametrize("doc", ALL_PROGRAMS)
    def test_shipped_and_bench_programs_load_as_the_reference(self, doc):
        assert program_outcome(solution_from_doc, doc)[0] == "ok"
        assert_replays_as_the_reference(doc)

    @DIFFERENTIAL
    @given(mutated(ALL_PROGRAMS, most=1))
    def test_single_mutations_load_as_the_reference(self, doc):
        assert_replays_as_the_reference(doc)

    @pytest.mark.parametrize(
        "doc, path", [case[1:] for case in PINNED_PROGRAMS],
        ids=[case[0] for case in PINNED_PROGRAMS],
    )
    def test_pinned_cases(self, doc, path):
        assert_replays_as_the_reference(doc)
        got = program_outcome(solution_from_doc, doc)
        assert got[0] == ("ok" if path is None else "error")
        if path is not None:
            assert got[2] == path

    def test_a_valid_load_neither_compiles_nor_walks_a_schema(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a valid document was checked against its schema")

        monkeypatch.setattr(schema_compiler, "compile_schema", refuse)
        for name in ("schema_check", "validate_program_doc", "validate_trace_doc"):
            monkeypatch.setattr(program_doc, name, refuse)
        for doc in ALL_PROGRAMS:
            solution_from_doc(doc)
        for doc in ALL_TRACES:
            trace_from_doc(doc)


@pytest.mark.parametrize("program_change, trace_change, loads", [
    ({}, {}, False),
    ({"version": 2}, {}, True),
    ({}, {"seed": -1}, True),
], ids=["valid", "refused program", "refused trace"])
def test_the_schema_compiler_loads_only_after_a_refusal(
    tmp_path, program_change, trace_change, loads
):
    program, trace = tmp_path / "program.json", tmp_path / "trace.json"
    program.write_text(json.dumps({**json.loads(asset_path("guess_game").read_text()),
                                   **program_change}))
    trace.write_text(json.dumps({**TRACE_DOCS[0], **trace_change}))
    argv = ["simulate", str(program), "-t", str(trace), "-o", str(tmp_path / "out.json")]
    script = (
        f"import sys; sys.path.insert(0, {str(Path(p4flowgen.__file__).parents[1])!r})\n"
        "from p4flowgen import cli\n"
        f"code = cli.main({argv!r})\n"
        "print(code, 'p4flowgen.schema_compiler' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.stdout.split() == ["1" if loads else "0", str(loads)], proc.stderr
