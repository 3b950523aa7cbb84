"""The op table in flow_ast is the one declaration of each plain command.

These tests keep everything that must follow it in step: each class's
role table, the simulator's eval entries, the code generator's emit
entries and the program schema. scripts/regen_goldens.py derives the
schema's plain-op branches from the table; the schema tests here restate
what that derivation must give, so a fault in the script shows even when
--check passes on the files it wrote.
"""

from typing import get_args

import pytest

from p4flowgen import codegen, simulator
from p4flowgen.flow_ast import CONST, OPERAND, OPS, PLAIN, RING, TARGET, Command, Hint
from p4flowgen.program_doc import load_schema

SCOPE_OPS = ["if", "switch", "atomic"]


def _branch_ops(branch) -> list:
    cond = branch["if"]["properties"]["op"]
    return [cond["const"]] if "const" in cond else cond["enum"]


def _branches(op: str) -> list:
    schema = load_schema("program")
    return [
        b for b in schema["$defs"]["command"]["allOf"] if op in _branch_ops(b)
    ]


def test_schema_op_enum_is_the_op_table_plus_scopes():
    command = load_schema("program")["$defs"]["command"]
    assert command["properties"]["op"]["enum"] == list(OPS) + SCOPE_OPS


@pytest.mark.parametrize("op", list(OPS))
def test_schema_branch_lists_exactly_the_op_fields(op):
    # Every op, one with no fields too, has one closed branch: its own
    # fields beside the op and the ordinal, and no other key.
    cls = OPS[op]
    fields = [name for name in cls.FIELDS if name != "ordinal"]
    branches = _branches(op)
    assert len(branches) == 1
    then = branches[0]["then"]
    assert then["additionalProperties"] is False
    assert then["properties"]["op"] is True and then["properties"]["ordinal"] is True
    assert sorted(then["properties"].keys() - {"op", "ordinal"}) == sorted(fields)
    required = [name for name in fields if not hasattr(cls, name)]  # no default
    assert sorted(then.get("required", [])) == sorted(required)


def test_every_schema_branch_names_known_ops():
    schema = load_schema("program")
    for branch in schema["$defs"]["command"]["allOf"]:
        assert set(_branch_ops(branch)) <= set(OPS) | set(SCOPE_OPS)


def test_every_schema_branch_is_closed():
    schema = load_schema("program")
    for branch in schema["$defs"]["command"]["allOf"]:
        then = branch["then"]
        assert then["additionalProperties"] is False
        assert {"op", "ordinal"} <= then["properties"].keys()


def test_simulator_has_one_entry_per_plain_op():
    assert set(simulator._PY) == set(OPS.values())


def test_codegen_has_one_entry_per_plain_op():
    assert set(codegen._EMIT) == set(OPS.values())


def test_op_names_are_unique_per_class():
    assert list(OPS.values()) == list(get_args(Command))
    for op, cls in OPS.items():
        assert cls.op == op


@pytest.mark.parametrize("op", list(OPS))
def test_roles_list_every_field_but_the_ordinal_in_order(op):
    cls = OPS[op]
    names = [name for name in cls.FIELDS if name != "ordinal"]
    assert [name for name, _ in cls.roles] == names


def test_roles_follow_the_field_names():
    roles = {name: role for cls in OPS.values() for name, role in cls.roles}
    assert roles == {
        "target": TARGET, "value": CONST, "source": OPERAND, "lhs": OPERAND, "rhs": OPERAND,
        "ring": RING, "port": PLAIN, "hint": Hint,
    }
