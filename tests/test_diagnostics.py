"""The exact diagnostics of the builder's checks and of their replay.

Every rule of ``FlowProcessor._check_command``, of If/Switch/Case and
the scope closers, of ``new_flow_processor`` and of name resolution is
listed here with the kind, message and site it reports; the same faults
in a program document are listed with the path, kind and message of
their ``DocSemanticError``. A refactor of the checks must leave every
line of this file passing as it is.
"""

import copy

import pytest

from p4flowgen.core_model import (
    U8,
    U16,
    U32,
    FieldDecl,
    HeaderLayout,
    RingBufferDecl,
    SharedVariableDecl,
    u8,
    u16,
    u32,
)
from p4flowgen.flow_ast import (
    Add,
    AssignConst,
    AssignVar,
    Cast,
    Equals,
    ErrorKind,
    Greater,
    Rand,
    RingPush,
    RingReadHead,
    Scope,
    SemanticError,
    Sub,
    VarRef,
    bool_local,
    local,
    new_flow_processor,
)
from p4flowgen.program_doc import DocSemanticError, solution_from_doc, solution_to_doc
from p4flowgen.selector import Criterion, ProtocolStack, Solution, new_flow_selector

REQ = HeaderLayout("req", [FieldDecl("a", U8), FieldDecl("p", U16)])
RESP = HeaderLayout("resp", [FieldDecl("q", U8), FieldDecl("r", U16)])
DECLS = dict(
    input=REQ,
    output=RESP,
    locals=[bool_local("ok"), local("t8", U8), local("t16", U16), local("t32", U32)],
    shared=[SharedVariableDecl("s8", U8, u8(0))],
    rings=[RingBufferDecl("log", U32, 4)],
)


def make_proc(**overrides):
    return new_flow_processor("proc", **{**DECLS, **overrides})


def v(p, name):
    return p.var(name)


# -- the builder --------------------------------------------------------------

# (id, calls on a fresh processor whose last one is refused, kind, message, site)
BUILDER = [
    # name resolution
    ("undeclared name", lambda p: (p.body.add(Rand(v(p, "t8"))), v(p, "nope")),
     ErrorKind.UNDECLARED_NAME, "'nope' is not declared in processor 'proc'", 1),
    ("undeclared name before any call", lambda p: v(p, "nope"),
     ErrorKind.UNDECLARED_NAME, "'nope' is not declared in processor 'proc'", 0),
    ("ring name as a variable", lambda p: v(p, "log"),
     ErrorKind.UNDECLARED_NAME, "'log' is not declared in processor 'proc'", 0),
    ("name declared in another scope",
     lambda p: p.body.add(AssignConst(VarRef(Scope.LOCAL, "a", U8), u8(1))),
     ErrorKind.UNDECLARED_NAME, "'a' is not declared in scope local", 1),
    ("shared name as an output",
     lambda p: p.body.add(AssignConst(VarRef(Scope.OUTPUT, "s8", U8), u8(1))),
     ErrorKind.UNDECLARED_NAME, "'s8' is not declared in scope output", 1),
    ("stale width",
     lambda p: p.body.add(AssignConst(VarRef(Scope.LOCAL, "t8", U16), u16(1))),
     ErrorKind.WIDTH_MISMATCH, "'t8' is declared u8, referenced as u16", 1),
    ("stale width of an operand",
     lambda p: p.body.add(AssignVar(v(p, "t16"), VarRef(Scope.INPUT, "a", U16))),
     ErrorKind.WIDTH_MISMATCH, "'a' is declared u8, referenced as u16", 1),
    ("bool marker on a plain local",
     lambda p: p.body.add(AssignConst(VarRef(Scope.LOCAL, "t8", U8, True), u8(1))),
     ErrorKind.NOT_BOOLEAN,
     "bool marker on reference to 't8' does not match its declaration", 1),
    ("no bool marker on a bool local",
     lambda p: p.body.add(AssignConst(VarRef(Scope.LOCAL, "ok", U8), u8(1))),
     ErrorKind.NOT_BOOLEAN,
     "bool marker on reference to 'ok' does not match its declaration", 1),
    ("output ref without an output layout",
     lambda p: p.body.add(AssignConst(VarRef(Scope.OUTPUT, "q", U8), u8(1))),
     ErrorKind.OUTPUT_UNDECLARED, "processor 'proc' has no output layout", 1),
    ("unknown ring to push", lambda p: p.body.add(RingPush("nope", u32(1))),
     ErrorKind.UNDECLARED_NAME, "ring 'nope' is not declared in processor 'proc'", 1),
    ("unknown ring to read", lambda p: p.body.add(RingReadHead("nope", v(p, "t32"))),
     ErrorKind.UNDECLARED_NAME, "ring 'nope' is not declared in processor 'proc'", 1),
    ("variable name as a ring", lambda p: p.body.add(RingPush("t32", u32(1))),
     ErrorKind.UNDECLARED_NAME, "ring 't32' is not declared in processor 'proc'", 1),
    ("ring lookup by name", lambda p: p.ring("nope"),
     ErrorKind.UNDECLARED_NAME, "ring 'nope' is not declared in processor 'proc'", 0),
    # the order of resolution: the ring, the target, then operands in field order
    ("unknown ring before a bad target",
     lambda p: p.body.add(RingReadHead("nope", v(p, "a"))),
     ErrorKind.UNDECLARED_NAME, "ring 'nope' is not declared in processor 'proc'", 1),
    ("target before operands",
     lambda p: p.body.add(Add(v(p, "a"), VarRef(Scope.LOCAL, "zz", U8), v(p, "t8"))),
     ErrorKind.WRITE_TO_INPUT, "input field 'a' is read-only", 1),
    ("bool target rule before operands",
     lambda p: p.body.add(Equals(v(p, "t8"), VarRef(Scope.LOCAL, "zz", U8), v(p, "t8"))),
     ErrorKind.NOT_BOOLEAN, "Equals target 't8' must be a boolean local", 1),
    ("lhs before rhs",
     lambda p: p.body.add(Add(v(p, "t8"), VarRef(Scope.LOCAL, "x", U8),
                              VarRef(Scope.LOCAL, "y", U8))),
     ErrorKind.UNDECLARED_NAME, "'x' is not declared in scope local", 1),
    # the per-op rules
    ("write to input", lambda p: p.body.add(AssignConst(v(p, "a"), u8(1))),
     ErrorKind.WRITE_TO_INPUT, "input field 'a' is read-only", 1),
    ("equals into a plain local",
     lambda p: p.body.add(Equals(v(p, "t8"), v(p, "a"), v(p, "t8"))),
     ErrorKind.NOT_BOOLEAN, "Equals target 't8' must be a boolean local", 1),
    ("greater into a plain local",
     lambda p: p.body.add(Greater(v(p, "t8"), v(p, "a"), v(p, "t8"))),
     ErrorKind.NOT_BOOLEAN, "Greater target 't8' must be a boolean local", 1),
    ("cast into a bool", lambda p: p.body.add(Cast(v(p, "ok"), v(p, "p"))),
     ErrorKind.NOT_BOOLEAN, "Cast cannot write boolean local 'ok'", 1),
    ("add into a bool", lambda p: p.body.add(Add(v(p, "ok"), v(p, "a"), v(p, "t8"))),
     ErrorKind.NOT_BOOLEAN, "Add cannot write boolean local 'ok'", 1),
    ("sub into a bool", lambda p: p.body.add(Sub(v(p, "ok"), v(p, "a"), v(p, "t8"))),
     ErrorKind.NOT_BOOLEAN, "Sub cannot write boolean local 'ok'", 1),
    ("rand into a bool", lambda p: p.body.add(Rand(v(p, "ok"))),
     ErrorKind.NOT_BOOLEAN, "Rand cannot write boolean local 'ok'", 1),
    ("ring read into a bool", lambda p: p.body.add(RingReadHead("log", v(p, "ok"))),
     ErrorKind.NOT_BOOLEAN, "RingReadHead cannot write boolean local 'ok'", 1),
    ("assigned value width", lambda p: p.body.add(AssignConst(v(p, "t8"), u16(1))),
     ErrorKind.WIDTH_MISMATCH, "assigned value: u8 vs u16", 1),
    ("non-boolean constant into a bool", lambda p: p.body.add(AssignConst(v(p, "ok"), u8(2))),
     ErrorKind.NOT_BOOLEAN, "u8(2) is not a boolean value", 1),
    ("assignment width", lambda p: p.body.add(AssignVar(v(p, "t16"), v(p, "a"))),
     ErrorKind.WIDTH_MISMATCH, "assignment: u16 vs u8", 1),
    ("non-boolean source into a bool", lambda p: p.body.add(AssignVar(v(p, "ok"), v(p, "a"))),
     ErrorKind.NOT_BOOLEAN, "cannot assign non-boolean source to boolean 'ok'", 1),
    ("non-boolean constant source into a bool",
     lambda p: p.body.add(AssignVar(v(p, "ok"), u8(2))),
     ErrorKind.NOT_BOOLEAN, "cannot assign non-boolean source to boolean 'ok'", 1),
    ("add operands", lambda p: p.body.add(Add(v(p, "t8"), v(p, "a"), v(p, "p"))),
     ErrorKind.WIDTH_MISMATCH, "Add operands: u8 vs u16", 1),
    ("add target", lambda p: p.body.add(Add(v(p, "t16"), v(p, "a"), v(p, "t8"))),
     ErrorKind.WIDTH_MISMATCH, "Add target: u16 vs u8", 1),
    ("sub operands", lambda p: p.body.add(Sub(v(p, "t8"), u8(1), u16(1))),
     ErrorKind.WIDTH_MISMATCH, "Sub operands: u8 vs u16", 1),
    ("sub target", lambda p: p.body.add(Sub(v(p, "t32"), v(p, "a"), v(p, "t8"))),
     ErrorKind.WIDTH_MISMATCH, "Sub target: u32 vs u8", 1),
    ("equals operands", lambda p: p.body.add(Equals(v(p, "ok"), v(p, "a"), v(p, "p"))),
     ErrorKind.WIDTH_MISMATCH, "Equals operands: u8 vs u16", 1),
    ("greater operands", lambda p: p.body.add(Greater(v(p, "ok"), v(p, "p"), v(p, "a"))),
     ErrorKind.WIDTH_MISMATCH, "Greater operands: u16 vs u8", 1),
    ("ring push width", lambda p: p.body.add(RingPush("log", v(p, "a"))),
     ErrorKind.WIDTH_MISMATCH, "ring push: u32 vs u8", 1),
    ("ring read width", lambda p: p.body.add(RingReadHead("log", v(p, "t8"))),
     ErrorKind.WIDTH_MISMATCH, "ring read: u32 vs u8", 1),
    # If / Switch / Case / Atomic and the closers
    ("constant condition", lambda p: p.body.If(u8(1)),
     ErrorKind.NOT_BOOLEAN, "condition must be a boolean local", 1),
    ("non-boolean condition", lambda p: p.body.If(v(p, "t8")),
     ErrorKind.NOT_BOOLEAN, "'t8' is not a boolean local", 1),
    ("condition in another scope", lambda p: p.body.If(VarRef(Scope.SHARED, "ok", U8, True)),
     ErrorKind.UNDECLARED_NAME, "'ok' is not declared in scope shared", 1),
    ("stale selector", lambda p: p.body.Switch(VarRef(Scope.INPUT, "p", U8)),
     ErrorKind.WIDTH_MISMATCH, "'p' is declared u16, referenced as u8", 1),
    ("case width", lambda p: p.body.Switch(v(p, "a")).Case(u16(1)),
     ErrorKind.WIDTH_MISMATCH, "case value is u16, selector is u8", 2),
    ("duplicate case", lambda p: p.body.Switch(v(p, "a")).Case(u8(1)).Case(u8(1)),
     ErrorKind.DUPLICATE_NAME, "duplicate case value u8(1)", 3),
    ("command outside a case", lambda p: p.body.Switch(v(p, "a")).add(Rand(v(p, "t8"))),
     ErrorKind.OPEN_SCOPE, "commands must be inside a Case", 2),
    ("second else", lambda p: _second_else(p),
     ErrorKind.OPEN_SCOPE, "this If already has an Else branch", 3),
    ("if closed twice", lambda p: _closed_twice(p),
     ErrorKind.OPEN_SCOPE, "this If scope was already closed", 3),
    ("command in a closed scope", lambda p: _in_closed(p),
     ErrorKind.OPEN_SCOPE, "the enclosing scope was already closed", 3),
    ("stray EndIf", lambda p: p.body.EndIf(),
     ErrorKind.OPEN_SCOPE, "EndIf does not close any scope here", 1),
    ("stray Else", lambda p: p.body.Else(),
     ErrorKind.OPEN_SCOPE, "Else does not close any scope here", 1),
    ("stray Case", lambda p: p.body.Case(u8(1)),
     ErrorKind.OPEN_SCOPE, "Case does not close any scope here", 1),
    ("stray EndSwitch", lambda p: p.body.EndSwitch(),
     ErrorKind.OPEN_SCOPE, "EndSwitch does not close any scope here", 1),
    ("stray EndAtomic", lambda p: p.body.Atomic().EndIf(),
     ErrorKind.OPEN_SCOPE, "EndIf does not close any scope here", 2),
    ("nested atomic", lambda p: p.body.Atomic().If(v(p, "ok")).Atomic(),
     ErrorKind.ATOMIC_NESTING, "Atomic blocks cannot nest inside Atomic blocks", 3),
    ("open scope at the end", lambda p: (p.body.If(v(p, "ok")), p.validate_complete()),
     ErrorKind.OPEN_SCOPE, "1 scope(s) still open in processor 'proc'", 1),
]


def _second_else(p):
    then = p.body.If(v(p, "ok"))
    then.Else()
    then.Else()


def _closed_twice(p):
    then = p.body.If(v(p, "ok"))
    then.EndIf()
    then.EndIf()


def _in_closed(p):
    then = p.body.If(v(p, "ok"))
    then.EndIf()
    then.add(Rand(v(p, "t8")))


@pytest.mark.parametrize(
    "calls, kind, message, site", [case[1:] for case in BUILDER], ids=[case[0] for case in BUILDER]
)
def test_builder_diagnostic(calls, kind, message, site):
    p = make_proc(output=None) if kind is ErrorKind.OUTPUT_UNDECLARED else make_proc()
    with pytest.raises(SemanticError) as e:
        calls(p)
    assert (e.value.kind, e.value.message, e.value.site) == (kind, message, site)
    assert str(e.value) == f"[{kind.value}] call {site}: {message}"


# (id, declarations that override DECLS, kind, message)
DECLARATIONS = [
    ("local clashes with an input field", dict(locals=[local("a", U8)]),
     ErrorKind.DUPLICATE_NAME, "name 'a' is declared more than once in processor 'proc'"),
    ("output clashes with input", dict(output=HeaderLayout("o", [FieldDecl("p", U16)])),
     ErrorKind.DUPLICATE_NAME, "name 'p' is declared more than once in processor 'proc'"),
    ("local clashes with a ring", dict(locals=[local("log", U8)]),
     ErrorKind.DUPLICATE_NAME, "name 'log' is declared more than once in processor 'proc'"),
    ("ring clashes with a shared variable", dict(rings=[RingBufferDecl("s8", U8, 2)]),
     ErrorKind.DUPLICATE_NAME, "name 's8' is declared more than once in processor 'proc'"),
    ("two locals of one name", dict(locals=[local("x", U8), bool_local("x")]),
     ErrorKind.DUPLICATE_NAME, "name 'x' is declared more than once in processor 'proc'"),
    ("two rings of one name", dict(rings=[RingBufferDecl("r", U8, 2)] * 2),
     ErrorKind.DUPLICATE_NAME, "name 'r' is declared more than once in processor 'proc'"),
]


@pytest.mark.parametrize(
    "decls, kind, message", [case[1:] for case in DECLARATIONS],
    ids=[case[0] for case in DECLARATIONS],
)
def test_declaration_diagnostic(decls, kind, message):
    with pytest.raises(SemanticError) as e:
        make_proc(**decls)
    assert (e.value.kind, e.value.message, e.value.site) == (kind, message, 0)


def test_reserved_processor_name():
    with pytest.raises(SemanticError) as e:
        new_flow_processor("parser", **DECLS)
    assert (e.value.kind, e.value.site) == (ErrorKind.RESERVED_NAME, 0)
    assert e.value.message == "processor name 'parser' is a reserved word"


# -- the same faults in a program document ------------------------------------


def base_doc() -> dict:
    p = make_proc()
    p.body.add(Rand(v(p, "t8")))
    sel = new_flow_selector(
        "sel", ProtocolStack.IPV4_UDP, [Criterion("udp.dstPort", u16(7))], p
    )
    return solution_to_doc(Solution([sel]))


def var(name):
    return {"var": name}


def const(width, value):
    return {"const": {"width": width, "value": value}}


def rand(target="t8"):
    return {"op": "rand", "target": target}


# (id, body, path under processors[0], kind, message)
DOCUMENT = [
    ("undeclared target", [rand(), rand("nope")], "body[1]",
     "UndeclaredName", "'nope' is not declared in processor 'proc'"),
    ("undeclared operand", [{"op": "add", "target": "t8", "lhs": var("a"), "rhs": var("zz")}],
     "body[0]", "UndeclaredName", "'zz' is not declared in processor 'proc'"),
    ("ring name as a variable", [rand("log")], "body[0]",
     "UndeclaredName", "'log' is not declared in processor 'proc'"),
    ("unknown ring", [{"op": "ring_push", "ring": "nope", "source": const(32, 1)}], "body[0]",
     "UndeclaredName", "ring 'nope' is not declared in processor 'proc'"),
    ("variable name as a ring", [{"op": "ring_read_head", "ring": "t32", "target": "t32"}],
     "body[0]", "UndeclaredName", "ring 't32' is not declared in processor 'proc'"),
    ("write to input", [{"op": "assign_const", "target": "a", "value": {"width": 8, "value": 1}}],
     "body[0]", "WriteToInput", "input field 'a' is read-only"),
    ("equals into a plain local",
     [{"op": "equals", "target": "t8", "lhs": var("a"), "rhs": var("t8")}],
     "body[0]", "NotBoolean", "Equals target 't8' must be a boolean local"),
    ("cast into a bool", [{"op": "cast", "target": "ok", "source": var("p")}],
     "body[0]", "NotBoolean", "Cast cannot write boolean local 'ok'"),
    ("assignment width", [{"op": "assign_var", "target": "t16", "source": var("a")}],
     "body[0]", "WidthMismatch", "assignment: u16 vs u8"),
    ("assigned value width",
     [{"op": "assign_const", "target": "t8", "value": {"width": 16, "value": 1}}],
     "body[0]", "WidthMismatch", "assigned value: u8 vs u16"),
    ("non-boolean constant into a bool",
     [{"op": "assign_const", "target": "ok", "value": {"width": 8, "value": 2}}],
     "body[0]", "NotBoolean", "u8(2) is not a boolean value"),
    ("add operands", [{"op": "add", "target": "t8", "lhs": var("a"), "rhs": const(16, 1)}],
     "body[0]", "WidthMismatch", "Add operands: u8 vs u16"),
    ("ring push width", [{"op": "ring_push", "ring": "log", "source": var("a")}],
     "body[0]", "WidthMismatch", "ring push: u32 vs u8"),
    ("ring read width", [{"op": "ring_read_head", "ring": "log", "target": "t8"}],
     "body[0]", "WidthMismatch", "ring read: u32 vs u8"),
    ("non-boolean condition", [{"op": "if", "cond": "t8", "then": []}],
     "body[0]", "NotBoolean", "'t8' is not a boolean local"),
    ("undeclared condition", [{"op": "if", "cond": "nope", "then": []}],
     "body[0]", "UndeclaredName", "'nope' is not declared in processor 'proc'"),
    ("fault in a then branch", [{"op": "if", "cond": "ok", "then": [rand(), rand("a")]}],
     "body[0].then[1]", "WriteToInput", "input field 'a' is read-only"),
    ("fault in an else branch",
     [{"op": "if", "cond": "ok", "then": [], "else": [rand("ok")]}],
     "body[0].else[0]", "NotBoolean", "Rand cannot write boolean local 'ok'"),
    ("undeclared selector", [{"op": "switch", "selector": var("nope"), "cases": []}],
     "body[0]", "UndeclaredName", "'nope' is not declared in processor 'proc'"),
    ("case width",
     [{"op": "switch", "selector": var("a"),
       "cases": [{"value": {"width": 16, "value": 1}, "body": []}]}],
     "body[0].cases[0]", "WidthMismatch", "case value is u16, selector is u8"),
    ("duplicate case",
     [{"op": "switch", "selector": var("a"),
       "cases": [{"value": {"width": 8, "value": 1}, "body": []}] * 2}],
     "body[0].cases[1]", "DuplicateName", "duplicate case value u8(1)"),
    ("fault in a case",
     [{"op": "switch", "selector": var("a"),
       "cases": [{"value": {"width": 8, "value": 1}, "body": [rand("nope")]}]}],
     "body[0].cases[0].body[0]", "UndeclaredName",
     "'nope' is not declared in processor 'proc'"),
    ("nested atomic",
     [{"op": "atomic", "body": [{"op": "atomic", "body": []}]}],
     "body[0].body[0]", "AtomicNesting", "Atomic blocks cannot nest inside Atomic blocks"),
]


@pytest.mark.parametrize(
    "body, path, kind, message", [case[1:] for case in DOCUMENT],
    ids=[case[0] for case in DOCUMENT],
)
def test_document_diagnostic(body, path, kind, message):
    doc = base_doc()
    doc["processors"][0]["body"] = copy.deepcopy(body)
    with pytest.raises(DocSemanticError) as e:
        solution_from_doc(doc)
    assert (e.value.path, e.value.kind, e.value.message) == (
        f"processors[0].{path}", kind, message
    )


# (id, declarations of processors[0] replaced, kind, message)
DOCUMENT_DECLARATIONS = [
    ("local clashes with a ring", {"locals": [{"name": "log", "width": 8}]},
     "DuplicateName", "name 'log' is declared more than once in processor 'proc'"),
    ("local clashes with an input field", {"locals": [{"name": "a", "width": 8}]},
     "DuplicateName", "name 'a' is declared more than once in processor 'proc'"),
    ("shared clashes with a local",
     {"shared": [{"name": "t8", "width": 8, "initial": 0}]},
     "DuplicateName", "name 't8' is declared more than once in processor 'proc'"),
    ("output reference without an output layout", {"output": None},
     "UndeclaredName", "'q' is not declared in processor 'proc'"),
    ("reserved processor name", {"name": "parser"},
     "ReservedName", "processor name 'parser' is a reserved word"),
]


@pytest.mark.parametrize(
    "decls, kind, message", [case[1:] for case in DOCUMENT_DECLARATIONS],
    ids=[case[0] for case in DOCUMENT_DECLARATIONS],
)
def test_document_declaration_diagnostic(decls, kind, message):
    doc = base_doc()
    doc["processors"][0].update(copy.deepcopy(decls))
    doc["processors"][0]["body"] = [rand("q")]
    if decls.get("name") == "parser":
        doc["selectors"][0]["processor"] = "parser"
    with pytest.raises(DocSemanticError) as e:
        solution_from_doc(doc)
    path = "processors[0].body[0]" if kind == "UndeclaredName" else "processors[0]"
    assert (e.value.path, e.value.kind, e.value.message) == (path, kind, message)
