"""Program documents, and the schema check of every JSON document.

A program document is the declarative twin of the builder API. Loading
one replays every command through the builder, so each semantic check
fires exactly as it would in a script, and the diagnostic carries the
JSON path of the offending node (``processors[0].body[3]``) instead of
a call ordinal.

A valid document is read in one pass. The replay checks the rules of a
program's shipped JSON Schema that no builder call sees and leaves each
other rule to the builder call that takes the value, and ``trace_doc``'s
packet reader checks each packet of a trace as it builds it. Only a
document one of them refuses gets the whole-document schema
check, whose error, if any, is the one reported. That check vets its
schema once per process, on first use, then walks the document and the
schema together to the first failure, which it words, only then, as a
``DocError`` with its JSON path (``schema_compiler``, a module loaded
only then). Only JSON integers are integers.

Every document the package writes has the bytes of
``json.dumps(doc, indent=2)`` plus a newline; ``dumps_doc`` is that
expression. The trace reader and the results writer, which only
``simulate`` runs, are in ``trace_doc``, which ``check`` and ``generate``
never compile; reading its public names here loads it.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

from .core_model import (
    TEMPLATE,
    FieldDecl,
    HeaderLayout,
    RingBufferDecl,
    SharedVariableDecl,
    UValue,
)
from .errors import DocError, FlowgenError
from .flow_ast import (
    CONST,
    OPERAND,
    OPS,
    PLAIN,
    RING,
    TARGET,
    FlowProcessor,
    SemanticError,
    bool_local,
    local,
    new_flow_processor,
    uvalue_doc,
)
from .selector import Criterion, ProtocolStack, Solution, check_criterion, new_flow_selector


class DocSemanticError(FlowgenError):
    """A semantic check failed while replaying the document."""

    def __init__(self, path: str, kind: str, message: str) -> None:
        super().__init__(f"{path}: [{kind}] {message}")
        self.path = path
        self.kind = kind
        self.message = message


SCHEMA_DIR = Path(__file__).parent / "schemas"


@lru_cache(maxsize=None)
def load_schema(name: str) -> dict:
    """A shipped schema by short name ("program" or "trace")."""
    return json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())


# -- schemas: the whole-document check, run after a refusal ------------------


def _in(values, x) -> bool:
    """Whether ``x`` is one of the scalar ``values`` by JSON equality, as
    jsonschema's const and enum see it: ``1 == 1.0``, but a boolean equals
    only a boolean."""
    return x in values and any(
        v == x and isinstance(v, bool) is isinstance(x, bool) for v in values)


def _repr(x) -> str:
    """``repr(x)``, or a stand-in when it holds an int too long to print
    (CPython prints at most 4,300 digits)."""
    try:
        return repr(x)
    except ValueError:
        return f"<{type(x).__name__} too long to print>"


def _brief(x) -> str:
    """``_repr(x)``, cut short for a message."""
    text = _repr(x)
    return text if len(text) <= 60 else text[:57] + "..."


@lru_cache(maxsize=None)
def schema_check(name: str):
    """The check of the shipped schema ``name``: ``doc -> DocError | None``."""
    from .schema_compiler import compile_schema  # loaded only after a refusal

    return compile_schema(load_schema(name))


def _validate(doc, schema_name: str) -> None:
    try:
        error = schema_check(schema_name)(doc)
    except RecursionError:
        raise DocError("$", "nested too deeply to check") from None
    if error is not None:
        raise error


def validate_program_doc(doc) -> None:
    _validate(doc, "program")


def validate_trace_doc(doc) -> None:
    _validate(doc, "trace")


# -- writing: the one byte form of every written document ------------------


def dumps_doc(doc) -> str:
    """The serialization of every written document tree: shipped assets,
    the program documents of the goldens, and the reference form of
    ``simulate`` results (``dumps_results`` writes their bytes without
    the tree)."""
    return json.dumps(doc, indent=2) + "\n"


# -- programs: document form of a Solution -----------------------------------


def solution_to_doc(solution: Solution) -> dict:
    """Hoist layouts out of the processors and selectors into one named
    section, in ``Solution.layouts()`` order (the order of
    ``headers.p4inc``); everything else mirrors the builder state. An
    open scope raises SemanticError (OpenScope), as in ``generate``."""
    processors = []
    for proc in solution.processors():
        proc.validate_complete()
        processors.append(proc.to_doc())
    selectors = []
    for sel in solution.selectors:
        selectors.append(
            {
                "name": sel.name,
                "stack": sel.stack.value,
                "criteria": [
                    {"field": c.field, **uvalue_doc(c.value)} for c in sel.criteria
                ],
                "lookahead": None if sel.lookahead is None else sel.lookahead.name,
                "processor": sel.processor.name,
            }
        )
    return {
        "version": 1,
        "template": TEMPLATE,
        "layouts": [
            {
                "name": layout.name,
                "fields": [{"name": f.name, "width": f.width.bits} for f in layout.fields],
            }
            for layout in solution.layouts()
        ],
        "processors": processors,
        "selectors": selectors,
    }


class _at:
    """Wrap builder exceptions with the JSON path of the current node."""

    __slots__ = ("path",)

    def __init__(self, path: str) -> None:
        self.path = path

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, error, traceback) -> bool:
        if kind is None or isinstance(error, (DocSemanticError, DocError)):
            return False
        if isinstance(error, SemanticError):
            raise DocSemanticError(self.path, error.kind.value, error.message) from None
        if isinstance(error, FlowgenError):
            raise DocSemanticError(self.path, type(error).__name__, str(error)) from None
        if isinstance(error, ValueError):
            raise DocSemanticError(self.path, "WidthMismatch", str(error)) from None
        return False


def _known(table: dict, name: str, path: str, what: str):
    """``table[name]``, or UndeclaredName at ``path``."""
    if name not in table:
        raise DocSemanticError(path, "UndeclaredName", f"unknown {what} {name!r}")
    return table[name]


def _new_name(table: dict, name: str, path: str, what: str) -> str:
    """``name``, or DuplicateName at ``path`` if ``table`` already has it."""
    if name in table:
        raise DocSemanticError(path, "DuplicateName", f"{what} {name!r} declared twice")
    return name


# The replay's text for what the program schema refuses; the schema's own error is reported.
_NOT_A_PROGRAM = "is not valid under the program schema"


@lru_cache(maxsize=None)
def _program_reader():
    """``replay(doc)``: the Solution of program document ``doc``, rebuilt
    through the builder API; the first refusal raises.

    The replay checks, as read from ``program.schema.json``, only the
    rules that no builder call sees: each node is an object or array as
    its schema says, with only its allowed keys (a plain command's from
    its class's roles in ``OPS``); the version and template consts; a bool
    local's ``bool: true`` and width 8; a boolean ``truncate_payload``; an
    operand of at most one key; ordinals that are exactly ints, a
    command's at least the minimum. Every other rule is left to the
    builder call that takes the value as read: a declared name's pattern
    to ``check_identifier``, the width and stack enums to ``UWidth`` and
    ``ProtocolStack``, the value, initial, capacity and criterion bounds
    to ``UValue`` and ``RingBufferDecl``, both minItems to
    ``HeaderLayout`` and ``new_flow_selector``, a required key to the
    ``KeyError`` or missing argument its absence raises, and a PLAIN or
    enum command field (``Forward``'s port, the ``Hint`` values) to its
    command class. Whatever the replay raises, ``solution_from_doc``
    reports the schema's error first. A reference, a criterion's field
    included, resolves only to a declared name or a standard header
    field."""
    schema = load_schema("program")
    top, defs = schema["properties"], schema["$defs"]
    top_keys = frozenset(top)
    allowed = {key: frozenset(node.get("properties", ())) for key, node in defs.items()}

    version, templates = (top["version"]["const"],), top["template"]["enum"]
    flag = (defs["local"]["properties"]["bool"]["const"],)
    flag_width = (defs["local"]["then"]["properties"]["width"]["const"],)
    operand_most = defs["operand"]["maxProperties"]
    command = defs["command"]
    ordinal_least = command["properties"]["ordinal"]["minimum"]
    # The allowed keys of each op of the schema's enum: a plain op's from
    # its class's roles, a scope's from its branch of the schema.
    branches = {m["if"]["properties"]["op"].get("const"): m["then"] for m in command["allOf"]}
    op_keys = {
        op: allowed["command"] | frozenset(
            (key for key, _ in OPS[op].roles) if op in OPS else branches[op]["properties"])
        for op in command["properties"]["op"]["enum"]
    }
    allowed["case"] = frozenset(branches["switch"]["properties"]["cases"]["items"]["properties"])

    def refuse(path: str):
        raise DocError(path, _NOT_A_PROGRAM)

    def node(x, keys: frozenset, path: str) -> dict:
        if not isinstance(x, dict) or not x.keys() <= keys:
            refuse(path)
        return x

    def array(x, path: str) -> list:
        if not isinstance(x, list):
            refuse(path)
        return x

    def uvalue(d, path: str) -> UValue:
        node(d, allowed["uvalue"], path)
        return UValue(d["width"], d["value"])

    def operand(proc: FlowProcessor, d, path: str):
        if len(node(d, allowed["operand"], path)) > operand_most:
            refuse(path)
        return proc.var(d["var"]) if "var" in d else uvalue(d["const"], path)

    def field(proc: FlowProcessor, role, x, path: str):
        """A plain command's field from its document form, names resolved
        in ``proc``: the inverse of ``flow_ast._field_doc``."""
        if role is TARGET:
            return proc.var(x)
        if role is CONST:
            return uvalue(x, path)
        if role is OPERAND:
            return operand(proc, x, path)
        return x if role is RING or role is PLAIN else role(x)

    def replay_command(proc: FlowProcessor, block, cdoc, site: str):
        """Replay one command doc; returns the block for the next command."""
        op = cdoc.get("op") if isinstance(cdoc, dict) else None
        keys = op_keys.get(op) if isinstance(op, str) else None
        if keys is None or not cdoc.keys() <= keys:
            refuse(site)
        ordinal = cdoc.get("ordinal", 0)  # informational, but typed
        if type(ordinal) is not int or ordinal < ordinal_least:
            refuse(site)
        cls = OPS.get(op)
        if cls is not None:
            with _at(site):
                return block.add(cls(**{
                    key: field(proc, role, cdoc[key], site)
                    for key, role in cls.roles if key in cdoc
                }))
        end, orelse = cdoc.get("end_ordinal", 0), cdoc.get("else_ordinal")
        if type(end) is not int or orelse is not None and type(orelse) is not int:
            refuse(site)
        if op == "if":
            with _at(site):
                inner = block.If(proc.var(cdoc["cond"]))
            replay_body(proc, inner, cdoc["then"], site + ".then")
            if cdoc.get("else") is not None:
                with _at(site):
                    inner = inner.Else()
                replay_body(proc, inner, cdoc["else"], site + ".else")
            with _at(site):
                return inner.EndIf()
        if op == "switch":
            with _at(site):
                inner = block.Switch(operand(proc, cdoc["selector"], site))
            for k, case in enumerate(array(cdoc["cases"], site)):
                case_site = f"{site}.cases[{k}]"
                if type(node(case, allowed["case"], case_site).get("ordinal", 0)) is not int:
                    refuse(case_site)
                with _at(case_site):
                    inner = inner.Case(uvalue(case["value"], case_site))
                replay_body(proc, inner, case["body"], case_site + ".body")
            with _at(site):
                return inner.EndSwitch()
        with _at(site):  # atomic
            inner = block.Atomic()
        replay_body(proc, inner, cdoc["body"], site + ".body")
        with _at(site):
            return inner.EndAtomic()

    def replay_body(proc: FlowProcessor, block, body, path: str):
        for j, cdoc in enumerate(array(body, path)):
            block = replay_command(proc, block, cdoc, f"{path}[{j}]")
        return block

    def local_decl(d, path: str):
        if "bool" not in node(d, allowed["local"], path):
            return local(d["name"], d["width"])
        if not (_in(flag, d["bool"]) and _in(flag_width, d["width"])):
            refuse(path)
        return bool_local(d["name"])

    def replay_processor(pdoc: dict, layouts: dict, path: str) -> FlowProcessor:
        output, truncate = pdoc.get("output"), pdoc.get("truncate_payload", False)
        if not isinstance(truncate, bool):
            refuse(path)
        with _at(path):
            locals_ = [local_decl(d, path) for d in array(pdoc.get("locals", []), path)]
            shared = [
                SharedVariableDecl(node(d, allowed["shared"], path)["name"], d["width"],
                                   UValue(d["width"], d["initial"]))
                for d in array(pdoc.get("shared", []), path)
            ]
            rings = [
                RingBufferDecl(node(d, allowed["ring"], path)["name"], d["width"], d["capacity"])
                for d in array(pdoc.get("rings", []), path)
            ]
            proc = new_flow_processor(
                pdoc["name"], _known(layouts, pdoc["input"], path, "layout"),
                _known(layouts, output, path, "layout") if output is not None else None,
                locals_, shared, rings, truncate,
            )
        replay_body(proc, proc.body, pdoc["body"], f"{path}.body")
        with _at(path):
            proc.validate_complete()
        return proc

    def replay(doc) -> Solution:
        node(doc, top_keys, "$")
        if not (_in(version, doc["version"]) and _in(templates, doc["template"])):
            refuse("$")
        layouts: dict[str, HeaderLayout] = {}
        for i, ldoc in enumerate(array(doc["layouts"], "layouts")):
            path = f"layouts[{i}]"
            lname = _new_name(layouts, node(ldoc, allowed["layout"], path)["name"], path, "layout")
            fields = array(ldoc["fields"], path)
            with _at(path):
                layouts[lname] = HeaderLayout(lname, [
                    FieldDecl(node(f, allowed["field"], path)["name"], f["width"])
                    for f in fields
                ])
        processors: dict[str, FlowProcessor] = {}
        for i, pdoc in enumerate(array(doc["processors"], "processors")):
            path = f"processors[{i}]"
            pname = node(pdoc, allowed["processor"], path)["name"]
            processors[_new_name(processors, pname, path, "processor")] = replay_processor(
                pdoc, layouts, path)
        selectors = []
        for i, sdoc in enumerate(array(doc["selectors"], "selectors")):
            path = f"selectors[{i}]"
            processor = _known(processors, node(sdoc, allowed["selector"], path)["processor"],
                               path, "processor")
            lookahead = sdoc.get("lookahead")
            if lookahead is not None:
                lookahead = _known(layouts, lookahead, path, "layout")
            stack = ProtocolStack(sdoc["stack"])
            criteria = []
            for j, cdoc in enumerate(array(sdoc["criteria"], path)):
                site = f"{path}.criteria[{j}]"
                field = node(cdoc, allowed["criterion"], site)["field"]
                with _at(site):
                    criterion = Criterion(field, UValue(cdoc["width"], cdoc["value"]))
                    check_criterion(stack, criterion, lookahead)
                criteria.append(criterion)
            with _at(path):
                selectors.append(new_flow_selector(
                    sdoc["name"], stack, criteria, processor, lookahead=lookahead))
        with _at("selectors"):
            return Solution(selectors)

    return replay


def solution_from_doc(doc) -> Solution:
    """Rebuild the Solution by replaying the document through the builder
    API, which with the replay's own checks enforces the program schema,
    so that a valid document is walked once. When the replay refuses,
    the whole document is checked against the schema first: a schema error
    anywhere is reported before the replay's own. Stored ordinals are
    informational and ignored; the replay assigns the canonical ones."""
    try:
        return _program_reader()(doc)
    except Exception:  # a malformed node can make the builder raise anything
        validate_program_doc(doc)  # a schema error anywhere is reported first
        raise


def load_program(path) -> Solution:
    """Read, validate, and replay a program file."""
    return solution_from_doc(load_json(path))


def load_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as e:
        raise DocError("$", f"not UTF-8 text: {e}") from None
    except json.JSONDecodeError as e:
        raise DocError("$", f"not valid JSON: {e}") from None
    except ValueError as e:  # an integer literal longer than int() converts
        raise DocError("$", f"a number is too long to read: {e}") from None
    except RecursionError:
        raise DocError("$", "nested too deeply to read") from None


# trace_doc's public names, also looked up here (PEP 562).
_TRACE_DOC_NAMES = ("parse_field_value", "stream_trace", "trace_from_doc", "load_trace",
                    "result_to_doc", "results_to_doc", "dumps_results", "iter_results_text")


def __getattr__(name: str):
    if name not in _TRACE_DOC_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import trace_doc

    return getattr(trace_doc, name)
