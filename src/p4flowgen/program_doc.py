"""JSON document formats: programs, packet traces, and result dumps.

A program document is the declarative twin of the builder API. Loading
one replays every command through the builder, so each semantic check
fires exactly as it would in a script, and the diagnostic carries the
JSON path of the offending node (``processors[0].body[3]``) instead of
a call ordinal.

Before replay, a document is checked against its shipped JSON Schema.
Each schema is compiled once per process, on first use, into a tree of
closures (``compile_schema``) that return the first failure they meet,
which is worded, only then, as a ``DocError`` with its JSON path. Only
JSON integers are integers. A trace is read in one pass: the packet
reader checks each packet as it builds it, and only a trace it refuses
gets the schema check, whose error, if any, is the one reported.

Every document the package writes has the bytes of
``json.dumps(doc, indent=2)`` plus a newline. ``dumps_doc`` is that
expression; ``simulate`` results go through ``iter_results_text``,
which writes the same bytes as ``dumps_doc(results_to_doc(...))``
straight from the SimResults, one result at a time.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from .core_model import (
    HEADER_FIELD_BITS,
    TEMPLATE,
    FieldDecl,
    HeaderLayout,
    RingBufferDecl,
    SharedVariableDecl,
    UValue,
    UWidth,
)
from .errors import DocError, FlowgenError
from .flow_ast import (
    OPS,
    FlowProcessor,
    SemanticError,
    bool_local,
    field_from_doc,
    local,
    new_flow_processor,
    operand_from_doc,
    uvalue_doc,
    uvalue_from_doc,
)
from .selector import Criterion, ProtocolStack, Solution, check_criterion, new_flow_selector

if TYPE_CHECKING:  # importing these at run time would load them for ``check``
    from .packet import SimPacket
    from .simulator import SimResult


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


# -- schemas: compiled once into closures --------------------------------

# Keywords with no bearing on validity.
_ANNOTATIONS = frozenset({"$schema", "$id", "$defs", "title", "description"})
# Tried in this order within each rank (``_ranked``), so the cheap type test runs first.
_KEYWORDS = (
    "type", "const", "enum", "pattern", "minimum", "maximum", "minItems",
    "required", "minProperties", "maxProperties", "properties",
    "additionalProperties", "items", "$ref", "allOf", "oneOf", "not", "if",
)
_IMPLEMENTED = _ANNOTATIONS | set(_KEYWORDS) | {"then"}
# Keywords that apply a subschema to the value itself, and to its members.
_IN_PLACE = frozenset({"$ref", "allOf", "oneOf", "not", "if"})
_MEMBERS = frozenset({"properties", "additionalProperties", "items"})


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


# The class of each type: an integer is exactly an int, not ``5.0`` or ``True``.
_TYPES = {
    "object": dict, "array": list, "string": str, "integer": int, "boolean": bool,
    "null": type(None),
}


def _one_of_values(values, failure):
    """The check of a const or enum: membership with JSON equality, as
    jsonschema's const and enum use it (``1 == 1.0``, but a boolean
    equals only a boolean), and ``failure(x)`` for a value outside it."""
    if any(isinstance(v, (list, dict)) for v in values):
        raise ValueError(f"const/enum {values!r} not implemented")
    bools = frozenset(v for v in values if isinstance(v, bool))
    others = frozenset(v for v in values if not isinstance(v, bool))
    return lambda x: None if (x in bools if isinstance(x, bool) else (
        not isinstance(x, (list, dict)) and x in others
    )) else failure(x)


def _first(tests):
    """One check that runs ``tests`` in turn and returns the first failure."""

    def check(x):
        for test in tests:
            failure = test(x)
            if failure is not None:
                return failure
        return None

    return tests[0] if len(tests) == 1 else check


def _under(key, failure):
    """A member's ``failure`` as its container sees it, at ``key``."""
    path, name, say, x = failure
    return (key, *path), name, say, x


def _tagged_union(members):
    """``(key, {tag: [then, ...]})`` when every member of the allOf
    ``members`` is exactly ``{"if": {"properties": {key: TEST}}, "then":
    THEN}``, one key for all, with TEST ``{"const": tag}`` or ``{"enum":
    [tag, ...]}`` and every tag a str; each tag lists the THENs of the
    members that name it, in order. None for any other allOf."""
    key, table = None, {}
    for member in members:
        plain = isinstance(member, dict) and member.keys() == {"if", "then"}
        cond = member["if"] if plain else None
        props = cond.get("properties") if isinstance(cond, dict) and len(cond) == 1 else None
        if not isinstance(props, dict) or len(props) != 1:
            return None
        (name, test), = props.items()
        if not isinstance(test, dict) or len(test) != 1 or key not in (None, name):
            return None
        (word, tags), = test.items()
        tags = [tags] if word == "const" else tags if word == "enum" else None
        if not isinstance(tags, list) or not all(isinstance(tag, str) for tag in tags):
            return None
        key = name
        for tag in tags:
            table.setdefault(tag, []).append(member["then"])
    return None if key is None else (key, table)


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


def _json_path(parts: tuple) -> str:
    """``("a", 0, "b")`` -> ``a[0].b``; the document itself is ``$``."""
    text = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in parts)
    return text[1:] if text.startswith(".") else "$" + text


@lru_cache(maxsize=256)
def _ranked(keys: tuple, false: tuple) -> tuple:
    """The keywords of a schema node with ``keys`` in diagnosis order: the
    node's own keywords, then those that apply a subschema to the value
    itself, then those that apply one to its members, each rank in
    ``_KEYWORDS`` order. A member keyword in ``false``, whose value is
    false, ranks as the node's own. Raises ValueError on a keyword that
    is not implemented."""
    unknown = set(keys) - _IMPLEMENTED
    if unknown:
        raise ValueError(f"schema keywords not implemented: {sorted(unknown)}")
    rank = lambda k: 1 if k in _IN_PLACE else 2 if k in _MEMBERS and k not in false else 0
    return tuple(sorted((k for k in _KEYWORDS if k in keys), key=rank))


def compile_schema(root: dict):
    """Compile a JSON Schema (draft 2020-12) into one function
    ``doc -> DocError | None``: why ``doc`` is rejected, or None when it
    is valid. Integers are strict (see ``_TYPES``).

    Each keyword is compiled once into a check that returns None when the
    value satisfies it, or its first failure ``(path, keyword, say, x)``:
    the path of the failing value ``x`` relative to the checked one, the
    keyword that refused it, and ``say``, which words the refusal as
    ``say(x)`` only when it is reported, so that the failures a valid
    document meets inside oneOf, not and if cost no text. A schema node
    tries its keywords ranked by ``_ranked`` (the node's own keywords
    first), in ``_KEYWORDS`` order within a rank, and returns the first
    failure; a keyword that applies a subschema to a member puts the
    member's key or index in front of its path.

    An allOf that ``_tagged_union`` reads as a union tagged by key K
    (each member ``{"if": {"properties": {K: {"const"|"enum": ...}}},
    "then": ...}`` on str tags) is compiled to one lookup of ``x[K]``;
    without K, or on a non-object, every member runs. Acceptance and
    every diagnostic are those of the plain allOf, whose first failing
    member is the first failing then that the tag selects.

    Only the keywords in ``_IMPLEMENTED`` are known. Any other keyword,
    a list of types, a list or object in const/enum, and a ``$ref``
    outside ``#/$defs/`` raise ValueError, so a schema edit cannot
    silently weaken validation."""
    compiled: dict[int, object] = {}

    def resolve(ref: str) -> dict:
        name = ref.removeprefix("#/$defs/")
        if name == ref or name not in root.get("$defs", {}):
            raise ValueError(f"unsupported $ref {ref!r}")
        return root["$defs"][name]

    def check(schema):
        key = id(schema)
        if key not in compiled:
            compiled[key] = None  # a $ref cycle reaches this before it is built
            compiled[key] = build(schema)
        return compiled[key] or (lambda x: compiled[key](x))

    def build(schema):
        if schema is True:
            return lambda x: None
        if schema is False:
            say = lambda x: f"{_brief(x)} is not allowed here"
            return lambda x: ((), "false", say, x)
        false = tuple(k for k in _MEMBERS if schema.get(k) is False)
        return _first([keyword(k, schema[k], schema) for k in _ranked(tuple(schema), false)])

    def keyword(name: str, value, schema):
        fail = lambda x: ((), name, say, x)  # each keyword binds its say
        if name == "type":
            if not isinstance(value, str) or value not in _TYPES:
                raise ValueError(f"type {value!r} not implemented")
            say = lambda x: f"{_brief(x)} is not of type {value!r}"
            cls = _TYPES[value]
            if cls is int:
                return lambda x: None if type(x) is int else fail(x)
            return lambda x: None if isinstance(x, cls) else fail(x)
        if name == "const":
            say = lambda x: f"{value!r} was expected, not {_brief(x)}"
            return _one_of_values([value], fail)
        if name == "enum":
            say = lambda x: f"{_brief(x)} is not one of {value!r}"
            return _one_of_values(value, fail)
        if name == "pattern":
            search = re.compile(value).search
            say = lambda x: f"{_brief(x)} does not match the pattern {value!r}"
            return lambda x: None if not isinstance(x, str) or search(x) else fail(x)
        if name == "minimum":
            say = lambda x: f"{_repr(x)} is less than the minimum of {value!r}"
            return lambda x: None if not _is_number(x) or x >= value else fail(x)
        if name == "maximum":
            say = lambda x: f"{_repr(x)} is greater than the maximum of {value!r}"
            return lambda x: None if not _is_number(x) or x <= value else fail(x)
        if name == "minItems":
            say = lambda x: f"has {len(x)} items, fewer than the minItems of {value}"
            return lambda x: None if not isinstance(x, list) or len(x) >= value else fail(x)
        if name == "required":
            needed = frozenset(value)
            say = lambda x: f"{next(k for k in value if k not in x)!r} is a required property"
            return lambda x: None if not isinstance(x, dict) or x.keys() >= needed else fail(x)
        if name == "minProperties":
            say = lambda x: f"has {len(x)} properties, fewer than the minProperties of {value}"
            return lambda x: None if not isinstance(x, dict) or len(x) >= value else fail(x)
        if name == "maxProperties":
            say = lambda x: f"has {len(x)} properties, more than the maxProperties of {value}"
            return lambda x: None if not isinstance(x, dict) or len(x) <= value else fail(x)
        if name == "properties":
            subs = [(k, check(s)) for k, s in value.items()]

            def properties(x):
                if isinstance(x, dict):
                    for k, sub in subs:
                        if k in x and (failure := sub(x[k])) is not None:
                            return _under(k, failure)
                return None

            return properties
        if name == "additionalProperties":
            known = frozenset(schema.get("properties", ()))
            if value is False:
                say = lambda x: "additional properties are not allowed: " + ", ".join(
                    repr(k) for k in x if k not in known
                )
                return lambda x: None if not isinstance(x, dict) or x.keys() <= known else fail(x)
            sub = check(value)

            def additional(x):
                if isinstance(x, dict):
                    for k in x:  # in document order
                        if k not in known and (failure := sub(x[k])) is not None:
                            return _under(k, failure)
                return None

            return additional
        if name == "items":
            sub = check(value)

            def items(x):
                if isinstance(x, list) and any(map(sub, x)):  # a failure is truthy
                    return next(_under(i, f) for i, f in enumerate(map(sub, x)) if f)
                return None

            return items
        if name == "$ref":
            return check(resolve(value))
        if name == "allOf":
            every = _first([check(s) for s in value])
            union = _tagged_union(value)
            if union is None:
                return every
            tag_key, thens = union
            table = {tag: _first([check(s) for s in ss]) for tag, ss in thens.items()}

            def dispatch(x):
                if not isinstance(x, dict) or tag_key not in x:
                    return every(x)  # each if holds vacuously
                tag = x[tag_key]
                then = table.get(tag) if isinstance(tag, str) else None
                return None if then is None else then(x)

            return dispatch
        if name == "oneOf":
            subs = [check(s) for s in value]

            def one_of(x):
                found = [sub(x) for sub in subs]
                passed = found.count(None)
                if passed == 1:
                    return None
                if passed:
                    return (), name, many(passed), x
                # The deepest failure of one branch, a type mismatch last;
                # a tie is reported at the oneOf itself.
                ranks = [(len(f[0]), f[1] != "type") for f in found]
                best = max(ranks)
                return found[ranks.index(best)] if ranks.count(best) == 1 else fail(x)

            say = lambda x: f"{_brief(x)} is not valid under any of the oneOf schemas"
            many = lambda n: lambda x: f"{_brief(x)} is valid under {n} of the oneOf schemas, not one"
            return one_of
        if name == "not":
            sub = check(value)
            say = lambda x: f"{_brief(x)} must not be valid under {value!r}"
            return lambda x: None if sub(x) is not None else fail(x)
        cond, then = check(value), check(schema.get("then", True))  # "if"
        return lambda x: None if cond(x) is not None else then(x)

    valid = check(root)

    def rejection(doc):
        failure = valid(doc)
        if failure is None:
            return None
        path, _, say, x = failure
        return DocError(_json_path(path), say(x))

    return rejection


@lru_cache(maxsize=None)
def schema_check(name: str):
    """The shipped schema ``name``, compiled: ``doc -> DocError | None``."""
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
        if kind is None or isinstance(error, DocSemanticError):
            return False
        if isinstance(error, SemanticError):
            raise DocSemanticError(self.path, error.kind.value, error.message) from None
        if isinstance(error, FlowgenError):
            raise DocSemanticError(self.path, type(error).__name__, str(error)) from None
        if isinstance(error, ValueError):
            raise DocSemanticError(self.path, "WidthMismatch", str(error)) from None
        return False


def _replay_command(proc: FlowProcessor, block, cdoc: dict, site: str):
    """Replay one command doc; returns the block for the next command."""
    op = cdoc["op"]
    if op == "if":
        with _at(site):
            inner = block.If(proc.var(cdoc["cond"]))
        _replay_body(proc, inner, cdoc["then"], site + ".then")
        if cdoc.get("else") is not None:
            with _at(site):
                inner = inner.Else()
            _replay_body(proc, inner, cdoc["else"], site + ".else")
        with _at(site):
            return inner.EndIf()
    if op == "switch":
        with _at(site):
            inner = block.Switch(operand_from_doc(proc, cdoc["selector"]))
        for k, case in enumerate(cdoc["cases"]):
            case_site = f"{site}.cases[{k}]"
            with _at(case_site):
                inner = inner.Case(uvalue_from_doc(case["value"]))
            _replay_body(proc, inner, case["body"], case_site + ".body")
        with _at(site):
            return inner.EndSwitch()
    if op == "atomic":
        with _at(site):
            inner = block.Atomic()
        _replay_body(proc, inner, cdoc["body"], site + ".body")
        with _at(site):
            return inner.EndAtomic()

    cls = OPS.get(op)
    if cls is None:
        raise DocError(site, f"unknown op {op!r}")
    with _at(site):
        return block.add(cls(**{
            name: field_from_doc(proc, role, cdoc[name]) for name, role in cls.roles if name in cdoc
        }))


def _replay_body(proc: FlowProcessor, block, body: list, path: str):
    for j, cdoc in enumerate(body):
        block = _replay_command(proc, block, cdoc, f"{path}[{j}]")
    return block


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


def _replay_processor(pdoc: dict, layouts: dict, path: str) -> FlowProcessor:
    with _at(path):
        locals_ = [
            bool_local(d["name"])
            if d.get("bool")
            else local(d["name"], UWidth(d["width"]))
            for d in pdoc.get("locals", [])
        ]
        shared = [
            SharedVariableDecl(
                d["name"],
                UWidth(d["width"]),
                UValue(UWidth(d["width"]), d["initial"]),
            )
            for d in pdoc.get("shared", [])
        ]
        rings = [
            RingBufferDecl(d["name"], UWidth(d["width"]), d["capacity"])
            for d in pdoc.get("rings", [])
        ]
        output = pdoc.get("output")
        proc = new_flow_processor(
            pdoc["name"],
            input=_known(layouts, pdoc["input"], path, "layout"),
            output=_known(layouts, output, path, "layout") if output else None,
            locals=locals_,
            shared=shared,
            rings=rings,
            truncate_payload=pdoc.get("truncate_payload", False),
        )
    _replay_body(proc, proc.body, pdoc["body"], f"{path}.body")
    with _at(path):
        proc.validate_complete()
    return proc


def solution_from_doc(doc) -> Solution:
    """Validate, then rebuild the Solution by replaying the document
    through the builder API. Stored ordinals are informational and
    ignored; the replay assigns the canonical ones."""
    validate_program_doc(doc)
    layouts: dict[str, HeaderLayout] = {}
    for i, ldoc in enumerate(doc["layouts"]):
        path = f"layouts[{i}]"
        name = _new_name(layouts, ldoc["name"], path, "layout")
        with _at(path):
            layouts[name] = HeaderLayout(
                ldoc["name"],
                [FieldDecl(f["name"], UWidth(f["width"])) for f in ldoc["fields"]],
            )
    processors: dict[str, FlowProcessor] = {}
    for i, pdoc in enumerate(doc["processors"]):
        path = f"processors[{i}]"
        name = _new_name(processors, pdoc["name"], path, "processor")
        processors[name] = _replay_processor(pdoc, layouts, path)
    selectors = []
    for i, sdoc in enumerate(doc["selectors"]):
        path = f"selectors[{i}]"
        processor = _known(processors, sdoc["processor"], path, "processor")
        lookahead = None
        if sdoc.get("lookahead"):
            lookahead = _known(layouts, sdoc["lookahead"], path, "layout")
        stack = ProtocolStack(sdoc["stack"])
        criteria = []
        for j, cdoc in enumerate(sdoc["criteria"]):
            with _at(f"{path}.criteria[{j}]"):
                criterion = Criterion(cdoc["field"], uvalue_from_doc(cdoc))
                check_criterion(stack, criterion, lookahead)
            criteria.append(criterion)
        with _at(path):
            selectors.append(
                new_flow_selector(
                    sdoc["name"],
                    stack,
                    criteria,
                    processor,
                    lookahead=lookahead,
                )
            )
    with _at("selectors"):
        return Solution(selectors)


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


# -- traces: packets in, results out -----------------------------------------

# The reader's text for what the trace schema refuses; the schema's own error is reported.
_NOT_A_TRACE = "is not valid under the trace schema"


def parse_field_value(text: str) -> int:
    """Decimal by default, hex with an 0x prefix. A decimal with more
    significant digits than int() converts (``sys.get_int_max_str_digits``)
    raises ValueError; leading zeros do not count."""
    if text.startswith("0x"):
        return int(text, 16)
    try:
        return int(text, 10)
    except ValueError:
        return int(text.lstrip("0") or "0", 10)


def _packet_reader():
    """``read(pdoc, path)``: the SimPacket of packet document ``pdoc``,
    checked as it is built against the rules of ``trace.schema.json`` and
    ``HEADER_FIELD_BITS``, in that table's header order; the first refusal
    raises a ``DocError``. It loads the packet module, which ``check`` and
    ``generate`` never need, and makes the default header maps once per
    (transport header, payload length); each packet gets its own copies."""
    from .packet import SimPacket, make_tcp_packet, make_udp_packet

    schema = load_schema("trace")
    packet = schema["$defs"]["packet"]
    props = packet["properties"]
    (payload_key,) = packet["required"]
    (port_key,) = props.keys() - HEADER_FIELD_BITS.keys() - {payload_key}
    first, second = (branch["required"][0] for branch in packet["oneOf"])
    port_lo, port_hi = props[port_key]["minimum"], props[port_key]["maximum"]
    payload_ok = re.compile(props[payload_key]["pattern"]).search
    value_ok = re.compile(schema["$defs"]["fieldvalue"]["pattern"]).search
    defaults: dict[tuple[str, int], dict] = {}

    def read(pdoc, path: str) -> SimPacket:
        if not isinstance(pdoc, dict) or not pdoc.keys() <= props.keys():
            raise DocError(path, _NOT_A_TRACE)
        text, port = pdoc.get(payload_key), pdoc.get(port_key, 0)
        if (
            not isinstance(text, str)
            or not payload_ok(text)
            or (first in pdoc) is (second in pdoc)  # not exactly one transport group
            or type(port) is not int
            or not port_lo <= port <= port_hi
        ):
            raise DocError(path, _NOT_A_TRACE)
        payload = bytes.fromhex(text)
        l4 = "udp" if "udp" in pdoc else "tcp"
        key = (l4, len(payload))
        maps = defaults.get(key)
        if maps is None:
            base = (make_udp_packet if l4 == "udp" else make_tcp_packet)(0, payload=payload)
            maps = defaults[key] = {
                group: getattr(base, group)
                for group in HEADER_FIELD_BITS
                if getattr(base, group) is not None
            }
        headers = {group: dict(fields) for group, fields in maps.items()}
        for group, fields in headers.items():
            overrides = pdoc.get(group, {})
            if not isinstance(overrides, dict):
                raise DocError(path, _NOT_A_TRACE)
            bits = HEADER_FIELD_BITS[group]
            for name, text in overrides.items():
                if not isinstance(text, str) or not value_ok(text):
                    raise DocError(path, _NOT_A_TRACE)
                width = bits.get(name)
                if width is None:
                    raise DocError(f"{path}.{group}.{name}", f"unknown field {group}.{name}")
                try:
                    value = parse_field_value(text)
                except ValueError:  # thousands of digits
                    value = None
                if value is None or value >> width:
                    # a value too wide for str() is shown as written, cut short
                    shown = _brief(text) if value is None or value.bit_length() > 64 else value
                    raise DocError(
                        f"{path}.{group}.{name}", f"{shown} does not fit in {width} bits"
                    )
                fields[name] = value
        return SimPacket(port, payload=payload, **headers)

    return read


def stream_trace(doc) -> tuple[int, Iterator[SimPacket]]:
    """The seed of trace document ``doc`` and a generator that reads each
    packet only when asked for it, so that a caller running the packets in
    turn holds one at a time. A refused packet ends it with the error of a
    whole-document check: a schema error anywhere first, else the reader's."""
    if _top_level_check()(doc) is not None:
        validate_trace_doc(doc)  # refuses it too, with the whole document's first error
    return doc["seed"], _read_packets(doc)


@lru_cache(maxsize=None)
def _top_level_check():
    """The trace schema without its packet schema, compiled."""
    schema = load_schema("trace")
    packets = {k: v for k, v in schema["properties"]["packets"].items() if k != "items"}
    return compile_schema({**schema, "properties": {**schema["properties"], "packets": packets}})


def _read_packets(doc) -> Iterator[SimPacket]:
    read = _packet_reader()
    for i, pdoc in enumerate(doc["packets"]):
        try:
            packet = read(pdoc, f"packets[{i}]")
        except DocError:
            validate_trace_doc(doc)  # a schema error anywhere is reported first
            raise
        yield packet


def trace_from_doc(doc) -> tuple[int, list[SimPacket]]:
    """The seed and every packet of ``stream_trace``, as a list."""
    seed, packets = stream_trace(doc)
    return seed, list(packets)


def load_trace(path) -> tuple[int, list[SimPacket]]:
    return trace_from_doc(load_json(path))


def result_to_doc(result: SimResult, at: str = "$") -> dict:
    """The results-document form of one result, found at JSON path ``at``.
    A value not exactly of its declared type raises the TypeError that
    ``iter_results_text`` raises, rather than be written (``true`` for a
    bool egress port)."""
    if (misfit := _misfit(result, at)) is not None:
        raise misfit
    packet = result.packet
    doc = {
        "verdict": result.verdict,
        "selector": result.selector,
        "egress_port": result.egress_port,
    }
    for header in HEADER_FIELD_BITS:
        fields = getattr(packet, header)
        if fields is not None:
            doc[header] = {k: str(v) for k, v in fields.items()}
    doc["payload_hex"] = packet.payload.hex()
    doc["trace"] = [
        {
            "ordinal": e.ordinal,
            "kind": e.kind,
            "before": list(e.before),
            "after": list(e.after),
        }
        for e in result.trace
    ]
    if result.error is not None:
        doc["error"] = result.error
    return doc


def results_to_doc(seed: int, results) -> dict:
    if seed.__class__ is not int:
        raise _cannot_write("$.seed", seed)
    return {
        "seed": seed,
        "results": [result_to_doc(r, f"$.results[{i}]") for i, r in enumerate(results)],
    }


# The layout of a results document is fixed, so each depth's indent is a
# constant: results at 2, their fields at 3, header fields and trace
# events at 4, event fields at 5 and event values at 6.
_HEADER_LEADS = tuple((h, f'\n      "{h}": ') for h in HEADER_FIELD_BITS)
# The most entries iter_results_text's memo holds; a full memo is emptied.
# Both bench workloads are written as fast as with 4,096, in a quarter of the memory.
_EVENTS_HELD = 1024


def dumps_results(seed: int, results) -> str:
    """The chunks of ``iter_results_text`` joined."""
    return "".join(iter_results_text(seed, results))


def iter_results_text(seed: int, results) -> Iterator[str]:
    """The text of ``dumps_doc(results_to_doc(seed, results))`` in chunks,
    written straight from the SimResults with no document tree: the head,
    then one chunk per result as ``results`` yields it, then the tail. Only
    the result being written is held, so ``results`` may be a stream.

    Header maps keep their own key order, as ``result_to_doc`` does. A
    header map is one %-format of a template built per key order, a trace
    event one of a template per kind and number of values before and
    after. Templates and texts are memoized; the memo is emptied whenever
    it holds ``_EVENTS_HELD`` entries, so no trace makes it hold more.

    Every field must hold exactly its declared type: an int seed, egress
    port, ordinal, event value and header field value, a str verdict,
    kind and header field name, a tuple of values before and after, a
    str or None selector and error. The first value in writing order
    that holds anything else, a bool or a float included, raises
    TypeError naming its JSON path; the chunks before it have been
    yielded by then.
    """
    if seed.__class__ is not int:
        raise _cannot_write("$.seed", seed)
    # No two kinds of key compare equal: a key order is a tuple of str, a header
    # map (keys, values), an event shape (str, int, int), an event (int, str, ...).
    memo: dict = {}
    yield '{\n  "seed": %d,\n  "results": ' % seed
    lead = "[\n    {"
    for i, r in enumerate(results):
        yield _result_text(r, i, lead, memo)
        lead = ",\n    {"
    yield "[]\n}\n" if lead[0] == "[" else "\n  ]\n}\n"


def _result_text(r: SimResult, i: int, lead: str, memo: dict) -> str:
    """The text of result ``i`` after ``lead``, through the memo of
    ``iter_results_text``. Any unwritable value raises the TypeError of
    ``_misfit``, which names the first in writing order."""
    verdict, selector, egress, error = r.verdict, r.selector, r.egress_port, r.error
    if (
        verdict.__class__ is not str
        or selector is not None and selector.__class__ is not str
        or egress.__class__ is not int
        or error is not None and error.__class__ is not str
    ):
        raise _misfit(r, f"$.results[{i}]")
    parts = [lead, '\n      "verdict": %s,\n      "selector": %s,\n      "egress_port": %d,' % (
        _quote(verdict), "null" if selector is None else _quote(selector), egress)]
    packet = r.packet
    for header, lead in _HEADER_LEADS:
        field_map = getattr(packet, header)
        if field_map is None:
            continue
        keys, values = tuple(field_map), tuple(field_map.values())
        for key in keys:
            if key.__class__ is not str:
                raise _misfit(r, f"$.results[{i}]")
        for value in values:
            if value.__class__ is not int:
                raise _misfit(r, f"$.results[{i}]")
        text = memo.get((keys, values))
        if text is None:
            template = memo.get(keys) or _held(memo, keys, _header_template(keys))
            text = _held(memo, (keys, values), template % values)
        parts += lead, text
    parts += '\n      "payload_hex": "', packet.payload.hex(), '",\n      "trace": '
    events = []
    for event in r.trace:
        ordinal, kind, before, after = event
        if (
            ordinal.__class__ is not int
            or kind.__class__ is not str
            or before.__class__ is not tuple
            or after.__class__ is not tuple
        ):
            raise _misfit(r, f"$.results[{i}]")
        for value in before + after:
            if value.__class__ is not int:
                raise _misfit(r, f"$.results[{i}]")
        text = memo.get(event)
        if text is None:
            shape = (kind, len(before), len(after))
            template = memo.get(shape) or _held(memo, shape, _event_template(*shape))
            text = _held(memo, event, template % (ordinal, *before, *after))
        events.append(text)
    parts += ("[", ",".join(events), "\n      ]") if events else ("[]",)
    if error is not None:
        parts += ',\n      "error": ', _quote(error)
    parts.append("\n    }")
    return "".join(parts)


def _held(memo: dict, key, value):
    """``value``, stored in ``memo`` under ``key``; a full memo is emptied first."""
    if len(memo) >= _EVENTS_HELD:
        memo.clear()
    memo[key] = value
    return value


def _header_template(keys: tuple) -> str:
    """The text of a header map with ``keys``, with a ``%s`` for each value."""
    fields = ",".join("\n        " + _quote(key).replace("%", "%%") + ': "%s"' for key in keys)
    return "{" + fields + "\n      }," if keys else "{},"


def _event_template(kind: str, before: int, after: int) -> str:
    """An event of ``kind``, with a ``%d`` for its ordinal and for each of its values."""
    values = ["[\n            " + ",\n            ".join(["%d"] * n) + "\n          ]"
              if n else "[]" for n in (before, after)]
    return ('\n        {\n          "ordinal": %d,\n          "kind": '
            + _quote(kind).replace("%", "%%") + ',\n          "before": ' + values[0]
            + ',\n          "after": ' + values[1] + "\n        }")


def _cannot_write(path: str, value) -> TypeError:
    return TypeError(f"{path}: cannot write a {type(value).__name__} to a results document")


def _misfit(r: SimResult, at: str) -> TypeError | None:
    """The error for the first value of result ``r``, found at ``at``, in
    writing order that is not exactly of its declared type, or None."""
    for where, value, cls in _typed_values(r):
        if value.__class__ is not cls:
            return _cannot_write(at + where, value)
    return None


def _typed_values(r: SimResult) -> Iterator[tuple]:
    """``(path, value, type)`` for each value of ``r`` in writing order, read
    only up to the first misfit (a before that is not a tuple has no items)."""
    yield ".verdict", r.verdict, str
    if r.selector is not None:
        yield ".selector", r.selector, str
    yield ".egress_port", r.egress_port, int
    for header in HEADER_FIELD_BITS:
        for key, value in (getattr(r.packet, header) or {}).items():
            yield f".{header} (a field name)", key, str
            yield f".{header}.{key}", value, int
    for j, (ordinal, kind, before, after) in enumerate(r.trace):
        yield f".trace[{j}].ordinal", ordinal, int
        yield f".trace[{j}].kind", kind, str
        for name, seq in (("before", before), ("after", after)):
            yield f".trace[{j}].{name}", seq, tuple
            yield from ((f".trace[{j}].{name}[{k}]", v, int) for k, v in enumerate(seq))
    if r.error is not None:
        yield ".error", r.error, str
