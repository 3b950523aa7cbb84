"""JSON document formats: programs, packet traces, and result dumps.

A program document is the declarative twin of the builder API. Loading
one replays every command through the builder, so each semantic check
fires exactly as it would in a script, and the diagnostic carries the
JSON path of the offending node (``processors[0].body[3]``) instead of
a call ordinal.

Before replay, a document is checked against its shipped JSON Schema.
Each schema is compiled once per process, on first use, into a tree of
closures (``compile_schema``) that answer valid or invalid; only when
they reject a document do the same closures find the one failure to
report, worded as a ``DocError`` with its JSON path. Only JSON integers
are integers.

Every document the package writes has the bytes of
``json.dumps(doc, indent=2)`` plus a newline. ``dumps_doc`` is that
expression; ``simulate`` results go through ``iter_results_text``,
which writes the same bytes as ``dumps_doc(results_to_doc(...))``
straight from the SimResults, one result at a time.
"""

from __future__ import annotations

import enum
import json
import re
from contextlib import contextmanager
from dataclasses import fields
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
    OPERAND_FIELDS,
    OPS,
    FlowProcessor,
    SemanticError,
    bool_local,
    local,
    new_flow_processor,
    uvalue_doc,
)
from .packet import SimPacket, make_tcp_packet, make_udp_packet
from .selector import Criterion, ProtocolStack, Solution, check_criterion, new_flow_selector

if TYPE_CHECKING:  # importing the simulator at run time would load it for ``check``
    from .simulator import SimResult, TraceEvent


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
# Applied in this order, so the cheap type test runs first and
# unevaluatedProperties runs after every keyword whose annotations it reads.
_KEYWORDS = (
    "type", "const", "enum", "pattern", "minimum", "maximum", "minItems",
    "required", "minProperties", "maxProperties", "properties",
    "additionalProperties", "items", "$ref", "allOf", "oneOf", "not", "if",
    "unevaluatedProperties",
)
_IMPLEMENTED = _ANNOTATIONS | set(_KEYWORDS) | {"then"}
# Keywords that apply a subschema to the value itself, and to its members.
_IN_PLACE = frozenset({"$ref", "allOf", "oneOf", "not", "if"})
_MEMBERS = frozenset({"properties", "additionalProperties", "items"})


def _is_integer(x) -> bool:
    """A JSON integer: ``5.0`` and ``True`` are not one."""
    return type(x) is int


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "integer": _is_integer,
    "boolean": lambda x: isinstance(x, bool),
    "null": lambda x: x is None,
}


def _one_of_values(values):
    """Membership with JSON equality, as jsonschema's const and enum use
    it: ``1 == 1.0``, but a boolean equals only a boolean."""
    if any(isinstance(v, (list, dict)) for v in values):
        raise ValueError(f"const/enum {values!r} not implemented")
    bools = frozenset(v for v in values if isinstance(v, bool))
    others = frozenset(v for v in values if not isinstance(v, bool))
    return lambda x: x in bools if isinstance(x, bool) else (
        not isinstance(x, (list, dict)) and x in others
    )


def _all(tests):
    def check(x):
        for test in tests:
            if not test(x):
                return False
        return True

    return tests[0] if len(tests) == 1 else check


def _brief(x) -> str:
    """``repr(x)``, cut short for a message."""
    text = repr(x)
    return text if len(text) <= 60 else text[:57] + "..."


def _json_path(parts: tuple) -> str:
    """``("a", 0, "b")`` -> ``a[0].b``; the document itself is ``$``."""
    text = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in parts)
    return text[1:] if text.startswith(".") else "$" + text


def _rank(name: str, value) -> int:
    """Diagnosis order of a keyword: the node's own keywords, then those
    that apply a subschema to the value itself, then those that apply one
    to its members, then unevaluatedProperties."""
    if name == "unevaluatedProperties":
        return 3
    if name in _IN_PLACE:
        return 1
    return 2 if name in _MEMBERS and value is not False else 0


def compile_schema(root: dict):
    """Compile a JSON Schema (draft 2020-12) into one function
    ``doc -> DocError | None``: why ``doc`` is rejected, or None when it
    is valid. Integers are strict (see ``_is_integer``).

    A valid document only runs a tree of predicates compiled once, one
    per keyword. Only after they reject a document is the rejection
    worded, by ``why``, with the same predicates: at each schema node it
    takes the first failing keyword in ``_KEYWORDS`` order, ranked by
    ``_rank`` (the node's own keywords first, unevaluatedProperties
    last), and follows a keyword that applies a subschema down into its
    first failing member.

    Only the keywords in ``_IMPLEMENTED`` are known. Any other keyword,
    a list of types, a list or object in const/enum, and a ``$ref``
    outside ``#/$defs/`` raise ValueError, so a schema edit cannot
    silently weaken validation."""
    compiled: dict[int, object] = {}
    tests: dict[int, list] = {}  # id(schema) -> [(keyword, predicate)]
    evaluations: dict[int, object] = {}  # id(schema) -> its unevaluatedProperties annotation

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
        if isinstance(schema, bool):
            return lambda x: schema
        unknown = schema.keys() - _IMPLEMENTED
        if unknown:
            raise ValueError(f"schema keywords not implemented: {sorted(unknown)}")
        pairs = tests[id(schema)] = [
            (k, keyword(k, schema[k], schema)) for k in _KEYWORDS if k in schema
        ]
        return _all([test for _, test in pairs] or [lambda x: True])

    def keyword(name: str, value, schema):
        if name == "type":
            if not isinstance(value, str) or value not in _TYPES:
                raise ValueError(f"type {value!r} not implemented")
            return _TYPES[value]
        if name == "const":
            return _one_of_values([value])
        if name == "enum":
            return _one_of_values(value)
        if name == "pattern":
            search = re.compile(value).search
            return lambda x: not isinstance(x, str) or search(x) is not None
        if name == "minimum":
            return lambda x: not _is_number(x) or x >= value
        if name == "maximum":
            return lambda x: not _is_number(x) or x <= value
        if name == "minItems":
            return lambda x: not isinstance(x, list) or len(x) >= value
        if name == "required":
            names = frozenset(value)
            return lambda x: not isinstance(x, dict) or x.keys() >= names
        if name == "minProperties":
            return lambda x: not isinstance(x, dict) or len(x) >= value
        if name == "maxProperties":
            return lambda x: not isinstance(x, dict) or len(x) <= value
        if name == "properties":
            subs = [(k, check(s)) for k, s in value.items()]

            def properties(x):
                if isinstance(x, dict):
                    for k, sub in subs:
                        if k in x and not sub(x[k]):
                            return False
                return True

            return properties
        if name == "additionalProperties":
            known = frozenset(schema.get("properties", ()))
            sub = check(value)
            return lambda x: not isinstance(x, dict) or all(
                sub(x[k]) for k in x.keys() - known
            )
        if name == "items":
            sub = check(value)
            return lambda x: not isinstance(x, list) or all(map(sub, x))
        if name == "$ref":
            return check(resolve(value))
        if name == "allOf":
            return _all([check(s) for s in value])
        if name == "oneOf":
            subs = [check(s) for s in value]
            return lambda x: sum(1 for sub in subs if sub(x)) == 1
        if name == "not":
            sub = check(value)
            return lambda x: not sub(x)
        if name == "if":
            cond, then = check(value), check(schema.get("then", True))
            return lambda x: not cond(x) or then(x)
        if value is not False:
            raise ValueError("only unevaluatedProperties: false is implemented")
        evaluated = evaluations[id(schema)] = annotate(
            {k: v for k, v in schema.items() if k != name}
        )
        return lambda x: not isinstance(x, dict) or x.keys() <= evaluated(x)

    def annotate(schema):
        """``doc -> keys`` that ``schema`` evaluates in an object ``doc``
        already known to be valid against it."""
        if isinstance(schema, bool):
            return lambda x: set()
        if "additionalProperties" in schema or "unevaluatedProperties" in schema:
            return lambda x: set(x)
        parts = []  # (condition or None, annotation)
        if "properties" in schema:
            names = schema["properties"].keys()
            parts.append((None, lambda x: names & x.keys()))
        if "$ref" in schema:
            parts.append((None, annotate(resolve(schema["$ref"]))))
        parts += [(None, annotate(s)) for s in schema.get("allOf", ())]
        parts += [(check(s), annotate(s)) for s in schema.get("oneOf", ())]
        if "if" in schema:
            cond = check(schema["if"])
            parts.append((cond, annotate(schema["if"])))
            parts.append((cond, annotate(schema.get("then", True))))

        def evaluated(x):
            keys = set()
            for cond, part in parts:
                if cond is None or cond(x):
                    keys |= part(x)
            return keys

        return evaluated

    def why(schema, x, path: tuple) -> tuple:
        """``(path, keyword, message)`` for the first failure of ``x``, at
        ``path``, against ``schema``, which rejects it."""
        if schema is False:
            return path, "false", f"{_brief(x)} is not allowed here"
        ranked = sorted(tests[id(schema)], key=lambda kt: _rank(kt[0], schema[kt[0]]))
        name = next(k for k, test in ranked if not test(x))
        value = schema[name]
        if name == "type":
            message = f"{_brief(x)} is not of type {value!r}"
        elif name == "const":
            message = f"{value!r} was expected, not {_brief(x)}"
        elif name == "enum":
            message = f"{_brief(x)} is not one of {value!r}"
        elif name == "pattern":
            message = f"{_brief(x)} does not match the pattern {value!r}"
        elif name == "minimum":
            message = f"{x!r} is less than the minimum of {value!r}"
        elif name == "maximum":
            message = f"{x!r} is greater than the maximum of {value!r}"
        elif name == "minItems":
            message = f"has {len(x)} items, fewer than the minItems of {value}"
        elif name == "required":
            missing = next(k for k in value if k not in x)
            message = f"{missing!r} is a required property"
        elif name == "minProperties":
            message = f"has {len(x)} properties, fewer than the minProperties of {value}"
        elif name == "maxProperties":
            message = f"has {len(x)} properties, more than the maxProperties of {value}"
        elif name == "properties":
            k = next(k for k, s in value.items() if k in x and not check(s)(x[k]))
            return why(value[k], x[k], path + (k,))
        elif name == "additionalProperties":
            extra = [k for k in x if k not in schema.get("properties", ())]
            if value is not False:
                k = next(k for k in extra if not check(value)(x[k]))
                return why(value, x[k], path + (k,))
            message = f"additional properties are not allowed: {', '.join(map(repr, extra))}"
        elif name == "items":
            i = next(i for i, item in enumerate(x) if not check(value)(item))
            return why(value, x[i], path + (i,))
        elif name == "$ref":
            return why(resolve(value), x, path)
        elif name == "allOf":
            return why(next(s for s in value if not check(s)(x)), x, path)
        elif name == "oneOf":
            passed = sum(1 for s in value if check(s)(x))
            if passed:
                message = f"{_brief(x)} is valid under {passed} of the oneOf schemas, not one"
            else:
                # The deepest failure of one branch, a type mismatch
                # last; a tie is reported at the oneOf itself.
                found = [why(s, x, path) for s in value]
                ranks = [(len(f[0]), f[1] != "type") for f in found]
                if ranks.count(max(ranks)) == 1:
                    return found[ranks.index(max(ranks))]
                message = f"{_brief(x)} is not valid under any of the oneOf schemas"
        elif name == "not":
            message = f"{_brief(x)} must not be valid under {value!r}"
        elif name == "if":
            return why(schema.get("then", True), x, path)
        else:
            stray = [k for k in x if k not in evaluations[id(schema)](x)]
            message = f"unevaluated properties are not allowed: {', '.join(map(repr, stray))}"
        return path, name, message

    valid = check(root)

    def rejection(doc):
        if valid(doc):
            return None
        path, _, message = why(root, doc, ())
        return DocError(_json_path(path), message)

    return rejection


@lru_cache(maxsize=None)
def schema_check(name: str):
    """The shipped schema ``name``, compiled: ``doc -> DocError | None``."""
    return compile_schema(load_schema(name))


def _validate(doc, schema_name: str) -> None:
    error = schema_check(schema_name)(doc)
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
    section; everything else mirrors the builder state. An open scope
    raises SemanticError (OpenScope), as in ``generate``."""
    layouts: dict[str, HeaderLayout] = {}

    def register(layout):
        if layout is None:
            return None
        layouts.setdefault(layout.name, layout)
        return layout.name

    processors = []
    for proc in solution.processors():
        proc.validate_complete()
        register(proc.input)
        register(proc.output)
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
                "lookahead": register(sel.lookahead),
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
            for layout in layouts.values()
        ],
        "processors": processors,
        "selectors": selectors,
    }


@contextmanager
def _at(path: str):
    """Wrap builder exceptions with the JSON path of the current node."""
    try:
        yield
    except DocSemanticError:
        raise
    except SemanticError as e:
        raise DocSemanticError(path, e.kind.value, e.message) from None
    except FlowgenError as e:
        raise DocSemanticError(path, type(e).__name__, str(e)) from None
    except ValueError as e:
        raise DocSemanticError(path, "WidthMismatch", str(e)) from None


def _uvalue(doc) -> UValue:
    return UValue(UWidth(doc["width"]), doc["value"])


def _operand(proc: FlowProcessor, doc):
    if "var" in doc:
        return proc.var(doc["var"])
    return _uvalue(doc["const"])


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
            inner = block.Switch(_operand(proc, cdoc["selector"]))
        for k, case in enumerate(cdoc["cases"]):
            case_site = f"{site}.cases[{k}]"
            with _at(case_site):
                inner = inner.Case(_uvalue(case["value"]))
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
        args = {
            f.name: _field_value(proc, f, cdoc[f.name])
            for f in fields(cls)
            if f.name != "ordinal" and f.name in cdoc
        }
        return block.add(cls(**args))


def _field_value(proc: FlowProcessor, f, doc):
    """Inverse of flow_ast's document form of one command field."""
    if f.name == "target":
        return proc.var(doc)
    if f.name == "value":
        return _uvalue(doc)
    if f.name in OPERAND_FIELDS:
        return _operand(proc, doc)
    if isinstance(f.default, enum.Enum):
        return type(f.default)(doc)
    return doc


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
                criterion = Criterion(cdoc["field"], _uvalue(cdoc))
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
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise DocError("$", f"not valid JSON: {e}") from None


# -- traces: packets in, results out -----------------------------------------

def parse_field_value(text: str) -> int:
    """Decimal by default, hex with an 0x prefix."""
    return int(text, 16) if text.startswith("0x") else int(text, 10)


def packet_from_doc(pdoc: dict, path: str = "packet", defaults=None) -> SimPacket:
    """Build a SimPacket from its document: defaults first (lengths and
    checksums derived from the payload), explicit fields overlaid.

    ``defaults`` memoizes the default header maps by (transport header,
    payload length), so that ``trace_from_doc`` makes each set once per
    trace; every packet gets its own copies."""
    try:
        payload = bytes.fromhex(pdoc["payload"])
    except ValueError as e:
        raise DocError(f"{path}.payload", str(e)) from None
    l4 = "udp" if "udp" in pdoc else "tcp"
    key = (l4, len(payload))
    if defaults is None:
        defaults = {}
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
        overrides = pdoc.get(group)
        if overrides is None:
            continue
        bits = HEADER_FIELD_BITS[group]
        for name, text in overrides.items():
            width = bits.get(name)
            if width is None:
                raise DocError(f"{path}.{group}.{name}", f"unknown field {group}.{name}")
            value = parse_field_value(text)
            if value >> width:
                raise DocError(
                    f"{path}.{group}.{name}", f"{value} does not fit in {width} bits"
                )
            fields[name] = value
    return SimPacket(pdoc.get("ingress_port", 0), payload=payload, **headers)


def trace_from_doc(doc) -> tuple[int, list[SimPacket]]:
    validate_trace_doc(doc)
    defaults: dict[tuple[str, int], dict] = {}
    packets = [
        packet_from_doc(pdoc, f"packets[{i}]", defaults)
        for i, pdoc in enumerate(doc["packets"])
    ]
    return doc["seed"], packets


def load_trace(path) -> tuple[int, list[SimPacket]]:
    return trace_from_doc(load_json(path))


def result_to_doc(result: SimResult) -> dict:
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
    return {"seed": seed, "results": [result_to_doc(r) for r in results]}


# The layout of a results document is fixed, so each depth's indent is a
# constant: results at 2, their fields at 3, header fields and trace
# events at 4, event fields at 5 and event values at 6.
_HEADER_LEADS = tuple((h, f'\n      "{h}": ') for h in HEADER_FIELD_BITS)
_VALUE_SEP = ",\n            "
_int_text = int.__repr__


def dumps_results(seed: int, results) -> str:
    """The text of ``dumps_doc(results_to_doc(seed, results))``: the
    chunks of ``iter_results_text`` joined."""
    return "".join(iter_results_text(seed, results))


def iter_results_text(seed: int, results) -> Iterator[str]:
    """The text of ``dumps_doc(results_to_doc(seed, results))`` in chunks,
    written straight from the SimResults with no document tree: the head,
    then one chunk per result as ``results`` yields it, then the tail. Only
    the result being written is held, so ``results`` may be a stream.

    Header maps keep their own key order, as ``result_to_doc`` does. The
    text of each distinct trace event is made once per call: a long trace
    repeats few events.

    Every field must hold exactly its declared type: an int seed, egress
    port, ordinal and event value, a str verdict, kind and header field
    name, a str or None selector and error. Anything else, a bool or a
    float included, raises TypeError naming its JSON path; the chunks
    before it have been yielded by then.
    """
    if seed.__class__ is not int:
        raise TypeError(_cannot_write("$.seed", seed))
    names: dict[str, str] = {}  # header field name -> its lead, quoted, ": "
    events: dict[TraceEvent, str] = {}
    yield '{\n  "seed": ' + _int_text(seed) + ',\n  "results": '
    lead = "["
    for i, r in enumerate(results):
        try:
            text = _result_text(r, names, events)
        except TypeError:
            found = _misfit(i, r)
            if found is None:
                raise
            raise TypeError(found) from None
        yield lead + text
        lead = ","
    yield "[]\n}\n" if lead == "[" else "\n  ]\n}\n"


def _result_text(r: SimResult, names: dict, events: dict) -> str:
    """One result's text, through the memos of ``iter_results_text``; a
    value it cannot write raises a TypeError without a path."""
    verdict, selector, egress, error = r.verdict, r.selector, r.egress_port, r.error
    if not (
        verdict.__class__ is str
        and egress.__class__ is int
        and (selector is None or selector.__class__ is str)
        and (error is None or error.__class__ is str)
    ):
        raise TypeError
    parts = [
        '\n    {\n      "verdict": ', _quote(verdict),
        ',\n      "selector": ', "null" if selector is None else _quote(selector),
        ',\n      "egress_port": ', _int_text(egress), ",",
    ]
    packet = r.packet
    for header, lead in _HEADER_LEADS:
        field_map = getattr(packet, header)
        if field_map is None:
            continue
        items = []
        for key, value in field_map.items():
            if key.__class__ is not str:
                raise TypeError
            name = names.get(key)
            if name is None:
                name = names[key] = "\n        " + _quote(key) + ": "
            items.append(name + _quote(str(value)))
        parts.append(lead + ("{" + ",".join(items) + "\n      }," if items else "{},"))
    parts.append('\n      "payload_hex": "' + packet.payload.hex() + '",\n      "trace": ')
    if r.trace:
        texts = []
        for event in r.trace:
            if not _exact(event):
                raise TypeError
            text = events.get(event)
            if text is None:
                text = events[event] = _event_text(event)
            texts.append(text)
        parts.append("[" + ",".join(texts) + "\n      ]")
    else:
        parts.append("[]")
    if error is not None:
        parts.append(',\n      "error": ' + _quote(error))
    parts.append("\n    }")
    return "".join(parts)


_STR_OR_NONE = (str, type(None))


def _cannot_write(path: str, value) -> str:
    return f"{path}: cannot write a {type(value).__name__} to a results document"


def _misfit(i: int, r: SimResult):
    """The diagnostic for the first field of result ``i``, in writing
    order, that ``iter_results_text`` cannot write; None when there is
    none."""

    def positions():  # (JSON path, value, the classes it may have)
        at = f"$.results[{i}]"
        yield f"{at}.verdict", r.verdict, (str,)
        yield f"{at}.selector", r.selector, _STR_OR_NONE
        yield f"{at}.egress_port", r.egress_port, (int,)
        for header in HEADER_FIELD_BITS:
            for key in getattr(r.packet, header) or ():
                yield f"{at}.{header} (a field name)", key, (str,)
        for j, event in enumerate(r.trace):
            yield f"{at}.trace[{j}].ordinal", event.ordinal, (int,)
            yield f"{at}.trace[{j}].kind", event.kind, (str,)
            for name in ("before", "after"):
                for k, value in enumerate(getattr(event, name)):
                    yield f"{at}.trace[{j}].{name}[{k}]", value, (int,)
        yield f"{at}.error", r.error, _STR_OR_NONE

    for path, value, classes in positions():
        if value.__class__ not in classes:
            return _cannot_write(path, value)
    return None


def _exact(event: TraceEvent) -> bool:
    """Every value of ``event`` has its exact type. Checked on every
    event: ``1.0 == 1`` and ``True == 1``, so the memo of event texts
    alone would let such a value through."""
    ordinal, kind, before, after = event
    if ordinal.__class__ is not int or kind.__class__ is not str:
        return False
    for value in before:
        if value.__class__ is not int:
            return False
    for value in after:
        if value.__class__ is not int:
            return False
    return True


def _event_text(event: TraceEvent) -> str:
    ordinal, kind, before, after = event
    return (
        '\n        {\n          "ordinal": ' + _int_text(ordinal)
        + ',\n          "kind": ' + _quote(kind)
        + ',\n          "before": ' + _values_text(before)
        + ',\n          "after": ' + _values_text(after)
        + "\n        }"
    )


def _values_text(values) -> str:
    if not values:
        return "[]"
    return "[\n            " + _VALUE_SEP.join(map(_int_text, values)) + "\n          ]"
