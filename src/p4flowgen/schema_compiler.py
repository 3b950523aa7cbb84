"""The JSON Schema check behind ``program_doc.schema_check``.

A valid document is read in one pass by its reader, so only a document
that a reader refuses is checked against its whole schema. This module
is therefore loaded only then, and a valid ``check``, ``generate`` or
``simulate`` does not load it. The check walks the document and the
schema together, one Python frame per schema node entered, and stops at
the first failure. Refusals are worded with ``program_doc._brief`` and
``program_doc._repr``, looked up when a refusal is reported.
"""

from __future__ import annotations

import re
from functools import lru_cache

from . import program_doc
from .errors import DocError
from .program_doc import _in

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

# The keywords that test a value directly: ``test(value, x)`` is whether
# ``x`` satisfies the keyword's ``value``.
_TESTS = {
    "type": lambda v, x: type(x) is int if v == "integer" else isinstance(x, _TYPES[v]),
    "const": lambda v, x: _in((v,), x),
    "enum": _in,
    "pattern": lambda v, x: not isinstance(x, str) or re.search(v, x) is not None,
    "minimum": lambda v, x: not _is_number(x) or x >= v,
    "maximum": lambda v, x: not _is_number(x) or x <= v,
    "minItems": lambda v, x: not isinstance(x, list) or len(x) >= v,
    "required": lambda v, x: not isinstance(x, dict) or all(k in x for k in v),
    "minProperties": lambda v, x: not isinstance(x, dict) or len(x) >= v,
    "maxProperties": lambda v, x: not isinstance(x, dict) or len(x) <= v,
}

# The words of a reported failure ``(path, keyword, value, x)``:
# ``say(value, x)``. The value of a closed ``additionalProperties``
# failure is the node's ``properties``, and that of a ``oneOf`` failure
# the number of branches that hold.
_SAY = {
    "false": lambda v, x: f"{program_doc._brief(x)} is not allowed here",
    "type": lambda v, x: f"{program_doc._brief(x)} is not of type {v!r}",
    "const": lambda v, x: f"{v!r} was expected, not {program_doc._brief(x)}",
    "enum": lambda v, x: f"{program_doc._brief(x)} is not one of {v!r}",
    "pattern": lambda v, x: f"{program_doc._brief(x)} does not match the pattern {v!r}",
    "minimum": lambda v, x: f"{program_doc._repr(x)} is less than the minimum of {v!r}",
    "maximum": lambda v, x: f"{program_doc._repr(x)} is greater than the maximum of {v!r}",
    "minItems": lambda v, x: f"has {len(x)} items, fewer than the minItems of {v}",
    "required": lambda v, x: f"{next(k for k in v if k not in x)!r} is a required property",
    "minProperties": lambda v, x: (
        f"has {len(x)} properties, fewer than the minProperties of {v}"),
    "maxProperties": lambda v, x: (
        f"has {len(x)} properties, more than the maxProperties of {v}"),
    "additionalProperties": lambda v, x: "additional properties are not allowed: " + ", ".join(
        repr(k) for k in x if k not in v),
    "oneOf": lambda n, x: (
        f"{program_doc._brief(x)} is valid under {n} of the oneOf schemas, not one" if n else
        f"{program_doc._brief(x)} is not valid under any of the oneOf schemas"),
    "not": lambda v, x: f"{program_doc._brief(x)} must not be valid under {v!r}",
}


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
    """Vet a JSON Schema (draft 2020-12) once and return one function
    ``doc -> DocError | None``: why ``doc`` is rejected, or None when it
    is valid. Integers are strict (see ``_TYPES``).

    The check is one recursive walk of the document and the schema
    together, which returns the first failure ``(path, keyword, value,
    x)``: the path of the failing value ``x`` relative to the checked
    one, the keyword that refused it, and the keyword's value. Only the
    failure that is reported is worded (``_SAY``), so the failures a
    valid document meets inside oneOf, not and if cost no text. A schema
    node tries its keywords ranked by ``_ranked`` (the node's own
    keywords first), in ``_KEYWORDS`` order within a rank, and returns
    the first failure; a keyword that applies a subschema to a member
    puts the member's key or index in front of its path. The ranked
    keywords of each node are found once, when the schema is vetted, and
    a node that holds only a ``$ref`` is then resolved to its target, so
    it costs the walk no frame.

    Only the keywords in ``_IMPLEMENTED`` are known. Any other keyword,
    a list of types, a list or object in const/enum, a ``$ref`` outside
    ``#/$defs/``, and a cycle of subschemas applied to the value itself
    (``{"$ref": "#/$defs/a"}`` as the def ``a``) raise ValueError, so a
    schema edit cannot silently weaken validation or hang the check."""
    defs = root.get("$defs", {})
    # id of each schema node reached -> (node, its ranked keywords), and
    # for a node that is only a $ref, its target's entry. None while the
    # node's in-place subschemas are vetted, which a $ref cycle reaches.
    nodes: dict[int, object] = {}
    members = [root]  # reached through a member keyword, vetted in turn

    def resolve(ref: str) -> dict:
        name = ref.removeprefix("#/$defs/")
        if name == ref or name not in defs:
            raise ValueError(f"unsupported $ref {ref!r}")
        return defs[name]

    def vet(schema) -> None:
        key = id(schema)
        if key in nodes:
            if nodes[key] is None:
                raise ValueError("a $ref cycle applies a schema to itself")
            return
        nodes[key] = None
        names = () if isinstance(schema, bool) else _ranked(
            tuple(schema), tuple(k for k in _MEMBERS if schema.get(k) is False))
        keywords = []  # (name, value, the test of a keyword that tests x itself)
        for name in names:
            value = schema[name]
            if name == "type" and (not isinstance(value, str) or value not in _TYPES):
                raise ValueError(f"type {value!r} not implemented")
            if name in ("const", "enum"):
                values = (value,) if name == "const" else value
                if any(isinstance(v, (list, dict)) for v in values):
                    raise ValueError(f"const/enum {value!r} not implemented")
            elif name == "pattern":
                re.compile(value)
            elif name in _MEMBERS:
                members.extend(value.values() if name == "properties" else [value])
            elif name in ("not", "if"):
                vet(value)
                if name == "if":
                    vet(schema.get("then", True))
            elif name in _IN_PLACE:  # allOf, oneOf, and a $ref as the allOf of its target
                value = [resolve(value)] if name == "$ref" else value
                for sub in value:
                    vet(sub)
            keywords.append((name, value, _TESTS.get(name)))
        # A node that is only a $ref is its target.
        nodes[key] = nodes[id(value[0])] if names == ("$ref",) else (schema, tuple(keywords))

    def failure(schema, x):
        schema, keywords = nodes[id(schema)]
        if schema is False:
            return (), "false", None, x
        for name, value, test in keywords:
            if test is not None:
                if not test(value, x):
                    return (), name, value, x
            elif name == "if":
                if failure(value, x) is None and (found := failure(schema.get("then", True), x)):
                    return found
            elif name == "properties":
                if isinstance(x, dict):
                    for k, sub in value.items():
                        if k in x and (found := failure(sub, x[k])):
                            return ((k, *found[0]), *found[1:])
            elif name == "items":
                if isinstance(x, list):
                    for i, item in enumerate(x):
                        if found := failure(value, item):
                            return ((i, *found[0]), *found[1:])
            elif name == "additionalProperties":
                if isinstance(x, dict):
                    known = schema.get("properties", {})
                    if value is False and not all(k in known for k in x):
                        return (), name, known, x
                    for k in x:  # in document order
                        if k not in known and (found := failure(value, x[k])):
                            return ((k, *found[0]), *found[1:])
            elif name in ("allOf", "$ref"):  # a $ref's value is [its target]
                for sub in value:
                    if found := failure(sub, x):
                        return found
            elif name == "oneOf":
                found = [failure(sub, x) for sub in value]
                passed = found.count(None)
                if passed > 1:
                    return (), name, passed, x
                if not passed:
                    # The deepest failure of one branch, a type mismatch last;
                    # a tie is reported at the oneOf itself.
                    ranks = [(len(f[0]), f[1] != "type") for f in found]
                    best = max(ranks)
                    return found[ranks.index(best)] if ranks.count(best) == 1 else (
                        (), name, 0, x)
            elif name == "not":
                if failure(value, x) is None:
                    return (), name, value, x
        return None

    while members:
        vet(members.pop())

    def rejection(doc):
        found = failure(root, doc)
        if found is None:
            return None
        path, name, value, x = found
        return DocError(_json_path(path), _SAY[name](value, x))

    return rejection
