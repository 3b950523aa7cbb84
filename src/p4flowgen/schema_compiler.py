"""The JSON Schema compiler behind ``program_doc.schema_check``.

A valid document is read in one pass by its reader, so only a document
that a reader refuses is checked against its whole schema. This module
is therefore loaded only then, and a valid ``check``, ``generate`` or
``simulate`` does not compile it. Refusals are worded with
``program_doc._brief`` and ``program_doc._repr``, looked up when a
refusal is reported.
"""

from __future__ import annotations

import re
from functools import lru_cache

from . import program_doc
from .errors import DocError
from .program_doc import _one_of_values

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
            say = lambda x: f"{program_doc._brief(x)} is not allowed here"
            return lambda x: ((), "false", say, x)
        false = tuple(k for k in _MEMBERS if schema.get(k) is False)
        return _first([keyword(k, schema[k], schema) for k in _ranked(tuple(schema), false)])

    def keyword(name: str, value, schema):
        fail = lambda x: ((), name, say, x)  # each keyword binds its say
        if name == "type":
            if not isinstance(value, str) or value not in _TYPES:
                raise ValueError(f"type {value!r} not implemented")
            say = lambda x: f"{program_doc._brief(x)} is not of type {value!r}"
            cls = _TYPES[value]
            if cls is int:
                return lambda x: None if type(x) is int else fail(x)
            return lambda x: None if isinstance(x, cls) else fail(x)
        if name == "const":
            say = lambda x: f"{value!r} was expected, not {program_doc._brief(x)}"
            return _one_of_values([value], fail)
        if name == "enum":
            say = lambda x: f"{program_doc._brief(x)} is not one of {value!r}"
            return _one_of_values(value, fail)
        if name == "pattern":
            search = re.compile(value).search
            say = lambda x: f"{program_doc._brief(x)} does not match the pattern {value!r}"
            return lambda x: None if not isinstance(x, str) or search(x) else fail(x)
        if name == "minimum":
            say = lambda x: f"{program_doc._repr(x)} is less than the minimum of {value!r}"
            return lambda x: None if not _is_number(x) or x >= value else fail(x)
        if name == "maximum":
            say = lambda x: f"{program_doc._repr(x)} is greater than the maximum of {value!r}"
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

            say = lambda x: f"{program_doc._brief(x)} is not valid under any of the oneOf schemas"
            many = lambda n: lambda x: (
                f"{program_doc._brief(x)} is valid under {n} of the oneOf schemas, not one")
            return one_of
        if name == "not":
            sub = check(value)
            say = lambda x: f"{program_doc._brief(x)} must not be valid under {value!r}"
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
