"""Trace and results documents: the packets ``simulate`` reads, the results it writes.

Only ``simulate`` and library callers load this module, so that ``check``
and ``generate`` never compile it. ``validate_trace_doc`` and ``_brief``
are read as ``program_doc`` attributes, so that what replaces them there
is what this module calls.
"""

from __future__ import annotations

import re
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote
from typing import TYPE_CHECKING, Iterator

from . import program_doc
from .core_model import HEADER_FIELD_BITS
from .errors import DocError
from .program_doc import load_json, load_schema

if TYPE_CHECKING:  # importing these at run time would load the simulator for the writer
    from .packet import SimPacket
    from .simulator import SimResult


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
                    shown = (program_doc._brief(text)
                             if value is None or value.bit_length() > 64 else value)
                    raise DocError(
                        f"{path}.{group}.{name}", f"{shown} does not fit in {width} bits"
                    )
                fields[name] = value
        return SimPacket(port, payload=payload, **headers)

    return read


def stream_trace(doc) -> tuple[int, Iterator[SimPacket]]:
    """The seed of trace document ``doc`` and a generator that reads each
    packet only when asked for it, so that a caller running the packets in
    turn holds one at a time. The top level is checked here against the
    rules of ``trace.schema.json``. A refused packet ends the generator
    with the error of a whole-document check: a schema error anywhere
    first, else the reader's."""
    required, allowed, seed_bounds = _trace_top_level()
    if (
        not isinstance(doc, dict)
        or not required <= doc.keys() <= allowed
        or type(doc["seed"]) is not int
        or not seed_bounds[0] <= doc["seed"] <= seed_bounds[1]
        or not isinstance(doc["packets"], list)
    ):
        program_doc.validate_trace_doc(doc)  # refuses it too, with the whole document's first error
        raise DocError("$", _NOT_A_TRACE)
    return doc["seed"], _read_packets(doc)


@lru_cache(maxsize=None)
def _trace_top_level() -> tuple:
    """The required and allowed keys of a trace and the seed's bounds."""
    schema = load_schema("trace")
    seed = schema["properties"]["seed"]
    return (frozenset(schema["required"]), frozenset(schema["properties"]),
            (seed["minimum"], seed["maximum"]))


def _read_packets(doc) -> Iterator[SimPacket]:
    read = _packet_reader()
    for i, pdoc in enumerate(doc["packets"]):
        try:
            packet = read(pdoc, f"packets[{i}]")
        except DocError:
            program_doc.validate_trace_doc(doc)  # a schema error anywhere is reported first
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
    dict or None header map, a bytes or bytearray payload, and a str or
    None selector and error. The first value in writing order
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
        if field_map.__class__ is not dict:
            raise _misfit(r, f"$.results[{i}]")
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
    payload = packet.payload
    if payload.__class__ is not bytes and payload.__class__ is not bytearray:
        raise _misfit(r, f"$.results[{i}]")
    parts += '\n      "payload_hex": "', payload.hex(), '",\n      "trace": '
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
        fields = getattr(r.packet, header)
        if fields is not None:
            yield f".{header}", fields, dict
            for key, value in fields.items():
                yield f".{header} (a field name)", key, str
                yield f".{header}.{key}", value, int
    payload = r.packet.payload
    # SimPacket.validate takes a bytearray for bytes, and so does the writer.
    yield ".payload_hex", payload, bytearray if payload.__class__ is bytearray else bytes
    for j, (ordinal, kind, before, after) in enumerate(r.trace):
        yield f".trace[{j}].ordinal", ordinal, int
        yield f".trace[{j}].kind", kind, str
        for name, seq in (("before", before), ("after", after)):
            yield f".trace[{j}].{name}", seq, tuple
            yield from ((f".trace[{j}].{name}[{k}]", v, int) for k, v in enumerate(seq))
    if r.error is not None:
        yield ".error", r.error, str
