"""Flow selectors, the per-stack chains built from them, and the
Solution that holds both.

A FlowSelector binds packets of one protocol stack to one processor via a
conjunction of exact-match criteria. Selectors registered for the same
stack form an ordered chain; the first selector whose criteria all match
wins. ``TRANSPORT`` is the template parser's path to each chain, and
``FIXUPS`` the header rewrites behind a processor body on each stack. A
Solution builds its chains once; the simulator classifies along them and
the code generator emits them as parser states.
"""

from __future__ import annotations

import enum
from typing import Optional

from .core_model import (
    ETHERTYPE_IPV4,
    HEADER_BYTES,
    HEADER_FIELD_BITS,
    IPPROTO_TCP,
    IPPROTO_UDP,
    HeaderLayout,
    UValue,
    check_identifier,
    record,
)
from .errors import (
    DuplicateName,
    MissingLookahead,
    ParserGateMismatch,
    UndeclaredName,
    WidthMismatch,
)
from .flow_ast import FlowProcessor


class ProtocolStack(enum.Enum):
    IPV4_UDP = "IPV4_UDP"
    IPV4_TCP = "IPV4_TCP"


# Matchable standard-header fields and their widths in bits. The 48-bit MAC
# addresses are left out: no UValue width could ever match them.
STANDARD_FIELDS: dict[str, int] = {
    f"{header}.{name}": HEADER_FIELD_BITS[header][name]
    for header, names in (
        ("eth", ("etherType",)),
        ("ipv4", ("srcAddr", "dstAddr", "protocol", "totalLen", "ttl")),
        ("udp", ("srcPort", "dstPort", "len")),
        ("tcp", ("srcPort", "dstPort")),
    )
    for name in names
}

# The template parser's path to each stack's chain: past eth and ipv4, it
# extracts the stack's transport header when ipv4.protocol is its number.
TRANSPORT = {
    ProtocolStack.IPV4_UDP: ("udp", IPPROTO_UDP),
    ProtocolStack.IPV4_TCP: ("tcp", IPPROTO_TCP),
}

# The standard headers in front of the payload on each stack. Transport
# headers only exist on their own stack; eth/ipv4 are always there.
STACK_HEADERS = {stack: ("eth", "ipv4", l4) for stack, (l4, _) in TRANSPORT.items()}

# The standard-header rewrites behind the body of a processor with an
# output layout: per stack, each length field that counts the payload, with
# the bytes of the headers it counts besides it, and the transport checksum
# zeroed, "unused" on IPv4 (RFC 768; a TCP checksum has no such value and
# stays stale). RECOMPUTED is then computed again over its header.
FIXUPS = {
    stack: (
        {f"{h}.{name}": sum(HEADER_BYTES[x] for x in headers[headers.index(h):])
         for h, name in (("ipv4", "totalLen"), ("udp", "len")) if h in headers},
        ("udp.checksum",) if "udp" in headers else (),
    )
    for stack, headers in STACK_HEADERS.items()
}
RECOMPUTED = "ipv4.hdrChecksum"


def rewrites(stack: ProtocolStack, processor: FlowProcessor) -> dict[str, tuple[str, int]]:
    """Each field of ``FIXUPS[stack]`` set behind ``processor``'s body, as
    (operator, n), mod 2^16: with ``truncate_payload`` a length field is
    set ("") to the bytes it counts, else shifted ("+" or "-") by the
    output minus the input bytes unless that is 0; a checksum is zeroed."""
    lengths, zeroed = FIXUPS[stack]
    size = processor.output.byte_size
    delta = size - processor.input.byte_size
    if processor.truncate_payload:
        lengths = {f: ("", (fixed + size) & 0xFFFF) for f, fixed in lengths.items()}
    else:
        lengths = {f: ("-" if delta < 0 else "+", abs(delta)) for f in lengths if delta}
    return lengths | dict.fromkeys(zeroed, ("", 0))


# The standard-header values the template parser requires before a packet
# reaches a stack's chain. A criterion on one of these fields must ask for
# exactly that value, or its selector could never match.
PARSER_GATE = {
    stack: {"eth.etherType": ETHERTYPE_IPV4, "ipv4.protocol": protocol}
    for stack, (_, protocol) in TRANSPORT.items()
}


@record(frozen=True)
class Criterion:
    """One exact-match requirement: a field name and the value it must hold.

    Qualified names (``udp.dstPort``) address standard headers; bare names
    address fields of the selector's lookahead layout.
    """

    field: str
    value: UValue


@record(frozen=True, eq=False)
class FlowSelector:
    name: str
    stack: ProtocolStack
    criteria: tuple[Criterion, ...]
    lookahead: Optional[HeaderLayout]
    processor: FlowProcessor


def check_criterion(
    stack: ProtocolStack, criterion: Criterion, lookahead: Optional[HeaderLayout]
) -> None:
    """Raise unless ``criterion`` names a field parsed on ``stack`` (or one
    of ``lookahead``), its value has that field's width, and an etherType
    or protocol criterion asks for what the stack's parser lets through
    (``PARSER_GATE``)."""
    field, value = criterion.field, criterion.value
    if not isinstance(value, UValue):
        raise TypeError(f"criterion value must be a UValue, got {value!r}")
    if "." in field:
        if field not in STANDARD_FIELDS:
            raise UndeclaredName(f"{field!r} is not a standard header field")
        if field.split(".", 1)[0] not in STACK_HEADERS[stack]:
            raise UndeclaredName(f"{field!r} is not parsed on stack {stack.value}")
        width = STANDARD_FIELDS[field]
    elif lookahead is None:
        raise MissingLookahead(
            f"criterion on payload field {field!r} needs a lookahead layout"
        )
    elif not lookahead.has_field(field):
        raise UndeclaredName(
            f"lookahead layout {lookahead.name!r} has no field {field!r}"
        )
    else:
        width = lookahead.field(field).width.bits
    if value.width.bits != width:
        raise WidthMismatch(
            f"criterion {field!r} is {width}-bit, value is u{value.width.bits}"
        )
    required = PARSER_GATE[stack].get(field)
    if required is not None and value.magnitude != required:
        raise ParserGateMismatch(
            f"criterion {field!r} = {value.magnitude} never matches on stack "
            f"{stack.value}: its parser requires {field} = {required}"
        )


def new_flow_selector(
    name: str,
    stack: ProtocolStack,
    criteria,
    processor: FlowProcessor,
    lookahead: Optional[HeaderLayout] = None,
) -> FlowSelector:
    """Validate and freeze a selector.

    ``criteria`` may hold Criterion objects or plain (field, value) pairs;
    it must be nonempty, every value's width must equal its field's, and
    an etherType or protocol criterion must agree with ``PARSER_GATE``.
    """
    check_identifier(name, "selector name")
    if not isinstance(stack, ProtocolStack):
        raise TypeError(f"expected a ProtocolStack, got {stack!r}")
    if not isinstance(processor, FlowProcessor):
        raise TypeError(f"expected a FlowProcessor, got {processor!r}")
    normalized = tuple(
        c if isinstance(c, Criterion) else Criterion(*c) for c in criteria
    )
    if not normalized:
        raise ValueError(f"selector {name!r} needs at least one criterion")
    for c in normalized:
        check_criterion(stack, c, lookahead)
    if lookahead is not None and processor.input.byte_size > lookahead.byte_size:
        raise WidthMismatch(
            f"input layout {processor.input.name!r} needs "
            f"{processor.input.byte_size} payload bytes but the lookahead "
            f"window guarantees only {lookahead.byte_size}"
        )
    return FlowSelector(name, stack, normalized, lookahead, processor)


def build_chains(selectors) -> dict[ProtocolStack, tuple[FlowSelector, ...]]:
    """Partition selectors into per-stack chains: each stack maps to the
    tuple of its selectors in registration order. Stacks without
    selectors are absent from the result."""
    seen: set[str] = set()
    ordered: dict[ProtocolStack, list[FlowSelector]] = {}
    for s in selectors:
        if s.name in seen:
            raise DuplicateName(f"selector {s.name!r} registered twice")
        seen.add(s.name)
        ordered.setdefault(s.stack, []).append(s)
    return {stack: tuple(chain) for stack, chain in ordered.items()}


@record(frozen=True, eq=False)
class Solution:
    """Selectors in registration order plus the per-stack chains built
    from them (``build_chains``), which the simulator and the code
    generator walk. Building one checks that selector names are unique
    and that each processor or layout name means one processor or one
    structure (equal layouts may share a name); nothing downstream checks
    names again."""

    selectors: tuple[FlowSelector, ...]
    chains: dict[ProtocolStack, tuple[FlowSelector, ...]]

    def __init__(self, selectors) -> None:
        object.__setattr__(self, "selectors", tuple(selectors))
        object.__setattr__(self, "chains", build_chains(self.selectors))
        # The simulator's classify function, compiled on its first use
        # (simulator._classifier).
        object.__setattr__(self, "_classify", None)
        procs: dict[str, FlowProcessor] = {}
        layouts: dict[str, HeaderLayout] = {}
        for sel in self.selectors:
            p = sel.processor
            if procs.setdefault(p.name, p) is not p:
                raise DuplicateName(f"two distinct processors share the name {p.name!r}")
            for layout in (sel.lookahead, p.input, p.output):
                if layout is not None and layouts.setdefault(layout.name, layout) != layout:
                    raise DuplicateName(
                        f"two different layouts share the name {layout.name!r}"
                    )
        # Both indexes, as attributes that a copy or pickle carries.
        object.__setattr__(self, "_processors", tuple(procs.values()))
        object.__setattr__(self, "_layouts", tuple(layouts.values()))

    def __getstate__(self) -> dict:
        # A copy compiles its own classifier, over its own selectors.
        return {**self.__dict__, "_classify": None}

    def processors(self) -> list[FlowProcessor]:
        """Referenced processors, first appearance order, deduplicated."""
        return list(self._processors)

    def layouts(self) -> list[HeaderLayout]:
        """Every layout once, in first-use order (lookahead, input, output)."""
        return list(self._layouts)
