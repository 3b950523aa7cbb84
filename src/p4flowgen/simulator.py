"""Bit-exact execution of a Solution on synthetic packets.

The simulator classifies packets against the selectors, runs the matched
processor's commands with the same fixed-width wraparound semantics the
generated code has, applies the same length and checksum fixups, and
threads shared state (registers, rings, the random generator) across
packets. No P4 is involved.

``classify`` looks packets up in an index keyed by the standard-header
values the selectors match on. On its first match, a processor is
compiled into one Python function from generated source, the way
``_packer`` compiles header packing, and again after each builder call.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain as chain_from
from types import SimpleNamespace
from typing import Iterator, NamedTuple, Optional
from weakref import WeakKeyDictionary

from .core_model import (
    ETHERTYPE_IPV4,
    HEADER_BYTES,
    HEADER_FIELD_BITS,
    HeaderLayout,
    IPPROTO_TCP,
    IPPROTO_UDP,
    STANDARD_HEADERS,
    U16,
    UValue,
    complement_fold,
)
from .errors import MalformedPacket
from .flow_ast import (
    Add,
    AssignConst,
    AssignVar,
    AtomicNode,
    Block,
    Cast,
    Equals,
    FlowProcessor,
    Forward,
    Greater,
    IfNode,
    Rand,
    RingPush,
    RingReadHead,
    Scope,
    SendBack,
    Sub,
    SwitchNode,
    VarRef,
    operand_fields,
)
from .selector import FlowSelector, ParserChain, ProtocolStack, Solution

PROCESSED = "PROCESSED"
PASSTHROUGH = "PASSTHROUGH"


def _packer(header: str):
    """Two functions of a header's field map, compiled once from
    STANDARD_HEADERS (the way dataclasses compiles ``__init__``) so that
    they run no per-field loop: its wire bytes, as one shift-and-or
    expression, and its checksum, the one's-complement sum of its 16-bit
    words with each field added at its offset within its word. A field
    that does not fit its width raises OverflowError; the reserved nibble
    packs as zero."""
    shift = HEADER_BYTES[header] * 8
    fields, words, overflow = [], [], []
    for name, bits in STANDARD_HEADERS[header]:
        shift -= bits
        if name != "res":
            fields.append(f"v[{name!r}] << {shift}")
            words.append(f"(v[{name!r}] << {shift % 16})")
            overflow.append(f"v[{name!r}] >> {bits}")
    check = f"_out_of_range({header!r}, v) if {' | '.join(overflow)} else"
    return (
        eval(f"lambda v: {check} ({' | '.join(fields)}).to_bytes({HEADER_BYTES[header]}, 'big')"),
        eval(f"lambda v: {check} complement_fold({' + '.join(words)})"),
    )


def _out_of_range(header: str, values: dict[str, int]):
    raise OverflowError(f"{header} field out of range in {values}")


_PACK = {header: _packer(header) for header in STANDARD_HEADERS}

# The 20 IPv4 header bytes of a field map, in wire order (options
# unsupported), and its header checksum once hdrChecksum is 0.
ipv4_header_bytes, _ipv4_checksum = _PACK["ipv4"]

# The ipv4.protocol under which the template parser extracts each
# transport header.
_L4_PROTOCOL = {"udp": IPPROTO_UDP, "tcp": IPPROTO_TCP}

_U16_MASK = U16.mask

_FIELD_NAMES = {header: frozenset(bits) for header, bits in HEADER_FIELD_BITS.items()}


class SplitMix64:
    """Deterministic 64-bit generator (splitmix64).

    State advances by the golden-gamma constant; output is the state run
    through two xor-shift-multiply rounds. Bit-exact definition:

        state = (state + 0x9E3779B97F4A7C15) mod 2^64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) mod 2^64
        output = z ^ (z >> 31)

    A w-bit draw keeps the low w bits of the 64-bit output.
    """

    MASK = (1 << 64) - 1

    def __init__(self, seed: int) -> None:
        self.state = seed & self.MASK

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)



@dataclass
class SimPacket:
    """A synthetic packet: standard-header field maps plus raw payload.

    The udp and tcp maps are mutually exclusive; a packet with neither
    is plain IPv4 and passes through unless ipv4.protocol names UDP/TCP.
    """

    ingress_port: int
    eth: dict[str, int]
    ipv4: dict[str, int]
    udp: Optional[dict[str, int]] = None
    tcp: Optional[dict[str, int]] = None
    payload: bytes = b""

    def validate(self) -> None:
        if not 0 <= self.ingress_port <= 0xFFFF:
            raise MalformedPacket(f"ingress port {self.ingress_port} out of range")
        if self.udp is not None and self.tcp is not None:
            raise MalformedPacket("packet cannot carry both UDP and TCP")
        if not isinstance(self.payload, (bytes, bytearray)):
            raise MalformedPacket("payload must be bytes")
        for header, names in _FIELD_NAMES.items():
            fields = getattr(self, header)
            if fields is not None and fields.keys() != names:
                raise MalformedPacket(f"{header} fields {sorted(fields)} are not {sorted(names)}")

    def stack(self) -> Optional[ProtocolStack]:
        if self.udp is not None:
            return ProtocolStack.IPV4_UDP
        if self.tcp is not None:
            return ProtocolStack.IPV4_TCP
        return None

    def to_bytes(self) -> bytes:
        headers = (
            pack(getattr(self, header))
            for header, (pack, _) in _PACK.items()
            if getattr(self, header) is not None
        )
        return b"".join(headers) + bytes(self.payload)


def _make_packet(
    l4: str,
    fields: dict[str, int],
    payload: bytes,
    ingress_port: int,
    src_addr: int,
    dst_addr: int,
    ttl: int,
) -> SimPacket:
    ipv4 = _zeroed("ipv4") | {
        "version": 4,
        "ihl": 5,
        "totalLen": HEADER_BYTES["ipv4"] + HEADER_BYTES[l4] + len(payload),
        "ttl": ttl,
        "protocol": _L4_PROTOCOL[l4],
        "srcAddr": src_addr,
        "dstAddr": dst_addr,
    }
    ipv4["hdrChecksum"] = _ipv4_checksum(ipv4)
    return SimPacket(
        ingress_port=ingress_port,
        eth={
            "dstAddr": 0x020000000002,
            "srcAddr": 0x020000000001,
            "etherType": ETHERTYPE_IPV4,
        },
        ipv4=ipv4,
        payload=bytes(payload),
        **{l4: _zeroed(l4) | fields},
    )


def _zeroed(header: str) -> dict[str, int]:
    """A field map of a standard header with every field zero."""
    return dict.fromkeys(HEADER_FIELD_BITS[header], 0)


def make_udp_packet(
    dst_port: int,
    payload: bytes = b"",
    src_port: int = 40000,
    ingress_port: int = 0,
    src_addr: int = 0x0A000001,
    dst_addr: int = 0x0A000002,
    ttl: int = 64,
) -> SimPacket:
    """A consistent UDP packet: lengths derived from the payload, valid
    IPv4 header checksum, UDP checksum left unused (0)."""
    udp = {
        "srcPort": src_port,
        "dstPort": dst_port,
        "len": HEADER_BYTES["udp"] + len(payload),
    }
    return _make_packet("udp", udp, payload, ingress_port, src_addr, dst_addr, ttl)


def make_tcp_packet(
    dst_port: int,
    payload: bytes = b"",
    src_port: int = 40000,
    ingress_port: int = 0,
    src_addr: int = 0x0A000001,
    dst_addr: int = 0x0A000002,
    ttl: int = 64,
) -> SimPacket:
    """A consistent TCP packet with a bare 20-byte header."""
    tcp = {
        "srcPort": src_port,
        "dstPort": dst_port,
        "dataOffset": 5,
        "flags": 0x18,
        "window": 65535,
    }
    return _make_packet("tcp", tcp, payload, ingress_port, src_addr, dst_addr, ttl)


@dataclass
class RingState:
    slots: list[int]
    head: int


@dataclass
class SimState:
    """Everything that persists across packets."""

    shared: dict[tuple[str, str], UValue]
    rings: dict[tuple[str, str], RingState]
    rng: SplitMix64


def initial_state(solution: Solution, seed: int = 0) -> SimState:
    """A fresh SimState: declared initial values, zeroed rings, seeded rng."""
    shared: dict[tuple[str, str], UValue] = {}
    rings: dict[tuple[str, str], RingState] = {}
    for p in solution.processors():
        for d in p.shared:
            shared[(p.name, d.name)] = d.initial
        for r in p.rings:
            rings[(p.name, r.name)] = RingState([0] * r.capacity, 0)
    return SimState(shared=shared, rings=rings, rng=SplitMix64(seed))


class TraceEvent(NamedTuple):
    """One executed command: its builder ordinal, kind, and the involved
    values before and after execution (same positional layout)."""

    ordinal: int
    kind: str
    before: tuple[int, ...]
    after: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class SimResult:
    verdict: str
    selector: Optional[str]
    egress_port: int
    packet: SimPacket
    trace: tuple[TraceEvent, ...] = ()
    error: Optional[str] = None


# Per parser chain, a (key, table) pair per signature: the sorted standard
# fields some selectors match on. The key reads them from a packet, the
# table maps their values to those selectors as (registration position,
# selector, lookahead bytes or 0, lookahead criteria as (start, end, value)
# payload slices, input bytes).
_INDEX: WeakKeyDictionary[ParserChain, list] = WeakKeyDictionary()


def _index(chain: ParserChain) -> list:
    index = _INDEX.get(chain)
    if index is None:
        tables: dict[str, dict] = {}
        for position, sel in enumerate(chain.links):
            standard = sorted((c.field, c.value.magnitude) for c in sel.criteria if "." in c.field)
            key = "".join("p.{}[{!r}], ".format(*field.split(".")) for field, _ in standard)
            spans, start = {}, 0
            for f in sel.lookahead.fields if sel.lookahead is not None else ():
                spans[f.name] = (start, start + f.width.nbytes)
                start += f.width.nbytes
            peek = tuple((*spans[c.field], c.value.magnitude) for c in sel.criteria if "." not in c.field)
            entry = (position, sel, start, peek, sel.processor.input.byte_size)
            table = tables.setdefault(f"lambda p: ({key})", {})
            table.setdefault(tuple(value for _, value in standard), []).append(entry)
        index = _INDEX[chain] = [(eval(key), table) for key, table in tables.items()]
    return index


def classify(solution: Solution, packet: SimPacket) -> Optional[FlowSelector]:
    """First selector on the packet's stack chain whose criteria all match.

    Like the template parser, only an IPv4 etherType leads to the chains;
    any other packet matches nothing. Raises MalformedPacket when a header
    map lacks a field or has an unknown one, when the udp/tcp group (or
    its absence) disagrees with ``ipv4.protocol``, or when a selector's
    non-payload criteria match but the payload is too short for its
    lookahead window or input layout.
    """
    packet.validate()
    if packet.eth["etherType"] != ETHERTYPE_IPV4:
        return None
    stack = packet.stack()
    protocol = packet.ipv4["protocol"]
    if stack is None:
        if protocol == IPPROTO_UDP or protocol == IPPROTO_TCP:
            raise MalformedPacket(
                f"packet has no udp/tcp header but ipv4.protocol {protocol}; "
                "the parser would extract one from the payload"
            )
        return None
    # The stack is hashed once, for its chain: Enum.__hash__ is Python code.
    l4 = "udp" if packet.udp is not None else "tcp"
    if protocol != _L4_PROTOCOL[l4]:
        raise MalformedPacket(
            f"packet has a {l4} header but ipv4.protocol {protocol}; "
            f"the parser extracts {l4} only for protocol {_L4_PROTOCOL[l4]}"
        )
    chain = solution.chains.get(stack)
    if chain is None:
        return None
    # One lookup per signature; merging the hits by registration position
    # keeps first-registration-wins across signatures.
    hits = [hit for key, table in _index(chain) if (hit := table.get(key(packet)))]
    for _, sel, window, peek, need in hits[0] if len(hits) == 1 else sorted(chain_from(*hits)):
        if window:
            if len(packet.payload) < window:
                raise MalformedPacket(
                    f"payload too short for lookahead of selector {sel.name!r}"
                )
            if any(int.from_bytes(packet.payload[a:b], "big") != v for a, b, v in peek):
                continue
        if len(packet.payload) < need:
            raise MalformedPacket(
                f"payload too short for input of selector {sel.name!r}"
            )
        return sel
    return None


# -- the processor compiler ----------------------------------------------------

# Names a compiled run function reads besides its own constants.
_NAMESPACE = {
    "pack": struct.pack, "unpack_from": struct.unpack_from, "new": tuple.__new__,
    "TE": TraceEvent, "UValue": UValue, "MATCH": TraceEvent(0, "match", (), ()),
}

# One entry per plain op, as in codegen._EMIT: for an op with a ``target``
# the expression of the value written (the compiler writes the target and
# records the event), for any other op its statements.
_PY = {
    AssignConst: lambda c, cmd, py: py.value,
    AssignVar: lambda c, cmd, py: py.source,
    Cast: lambda c, cmd, py: f"{py.source} & {py.mask}",
    Add: lambda c, cmd, py: f"({py.lhs} + {py.rhs}) & {py.mask}",
    Sub: lambda c, cmd, py: f"({py.lhs} - {py.rhs}) & {py.mask}",
    Equals: lambda c, cmd, py: f"1 if {py.lhs} == {py.rhs} else 0",
    Greater: lambda c, cmd, py: f"1 if {py.lhs} > {py.rhs} else 0",
    Rand: lambda c, cmd, py: f"rng.next64() & {py.mask}",
    RingReadHead: lambda c, cmd, py: f"{py.ring}.slots[{py.ring}.head]",
    RingPush: lambda c, cmd, py: [
        f"h = {py.ring}.head",
        f"{py.ring}.slots[h] = {py.source}",
        f"{py.ring}.head = (h + 1) % len({py.ring}.slots)",
        f"append(new(TE, ({cmd.ordinal}, 'ring_push', ({py.source}, h), "
        f"({py.source}, {py.ring}.head))))",
    ],
    SendBack: lambda c, cmd, py: ["egress = ingress", c.event(cmd.ordinal, cmd.op)],
    Forward: lambda c, cmd, py: [
        f"egress = {c.const(cmd.port)}", c.event(cmd.ordinal, cmd.op, (cmd.port,))
    ],
}


class _Compiler:
    """The source of one processor's run function: (payload, ingress port,
    state) to (trace events, egress port or None, new payload or None).
    Variables are the locals ``v<i>`` in declaration order, rings ``r<i>``.
    Constants that tell processors of one shape apart (state keys, operand
    values, ports, events) are the namespace's ``k<i>``, so that such
    processors share one source text and one code object."""

    def __init__(self, proc: FlowProcessor) -> None:
        self.consts, self.lines = [], []
        self.outputs = proc.output.fields if proc.output is not None else ()
        decls = (*proc.input.fields, *self.outputs, *proc.locals, *proc.shared)
        self.var = {d.name: f"v{i}" for i, d in enumerate(decls)}
        self.ring = {r.name: f"r{i}" for i, r in enumerate(proc.rings)}
        self.key = {d.name: self.const((proc.name, d.name)) for d in (*proc.shared, *proc.rings)}

    def const(self, value) -> str:
        self.consts.append(value)
        return f"k{len(self.consts) - 1}"

    def operand(self, op) -> str:
        return self.const(op.magnitude) if isinstance(op, UValue) else self.var[op.name]

    def event(self, ordinal, kind: str, seen: tuple = ()) -> str:
        """The statement recording a constant trace event."""
        return f"append({self.const(TraceEvent(ordinal, kind, seen, seen))})"

    def emit(self, depth: int, *lines: str) -> None:
        self.lines.extend("    " * depth + line for line in lines)

    def block(self, block: Block, depth: int) -> None:
        if not block.commands:
            self.emit(depth, "pass")
        for cmd in block.commands:
            self.command(cmd, depth)

    def command(self, cmd, depth: int) -> None:
        entry = _PY.get(type(cmd))
        if entry is None:
            return self.scope(cmd, depth)
        py = SimpleNamespace(**{
            name: self.operand(v) if isinstance(v, (VarRef, UValue)) else v
            for name, v in vars(cmd).items()
        })
        if hasattr(cmd, "ring"):
            py.ring = self.ring[cmd.ring]
        if not hasattr(cmd, "target"):
            return self.emit(depth, *entry(self, cmd, py))
        # Operands are recorded as read before the write: one that is the
        # target itself reads as its old value ``t``.
        names = operand_fields(type(cmd))
        for name in names:
            if getattr(py, name) == py.target:
                setattr(py, name, "t")
        py.mask = hex(cmd.target.width.mask)
        self.emit(depth, f"t = {py.target}", f"{py.target} = {entry(self, cmd, py)}")
        if cmd.target.scope is Scope.SHARED:
            key, width = self.key[cmd.target.name], self.const(cmd.target.width)
            self.emit(depth, f"shared[{key}] = UValue({width}, {py.target})")
        read = "".join(f"{getattr(py, name)}, " for name in names)
        self.emit(depth, f"append(new(TE, ({cmd.ordinal}, {cmd.op!r}, (t, {read}), "
                         f"({py.target}, {read}))))")

    def scope(self, cmd, depth: int) -> None:
        if isinstance(cmd, AtomicNode):
            self.emit(depth, self.event(cmd.ordinal, "atomic_begin"))
            self.block(cmd.block, depth)
            return self.emit(depth, self.event(cmd.end_ordinal, "atomic_end"))
        if isinstance(cmd, IfNode):
            seen, kind = self.var[cmd.cond.name], "if"
            arms = [(f"if {seen} == 1", cmd.then_block)]
            arms += [("else", cmd.else_block)] if cmd.else_block is not None else []
        elif isinstance(cmd, SwitchNode):
            seen, kind = self.operand(cmd.selector), "switch"
            arms = [
                (f"{'elif' if i else 'if'} {seen} == {self.const(value.magnitude)}", block)
                for i, (value, _, block) in enumerate(cmd.cases)
            ]
        else:
            raise TypeError(f"cannot simulate {cmd!r}")
        self.emit(depth, f"c = ({seen},)", f"append(new(TE, ({cmd.ordinal}, {kind!r}, c, c)))")
        for head, block in arms:
            self.emit(depth, f"{head}:")
            self.block(block, depth + 1)


# Each processor's run function and the builder ordinal it was compiled at.
_COMPILED: WeakKeyDictionary[FlowProcessor, tuple] = WeakKeyDictionary()


def _compiled(proc: FlowProcessor):
    """The run function of a processor, compiled again whenever its
    builder has taken another call since."""
    ordinal, run = _COMPILED.get(proc, (None, None))
    if ordinal == proc._ordinal:
        return run
    c = _Compiler(proc)
    unpack = "".join(f"{c.var[f.name]}, " for f in proc.input.fields)
    c.emit(0, "def run(payload, ingress, state):")
    c.emit(
        1,
        "shared, rng = state.shared, state.rng",
        f"{unpack}= unpack_from({_format(proc.input)!r}, payload)",
        *(f"{c.var[d.name]} = 0" for d in (*c.outputs, *proc.locals)),
        *(f"{c.var[d.name]} = shared[{c.key[d.name]}].magnitude" for d in proc.shared),
        *(f"{c.ring[r.name]} = state.rings[{c.key[r.name]}]" for r in proc.rings),
        "egress, events = None, [MATCH]",
        "append = events.append",
    )
    c.block(proc.body, 1)
    if proc.output is None:
        c.emit(1, "return events, egress, None")
    else:
        # struct.pack checks that every output value fits its width.
        values = "".join(f"{c.var[f.name]}, " for f in c.outputs)
        tail = "" if proc.truncate_payload else f" + payload[{proc.input.byte_size}:]"
        c.emit(1, f"return events, egress, pack({_format(proc.output)!r}, {values}){tail}")
    namespace = {**_NAMESPACE, **{f"k{i}": v for i, v in enumerate(c.consts)}}
    exec(_code("\n".join(c.lines), "<processor>", "exec"), namespace)
    _COMPILED[proc] = (proc._ordinal, namespace["run"])
    return namespace["run"]


def _format(layout: HeaderLayout) -> str:
    """The struct format of a layout: big-endian, one code per field."""
    return ">" + "".join({8: "B", 16: "H", 32: "I", 64: "Q"}[f.width] for f in layout.fields)


# Processors of one shape share their source text, compiled once.
_code = lru_cache(maxsize=256)(compile)


def _egress_fixups(packet: SimPacket, payload: Optional[bytes]) -> SimPacket:
    """Build the outgoing packet from fresh header maps, leaving the input
    packet as it was: the new payload of a processor with an output
    replaces the old one, lengths shift by the byte delta, and checksums
    follow the same rules the generated pipeline applies."""
    ipv4 = packet.ipv4
    udp = dict(packet.udp) if packet.udp is not None else None
    tcp = dict(packet.tcp) if packet.tcp is not None else None
    if payload is None:
        payload, ipv4 = bytes(packet.payload), dict(ipv4)
    else:
        delta = len(payload) - len(packet.payload)
        ipv4 = {**ipv4, "totalLen": (ipv4["totalLen"] + delta) & _U16_MASK, "hdrChecksum": 0}
        ipv4["hdrChecksum"] = _ipv4_checksum(ipv4)
        if udp is not None:
            udp["len"] = (udp["len"] + delta) & _U16_MASK
            udp["checksum"] = 0
    return SimPacket(packet.ingress_port, dict(packet.eth), ipv4, udp, tcp, payload)


def simulate_packet(
    solution: Solution, state: SimState, packet: SimPacket
) -> tuple[SimResult, SimState]:
    """Run one packet. The state is updated in place and also returned.

    The input packet is never mutated; a PASSTHROUGH result carries it
    unchanged, a PROCESSED result carries a rebuilt copy.
    """
    default_egress = packet.ingress_port ^ 1
    sel = classify(solution, packet)
    if sel is None:
        return (
            SimResult(PASSTHROUGH, None, default_egress, packet),
            state,
        )
    run = _compiled(sel.processor)
    events, egress, payload = run(packet.payload, packet.ingress_port, state)
    result = SimResult(
        PROCESSED,
        sel.name,
        default_egress if egress is None else egress,
        _egress_fixups(packet, payload),
        tuple(events),
    )
    return result, state


def iter_trace(solution: Solution, packets, seed: int = 0) -> Iterator[SimResult]:
    """Simulate packets in order through one shared state, yielding each
    result as soon as it is made. Per-packet malformed-packet errors are
    recorded on the result, not raised."""
    state = initial_state(solution, seed)
    for packet in packets:
        try:
            result, state = simulate_packet(solution, state, packet)
        except MalformedPacket as e:
            result = SimResult(
                PASSTHROUGH,
                None,
                packet.ingress_port ^ 1,
                packet,
                error=str(e),
            )
        yield result


def run_trace(solution: Solution, packets, seed: int = 0) -> list[SimResult]:
    """The results of ``iter_trace`` as a list."""
    return list(iter_trace(solution, packets, seed))
