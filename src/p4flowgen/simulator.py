"""Bit-exact execution of a Solution on synthetic packets.

The simulator classifies packets against the selectors, runs the matched
processor's commands with the same fixed-width wraparound semantics the
generated code has, applies the same length and checksum fixups, and
threads shared state (registers, rings, the random generator) across
packets. No P4 is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple, Optional

from .core_model import (
    ETHERTYPE_IPV4,
    HEADER_BYTES,
    HEADER_FIELD_BITS,
    IPPROTO_TCP,
    IPPROTO_UDP,
    STANDARD_HEADERS,
    U16,
    UValue,
    UWidth,
    deserialize_layout,
    internet_checksum,
    serialize_layout,
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
    operand_fields,
)
from .selector import STACK_HEADERS, FlowSelector, ProtocolStack, Solution

PROCESSED = "PROCESSED"
PASSTHROUGH = "PASSTHROUGH"


def _packer(header: str):
    """A function from a header's field map to its wire bytes, compiled
    once from STANDARD_HEADERS into one shift-and-or expression (the way
    dataclasses compiles ``__init__``), so that packing runs no per-field
    loop. A field that does not fit its width raises OverflowError; the
    reserved nibble packs as zero."""
    shift = HEADER_BYTES[header] * 8
    fields, overflow = [], []
    for name, bits in STANDARD_HEADERS[header]:
        shift -= bits
        if name != "res":
            fields.append(f"v[{name!r}] << {shift}")
            overflow.append(f"v[{name!r}] >> {bits}")
    return eval(
        f"lambda v: _out_of_range({header!r}, v) if {' | '.join(overflow)} "
        f"else ({' | '.join(fields)}).to_bytes({HEADER_BYTES[header]}, 'big')"
    )


def _out_of_range(header: str, values: dict[str, int]):
    raise OverflowError(f"{header} field out of range in {values}")


_PACK = {header: _packer(header) for header in STANDARD_HEADERS}

# The 20 IPv4 header bytes of a field map, in wire order (options
# unsupported).
ipv4_header_bytes = _PACK["ipv4"]

# The ipv4.protocol under which the template parser extracts each
# transport header.
_L4_PROTOCOL = {"udp": IPPROTO_UDP, "tcp": IPPROTO_TCP}


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

    def draw(self, width: UWidth) -> int:
        return self.next64() & width.mask

    def copy(self) -> "SplitMix64":
        clone = SplitMix64(0)
        clone.state = self.state
        return clone


@dataclass
class SimPacket:
    """A synthetic packet: standard-header field maps plus raw payload.

    The udp and tcp maps are mutually exclusive; a packet with neither
    is plain IPv4 and can only pass through.
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

    def stack(self) -> Optional[ProtocolStack]:
        if self.udp is not None:
            return ProtocolStack.IPV4_UDP
        if self.tcp is not None:
            return ProtocolStack.IPV4_TCP
        return None

    def get_field(self, qualified: str) -> int:
        group_name, _, leaf = qualified.partition(".")
        group = getattr(self, group_name, None)
        if not isinstance(group, dict) or leaf not in group:
            raise MalformedPacket(f"packet has no field {qualified!r}")
        return group[leaf]

    def copy(self) -> "SimPacket":
        return SimPacket(
            ingress_port=self.ingress_port,
            eth=dict(self.eth),
            ipv4=dict(self.ipv4),
            udp=dict(self.udp) if self.udp is not None else None,
            tcp=dict(self.tcp) if self.tcp is not None else None,
            payload=bytes(self.payload),
        )

    def to_bytes(self) -> bytes:
        headers = (
            pack(getattr(self, header))
            for header, pack in _PACK.items()
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
    ipv4["hdrChecksum"] = internet_checksum(ipv4_header_bytes(ipv4)).magnitude
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

    def head_value(self) -> int:
        return self.slots[self.head]


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


def classify(solution: Solution, packet: SimPacket) -> Optional[FlowSelector]:
    """First selector on the packet's stack chain whose criteria all match.

    Like the template parser, only an IPv4 etherType leads to the chains;
    any other packet matches nothing. Raises MalformedPacket when the
    packet's udp/tcp group disagrees with ``ipv4.protocol``, or when a
    selector's non-payload criteria match but the payload is too short
    for its lookahead window or input layout.
    """
    packet.validate()
    if packet.eth["etherType"] != ETHERTYPE_IPV4:
        return None
    stack = packet.stack()
    if stack is None:
        return None
    l4 = STACK_HEADERS[stack][-1]
    protocol = packet.ipv4["protocol"]
    if protocol != _L4_PROTOCOL[l4]:
        raise MalformedPacket(
            f"packet has a {l4} header but ipv4.protocol {protocol}; "
            f"the parser extracts {l4} only for protocol {_L4_PROTOCOL[l4]}"
        )
    chain = solution.chains.get(stack)
    if chain is None:
        return None
    for sel in chain.links:
        standard = [c for c in sel.criteria if "." in c.field]
        if not all(
            packet.get_field(c.field) == c.value.magnitude for c in standard
        ):
            continue
        if sel.lookahead is not None:
            if len(packet.payload) < sel.lookahead.byte_size:
                raise MalformedPacket(
                    f"payload too short for lookahead of selector {sel.name!r}"
                )
            peeked = deserialize_layout(sel.lookahead, packet.payload)
            if not all(
                peeked[c.field].magnitude == c.value.magnitude
                for c in sel.criteria
                if "." not in c.field
            ):
                continue
        if len(packet.payload) < sel.processor.input.byte_size:
            raise MalformedPacket(
                f"payload too short for input of selector {sel.name!r}"
            )
        return sel
    return None


class _Execution:
    """One processor run over one packet."""

    def __init__(self, proc: FlowProcessor, state: SimState, packet: SimPacket) -> None:
        self.proc = proc
        self.state = state
        self.ingress_port = packet.ingress_port
        self.events: list[TraceEvent] = [TraceEvent(0, "match", (), ())]
        self.egress: Optional[int] = None
        self.env: dict[str, int] = {}
        for name, value in deserialize_layout(proc.input, packet.payload).items():
            self.env[name] = value.magnitude
        if proc.output is not None:
            for f in proc.output.fields:
                self.env[f.name] = 0
        for d in proc.locals:
            self.env[d.name] = 0
        for d in proc.shared:
            self.env[d.name] = state.shared[(proc.name, d.name)].magnitude

    def read(self, op) -> int:
        if isinstance(op, UValue):
            return op.magnitude
        return self.env[op.name]

    def ring(self, name: str) -> RingState:
        return self.state.rings[(self.proc.name, name)]

    def event(self, ordinal: int, kind: str, before, after) -> None:
        self.events.append(TraceEvent(ordinal, kind, before, after))

    def run_block(self, block: Block) -> None:
        for cmd in block.commands:
            run = _RUN.get(cmd.__class__)
            if run is not None:
                run(self, cmd)
            else:
                self.run_node(cmd)

    def run_node(self, cmd) -> None:
        if isinstance(cmd, IfNode):
            cond = self.env[cmd.cond.name]
            self.event(cmd.ordinal, "if", (cond,), (cond,))
            if cond == 1:
                self.run_block(cmd.then_block)
            elif cmd.else_block is not None:
                self.run_block(cmd.else_block)
        elif isinstance(cmd, SwitchNode):
            chosen = self.read(cmd.selector)
            self.event(cmd.ordinal, "switch", (chosen,), (chosen,))
            for value, _, case_block in cmd.cases:
                if value.magnitude == chosen:
                    self.run_block(case_block)
                    break
        elif isinstance(cmd, AtomicNode):
            self.event(cmd.ordinal, "atomic_begin", (), ())
            self.run_block(cmd.block)
            self.event(cmd.end_ordinal, "atomic_end", (), ())
        else:
            raise TypeError(f"cannot simulate {cmd!r}")


def _ring_push(run: _Execution, cmd: RingPush) -> None:
    ring = run.ring(cmd.ring)
    value = run.read(cmd.source)
    before = (value, ring.head)
    ring.slots[ring.head] = value
    ring.head = (ring.head + 1) % len(ring.slots)
    run.event(cmd.ordinal, cmd.op, before, (value, ring.head))


def _egress(run: _Execution, cmd, port: int, seen: tuple) -> None:
    run.egress = port
    run.event(cmd.ordinal, cmd.op, seen, seen)


# One entry per plain op. An op with a ``target`` field maps its operand
# values to the value it writes (_writes_target does the rest); any other
# op does its whole step itself.
_EVAL = {
    AssignConst: lambda run, cmd, value: value,
    AssignVar: lambda run, cmd, source: source,
    Cast: lambda run, cmd, source: source & cmd.target.width.mask,
    Add: lambda run, cmd, lhs, rhs: (lhs + rhs) & cmd.target.width.mask,
    Sub: lambda run, cmd, lhs, rhs: (lhs - rhs) & cmd.target.width.mask,
    Equals: lambda run, cmd, lhs, rhs: 1 if lhs == rhs else 0,
    Greater: lambda run, cmd, lhs, rhs: 1 if lhs > rhs else 0,
    Rand: lambda run, cmd: run.state.rng.draw(cmd.target.width),
    RingReadHead: lambda run, cmd: run.ring(cmd.ring).head_value(),
    RingPush: _ring_push,
    SendBack: lambda run, cmd: _egress(run, cmd, run.ingress_port, ()),
    Forward: lambda run, cmd: _egress(run, cmd, cmd.port, (cmd.port,)),
}


def _writes_target(cls, evaluate):
    """The one path of every op that writes a target: read the operands,
    evaluate, write the target, and record (target, *operands) before and
    (result, *operands) after."""
    # Operand access is resolved here, once per class, and the reads are
    # spelled out per operand count: this is the per-packet hot path.
    names = operand_fields(cls)
    get = attrgetter(*names) if names else None

    def run(ex: _Execution, cmd) -> None:
        env = ex.env
        if len(names) == 2:
            lhs, rhs = get(cmd)
            operands = (
                lhs.magnitude if lhs.__class__ is UValue else env[lhs.name],
                rhs.magnitude if rhs.__class__ is UValue else env[rhs.name],
            )
        elif names:
            source = get(cmd)
            operands = (source.magnitude if source.__class__ is UValue else env[source.name],)
        else:
            operands = ()
        target = cmd.target
        before = env[target.name]
        result = evaluate(ex, cmd, *operands)
        env[target.name] = result
        if target.scope is Scope.SHARED:
            ex.state.shared[(ex.proc.name, target.name)] = UValue(target.width, result)
        ex.events.append(
            TraceEvent(cmd.ordinal, cmd.op, (before, *operands), (result, *operands))
        )

    return run


_RUN = {
    cls: _writes_target(cls, evaluate) if "target" in cls.__dataclass_fields__ else evaluate
    for cls, evaluate in _EVAL.items()
}


def _egress_fixups(packet: SimPacket, proc: FlowProcessor, env: dict[str, int]) -> SimPacket:
    """Build the outgoing packet: output bytes replace input bytes at the
    payload start, lengths shift by the byte delta, checksums follow the
    same rules the generated pipeline applies."""
    out = packet.copy()
    if proc.output is None:
        return out
    values = {
        f.name: UValue(f.width, env[f.name]) for f in proc.output.fields
    }
    new_payload = serialize_layout(proc.output, values)
    if not proc.truncate_payload:
        new_payload += packet.payload[proc.input.byte_size :]
    delta = len(new_payload) - len(packet.payload)
    out.payload = new_payload
    out.ipv4["totalLen"] = (out.ipv4["totalLen"] + delta) & U16.mask
    if out.udp is not None:
        out.udp["len"] = (out.udp["len"] + delta) & U16.mask
        out.udp["checksum"] = 0
    out.ipv4["hdrChecksum"] = 0
    out.ipv4["hdrChecksum"] = internet_checksum(
        ipv4_header_bytes(out.ipv4)
    ).magnitude
    return out


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
    proc = sel.processor
    run = _Execution(proc, state, packet)
    run.run_block(proc.body)
    egress = run.egress if run.egress is not None else default_egress
    out_packet = _egress_fixups(packet, proc, run.env)
    result = SimResult(
        PROCESSED, sel.name, egress, out_packet, tuple(run.events)
    )
    return result, state


def run_trace(solution: Solution, packets, seed: int = 0) -> list[SimResult]:
    """Simulate packets in order through one shared state. Per-packet
    malformed-packet errors are recorded on the result, not raised."""
    state = initial_state(solution, seed)
    results: list[SimResult] = []
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
        results.append(result)
    return results
