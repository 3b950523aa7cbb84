"""Bit-exact execution of a Solution on synthetic packets.

The simulator classifies packets against the selectors, runs the matched
processor's commands with the same fixed-width wraparound semantics the
generated code has, applies the same length and checksum fixups, and
threads shared state (registers, rings, the random generator) across
packets. No P4 is involved.

The packets themselves (``SimPacket`` and its builders) live in the
packet module; they are importable from here too.

The per-packet work is generated Python, as codegen generates P4:

- A Solution's first ``classify`` call compiles its classifier, kept on
  the Solution: the packet checks of ``SimPacket.validate``, the parser's
  gates, and per chain one dict lookup per signature of standard-header
  values, with the lookahead and input-length checks written out.
- On its first match, a processor is compiled into one run function,
  and again after each builder call: ``flow_ast.render`` prints its body
  in ``_Compiler``'s Python dialect, between the code that reads the
  input layout and the code that builds the outgoing packet, with the
  header rewrites of ``selector.FIXUPS`` written out for an output layout.

``iter_trace`` calls ``simulate_packet``, and ``simulate_packet`` calls
``classify``, through the module globals, so that a profiler can tell
classification from execution.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from operator import itemgetter
from typing import Iterator, NamedTuple, Optional

from .core_model import (
    ETHERTYPE_IPV4,
    HEADER_FIELD_BITS,
    PORT_MAX,
    SEED_MAX,
    HeaderLayout,
    UValue,
    complement_fold,
    record,
)
from .errors import MalformedPacket
from .flow_ast import (
    READS,
    RING,
    TARGET,
    Add,
    AssignConst,
    AssignVar,
    Cast,
    Equals,
    FlowProcessor,
    Forward,
    Greater,
    Rand,
    RingPush,
    RingReadHead,
    SendBack,
    Sub,
    flatten,
    render,
)
from .packet import (  # the packet names are re-exported from here too
    VALIDATE_LINES,
    VALIDATE_NAMES,
    SimPacket,
    ipv4_header_bytes,
    make_tcp_packet,
    make_udp_packet,
)
from .selector import (
    FIXUPS, RECOMPUTED, STACK_HEADERS, TRANSPORT, FlowSelector, ProtocolStack, Solution, rewrites,
)

PROCESSED = "PROCESSED"
PASSTHROUGH = "PASSTHROUGH"


class SplitMix64:
    """Deterministic 64-bit generator (splitmix64).

    State advances by the golden-gamma constant; output is the state run
    through two xor-shift-multiply rounds. Bit-exact definition:

        state = (state + 0x9E3779B97F4A7C15) mod 2^64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) mod 2^64
        output = z ^ (z >> 31)

    A w-bit draw keeps the low w bits of the 64-bit output. The seed is
    the initial state, so it must lie in 0..SEED_MAX.
    """

    MASK = SEED_MAX

    def __init__(self, seed: int) -> None:
        if not 0 <= seed <= SEED_MAX:
            raise ValueError(f"seed {seed} is outside 0..{SEED_MAX}")
        self.state = seed

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)


@record
class SimState:
    """Everything that persists across packets, shaped as the generated
    P4's registers: ``shared`` maps (processor, name) to an int, a shared
    variable's value (not its register's ``value ^ initial``) or a ring's
    head; ``rings`` maps (processor, ring) to the ring's slots."""

    shared: dict[tuple[str, str], int]
    rings: dict[tuple[str, str], list[int]]
    rng: SplitMix64


def initial_state(solution: Solution, seed: int = 0) -> SimState:
    """A fresh SimState: declared initial values, zeroed rings, seeded rng."""
    shared: dict[tuple[str, str], int] = {}
    rings: dict[tuple[str, str], list[int]] = {}
    for p in solution.processors():
        for d in p.shared:
            shared[(p.name, d.name)] = d.initial.magnitude
        for r in p.rings:
            shared[(p.name, r.name)], rings[(p.name, r.name)] = 0, [0] * r.capacity
    return SimState(shared=shared, rings=rings, rng=SplitMix64(seed))


class TraceEvent(NamedTuple):
    """One executed command: its builder ordinal, kind, and the involved
    values before and after execution (same positional layout)."""

    ordinal: int
    kind: str
    before: tuple[int, ...]
    after: tuple[int, ...]


@record(frozen=True, eq=False)
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
    any other packet matches nothing. Raises MalformedPacket when a header
    map lacks a field or has an unknown one, when the udp/tcp group (or
    its absence) disagrees with ``ipv4.protocol``, or when a selector's
    non-payload criteria match but the payload is too short for its
    lookahead window or input layout.
    """
    return (solution._classify or _classifier(solution))(packet)


def _classifier(solution: Solution):
    """The classify function of a Solution, compiled on its first use and
    kept on it as ``solution._classify``.

    It runs ``SimPacket.validate``'s tests and the parser's gates, read
    from ``selector.TRANSPORT``, then looks each signature of the packet's
    chain up once: a signature is the sorted standard fields some
    selectors match on, read straight from the header maps, and its table
    maps their values to those selectors as (registration position,
    selector, lookahead bytes or 0, lookahead test or None, input bytes).
    A chain of several signatures merges the hits by registration
    position, which keeps first-registration-wins across signatures."""
    namespace = dict(VALIDATE_NAMES)
    lines = [
        "port, eth, ipv4, udp, tcp, payload = "
        "packet.ingress_port, packet.eth, packet.ipv4, packet.udp, packet.tcp, packet.payload",
        *VALIDATE_LINES,
        f"if eth['etherType'] != {ETHERTYPE_IPV4}:", ["return None"],
        "protocol = ipv4['protocol']",
    ]
    for stack, (l4, protocol) in TRANSPORT.items():
        chain = solution.chains.get(stack)
        lines += [f"if {l4} is not None:", [
            f"if protocol != {protocol}:", [
                f"raise MalformedPacket(f'packet has a {l4} header but ipv4.protocol {{protocol}}; "
                f"the parser extracts {l4} only for protocol {protocol}')"],
            *(["return None"] if chain is None else _chain_lines(stack, chain, namespace)),
        ]]
    carried = " or ".join(f"protocol == {protocol}" for _, protocol in TRANSPORT.values())
    lines += [
        f"if {carried}:", [
            "raise MalformedPacket(f'packet has no udp/tcp header but ipv4.protocol {protocol}; "
            "the parser would extract one from the payload')"],
        "return None",
    ]
    exec(flatten(["def classify(packet):", lines], 0), namespace)
    object.__setattr__(solution, "_classify", namespace["classify"])
    return namespace["classify"]


def _chain_lines(stack: ProtocolStack, chain: tuple[FlowSelector, ...], namespace: dict) -> list:
    """The statements that classify a packet on ``stack``'s ``chain``; its
    signature tables go into ``namespace``."""
    tables: dict[str, dict] = {}
    peeks = any(sel.lookahead is not None for sel in chain)
    for position, sel in enumerate(chain):
        standard = sorted((c.field, c.value.magnitude) for c in sel.criteria if "." in c.field)
        reads = ["{}[{!r}]".format(*field.split(".")) for field, _ in standard]
        if len(reads) == 1:
            key, value = reads[0], standard[0][1]
        else:
            key, value = "(" + "".join(f"{read}, " for read in reads) + ")", tuple(
                value for _, value in standard)
        wanted = {c.field: c.value.magnitude for c in sel.criteria if "." not in c.field}
        tests, start = [], 0
        for f in sel.lookahead.fields if sel.lookahead is not None else ():
            end = start + f.width.nbytes
            if f.name in wanted:
                expected = wanted[f.name].to_bytes(end - start, "big")
                tests.append(f"payload[{start}:{end}] == {expected!r}")
            start = end
        test = eval(f"lambda payload: {' and '.join(tests)}") if tests else None
        entry = (position, sel, start, test, sel.processor.input.byte_size)
        hits = tables.setdefault(key, {}).setdefault(value, [])
        # Without lookahead tests the first registration of a key wins.
        if peeks or not hits:
            hits.append(entry)
    gets = []
    for i, (key, table) in enumerate(tables.items()):
        name = f"{stack.value}_{i}"
        namespace[name] = {value: tuple(hits) for value, hits in table.items()}
        gets.append(f"{name}.get({key}, ())")
    merged = gets[0] if len(gets) == 1 else "sorted((" + "".join(f"*{g}, " for g in gets) + "))"
    return [
        f"hits = {merged}",
        "for _, sel, window, test, need in hits:", [
            *([
                "if len(payload) < window:", [
                    "raise MalformedPacket("
                    "f'payload too short for lookahead of selector {sel.name!r}')"],
                "if test is not None and not test(payload):", ["continue"],
            ] if peeks else []),
            "if len(payload) < need:", [
                "raise MalformedPacket(f'payload too short for input of selector {sel.name!r}')"],
            "return sel",
        ],
        "return None",
    ]


# -- the processor compiler ----------------------------------------------------

def _unfit(header: str, fields: dict[str, int], names) -> MalformedPacket:
    """The error for the first of ``names``, in order, whose value in the
    header's ``fields`` is not an int (a bool included) within its width."""
    for name in names:
        value, bits = fields[name], HEADER_FIELD_BITS[header][name]
        if value.__class__ is not int:
            return MalformedPacket(f"{header}.{name} {value!r} is not an int")
        if value >> bits:
            return MalformedPacket(f"{header}.{name} {value} does not fit {bits} bits")
    raise AssertionError(f"every {header} field of {names} fits: {fields}")


# Names a compiled run function reads besides its own constants.
_NAMESPACE = {
    "pack": struct.pack, "unpack_from": struct.unpack_from, "new": tuple.__new__,
    "TE": TraceEvent, "MATCH": TraceEvent(0, "match", (), ()),
    "SimPacket": SimPacket, "unfit": _unfit, "fold": complement_fold,
}

# One entry per plain op, as codegen._EMIT has one for the P4 dialect: for
# an op with a ``target`` the expression of the value written
# (_Compiler.op writes the target and records the event), for any other op
# its statements.
_PY = {
    AssignConst: lambda c, cmd, py: py.value,
    AssignVar: lambda c, cmd, py: py.source,
    Cast: lambda c, cmd, py: f"{py.source} & {py.mask}",
    Add: lambda c, cmd, py: f"({py.lhs} + {py.rhs}) & {py.mask}",
    Sub: lambda c, cmd, py: f"({py.lhs} - {py.rhs}) & {py.mask}",
    Equals: lambda c, cmd, py: f"1 if {py.lhs} == {py.rhs} else 0",
    Greater: lambda c, cmd, py: f"1 if {py.lhs} > {py.rhs} else 0",
    Rand: lambda c, cmd, py: f"rng.next64() & {py.mask}",
    RingReadHead: lambda c, cmd, py: f"{py.ring}[{py.ring}_head]",
    RingPush: lambda c, cmd, py: [
        f"h = {py.ring}_head",
        f"{py.ring}[h] = {py.source}",
        f"{py.ring}_head = (h + 1) % len({py.ring})",
        f"append(new(TE, ({cmd.ordinal}, 'ring_push', ({py.source}, h), "
        f"({py.source}, {py.ring}_head))))",
    ],
    SendBack: lambda c, cmd, py: ["egress = ingress", c.event(cmd.ordinal, cmd.op)],
    Forward: lambda c, cmd, py: [
        f"egress = {c.const(cmd.port)}", c.event(cmd.ordinal, cmd.op, (cmd.port,))
    ],
}


class _Compiler:
    """The Python dialect of ``flow_ast.render``, for the body of one
    processor's run function: (packet, state) to (trace events, egress
    port, outgoing packet). Every hook returns statements. Variables are
    the locals ``v<i>`` in declaration order, rings ``r<i>`` and their
    heads ``r<i>_head``. Constants that tell processors of one shape
    apart (state keys, operand values, ports, events) are the namespace's
    ``k<i>``, so that such processors share one source text and one code
    object."""

    def __init__(self, proc: FlowProcessor) -> None:
        self.consts = []
        self.outputs = proc.output.fields if proc.output is not None else ()
        self.var = {name: f"v{i}" for i, name in enumerate(proc._vars)}
        self.ring = {name: f"r{i}" for i, name in enumerate(proc._rings)}
        self.key = {d.name: self.const((proc.name, d.name)) for d in (*proc.shared, *proc.rings)}

    def const(self, value) -> str:
        self.consts.append(value)
        return f"k{len(self.consts) - 1}"

    def operand(self, op) -> str:
        return self.const(op.magnitude) if isinstance(op, UValue) else self.var[op.name]

    def event(self, ordinal, kind: str, seen: tuple = ()) -> str:
        """The statement recording a constant trace event."""
        return f"append({self.const(TraceEvent(ordinal, kind, seen, seen))})"

    def op(self, cmd, py) -> list:
        entry = _PY[type(cmd)]
        target, reads = None, []
        for name, role in cmd.roles:
            if role is TARGET:
                target = getattr(cmd, name)
            elif role is RING:
                py.ring = self.ring[py.ring]
            elif role in READS:
                reads.append(name)
        if target is None:
            return entry(self, cmd, py)
        # Operands are recorded as read before the write: one that is the
        # target itself reads as its old value ``t``.
        for name in reads:
            if getattr(py, name) == py.target:
                setattr(py, name, "t")
        py.mask = hex(target.width.mask)
        read = "".join(f"{getattr(py, name)}, " for name in reads)
        event = f"append(new(TE, ({cmd.ordinal}, {cmd.op!r}, (t, {read}), ({py.target}, {read}))))"
        return [f"t = {py.target}", f"{py.target} = {entry(self, cmd, py)}", event]

    @staticmethod
    def _branch(cmd, kind: str, seen: str) -> list:
        """The statements recording the value a branch is chosen on."""
        return [f"c = ({seen},)", f"append(new(TE, ({cmd.ordinal}, {kind!r}, c, c)))"]

    def if_(self, cmd, then: list, orelse: Optional[list]) -> list:
        seen = self.var[cmd.cond.name]
        lines = [*self._branch(cmd, "if", seen), f"if {seen} == 1:", then or ["pass"]]
        if orelse is not None:
            lines += ["else:", orelse or ["pass"]]
        return lines

    def switch(self, cmd, cases: list) -> list:
        seen = self.operand(cmd.selector)
        lines = self._branch(cmd, "switch", seen)
        for i, (value, _, body) in enumerate(cases):
            head = f"{'elif' if i else 'if'} {seen} == {self.const(value.magnitude)}"
            lines += [f"{head}:", body or ["pass"]]
        return lines

    def atomic(self, cmd, body: list) -> list:
        return [
            self.event(cmd.ordinal, "atomic_begin"),
            *body,
            self.event(cmd.end_ordinal, "atomic_end"),
        ]


def _compiled(proc: FlowProcessor):
    """The run function of a processor, compiled again whenever its
    builder has taken another call since. It is kept on the processor, as
    ``(builder ordinal, run function)`` in ``proc._compiled``."""
    ordinal, run = proc._compiled
    if ordinal == proc._ordinal:
        return run
    c = _Compiler(proc)
    unpack = "".join(f"{c.var[f.name]}, " for f in proc.input.fields)
    output = proc.output
    body = [
        "payload, ingress = packet.payload, packet.ingress_port",
        "eth, ipv4, udp, tcp = packet.eth, packet.ipv4, packet.udp, packet.tcp",
    ]
    # The outgoing headers, one branch per stack, are built first, so that
    # a field that does not fit leaves the state untouched.
    for i, (stack, (l4, _)) in enumerate(TRANSPORT.items()):
        body += [f"{'elif' if i else 'if'} {l4} is not None:", _headers(stack, proc, c)]
    body += [
        "shared, rng = state.shared, state.rng",
        f"{unpack}= unpack_from({_format(proc.input)!r}, payload)",
        *(f"{c.var[d.name]} = 0" for d in (*c.outputs, *proc.locals)),
        *(f"{c.var[d.name]} = shared[{c.key[d.name]}]" for d in proc.shared),
        *(f"{c.ring[r.name]} = state.rings[{c.key[r.name]}]" for r in proc.rings),
        *(f"{c.ring[r.name]}_head = shared[{c.key[r.name]}]" for r in proc.rings),
        "egress, events = ingress ^ 1, [MATCH]",
        "append = events.append",
        *render(proc.body, c),
        # Every register is written back: one the body did not write still
        # holds the value read above.
        *(f"shared[{c.key[d.name]}] = {c.var[d.name]}" for d in proc.shared),
        *(f"shared[{c.key[r.name]}] = {c.ring[r.name]}_head" for r in proc.rings),
    ]
    if output is None:
        payload = "bytes(payload)"
    else:
        # struct.pack checks that every output value fits its width.
        values = "".join(f"{c.var[f.name]}, " for f in c.outputs)
        tail = "" if proc.truncate_payload else f" + payload[{proc.input.byte_size}:]"
        payload = f"pack({_format(output)!r}, {values}){tail}"
    body.append(f"return tuple(events), egress, SimPacket(ingress, eth, ipv4, udp, tcp, {payload})")
    source = flatten(["def run(packet, state):", body], 0)
    namespace = {**_NAMESPACE, **{f"k{i}": v for i, v in enumerate(c.consts)}}
    exec(_code(source, "<processor>", "exec"), namespace)
    proc._compiled = (proc._ordinal, namespace["run"])
    return namespace["run"]


def _headers(stack: ProtocolStack, proc: FlowProcessor, c: _Compiler) -> list:
    """The statements that build a packet's outgoing standard headers on
    ``stack``: copies, with the rewrites of ``selector.FIXUPS`` when
    ``proc`` has an output layout. Each field these read (the recomputed
    checksum's whole header, each length field) must be an int within its
    width, and a bool is not an int."""
    lines = [f"{h} = dict({h})" for h in STACK_HEADERS[stack]]
    if proc.output is None:
        return lines
    summed, checksum = RECOMPUTED.split(".")
    reads = {summed: tuple(HEADER_FIELD_BITS[summed])}
    reads |= {h: (n,) for h, n in (f.split(".") for f in FIXUPS[stack][0]) if h not in reads}
    for header, names in reads.items():
        local = [f"{header}_{name}" for name in names]
        fits = " | ".join(f"{v} >> {HEADER_FIELD_BITS[header][n]}" for v, n in zip(local, names))
        lines += [
            f"{', '.join(local)} = {c.const(itemgetter(*names))}({header})",
            f"if not ({' is '.join(f'{v}.__class__' for v in local)} is int) or {fits}:",
            [f"raise unfit({header!r}, {header}, {names!r})"],
        ]
    for field, (op, n) in rewrites(stack, proc).items():
        header, name = field.split(".")
        local = f"{header}_{name}"
        lines += [f"{local} = ({local} {op} {n}) & 0xFFFF" if op else f"{local} = {n}",
                  f"{header}[{name!r}] = {local}"]
    # Each field the checksum covers is added at its offset in a 16-bit word.
    words, offset = [], 0
    for name, bits in reversed(HEADER_FIELD_BITS[summed].items()):
        if name != checksum:
            words.append(f"({summed}_{name} << {offset % 16})" if offset % 16 else f"{summed}_{name}")
        offset += bits
    return lines + [f"{summed}[{checksum!r}] = fold({' + '.join(reversed(words))})"]


def _format(layout: HeaderLayout) -> str:
    """The struct format of a layout: big-endian, one code per field."""
    return ">" + "".join({8: "B", 16: "H", 32: "I", 64: "Q"}[f.width] for f in layout.fields)


# Processors of one shape share their source text, compiled once.
_code = lru_cache(maxsize=256)(compile)


def simulate_packet(
    solution: Solution, state: SimState, packet: SimPacket
) -> tuple[SimResult, SimState]:
    """Run one packet. The state is updated in place and also returned:
    the matched processor reads its registers before its body and writes
    them all back after it. A malformed packet leaves the state untouched.

    The input packet is never mutated; a PASSTHROUGH result carries it
    unchanged, a PROCESSED result carries a rebuilt copy.
    """
    sel = classify(solution, packet)  # validates the packet, its port first
    if sel is None:
        return SimResult(PASSTHROUGH, None, packet.ingress_port ^ 1, packet), state
    events, egress, out = _compiled(sel.processor)(packet, state)
    return SimResult(PROCESSED, sel.name, egress, out, events), state


def iter_trace(solution: Solution, packets, seed: int = 0) -> Iterator[SimResult]:
    """Simulate packets in order through one shared state, yielding each
    result as soon as it is made. Per-packet malformed-packet errors are
    recorded on the result, not raised; such a result leaves through the
    default egress ``ingress_port ^ 1``, or -1 (no port) when the ingress
    port itself is not an int in 0..65535."""
    state = initial_state(solution, seed)
    for packet in packets:
        try:
            result, state = simulate_packet(solution, state, packet)
        except MalformedPacket as e:
            port = packet.ingress_port
            result = SimResult(
                PASSTHROUGH,
                None,
                port ^ 1 if port.__class__ is int and 0 <= port <= PORT_MAX else -1,
                packet,
                error=str(e),
            )
        yield result


def run_trace(solution: Solution, packets, seed: int = 0) -> list[SimResult]:
    """The results of ``iter_trace`` as a list."""
    return list(iter_trace(solution, packets, seed))
