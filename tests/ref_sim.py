"""A tree-walking reference for running one processor on one payload.

It walks the builder's command tree (flow_ast types) with an environment
dict, one step per command, the way the simulator did before it compiled
processors. It does not import p4flowgen.simulator, so agreement between
the two means something. Packet headers, classification and egress
fixups are out of its scope: it maps an input payload to trace events,
an egress port and the new payload.
"""

from oracles import splitmix64_stream

from p4flowgen.core_model import UValue
from p4flowgen.flow_ast import (
    Add,
    AssignConst,
    AssignVar,
    AtomicNode,
    Cast,
    Equals,
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
)


class RefState:
    """What persists across packets: shared values and rings by name, and
    the splitmix64 output stream."""

    def __init__(self, proc, seed: int) -> None:
        self.shared = {d.name: d.initial.magnitude for d in proc.shared}
        self.rings = {r.name: [[0] * r.capacity, 0] for r in proc.rings}
        self.rng = splitmix64_stream(seed)


def _big_endian(layout, values: dict) -> bytes:
    return b"".join(values[f.name].to_bytes(f.width.nbytes, "big") for f in layout.fields)


def run(proc, payload: bytes, ingress_port: int, state: RefState):
    """(trace events as plain tuples, egress port or None, new payload or
    None when the processor has no output)."""
    env, offset = {}, 0
    for f in proc.input.fields:
        env[f.name] = int.from_bytes(payload[offset : offset + f.width.nbytes], "big")
        offset += f.width.nbytes
    for d in (*(proc.output.fields if proc.output else ()), *proc.locals):
        env[d.name] = 0
    env.update(state.shared)
    run = _Run(env, state, ingress_port)
    run.block(proc.body)
    if proc.output is None:
        return run.events, run.egress, None
    out = _big_endian(proc.output, env)
    if not proc.truncate_payload:
        out += payload[proc.input.byte_size :]
    return run.events, run.egress, out


class _Run:
    def __init__(self, env: dict, state: RefState, ingress_port: int) -> None:
        self.env = env
        self.state = state
        self.ingress_port = ingress_port
        self.egress = None
        self.events = [(0, "match", (), ())]

    def read(self, op) -> int:
        return op.magnitude if isinstance(op, UValue) else self.env[op.name]

    def block(self, block) -> None:
        for cmd in block.commands:
            self.command(cmd)

    def command(self, cmd) -> None:
        if isinstance(cmd, IfNode):
            cond = self.env[cmd.cond.name]
            self.events.append((cmd.ordinal, "if", (cond,), (cond,)))
            if cond == 1:
                self.block(cmd.then_block)
            elif cmd.else_block is not None:
                self.block(cmd.else_block)
        elif isinstance(cmd, SwitchNode):
            chosen = self.read(cmd.selector)
            self.events.append((cmd.ordinal, "switch", (chosen,), (chosen,)))
            for value, _, case_block in cmd.cases:
                if value.magnitude == chosen:
                    self.block(case_block)
                    break
        elif isinstance(cmd, AtomicNode):
            self.events.append((cmd.ordinal, "atomic_begin", (), ()))
            self.block(cmd.block)
            self.events.append((cmd.end_ordinal, "atomic_end", (), ()))
        elif isinstance(cmd, RingPush):
            ring = self.state.rings[cmd.ring]
            value, head = self.read(cmd.source), ring[1]
            ring[0][head] = value
            ring[1] = (head + 1) % len(ring[0])
            self.events.append((cmd.ordinal, cmd.op, (value, head), (value, ring[1])))
        elif isinstance(cmd, SendBack):
            self.egress = self.ingress_port
            self.events.append((cmd.ordinal, cmd.op, (), ()))
        elif isinstance(cmd, Forward):
            self.egress = cmd.port
            self.events.append((cmd.ordinal, cmd.op, (cmd.port,), (cmd.port,)))
        else:
            self.write(cmd)

    def write(self, cmd) -> None:
        """An op with a target: operands are read before the write."""
        modulus = 1 << cmd.target.width.bits
        if isinstance(cmd, (AssignConst, AssignVar, Cast)):
            operands = (self.read(cmd.value if isinstance(cmd, AssignConst) else cmd.source),)
            result = operands[0] % modulus
        elif isinstance(cmd, (Add, Sub, Equals, Greater)):
            lhs, rhs = operands = (self.read(cmd.lhs), self.read(cmd.rhs))
            result = {
                Add: lambda: (lhs + rhs) % modulus,
                Sub: lambda: (lhs - rhs) % modulus,
                Equals: lambda: int(lhs == rhs),
                Greater: lambda: int(lhs > rhs),
            }[type(cmd)]()
        elif isinstance(cmd, Rand):
            operands, result = (), next(self.state.rng) % modulus
        elif isinstance(cmd, RingReadHead):
            slots, head = self.state.rings[cmd.ring]
            operands, result = (), slots[head]
        else:
            raise TypeError(f"no reference for {cmd!r}")
        before = self.env[cmd.target.name]
        self.env[cmd.target.name] = result
        if cmd.target.scope is Scope.SHARED:
            self.state.shared[cmd.target.name] = result
        self.events.append((cmd.ordinal, cmd.op, (before, *operands), (result, *operands)))
