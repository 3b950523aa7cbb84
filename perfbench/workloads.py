"""Seeded workload generator for the p4flowgen benchmark.

Each workload is a program document, a trace document and a spec: the
parameters the reference checker needs to predict every result without
importing p4flowgen. The same seed always gives byte-identical files.

    python3 perfbench/workloads.py --workload many_flows --seed 1 --out DIR

Only the many_flows program is built here (through the public builder,
then ``solution_to_doc``); guess_stream and agg_bulk use the shipped
example programs unchanged.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
ASSETS = SRC / "p4flowgen" / "assets"

DEFAULT_SEED = 20221
WORKLOADS = ("guess_stream", "agg_bulk", "many_flows")

# Trace sizes: long enough that trace validation and result dumping are
# visible next to run_trace, short enough for several CLI runs per second
# of budget.
PACKETS = {"guess_stream": 2000, "agg_bulk": 600, "many_flows": 1000}

GUESS_PORT = 5555
AGG_PORT = 6666
MAX_UDP_PAYLOAD = 1500 - 20 - 8  # one Ethernet MTU

MANY_FLOWS = 32
MF_INPUT_BYTES = 6  # tag u16 + val u32


def ensure_checkout() -> None:
    """Put this checkout's ``src`` first on sys.path, or exit if the
    checkout lacks the package or the test oracles: the benchmark must
    never measure some other installed copy."""
    for needed in (SRC / "p4flowgen" / "__init__.py", REPO / "tests" / "oracles.py"):
        if not needed.is_file():
            sys.exit(f"error: {needed} is missing; run from a p4flowgen checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _other_port(rng: random.Random, taken) -> int:
    while True:
        port = rng.randrange(1 << 16)
        if port not in taken:
            return port


def _packet(rng, l4, dst_port, payload: bytes) -> dict:
    """A trace packet: ingress port and source port from their full ranges,
    header fields not named here keep the trace format's defaults."""
    return {
        "ingress_port": rng.randrange(1 << 16),
        l4: {"dstPort": str(dst_port), "srcPort": str(rng.randrange(1 << 16))},
        "payload": payload.hex(),
    }


def _mix(rng: random.Random, n: int, shares: dict[str, float]) -> list[str]:
    """n packet kinds in a seeded order: each kind in ``shares`` makes
    exactly its share of the n (rounded), the rest are "hit". Exact counts
    keep the cost of a trace the same from seed to seed, so that the
    benchmark's spread over seeds is not a spread of inputs."""
    kinds = [kind for kind, share in shares.items() for _ in range(round(n * share))]
    kinds += ["hit"] * (n - len(kinds))
    rng.shuffle(kinds)
    return kinds


# -- guess_stream ------------------------------------------------------------


def guess_stream(seed: int) -> tuple[dict, dict]:
    """One-byte guesses; a tenth go to other ports, one in twenty is empty
    and fails the input-length check."""
    rng = random.Random(f"guess_stream:{seed}")
    packets = []
    for kind in _mix(rng, PACKETS["guess_stream"], {"other": 0.10, "empty": 0.05}):
        if kind == "other":
            port, payload = _other_port(rng, {GUESS_PORT}), rng.randbytes(1)
        elif kind == "empty":
            port, payload = GUESS_PORT, b""
        else:
            port, payload = GUESS_PORT, rng.randbytes(1)
        packets.append(_packet(rng, "udp", port, payload))
    trace = {"seed": rng.randrange(1 << 63), "packets": packets}
    return trace, {"program": "guess_game", "port": GUESS_PORT}


# -- agg_bulk ----------------------------------------------------------------


def agg_bulk(seed: int) -> tuple[dict, dict]:
    """Payloads from 4 bytes to a full MTU; a tenth go to other ports, one
    in twenty is shorter than the 4-byte input."""
    rng = random.Random(f"agg_bulk:{seed}")
    packets = []
    for kind in _mix(rng, PACKETS["agg_bulk"], {"other": 0.10, "short": 0.05}):
        if kind == "other":
            port = _other_port(rng, {AGG_PORT})
            payload = rng.randbytes(rng.randrange(MAX_UDP_PAYLOAD + 1))
        elif kind == "short":
            port, payload = AGG_PORT, rng.randbytes(rng.randrange(4))
        else:
            port = AGG_PORT
            payload = rng.randbytes(rng.randrange(4, MAX_UDP_PAYLOAD + 1))
        packets.append(_packet(rng, "udp", port, payload))
    trace = {"seed": rng.randrange(1 << 63), "packets": packets}
    return trace, {"program": "insert_agg", "port": AGG_PORT}


# -- many_flows --------------------------------------------------------------


def many_flows_spec(rng: random.Random) -> list[dict]:
    """Flow parameters. Flows come in pairs; in every other pair both flows
    share one port and are told apart by a lookahead ``tag`` criterion.
    Every third pair is TCP."""
    ports: set[int] = set()
    flows = []
    for i in range(MANY_FLOWS):
        pair = i // 2
        shared_port = pair % 2 == 0
        if i % 2 == 1 and shared_port:
            port = flows[-1]["port"]
            tag = _other_port(rng, {flows[-1]["tag"]})
        else:
            port = _other_port(rng, ports)
            tag = rng.randrange(1 << 16) if shared_port else None
        ports.add(port)
        flows.append({
            "name": f"f{i}",
            "stack": "IPV4_TCP" if pair % 3 == 2 else "IPV4_UDP",
            "port": port,
            "tag": tag,
            "initial": rng.randrange(1 << 32),
            "capacity": rng.randrange(2, 9),
            "threshold": rng.randrange(1 << 32),
            "port_hi": rng.randrange(1 << 16),
            "port_lo": rng.randrange(1 << 16),
        })
    return flows


def many_flows_program(flows: list[dict]) -> dict:
    """Build the many_flows program through the builder API. Each processor
    accumulates ``val`` into a shared register, reads and pushes a ring,
    branches on a threshold and forwards to one of two ports."""
    ensure_checkout()
    from p4flowgen import (
        U16, U32, Add, AssignVar, FieldDecl, Forward, Greater, HeaderLayout,
        ProtocolStack, RingBufferDecl, RingPush, RingReadHead,
        SharedVariableDecl, Solution, Sub, UValue, bool_local, local,
        new_flow_processor, new_flow_selector, solution_to_doc, u16, u32,
    )

    req = HeaderLayout("mf_req", [FieldDecl("tag", U16), FieldDecl("val", U32)])
    resp = HeaderLayout("mf_resp", [FieldDecl("acc", U32), FieldDecl("prev", U32)])
    selectors = []
    for f in flows:
        p = new_flow_processor(
            f["name"],
            input=req,
            output=resp,
            locals=[bool_local("big"), local("seen", U32)],
            shared=[SharedVariableDecl("total", U32, UValue(U32, f["initial"]))],
            rings=[RingBufferDecl("hist", U32, f["capacity"])],
        )
        total, val = p.var("total"), p.var("val")
        p.body.add(Add(total, total, val))
        p.body.add(RingReadHead("hist", p.var("seen")))
        p.body.add(RingPush("hist", val))
        p.body.add(Greater(p.var("big"), val, u32(f["threshold"])))
        hi = p.body.If(p.var("big"))
        hi.add(AssignVar(p.var("acc"), total)).add(Forward(f["port_hi"]))
        lo = hi.Else()
        lo.add(Sub(p.var("acc"), total, val)).add(Forward(f["port_lo"]))
        lo.EndIf()
        p.body.add(AssignVar(p.var("prev"), p.var("seen")))
        l4 = "tcp" if f["stack"] == "IPV4_TCP" else "udp"
        criteria = [(f"{l4}.dstPort", u16(f["port"]))]
        if f["tag"] is not None:
            criteria.append(("tag", u16(f["tag"])))
        selectors.append(new_flow_selector(
            f"{f['name']}_sel", ProtocolStack(f["stack"]), criteria, p,
            lookahead=req if f["tag"] is not None else None,
        ))
    return solution_to_doc(Solution(selectors))


def many_flows_trace(rng: random.Random, flows: list[dict]) -> dict:
    """Traffic spread evenly over all flows. A fifth misses: an unused
    port, or a shared port with an unknown tag. One in fifty matched
    packets is too short for the flow's input or lookahead window."""
    ports = {f["port"] for f in flows}
    shared = [f for f in flows if f["tag"] is not None]
    hits, misses = _deal(rng, flows), _deal(rng, shared)
    packets = []
    kinds = _mix(rng, PACKETS["many_flows"], {"unused": 0.10, "unknown": 0.10, "short": 0.016})
    for kind in kinds:
        extra = rng.randbytes(rng.randrange(33))
        if kind == "unused":
            l4 = rng.choice(("udp", "tcp"))
            port = _other_port(rng, ports)
            payload = rng.randbytes(MF_INPUT_BYTES) + extra
        elif kind == "unknown":
            f = next(misses)
            tags = {g["tag"] for g in shared if g["port"] == f["port"]}
            l4 = "tcp" if f["stack"] == "IPV4_TCP" else "udp"
            port = f["port"]
            payload = _other_port(rng, tags).to_bytes(2, "big") + rng.randbytes(4) + extra
        else:
            f = next(hits)
            l4 = "tcp" if f["stack"] == "IPV4_TCP" else "udp"
            port = f["port"]
            tag = f["tag"] if f["tag"] is not None else rng.randrange(1 << 16)
            payload = tag.to_bytes(2, "big") + rng.randbytes(4) + extra
            if kind == "short":
                payload = payload[: rng.randrange(MF_INPUT_BYTES)]
        packets.append(_packet(rng, l4, port, payload))
    return {"seed": rng.randrange(1 << 63), "packets": packets}


def _deal(rng: random.Random, flows: list[dict]):
    """Flows without end, each pass over all of them in a new seeded order,
    so that every flow gets the same number of packets give or take one."""
    while True:
        order = flows[:]
        rng.shuffle(order)
        yield from order


def many_flows(seed: int) -> tuple[dict, dict, dict]:
    rng = random.Random(f"many_flows:{seed}")
    flows = many_flows_spec(rng)
    trace = many_flows_trace(rng, flows)
    return many_flows_program(flows), trace, {"program": "many_flows", "flows": flows}


# -- files -------------------------------------------------------------------


def dumps(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def generate(name: str, seed: int) -> tuple[str, str, dict]:
    """(program text, trace text, spec) for one workload and seed."""
    if name == "guess_stream":
        trace, spec = guess_stream(seed)
        program = (ASSETS / "guess_game.json").read_text()
    elif name == "agg_bulk":
        trace, spec = agg_bulk(seed)
        program = (ASSETS / "insert_agg.json").read_text()
    elif name == "many_flows":
        doc, trace, spec = many_flows(seed)
        program = dumps(doc)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return program, dumps(trace), spec


def write(name: str, seed: int, out_dir: Path) -> tuple[Path, Path, dict]:
    """Write ``program.json``, ``trace.json`` and ``spec.json`` under
    out_dir; returns the program and trace paths and the spec."""
    program, trace, spec = generate(name, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "program.json").write_text(program)
    (out_dir / "trace.json").write_text(trace)
    (out_dir / "spec.json").write_text(dumps(spec))
    return out_dir / "program.json", out_dir / "trace.json", spec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    for path in write(args.workload, args.seed, args.out)[:2]:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
