"""Reference model for the benchmark's three programs.

Predicts every field of every result document from the trace document and
the workload spec, and lists where a results document disagrees. It does
not import p4flowgen, so agreement means something; the splitmix64
stream, the guess comparator and the RFC 1071 fold come from the test
suite's oracles, which do not import it either.

    python3 perfbench/reference.py SPEC TRACE RESULTS

exits 1 and lists the mismatches when RESULTS disagrees with the model.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_TESTS = Path(__file__).resolve().parent.parent / "tests"
if str(_TESTS) not in sys.path:
    sys.path.insert(0, str(_TESTS))

from oracles import guess_reference, rfc1071_naive, splitmix64_stream  # noqa: E402

M16 = 0xFFFF
M32 = 0xFFFFFFFF

# The trace format's packet skeleton (docs/formats.md): fields a trace
# packet does not name take these values.
_ETH = {"dstAddr": 0x020000000002, "srcAddr": 0x020000000001, "etherType": 0x0800}
_L4_BYTES = {"udp": 8, "tcp": 20}
_PROTOCOL = {"udp": 17, "tcp": 6}


def ipv4_bytes(h: dict) -> bytes:
    words = [
        (h["version"] << 12) | (h["ihl"] << 8) | (h["dscp"] << 2) | h["ecn"],
        h["totalLen"],
        h["identification"],
        (h["flags"] << 13) | h["fragOffset"],
        (h["ttl"] << 8) | h["protocol"],
        h["hdrChecksum"],
        h["srcAddr"] >> 16, h["srcAddr"] & M16,
        h["dstAddr"] >> 16, h["dstAddr"] & M16,
    ]
    return b"".join(w.to_bytes(2, "big") for w in words)


def _with_checksum(h: dict) -> dict:
    h = dict(h, hdrChecksum=0)
    h["hdrChecksum"] = rfc1071_naive(ipv4_bytes(h))
    return h


def input_packet(pdoc: dict) -> dict:
    """Integer header fields of a trace packet: skeleton first, explicit
    fields overlaid (an overlaid field does not refresh the checksum)."""
    l4 = "udp" if "udp" in pdoc else "tcp"
    payload = bytes.fromhex(pdoc["payload"])
    length = _L4_BYTES[l4] + len(payload)
    groups = {
        "eth": dict(_ETH),
        "ipv4": _with_checksum({
            "version": 4, "ihl": 5, "dscp": 0, "ecn": 0,
            "totalLen": 20 + length, "identification": 0, "flags": 0,
            "fragOffset": 0, "ttl": 64, "protocol": _PROTOCOL[l4],
            "hdrChecksum": 0, "srcAddr": 0x0A000001, "dstAddr": 0x0A000002,
        }),
    }
    if l4 == "udp":
        groups["udp"] = {"srcPort": 40000, "dstPort": 0, "len": length, "checksum": 0}
    else:
        groups["tcp"] = {
            "srcPort": 40000, "dstPort": 0, "seqNo": 0, "ackNo": 0,
            "dataOffset": 5, "flags": 0x18, "window": 65535, "checksum": 0,
            "urgentPtr": 0,
        }
    for group, fields in groups.items():
        for name, text in pdoc.get(group, {}).items():
            fields[name] = int(text, 16) if text.startswith("0x") else int(text)
    return {"ingress": pdoc.get("ingress_port", 0), "l4": l4,
            "payload": payload, **groups}


class Malformed(Exception):
    """The packet matched a flow but is too short for it."""


# -- programs ----------------------------------------------------------------
#
# Each model maps one input packet to (selector, egress, new payload, trace
# event kinds), or None for a passthrough, and raises Malformed when the
# packet is too short for the flow it matched. State carries across packets.


class GuessGame:
    EVENTS_HIT = ["match", "atomic_begin", "equals", "greater", "if",
                  "assign_const", "assign_const", "rand", "atomic_end", "send_back"]
    EVENTS_MISS = ["match", "atomic_begin", "equals", "greater", "if", "if",
                   "assign_const", "assign_const", "atomic_end", "send_back"]

    def __init__(self, spec: dict, seed: int) -> None:
        self.port = spec["port"]
        self.secret = 42
        self.redraws = splitmix64_stream(seed)

    def run(self, pkt: dict):
        if pkt["l4"] != "udp" or pkt["udp"]["dstPort"] != self.port:
            return None
        if not pkt["payload"]:
            raise Malformed
        guess = pkt["payload"][0]
        reply = guess_reference(self.secret, guess)
        if guess == self.secret:
            self.secret = next(self.redraws) & 0xFF
            events = self.EVENTS_HIT
        else:
            events = self.EVENTS_MISS
        return "guess_sel", pkt["ingress"], reply, events


class InsertAgg:
    EVENTS = ["match", "cast", "cast", "add", "assign_var", "assign_var"]

    def __init__(self, spec: dict, seed: int) -> None:
        self.port = spec["port"]

    def run(self, pkt: dict):
        if pkt["l4"] != "udp" or pkt["udp"]["dstPort"] != self.port:
            return None
        payload = pkt["payload"]
        if len(payload) < 4:
            raise Malformed
        total = int.from_bytes(payload[:2], "big") + int.from_bytes(payload[2:4], "big")
        return ("agg_sel", pkt["ingress"] ^ 1,
                total.to_bytes(4, "big") + payload, self.EVENTS)


class ManyFlows:
    INPUT_BYTES = 6

    def __init__(self, spec: dict, seed: int) -> None:
        self.flows = spec["flows"]
        self.total = [f["initial"] for f in self.flows]
        self.rings = [[0] * f["capacity"] for f in self.flows]
        self.heads = [0] * len(self.flows)

    def _match(self, pkt: dict):
        l4, payload = pkt["l4"], pkt["payload"]
        for i, f in enumerate(self.flows):
            if f["stack"] != ("IPV4_UDP" if l4 == "udp" else "IPV4_TCP"):
                continue
            if pkt[l4]["dstPort"] != f["port"]:
                continue
            if f["tag"] is not None:
                if len(payload) < self.INPUT_BYTES:
                    raise Malformed
                if int.from_bytes(payload[:2], "big") != f["tag"]:
                    continue
            if len(payload) < self.INPUT_BYTES:
                raise Malformed
            return i
        return None

    def run(self, pkt: dict):
        i = self._match(pkt)
        if i is None:
            return None
        f, payload = self.flows[i], pkt["payload"]
        val = int.from_bytes(payload[2:6], "big")
        self.total[i] = (self.total[i] + val) & M32
        ring, head = self.rings[i], self.heads[i]
        seen = ring[head]
        ring[head] = val
        self.heads[i] = (head + 1) % len(ring)
        if val > f["threshold"]:
            acc, egress, branch = self.total[i], f["port_hi"], "assign_var"
        else:
            acc, egress, branch = (self.total[i] - val) & M32, f["port_lo"], "sub"
        events = ["match", "add", "ring_read_head", "ring_push", "greater",
                  "if", branch, "forward", "assign_var"]
        out = acc.to_bytes(4, "big") + seen.to_bytes(4, "big") + payload[6:]
        return f"{f['name']}_sel", egress, out, events


MODELS = {"guess_game": GuessGame, "insert_agg": InsertAgg, "many_flows": ManyFlows}


# -- results -----------------------------------------------------------------


def _strings(fields: dict) -> dict:
    return {k: str(v) for k, v in fields.items()}


def expected_result(model, pdoc: dict) -> dict:
    """The result document the model predicts for one trace packet, with the
    trace reduced to its event kinds."""
    pkt = input_packet(pdoc)
    l4 = pkt["l4"]
    try:
        outcome = model.run(pkt)
        error = None
    except Malformed:
        outcome, error = None, True
    if outcome is None:
        doc = {"verdict": "PASSTHROUGH", "selector": None,
               "egress_port": pkt["ingress"] ^ 1,
               "eth": _strings(pkt["eth"]), "ipv4": _strings(pkt["ipv4"]),
               l4: _strings(pkt[l4]), "payload_hex": pkt["payload"].hex(),
               "trace": []}
        if error:
            doc["error"] = True
        return doc
    selector, egress, payload, events = outcome
    delta = len(payload) - len(pkt["payload"])
    ipv4 = _with_checksum(dict(pkt["ipv4"], totalLen=(pkt["ipv4"]["totalLen"] + delta) & M16))
    l4_fields = dict(pkt[l4])
    if l4 == "udp":
        l4_fields.update(len=(l4_fields["len"] + delta) & M16, checksum=0)
    return {"verdict": "PROCESSED", "selector": selector, "egress_port": egress,
            "eth": _strings(pkt["eth"]), "ipv4": _strings(ipv4),
            l4: _strings(l4_fields), "payload_hex": payload.hex(),
            "trace": events}


def _observed(rdoc: dict) -> dict:
    doc = dict(rdoc, trace=[e["kind"] for e in rdoc.get("trace", [])])
    if "error" in doc:
        # Any too-short diagnostic is the predicted outcome; its wording
        # is not part of the model.
        doc["error"] = "too short" in str(doc["error"])
    return doc


def mismatches(spec: dict, trace_doc: dict, results_doc: dict) -> list[str]:
    """One line per result that disagrees with the model; a missing or
    extra result counts as one mismatch each."""
    problems = []
    if results_doc.get("seed") != trace_doc["seed"]:
        problems.append(f"seed: {results_doc.get('seed')} != {trace_doc['seed']}")
    model = MODELS[spec["program"]](spec, trace_doc["seed"])
    packets, results = trace_doc["packets"], results_doc.get("results", [])
    for i, pdoc in enumerate(packets):
        if i >= len(results):
            problems.append(f"results[{i}]: missing")
            continue
        want, got = expected_result(model, pdoc), _observed(results[i])
        if want != got:
            keys = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
            problems.append(f"results[{i}]: differs in {', '.join(keys)}")
    for i in range(len(packets), len(results)):
        problems.append(f"results[{i}]: unexpected")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Check a results document against the reference model.")
    parser.add_argument("spec", type=Path)
    parser.add_argument("trace", type=Path)
    parser.add_argument("results", type=Path)
    args = parser.parse_args(argv)
    spec, trace, results = (
        json.loads(p.read_text()) for p in (args.spec, args.trace, args.results)
    )
    problems = mismatches(spec, trace, results)
    for line in problems:
        print(line)
    print(f"{len(trace['packets'])} packets, {len(problems)} mismatches")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
