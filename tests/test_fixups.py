"""The header fixups behind a processor body, in the simulator and in each
emitted flow branch.

The P4 side is run on header field maps: ``p4scan.fixup_assignments``
applies a branch's standard-header assignments, and the template's
``update_checksum`` recomputes the IPv4 checksum when the branch sets
``meta.app_resized``. A packet that matches no flow runs no branch. The
outgoing headers must be the simulator's.
"""

import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import rfc1071_naive
from p4scan import fixup_assignments, flow_branches
from test_codegen import template_block, template_checksum_update

from p4flowgen.builtin_examples import guess_game_solution, insert_agg_solution
from p4flowgen.codegen import Solution, generate, load_template
from p4flowgen.core_model import U16, FieldDecl, HeaderLayout, u16
from p4flowgen.flow_ast import AssignVar, Forward, new_flow_processor
from p4flowgen.program_doc import load_json, solution_from_doc
from p4flowgen.selector import TRANSPORT, ProtocolStack, new_flow_selector
from p4flowgen.simulator import (
    PASSTHROUGH,
    PROCESSED,
    classify,
    initial_state,
    make_tcp_packet,
    make_udp_packet,
    simulate_packet,
)

# The template's header instances, by the simulator's names.
INSTANCES = {"ethernet": "eth", "ipv4": "ipv4", "udp": "udp", "tcp": "tcp"}


def same_size_solution():
    """One u16 in and one u16 out, bound on both stacks, so that a payload
    rewrite leaves every length as it was; and a processor without an
    output layout."""
    proc = new_flow_processor(
        "same",
        input=HeaderLayout("same_req", [FieldDecl("a", U16)]),
        output=HeaderLayout("same_resp", [FieldDecl("b", U16)]),
    )
    proc.body.add(AssignVar(proc.var("b"), proc.var("a")))
    plain = new_flow_processor("plain", input=HeaderLayout("plain_req", [FieldDecl("a", U16)]))
    plain.body.add(Forward(3))
    return Solution([
        new_flow_selector("same_udp", ProtocolStack.IPV4_UDP, [("udp.dstPort", u16(5000))], proc),
        new_flow_selector("same_tcp", ProtocolStack.IPV4_TCP, [("tcp.dstPort", u16(5000))], proc),
        new_flow_selector("plain_udp", ProtocolStack.IPV4_UDP, [("udp.dstPort", u16(5001))], plain),
    ])


PROGRAMS = {
    "guess_game": guess_game_solution(),
    "insert_agg": insert_agg_solution(),
    "all_ops": solution_from_doc(load_json(Path(__file__).parent / "data" / "all_ops.json")),
    "same_size": same_size_solution(),
}
BRANCHES = {
    name: {sel: "\n".join(lines)
           for sel, lines in flow_branches(generate(sol).files["apply.p4inc"]).items()}
    for name, sol in PROGRAMS.items()
}


def header_widths() -> dict[str, dict[str, int]]:
    """The template's header types: instance name to field widths."""
    text = load_template("v1model_basic")
    return {
        name: {field: int(bits) for bits, field in re.findall(r"bit<(\d+)> (\w+);", body)}
        for name, body in re.findall(r"^header (\w+)_t \{([^}]*)\}", text, re.M)
    }


WIDTHS = header_widths()


def p4_egress(branch: str, packet) -> dict:
    """The header maps a packet leaves with after ``branch`` (None for no
    flow) and the template's ``update_checksum``, by the simulator's
    header names."""
    maps = {p4: dict(getattr(packet, sim)) for p4, sim in INSTANCES.items()
            if getattr(packet, sim) is not None}
    resized = False
    if branch is not None:
        for header, field, value in fixup_assignments(branch):
            maps[header][field] = value(maps)
        resized = any(line.strip() == "meta.app_resized = 1w1;" for line in branch.splitlines())
    condition, summed, (header, field) = template_checksum_update()
    assert condition == "meta.app_resized == 1w1"
    if resized:
        word, bits = 0, 0
        for h, f in summed:
            word, bits = word << WIDTHS[h][f] | maps[h][f], bits + WIDTHS[h][f]
        maps[header][field] = rfc1071_naive(word.to_bytes(bits // 8, "big"))
    return {INSTANCES[p4]: fields for p4, fields in maps.items()}


def sim_egress(result) -> dict:
    return {h: getattr(result.packet, h) for h in INSTANCES.values()
            if getattr(result.packet, h) is not None}


def matching_packet(sel, payload: bytes, **fields):
    """A packet that ``sel`` matches: its header fields are the builder's,
    then ``fields`` ("header_field": value), then ``sel``'s criteria; its
    payload is ``payload`` with the lookahead criteria written in."""
    l4 = TRANSPORT[sel.stack][0]
    pkt = (make_udp_packet if l4 == "udp" else make_tcp_packet)(0, payload=b"")
    for key, value in fields.items():
        header, name = key.split("_", 1)
        getattr(pkt, header)[name] = value
    data, offsets, start = bytearray(payload), {}, 0
    for f in sel.lookahead.fields if sel.lookahead is not None else ():
        offsets[f.name], start = (start, f.width.nbytes), start + f.width.nbytes
    for c in sel.criteria:
        if "." in c.field:
            header, name = c.field.split(".")
            getattr(pkt, header)[name] = c.value.magnitude
        else:
            at, size = offsets[c.field]
            data[at:at + size] = c.value.magnitude.to_bytes(size, "big")
    pkt.payload = bytes(data)
    return pkt


def run(name: str, pkt):
    sol = PROGRAMS[name]
    result, _ = simulate_packet(sol, initial_state(sol, seed=5), pkt)
    branch = BRANCHES[name].get(result.selector)
    return result, branch


u16s = st.integers(0, 0xFFFF)


@st.composite
def fixup_cases(draw):
    """A program, one of its selectors, and a packet it matches whose
    lengths need not agree with the payload and whose checksums need not
    be valid or zero."""
    name = draw(st.sampled_from(sorted(PROGRAMS)))
    sel = draw(st.sampled_from(PROGRAMS[name].selectors))
    need = max(sel.processor.input.byte_size,
               sel.lookahead.byte_size if sel.lookahead is not None else 0)
    l4 = TRANSPORT[sel.stack][0]
    fields = {"ipv4_totalLen": draw(u16s), "ipv4_hdrChecksum": draw(u16s),
              "ipv4_ttl": draw(st.integers(0, 255)), "ipv4_identification": draw(u16s),
              f"{l4}_checksum": draw(u16s)}
    if l4 == "udp":
        fields["udp_len"] = draw(u16s)
    payload = draw(st.binary(min_size=need, max_size=need + 8))
    return name, sel, matching_packet(sel, payload, **fields)


class TestBranchAgreesWithSimulator:
    @given(fixup_cases())
    @settings(max_examples=300, deadline=None)
    def test_emitted_fixups_give_the_simulated_headers(self, case):
        name, sel, pkt = case
        assert classify(PROGRAMS[name], pkt) is sel
        result, branch = run(name, pkt)
        assert result.verdict == PROCESSED and branch is not None
        assert sim_egress(result) == p4_egress(branch, pkt)

    def test_resized_exactly_behind_an_output_layout(self):
        # Every branch's fixups parse, and a branch marks its packet for the
        # checksum update exactly when its processor has an output layout.
        for name, sol in PROGRAMS.items():
            for sel in sol.selectors:
                lines = [line.strip() for line in BRANCHES[name][sel.name].splitlines()]
                fixup_assignments("\n".join(lines))
                resized = "meta.app_resized = 1w1;" in lines
                assert resized == (sel.processor.output is not None), sel.name


class TestDivergencesPinned:
    """Each case once made the simulator and the emitted P4 disagree."""

    def test_truncation_sets_each_length_to_the_bytes_kept(self):
        # totalLen 10 past the payload: the lengths count what is kept.
        sel = PROGRAMS["guess_game"].selectors[0]
        pkt = matching_packet(sel, b"\x07abcd")
        pkt.ipv4["totalLen"] += 10
        result, branch = run("guess_game", pkt)
        out = sim_egress(result)
        assert (out["ipv4"]["totalLen"], out["udp"]["len"]) == (30, 10)
        assert out == p4_egress(branch, pkt)
        assert len(result.packet.to_bytes()) == 44
        assert "truncate(32w44);" in [line.strip() for line in branch.splitlines()]

    @pytest.mark.parametrize("port, verdict", [(5999, PASSTHROUGH), (5001, PROCESSED)])
    def test_stale_ipv4_checksum_is_kept_without_an_output_layout(self, port, verdict):
        # A passthrough packet, and one through a processor without an
        # output layout, keep a header checksum that ttl made stale.
        pkt = make_udp_packet(port, payload=b"\x00\x01", ttl=64)
        pkt.ipv4["ttl"] = 7
        stale = pkt.ipv4["hdrChecksum"]
        result, branch = run("same_size", pkt)
        assert result.verdict == verdict
        assert sim_egress(result)["ipv4"]["hdrChecksum"] == stale
        assert p4_egress(branch, pkt)["ipv4"]["hdrChecksum"] == stale
        # Outside the flow branches, AppIngress rewrites no header.
        assert fixup_assignments(template_block("control", "AppIngress")) == []


class TestNonzeroChecksums:
    def test_same_size_layout_zeroes_the_udp_checksum(self):
        sel = PROGRAMS["same_size"].selectors[0]
        pkt = matching_packet(sel, b"\x12\x34rest", udp_checksum=0xBEEF)
        result, branch = run("same_size", pkt)
        assert sim_egress(result)["udp"]["checksum"] == 0
        assert p4_egress(branch, pkt)["udp"]["checksum"] == 0
        assert sim_egress(result) == p4_egress(branch, pkt)

    def test_passthrough_keeps_the_udp_checksum(self):
        pkt = make_udp_packet(5999, payload=b"\x12\x34")
        pkt.udp["checksum"] = 0xBEEF
        result, branch = run("same_size", pkt)
        assert result.verdict == PASSTHROUGH and branch is None
        assert sim_egress(result)["udp"]["checksum"] == 0xBEEF
        assert p4_egress(branch, pkt)["udp"]["checksum"] == 0xBEEF

    def test_output_layout_leaves_the_tcp_checksum_stale(self):
        # TCP has no "unused" checksum value; both sides leave it as is.
        sel = PROGRAMS["same_size"].selectors[1]
        pkt = matching_packet(sel, b"\x12\x34", tcp_checksum=0x1234)
        result, branch = run("same_size", pkt)
        assert result.selector == "same_tcp"
        assert sim_egress(result)["tcp"]["checksum"] == 0x1234
        assert p4_egress(branch, pkt)["tcp"]["checksum"] == 0x1234
        assert sim_egress(result) == p4_egress(branch, pkt)


class TestFixupScanner:
    def test_reads_the_three_forms(self):
        text = "\n".join([
            "hdr.ipv4.totalLen = 16w30;",
            "hdr.udp.len = hdr.udp.len + 16w4;",
            "hdr.udp.checksum = hdr.udp.checksum - 16w3;",
            "hdr.guess__out.reply = 16w9;  // not a standard header",
            "meta.app_resized = 1w1;",
        ])
        maps = {"ipv4": {"totalLen": 7}, "udp": {"len": 0xFFFE, "checksum": 1}}
        for header, field, value in fixup_assignments(text):
            maps[header][field] = value(maps)
        assert maps == {"ipv4": {"totalLen": 30}, "udp": {"len": 2, "checksum": 0xFFFE}}

    @pytest.mark.parametrize("rhs", [
        "16w70000", "8w3", "hdr.udp.len + 8w4", "hdr.udp.len * 16w2", "meta.app_flow",
        "hdr.ipv4.totalLen - meta.app_flow",
    ])
    def test_refuses_any_other_form(self, rhs):
        with pytest.raises(AssertionError, match="hdr.udp.len"):
            fixup_assignments(f"hdr.udp.len = {rhs};")
