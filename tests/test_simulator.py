"""Behavioral checks for the packet simulator.

Reference behaviors (the rng stream, the three-way comparator, the
checksum) come from tests/oracles.py and never touch package code.
"""

import copy
import gc
import itertools
import json
import struct
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ref_sim
from oracles import guess_reference, rfc1071_naive, splitmix64_stream
from test_acceptance import apply_items, contract_processor, items_strategy

from p4flowgen.builtin_examples import (
    AGG_PORT,
    GUESS_PORT,
    guess_game_solution,
    insert_agg_solution,
)
from p4flowgen import simulator
from p4flowgen.codegen import Solution
from p4flowgen.codegen import generate
from p4flowgen.core_model import (
    HEADER_FIELD_BITS,
    U8,
    U16,
    U32,
    FieldDecl,
    HeaderLayout,
    RingBufferDecl,
    SharedVariableDecl,
    UValue,
    UWidth,
    cast_value,
    u8,
    u16,
    wrap_add,
    wrap_sub,
)
from p4flowgen.errors import MalformedPacket
from p4flowgen.flow_ast import (
    Add,
    AssignConst,
    AssignVar,
    Cast,
    Equals,
    Forward,
    Greater,
    Hint,
    Rand,
    RingPush,
    RingReadHead,
    Sub,
    bool_local,
    new_flow_processor,
)
from p4flowgen.selector import ProtocolStack, new_flow_selector
from p4flowgen.simulator import (
    PASSTHROUGH,
    PROCESSED,
    SimPacket,
    SplitMix64,
    classify,
    initial_state,
    ipv4_header_bytes,
    make_tcp_packet,
    make_udp_packet,
    run_trace,
    simulate_packet,
)
from p4flowgen.trace_doc import dumps_results

GUESS = guess_game_solution()
AGG = insert_agg_solution()


def udp_solution(proc, port, name="sel"):
    sel = new_flow_selector(
        name, ProtocolStack.IPV4_UDP, [("udp.dstPort", u16(port))], proc
    )
    return Solution([sel])


def result_key(res):
    """Byte-level identity of a SimResult for equality comparisons."""
    return (
        res.verdict,
        res.selector,
        res.egress_port,
        res.packet.to_bytes(),
        res.trace,
        res.error,
    )


class TestSplitMix64:
    @pytest.mark.parametrize("seed", [0, 1, 7, 0xDEADBEEF, 2**64 - 1])
    def test_matches_reference_stream(self, seed):
        rng = SplitMix64(seed)
        ref = splitmix64_stream(seed)
        for _ in range(20):
            assert rng.next64() == next(ref)

    @pytest.mark.parametrize("seed", [-1, -5, 2**64, 2**64 + 7])
    def test_seed_outside_64_bits_is_refused_not_aliased(self, seed):
        with pytest.raises(ValueError, match=f"seed {seed} is outside 0..{2**64 - 1}"):
            SplitMix64(seed)
        with pytest.raises(ValueError, match="is outside"):
            run_trace(GUESS, [], seed)


class TestPacketBuilders:
    def test_udp_lengths_consistent(self):
        pkt = make_udp_packet(5555, payload=b"abc")
        assert pkt.ipv4["totalLen"] == 20 + 8 + 3
        assert pkt.udp["len"] == 8 + 3
        assert pkt.udp["checksum"] == 0

    def test_udp_header_checksum_verifies(self):
        pkt = make_udp_packet(5555, payload=b"abc")
        assert rfc1071_naive(ipv4_header_bytes(pkt.ipv4)) == 0

    def test_tcp_lengths_consistent(self):
        pkt = make_tcp_packet(80, payload=b"xy")
        assert pkt.ipv4["totalLen"] == 20 + 20 + 2
        assert pkt.stack() is ProtocolStack.IPV4_TCP

    @pytest.mark.parametrize("make, stack", [
        (lambda: make_udp_packet(5555), ProtocolStack.IPV4_UDP),
        (lambda: make_tcp_packet(80), ProtocolStack.IPV4_TCP),
        (lambda: SimPacket(0, make_udp_packet(5555).eth, make_udp_packet(5555).ipv4), None),
    ], ids=["udp", "tcp", "no transport"])
    def test_stack_is_the_carried_transport(self, make, stack):
        assert make().stack() is stack

    def test_udp_to_bytes_is_the_wire_format(self):
        pkt = make_udp_packet(5555, payload=b"ab")
        ipv4 = (0x45, 0, 30, 0, 0, 64, 17, pkt.ipv4["hdrChecksum"], 0x0A000001, 0x0A000002)
        assert pkt.to_bytes() == (
            bytes.fromhex("020000000002" "020000000001" "0800")
            + struct.pack(">BBHHHBBHII", *ipv4)
            + struct.pack(">HHHH", 40000, 5555, 10, 0)
            + b"ab"
        )

    def test_to_bytes_covers_total_length(self):
        pkt = make_udp_packet(5555, payload=b"abcd")
        assert len(pkt.to_bytes()) == 14 + pkt.ipv4["totalLen"]

    def test_tcp_to_bytes_packs_reserved_nibble_as_zero(self):
        pkt = make_tcp_packet(80, payload=b"xy")
        tcp = pkt.to_bytes()[34:54]
        assert tcp[12:14] == ((5 << 12) | 0x18).to_bytes(2, "big")
        assert "res" not in pkt.tcp

    @pytest.mark.parametrize("header, field, value", [
        ("ipv4", "ihl", 16),
        ("ipv4", "ttl", -1),
        ("udp", "len", 1 << 16),
        ("eth", "dstAddr", 1 << 48),
    ])
    def test_out_of_range_field_is_rejected(self, header, field, value):
        pkt = make_udp_packet(5555, payload=b"abcd")
        getattr(pkt, header)[field] = value
        with pytest.raises(OverflowError):
            pkt.to_bytes()

    def test_oversized_payload_is_rejected(self):
        with pytest.raises(OverflowError):
            make_udp_packet(5555, payload=bytes(0x10000))


def tagged_solution():
    """A selector mixing a standard-port criterion with a payload tag."""
    peek = HeaderLayout("peek", [FieldDecl("tag", U8), FieldDecl("v", U8)])
    proc = new_flow_processor(
        "tagger", input=HeaderLayout("tag_req", [FieldDecl("t", U8)])
    )
    sel = new_flow_selector(
        "tag_sel",
        ProtocolStack.IPV4_UDP,
        [("udp.dstPort", u16(7777)), ("tag", u8(9))],
        proc,
        lookahead=peek,
    )
    return Solution([sel])


class TestClassify:
    def test_port_match(self):
        sel = classify(GUESS, make_udp_packet(GUESS_PORT, payload=b"\x01"))
        assert sel is not None and sel.name == "guess_sel"

    def test_port_mismatch(self):
        assert classify(GUESS, make_udp_packet(5556, payload=b"\x01")) is None

    def test_stack_mismatch(self):
        assert classify(GUESS, make_tcp_packet(GUESS_PORT, payload=b"\x01")) is None

    def test_first_match_wins(self):
        first = new_flow_processor(
            "first", input=HeaderLayout("req_a", [FieldDecl("x", U8)])
        )
        second = new_flow_processor(
            "second", input=HeaderLayout("req_b", [FieldDecl("y", U8)])
        )
        sol = Solution(
            [
                new_flow_selector(
                    "a", ProtocolStack.IPV4_UDP, [("udp.dstPort", u16(5))], first
                ),
                new_flow_selector(
                    "b", ProtocolStack.IPV4_UDP, [("udp.dstPort", u16(5))], second
                ),
            ]
        )
        assert classify(sol, make_udp_packet(5, payload=b"\x00")).name == "a"

    def test_short_payload_raises(self):
        with pytest.raises(MalformedPacket):
            classify(GUESS, make_udp_packet(GUESS_PORT, payload=b""))

    def test_lookahead_match(self):
        sol = tagged_solution()
        sel = classify(sol, make_udp_packet(7777, payload=bytes([9, 1])))
        assert sel is not None and sel.name == "tag_sel"

    def test_lookahead_value_mismatch(self):
        sol = tagged_solution()
        assert classify(sol, make_udp_packet(7777, payload=bytes([8, 1]))) is None

    def test_lookahead_too_short_raises(self):
        sol = tagged_solution()
        with pytest.raises(MalformedPacket):
            classify(sol, make_udp_packet(7777, payload=bytes([9])))

    def test_double_l4_rejected(self):
        pkt = make_udp_packet(GUESS_PORT, payload=b"\x01")
        pkt.tcp = {"srcPort": 1, "dstPort": 2}
        with pytest.raises(MalformedPacket):
            classify(GUESS, pkt)


class TestGuessGame:
    def test_secret_greater_sends_gt(self):
        state = initial_state(GUESS, seed=0)
        pkt = make_udp_packet(GUESS_PORT, payload=bytes([10]), ingress_port=3)
        res, state = simulate_packet(GUESS, state, pkt)
        assert res.verdict == PROCESSED
        assert res.selector == "guess_sel"
        assert res.packet.payload == b"GT"
        assert res.egress_port == 3

    def test_secret_lower_sends_lt(self):
        state = initial_state(GUESS, seed=0)
        pkt = make_udp_packet(GUESS_PORT, payload=bytes([200]))
        res, _ = simulate_packet(GUESS, state, pkt)
        assert res.packet.payload == b"LT"

    def test_win_redraws_secret_from_stream(self):
        state = initial_state(GUESS, seed=99)
        pkt = make_udp_packet(GUESS_PORT, payload=bytes([42]))
        res, state = simulate_packet(GUESS, state, pkt)
        assert res.packet.payload == b"OK"
        expected = next(splitmix64_stream(99)) & 0xFF
        assert state.shared[("guess", "secret")] == expected

    def test_secret_is_a_plain_int_after_a_win(self):
        state = initial_state(GUESS, seed=7)
        pkt = make_udp_packet(GUESS_PORT, payload=bytes([42]))
        res, state = simulate_packet(GUESS, state, pkt)
        assert res.packet.payload == b"OK"
        secret = state.shared[("guess", "secret")]
        assert type(secret) is int
        assert secret == next(splitmix64_stream(7)) & 0xFF

    def test_consecutive_wins_consume_stream(self):
        state = initial_state(GUESS, seed=4)
        ref = splitmix64_stream(4)
        secret = 42
        for _ in range(3):
            pkt = make_udp_packet(GUESS_PORT, payload=bytes([secret]))
            res, state = simulate_packet(GUESS, state, pkt)
            assert res.packet.payload == b"OK"
            secret = next(ref) & 0xFF
            assert state.shared[("guess", "secret")] == secret

    def test_truncates_residual_payload(self):
        state = initial_state(GUESS, seed=0)
        pkt = make_udp_packet(GUESS_PORT, payload=bytes([10]) + b"junkjunk")
        res, _ = simulate_packet(GUESS, state, pkt)
        assert res.packet.payload == b"GT"

    def test_lengths_and_checksums(self):
        state = initial_state(GUESS, seed=0)
        pkt = make_udp_packet(GUESS_PORT, payload=bytes([10]) + b"xxx")
        res, _ = simulate_packet(GUESS, state, pkt)
        out = res.packet
        assert out.ipv4["totalLen"] == 20 + 8 + 2
        assert out.udp["len"] == 8 + 2
        assert out.udp["checksum"] == 0
        assert rfc1071_naive(ipv4_header_bytes(out.ipv4)) == 0

    def test_trace_kinds_and_ordinals(self):
        state = initial_state(GUESS, seed=0)
        pkt = make_udp_packet(GUESS_PORT, payload=bytes([10]))
        res, _ = simulate_packet(GUESS, state, pkt)
        kinds = [(e.ordinal, e.kind) for e in res.trace]
        assert kinds == [
            (0, "match"),
            (1, "atomic_begin"),
            (2, "equals"),
            (3, "greater"),
            (4, "if"),
            (9, "if"),
            (10, "assign_const"),
            (11, "assign_const"),
            (17, "atomic_end"),
            (18, "send_back"),
        ]
        ordinals = [e.ordinal for e in res.trace]
        assert ordinals == sorted(ordinals) and len(set(ordinals)) == len(ordinals)

    @given(secret=st.integers(0, 255), guess=st.integers(0, 255))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_comparator(self, secret, guess):
        state = initial_state(GUESS, seed=0)
        state.shared[("guess", "secret")] = secret
        pkt = make_udp_packet(GUESS_PORT, payload=bytes([guess]))
        res, _ = simulate_packet(GUESS, state, pkt)
        assert res.packet.payload == guess_reference(secret, guess)

    def test_binary_search_pins_secret_within_8_probes(self):
        # Eight three-way answers always shrink [0, 255] to one candidate;
        # the worst case spends one more packet confirming it.
        for secret in range(256):
            state = initial_state(GUESS, seed=0)
            state.shared[("guess", "secret")] = secret
            lo, hi = 0, 255
            pinned_at = None
            probes = 0
            while True:
                guess = (lo + hi) // 2
                pkt = make_udp_packet(GUESS_PORT, payload=bytes([guess]))
                res, state = simulate_packet(GUESS, state, pkt)
                probes += 1
                answer = res.packet.payload
                if answer == b"OK":
                    break
                lo, hi = (guess + 1, hi) if answer == b"GT" else (lo, guess - 1)
                if pinned_at is None and lo == hi:
                    pinned_at = probes
            assert probes <= 9, f"secret {secret} took {probes} probes"
            if pinned_at is not None:
                assert pinned_at <= 8, f"secret {secret} pinned at {pinned_at}"


class TestInsertAgg:
    def test_sum_and_originals_spliced(self):
        state = initial_state(AGG, seed=0)
        payload = (3).to_bytes(2, "big") + (65535).to_bytes(2, "big")
        res, _ = simulate_packet(AGG, state, make_udp_packet(AGG_PORT, payload=payload))
        assert res.packet.payload == bytes.fromhex("00010002" "0003" "ffff")

    def test_residual_preserved(self):
        state = initial_state(AGG, seed=0)
        payload = bytes(4) + b"tail"
        res, _ = simulate_packet(AGG, state, make_udp_packet(AGG_PORT, payload=payload))
        assert res.packet.payload.endswith(b"tail")
        assert len(res.packet.payload) == len(payload) + 4

    @given(data=st.binary(min_size=4, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_growth_exactly_four_bytes(self, data):
        state = initial_state(AGG, seed=0)
        pkt = make_udp_packet(AGG_PORT, payload=data)
        res, _ = simulate_packet(AGG, state, pkt)
        assert len(res.packet.payload) == len(data) + 4
        assert res.packet.ipv4["totalLen"] == pkt.ipv4["totalLen"] + 4
        assert res.packet.udp["len"] == pkt.udp["len"] + 4
        assert res.packet.udp["checksum"] == 0
        assert rfc1071_naive(ipv4_header_bytes(res.packet.ipv4)) == 0


def forward_solution(port):
    proc = new_flow_processor(
        "fwd", input=HeaderLayout("fwd_req", [FieldDecl("x", U8)])
    )
    proc.body.add(Forward(port))
    return udp_solution(proc, 1000)


def adder_solution():
    proc = new_flow_processor(
        "adder",
        input=HeaderLayout("add_req", [FieldDecl("a", U8), FieldDecl("b", U8)]),
        output=HeaderLayout("add_resp", [FieldDecl("s", U8)]),
        truncate_payload=True,
    )
    proc.body.add(Add(proc.var("s"), proc.var("a"), proc.var("b")))
    return udp_solution(proc, 1001)


def ring_solution():
    proc = new_flow_processor(
        "ringy",
        input=HeaderLayout("ring_req", [FieldDecl("v", U8)]),
        output=HeaderLayout("ring_resp", [FieldDecl("oldest", U8)]),
        rings=[RingBufferDecl("window", U8, 2)],
    )
    proc.body.add(RingReadHead("window", proc.var("oldest")))
    proc.body.add(RingPush("window", proc.var("v")))
    return udp_solution(proc, 1002)


class TestCustomProcessors:
    def test_forward_sets_egress(self):
        sol = forward_solution(7)
        state = initial_state(sol, seed=0)
        pkt = make_udp_packet(1000, payload=b"\x00", ingress_port=2)
        res, _ = simulate_packet(sol, state, pkt)
        assert res.verdict == PROCESSED
        assert res.egress_port == 7
        # no output layout: the payload passes through untouched
        assert res.packet.payload == b"\x00"

    def test_default_egress_when_no_send_command(self):
        sol = adder_solution()
        state = initial_state(sol, seed=0)
        pkt = make_udp_packet(1001, payload=bytes([1, 2]), ingress_port=6)
        res, _ = simulate_packet(sol, state, pkt)
        assert res.egress_port == 6 ^ 1

    @given(a=st.integers(0, 255), b=st.integers(0, 255))
    @settings(max_examples=100, deadline=None)
    def test_add_wraps_like_modular_arithmetic(self, a, b):
        sol = adder_solution()
        state = initial_state(sol, seed=0)
        pkt = make_udp_packet(1001, payload=bytes([a, b]))
        res, _ = simulate_packet(sol, state, pkt)
        assert res.packet.payload == bytes([(a + b) % 256])

    def test_ring_reads_slot_the_push_overwrites(self):
        sol = ring_solution()
        packets = [make_udp_packet(1002, payload=bytes([v])) for v in (1, 2, 3)]
        results = run_trace(sol, packets, seed=0)
        # capacity 2: reads see 0, 0, then the oldest element (1)
        assert [r.packet.payload[0] for r in results] == [0, 0, 1]

    def test_ring_state_persists_across_runs(self):
        sol = ring_solution()
        state = initial_state(sol, seed=0)
        for v in (5, 6):
            _, state = simulate_packet(
                sol, state, make_udp_packet(1002, payload=bytes([v]))
            )
        assert sorted(state.rings[("ringy", "window")]) == [5, 6]
        assert state.shared[("ringy", "window")] == 0

    def test_ring_head_is_a_shared_register(self):
        sol = ring_solution()
        state = initial_state(sol, seed=0)
        assert state.shared[("ringy", "window")] == 0
        for pushed, head in ((5, 1), (6, 0), (7, 1)):
            res, state = simulate_packet(sol, state, make_udp_packet(1002, payload=bytes([pushed])))
            push = res.trace[-1]
            assert (push.kind, push.after) == ("ring_push", (pushed, head))
            assert type(state.shared[("ringy", "window")]) is int
            assert state.shared[("ringy", "window")] == head


class TestPassthroughPurity:
    def test_packet_and_state_untouched(self):
        state = initial_state(GUESS, seed=0)
        before_shared = dict(state.shared)
        before_rng = state.rng.state
        pkt = make_udp_packet(4444, payload=b"zz", ingress_port=5)
        res, state = simulate_packet(GUESS, state, pkt)
        assert res.verdict == PASSTHROUGH
        assert res.selector is None
        assert res.egress_port == 5 ^ 1
        assert res.packet is pkt
        assert res.trace == ()
        assert state.shared == before_shared
        assert state.rng.state == before_rng

    @pytest.mark.parametrize("protocol", [1, 17, 6])
    def test_plain_ipv4_packet_passes_through(self, protocol):
        # Only a protocol the parser does not extract a transport header
        # for lets a packet without a udp/tcp group pass through.
        pkt = SimPacket(
            ingress_port=0,
            eth={"dstAddr": 0, "srcAddr": 0, "etherType": 0x0800},
            ipv4=make_udp_packet(1, payload=b"").ipv4 | {"protocol": protocol},
            payload=b"",
        )
        state = initial_state(GUESS, seed=0)
        if protocol == 1:
            res, _ = simulate_packet(GUESS, state, pkt)
            assert res.verdict == PASSTHROUGH
        else:
            with pytest.raises(MalformedPacket, match=f"no udp/tcp header but ipv4.protocol {protocol}"):
                simulate_packet(GUESS, state, pkt)


class TestParserGate:
    """classify lets through only what the template parser hands to the
    chains: etherType IPv4, and a transport group ipv4.protocol agrees with."""

    def test_non_ipv4_ethertype_passes_through_untouched(self):
        state = initial_state(GUESS, seed=0)
        before_shared, before_rng = dict(state.shared), state.rng.state
        pkt = make_udp_packet(GUESS_PORT, payload=bytes([10]), ingress_port=4)
        pkt.eth["etherType"] = 0x86DD
        res, state = simulate_packet(GUESS, state, pkt)
        assert res.verdict == PASSTHROUGH
        assert res.packet is pkt
        assert res.egress_port == 4 ^ 1
        assert res.error is None
        assert state.shared == before_shared
        assert state.rng.state == before_rng

    @pytest.mark.parametrize(
        "make, protocol",
        [(make_udp_packet, 6), (make_udp_packet, 1), (make_tcp_packet, 17)],
    )
    def test_group_disagreeing_with_protocol_is_malformed(self, make, protocol):
        pkt = make(GUESS_PORT, payload=bytes([10]))
        pkt.ipv4["protocol"] = protocol
        with pytest.raises(MalformedPacket, match=f"ipv4.protocol {protocol}"):
            simulate_packet(GUESS, initial_state(GUESS, seed=0), pkt)

    def test_run_trace_records_the_reason(self):
        other_ether = make_udp_packet(GUESS_PORT, payload=bytes([10]))
        other_ether.eth["etherType"] = 0x86DD
        tcp_protocol = make_udp_packet(GUESS_PORT, payload=bytes([10]))
        tcp_protocol.ipv4["protocol"] = 6
        good = make_udp_packet(GUESS_PORT, payload=bytes([10]))
        results = run_trace(GUESS, [other_ether, tcp_protocol, good], seed=0)
        assert [r.verdict for r in results] == [PASSTHROUGH, PASSTHROUGH, PROCESSED]
        assert results[0].error is None
        assert "udp header but ipv4.protocol 6" in results[1].error
        assert results[1].packet is tcp_protocol
        assert results[2].error is None


class TestRunTrace:
    def test_empty_list(self):
        assert run_trace(GUESS, [], seed=0) == []

    def test_state_threads_across_packets(self):
        packets = [
            make_udp_packet(GUESS_PORT, payload=bytes([10])),
            make_udp_packet(GUESS_PORT, payload=bytes([42])),
        ]
        results = run_trace(GUESS, packets, seed=0)
        assert [r.packet.payload for r in results] == [b"GT", b"OK"]

    def test_error_recorded_and_stream_continues(self):
        packets = [
            make_udp_packet(GUESS_PORT, payload=b""),
            make_udp_packet(GUESS_PORT, payload=bytes([10])),
        ]
        results = run_trace(GUESS, packets, seed=0)
        assert results[0].verdict == PASSTHROUGH
        assert results[0].error is not None
        assert results[1].verdict == PROCESSED
        assert results[1].packet.payload == b"GT"

    def test_same_seed_identical_results(self):
        packets = [
            make_udp_packet(GUESS_PORT, payload=bytes([g])) for g in (1, 42, 9, 42)
        ]
        first = run_trace(GUESS, packets, seed=11)
        second = run_trace(GUESS, packets, seed=11)
        assert [result_key(r) for r in first] == [result_key(r) for r in second]

    def test_seed_changes_win_redraw(self):
        # A win redraws the secret from the seeded rng: the low byte of the
        # seed's first splitmix64 output. Seeds 0 and 1 redraw 0xAF and 0xC1.
        secrets = []
        for seed in (0, 1):
            state = initial_state(GUESS, seed=seed)
            win = make_udp_packet(GUESS_PORT, payload=bytes([42]))
            result, state = simulate_packet(GUESS, state, win)
            assert result.packet.payload == b"OK"
            secret = state.shared[("guess", "secret")]
            assert secret == next(splitmix64_stream(seed)) & 0xFF
            secrets.append(secret)
        assert secrets[0] != secrets[1]

    def test_hint_invariance_sample(self):
        packets = [
            make_udp_packet(GUESS_PORT, payload=bytes([g % 256]))
            for g in range(0, 500, 7)
        ]
        base = run_trace(guess_game_solution(Hint.IF_ELSE), packets, seed=3)
        table = run_trace(guess_game_solution(Hint.TABLE), packets, seed=3)
        assert [result_key(r) for r in base] == [result_key(r) for r in table]


class TestLengthConservation:
    @given(extra=st.binary(min_size=0, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_truncating_processor(self, extra):
        state = initial_state(GUESS, seed=0)
        pkt = make_udp_packet(GUESS_PORT, payload=bytes([10]) + extra)
        res, _ = simulate_packet(GUESS, state, pkt)
        out_size, in_size = 2, 1
        residual = len(extra)
        delta = (out_size - in_size) - residual
        assert res.packet.ipv4["totalLen"] - pkt.ipv4["totalLen"] == delta

    @given(extra=st.binary(min_size=0, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_splicing_processor(self, extra):
        state = initial_state(AGG, seed=0)
        pkt = make_udp_packet(AGG_PORT, payload=bytes(4) + extra)
        res, _ = simulate_packet(AGG, state, pkt)
        assert res.packet.ipv4["totalLen"] - pkt.ipv4["totalLen"] == 8 - 4


def constant_operand_solution():
    """A ring push and a switch whose operands are constants."""
    proc = new_flow_processor(
        "konst",
        input=HeaderLayout("konst_req", [FieldDecl("v", U8)]),
        output=HeaderLayout(
            "konst_resp", [FieldDecl("oldest", U8), FieldDecl("picked", U8)]
        ),
        rings=[RingBufferDecl("window", U8, 2)],
    )
    proc.body.add(RingPush("window", u8(7)))
    proc.body.add(RingReadHead("window", proc.var("oldest")))
    proc.body.Switch(u8(2)).Case(u8(1)).add(
        AssignConst(proc.var("picked"), u8(10))
    ).Case(u8(2)).add(AssignConst(proc.var("picked"), u8(20))).EndSwitch()
    return udp_solution(proc, 1003)


class TestConstantOperands:
    def test_simulated(self):
        sol = constant_operand_solution()
        state = initial_state(sol, seed=0)
        payloads, events = [], []
        for _ in range(2):
            res, state = simulate_packet(
                sol, state, make_udp_packet(1003, payload=b"\x01")
            )
            payloads.append(res.packet.payload)
            events.append([(e.kind, e.before, e.after) for e in res.trace[1:4]])
        # The pushed 7 comes round once the two-slot ring wraps; case 2
        # is taken every time.
        assert payloads == [bytes([0, 20]), bytes([7, 20])]
        assert events[0][0] == ("ring_push", (7, 0), (7, 1))
        assert events[1][0] == ("ring_push", (7, 1), (7, 0))
        assert events[0][2] == events[1][2] == ("switch", (2,), (2,))
        assert state.rings[("konst", "window")] == [7, 7]

    def test_emitted_verbatim(self):
        apply = generate(constant_operand_solution()).files["apply.p4inc"]
        assert "ring__konst__window.write(konst__window__head, 8w7);" in apply
        assert "if (8w2 == 8w1) {" in apply
        assert "else if (8w2 == 8w2) {" in apply


def arithmetic_solution(width: UWidth):
    """Add, Sub and a Cast to every width, all on two ``width`` inputs."""
    casts = [(f"c{w.bits}", w) for w in UWidth]
    proc = new_flow_processor(
        f"arith{width.bits}",
        input=HeaderLayout(
            f"arith{width.bits}_req", [FieldDecl("a", width), FieldDecl("b", width)]
        ),
        output=HeaderLayout(
            f"arith{width.bits}_resp",
            [FieldDecl("sum", width), FieldDecl("diff", width)]
            + [FieldDecl(name, w) for name, w in casts],
        ),
    )
    a, b = proc.var("a"), proc.var("b")
    proc.body.add(Add(proc.var("sum"), a, b))
    proc.body.add(Sub(proc.var("diff"), a, b))
    for name, _ in casts:
        proc.body.add(Cast(proc.var(name), a))
    return udp_solution(proc, 1004), proc.output


ARITHMETIC = {w: arithmetic_solution(w) for w in UWidth}


class TestArithmeticMatchesHelpers:
    """The simulator masks inline; its results must equal the core_model
    helpers that criterion 2 checks against the modular reference."""

    @pytest.mark.acceptance(2)
    @given(
        st.sampled_from(list(UWidth)).flatmap(
            lambda w: st.tuples(
                st.just(w), st.integers(0, w.mask), st.integers(0, w.mask)
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_add_sub_cast_at_every_width(self, case):
        width, a, b = case
        sol, out = ARITHMETIC[width]
        payload = a.to_bytes(width.nbytes, "big") + b.to_bytes(width.nbytes, "big")
        res, _ = simulate_packet(
            sol, initial_state(sol), make_udp_packet(1004, payload=payload)
        )
        got, offset = {}, 0
        for f in out.fields:
            end = offset + f.width.nbytes
            got[f.name] = UValue(f.width, int.from_bytes(res.packet.payload[offset:end], "big"))
            offset = end
        ua, ub = UValue(width, a), UValue(width, b)
        assert got["sum"] == wrap_add(ua, ub)
        assert got["diff"] == wrap_sub(ua, ub)
        for w in UWidth:
            assert got[f"c{w.bits}"] == cast_value(ua, w)


def probe_solution(proc):
    return Solution([
        new_flow_selector("probe_sel", ProtocolStack.IPV4_UDP, [("udp.dstPort", u16(9))], proc)
    ])


class TestCompiledMatchesReference:
    """The compiled processors against tests/ref_sim.py, a tree-walking
    reference that shares no code with the simulator."""

    @settings(max_examples=300, deadline=None)
    @given(
        items=st.lists(items_strategy(2), max_size=6),
        payloads=st.lists(st.binary(min_size=7, max_size=10), min_size=1, max_size=3),
        ingress=st.integers(0, 0xFFFF),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_random_programs(self, items, payloads, ingress, seed):
        proc = contract_processor()
        apply_items(proc, proc.body, items)
        sol = probe_solution(proc)
        state, ref = initial_state(sol, seed), ref_sim.RefState(proc, seed)
        for payload in payloads:
            res, state = simulate_packet(sol, state, make_udp_packet(9, payload, ingress_port=ingress))
            events, egress, out = ref_sim.run(proc, payload, ingress, ref)
            assert [tuple(e) for e in res.trace] == events
            assert res.egress_port == (ingress ^ 1 if egress is None else egress)
            assert res.packet.payload == out
            heads = {k: state.shared[k] for k in state.rings}
            assert {k[1]: v for k, v in state.shared.items() if k not in heads} == ref.shared
            assert {k[1]: [slots, heads[k]] for k, slots in state.rings.items()} == ref.rings
            assert state.rng.next64() == next(ref.rng)


def alias_case(make):
    """One command whose target is also an operand, after presetting the
    processor's u8 variables: shared ``acc`` 5 and bool ``flag`` 0."""
    proc = new_flow_processor(
        "alias",
        input=HeaderLayout("alias_req", [FieldDecl("val", U8)]),
        locals=[bool_local("flag")],
        shared=[SharedVariableDecl("acc", U8, u8(5))],
    )
    proc.body.add(make(proc.var("acc"), proc.var("flag"), proc.var("val")))
    sol = udp_solution(proc, 1005)
    pkt = make_udp_packet(1005, payload=bytes([250]))
    res, state = simulate_packet(sol, initial_state(sol), pkt)
    return res.trace[1], state.shared[("alias", "acc")]


class TestAliasedOperands:
    """An operand that is the target itself is recorded as read before the
    write: Add(acc, acc, val) gives before (old, old, val) and after
    (new, old, val)."""

    @pytest.mark.parametrize("make, before, after, acc", [
        (lambda acc, flag, val: Add(acc, acc, val), (5, 5, 250), (255, 5, 250), 255),
        (lambda acc, flag, val: Add(acc, val, acc), (5, 250, 5), (255, 250, 5), 255),
        (lambda acc, flag, val: Sub(acc, acc, val), (5, 5, 250), (11, 5, 250), 11),
        (lambda acc, flag, val: Equals(flag, flag, u8(0)), (0, 0, 0), (1, 0, 0), 5),
        (lambda acc, flag, val: Greater(flag, u8(1), flag), (0, 1, 0), (1, 1, 0), 5),
        (lambda acc, flag, val: AssignVar(acc, acc), (5, 5), (5, 5), 5),
        (lambda acc, flag, val: Cast(acc, acc), (5, 5), (5, 5), 5),
    ])
    def test_target_read_before_write(self, make, before, after, acc):
        event, final = alias_case(make)
        assert (event.before, event.after) == (before, after)
        assert final == acc


class TestLayerSplit:
    def test_calls_go_through_the_module_globals(self, monkeypatch):
        """A profiler that replaces simulator.classify and
        simulator.simulate_packet sees every call, so that classify time
        can be told apart from execution time."""
        calls = []

        def spy(name):
            original = getattr(simulator, name)
            monkeypatch.setattr(
                simulator, name, lambda *a: calls.append(name) or original(*a)
            )

        spy("classify")
        spy("simulate_packet")
        run_trace(GUESS, [make_udp_packet(GUESS_PORT, payload=b"\x01")] * 2)
        assert calls == ["simulate_packet", "classify"] * 2


class TestLazyCompile:
    def test_builder_call_after_a_run_is_simulated(self):
        proc = new_flow_processor(
            "grow",
            input=HeaderLayout("grow_req", [FieldDecl("v", U8)]),
            output=HeaderLayout("grow_resp", [FieldDecl("r", U8)]),
        )
        proc.body.add(AssignConst(proc.var("r"), u8(1)))
        sol = udp_solution(proc, 1006)
        pkt = make_udp_packet(1006, payload=b"\x00")
        first, state = simulate_packet(sol, initial_state(sol), pkt)
        proc.body.add(AssignConst(proc.var("r"), u8(2)))
        second, _ = simulate_packet(sol, state, pkt)
        assert [e.ordinal for e in first.trace] == [0, 1]
        assert [e.ordinal for e in second.trace] == [0, 1, 2]
        assert (first.packet.payload, second.packet.payload) == (b"\x01", b"\x02")

    def test_processors_of_one_shape_share_their_code(self):
        def build(name, threshold, port):
            proc = new_flow_processor(
                name,
                input=HeaderLayout(f"{name}_req", [FieldDecl("v", U8)]),
                locals=[bool_local("big")],
                shared=[SharedVariableDecl("total", U8, u8(threshold))],
            )
            proc.body.add(Greater(proc.var("big"), proc.var("v"), u8(threshold)))
            proc.body.add(Add(proc.var("total"), proc.var("total"), proc.var("v")))
            proc.body.add(Forward(port))
            (proc.body.If(proc.var("big"))
                .add(AssignConst(proc.var("total"), u8(threshold)))
                .Else().add(Forward(port + 1)).EndIf())
            (proc.body.Switch(proc.var("v"))
                .Case(u8(threshold)).add(Add(proc.var("total"), proc.var("v"), u8(port)))
                .Case(u8(threshold + 1)).EndSwitch())
            proc.body.Atomic().add(Sub(proc.var("total"), proc.var("total"), u8(1))).EndAtomic()
            return proc

        low, high = build("low", 3, 7), build("high", 200, 9)
        assert simulator._compiled(low).__code__ is simulator._compiled(high).__code__
        assert simulator._compiled(low) is not simulator._compiled(high)
        # The shared code still runs each processor with its own constants.
        for proc in (low, high):
            sol = udp_solution(proc, 1009)
            for v in (3, 4, 200, 201, 0):
                res, _ = simulate_packet(sol, initial_state(sol), make_udp_packet(1009, bytes([v])))
                events, egress, _ = ref_sim.run(proc, bytes([v]), 0, ref_sim.RefState(proc, 0))
                assert [tuple(e) for e in res.trace] == events
                assert res.egress_port == egress

    def test_open_scopes_simulate(self):
        proc = new_flow_processor(
            "open",
            input=HeaderLayout("open_req", [FieldDecl("v", U8)]),
            locals=[bool_local("flag")],
        )
        atomic = proc.body.Atomic()
        atomic.add(Equals(proc.var("flag"), proc.var("v"), u8(0)))
        atomic.If(proc.var("flag")).add(Forward(3))
        sol = udp_solution(proc, 1007)
        res, _ = simulate_packet(sol, initial_state(sol), make_udp_packet(1007, payload=b"\x00"))
        assert [(e.ordinal, e.kind) for e in res.trace] == [
            (0, "match"), (1, "atomic_begin"), (2, "equals"), (3, "if"), (4, "forward"),
            (None, "atomic_end"),
        ]
        assert res.egress_port == 3
        events, egress, _ = ref_sim.run(proc, b"\x00", 0, ref_sim.RefState(proc, 0))
        assert [tuple(e) for e in res.trace] == events


def _selector(name, criteria, lookahead=None):
    proc = new_flow_processor(
        f"p_{name}", input=HeaderLayout(f"in_{name}", [FieldDecl("x", U8)])
    )
    return new_flow_selector(name, ProtocolStack.IPV4_UDP, criteria, proc, lookahead=lookahead)


PEEK = HeaderLayout("peek4", [FieldDecl("tag", U16), FieldDecl("pad", U16)])


class TestIndexedClassify:
    """classify looks each signature up once and keeps the registration
    order across signatures."""

    @pytest.mark.acceptance(9)
    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    @pytest.mark.parametrize("src_addr, tag", [(0x0A000001, 9), (0x0A000009, 9), (0x0A000001, 8)])
    def test_first_registration_wins_across_signatures(self, order, src_addr, tag):
        selectors = [
            _selector("port_addr", [("udp.dstPort", u16(7)), ("ipv4.srcAddr", UValue(U32, 0x0A000001))]),
            _selector("port", [("udp.dstPort", u16(7))]),
            _selector("port_tag", [("udp.dstPort", u16(7)), ("tag", u16(9))], lookahead=PEEK),
        ]
        chain = [selectors[i] for i in order]
        pkt = make_udp_packet(7, payload=tag.to_bytes(2, "big") + b"\x00\x00", src_addr=src_addr)
        matches = {
            "port_addr": src_addr == 0x0A000001,
            "port": True,
            "port_tag": tag == 9,
        }
        expected = next(s.name for s in chain if matches[s.name])
        assert classify(Solution(chain), pkt).name == expected

    @pytest.mark.parametrize("first, second", [("wide", "narrow"), ("narrow", "wide")])
    def test_short_lookahead_fails_on_the_first_candidate(self, first, second):
        peek6 = HeaderLayout("peek6", [FieldDecl("tag", U16), FieldDecl("a", U32)])
        selectors = {
            "wide": _selector(
                "wide", [("udp.dstPort", u16(7)), ("ipv4.ttl", u8(64)), ("tag", u16(9))], peek6
            ),
            "narrow": _selector("narrow", [("udp.dstPort", u16(7)), ("tag", u16(9))], PEEK),
        }
        sol = Solution([selectors[first], selectors[second]])
        pkt = make_udp_packet(7, payload=bytes([0, 9, 0, 0, 0]))
        if first == "wide":
            with pytest.raises(MalformedPacket, match="lookahead of selector 'wide'"):
                classify(sol, pkt)
        else:
            assert classify(sol, pkt).name == "narrow"

    def test_dropping_a_solution_frees_its_index_entry(self):
        """The compiled classifier, which holds the signature tables, is
        kept on its Solution and goes with it."""
        sol = insert_agg_solution()
        assert classify(sol, make_udp_packet(AGG_PORT, payload=bytes(4))) is not None
        compiled = weakref.ref(sol._classify)
        del sol
        gc.collect()
        assert compiled() is None

    def test_a_copied_solution_classifies_to_its_own_selectors(self):
        pkt = make_udp_packet(AGG_PORT, payload=bytes(4))
        sol = insert_agg_solution()
        classify(sol, pkt)
        twin = copy.deepcopy(sol)
        assert classify(twin, pkt) is twin.selectors[0]
        assert classify(sol, pkt) is sol.selectors[0]


# The standard-field signatures a random selector draws from, per stack
# (an empty one matches on lookahead criteria alone), and the few values
# each field takes, so that packets often hit and signatures collide.
SIGNATURES = {
    ProtocolStack.IPV4_UDP: (("udp.dstPort",), ("ipv4.srcAddr", "udp.dstPort"), ("ipv4.ttl",)),
    ProtocolStack.IPV4_TCP: (("tcp.dstPort",), ("ipv4.srcAddr", "tcp.dstPort"), ()),
}
POOL = {"udp.dstPort": (7, 8), "tcp.dstPort": (7, 8), "ipv4.srcAddr": (1, 2), "ipv4.ttl": (63, 64)}
WIDTHS = {"udp.dstPort": U16, "tcp.dstPort": U16, "ipv4.srcAddr": U32, "ipv4.ttl": U8}
TAGS = (9, 10)


@st.composite
def random_selectors(draw, i):
    stack = draw(st.sampled_from(list(ProtocolStack)))
    signature = draw(st.sampled_from(SIGNATURES[stack]))
    criteria = [(f, UValue(WIDTHS[f], draw(st.sampled_from(POOL[f])))) for f in signature]
    lookahead, window = None, 0
    if not signature or draw(st.booleans()):
        pad = draw(st.integers(0, 2))
        lookahead = HeaderLayout(
            f"peek_{i}", [FieldDecl(f"pad{k}", U8) for k in range(pad)] + [FieldDecl("tag", U16)]
        )
        window = pad + 2
        if not signature or draw(st.booleans()):
            criteria.append(("tag", u16(draw(st.sampled_from(TAGS)))))
    need = draw(st.integers(1, window or 4))
    proc = new_flow_processor(
        f"p_{i}", input=HeaderLayout(f"in_{i}", [FieldDecl(f"x{k}", U8) for k in range(need)])
    )
    return new_flow_selector(f"s_{i}", stack, criteria, proc, lookahead=lookahead)


@st.composite
def random_packets(draw):
    l4 = draw(st.sampled_from(["udp", "udp", "tcp", "tcp", None]))
    payload = bytes(draw(st.lists(st.sampled_from([0, 9, 10]), max_size=5)))
    make = make_tcp_packet if l4 == "tcp" else make_udp_packet
    pkt = make(
        draw(st.sampled_from((7, 8))),
        payload,
        src_addr=draw(st.sampled_from((1, 2))),
        ttl=draw(st.sampled_from((63, 64))),
    )
    if l4 is None:
        pkt.udp = None
    if draw(st.integers(0, 9)) == 0:
        pkt.ipv4["protocol"] = draw(st.sampled_from((1, 6, 17)))
    if draw(st.integers(0, 19)) == 0:
        pkt.eth["etherType"] = 0x86DD
    return pkt


def linear_classify(solution, pkt):
    """First selector, in registration order, whose criteria all match:
    the template parser's gates, then one selector at a time."""
    pkt.validate()
    if pkt.eth["etherType"] != 0x0800:
        return None
    protocol = pkt.ipv4["protocol"]
    l4 = "udp" if pkt.udp is not None else "tcp" if pkt.tcp is not None else None
    if l4 is None:
        if protocol in (17, 6):
            raise MalformedPacket(
                f"packet has no udp/tcp header but ipv4.protocol {protocol}; "
                "the parser would extract one from the payload"
            )
        return None
    wanted = {"udp": 17, "tcp": 6}[l4]
    if protocol != wanted:
        raise MalformedPacket(
            f"packet has a {l4} header but ipv4.protocol {protocol}; "
            f"the parser extracts {l4} only for protocol {wanted}"
        )
    for sel in solution.selectors:
        if sel.stack.value != f"IPV4_{l4.upper()}":
            continue
        standard = [c for c in sel.criteria if "." in c.field]
        if any(getattr(pkt, c.field.split(".")[0])[c.field.split(".")[1]] != c.value.magnitude
               for c in standard):
            continue
        if sel.lookahead is not None:
            if len(pkt.payload) < sel.lookahead.byte_size:
                raise MalformedPacket(f"payload too short for lookahead of selector {sel.name!r}")
            offset, values = 0, {}
            for f in sel.lookahead.fields:
                values[f.name] = int.from_bytes(pkt.payload[offset:offset + f.width.nbytes], "big")
                offset += f.width.nbytes
            peeked = [c for c in sel.criteria if "." not in c.field]
            if any(values[c.field] != c.value.magnitude for c in peeked):
                continue
        if len(pkt.payload) < sel.processor.input.byte_size:
            raise MalformedPacket(f"payload too short for input of selector {sel.name!r}")
        return sel
    return None


def classified(classifier, solution, pkt):
    """The selector name, or the MalformedPacket message."""
    try:
        sel = classifier(solution, pkt)
    except MalformedPacket as e:
        return ("error", str(e))
    return None if sel is None else sel.name


class TestClassifyMatchesLinearReference:
    """The compiled classifier against a selector-at-a-time scan, over
    random Solutions on both stacks in every registration order."""

    @settings(max_examples=300, deadline=None)
    @given(
        selectors=st.integers(1, 6).flatmap(
            lambda n: st.tuples(*(random_selectors(i) for i in range(n)))
        ).flatmap(st.permutations),
        packets=st.lists(random_packets(), min_size=1, max_size=8),
    )
    def test_random_solutions(self, selectors, packets):
        sol = Solution(selectors)
        for pkt in packets:
            assert classified(classify, sol, pkt) == classified(linear_classify, sol, pkt)


class TestHeaderFields:
    @pytest.mark.parametrize("header, change", [
        ("udp", lambda m: m.pop("len")),
        ("ipv4", lambda m: m.pop("ttl")),
        ("eth", lambda m: m.pop("srcAddr")),
        ("udp", lambda m: m.update(extra=1)),
    ])
    def test_missing_or_unknown_field_is_malformed_up_front(self, header, change):
        pkt = make_udp_packet(4444, payload=b"\x01")  # no selector on this port
        change(getattr(pkt, header))
        with pytest.raises(MalformedPacket, match=f"{header} fields"):
            classify(GUESS, pkt)
        (res,) = run_trace(GUESS, [pkt], seed=0)
        assert res.verdict == PASSTHROUGH and f"{header} fields" in res.error

    UDP_FIELDS = "['checksum', 'dstPort', 'len', 'srcPort']"

    @pytest.mark.parametrize("changes, message", [
        ({"ingress_port": 0x10000}, "ingress port 65536 out of range"),
        ({"ingress_port": -1}, "ingress port -1 out of range"),
        # The port's class is checked before its range; a bool is no port.
        ({"ingress_port": 1.5}, "ingress port 1.5 is not an int"),
        ({"ingress_port": "3"}, "ingress port '3' is not an int"),
        ({"ingress_port": None}, "ingress port None is not an int"),
        ({"ingress_port": True}, "ingress port True is not an int"),
        ({"ingress_port": "3", "tcp": {}}, "ingress port '3' is not an int"),
        ({"tcp": {}}, "packet cannot carry both UDP and TCP"),
        ({"payload": "01"}, "payload must be bytes"),
        # The checks run in one order: the first failure is the one worded.
        ({"tcp": {}, "payload": "01"}, "packet cannot carry both UDP and TCP"),
        ({"tcp": {}, "eth": [1]}, "packet cannot carry both UDP and TCP"),
        ({"udp": {"srcPort": 1}}, f"udp fields ['srcPort'] are not {UDP_FIELDS}"),
        ({"eth": None}, "packet has no eth header"),
        ({"ipv4": None}, "packet has no ipv4 header"),
        ({"eth": None, "ipv4": None}, "packet has no eth header"),
    ])
    def test_validate_words_the_first_failure(self, changes, message):
        pkt = make_udp_packet(4444, payload=b"\x01")
        for name, value in changes.items():
            setattr(pkt, name, value)
        with pytest.raises(MalformedPacket) as raised:
            pkt.validate()
        assert str(raised.value) == message

    @pytest.mark.parametrize("header", ["eth", "ipv4"])
    def test_missing_eth_or_ipv4_is_a_per_packet_error(self, header):
        pkt = make_udp_packet(GUESS_PORT, payload=b"\x01")
        setattr(pkt, header, None)
        bad, good = run_trace(GUESS, [pkt, make_udp_packet(GUESS_PORT, payload=b"\x01")], seed=0)
        assert bad.verdict == PASSTHROUGH and bad.error == f"packet has no {header} header"
        assert good.verdict == PROCESSED and good.error is None

    @pytest.mark.parametrize("port", [1.5, "3", None, True, False, -1, 0x10000, 70000])
    def test_bad_ingress_port_is_a_per_packet_error_with_no_egress(self, port):
        pkt = make_udp_packet(GUESS_PORT, payload=b"\x01")
        pkt.ingress_port = port
        with pytest.raises(MalformedPacket, match="ingress port"):
            simulate_packet(GUESS, initial_state(GUESS), pkt)
        bad, good = run_trace(GUESS, [pkt, make_udp_packet(GUESS_PORT, payload=b"\x01")], seed=0)
        assert (bad.verdict, bad.egress_port, bad.packet) == (PASSTHROUGH, -1, pkt)
        assert bad.error.startswith("ingress port")
        assert good.verdict == PROCESSED and good.error is None
        text = dumps_results(0, [bad, good])
        assert json.loads(text)["results"][0]["egress_port"] == -1

    @pytest.mark.parametrize("port", [0, 7, 0xFFFF])
    def test_malformed_packet_on_a_valid_port_leaves_by_the_default_egress(self, port):
        pkt = make_udp_packet(GUESS_PORT, payload=b"", ingress_port=port)
        (res,) = run_trace(GUESS, [pkt], seed=0)
        assert res.error is not None and res.egress_port == port ^ 1

    @pytest.mark.parametrize("changes", [
        {"payload": bytearray(b"\x01")},
        {"udp": None},
        {"ingress_port": 0xFFFF},
    ])
    def test_validate_accepts_well_formed_variants(self, changes):
        pkt = make_udp_packet(4444, payload=b"\x01")
        for name, value in changes.items():
            setattr(pkt, name, value)
        pkt.validate()

    def test_tcp_reserved_nibble_is_not_a_field(self):
        pkt = make_tcp_packet(80, payload=b"\x01")
        pkt.tcp["res"] = 0
        with pytest.raises(MalformedPacket, match="tcp fields"):
            classify(GUESS, pkt)

    @pytest.mark.parametrize("field, value, message", [
        ("ttl", 300, "ipv4.ttl 300 does not fit 8 bits"),
        ("ttl", -1, "ipv4.ttl -1 does not fit 8 bits"),
        ("ttl", "x", "ipv4.ttl 'x' is not an int"),
        ("ttl", 1.5, "ipv4.ttl 1.5 is not an int"),
        ("ttl", True, "ipv4.ttl True is not an int"),
        ("totalLen", None, "ipv4.totalLen None is not an int"),
        ("hdrChecksum", 1 << 16, "ipv4.hdrChecksum 65536 does not fit 16 bits"),
    ])
    def test_bad_ipv4_field_is_a_per_packet_error_before_the_body(self, field, value, message):
        """A processor with an output rebuilds the IPv4 header; a field
        that cannot be rebuilt fails the packet before any state moves."""
        self.assert_fails_before_the_body("ipv4", field, value, message)

    @pytest.mark.parametrize("value, message", [
        ("x", "udp.len 'x' is not an int"),
        (True, "udp.len True is not an int"),
        (70000, "udp.len 70000 does not fit 16 bits"),
        (-1, "udp.len -1 does not fit 16 bits"),
    ])
    def test_bad_udp_len_is_a_per_packet_error_before_the_body(self, value, message):
        """The UDP header is rebuilt with the IPv4 one: a len that cannot
        be shifted neither crashes the run nor wraps into the packet."""
        self.assert_fails_before_the_body("udp", "len", value, message)

    @staticmethod
    def assert_fails_before_the_body(header, field, value, message):
        proc = new_flow_processor(
            "keep",
            input=HeaderLayout("keep_req", [FieldDecl("v", U8)]),
            output=HeaderLayout("keep_resp", [FieldDecl("r", U8)]),
            shared=[SharedVariableDecl("total", U8, u8(1))],
            rings=[RingBufferDecl("seen", U8, 2)],
        )
        proc.body.add(Add(proc.var("total"), proc.var("total"), proc.var("v")))
        proc.body.add(RingPush("seen", proc.var("v")))
        proc.body.add(Rand(proc.var("r")))
        for sol in (udp_solution(proc, 1010), GUESS):
            port = sol.selectors[0].criteria[0].value.magnitude
            bad = make_udp_packet(port, payload=b"\x07")
            getattr(bad, header)[field] = value
            state = initial_state(sol, seed=3)
            with pytest.raises(MalformedPacket) as raised:
                simulate_packet(sol, state, bad)
            assert str(raised.value) == message
            fresh = initial_state(sol, seed=3)
            assert (state.shared, state.rings, state.rng.state) == (
                fresh.shared, fresh.rings, fresh.rng.state)
            good = make_udp_packet(port, payload=b"\x07")
            failed, after = run_trace(sol, [bad, good], seed=3)
            assert (failed.verdict, failed.error) == (PASSTHROUGH, message)
            assert result_key(after) == result_key(run_trace(sol, [good], seed=3)[0])

    @given(st.fixed_dictionaries({
        name: st.integers(0, (1 << bits) - 1) for name, bits in HEADER_FIELD_BITS["ipv4"].items()
    }))
    @settings(max_examples=200, deadline=None)
    def test_field_checksum_matches_the_byte_oracle(self, ipv4):
        # A same-size output layout keeps every IPv4 field but the checksum,
        # which the run function recomputes from the fields.
        proc = new_flow_processor(
            "same",
            input=HeaderLayout("same_req", [FieldDecl("a", U16)]),
            output=HeaderLayout("same_resp", [FieldDecl("b", U16)]),
        )
        sol = udp_solution(proc, 5000)
        pkt = make_udp_packet(5000, payload=b"\x00\x01")
        pkt.ipv4 = ipv4 | {"protocol": 17}
        result, _ = simulate_packet(sol, initial_state(sol), pkt)
        out = result.packet.ipv4
        assert out == pkt.ipv4 | {"hdrChecksum": out["hdrChecksum"]}
        assert out["hdrChecksum"] == rfc1071_naive(ipv4_header_bytes(pkt.ipv4 | {"hdrChecksum": 0}))
