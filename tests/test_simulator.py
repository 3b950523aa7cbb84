"""Behavioral checks for the packet simulator.

Reference behaviors (the rng stream, the three-way comparator, the
checksum) come from tests/oracles.py and never touch package code.
"""

import gc
import itertools

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
    deserialize_layout,
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
        assert state.shared[("guess", "secret")] == u8(expected)

    def test_consecutive_wins_consume_stream(self):
        state = initial_state(GUESS, seed=4)
        ref = splitmix64_stream(4)
        secret = 42
        for _ in range(3):
            pkt = make_udp_packet(GUESS_PORT, payload=bytes([secret]))
            res, state = simulate_packet(GUESS, state, pkt)
            assert res.packet.payload == b"OK"
            secret = next(ref) & 0xFF
            assert state.shared[("guess", "secret")] == u8(secret)

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
        state.shared[("guess", "secret")] = u8(secret)
        pkt = make_udp_packet(GUESS_PORT, payload=bytes([guess]))
        res, _ = simulate_packet(GUESS, state, pkt)
        assert res.packet.payload == guess_reference(secret, guess)

    def test_binary_search_pins_secret_within_8_probes(self):
        # Eight three-way answers always shrink [0, 255] to one candidate;
        # the worst case spends one more packet confirming it.
        for secret in range(256):
            state = initial_state(GUESS, seed=0)
            state.shared[("guess", "secret")] = u8(secret)
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
        ring = state.rings[("ringy", "window")]
        assert sorted(ring.slots) == [5, 6]
        assert ring.head == 0


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
            secret = state.shared[("guess", "secret")].magnitude
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
        assert state.rings[("konst", "window")].slots == [7, 7]

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
        got = deserialize_layout(out, res.packet.payload)
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
            assert {k[1]: v.magnitude for k, v in state.shared.items()} == ref.shared
            assert {k[1]: [r.slots, r.head] for k, r in state.rings.items()} == ref.rings
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
    return res.trace[1], state.shared[("alias", "acc")].magnitude


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
            return proc

        low, high = build("low", 3, 7), build("high", 200, 9)
        assert simulator._compiled(low).__code__ is simulator._compiled(high).__code__
        assert simulator._compiled(low) is not simulator._compiled(high)

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
        sol = insert_agg_solution()
        assert classify(sol, make_udp_packet(AGG_PORT, payload=bytes(4))) is not None
        key = id(sol.chains[ProtocolStack.IPV4_UDP])
        assert key in simulator._INDEX
        del sol
        gc.collect()
        assert key not in simulator._INDEX


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

    def test_out_of_range_ipv4_field_overflows_at_egress(self):
        pkt = make_udp_packet(GUESS_PORT, payload=bytes([10]))
        pkt.ipv4["ttl"] = 300
        with pytest.raises(OverflowError):
            simulate_packet(GUESS, initial_state(GUESS), pkt)

    @given(st.fixed_dictionaries({
        name: st.integers(0, (1 << bits) - 1) for name, bits in HEADER_FIELD_BITS["ipv4"].items()
    }))
    @settings(max_examples=200, deadline=None)
    def test_field_checksum_matches_the_byte_oracle(self, ipv4):
        ipv4["hdrChecksum"] = 0
        assert simulator._ipv4_checksum(ipv4) == rfc1071_naive(ipv4_header_bytes(ipv4))
