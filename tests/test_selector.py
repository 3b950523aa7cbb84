"""Unit tests for flow selectors, chain building and the Solution."""

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from test_acceptance import apply_items, contract_processor, items_strategy
from p4flowgen.codegen import generate
from p4flowgen.core_model import U8, U16, FieldDecl, HeaderLayout, u8, u16, u32
from p4flowgen.errors import (
    DuplicateName,
    MissingLookahead,
    ParserGateMismatch,
    UndeclaredName,
    WidthMismatch,
)
from p4flowgen.flow_ast import new_flow_processor
from p4flowgen.program_doc import solution_from_doc, solution_to_doc
from p4flowgen.selector import (
    Criterion,
    ProtocolStack,
    Solution,
    build_chains,
    new_flow_selector,
)
from p4flowgen.simulator import make_udp_packet, run_trace
from p4flowgen.trace_doc import result_to_doc

REQ = HeaderLayout("req", [FieldDecl("guess", U8)])
PROC = new_flow_processor("proc", REQ)


def udp_selector(name="sel", port=5555, **kwargs):
    return new_flow_selector(
        name,
        ProtocolStack.IPV4_UDP,
        [("udp.dstPort", u16(port))],
        PROC,
        **kwargs,
    )


class TestNewFlowSelector:
    def test_standard_field_criterion(self):
        s = udp_selector()
        assert s.criteria == (Criterion("udp.dstPort", u16(5555)),)
        assert s.stack is ProtocolStack.IPV4_UDP

    def test_criteria_must_be_nonempty(self):
        with pytest.raises(ValueError):
            new_flow_selector("sel", ProtocolStack.IPV4_UDP, [], PROC)

    def test_unknown_standard_field(self):
        with pytest.raises(UndeclaredName):
            new_flow_selector(
                "sel", ProtocolStack.IPV4_UDP, [("udp.magic", u16(1))], PROC
            )

    def test_wrong_stack_for_transport_field(self):
        with pytest.raises(UndeclaredName):
            new_flow_selector(
                "sel", ProtocolStack.IPV4_TCP, [("udp.dstPort", u16(1))], PROC
            )

    def test_width_mismatch_against_standard_field(self):
        with pytest.raises(WidthMismatch):
            new_flow_selector(
                "sel", ProtocolStack.IPV4_UDP, [("udp.dstPort", u8(1))], PROC
            )

    def test_mac_addresses_cannot_be_matched(self):
        with pytest.raises(UndeclaredName):
            new_flow_selector(
                "sel", ProtocolStack.IPV4_UDP, [("eth.dstAddr", u32(1))], PROC
            )

    @pytest.mark.parametrize(
        "stack, field, value, required",
        [
            (ProtocolStack.IPV4_UDP, "ipv4.protocol", u8(6), "ipv4.protocol = 17"),
            (ProtocolStack.IPV4_TCP, "ipv4.protocol", u8(17), "ipv4.protocol = 6"),
            (ProtocolStack.IPV4_UDP, "eth.etherType", u16(0x86DD), "eth.etherType = 2048"),
            (ProtocolStack.IPV4_TCP, "eth.etherType", u16(0), "eth.etherType = 2048"),
        ],
    )
    def test_criterion_contradicting_the_parser(self, stack, field, value, required):
        with pytest.raises(ParserGateMismatch) as err:
            new_flow_selector("sel", stack, [("ipv4.ttl", u8(64)), (field, value)], PROC)
        message = str(err.value)
        assert field in message and stack.value in message and required in message

    @pytest.mark.parametrize(
        "stack, protocol",
        [(ProtocolStack.IPV4_UDP, u8(17)), (ProtocolStack.IPV4_TCP, u8(6))],
    )
    def test_criterion_agreeing_with_the_parser(self, stack, protocol):
        criteria = [("eth.etherType", u16(0x0800)), ("ipv4.protocol", protocol)]
        assert len(new_flow_selector("sel", stack, criteria, PROC).criteria) == 2

    def test_payload_field_needs_lookahead(self):
        with pytest.raises(MissingLookahead):
            new_flow_selector(
                "sel", ProtocolStack.IPV4_UDP, [("kind", u8(1))], PROC
            )

    def test_payload_field_resolves_through_lookahead(self):
        peek = HeaderLayout("peek", [FieldDecl("kind", U8), FieldDecl("rest", U16)])
        s = new_flow_selector(
            "sel",
            ProtocolStack.IPV4_UDP,
            [("kind", u8(1)), ("udp.dstPort", u16(9))],
            PROC,
            lookahead=peek,
        )
        assert s.lookahead is peek

    def test_unknown_lookahead_field(self):
        peek = HeaderLayout("peek", [FieldDecl("kind", U8)])
        with pytest.raises(UndeclaredName):
            new_flow_selector(
                "sel",
                ProtocolStack.IPV4_UDP,
                [("other", u8(1))],
                PROC,
                lookahead=peek,
            )

    def test_lookahead_width_mismatch(self):
        peek = HeaderLayout("peek", [FieldDecl("kind", U8)])
        with pytest.raises(WidthMismatch):
            new_flow_selector(
                "sel",
                ProtocolStack.IPV4_UDP,
                [("kind", u16(1))],
                PROC,
                lookahead=peek,
            )

    def test_input_must_fit_lookahead_window(self):
        peek = HeaderLayout("peek", [FieldDecl("kind", U8)])
        wide_in = HeaderLayout("wide", [FieldDecl("x", U16)])
        proc = new_flow_processor("wideproc", wide_in)
        with pytest.raises(WidthMismatch):
            new_flow_selector(
                "sel",
                ProtocolStack.IPV4_UDP,
                [("kind", u8(1))],
                proc,
                lookahead=peek,
            )

    def test_ipv4_fields_allowed_on_both_stacks(self):
        for stack in ProtocolStack:
            new_flow_selector("sel", stack, [("ipv4.ttl", u8(64))], PROC)


class TestBuildChains:
    def test_registration_order_is_chain_order(self):
        a = udp_selector("a", 1)
        b = udp_selector("b", 2)
        chains = build_chains([a, b])
        assert list(chains) == [ProtocolStack.IPV4_UDP]
        assert chains[ProtocolStack.IPV4_UDP] == (a, b)

    def test_empty_input_gives_empty_map(self):
        assert build_chains([]) == {}

    def test_stacks_partition(self):
        u = udp_selector("u")
        t = new_flow_selector(
            "t", ProtocolStack.IPV4_TCP, [("tcp.dstPort", u16(80))], PROC
        )
        chains = build_chains([u, t])
        assert chains[ProtocolStack.IPV4_UDP] == (u,)
        assert chains[ProtocolStack.IPV4_TCP] == (t,)

    def test_duplicate_selector_names_rejected(self):
        with pytest.raises(DuplicateName):
            build_chains([udp_selector("same", 1), udp_selector("same", 2)])

    def test_absent_stack_absent_from_map(self):
        chains = build_chains([udp_selector()])
        assert ProtocolStack.IPV4_TCP not in chains


class TestSolution:
    def test_fields_are_selectors_and_chains(self):
        assert Solution.FIELDS == ("selectors", "chains")

    def test_chains_built_from_selectors(self):
        u1, u2 = udp_selector("u1", 1), udp_selector("u2", 2)
        t = new_flow_selector(
            "t", ProtocolStack.IPV4_TCP, [("tcp.dstPort", u16(80))], PROC
        )
        sol = Solution(iter([u1, t, u2]))
        assert sol.selectors == (u1, t, u2)
        assert list(sol.chains) == [ProtocolStack.IPV4_UDP, ProtocolStack.IPV4_TCP]
        assert sol.chains[ProtocolStack.IPV4_UDP] == (u1, u2)
        assert sol.chains[ProtocolStack.IPV4_TCP] == (t,)

    def test_distinct_processors_sharing_a_name_rejected(self):
        twin = new_flow_processor("proc", REQ)
        with pytest.raises(DuplicateName, match="'proc'"):
            Solution([
                udp_selector("a", 1),
                new_flow_selector(
                    "b", ProtocolStack.IPV4_UDP, [("udp.dstPort", u16(2))], twin
                ),
            ])

    def test_lookahead_layout_name_checked_against_inputs(self):
        other = HeaderLayout("req", [FieldDecl("guess", U16)])
        with pytest.raises(DuplicateName, match="'req'"):
            Solution([udp_selector("a", 1, lookahead=other)])

    def test_equal_layouts_and_one_processor_may_repeat(self):
        twin_req = HeaderLayout("req", [FieldDecl("guess", U8)])
        other = new_flow_processor("other", twin_req)
        sol = Solution([
            udp_selector("a", 1, lookahead=twin_req),
            udp_selector("b", 2),
            new_flow_selector(
                "c", ProtocolStack.IPV4_UDP, [("udp.dstPort", u16(3))], other
            ),
        ])
        assert sol.processors() == [PROC, other]


# Small name pools, so that drawn Solutions often clash.
PROC_NAMES = ["p", "q"]
LAYOUT_NAMES = ["la", "lb", "lc"]


@settings(max_examples=100, deadline=None)
@given(
    specs=st.lists(
        st.tuples(
            st.sampled_from(PROC_NAMES),
            st.sampled_from(LAYOUT_NAMES),
            st.sampled_from(LAYOUT_NAMES),
            st.lists(items_strategy(2), max_size=3),
        ),
        min_size=1,
        max_size=4,
    ),
    uses=st.lists(st.integers(0, 3), min_size=1, max_size=5),
    payloads=st.lists(st.binary(min_size=7, max_size=9), min_size=1, max_size=3),
    seed=st.integers(0, 2**64 - 1),
)
def test_a_solution_that_builds_simulates_emits_and_saves(specs, uses, payloads, seed):
    procs = []
    for name, input_name, output_name, items in specs:
        proc = contract_processor(name, input_name, output_name)
        apply_items(proc, proc.body, items)
        procs.append(proc)
    used = [procs[u % len(procs)] for u in uses]
    selectors = [
        new_flow_selector(
            f"s{k}", ProtocolStack.IPV4_UDP, [("udp.dstPort", u16(k + 1))], proc
        )
        for k, proc in enumerate(used)
    ]
    # Every input layout has one structure and every output layout
    # another, so a layout name clashes when it names both.
    distinct = list(dict.fromkeys(used))
    inputs = {p.input.name for p in distinct}
    outputs = {p.output.name for p in distinct}
    clash = len({p.name for p in distinct}) < len(distinct) or bool(inputs & outputs)
    event(f"clash: {clash}")
    if clash:
        with pytest.raises(DuplicateName):
            Solution(selectors)
        return
    sol = Solution(selectors)
    packets = [
        make_udp_packet(k % len(used) + 1, payload, ingress_port=k)
        for k, payload in enumerate(payloads)
    ]
    files = generate(sol).files
    results = [result_to_doc(r) for r in run_trace(sol, packets, seed)]
    back = solution_from_doc(solution_to_doc(sol))
    assert generate(back).files == files
    assert [result_to_doc(r) for r in run_trace(back, packets, seed)] == results
