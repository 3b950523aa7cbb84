"""The one walk of the command tree (flow_ast.render) and its three
dialects: the document form, the emitted P4 and the compiled simulator.

Empty scopes are where the dialects differ most: the document keeps an
empty Else apart from a missing one, P4 prints bare braces, and Python
needs ``pass``.
"""

import pytest

import ref_sim

from p4flowgen.codegen import Solution, emit_processor_control, generate
from p4flowgen.core_model import U8, FieldDecl, HeaderLayout, u8, u16
from p4flowgen.flow_ast import (
    Equals,
    Forward,
    Hint,
    VarRef,
    bool_local,
    flatten,
    new_flow_processor,
    render,
)
from p4flowgen.program_doc import solution_from_doc, solution_to_doc
from p4flowgen.selector import ProtocolStack, new_flow_selector
from p4flowgen.simulator import initial_state, make_udp_packet, simulate_packet


def hollow_processor():
    """Every scope kind with an empty body: ordinals 2-4 an If with an
    empty Then and an empty Else, 5-6 an If with an empty Then and no
    Else, 7-11 a Switch whose first Case is empty, 12-13 an empty
    Atomic."""
    proc = new_flow_processor(
        "hollow",
        input=HeaderLayout("hollow_req", [FieldDecl("v", U8)]),
        locals=[bool_local("flag")],
    )
    proc.body.add(Equals(proc.var("flag"), proc.var("v"), u8(1)))
    proc.body.If(proc.var("flag")).Else().EndIf()
    proc.body.If(proc.var("flag")).EndIf()
    proc.body.Switch(proc.var("v")).Case(u8(1)).Case(u8(2)).add(Forward(5)).EndSwitch()
    proc.body.Atomic().EndAtomic()
    return proc


def hollow_solution():
    proc = hollow_processor()
    criteria = [("udp.dstPort", u16(1010))]
    return Solution([new_flow_selector("hollow_sel", ProtocolStack.IPV4_UDP, criteria, proc)])


class TestEmptyScopes:
    def test_document_keeps_an_empty_else_apart_from_none(self):
        body = hollow_processor().to_doc()["body"]
        assert [cmd["op"] for cmd in body] == ["equals", "if", "if", "switch", "atomic"]
        assert (body[1]["then"], body[1]["else"], body[1]["else_ordinal"]) == ([], [], 3)
        assert (body[2]["then"], body[2]["else"], body[2]["else_ordinal"]) == ([], None, None)
        assert [case["body"] for case in body[3]["cases"]] == [[], [
            {"op": "forward", "ordinal": 10, "port": 5}
        ]]
        assert body[4] == {"op": "atomic", "ordinal": 12, "end_ordinal": 13, "body": []}

    def test_document_replays_to_itself(self):
        doc = solution_to_doc(hollow_solution())
        assert solution_to_doc(solution_from_doc(doc)) == doc

    def test_p4_prints_nothing_between_the_braces(self):
        text = emit_processor_control(hollow_processor(), ProtocolStack.IPV4_UDP)
        at = " " * 12  # the depth of the flow branch's body
        body = text[text.index(f"{at}// [2] If"):]
        assert body == "".join(f"{at}{line}\n" for line in [
            "// [2] If",
            "if (hollow__flag == 8w1) {",
            "}",
            "// [3] Else",
            "else {",
            "}",
            "// [5] If",
            "if (hollow__flag == 8w1) {",
            "}",
            "// [7] Switch",
            "if (hdr.hollow__in.v == 8w1) {",
            "    // [8] Case",
            "}",
            "else if (hdr.hollow__in.v == 8w2) {",
            "    // [9] Case",
            "    // [10] Forward",
            "    smeta.egress_spec = (bit<9>)16w5;",
            "}",
            "// [12] Atomic",
            "ATOMIC_BEGIN",
            "// [13] EndAtomic",
            "ATOMIC_END",
        ])
        assert body in generate(hollow_solution()).files["apply.p4inc"]

    @pytest.mark.parametrize("v", [0, 1, 2, 3])
    def test_simulator_runs_empty_arms_like_the_reference(self, v):
        sol = hollow_solution()
        proc = sol.selectors[0].processor
        res, _ = simulate_packet(sol, initial_state(sol), make_udp_packet(1010, bytes([v])))
        events, egress, _ = ref_sim.run(proc, bytes([v]), 0, ref_sim.RefState(proc, 0))
        assert [tuple(e) for e in res.trace] == events
        assert res.egress_port == (1 if egress is None else egress)
        kinds = [e.kind for e in res.trace]
        assert kinds[-2:] == ["atomic_begin", "atomic_end"] and "if" in kinds


class _Calls:
    """A dialect that prints every hook call as a tuple."""

    def operand(self, op):
        return f"var {op.name}" if isinstance(op, VarRef) else f"const {op.magnitude}"

    def op(self, cmd, ns):
        return [(cmd.op, vars(ns))]

    def if_(self, cmd, then, orelse):
        return [("if", cmd.ordinal), then, ("else", orelse)]

    def switch(self, cmd, cases):
        return [("switch", [(value.magnitude, ordinal, body) for value, ordinal, body in cases])]

    def atomic(self, cmd, body):
        return [("atomic", cmd.ordinal), *body]


class TestRender:
    def test_hooks_see_rendered_bodies_and_mapped_operands(self):
        proc = hollow_processor()
        items = render(proc.body, _Calls())
        assert items[0] == ("equals", {
            "target": "var flag", "lhs": "var v", "rhs": "const 1",
            "hint": Hint.IF_ELSE, "ordinal": 1,
        })
        assert items[1:7] == [("if", 2), [], ("else", []), ("if", 5), [], ("else", None)]
        forward = ("forward", {"port": 5, "ordinal": 10})
        assert items[7:] == [("switch", [(1, 8, []), (2, 9, [forward])]), ("atomic", 12)]

    def test_flatten_indents_nested_lists_one_level_deeper(self):
        text = flatten(["a", ["b", [], ["c"]], "", "d"], 1)
        assert text == "    a\n        b\n            c\n\n    d\n"
        assert flatten([], 3) == ""
