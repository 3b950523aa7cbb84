"""A test-only program that exercises every command kind.

`all_ops_solution()` is frozen as tests/data/all_ops.json, and its
generated file set and the results of tests/data/all_ops_trace.json are
frozen under tests/golden/ (refresh all three with
scripts/regen_goldens.py). It covers what the packaged examples leave
out: every plain op, both Equals hints, a multi-case Switch, a shared
target for every op that may write one, a ring, Forward, Sub, constant
operands, and a truncating processor on the TCP stack.

Equals and Greater are the two target-writing ops without a shared
target: their target must be a boolean local.
"""

from p4flowgen.codegen import Solution
from p4flowgen.core_model import (
    U8,
    U16,
    U32,
    FieldDecl,
    HeaderLayout,
    RingBufferDecl,
    SharedVariableDecl,
    u8,
    u16,
    u32,
)
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
    SendBack,
    Sub,
    bool_local,
    local,
    new_flow_processor,
)
from p4flowgen.selector import ProtocolStack, new_flow_selector

ALL_OPS_PORT = 7777
ECHO_PORT = 8888


def _ops_processor():
    p = new_flow_processor(
        "ops",
        input=HeaderLayout(
            "ops_req",
            [FieldDecl("sel", U8), FieldDecl("a", U16), FieldDecl("b", U16),
             FieldDecl("w", U32)],
        ),
        output=HeaderLayout(
            "ops_resp",
            [FieldDecl("r16", U16), FieldDecl("r32", U32), FieldDecl("flag", U8)],
        ),
        locals=[bool_local("eq_if"), bool_local("eq_tab"), bool_local("gt"),
                local("t16", U16)],
        shared=[
            SharedVariableDecl("s_const", U16, u16(7)),
            SharedVariableDecl("s_var", U16, u16(0)),
            SharedVariableDecl("s_cast", U32, u32(0)),
            SharedVariableDecl("s_add", U16, u16(0xFFF0)),
            SharedVariableDecl("s_sub", U16, u16(0)),
            SharedVariableDecl("s_rand", U8, u8(0)),
            SharedVariableDecl("s_head", U32, u32(0)),
        ],
        rings=[RingBufferDecl("hist", U32, 3)],
    )
    v = p.var
    body = p.body
    body.add(AssignConst(v("s_const"), u16(0x1234)))
    body.add(AssignVar(v("s_var"), v("a")))
    body.add(Cast(v("s_cast"), v("a")))
    body.add(Add(v("s_add"), v("s_add"), v("b")))
    body.add(Sub(v("s_sub"), v("a"), u16(3)))
    body.add(Equals(v("eq_if"), v("a"), v("b")))
    body.add(Equals(v("eq_tab"), v("sel"), u8(2), Hint.TABLE))
    body.add(Greater(v("gt"), v("a"), v("b")))
    body.add(Rand(v("s_rand")))
    body.add(RingReadHead("hist", v("s_head")))
    body.add(RingPush("hist", v("w")))
    sw = body.Switch(v("sel"))
    case = sw.Case(u8(0))
    case.add(AssignVar(v("r16"), v("s_add"))).add(Forward(7))
    case = case.Case(u8(1))
    case.add(Cast(v("t16"), v("w"))).add(AssignVar(v("r16"), v("t16")))
    case.add(SendBack())
    case = case.Case(u8(2))
    hit = case.If(v("eq_tab"))
    hit.add(AssignConst(v("flag"), u8(1)))
    miss = hit.Else()
    miss.add(AssignConst(v("flag"), u8(2)))
    miss.EndIf()
    case = case.Case(u8(3))
    atomic = case.Atomic()
    atomic.add(Add(v("s_add"), v("s_add"), u16(1)))
    atomic.add(Cast(v("s_cast"), v("s_sub")))
    atomic.EndAtomic()
    case.EndSwitch()
    above = body.If(v("gt"))
    above.add(AssignVar(v("r32"), v("s_head")))
    below = above.Else()
    below.add(Cast(v("r32"), v("s_rand")))
    below.EndIf()
    body.add(Equals(v("eq_if"), v("eq_if"), u8(1), Hint.TABLE))
    return p


def _echo_processor():
    p = new_flow_processor(
        "echo",
        input=HeaderLayout("echo_req", [FieldDecl("tag", U16), FieldDecl("n", U16)]),
        output=HeaderLayout("echo_resp", [FieldDecl("m", U16)]),
        truncate_payload=True,
    )
    p.body.add(Sub(p.var("m"), u16(1000), p.var("n")))
    p.body.add(Forward(5))
    return p


def all_ops_solution() -> Solution:
    echo = _echo_processor()
    return Solution([
        new_flow_selector(
            "ops_sel", ProtocolStack.IPV4_UDP,
            [("udp.dstPort", u16(ALL_OPS_PORT))], _ops_processor(),
        ),
        new_flow_selector(
            "echo_sel", ProtocolStack.IPV4_TCP,
            [("tcp.dstPort", u16(ECHO_PORT)), ("tag", u16(0xBEEF))], echo,
            lookahead=echo.input,
        ),
    ])
