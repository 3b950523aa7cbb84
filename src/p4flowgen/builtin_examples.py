"""The two packaged example programs.

guess_game: a number-guessing responder. The packet carries one guess
byte; the reply is two ASCII bytes ("LT" when the secret is lower than
the guess, "GT" when greater, "OK" on a hit, which also rolls a fresh
secret) sent back through the ingress port.

insert_agg: sums two u16 payload fields into a u32 inserted in front of
them, growing the payload by four bytes.
"""

from __future__ import annotations

from pathlib import Path

from .core_model import U8, U16, U32, FieldDecl, HeaderLayout, SharedVariableDecl, u8, u16
from .flow_ast import (
    Add,
    AssignConst,
    AssignVar,
    Cast,
    Equals,
    FlowProcessor,
    Greater,
    Hint,
    Rand,
    SendBack,
    bool_local,
    local,
    new_flow_processor,
)
from .selector import ProtocolStack, Solution, new_flow_selector

GUESS_PORT = 5555
AGG_PORT = 6666


def guess_game_processor(hint: Hint = Hint.IF_ELSE) -> FlowProcessor:
    p = new_flow_processor(
        "guess",
        input=HeaderLayout("guess_req", [FieldDecl("guess", U8)]),
        output=HeaderLayout("guess_resp", [FieldDecl("c1", U8), FieldDecl("c2", U8)]),
        locals=[bool_local("is_eq"), bool_local("is_gt")],
        shared=[SharedVariableDecl("secret", U8, u8(42))],
        truncate_payload=True,
    )
    guess, secret = p.var("guess"), p.var("secret")
    c1, c2 = p.var("c1"), p.var("c2")
    atomic = p.body.Atomic()
    atomic.add(Equals(p.var("is_eq"), guess, secret, hint))
    atomic.add(Greater(p.var("is_gt"), secret, guess))
    hit = atomic.If(p.var("is_eq"))
    hit.add(AssignConst(c1, u8(0x4F))).add(AssignConst(c2, u8(0x4B)))
    hit.add(Rand(secret))
    miss = hit.Else()
    above = miss.If(p.var("is_gt"))
    above.add(AssignConst(c1, u8(0x47))).add(AssignConst(c2, u8(0x54)))
    below = above.Else()
    below.add(AssignConst(c1, u8(0x4C))).add(AssignConst(c2, u8(0x54)))
    below.EndIf()
    miss.EndIf()
    atomic.EndAtomic()
    p.body.add(SendBack())
    return p


def _udp_solution(name: str, port: int, processor: FlowProcessor) -> Solution:
    """One selector binding UDP packets to ``port`` to the processor."""
    sel = new_flow_selector(
        name,
        ProtocolStack.IPV4_UDP,
        [("udp.dstPort", u16(port))],
        processor,
    )
    return Solution([sel])


def guess_game_solution(hint: Hint = Hint.IF_ELSE) -> Solution:
    return _udp_solution("guess_sel", GUESS_PORT, guess_game_processor(hint))


def insert_agg_processor() -> FlowProcessor:
    p = new_flow_processor(
        "agg",
        input=HeaderLayout("agg_req", [FieldDecl("val_a", U16), FieldDecl("val_b", U16)]),
        output=HeaderLayout(
            "agg_resp",
            [FieldDecl("agg_sum", U32), FieldDecl("orig_a", U16), FieldDecl("orig_b", U16)],
        ),
        locals=[local("wide_a", U32), local("wide_b", U32)],
    )
    p.body.add(Cast(p.var("wide_a"), p.var("val_a")))
    p.body.add(Cast(p.var("wide_b"), p.var("val_b")))
    p.body.add(Add(p.var("agg_sum"), p.var("wide_a"), p.var("wide_b")))
    p.body.add(AssignVar(p.var("orig_a"), p.var("val_a")))
    p.body.add(AssignVar(p.var("orig_b"), p.var("val_b")))
    return p


def insert_agg_solution() -> Solution:
    return _udp_solution("agg_sel", AGG_PORT, insert_agg_processor())


EXAMPLE_BUILDERS = {
    "guess_game": guess_game_solution,
    "insert_agg": insert_agg_solution,
}

# Shipped document form of the examples; kept byte-identical to
# dumps_doc(solution_to_doc(builder())) by the test suite.
ASSET_DIR = Path(__file__).parent / "assets"


def asset_path(name: str) -> Path:
    return ASSET_DIR / f"{name}.json"
