"""Acceptance gate: one test per shipped criterion.

Each test carries @pytest.mark.acceptance(n); conftest prints a
PASS/FAIL line per criterion after the run. Oracles live in oracles.py
and are written without importing the package under test.
"""

import itertools
import json
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import guess_reference, rfc1071_naive, splitmix64_stream
from p4scan import check_balanced, unresolved_names
from p4flowgen import cli
from p4flowgen.builtin_examples import (
    AGG_PORT,
    EXAMPLE_BUILDERS,
    GUESS_PORT,
    guess_game_solution,
    insert_agg_solution,
)
from p4flowgen.codegen import FRAGMENT_NAMES, Solution, generate
from p4flowgen.core_model import (
    FieldDecl,
    HeaderLayout,
    RingBufferDecl,
    SharedVariableDecl,
    U8,
    U16,
    U32,
    U64,
    UValue,
    internet_checksum,
    u8,
    u16,
    u32,
    wrap_add,
    wrap_sub,
)
from p4flowgen.flow_ast import (
    OPS,
    Add,
    AssignConst,
    AssignVar,
    Cast,
    Equals,
    ErrorKind,
    Forward,
    Greater,
    Hint,
    Rand,
    RingPush,
    RingReadHead,
    Scope,
    SemanticError,
    SendBack,
    Sub,
    VarRef,
    bool_local,
    local,
    new_flow_processor,
)
from p4flowgen.program_doc import dumps_doc
from p4flowgen.selector import ProtocolStack, new_flow_selector
from p4flowgen.simulator import (
    PROCESSED,
    classify,
    initial_state,
    ipv4_header_bytes,
    make_udp_packet,
    run_trace,
    simulate_packet,
)
from p4flowgen.trace_doc import results_to_doc

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.acceptance(1)
def test_c1_guess_game_matches_comparator_oracle():
    solution = guess_game_solution()
    packets = [make_udp_packet(GUESS_PORT, payload=bytes([g])) for g in range(256)]
    state = initial_state(solution, seed=123)
    redraws = splitmix64_stream(123)
    started = time.perf_counter()
    for secret in range(256):
        for guess in range(256):
            state.shared[("guess", "secret")] = secret
            result, state = simulate_packet(solution, state, packets[guess])
            assert result.verdict == PROCESSED
            assert result.packet.payload == guess_reference(secret, guess)
            if guess == secret:
                # A win must replace the secret with the next seeded draw.
                after = state.shared[("guess", "secret")]
                assert after == next(redraws) & 0xFF
    assert time.perf_counter() - started < 5.0


@pytest.mark.acceptance(2)
def test_c2_wraparound_arithmetic_is_modular():
    for a in range(256):
        for b in range(256):
            assert wrap_add(u8(a), u8(b)).magnitude == (a + b) % 256
            assert wrap_sub(u8(a), u8(b)).magnitude == (a - b) % 256
    rng = random.Random(20260814)
    from p4flowgen.core_model import u32, u64
    for make, bits in ((u16, 16), (u32, 32), (u64, 64)):
        modulus = 1 << bits
        for _ in range(10_000):
            a, b = rng.randrange(modulus), rng.randrange(modulus)
            assert wrap_add(make(a), make(b)).magnitude == (a + b) % modulus
            assert wrap_sub(make(a), make(b)).magnitude == (a - b) % modulus


@pytest.mark.acceptance(3)
def test_c3_checksum_matches_naive_oracle_and_verifies():
    rng = random.Random(1071)
    for _ in range(1000):
        raw = rng.randbytes(20)
        assert internet_checksum(raw).magnitude == rfc1071_naive(raw)
        zeroed = raw[:10] + b"\x00\x00" + raw[12:]
        computed = internet_checksum(zeroed).magnitude
        patched = raw[:10] + computed.to_bytes(2, "big") + raw[12:]
        assert internet_checksum(patched).magnitude == 0
        assert rfc1071_naive(patched) == 0


@pytest.mark.acceptance(4)
def test_c4_insert_agg_end_to_end():
    solution = insert_agg_solution()
    state = initial_state(solution, seed=0)
    rng = random.Random(44)
    for _ in range(100):
        fields = rng.randbytes(4)
        payload = fields + rng.randbytes(rng.randrange(0, 33))
        packet = make_udp_packet(
            AGG_PORT,
            payload=payload,
            src_port=rng.randrange(1024, 65536),
            ingress_port=rng.randrange(8),
        )
        result, state = simulate_packet(solution, state, packet)
        assert result.verdict == PROCESSED
        out = result.packet
        total = (int.from_bytes(fields[:2], "big") + int.from_bytes(fields[2:], "big"))
        assert out.payload == total.to_bytes(4, "big") + payload
        assert len(out.payload) == len(payload) + 4
        assert out.ipv4["totalLen"] == packet.ipv4["totalLen"] + 4
        assert out.udp["len"] == packet.udp["len"] + 4
        assert rfc1071_naive(ipv4_header_bytes(out.ipv4)) == 0
        assert out.udp["checksum"] == 0


@pytest.mark.acceptance(5)
def test_c5_golden_codegen_and_determinism():
    for name in sorted(EXAMPLE_BUILDERS):
        runs = []
        for _ in range(2):
            fileset = generate(EXAMPLE_BUILDERS[name]())
            files = dict(fileset.files)
            files[fileset.template_name] = fileset.template_text
            runs.append(files)
        assert runs[0] == runs[1]
        golden_dir = GOLDEN / name
        assert sorted(runs[0]) == sorted(p.name for p in golden_dir.iterdir())
        for fname, text in runs[0].items():
            assert text == (golden_dir / fname).read_text(), f"{name}/{fname}"


@pytest.mark.acceptance(6)
def test_c6_emitted_p4_is_structurally_sound():
    solutions = {
        "guess_if_else": guess_game_solution(Hint.IF_ELSE),
        "guess_table": guess_game_solution(Hint.TABLE),
        "insert_agg": insert_agg_solution(),
        "empty": Solution([]),
    }
    for label, solution in solutions.items():
        fileset = generate(solution)
        for fname, text in fileset.files.items():
            check_balanced(text)
        fragments = {n: fileset.files[n] for n in FRAGMENT_NAMES}
        assert unresolved_names(fragments, fileset.template_text) == set(), label
    empty_parser = generate(Solution([])).files["parser.p4inc"]
    assert "#define" not in empty_parser


@pytest.mark.acceptance(7)
def test_c7_hint_changes_code_not_behavior():
    rng = random.Random(77)
    packets = []
    for _ in range(1000):
        roll = rng.random()
        if roll < 0.8:
            packets.append(make_udp_packet(
                GUESS_PORT,
                payload=bytes([rng.randrange(256)]),
                ingress_port=rng.randrange(4),
            ))
        elif roll < 0.9:
            packets.append(make_udp_packet(9999, payload=bytes([rng.randrange(256)])))
        else:
            packets.append(make_udp_packet(GUESS_PORT, payload=b""))
    docs = {}
    applies = {}
    for hint in (Hint.IF_ELSE, Hint.TABLE):
        solution = guess_game_solution(hint)
        results = run_trace(solution, packets, seed=5)
        docs[hint] = dumps_doc(results_to_doc(5, results))
        applies[hint] = generate(solution).files["apply.p4inc"]
    assert docs[Hint.IF_ELSE] == docs[Hint.TABLE]
    assert applies[Hint.IF_ELSE] != applies[Hint.TABLE]
    assert "__t.apply()" in applies[Hint.TABLE]
    assert "__t.apply()" not in applies[Hint.IF_ELSE]


def contract_processor(name="probe", input_name="probe_in", output_name="probe_out"):
    """A fixed declaration set with every kind of variable: input and
    output fields, u8/u32/u64 and bool locals, a shared variable, a ring.
    Every input layout it makes has one structure, every output layout
    another."""
    return new_flow_processor(
        name,
        input=HeaderLayout(
            input_name, [FieldDecl("inp", U16), FieldDecl("a8", U8), FieldDecl("a32", U32)]
        ),
        output=HeaderLayout(
            output_name, [FieldDecl("res", U16), FieldDecl("o8", U8), FieldDecl("o32", U32)]
        ),
        locals=[
            local("scratch", U8), local("wide", U32), local("huge", U64),
            bool_local("flag"), bool_local("flag2"),
        ],
        shared=[SharedVariableDecl("total", U32, u32(7))],
        rings=[RingBufferDecl("hist", U8, 3)],
    )


class Picks:
    """Valid targets, operands and commands over contract_processor's
    declarations, each choice taken from a cycle of drawn integers."""

    def __init__(self, proc, picks) -> None:
        self.picks = itertools.cycle(picks)
        decls = (*proc.input.fields, *proc.output.fields, *proc.locals, *proc.shared)
        self.refs = [proc.var(d.name) for d in decls]

    def choose(self, options):
        return options[next(self.picks) % len(options)]

    def operand(self, width):
        """A variable of ``width`` (the target of the command included) or
        a constant."""
        ref = self.choose([r for r in self.refs if r.width is width] + [None])
        return ref or UValue(width, next(self.picks) & width.mask)

    def target(self, is_bool=False, width=None):
        return self.choose([
            r for r in self.refs
            if r.scope is not Scope.INPUT and r.is_bool == is_bool
            and width in (None, r.width)
        ])

    def command(self, op):
        cls = OPS[op]
        if cls in (AssignConst, AssignVar):
            target = self.target(is_bool=self.choose([False, True]))
            value = UValue(target.width, next(self.picks) & (1 if target.is_bool else target.width.mask))
            if cls is AssignConst:
                return AssignConst(target, value)
            if target.is_bool:
                return AssignVar(target, self.choose([r for r in self.refs if r.is_bool] + [value]))
            return AssignVar(target, self.operand(target.width))
        if cls is Cast:
            return Cast(self.target(), self.operand(self.choose([U8, U16, U32, U64])))
        if cls in (Add, Sub):
            target = self.target()
            return cls(target, self.operand(target.width), self.operand(target.width))
        if cls in (Equals, Greater):
            width = self.choose([U8, U16, U32, U64])
            hint = {"hint": self.choose(list(Hint))} if cls is Equals else {}
            return cls(self.target(is_bool=True), self.operand(width), self.operand(width), **hint)
        if cls is Rand:
            return Rand(self.target())
        if cls is RingPush:
            return RingPush("hist", self.operand(U8))
        if cls is RingReadHead:
            return RingReadHead("hist", self.target(width=U8))
        if cls is SendBack:
            return SendBack()
        return Forward(next(self.picks) & 0xFFFF)


def apply_items(proc, block, items):
    """Drive the builder from a tree spec, asserting every scope closer
    hands back the block the scope was opened from."""
    for item in items:
        if item[0] == "cmd":
            assert block.add(Picks(proc, item[2]).command(item[1])) is block
        elif item[0] == "if":
            then = block.If(Picks(proc, [item[1]]).target(is_bool=True))
            apply_items(proc, then, item[2])
            if item[3] is None:
                assert then.EndIf() is block
            else:
                orelse = then.Else()
                apply_items(proc, orelse, item[3])
                assert orelse.EndIf() is block
        elif item[0] == "switch":
            scope = block.Switch(Picks(proc, [item[1]]).operand(U8))
            for value, body in item[2]:
                scope = scope.Case(u8(value))
                apply_items(proc, scope, body)
            assert scope.EndSwitch() is block
        else:
            inner = block.Atomic()
            apply_items(proc, inner, item[1])
            assert inner.EndAtomic() is block


def items_strategy(depth, allow_atomic=True):
    """Builder call trees for apply_items: commands of every kind as
    leaves, If/Switch (and Atomic, outside other Atomics) above them."""
    pick = st.integers(0, 2**64 - 1)
    leaf = st.tuples(st.just("cmd"), st.sampled_from(list(OPS)), st.lists(pick, min_size=1, max_size=6))
    if depth == 0:
        return leaf
    sub = st.lists(items_strategy(depth - 1, allow_atomic=False), max_size=3)
    options = [
        leaf,
        st.tuples(st.just("if"), pick, sub, st.none() | sub),
        st.tuples(
            st.just("switch"),
            pick,
            st.lists(
                st.tuples(st.integers(0, 255), sub),
                min_size=1,
                max_size=3,
                unique_by=lambda case: case[0],
            ),
        ),
    ]
    if allow_atomic:
        options.append(st.tuples(st.just("atomic"), sub))
    return st.one_of(options)


BAD_CALLS = [
    (ErrorKind.UNDECLARED_NAME, lambda p, b: b.add(AssignVar(p.var("res"), p.var("ghost")))),
    (ErrorKind.WIDTH_MISMATCH, lambda p, b: b.add(AssignVar(p.var("scratch"), p.var("wide")))),
    (ErrorKind.WRITE_TO_INPUT, lambda p, b: b.add(AssignConst(p.var("inp"), u16(1)))),
    (ErrorKind.NOT_BOOLEAN, lambda p, b: b.If(p.var("scratch"))),
    (ErrorKind.OPEN_SCOPE, lambda p, b: b.EndIf()),
    (ErrorKind.OUTPUT_UNDECLARED, lambda p, b: b.add(
        AssignConst(VarRef(Scope.OUTPUT, "ghost_out", U8), u8(1)))),
]


@pytest.mark.acceptance(8)
@settings(max_examples=100, deadline=None)
@given(
    items=st.lists(items_strategy(2), max_size=4),
    bad=st.integers(0, len(BAD_CALLS) - 1),
)
def test_c8_builder_scopes_and_error_contracts(items, bad):
    proc = contract_processor()
    apply_items(proc, proc.body, items)
    proc.validate_complete()

    snapshot = json.dumps(proc.to_doc(), sort_keys=True)
    kind, call = BAD_CALLS[bad]
    if kind is ErrorKind.OUTPUT_UNDECLARED:
        proc = new_flow_processor(
            "no_out", input=HeaderLayout("only_in", [FieldDecl("inp", U16)])
        )
        snapshot = json.dumps(proc.to_doc(), sort_keys=True)
    with pytest.raises(SemanticError) as err:
        call(proc, proc.body)
    assert err.value.kind is kind
    assert json.dumps(proc.to_doc(), sort_keys=True) == snapshot

    # Atomic scopes refuse to nest, also leaving the tree untouched.
    proc2 = contract_processor()
    inner = proc2.body.Atomic()
    snapshot2 = json.dumps(proc2.to_doc(), sort_keys=True)
    with pytest.raises(SemanticError) as err2:
        inner.Atomic()
    assert err2.value.kind is ErrorKind.ATOMIC_NESTING
    assert json.dumps(proc2.to_doc(), sort_keys=True) == snapshot2


@pytest.mark.acceptance(9)
def test_c9_first_match_wins_on_overlap():
    rng = random.Random(9)
    hits = 0
    for _ in range(100):
        dst = rng.randrange(1, 65535)
        src = rng.randrange(1, 65535)
        proc = new_flow_processor(
            "tiny", input=HeaderLayout("probe", [FieldDecl("x", U8)])
        )
        broad = [("udp.dstPort", u16(dst))]
        narrow = broad + [("udp.srcPort", u16(src))]
        if rng.random() < 0.5:
            narrow = list(broad)  # exact duplicate criteria
        first = new_flow_selector("first", ProtocolStack.IPV4_UDP, broad, proc)
        second = new_flow_selector("second", ProtocolStack.IPV4_UDP, narrow, proc)
        if rng.random() < 0.5:
            first, second = second, first
        solution = Solution([first, second])
        packet = make_udp_packet(dst, payload=b"\x00", src_port=src)
        # The packet satisfies both selectors; registration order decides.
        assert classify(solution, packet) is not None
        hits += classify(solution, packet).name == first.name
    assert hits == 100


@pytest.mark.acceptance(10)
def test_c10_cli_round_trip(tmp_path, capsys):
    assert cli.main(["examples", "-o", str(tmp_path)]) == 0
    for name in sorted(EXAMPLE_BUILDERS):
        program = tmp_path / f"{name}.json"
        assert cli.main(["check", str(program)]) == 0
        gen_dir = tmp_path / f"gen_{name}"
        assert cli.main(["generate", str(program), "-o", str(gen_dir)]) == 0
        for frozen in (GOLDEN / name).iterdir():
            assert (gen_dir / frozen.name).read_bytes() == frozen.read_bytes()
        results = tmp_path / f"{name}_results.json"
        trace = DATA / f"{name}_trace.json"
        assert cli.main([
            "simulate", str(program), "-t", str(trace), "-o", str(results),
        ]) == 0
        assert results.read_text() == (GOLDEN / f"{name}_results.json").read_text()
    capsys.readouterr()
