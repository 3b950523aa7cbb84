"""The behaviour of every record class of the package.

A record class is a plain class whose fields, constructor, repr and
equality follow from its annotations. For each one these tests pin the
field names and their order, which constructor arguments are required,
the kind of equality (by value or by identity) and hashing, whether
writes are refused, the repr of one instance, the checks its
constructor makes, and that copies and pickles of a Solution and of a
command round-trip.
"""

import copy
import inspect
import pickle
import re

import pytest

from p4flowgen.builtin_examples import GUESS_PORT, guess_game_solution
from p4flowgen.codegen import GeneratedFileSet
from p4flowgen.core_model import (
    U8,
    U16,
    U32,
    FieldDecl,
    HeaderLayout,
    RingBufferDecl,
    SharedVariableDecl,
    UValue,
    u8,
    u16,
)
from p4flowgen.errors import DuplicateName, ReservedName, WidthMismatch
from p4flowgen.flow_ast import (
    Add,
    AssignConst,
    AssignVar,
    Cast,
    Equals,
    Forward,
    Greater,
    Hint,
    LocalDecl,
    Rand,
    RingPush,
    RingReadHead,
    Scope,
    SendBack,
    Sub,
    VarRef,
    new_flow_processor,
)
from p4flowgen.packet import SimPacket
from p4flowgen.selector import (
    Criterion,
    FlowSelector,
    ProtocolStack,
    Solution,
    new_flow_selector,
)
from p4flowgen.simulator import (
    SimResult,
    SimState,
    SplitMix64,
    make_udp_packet,
    run_trace,
)
from p4flowgen.trace_doc import result_to_doc


REQ = HeaderLayout("req", [FieldDecl("guess", U8)])
PROC = new_flow_processor("proc", REQ)
T = VarRef(Scope.LOCAL, "t", U8)
T_REPR = "VarRef(scope=<Scope.LOCAL: 'local'>, name='t', width=<UWidth.U8: 8>, is_bool=False)"
S = VarRef(Scope.INPUT, "guess", U8)
S_REPR = "VarRef(scope=<Scope.INPUT: 'input'>, name='guess', width=<UWidth.U8: 8>, is_bool=False)"
REQ_REPR = "HeaderLayout(name='req', fields=(FieldDecl(name='guess', width=<UWidth.U8: 8>),))"
CRIT_REPR = "Criterion(field='udp.dstPort', value=u16(80))"


def selector() -> FlowSelector:
    return new_flow_selector("sel", ProtocolStack.IPV4_UDP, [("udp.dstPort", u16(80))], PROC)


SEL_REPR = (
    "FlowSelector(name='sel', stack=<ProtocolStack.IPV4_UDP: 'IPV4_UDP'>, "
    f"criteria=({CRIT_REPR},), lookahead=None, "
    "processor=<p4flowgen.flow_ast.FlowProcessor object>)"
)


def packet() -> SimPacket:
    return SimPacket(3, {"etherType": 2048}, {"ttl": 64}, payload=b"x")


PACKET_REPR = (
    "SimPacket(ingress_port=3, eth={'etherType': 2048}, ipv4={'ttl': 64}, "
    "udp=None, tcp=None, payload=b'x')"
)

SHARED = ("p", "s")
RNG = SplitMix64(5)  # equal by identity, so shared by equal SimStates


class Record:
    """One record class: how to build an instance, and what it must show."""

    def __init__(self, cls, make, fields, required, repr_, *, eq="value", frozen=True):
        self.cls, self.make, self.fields, self.required = cls, make, fields, required
        self.repr, self.eq, self.frozen = repr_, eq, frozen

    def __repr__(self) -> str:
        return self.cls.__name__


RECORDS = [
    # core_model
    Record(UValue, lambda: u8(7), ("width", "magnitude"), ("width", "magnitude"), "u8(7)"),
    Record(FieldDecl, lambda: FieldDecl("f", U8), ("name", "width"), ("name", "width"),
           "FieldDecl(name='f', width=<UWidth.U8: 8>)"),
    Record(HeaderLayout, lambda: HeaderLayout("req", [FieldDecl("guess", U8)]),
           ("name", "fields"), ("name", "fields"), REQ_REPR),
    Record(SharedVariableDecl, lambda: SharedVariableDecl("s", U16, u16(3)),
           ("name", "width", "initial"), ("name", "width", "initial"),
           "SharedVariableDecl(name='s', width=<UWidth.U16: 16>, initial=u16(3))"),
    Record(RingBufferDecl, lambda: RingBufferDecl("r", U32, 4),
           ("name", "element_width", "capacity"), ("name", "element_width", "capacity"),
           "RingBufferDecl(name='r', element_width=<UWidth.U32: 32>, capacity=4)"),
    # flow_ast
    Record(LocalDecl, lambda: LocalDecl("b", U8, is_bool=True), ("name", "width", "is_bool"),
           ("name", "width"), "LocalDecl(name='b', width=<UWidth.U8: 8>, is_bool=True)"),
    Record(VarRef, lambda: VarRef(Scope.LOCAL, "t", U8), ("scope", "name", "width", "is_bool"),
           ("scope", "name", "width"), T_REPR),
    Record(AssignConst, lambda: AssignConst(T, u8(1)), ("target", "value", "ordinal"),
           ("target", "value"), f"AssignConst(target={T_REPR}, value=u8(1), ordinal=0)"),
    Record(AssignVar, lambda: AssignVar(T, S, ordinal=2), ("target", "source", "ordinal"),
           ("target", "source"), f"AssignVar(target={T_REPR}, source={S_REPR}, ordinal=2)"),
    Record(Cast, lambda: Cast(T, S), ("target", "source", "ordinal"), ("target", "source"),
           f"Cast(target={T_REPR}, source={S_REPR}, ordinal=0)"),
    Record(Add, lambda: Add(T, S, u8(1)), ("target", "lhs", "rhs", "ordinal"),
           ("target", "lhs", "rhs"), f"Add(target={T_REPR}, lhs={S_REPR}, rhs=u8(1), ordinal=0)"),
    Record(Sub, lambda: Sub(T, S, u8(1)), ("target", "lhs", "rhs", "ordinal"),
           ("target", "lhs", "rhs"), f"Sub(target={T_REPR}, lhs={S_REPR}, rhs=u8(1), ordinal=0)"),
    Record(Equals, lambda: Equals(T, S, u8(1), Hint.TABLE),
           ("target", "lhs", "rhs", "hint", "ordinal"), ("target", "lhs", "rhs"),
           f"Equals(target={T_REPR}, lhs={S_REPR}, rhs=u8(1), hint=<Hint.TABLE: 'table'>, "
           "ordinal=0)"),
    Record(Greater, lambda: Greater(T, S, u8(1)), ("target", "lhs", "rhs", "ordinal"),
           ("target", "lhs", "rhs"),
           f"Greater(target={T_REPR}, lhs={S_REPR}, rhs=u8(1), ordinal=0)"),
    Record(Rand, lambda: Rand(T), ("target", "ordinal"), ("target",),
           f"Rand(target={T_REPR}, ordinal=0)"),
    Record(RingPush, lambda: RingPush("r", S), ("ring", "source", "ordinal"),
           ("ring", "source"), f"RingPush(ring='r', source={S_REPR}, ordinal=0)"),
    Record(RingReadHead, lambda: RingReadHead("r", T), ("ring", "target", "ordinal"),
           ("ring", "target"), f"RingReadHead(ring='r', target={T_REPR}, ordinal=0)"),
    Record(SendBack, lambda: SendBack(), ("ordinal",), (), "SendBack(ordinal=0)"),
    Record(Forward, lambda: Forward(9), ("port", "ordinal"), ("port",),
           "Forward(port=9, ordinal=0)"),
    # selector
    Record(Criterion, lambda: Criterion("udp.dstPort", u16(80)), ("field", "value"),
           ("field", "value"), CRIT_REPR),
    Record(FlowSelector, selector, ("name", "stack", "criteria", "lookahead", "processor"),
           ("name", "stack", "criteria", "lookahead", "processor"), SEL_REPR, eq="identity"),
    Record(Solution, lambda: Solution([selector()]), ("selectors", "chains"), ("selectors",),
           f"Solution(selectors=({SEL_REPR},), "
           f"chains={{<ProtocolStack.IPV4_UDP: 'IPV4_UDP'>: ({SEL_REPR},)}})",
           eq="identity"),
    # packet
    Record(SimPacket, packet, ("ingress_port", "eth", "ipv4", "udp", "tcp", "payload"),
           ("ingress_port", "eth", "ipv4"), PACKET_REPR, frozen=False),
    # simulator
    Record(SimState, lambda: SimState({SHARED: 1}, {}, RNG),
           ("shared", "rings", "rng"), ("shared", "rings", "rng"),
           "SimState(shared={('p', 's'): 1}, rings={}, "
           "rng=<p4flowgen.simulator.SplitMix64 object>)", frozen=False),
    Record(SimResult, lambda: SimResult("PASSTHROUGH", None, 1, packet()),
           ("verdict", "selector", "egress_port", "packet", "trace", "error"),
           ("verdict", "selector", "egress_port", "packet"),
           f"SimResult(verdict='PASSTHROUGH', selector=None, egress_port=1, "
           f"packet={PACKET_REPR}, trace=(), error=None)", eq="identity"),
    # codegen
    Record(GeneratedFileSet, lambda: GeneratedFileSet({"a.p4": "x"}, "t.p4", "t"),
           ("files", "template_name", "template_text"),
           ("files", "template_name", "template_text"),
           "GeneratedFileSet(files={'a.p4': 'x'}, template_name='t.p4', template_text='t')",
           eq="identity"),
]


@pytest.fixture(params=RECORDS, ids=repr)
def record(request) -> Record:
    return request.param


def test_every_record_class_is_listed():
    assert len({r.cls for r in RECORDS}) == len(RECORDS) == 26


def test_fields_in_order(record):
    assert record.cls.FIELDS == record.fields
    instance = record.make()
    assert all(hasattr(instance, name) for name in record.fields)


def test_required_arguments(record):
    params = inspect.signature(record.cls).parameters.values()
    assert tuple(p.name for p in params if p.default is p.empty) == record.required


def test_repr(record):
    # An object without a repr of its own prints its address.
    assert re.sub(r" at 0x[0-9a-f]+>", ">", repr(record.make())) == record.repr


def _with_first_field_changed(instance):
    twin = copy.copy(instance)
    object.__setattr__(twin, instance.FIELDS[0], object())
    return twin


def test_equality(record):
    a, b = record.make(), record.make()
    assert a == a
    assert a != _with_first_field_changed(a)
    assert a != object()
    if record.eq == "value":
        assert a == b and not a != b
    else:
        assert a != b and not a == b
        assert a != copy.copy(a)


def test_hashing(record):
    a, b = record.make(), record.make()
    if not record.frozen:
        assert record.cls.__hash__ is None
        with pytest.raises(TypeError):
            hash(a)
    elif record.eq == "value":
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    else:
        assert hash(a) == object.__hash__(a)
        assert len({a, b}) == 2


def test_writes(record):
    instance = record.make()
    name = record.fields[-1]
    before = getattr(instance, name)
    if record.frozen:
        with pytest.raises(AttributeError):
            setattr(instance, name, object())
        with pytest.raises(AttributeError):
            delattr(instance, name)
        assert getattr(instance, name) is before
    else:
        marker = object()
        setattr(instance, name, marker)
        assert getattr(instance, name) is marker


def test_value_records_of_two_classes_never_compare_equal():
    assert FieldDecl("b", U8) != LocalDecl("b", U8)
    assert LocalDecl("b", U8) != FieldDecl("b", U8)
    assert Rand(T) != Cast(T, T)
    assert AssignVar(T, S) != Cast(T, S)


class TestConstructorChecks:
    def test_uvalue(self):
        with pytest.raises(TypeError):
            UValue(U8, "1")
        with pytest.raises(ValueError):
            UValue(U8, 256)
        assert UValue(8, 1).width is U8

    def test_field_decl(self):
        with pytest.raises(ReservedName):
            FieldDecl("not a name", U8)
        assert FieldDecl("f", 16).width is U16

    def test_header_layout(self):
        with pytest.raises(ReservedName):
            HeaderLayout("bad__name", [FieldDecl("f", U8)])
        with pytest.raises(ReservedName):
            HeaderLayout("l", [FieldDecl("f", U8), FieldDecl("f", U16)])
        with pytest.raises(ValueError):
            HeaderLayout("l", [])
        assert HeaderLayout("l", iter([FieldDecl("f", U8)])).fields == (FieldDecl("f", U8),)

    def test_shared_variable_decl(self):
        with pytest.raises(ReservedName):
            SharedVariableDecl("apply", U8, u8(0))
        with pytest.raises(WidthMismatch):
            SharedVariableDecl("s", U16, u8(1))
        assert SharedVariableDecl("s", 8, u8(1)).width is U8

    def test_ring_buffer_decl(self):
        with pytest.raises(ReservedName):
            RingBufferDecl("r r", U8, 1)
        with pytest.raises(ValueError):
            RingBufferDecl("r", U8, 0)
        with pytest.raises(ValueError):
            RingBufferDecl("r", U8, "2")
        assert RingBufferDecl("r", 32, 1).element_width is U32

    def test_local_decl_runs_the_field_checks_then_its_own(self):
        with pytest.raises(ReservedName):
            LocalDecl("x__y", U8)
        with pytest.raises(WidthMismatch):
            LocalDecl("b", U16, is_bool=True)
        assert LocalDecl("b", 8, True).width is U8

    def test_forward(self):
        for port in (-1, 0x10000, True, 1.0):
            with pytest.raises(ValueError):
                Forward(port)

    def test_solution(self):
        twin = new_flow_processor("proc", REQ)
        other = new_flow_selector("other", ProtocolStack.IPV4_UDP,
                                  [("udp.dstPort", u16(81))], twin)
        with pytest.raises(DuplicateName):
            Solution([selector(), other])
        with pytest.raises(DuplicateName):
            Solution([selector(), selector()])
        assert Solution(iter([selector()])).selectors[0].name == "sel"

    def test_missing_and_unknown_arguments(self):
        with pytest.raises(TypeError):
            UValue(U8)
        with pytest.raises(TypeError):
            Forward(port=1, bogus=2)
        with pytest.raises(TypeError):
            SimPacket(1, {}, {}, None, None, b"", 7)


def _results(solution) -> list:
    packets = [make_udp_packet(GUESS_PORT, payload=bytes([i, 0, 0, 0, 0])) for i in range(4)]
    return [result_to_doc(r) for r in run_trace(solution, packets, 7)]


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["deepcopy", "pickle"])
class TestCopies:
    def test_solution_round_trips(self, clone):
        sol = guess_game_solution()
        twin = clone(sol)
        assert type(twin) is Solution and twin is not sol
        assert [s.name for s in twin.selectors] == [s.name for s in sol.selectors]
        assert list(twin.chains) == list(sol.chains)
        assert twin.chains[ProtocolStack.IPV4_UDP] == twin.selectors
        assert _results(twin) == _results(sol)

    def test_command_round_trips(self, clone):
        for cmd in (Equals(T, S, u8(1), Hint.TABLE, ordinal=4), Forward(3), SendBack(2)):
            twin = clone(cmd)
            assert twin == cmd and type(twin) is type(cmd) and twin.ordinal == cmd.ordinal
            assert hash(twin) == hash(cmd)
            with pytest.raises(AttributeError):
                twin.ordinal = 9
