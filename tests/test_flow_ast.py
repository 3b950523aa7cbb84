"""Unit tests for the fluent builder and its incremental checks."""

import json

import pytest

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
from p4flowgen.errors import WidthMismatch as CoreWidthMismatch
from p4flowgen.flow_ast import (
    MAX_NESTING,
    Add,
    AssignConst,
    AssignVar,
    AtomicBlock,
    Cast,
    CaseBlock,
    ElseBlock,
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
    SwitchBlock,
    ThenBlock,
    VarRef,
    bool_local,
    local,
    new_flow_processor,
)

REQ = HeaderLayout("req", [FieldDecl("a", U8), FieldDecl("p", U16)])
RESP = HeaderLayout("resp", [FieldDecl("q", U8), FieldDecl("r", U16)])


def make_proc(**overrides):
    kwargs = dict(
        name="proc",
        input=REQ,
        output=RESP,
        locals=[bool_local("ok"), local("t8", U8), local("t16", U16), local("t32", U32)],
        shared=[SharedVariableDecl("s8", U8, u8(0))],
        rings=[RingBufferDecl("log", U32, 4)],
    )
    kwargs.update(overrides)
    return new_flow_processor(**kwargs)


def err(excinfo) -> SemanticError:
    assert isinstance(excinfo.value, SemanticError)
    return excinfo.value


class TestNewFlowProcessor:
    def test_basic_construction(self):
        p = make_proc()
        assert p.body.commands == []

    def test_duplicate_name_across_scopes(self):
        with pytest.raises(SemanticError) as e:
            make_proc(locals=[local("a", U8)])
        assert err(e).kind is ErrorKind.DUPLICATE_NAME

    def test_reserved_processor_name(self):
        with pytest.raises(SemanticError) as e:
            make_proc(name="parser")
        assert err(e).kind is ErrorKind.RESERVED_NAME

    def test_bool_local_must_be_u8(self):
        with pytest.raises(CoreWidthMismatch):
            bool_local("wide").__class__("wide", U16, is_bool=True)


class TestVarResolution:
    def test_each_scope_resolves(self):
        p = make_proc()
        assert p.var("a") == VarRef(Scope.INPUT, "a", U8)
        assert p.var("q") == VarRef(Scope.OUTPUT, "q", U8)
        assert p.var("ok") == VarRef(Scope.LOCAL, "ok", U8, is_bool=True)
        assert p.var("s8") == VarRef(Scope.SHARED, "s8", U8)

    def test_unknown_name(self):
        p = make_proc()
        with pytest.raises(SemanticError) as e:
            p.var("nope")
        assert err(e).kind is ErrorKind.UNDECLARED_NAME


class TestAdd:
    def test_fluent_chain_returns_same_block(self):
        p = make_proc()
        b = p.body
        out = b.add(AssignConst(p.var("ok"), u8(1))).add(
            Greater(p.var("ok"), p.var("a"), p.var("t8"))
        )
        assert out is b
        assert len(b.commands) == 2

    def test_assign_width_mismatch(self):
        p = make_proc()
        with pytest.raises(SemanticError) as e:
            p.body.add(AssignVar(p.var("t16"), p.var("a")))
        assert err(e).kind is ErrorKind.WIDTH_MISMATCH

    def test_write_to_input(self):
        p = make_proc()
        with pytest.raises(SemanticError) as e:
            p.body.add(AssignConst(p.var("a"), u8(1)))
        assert err(e).kind is ErrorKind.WRITE_TO_INPUT

    def test_output_ref_without_output_layout(self):
        p = make_proc(output=None)
        ghost = VarRef(Scope.OUTPUT, "q", U8)
        with pytest.raises(SemanticError) as e:
            p.body.add(AssignConst(ghost, u8(1)))
        assert err(e).kind is ErrorKind.OUTPUT_UNDECLARED

    def test_stale_reference_is_rechecked(self):
        p = make_proc()
        lying = VarRef(Scope.LOCAL, "t16", U8)
        with pytest.raises(SemanticError) as e:
            p.body.add(AssignConst(lying, u8(1)))
        assert err(e).kind is ErrorKind.WIDTH_MISMATCH

    def test_arithmetic_rejects_bool_target(self):
        p = make_proc()
        with pytest.raises(SemanticError) as e:
            p.body.add(Add(p.var("ok"), p.var("t8"), p.var("t8")))
        assert err(e).kind is ErrorKind.NOT_BOOLEAN

    def test_arithmetic_operand_widths_must_agree(self):
        p = make_proc()
        with pytest.raises(SemanticError) as e:
            p.body.add(Add(p.var("t16"), p.var("t16"), p.var("t8")))
        assert err(e).kind is ErrorKind.WIDTH_MISMATCH

    def test_comparison_needs_bool_target(self):
        p = make_proc()
        with pytest.raises(SemanticError) as e:
            p.body.add(Equals(p.var("t8"), p.var("a"), u8(3)))
        assert err(e).kind is ErrorKind.NOT_BOOLEAN

    def test_bool_accepts_only_binary_constants(self):
        p = make_proc()
        p.body.add(AssignConst(p.var("ok"), u8(1)))
        with pytest.raises(SemanticError) as e:
            p.body.add(AssignConst(p.var("ok"), u8(2)))
        assert err(e).kind is ErrorKind.NOT_BOOLEAN

    def test_bool_rejects_plain_u8_source(self):
        p = make_proc()
        with pytest.raises(SemanticError) as e:
            p.body.add(AssignVar(p.var("ok"), p.var("t8")))
        assert err(e).kind is ErrorKind.NOT_BOOLEAN

    def test_bool_accepts_bool_source(self):
        p = make_proc(locals=[bool_local("ok"), bool_local("ok2")])
        p.body.add(Equals(p.var("ok"), u8(1), u8(1)))
        p.body.add(AssignVar(p.var("ok2"), p.var("ok")))

    def test_cast_changes_width(self):
        p = make_proc()
        p.body.add(Cast(p.var("t32"), p.var("a")))
        p.body.add(Cast(p.var("t8"), p.var("t32")))
        with pytest.raises(SemanticError) as e:
            p.body.add(Cast(p.var("ok"), p.var("a")))
        assert err(e).kind is ErrorKind.NOT_BOOLEAN

    def test_rand_rejects_bool_target(self):
        p = make_proc()
        p.body.add(Rand(p.var("t8")))
        with pytest.raises(SemanticError) as e:
            p.body.add(Rand(p.var("ok")))
        assert err(e).kind is ErrorKind.NOT_BOOLEAN

    def test_ring_commands(self):
        p = make_proc()
        p.body.add(RingPush("log", p.var("t32"))).add(
            RingReadHead("log", p.var("t32"))
        )
        with pytest.raises(SemanticError) as e:
            p.body.add(RingPush("nope", p.var("t32")))
        assert err(e).kind is ErrorKind.UNDECLARED_NAME
        with pytest.raises(SemanticError) as e:
            p.body.add(RingPush("log", p.var("t16")))
        assert err(e).kind is ErrorKind.WIDTH_MISMATCH

    def test_send_back_and_forward(self):
        p = make_proc()
        p.body.add(SendBack()).add(Forward(7))
        for port in (70000, True, False):  # a bool would be emitted as 16wTrue
            with pytest.raises(ValueError):
                Forward(port)

    def test_equals_on_output_and_shared_targets(self):
        p = make_proc()
        p.body.add(AssignConst(p.var("q"), u8(5)))
        p.body.add(AssignConst(p.var("s8"), u8(5)))


class TestIfElse:
    def test_endif_restores_opening_block(self):
        p = make_proc()
        b = p.body.add(Equals(p.var("ok"), p.var("a"), u8(1)))
        then = b.If(p.var("ok"))
        assert isinstance(then, ThenBlock)
        assert then.If(p.var("ok")).EndIf() is then
        assert then.EndIf() is b

    def test_else_branch(self):
        p = make_proc()
        then = p.body.If(p.var("ok"))
        other = then.Else()
        assert isinstance(other, ElseBlock)
        assert other.EndIf() is p.body

    def test_condition_must_be_bool(self):
        p = make_proc()
        with pytest.raises(SemanticError) as e:
            p.body.If(p.var("t16"))
        assert err(e).kind is ErrorKind.NOT_BOOLEAN
        with pytest.raises(SemanticError) as e:
            p.body.If(u8(1))
        assert err(e).kind is ErrorKind.NOT_BOOLEAN

    def test_else_twice(self):
        p = make_proc()
        then = p.body.If(p.var("ok"))
        then.Else()
        with pytest.raises(SemanticError) as e:
            then.Else()
        assert err(e).kind is ErrorKind.OPEN_SCOPE

    def test_endif_twice(self):
        p = make_proc()
        then = p.body.If(p.var("ok"))
        then.EndIf()
        with pytest.raises(SemanticError) as e:
            then.EndIf()
        assert err(e).kind is ErrorKind.OPEN_SCOPE

    def test_closed_scope_rejects_commands(self):
        p = make_proc()
        then = p.body.If(p.var("ok"))
        then.EndIf()
        with pytest.raises(SemanticError) as e:
            then.add(SendBack())
        assert err(e).kind is ErrorKind.OPEN_SCOPE

    def test_endif_on_plain_block(self):
        p = make_proc()
        with pytest.raises(SemanticError) as e:
            p.body.EndIf()
        assert err(e).kind is ErrorKind.OPEN_SCOPE


class TestSwitch:
    def test_minimal_switch(self):
        p = make_proc()
        sw = p.body.Switch(p.var("t8"))
        assert isinstance(sw, SwitchBlock)
        done = (
            sw.Case(u8(0))
            .add(AssignConst(p.var("q"), u8(0)))
            .Case(u8(1))
            .add(AssignConst(p.var("q"), u8(1)))
            .EndSwitch()
        )
        assert done is p.body
        p.validate_complete()

    def test_case_block_kind(self):
        p = make_proc()
        case = p.body.Switch(p.var("t8")).Case(u8(0))
        assert isinstance(case, CaseBlock)

    def test_duplicate_case_value(self):
        p = make_proc()
        sw = p.body.Switch(p.var("t8"))
        sw.Case(u8(0))
        with pytest.raises(SemanticError) as e:
            sw.Case(u8(0))
        assert err(e).kind is ErrorKind.DUPLICATE_NAME

    def test_case_width_must_match_selector(self):
        p = make_proc()
        sw = p.body.Switch(p.var("t8"))
        with pytest.raises(SemanticError) as e:
            sw.Case(u16(0))
        assert err(e).kind is ErrorKind.WIDTH_MISMATCH

    def test_commands_forbidden_between_cases(self):
        p = make_proc()
        sw = p.body.Switch(p.var("t8"))
        with pytest.raises(SemanticError) as e:
            sw.add(SendBack())
        assert err(e).kind is ErrorKind.OPEN_SCOPE

    def test_constant_selector_is_an_operand(self):
        p = make_proc()
        p.body.Switch(u8(3)).Case(u8(3)).EndSwitch()


class TestAtomic:
    def test_shared_update_inside_atomic(self):
        p = make_proc()
        done = (
            p.body.Atomic()
            .add(AssignVar(p.var("t8"), p.var("s8")))
            .add(Add(p.var("t8"), p.var("t8"), u8(1)))
            .add(AssignVar(p.var("s8"), p.var("t8")))
            .EndAtomic()
        )
        assert done is p.body

    def test_direct_nesting_rejected(self):
        p = make_proc()
        inner = p.body.Atomic()
        assert isinstance(inner, AtomicBlock)
        with pytest.raises(SemanticError) as e:
            inner.Atomic()
        assert err(e).kind is ErrorKind.ATOMIC_NESTING

    def test_nesting_through_if_rejected(self):
        p = make_proc()
        then = p.body.Atomic().If(p.var("ok"))
        with pytest.raises(SemanticError) as e:
            then.Atomic()
        assert err(e).kind is ErrorKind.ATOMIC_NESTING

    def test_empty_atomic_is_legal(self):
        p = make_proc()
        assert p.body.Atomic().EndAtomic() is p.body
        p.validate_complete()


OPENERS = {
    "If": lambda p, block: block.If(p.var("ok")),
    "Switch": lambda p, block: block.Switch(p.var("t8")).Case(u8(0)),
    "Atomic": lambda p, block: block.Atomic(),
}


class TestNestingBound:
    @staticmethod
    def nest(p, kinds):
        block = p.body
        for kind in kinds:
            block = OPENERS[kind](p, block)
        return block

    @pytest.mark.parametrize("kind", ["If", "Switch"])
    def test_the_deepest_scope_takes_commands(self, kind):
        p = make_proc()
        inner = self.nest(p, [kind] * MAX_NESTING)
        inner.add(Rand(p.var("t8")))
        assert inner.commands[0].ordinal == p._ordinal

    @pytest.mark.parametrize("kind", ["If", "Switch", "Atomic"])
    def test_one_scope_deeper_is_refused_and_leaves_no_trace(self, kind):
        p = make_proc()
        inner = self.nest(p, ["If"] * MAX_NESTING)
        before = p._ordinal
        with pytest.raises(SemanticError) as e:
            OPENERS[kind](p, inner)
        assert (err(e).kind, err(e).message, err(e).site) == (
            ErrorKind.NESTING_TOO_DEEP, "scopes may nest at most 64 deep", before + 1
        )
        assert inner.commands == []

    def test_atomic_counts_as_a_scope(self):
        p = make_proc()
        inner = self.nest(p, ["Atomic"] + ["If"] * (MAX_NESTING - 1))
        with pytest.raises(SemanticError) as e:
            inner.If(p.var("ok"))
        assert err(e).kind is ErrorKind.NESTING_TOO_DEEP

    def test_closed_scopes_do_not_count(self):
        p = make_proc()
        for _ in range(MAX_NESTING + 1):
            p.body.If(p.var("ok")).EndIf()
        p.validate_complete()


class TestValidateComplete:
    def test_ok_when_all_scopes_closed(self):
        p = make_proc()
        p.body.If(p.var("ok")).Else().EndIf()
        p.validate_complete()

    def test_open_switch_detected(self):
        p = make_proc()
        p.body.Switch(p.var("t8")).Case(u8(0))
        with pytest.raises(SemanticError) as e:
            p.validate_complete()
        assert err(e).kind is ErrorKind.OPEN_SCOPE

    def test_empty_body_with_output_is_ok(self):
        make_proc().validate_complete()


class TestOrdinals:
    def test_sites_increase_across_calls(self):
        p = make_proc()
        sites = []
        for _ in range(3):
            with pytest.raises(SemanticError) as e:
                p.body.add(AssignConst(p.var("a"), u8(1)))
            sites.append(err(e).site)
        assert sites == sorted(sites)
        assert len(set(sites)) == 3

    def test_stored_commands_carry_call_ordinals(self):
        p = make_proc()
        p.body.add(SendBack())
        then = p.body.If(p.var("ok"))
        then.add(Forward(1)).EndIf()
        send, if_node = p.body.commands
        assert send.ordinal == 1
        assert if_node.ordinal == 2
        assert if_node.then_block.commands[0].ordinal == 3
        assert if_node.end_ordinal == 4

    def test_a_stored_command_added_again_is_copied_with_the_new_ordinal(self):
        p = make_proc()
        first = [
            Equals(p.var("ok"), p.var("a"), u8(3), Hint.TABLE),
            Forward(7),
            RingPush("log", p.var("t32")),
        ]
        for cmd in first:
            p.body.add(cmd)
        for cmd in first:
            p.body.add(cmd)
        assert [c.ordinal for c in first] == [1, 2, 3]
        for cmd, again in zip(first, p.body.commands[3:]):
            assert again is not cmd and type(again) is type(cmd)
            assert again.ordinal == cmd.ordinal + 3
            assert all(getattr(again, name) == getattr(cmd, name) for name, _ in cmd.roles)

    def test_failed_call_consumes_an_ordinal(self):
        p = make_proc()
        with pytest.raises(SemanticError):
            p.body.add(AssignConst(p.var("a"), u8(1)))
        p.body.add(SendBack())
        assert p.body.commands[0].ordinal == 2


class TestStrongExceptionSafety:
    def snapshot(self, p):
        return json.dumps(p.to_doc(), sort_keys=True)

    def test_rejected_add_leaves_tree_identical(self):
        p = make_proc()
        p.body.add(AssignConst(p.var("q"), u8(7)))
        before = self.snapshot(p)
        for bad in [
            AssignConst(p.var("a"), u8(1)),
            AssignVar(p.var("t16"), p.var("a")),
            Add(p.var("ok"), p.var("t8"), p.var("t8")),
            RingPush("nope", p.var("t32")),
        ]:
            with pytest.raises(SemanticError):
                p.body.add(bad)
            assert self.snapshot(p) == before

    def test_rejected_scope_open_leaves_tree_identical(self):
        p = make_proc()
        atomic = p.body.Atomic()
        before = self.snapshot(p)
        with pytest.raises(SemanticError):
            atomic.Atomic()
        with pytest.raises(SemanticError):
            atomic.If(p.var("t8"))
        assert self.snapshot(p) == before


class TestDocForm:
    def test_doc_shape_for_nested_body(self):
        p = make_proc()
        p.body.add(Equals(p.var("ok"), p.var("a"), u8(1), hint=Hint.TABLE))
        p.body.If(p.var("ok")).add(AssignConst(p.var("q"), u8(2))).Else().add(
            Sub(p.var("t8"), p.var("a"), u8(1))
        ).EndIf()
        doc = p.to_doc()
        assert doc["name"] == "proc"
        eq, if_doc = doc["body"]
        assert eq["op"] == "equals"
        assert eq["hint"] == "table"
        assert eq["lhs"] == {"var": "a"}
        assert eq["rhs"] == {"const": {"width": 8, "value": 1}}
        assert if_doc["op"] == "if"
        assert if_doc["then"][0]["op"] == "assign_const"
        assert if_doc["else"][0]["op"] == "sub"
        assert if_doc["end_ordinal"] == 6

    def test_doc_is_json_ready(self):
        p = make_proc()
        p.body.Atomic().add(Rand(p.var("t8"))).EndAtomic()
        p.body.Switch(p.var("a")).Case(u8(0)).add(SendBack()).EndSwitch()
        json.dumps(p.to_doc())
