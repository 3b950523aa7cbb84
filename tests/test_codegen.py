"""Checks on the emitted P4 fragments and the template splice."""

import re
from pathlib import Path

import pytest

from all_ops import all_ops_solution
from p4scan import check_balanced, check_state_access, flow_branches, unresolved_names

from p4flowgen import core_model
from p4flowgen.builtin_examples import (
    EXAMPLE_BUILDERS,
    guess_game_solution,
    insert_agg_solution,
)
from p4flowgen.codegen import (
    COMBINED_NAME,
    FRAGMENT_NAMES,
    Solution,
    emit_parser_chain,
    emit_processor_control,
    generate,
    load_template,
    write_staged,
)
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
from p4flowgen.errors import DuplicateName
from p4flowgen.flow_ast import (
    Add,
    AssignConst,
    AssignVar,
    ErrorKind,
    Forward,
    Greater,
    Hint,
    RingPush,
    RingReadHead,
    SemanticError,
    SendBack,
    bool_local,
    new_flow_processor,
)
from p4flowgen.selector import (
    PARSER_GATE,
    RECOMPUTED,
    TRANSPORT,
    ProtocolStack,
    build_chains,
    new_flow_selector,
)


def udp_selector(name, port, proc, **kw):
    return new_flow_selector(
        name, ProtocolStack.IPV4_UDP, [("udp.dstPort", u16(port))], proc, **kw
    )


def simple_processor(name="plain", layout="plain_req"):
    return new_flow_processor(
        name, input=HeaderLayout(layout, [FieldDecl("x", U8)])
    )


def ring_solution():
    proc = new_flow_processor(
        "ringy",
        input=HeaderLayout("ring_req", [FieldDecl("v", U8)]),
        output=HeaderLayout("ring_resp", [FieldDecl("oldest", U8)]),
        rings=[RingBufferDecl("window", U8, 2)],
    )
    proc.body.add(RingReadHead("window", proc.var("oldest")))
    proc.body.add(RingPush("window", proc.var("v")))
    return Solution([udp_selector("ring_sel", 1002, proc)])


ALL_EXAMPLES = [
    ("guess_game", guess_game_solution()),
    ("guess_game_table", guess_game_solution(Hint.TABLE)),
    ("insert_agg", insert_agg_solution()),
    ("ring", ring_solution()),
    ("empty", Solution([])),
]


def template_consts() -> dict[str, int]:
    """The template's ``const`` declarations: name to value."""
    text = load_template("v1model_basic")
    return {
        name: int(value, 0)
        for name, value in re.findall(r"^const bit<\d+> (\w+) = \d+w(\w+);", text, re.M)
    }


def template_states() -> dict[str, str]:
    """The template parser's ``state`` blocks: name to body text."""
    text = load_template("v1model_basic")
    return dict(re.findall(r"^    state (\w+) \{(.*?)^    \}", text, re.M | re.S))


def template_checksum_update() -> tuple[str, list[tuple[str, str]], tuple[str, str]]:
    """The template's ``update_checksum`` call: its condition, the
    (header, field) pairs it sums, and the (header, field) it writes."""
    text = load_template("v1model_basic")
    condition, summed, header, field = re.search(
        r"update_checksum\(\s*(.*?),\s*\{(.*?)\},\s*hdr\.(\w+)\.(\w+), HashAlgorithm\.csum16\);",
        text, re.S).groups()
    return condition, re.findall(r"hdr\.(\w+)\.(\w+)", summed), (header, field)


def template_block(kind: str, name: str) -> str:
    """The body of the template's ``control`` or ``struct`` named ``name``,
    up to the brace that closes it at the start of a line."""
    return re.search(rf"^{kind} {name}\b.*?\{{(.*?)^\}}", load_template("v1model_basic"),
                     re.M | re.S).group(1)


def select_arms(body: str) -> dict[int, str]:
    """The non-default arms of a state's ``transition select``: the value
    of each arm's const to the state it enters."""
    consts = template_consts()
    return {consts[value]: state for value, state in re.findall(r"^\s*(\w+): (\w+);", body, re.M)
            if value != "default"}


class TestTemplate:
    def test_template_has_all_splice_hooks(self):
        text = load_template("v1model_basic")
        for name in FRAGMENT_NAMES:
            assert f'#include "{name}"' in text

    def test_parser_constants_match_core_model(self):
        consts = template_consts()
        assert consts == {
            "ETHERTYPE_IPV4": core_model.ETHERTYPE_IPV4,
            "IPPROTO_UDP": core_model.IPPROTO_UDP,
            "IPPROTO_TCP": core_model.IPPROTO_TCP,
        }

    def test_standard_headers_match_core_model(self):
        # The header packer and the IPv4 checksum read STANDARD_HEADERS, so its
        # fields, widths and order must be the template's own.
        text = load_template("v1model_basic")
        declared = {
            name: tuple((field, int(bits)) for bits, field in re.findall(r"bit<(\d+)> (\w+);", body))
            for name, body in re.findall(r"^header (\w+)_t \{([^}]*)\}", text, re.M)
        }
        names = {"eth": "ethernet", "ipv4": "ipv4", "udp": "udp", "tcp": "tcp"}
        assert declared == {
            names[header]: fields for header, fields in core_model.STANDARD_HEADERS.items()
        }

    # The template parser is selector.TRANSPORT: the simulator's gates and
    # the code generator's chains read that table, so its path to each
    # chain must be the template's own.
    def test_start_enters_ipv4_on_the_gated_ethertype(self):
        arms = select_arms(template_states()["start"])
        assert arms == {core_model.ETHERTYPE_IPV4: "parse_ipv4"}
        assert {gate["eth.etherType"] for gate in PARSER_GATE.values()} == set(arms)

    def test_ipv4_selects_each_transport_on_its_protocol(self):
        arms = select_arms(template_states()["parse_ipv4"])
        assert arms == {protocol: f"parse_{l4}" for l4, protocol in TRANSPORT.values()}

    @pytest.mark.parametrize("stack", list(ProtocolStack), ids=lambda s: s.value)
    def test_transport_state_extracts_its_header(self, stack):
        l4 = TRANSPORT[stack][0]
        body = template_states()[f"parse_{l4}"]
        assert re.findall(r"pkt\.extract\(hdr\.(\w+)\);", body) == [l4]

    @pytest.mark.parametrize("stack", list(ProtocolStack), ids=lambda s: s.value)
    def test_transport_state_enters_the_emitted_chain(self, stack):
        l4 = TRANSPORT[stack][0]
        body = template_states()[f"parse_{l4}"]
        entered = re.findall(r"^#ifdef PARROT_CHAIN_(\w+)\n\s*transition (\w+);", body, re.M)
        sel = new_flow_selector("s", stack, [(f"{l4}.dstPort", u16(80))], simple_processor())
        emitted = re.findall(r"state (\w+) \{", emit_parser_chain(stack, (sel,), [1]))
        assert entered == [(stack.value, emitted[0])]

    # The fixups are printed into each flow branch from selector.FIXUPS; the
    # template keeps no fixup of its own but the IPv4 checksum, recomputed
    # only for a packet whose branch set meta.app_resized.
    def test_metadata_fields_are_reserved(self):
        fields = re.findall(r"bit<\d+> (\w+);", template_block("struct", "metadata"))
        assert fields == ["app_flow", "app_resized"]
        assert set(fields) <= core_model.TEMPLATE_NAMES

    def test_ingress_holds_only_the_egress_default_and_the_apply_hook(self):
        body = template_block("control", "AppIngress")
        apply = re.search(r"apply \{(.*)\}", body, re.S).group(1)
        statements = [line.strip() for line in apply.splitlines()
                      if line.strip() and not line.strip().startswith("//")]
        assert statements == ["smeta.egress_spec = smeta.ingress_port ^ 9w1;",
                              '#include "apply.p4inc"']

    def test_start_clears_the_resized_mark(self):
        assert "meta.app_resized = 1w0;" in template_states()["start"]

    def test_checksum_is_recomputed_only_after_a_branch_resized(self):
        condition, summed, target = template_checksum_update()
        assert condition == "meta.app_resized == 1w1"
        assert target == tuple(RECOMPUTED.split("."))
        assert summed == [("ipv4", name) for name, _ in core_model.STANDARD_HEADERS["ipv4"]
                          if name != target[1]]

    def test_unknown_template_rejected(self):
        with pytest.raises(KeyError):
            load_template("nosuch")


class TestGeneratedShape:
    def test_file_set_complete(self):
        fs = generate(guess_game_solution())
        assert set(fs.files) == set(FRAGMENT_NAMES) | {COMBINED_NAME}

    def test_two_runs_byte_identical(self):
        a = generate(guess_game_solution())
        b = generate(guess_game_solution())
        assert a.files == b.files

    def test_combined_splices_every_fragment(self):
        fs = generate(guess_game_solution())
        combined = fs.files[COMBINED_NAME]
        for name in FRAGMENT_NAMES:
            assert f'#include "{name}"' not in combined
        assert "#include <core.p4>" in combined
        assert "state chain_ipv4_udp_0" in combined

    def test_write_to_disk(self, tmp_path):
        fs = generate(guess_game_solution())
        paths = fs.write_to(tmp_path)
        written = {p.name for p in tmp_path.iterdir()}
        assert {p.name for p in paths} == written
        assert set(FRAGMENT_NAMES) <= written
        assert COMBINED_NAME in written
        assert "v1model_basic.p4" in written
        on_disk = (tmp_path / "apply.p4inc").read_text()
        assert on_disk == fs.files["apply.p4inc"]


class TestHeadersFragment:
    def test_layout_becomes_header_type(self):
        text = generate(guess_game_solution()).files["headers.p4inc"]
        assert "header guess_req_t {" in text
        assert "bit<8> guess;" in text
        assert "header guess_resp_t {" in text

    def test_shared_layout_emitted_once(self):
        layout = HeaderLayout("shared_req", [FieldDecl("x", U8)])
        a = new_flow_processor("one", input=layout)
        b = new_flow_processor("two", input=layout)
        sol = Solution([udp_selector("sa", 1, a), udp_selector("sb", 2, b)])
        text = generate(sol).files["headers.p4inc"]
        assert text.count("header shared_req_t {") == 1

    def test_same_name_different_structure_rejected(self):
        a = new_flow_processor(
            "one", input=HeaderLayout("req", [FieldDecl("x", U8)])
        )
        b = new_flow_processor(
            "two", input=HeaderLayout("req", [FieldDecl("x", U16)])
        )
        with pytest.raises(DuplicateName, match="'req'"):
            Solution([udp_selector("sa", 1, a), udp_selector("sb", 2, b)])


class TestParserFragment:
    def test_define_gates_only_used_stacks(self):
        text = generate(guess_game_solution()).files["parser.p4inc"]
        assert "#define PARROT_CHAIN_IPV4_UDP" in text
        assert "PARROT_CHAIN_IPV4_TCP" not in text

    def test_tcp_selector_enables_tcp_chain(self):
        proc = simple_processor()
        sel = new_flow_selector(
            "t", ProtocolStack.IPV4_TCP, [("tcp.dstPort", u16(80))], proc
        )
        text = generate(Solution([sel])).files["parser.p4inc"]
        assert "#define PARROT_CHAIN_IPV4_TCP" in text
        assert "PARROT_CHAIN_IPV4_UDP" not in text

    def test_empty_solution_enables_nothing(self):
        text = generate(Solution([])).files["parser.p4inc"]
        assert "#define" not in text

    def test_miss_falls_through_to_next_link(self):
        a = simple_processor("one", "req_a")
        b = simple_processor("two", "req_b")
        chain = build_chains(
            [udp_selector("sa", 1, a), udp_selector("sb", 2, b)]
        )[ProtocolStack.IPV4_UDP]
        text = emit_parser_chain(ProtocolStack.IPV4_UDP, chain, [1, 2])
        assert "default: chain_ipv4_udp_1;" in text
        assert text.count("default: accept;") == 1

    def test_hit_extracts_and_tags_flow(self):
        text = generate(guess_game_solution()).files["parser.p4inc"]
        assert "pkt.extract(hdr.guess__in);" in text
        assert "meta.app_flow = 16w1;" in text

    def test_flow_ids_follow_registration_order(self):
        a = simple_processor("one", "req_a")
        b = simple_processor("two", "req_b")
        sol = Solution([udp_selector("sa", 1, a), udp_selector("sb", 2, b)])
        text = generate(sol).files["parser.p4inc"]
        assert "meta.app_flow = 16w1;" in text
        assert "meta.app_flow = 16w2;" in text

    def test_lookahead_peek_and_tuple_keys(self):
        peek = HeaderLayout("peek", [FieldDecl("tag", U8)])
        proc = simple_processor("tagger", "tag_req")
        sel = new_flow_selector(
            "tag_sel",
            ProtocolStack.IPV4_UDP,
            [("udp.dstPort", u16(7777)), ("tag", u8(9))],
            proc,
            lookahead=peek,
        )
        text = generate(Solution([sel])).files["parser.p4inc"]
        assert "peek_t la = pkt.lookahead<peek_t>();" in text
        assert "select(hdr.udp.dstPort, la.tag)" in text
        assert "(16w7777, 8w9):" in text

    def test_single_criterion_key_unparenthesized(self):
        text = generate(guess_game_solution()).files["parser.p4inc"]
        assert "16w5555: chain_ipv4_udp_0_hit;" in text


class TestDeclsFragment:
    def test_locals_prefixed_by_processor(self):
        text = generate(guess_game_solution()).files["decls.p4inc"]
        assert "bit<8> guess__is_eq;" in text
        assert "bit<8> guess__is_gt;" in text

    def test_shared_gets_register_and_shadow(self):
        text = generate(guess_game_solution()).files["decls.p4inc"]
        assert "bit<8> guess__secret;" in text
        assert "register<bit<8>>(1) reg__guess__secret;" in text

    def test_no_flag_register_beside_the_state(self):
        decls = generate(guess_game_solution()).files["decls.p4inc"]
        assert re.findall(r"register<bit<\d+>>\(\d+\) (\w+);", decls) == ["reg__guess__secret"]

    def test_ring_scratch_and_registers(self):
        text = generate(ring_solution()).files["decls.p4inc"]
        assert "bit<32> ringy__window__head;" in text
        assert "register<bit<32>>(1) ring__ringy__window__head;" in text
        assert "register<bit<8>>(2) ring__ringy__window;" in text

    def test_table_hint_emits_table_machinery(self):
        text = generate(guess_game_solution(Hint.TABLE)).files["decls.p4inc"]
        assert "table guess__eq__2__t {" in text
        assert "action guess__eq__2__hit()" in text
        assert "const default_action = guess__eq__2__miss();" in text

    def test_if_else_hint_emits_no_table(self):
        text = generate(guess_game_solution()).files["decls.p4inc"]
        assert "table" not in text


class TestApplyFragment:
    def test_flow_guard_wraps_body(self):
        text = generate(guess_game_solution()).files["apply.p4inc"]
        assert "if (meta.app_flow == 16w1) {" in text

    def test_every_command_echoes_its_ordinal(self):
        text = generate(guess_game_solution()).files["apply.p4inc"]
        for ordinal, kind in [
            (1, "Atomic"),
            (2, "Equals"),
            (3, "Greater"),
            (4, "If"),
            (8, "Else"),
            (17, "EndAtomic"),
            (18, "SendBack"),
        ]:
            assert f"// [{ordinal}] {kind}" in text

    def test_truncating_epilogue(self):
        text = generate(guess_game_solution()).files["apply.p4inc"]
        assert "hdr.guess__in.setInvalid();" in text
        assert "hdr.ipv4.totalLen = 16w30;" in text
        assert "hdr.udp.len = 16w10;" in text
        assert "meta.app_resized = 1w1;" in text
        assert "truncate(32w44);" in text

    def test_splicing_epilogue_keeps_residual(self):
        text = generate(insert_agg_solution()).files["apply.p4inc"]
        assert "hdr.ipv4.totalLen = hdr.ipv4.totalLen + 16w4;" in text
        assert "hdr.udp.len = hdr.udp.len + 16w4;" in text
        assert "truncate" not in text

    def test_no_output_means_no_epilogue(self):
        proc = simple_processor()
        proc.body.add(Forward(4))
        text = generate(Solution([udp_selector("s", 9, proc)])).files[
            "apply.p4inc"
        ]
        assert "setInvalid" not in text
        assert "hdr.ipv4" not in text and "app_resized" not in text
        assert "(bit<9>)16w4;" in text

    def test_nonzero_initial_is_xored_after_the_read_and_in_the_write(self):
        lines = generate(guess_game_solution()).files["apply.p4inc"].splitlines()
        text = [line.strip() for line in lines]
        read = text.index("reg__guess__secret.read(guess__secret, 0);")
        assert text[read + 1] == "guess__secret = guess__secret ^ 8w42;"
        assert "random(guess__secret, 8w0, 8w255);" in text
        write = text.index("reg__guess__secret.write(0, guess__secret ^ 8w42);")
        assert write > text.index("// [18] SendBack")

    def test_zero_initial_is_stored_as_is(self):
        proc = new_flow_processor(
            "z",
            input=HeaderLayout("z_req", [FieldDecl("x", U8)]),
            shared=[SharedVariableDecl("count", U8, u8(0))],
        )
        proc.body.add(Add(proc.var("count"), proc.var("count"), proc.var("x")))
        text = generate(Solution([udp_selector("s", 1, proc)])).files["apply.p4inc"]
        assert "reg__z__count.read(z__count, 0);" in text
        assert "reg__z__count.write(0, z__count);" in text
        assert "^" not in text

    def test_read_only_shared_is_never_written(self):
        proc = new_flow_processor(
            "ro",
            input=HeaderLayout("ro_req", [FieldDecl("x", U8)]),
            output=HeaderLayout("ro_resp", [FieldDecl("y", U8)]),
            shared=[SharedVariableDecl("limit", U8, u8(9))],
        )
        proc.body.add(AssignVar(proc.var("y"), proc.var("limit")))
        text = generate(Solution([udp_selector("s", 1, proc)])).files["apply.p4inc"]
        assert "ro__limit = ro__limit ^ 8w9;" in text
        assert "reg__ro__limit.write" not in text

    def test_ring_head_is_read_in_front_and_written_behind(self):
        text = generate(ring_solution()).files["apply.p4inc"]
        assert text.count("ring__ringy__window__head.read(ringy__window__head, 0);") == 1
        assert text.count("ring__ringy__window__head.write(0, ringy__window__head);") == 1
        assert "ring__ringy__window.read(hdr.ringy__out.oldest, ringy__window__head);" in text

    def test_open_scope_rejected(self):
        proc = simple_processor("open", "open_req")
        bool_proc = new_flow_processor(
            "openb",
            input=HeaderLayout("ob_req", [FieldDecl("x", U8)]),
        )
        block = bool_proc.body.Atomic()
        block.add(Forward(1))
        sol = Solution([udp_selector("s", 3, bool_proc)])
        with pytest.raises(SemanticError) as err:
            generate(sol)
        assert err.value.kind is ErrorKind.OPEN_SCOPE


GOLDEN = Path(__file__).resolve().parent / "golden"


def stateful_solution():
    """Three processors with shared variables and rings, behind four
    selectors: state written under If, Switch and Atomic, a read-only
    variable, a ring only read, and one processor behind two selectors."""
    counter = new_flow_processor(
        "counter",
        input=HeaderLayout("counter_req", [FieldDecl("sel", U8), FieldDecl("n", U16)]),
        output=HeaderLayout("counter_resp", [FieldDecl("sum", U16), FieldDecl("old", U8)]),
        locals=[bool_local("big")],
        shared=[
            SharedVariableDecl("total", U16, u16(100)),
            SharedVariableDecl("limit", U16, u16(500)),
            SharedVariableDecl("pushes", U32, u32(0)),
        ],
        rings=[RingBufferDecl("last", U8, 4), RingBufferDecl("seen", U8, 2)],
    )
    v = counter.var
    body = counter.body
    body.add(Greater(v("big"), v("n"), v("limit")))
    big = body.If(v("big"))
    big.add(Add(v("total"), v("total"), v("n")))
    big.Else().add(Add(v("total"), v("total"), u16(1))).EndIf()
    case = body.Switch(v("sel")).Case(u8(0))
    case.add(RingPush("last", v("sel"))).add(RingReadHead("last", v("old")))
    atomic = case.Case(u8(1)).Atomic()
    atomic.add(RingPush("last", u8(1))).add(Add(v("pushes"), v("pushes"), u32(1)))
    atomic.EndAtomic().EndSwitch()
    body.add(RingReadHead("seen", v("old"))).add(AssignVar(v("sum"), v("total")))
    body.add(SendBack())

    gauge = new_flow_processor(
        "gauge",
        input=HeaderLayout("gauge_req", [FieldDecl("x", U8)]),
        output=HeaderLayout("gauge_resp", [FieldDecl("y", U8)]),
        shared=[SharedVariableDecl("level", U8, u8(3))],
    )
    gauge.body.add(AssignVar(gauge.var("y"), gauge.var("level")))

    logger = new_flow_processor(
        "logger",
        input=HeaderLayout("logger_req", [FieldDecl("x", U8)]),
        shared=[SharedVariableDecl("count", U8, u8(0))],
        rings=[RingBufferDecl("log", U8, 3)],
    )
    logger.body.add(RingPush("log", logger.var("x")))
    logger.body.add(Add(logger.var("count"), logger.var("count"), u8(1))).add(Forward(2))
    return Solution([
        udp_selector("counter_udp", 4001, counter),
        udp_selector("gauge_sel", 4002, gauge),
        new_flow_selector(
            "counter_tcp", ProtocolStack.IPV4_TCP, [("tcp.dstPort", u16(4001))], counter
        ),
        udp_selector("logger_sel", 4003, logger),
    ])


class TestStateAccess:
    """Each state register is read once in front of a flow branch's body
    and written at most once behind it."""

    @pytest.mark.parametrize("name", ["guess_game", "insert_agg", "all_ops"])
    def test_golden_branches(self, name):
        apply = (GOLDEN / name / "apply.p4inc").read_text()
        decls = (GOLDEN / name / "decls.p4inc").read_text()
        assert flow_branches(apply)
        check_state_access(apply, decls)

    def test_several_stateful_processors(self):
        files = generate(stateful_solution()).files
        apply = files["apply.p4inc"]
        check_state_access(apply, files["decls.p4inc"])
        branches = flow_branches(apply)
        assert list(branches) == ["counter_udp", "gauge_sel", "counter_tcp", "logger_sel"]
        counter = "\n".join(branches["counter_tcp"])
        for written in ("reg__counter__total", "reg__counter__pushes",
                        "ring__counter__last__head"):
            assert f"{written}.write(0, " in counter
        for kept in ("reg__counter__limit", "ring__counter__seen__head"):
            assert f"{kept}.read(" in counter and f"{kept}.write" not in counter
        assert "reg__gauge__level.write" not in apply
        assert "reg__logger__count.write(0, logger__count);" in apply

    @pytest.mark.parametrize(
        "after, line, message",
        [
            ("guess__secret = guess__secret ^ 8w42;", "reg__guess__secret.read(guess__secret, 0);",
             "second read"),
            ("reg__guess__secret.write(0, guess__secret ^ 8w42);",
             "reg__guess__secret.write(0, guess__secret);", "second write"),
            ("random(guess__secret, 8w0, 8w255);", "reg__guess__secret.read(guess__secret, 0);",
             "read inside the body"),
            ("// [1] Atomic", "reg__guess__secret.write(0, guess__secret);",
             "written inside the body"),
            ("// [1] Atomic", "reg__guess__other.read(guess__secret, 0);", "not declared"),
        ],
    )
    def test_scan_refuses_a_misplaced_access(self, after, line, message):
        files = generate(guess_game_solution()).files
        apply = files["apply.p4inc"].replace(f"{after}\n", f"{after}\n{line}\n", 1)
        assert apply != files["apply.p4inc"]
        with pytest.raises(AssertionError, match=message):
            check_state_access(apply, files["decls.p4inc"])


class TestEmitProcessorControl:
    def test_standalone_emission_matches_apply_body(self):
        proc = insert_agg_solution().selectors[0].processor
        text = emit_processor_control(proc, ProtocolStack.IPV4_UDP)
        assert "hdr.agg__out.setValid();" in text
        assert "// [3] Add" in text

    def test_body_sits_inside_the_flow_branch(self):
        proc = insert_agg_solution().selectors[0].processor
        first = emit_processor_control(proc, ProtocolStack.IPV4_UDP).splitlines()[0]
        assert first.startswith(" " * 12) and not first.startswith(" " * 13)

    @pytest.mark.parametrize(
        "stack, total_len, kept_bytes",
        [(ProtocolStack.IPV4_UDP, 30, 44), (ProtocolStack.IPV4_TCP, 42, 56)],
    )
    def test_header_sizes_follow_the_stack(self, stack, total_len, kept_bytes):
        proc = guess_game_solution().selectors[0].processor
        text = emit_processor_control(proc, stack)
        assert f"hdr.ipv4.totalLen = 16w{total_len};" in text
        assert f"truncate(32w{kept_bytes})" in text


class TestStructuralSanity:
    @pytest.mark.parametrize("name,solution", ALL_EXAMPLES)
    def test_balanced_delimiters(self, name, solution):
        fs = generate(solution)
        for fname, text in fs.files.items():
            check_balanced(text)
        check_balanced(fs.template_text)

    @pytest.mark.parametrize("name,solution", ALL_EXAMPLES)
    def test_symbol_table_closed(self, name, solution):
        fs = generate(solution)
        assert unresolved_names(fs.files, fs.template_text) == set()

    def test_hints_differ_only_in_apply_and_decls(self):
        base = generate(guess_game_solution(Hint.IF_ELSE)).files
        table = generate(guess_game_solution(Hint.TABLE)).files
        assert base["headers.p4inc"] == table["headers.p4inc"]
        assert base["parser.p4inc"] == table["parser.p4inc"]
        assert base["structs.p4inc"] == table["structs.p4inc"]
        assert base["apply.p4inc"] != table["apply.p4inc"]


class TestFileSetAlwaysComplete:
    @pytest.mark.parametrize(
        "builder",
        [*EXAMPLE_BUILDERS.values(), all_ops_solution, lambda: Solution([])],
        ids=[*EXAMPLE_BUILDERS, "all_ops", "empty"],
    )
    def test_five_fragments_plus_combined(self, builder):
        fs = generate(builder())
        assert list(fs.files) == [*FRAGMENT_NAMES, COMBINED_NAME]
        assert fs.template_name == "v1model_basic.p4"


class TestWriteStaged:
    def test_chunks_are_written_as_one_text(self, tmp_path):
        out = tmp_path / "out"
        written = write_staged(out, {"a.txt": "whole", "b.txt": iter(["x", "", "yz\n"])})
        assert written == [out / "a.txt", out / "b.txt"]
        assert (out / "a.txt").read_text() == "whole"
        assert (out / "b.txt").read_text() == "xyz\n"

    @pytest.mark.parametrize("existing", [False, True], ids=["new_dir", "existing_dir"])
    def test_chunks_that_raise_partway_leave_nothing(self, tmp_path, existing):
        out = tmp_path / "out"
        if existing:
            out.mkdir()

        def chunks():
            yield "first chunk\n"
            raise ValueError("the producer failed")

        with pytest.raises(ValueError, match="producer failed"):
            write_staged(out, {"a.txt": "whole", "b.txt": chunks()})
        assert list(tmp_path.iterdir()) == ([out] if existing else [])
        assert not existing or list(out.iterdir()) == []
