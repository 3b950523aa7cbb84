"""Document format checks: schemas, replay, round trips, and traces."""

import copy
import io
import json
import re
import sys
import tracemalloc
import weakref
from collections import deque
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p4flowgen import cli, simulator, trace_doc
from p4flowgen.builtin_examples import (
    EXAMPLE_BUILDERS,
    GUESS_PORT,
    asset_path,
    guess_game_solution,
    insert_agg_solution,
)
from p4flowgen.core_model import (
    HEADER_FIELD_BITS,
    U8,
    U16,
    U32,
    FieldDecl,
    HeaderLayout,
    SharedVariableDecl,
    u8,
    u16,
    u32,
)
from p4flowgen.codegen import generate
from p4flowgen.errors import DuplicateName
from p4flowgen.flow_ast import (
    Add,
    ErrorKind,
    Hint,
    SemanticError,
    bool_local,
    new_flow_processor,
)
from p4flowgen.program_doc import (
    DocError,
    DocSemanticError,
    dumps_doc,
    load_schema,
    solution_from_doc,
    solution_to_doc,
    validate_program_doc,
    validate_trace_doc,
)
from p4flowgen.selector import Criterion, ProtocolStack, Solution, new_flow_selector
from p4flowgen.simulator import (
    PASSTHROUGH,
    PROCESSED,
    SimPacket,
    SimResult,
    TraceEvent,
    iter_trace,
    make_tcp_packet,
    make_udp_packet,
    run_trace,
)
from p4flowgen.trace_doc import (
    dumps_results,
    iter_results_text,
    parse_field_value,
    result_to_doc,
    results_to_doc,
    trace_from_doc,
)


def guess_doc():
    return solution_to_doc(guess_game_solution())


def agg_doc():
    return solution_to_doc(insert_agg_solution())


def result_key(res):
    return (
        res.verdict,
        res.selector,
        res.egress_port,
        res.packet.to_bytes(),
        res.trace,
        res.error,
    )


class TestSchemas:
    def test_schemas_load(self):
        assert load_schema("program")["title"]
        assert load_schema("trace")["title"]

    @pytest.mark.parametrize("name", sorted(EXAMPLE_BUILDERS))
    def test_example_docs_validate(self, name):
        validate_program_doc(solution_to_doc(EXAMPLE_BUILDERS[name]()))

    def test_missing_section_rejected(self):
        doc = guess_doc()
        del doc["selectors"]
        with pytest.raises(DocError):
            validate_program_doc(doc)

    def test_unknown_op_rejected_with_path(self):
        doc = agg_doc()
        doc["processors"][0]["body"][0]["op"] = "frobnicate"
        with pytest.raises(DocError) as err:
            validate_program_doc(doc)
        assert err.value.path == "processors[0].body[0].op"

    def test_stray_command_key_rejected(self):
        # Typos like "src" for "source" must fail validation, not be
        # silently ignored by replay.
        doc = agg_doc()
        doc["processors"][0]["body"][3]["src"] = {"var": "wide_a"}
        with pytest.raises(DocError):
            validate_program_doc(doc)

    @pytest.mark.parametrize("orelse, message", [
        (None, None), ([], None), (5, "5 is not of type 'array'"),
    ])
    def test_else_is_a_block_or_null(self, orelse, message):
        doc = guess_doc()
        doc["processors"][0]["body"].insert(
            0, {"op": "if", "cond": "ok", "then": [], "else": orelse}
        )
        if message is None:
            validate_program_doc(doc)
            return
        with pytest.raises(DocError) as err:
            validate_program_doc(doc)
        assert (err.value.path, err.value.message) == ("processors[0].body[0].else", message)

    def test_bool_local_must_be_u8(self):
        doc = guess_doc()
        doc["processors"][0]["locals"][0]["width"] = 16
        with pytest.raises(DocError):
            validate_program_doc(doc)

    def test_unknown_top_level_key_rejected(self):
        doc = guess_doc()
        doc["extras"] = {}
        with pytest.raises(DocError):
            validate_program_doc(doc)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "builder",
        [
            guess_game_solution,
            insert_agg_solution,
            lambda: guess_game_solution(Hint.TABLE),
        ],
    )
    def test_doc_form_is_a_fixed_point(self, builder):
        doc = solution_to_doc(builder())
        assert solution_to_doc(solution_from_doc(doc)) == doc

    def test_replayed_solution_simulates_identically(self):
        packets = [
            make_udp_packet(GUESS_PORT, payload=bytes([g])) for g in (1, 42, 200)
        ]
        original = run_trace(guess_game_solution(), packets, seed=5)
        replayed = run_trace(solution_from_doc(guess_doc()), packets, seed=5)
        assert [result_key(r) for r in original] == [
            result_key(r) for r in replayed
        ]

    def test_layouts_are_listed_in_the_order_of_the_headers(self):
        sel = guess_game_solution().selectors[0]
        tag = HeaderLayout("la", [FieldDecl("tag", U8)])
        solution = Solution(
            [new_flow_selector(sel.name, sel.stack, sel.criteria, sel.processor, lookahead=tag)]
        )
        doc = solution_to_doc(solution)
        headers = re.findall(r"^header (\w+)_t \{", generate(solution).files["headers.p4inc"], re.M)
        assert [layout["name"] for layout in doc["layouts"]] == headers
        assert headers == ["la", "guess_req", "guess_resp"]
        assert solution_to_doc(solution_from_doc(doc)) == doc

    def test_stored_ordinals_are_informational(self):
        doc = guess_doc()
        doc["processors"][0]["body"][0]["ordinal"] = 999
        replayed = solution_to_doc(solution_from_doc(doc))
        assert replayed["processors"][0]["body"][0]["ordinal"] == 1


class TestShippedAssets:
    @pytest.mark.parametrize("name", sorted(EXAMPLE_BUILDERS))
    def test_asset_matches_builder(self, name):
        expected = dumps_doc(solution_to_doc(EXAMPLE_BUILDERS[name]()))
        assert asset_path(name).read_text() == expected

    @pytest.mark.parametrize("name", sorted(EXAMPLE_BUILDERS))
    def test_asset_loads(self, name):
        doc = json.loads(asset_path(name).read_text())
        assert solution_from_doc(doc).selectors


class TestSemanticPaths:
    def test_width_mismatch_cites_body_index(self):
        doc = agg_doc()
        doc["processors"][0]["body"][3] = {
            "op": "assign_var",
            "target": "orig_a",
            "source": {"var": "wide_a"},
        }
        with pytest.raises(DocSemanticError) as err:
            solution_from_doc(doc)
        assert err.value.path == "processors[0].body[3]"
        assert err.value.kind == "WidthMismatch"

    def test_constant_past_the_digit_limit_names_its_width(self):
        doc = json.loads((Path(__file__).parent / "data" / "all_ops.json").read_text())
        doc["processors"][0]["body"][0]["value"]["value"] = 10**5000
        with pytest.raises(DocSemanticError) as err:
            solution_from_doc(doc)
        assert (err.value.path, err.value.kind) == ("processors[0].body[0]", "WidthMismatch")
        assert err.value.message == "a 16610-bit magnitude does not fit in u16"

    def test_undeclared_name_in_nested_branch(self):
        doc = guess_doc()
        then = doc["processors"][0]["body"][0]["body"][2]["then"]
        then[0]["target"] = "nope"
        with pytest.raises(DocSemanticError) as err:
            solution_from_doc(doc)
        assert err.value.path == "processors[0].body[0].body[2].then[0]"
        assert err.value.kind == "UndeclaredName"

    def test_unknown_input_layout(self):
        doc = guess_doc()
        doc["processors"][0]["input"] = "missing_layout"
        with pytest.raises(DocSemanticError) as err:
            solution_from_doc(doc)
        assert err.value.path == "processors[0]"
        assert err.value.kind == "UndeclaredName"

    def test_unknown_processor_in_selector(self):
        doc = guess_doc()
        doc["selectors"][0]["processor"] = "ghost"
        with pytest.raises(DocSemanticError) as err:
            solution_from_doc(doc)
        assert err.value.path == "selectors[0]"

    def test_duplicate_layout_name(self):
        doc = guess_doc()
        doc["layouts"].append(copy.deepcopy(doc["layouts"][0]))
        with pytest.raises(DocSemanticError) as err:
            solution_from_doc(doc)
        assert err.value.path == "layouts[2]"
        assert err.value.kind == "DuplicateName"

    def test_duplicate_selector_name(self):
        doc = guess_doc()
        doc["selectors"].append(copy.deepcopy(doc["selectors"][0]))
        with pytest.raises(DocSemanticError) as err:
            solution_from_doc(doc)
        assert err.value.kind == "DuplicateName"

    def test_lookahead_criterion_without_layout(self):
        doc = guess_doc()
        doc["selectors"][0]["criteria"].append(
            {"field": "msg_type", "width": 8, "value": 1}
        )
        with pytest.raises(DocSemanticError) as err:
            solution_from_doc(doc)
        assert err.value.path == "selectors[0].criteria[1]"
        assert err.value.kind == "MissingLookahead"

    def test_criterion_width_mismatch(self):
        doc = guess_doc()
        doc["selectors"][0]["criteria"][0]["width"] = 8
        doc["selectors"][0]["criteria"][0]["value"] = 5
        with pytest.raises(DocSemanticError) as err:
            solution_from_doc(doc)
        assert err.value.path == "selectors[0].criteria[0]"
        assert err.value.kind == "WidthMismatch"

    @pytest.mark.parametrize(
        "stack, field, width, value",
        [
            ("IPV4_UDP", "ipv4.protocol", 8, 6),
            ("IPV4_TCP", "ipv4.protocol", 8, 17),
            ("IPV4_UDP", "eth.etherType", 16, 0x86DD),
        ],
    )
    def test_criterion_contradicting_the_parser(self, stack, field, width, value):
        doc = guess_doc()
        sdoc = doc["selectors"][0]
        sdoc["stack"] = stack
        sdoc["criteria"] = [
            {"field": "ipv4.ttl", "width": 8, "value": 64},
            {"field": field, "width": width, "value": value},
        ]
        with pytest.raises(DocSemanticError) as err:
            solution_from_doc(doc)
        assert err.value.path == "selectors[0].criteria[1]"
        assert err.value.kind == "ParserGateMismatch"
        assert stack in err.value.message and field in err.value.message

    def test_criterion_agreeing_with_the_parser(self):
        doc = guess_doc()
        doc["selectors"][0]["criteria"] += [
            {"field": "ipv4.protocol", "width": 8, "value": 17},
            {"field": "eth.etherType", "width": 16, "value": 0x0800},
        ]
        assert len(solution_from_doc(doc).selectors[0].criteria) == 3

    def test_const_too_wide_for_declared_width(self):
        doc = agg_doc()
        doc["processors"][0]["shared"] = [
            {"name": "big", "width": 8, "initial": 300}
        ]
        with pytest.raises(DocSemanticError) as err:
            solution_from_doc(doc)
        assert err.value.path == "processors[0]"
        assert err.value.kind == "WidthMismatch"


class TestTraceParsing:
    def test_defaults_derived_from_payload(self):
        _, packets = trace_from_doc(
            {"seed": 0, "packets": [{"udp": {}, "payload": "0a0b"}]}
        )
        pkt = packets[0]
        assert pkt.ingress_port == 0
        assert pkt.payload == bytes([10, 11])
        assert pkt.ipv4["totalLen"] == 20 + 8 + 2
        assert pkt.udp["len"] == 8 + 2

    def test_decimal_and_hex_values(self):
        assert parse_field_value("5555") == 5555
        assert parse_field_value("0x15b3") == 5555
        _, packets = trace_from_doc(
            {
                "seed": 0,
                "packets": [
                    {"udp": {"dstPort": "0x15b3"}, "payload": ""},
                    {"udp": {"dstPort": "5555"}, "payload": ""},
                ],
            }
        )
        assert packets[0].udp["dstPort"] == packets[1].udp["dstPort"] == 5555

    def test_tcp_packet(self):
        _, packets = trace_from_doc(
            {"seed": 0, "packets": [{"tcp": {"dstPort": "80"}, "payload": "00"}]}
        )
        assert packets[0].tcp["dstPort"] == 80
        assert packets[0].udp is None

    def test_unknown_field_cites_path(self):
        with pytest.raises(DocError) as err:
            trace_from_doc(
                {"seed": 0, "packets": [{"udp": {"dstport": "1"}, "payload": ""}]}
            )
        assert err.value.path == "packets[0].udp.dstport"

    def test_out_of_range_value_rejected(self):
        with pytest.raises(DocError) as err:
            trace_from_doc(
                {"seed": 0, "packets": [{"udp": {"dstPort": "70000"}, "payload": ""}]}
            )
        assert "70000" in err.value.message

    @pytest.mark.parametrize("text", ["9" * 5000, "0x" + "f" * 5000])
    def test_value_of_thousands_of_digits_does_not_fit(self, text):
        # More digits than int() converts, or than str() prints.
        with pytest.raises(DocError) as err:
            trace_from_doc({"seed": 0, "packets": [{"udp": {"dstPort": text}, "payload": ""}]})
        assert err.value.path == "packets[0].udp.dstPort"
        assert err.value.message.endswith(" does not fit in 16 bits")
        assert len(err.value.message) < 100

    def test_leading_zeros_do_not_count_as_digits(self):
        _, packets = trace_from_doc(
            {"seed": 0, "packets": [{"udp": {"dstPort": "0" * 4400 + "7"}, "payload": ""}]}
        )
        assert packets[0].udp["dstPort"] == 7

    def test_out_of_range_value_names_its_path_and_width(self):
        packets = [{"udp": {}, "payload": ""}, {"tcp": {"window": "0x10000"}, "payload": ""}]
        with pytest.raises(DocError) as err:
            trace_from_doc({"seed": 0, "packets": packets})
        assert err.value.path == "packets[1].tcp.window"
        assert err.value.message == "65536 does not fit in 16 bits"

    def test_packets_of_one_length_share_no_header_map(self):
        packets = [
            {"udp": {"dstPort": "1"}, "eth": {"etherType": "0x86DD"}, "payload": "00"},
            {"udp": {}, "payload": "01"},
            {"tcp": {}, "payload": "0203"},
            {"tcp": {"srcPort": "9"}, "ipv4": {"ttl": "1"}, "payload": "0405"},
        ]
        _, got = trace_from_doc({"seed": 0, "packets": packets})
        want = [make_udp_packet(0, bytes([0])), make_udp_packet(0, bytes([1])),
                make_tcp_packet(0, bytes([2, 3])), make_tcp_packet(0, bytes([4, 5]))]
        want[0].udp["dstPort"], want[0].eth["etherType"] = 1, 0x86DD
        want[3].tcp["srcPort"], want[3].ipv4["ttl"] = 9, 1
        assert got == want

    def test_both_stacks_rejected_by_schema(self):
        with pytest.raises(DocError):
            validate_trace_doc(
                {
                    "seed": 0,
                    "packets": [{"udp": {}, "tcp": {}, "payload": ""}],
                }
            )

    def test_odd_hex_payload_rejected(self):
        with pytest.raises(DocError):
            validate_trace_doc(
                {"seed": 0, "packets": [{"udp": {}, "payload": "abc"}]}
            )

    @pytest.mark.parametrize("sign, bound", [(1, "maximum"), (-1, "minimum")])
    def test_seed_too_long_to_print_is_a_doc_error(self, sign, bound):
        # repr refuses an int of more than 4,300 digits.
        with pytest.raises(DocError) as err:
            validate_trace_doc({"seed": sign * 10**5000, "packets": []})
        assert err.value.path == "seed"
        assert err.value.message.startswith("<int too long to print> is ")
        assert f"the {bound} of" in err.value.message


class TestResultDocs:
    def test_processed_result_fields(self):
        packets = [make_udp_packet(GUESS_PORT, payload=bytes([10]), ingress_port=2)]
        results = run_trace(guess_game_solution(), packets, seed=1)
        doc = result_to_doc(results[0])
        assert doc["verdict"] == "PROCESSED"
        assert doc["selector"] == "guess_sel"
        assert doc["egress_port"] == 2
        assert doc["payload_hex"] == b"GT".hex()
        assert doc["udp"]["dstPort"] == str(GUESS_PORT)
        assert doc["trace"][0] == {
            "ordinal": 0,
            "kind": "match",
            "before": [],
            "after": [],
        }
        assert "error" not in doc
        assert "tcp" not in doc

    def test_error_recorded(self):
        packets = [make_udp_packet(GUESS_PORT, payload=b"")]
        results = run_trace(guess_game_solution(), packets, seed=0)
        doc = result_to_doc(results[0])
        assert doc["verdict"] == "PASSTHROUGH"
        assert "too short" in doc["error"]

    def test_results_envelope(self):
        doc = results_to_doc(7, [])
        assert doc == {"seed": 7, "results": []}


class TestTopLevelForm:
    def test_doc_is_tags_and_sections_only(self):
        assert list(guess_doc()) == [
            "version", "template", "layouts", "processors", "selectors"
        ]

    def test_options_object_rejected(self):
        doc = guess_doc()
        doc["options"] = {"emit_combined": True, "indent": 4}
        with pytest.raises(DocError):
            validate_program_doc(doc)
        with pytest.raises(DocError):
            solution_from_doc(doc)

    def test_layouts_sharing_a_name_rejected(self):
        procs = [
            new_flow_processor(name, input=HeaderLayout("req", [FieldDecl("x", w)]))
            for name, w in (("one", U8), ("two", U16))
        ]
        with pytest.raises(DuplicateName, match="'req'"):
            Solution(
                new_flow_selector(
                    f"s{port}", ProtocolStack.IPV4_UDP, [("udp.dstPort", u16(port))], p
                )
                for port, p in enumerate(procs, start=1)
            )

    def test_open_scope_rejected(self):
        proc = new_flow_processor(
            "open",
            input=HeaderLayout("open_req", [FieldDecl("x", U8)]),
            locals=[bool_local("flag")],
        )
        proc.body.If(proc.var("flag"))
        sol = Solution([
            new_flow_selector("s", ProtocolStack.IPV4_UDP, [("udp.dstPort", u16(1))], proc)
        ])
        with pytest.raises(SemanticError) as err:
            solution_to_doc(sol)
        assert err.value.kind is ErrorKind.OPEN_SCOPE


# -- the results writer: the bytes of dumps_doc(results_to_doc(...)) ---------

# Characters the ASCII escaping must get right; plain st.text() never
# draws a lone surrogate. "%" and "d" make format directives ("%d", "%%")
# of the kinds, selectors, errors and texts that reach a template.
AWKWARD = ['"', "\\", "/", "\x00", "\x1f", "\x7f", "\n", "\t", "\u00e9",
           "\u2028", "\ud800", "\udfff", "\U0001f600", "a", "%", "d"]
TEXT = st.one_of(
    st.text(max_size=8),
    st.lists(st.sampled_from(AWKWARD), max_size=6).map("".join),
)

INTS = st.one_of(st.integers(0, 300), st.integers(-(2**70), 2**70))


def header_maps(header: str):
    """Field maps of one header: every field in its standard order, as the
    simulator writes it, or in shuffled order, or any subset (the empty
    map included) in any order."""
    names = list(HEADER_FIELD_BITS[header])
    keys = st.one_of(st.just(names), st.permutations(names),
                     st.lists(st.sampled_from(names), unique=True))
    return keys.flatmap(
        lambda ks: st.lists(INTS, min_size=len(ks), max_size=len(ks)).map(
            lambda vs: dict(zip(ks, vs))
        )
    )


EVENTS = st.builds(
    TraceEvent,
    INTS,
    TEXT,
    st.lists(INTS, max_size=3).map(tuple),
    st.lists(INTS, max_size=3).map(tuple),
)


@st.composite
def sim_results(draw):
    l4 = draw(st.sampled_from(["udp", "tcp", None]))
    packet = SimPacket(
        ingress_port=draw(INTS),
        eth=draw(header_maps("eth")),
        ipv4=draw(header_maps("ipv4")),
        payload=draw(st.binary(max_size=6)),
    )
    if l4 is not None:
        setattr(packet, l4, draw(header_maps(l4)))
    # A small pool, so that events repeat within and across results.
    pool = draw(st.lists(EVENTS, min_size=1, max_size=3))
    trace = draw(st.lists(st.sampled_from(pool), max_size=5))
    return SimResult(
        draw(st.sampled_from([PASSTHROUGH, PROCESSED])),
        draw(st.one_of(st.none(), TEXT)),
        draw(INTS),
        packet,
        tuple(trace),
        draw(st.one_of(st.none(), TEXT)),
    )


def a_result(**changes) -> SimResult:
    """A PROCESSED guess_game result with ``changes`` applied."""
    packets = [make_udp_packet(GUESS_PORT, payload=bytes([10]), ingress_port=2)]
    result = run_trace(guess_game_solution(), packets, seed=1)[0]
    fields = {**result.__dict__, **changes}
    return SimResult(**fields)


class TestResultsWriter:
    @given(st.integers(-(2**70), 2**70), st.lists(sim_results(), max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_document_path(self, seed, results):
        assert dumps_results(seed, results) == dumps_doc(results_to_doc(seed, results))

    def test_no_results(self):
        assert dumps_results(7, []) == dumps_doc(results_to_doc(7, [])) == (
            '{\n  "seed": 7,\n  "results": []\n}\n'
        )

    def test_header_fields_keep_their_own_order(self):
        packet = a_result().packet
        packet.udp = dict(reversed(packet.udp.items()))
        results = [a_result(packet=packet)]
        text = dumps_results(0, results)
        assert text == dumps_doc(results_to_doc(0, results))
        assert text.index('"checksum"') < text.index('"srcPort"')

    def test_format_directives_in_field_names_are_written_as_text(self):
        packet = a_result().packet
        packet.udp = {"%d": 1, "a%%s": 2, "%": 3, **packet.udp}
        results = [a_result(packet=packet), a_result(packet=packet)]
        text = dumps_results(0, results)
        assert text == dumps_doc(results_to_doc(0, results))
        assert '"a%%s": "2"' in text

    def test_chunks_follow_the_results_as_they_come(self):
        produced = []

        def results():
            for r in (a_result(), a_result(selector=None)):
                produced.append(r)
                yield r

        chunks = iter_results_text(3, results())
        assert next(chunks) == '{\n  "seed": 3,\n  "results": '
        assert produced == []
        assert next(chunks).startswith('[\n    {\n      "verdict": ')
        assert len(produced) == 1
        assert "".join(chunks).endswith("\n    }\n  ]\n}\n")
        assert len(produced) == 2

    def test_a_stream_is_written_once(self):
        results = [a_result(), a_result(error="boom")]
        assert dumps_results(0, iter(results)) == dumps_results(0, results)

    def test_unwritable_value_in_a_stream_names_its_index(self):
        results = (a_result(egress_port=i if i < 2 else 2.0) for i in range(3))
        with pytest.raises(TypeError) as err:
            dumps_results(0, results)
        assert str(err.value).startswith("$.results[2].egress_port: ")

    def test_a_failing_stream_is_not_reworded(self):
        def results():
            yield a_result()
            raise TypeError("from the producer")

        with pytest.raises(TypeError, match="^from the producer$"):
            dumps_results(0, results())

    @pytest.mark.parametrize(
        "seed, changes, path, kind",
        [
            (0, {"egress_port": True}, "$.results[1].egress_port", "bool"),
            (0, {"egress_port": 2.0}, "$.results[1].egress_port", "float"),
            (1.0, {}, "$.seed", "float"),
            (True, {}, "$.seed", "bool"),
            ("1", {}, "$.seed", "str"),
            (0, {"trace": (TraceEvent(3, "add", (1.5,), ()),)},
             "$.results[1].trace[0].before[0]", "float"),
            # equal to the event before it, so only a check of each
            # event, not the memo of event texts, can catch it
            (0, {"trace": (TraceEvent(3, "add", (1,), (2,)),
                           TraceEvent(3, "add", (1,), (2.0,)))},
             "$.results[1].trace[1].after[0]", "float"),
            (0, {"trace": (TraceEvent(1.0, "add", (), ()),)},
             "$.results[1].trace[0].ordinal", "float"),
            (0, {"selector": b"sel"}, "$.results[1].selector", "bytes"),
            (0, {"packet": SimPacket(0, {1: 2}, {})}, "$.results[1].eth (a field name)", "int"),
            # int, str and None, but not where the field is declared
            (0, {"error": 7}, "$.results[1].error", "int"),
            (0, {"verdict": None}, "$.results[1].verdict", "NoneType"),
            # a before or after that is not a tuple
            (0, {"trace": (TraceEvent(1, "add", [1], [2]),)},
             "$.results[1].trace[0].before", "list"),
            (0, {"trace": (TraceEvent(1, "add", (1,), [2]),)},
             "$.results[1].trace[0].after", "list"),
            (0, {"trace": (TraceEvent(1, None, (), ()),)},
             "$.results[1].trace[0].kind", "NoneType"),
            # the first in writing order of two
            (0, {"error": 7, "trace": (TraceEvent(1, "add", (True,), ()),)},
             "$.results[1].trace[0].before[0]", "bool"),
            (0, {"error": 7.5, "egress_port": False}, "$.results[1].egress_port", "bool"),
        ],
    )
    def test_unwritable_value_names_its_path(self, seed, changes, path, kind):
        # The writer and the document form refuse it alike.
        results = [a_result(), a_result(**changes)]
        with pytest.raises(TypeError) as err:
            dumps_results(seed, results)
        assert str(err.value) == f"{path}: cannot write a {kind} to a results document"
        with pytest.raises(TypeError) as as_doc:
            results_to_doc(seed, results)
        assert str(as_doc.value) == str(err.value)


    @pytest.mark.parametrize("port, error", [(GUESS_PORT, "ipv4.ttl True is not an int"),
                                             (4444, None)])
    def test_bool_header_value_names_its_path(self, port, error):
        """A bool is not an int to the results schema: the writer and the
        document form both refuse it, with the same path, rather than write
        "True". The simulator refuses it too, where a processor's output
        layout makes it rewrite the header; a passthrough keeps it."""
        packet = make_udp_packet(port, payload=bytes([10]))
        packet.ipv4["ttl"] = True
        results = run_trace(guess_game_solution(), [make_udp_packet(port), packet])
        assert (results[1].verdict, results[1].error) == (PASSTHROUGH, error)
        with pytest.raises(TypeError) as err:
            dumps_results(0, results)
        assert str(err.value) == (
            "$.results[1].ipv4.ttl: cannot write a bool to a results document"
        )
        with pytest.raises(TypeError) as as_doc:
            results_to_doc(0, results)
        assert str(as_doc.value) == str(err.value)
        with pytest.raises(TypeError, match=r"^\$\.ipv4\.ttl: cannot write a bool "):
            result_to_doc(results[1])

    @staticmethod
    def with_packet(**changes) -> SimResult:
        packet = a_result().packet
        return a_result(packet=SimPacket(**{**packet.__dict__, **changes}))

    @pytest.mark.parametrize("writer", [dumps_results, results_to_doc], ids=["text", "doc"])
    @pytest.mark.parametrize("changes, path, kind", [
        ({"udp": [("dstPort", 5555)]}, "$.results[1].udp", "list"),
        ({"eth": ()}, "$.results[1].eth", "tuple"),
        ({"payload": "0a"}, "$.results[1].payload_hex", "str"),
        ({"payload": memoryview(b"\n")}, "$.results[1].payload_hex", "memoryview"),
        # the first in writing order of two
        ({"ipv4": [], "payload": "0a"}, "$.results[1].ipv4", "list"),
    ])
    def test_header_map_or_payload_of_another_class_names_its_path(
        self, writer, changes, path, kind
    ):
        with pytest.raises(TypeError) as err:
            writer(0, [a_result(), self.with_packet(**changes)])
        assert str(err.value) == f"{path}: cannot write a {kind} to a results document"

    @pytest.mark.parametrize("writer", [dumps_results, results_to_doc], ids=["text", "doc"])
    def test_a_bytearray_payload_is_written_as_bytes(self, writer):
        result = self.with_packet(payload=bytearray(a_result().packet.payload))
        assert writer(0, [result]) == writer(0, [a_result()])


class TestStreamingMemory:
    @staticmethod
    def streamed_peak(solution, count: int) -> int:
        """tracemalloc's peak while ``count`` packets to the guess_game
        port, each with the one payload byte 7, are run and written, the
        chunks thrown away."""
        packets = [make_udp_packet(GUESS_PORT, payload=bytes([7]))] * count
        tracemalloc.start()
        try:
            deque(iter_results_text(0, iter_trace(solution, packets, 0)), maxlen=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_does_not_grow_with_the_results(self):
        solution = guess_game_solution()
        self.streamed_peak(solution, 10)  # compiles the processor
        small = self.streamed_peak(solution, 1000)
        large = self.streamed_peak(solution, 4000)
        assert large <= small + 64 * 1024, (small, large)

    def test_peak_is_bounded_when_no_event_repeats(self, monkeypatch):
        """Every packet bumps a shared counter, so no trace event repeats;
        the writer's memo of event texts is emptied when it fills. The
        memo's bound is lowered so that a short trace fills it."""
        monkeypatch.setattr(trace_doc, "_EVENTS_HELD", 128)
        p = new_flow_processor(
            "count",
            input=HeaderLayout("count_in", [FieldDecl("b", U8)]),
            shared=[SharedVariableDecl("n", U32, u32(0))],
        )
        p.body.add(Add(p.var("n"), p.var("n"), u32(1)))
        sel = new_flow_selector(
            "count_sel", ProtocolStack.IPV4_UDP, [Criterion("udp.dstPort", u16(GUESS_PORT))], p
        )
        solution = Solution([sel])
        self.streamed_peak(solution, 10)  # compiles the processor
        small = self.streamed_peak(solution, 500)
        large = self.streamed_peak(solution, 2000)
        assert large <= small * 1.25, (small, large)

    def test_peak_is_bounded_when_no_header_map_repeats(self, monkeypatch):
        """Every packet has its own UDP source port, so no UDP header map
        repeats; the writer's memo of header texts is emptied when it
        fills. The memo's bound is lowered so that a short trace fills it."""
        monkeypatch.setattr(trace_doc, "_EVENTS_HELD", 128)
        solution = guess_game_solution()

        def peak(count: int) -> int:
            packets = (make_udp_packet(GUESS_PORT, payload=bytes([7]), src_port=n)
                       for n in range(count))
            tracemalloc.start()
            try:
                deque(iter_results_text(0, iter_trace(solution, packets, 0)), maxlen=0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(10)  # compiles the processor
        small, large = peak(500), peak(2000)
        assert large <= small * 1.25, (small, large)

    def test_cli_builds_each_trace_packet_when_it_runs(self, tmp_path, monkeypatch):
        """While ``simulate`` runs, each trace packet is built only when the
        simulator asks for it: besides the packet just built, only the one
        before it (still named by the loops that ran and wrote it) is
        alive."""
        live = [0]  # built packets not yet freed
        reader = trace_doc._packet_reader

        def freed():
            live[0] -= 1

        def counting_reader():
            read = reader()

            def counted(pdoc, path):
                packet = read(pdoc, path)
                live[0] += 1
                weakref.finalize(packet, freed)
                return packet

            return counted

        alive = []
        run = simulator.iter_trace

        def watched(solution, packets, seed=0):
            def each():
                for packet in packets:
                    alive.append(live[0])
                    yield packet

            return run(solution, each(), seed)

        monkeypatch.setattr(trace_doc, "_packet_reader", counting_reader)
        monkeypatch.setattr(simulator, "iter_trace", watched)
        packets = [{"udp": {"dstPort": str(GUESS_PORT)}, "payload": f"{i % 256:02x}"}
                   for i in range(500)]
        (tmp_path / "trace.json").write_text(json.dumps({"seed": 0, "packets": packets}))
        out = tmp_path / "results.json"
        argv = ["simulate", str(asset_path("guess_game")), "-t", str(tmp_path / "trace.json")]
        assert cli.main(argv + ["-o", str(out)]) == 0
        assert len(json.loads(out.read_text())["results"]) == len(alive) == 500
        assert max(alive) <= 2, max(alive)

    def test_stdout_gets_the_results_only_once_the_last_is_made(self, tmp_path, monkeypatch):
        """On stdout the results are staged as with ``-o``: nothing is
        written before the last result is made, and then the bytes that
        ``-o`` writes."""
        packets = [{"udp": {"dstPort": str(GUESS_PORT)}, "payload": f"{i:02x}"}
                   for i in range(50)]
        (tmp_path / "trace.json").write_text(json.dumps({"seed": 0, "packets": packets}))
        argv = ["simulate", str(asset_path("guess_game")), "-t", str(tmp_path / "trace.json")]
        out = tmp_path / "results.json"
        assert cli.main(argv + ["-o", str(out)]) == 0
        stdout, written = io.StringIO(), []
        run = simulator.iter_trace

        def watched(solution, packets, seed=0):
            for result in run(solution, packets, seed):
                written.append(stdout.tell())
                yield result
            written.append(stdout.tell())  # the last result is made

        monkeypatch.setattr(simulator, "iter_trace", watched)
        monkeypatch.setattr(sys, "stdout", stdout)
        assert cli.main(argv) == 0
        assert written == [0] * 51
        assert stdout.getvalue() == out.read_text()

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out_file"])
    @pytest.mark.parametrize("last, path", [
        ({"udp": {"dstport": "1"}, "payload": "00"}, "packets[999].udp.dstport"),
        ({"udp": {}, "payload": "0"}, "packets[999].payload"),
    ], ids=["unknown_field", "schema"])
    def test_an_error_in_the_last_packet_writes_nothing(self, tmp_path, capsys, to_file, last,
                                                        path):
        # A too-wide field there is tests/test_cli.py's
        # test_bad_field_on_the_last_packet_writes_nothing.
        good = {"udp": {"dstPort": str(GUESS_PORT)}, "payload": "07"}
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps({"seed": 0, "packets": [good] * 999 + [last]}))
        out = tmp_path / "out" / "results.json"
        out.parent.mkdir()
        argv = ["simulate", str(asset_path("guess_game")), "-t", str(trace)]
        assert cli.main(argv + (["-o", str(out)] if to_file else [])) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: ")
        assert list(out.parent.iterdir()) == []
