"""Tests for the benchmark itself: seeded inputs, the reference checker and
the span recorder. Run with ``python3 -m pytest perfbench``."""

import copy
import json

import pytest

import reference
import workloads
from tracing import Tracer, summarize

workloads.ensure_checkout()

GOLDEN = workloads.REPO / "tests" / "golden"
DATA = workloads.REPO / "tests" / "data"
SHIPPED = {
    "guess_game": {"program": "guess_game", "port": 5555},
    "insert_agg": {"program": "insert_agg", "port": 6666},
}


def _shipped(name):
    trace = json.loads((DATA / f"{name}_trace.json").read_text())
    results = json.loads((GOLDEN / f"{name}_results.json").read_text())
    return SHIPPED[name], trace, results


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic(name):
    first = workloads.generate(name, 7)
    assert workloads.generate(name, 7) == first
    assert workloads.generate(name, 8)[1] != first[1]


def test_write_gives_byte_identical_files(tmp_path):
    for out in (tmp_path / "a", tmp_path / "b"):
        workloads.write("many_flows", 3, out)
    for name in ("program.json", "trace.json", "spec.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_checker_accepts_golden_results(name):
    assert reference.mismatches(*_shipped(name)) == []


def test_checker_counts_corrupted_results():
    spec, trace, results = _shipped("guess_game")
    bad = copy.deepcopy(results)
    bad["results"][0]["payload_hex"] = "4f4b"
    bad["results"][2]["egress_port"] += 1
    bad["results"][5].pop("error")
    problems = reference.mismatches(spec, trace, bad)
    assert [p.split(":")[0] for p in problems] == ["results[0]", "results[2]", "results[5]"]
    truncated = dict(results, results=results["results"][:-1])
    assert reference.mismatches(spec, trace, truncated) == ["results[5]: missing"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_library_agrees_with_reference(name):
    from p4flowgen import run_trace, solution_from_doc
    from p4flowgen.program_doc import results_to_doc, trace_from_doc

    program, trace_text, spec = workloads.generate(name, 11)
    trace = json.loads(trace_text)
    seed, packets = trace_from_doc(trace)
    results = run_trace(solution_from_doc(json.loads(program)), packets, seed)
    doc = json.loads(json.dumps(results_to_doc(seed, results)))
    assert reference.mismatches(spec, trace, doc) == []
    verdicts = {r.verdict for r in results}
    assert verdicts == {"PROCESSED", "PASSTHROUGH"}
    assert any(r.error for r in results)


def test_tracer_records_nested_spans_and_uninstalls():
    from p4flowgen import simulator
    from p4flowgen.builtin_examples import guess_game_solution

    original = simulator.classify
    packets = [simulator.make_udp_packet(5555, payload=b"\x01")] * 3
    tracer = Tracer()
    tracer.install()
    try:
        simulator.run_trace(guess_game_solution(), packets)
    finally:
        tracer.uninstall()
    assert simulator.classify is original
    names = [s[0] for s in tracer.spans]
    assert names.count("simulator.classify") == 3
    parents = {s[0]: tracer.spans[s[3]][0] for s in tracer.spans if s[3] >= 0}
    assert parents["simulator.classify"] == "simulator.simulate_packet"
    assert parents["simulator.simulate_packet"] == "simulator.run_trace"
    summary = summarize(tracer.spans)
    assert summary["calls"]["simulator.simulate_packet"] == 3
    assert 0 < summary["self_ms"]["simulator"] <= summary["total_ms"]["simulator.run_trace"]
