"""Byte-level pins for the all_ops program (tests/all_ops.py).

Its document, generated file set and trace results are frozen goldens;
refresh them with scripts/regen_goldens.py after intentional changes.
"""

import json
from pathlib import Path

from all_ops import all_ops_solution
from p4flowgen.codegen import generate
from p4flowgen.program_doc import dumps_doc, load_json, solution_from_doc, solution_to_doc
from p4flowgen.simulator import run_trace
from p4flowgen.trace_doc import load_trace, results_to_doc

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
PROGRAM = DATA / "all_ops.json"
TRACE = DATA / "all_ops_trace.json"


def test_document_matches_builder():
    assert dumps_doc(solution_to_doc(all_ops_solution())) == PROGRAM.read_text()


def test_document_round_trips():
    doc = load_json(PROGRAM)
    assert solution_to_doc(solution_from_doc(doc)) == doc


def test_generated_files_match_golden():
    fileset = generate(solution_from_doc(load_json(PROGRAM)))
    files = dict(fileset.files)
    files[fileset.template_name] = fileset.template_text
    golden_dir = GOLDEN / "all_ops"
    assert sorted(files) == sorted(p.name for p in golden_dir.iterdir())
    for name, text in files.items():
        assert text == (golden_dir / name).read_text(), name


def test_results_match_golden():
    seed, packets = load_trace(TRACE)
    results = run_trace(solution_from_doc(load_json(PROGRAM)), packets, seed)
    golden = (GOLDEN / "all_ops_results.json").read_text()
    assert dumps_doc(results_to_doc(seed, results)) == golden


def test_every_op_kind_is_traced():
    golden = json.loads((GOLDEN / "all_ops_results.json").read_text())
    kinds = {e["kind"] for r in golden["results"] for e in r["trace"]}
    assert kinds == {
        "match", "assign_const", "assign_var", "cast", "add", "sub", "equals",
        "greater", "rand", "ring_push", "ring_read_head", "send_back",
        "forward", "if", "switch", "atomic_begin", "atomic_end",
    }

