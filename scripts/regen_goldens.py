#!/usr/bin/env python3
"""Refresh the frozen documents and outputs: the shipped schemas and
assets, tests/data/all_ops.json and everything under tests/golden/.

The frozen files pin five things:

* the two shipped schemas (src/p4flowgen/schemas/): the command op enum
  and plain-op branches come from flow_ast.OPS, the seed and port maxima
  from core_model, and the hand-written rest is rewritten by dumps_doc,
* the document of each packaged example, built by its entry in
  EXAMPLE_BUILDERS (src/p4flowgen/assets/<name>.json),
* the document of the all_ops program built by tests/all_ops.py
  (tests/data/all_ops.json),
* the full generated file set for each packaged example and for the
  test-only all_ops program (tests/golden/<name>/), and
* the simulate results for the trace fixtures in tests/data/
  (tests/golden/<name>_results.json).

Run this after an intentional change to the op table, code generation
or the simulator, review the diff, and commit the result together with
the change that caused it. With --check nothing is written; the script
exits 1 if the tree no longer matches what the package produces.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TESTS = ROOT / "tests"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(TESTS))

from all_ops import all_ops_solution
from p4flowgen.builtin_examples import EXAMPLE_BUILDERS, asset_path
from p4flowgen.codegen import generate
from p4flowgen.core_model import PORT_MAX, RING_CAPACITY_MAX, SEED_MAX
from p4flowgen.flow_ast import CONST, OPERAND, OPS, PLAIN, RING, TARGET
from p4flowgen.program_doc import SCHEMA_DIR, dumps_doc, solution_from_doc, solution_to_doc
from p4flowgen.simulator import run_trace
from p4flowgen.trace_doc import dumps_results, load_trace

GOLDEN = TESTS / "golden"
DATA = TESTS / "data"
ALL_OPS_DOC = DATA / "all_ops.json"

# The ops whose command branches are hand-written: the scopes.
SCOPE_OPS = ["if", "switch", "atomic"]
# A plain op's field schema by its role, or by its name for a PLAIN field.
FIELD_SCHEMAS = {
    TARGET: {"$ref": "#/$defs/identifier"}, RING: {"$ref": "#/$defs/identifier"},
    CONST: {"$ref": "#/$defs/uvalue"}, OPERAND: {"$ref": "#/$defs/operand"},
    "port": {"type": "integer", "minimum": 0, "maximum": PORT_MAX},
}


def schema_outputs() -> dict[Path, str]:
    """Both shipped schemas with their derived parts rebuilt. The plain
    ops get one closed command branch per distinct set of fields, in
    op-table order; a field with an enum default takes its enum's values."""
    groups: dict[str, tuple[dict, list[str]]] = {}
    for op, cls in OPS.items():
        fields = {
            name: {"enum": [m.value for m in role]} if isinstance(role, type)
            else FIELD_SCHEMAS[name if role == PLAIN else role]
            for name, role in cls.roles
        }
        then = {"additionalProperties": False}
        if cls.required:
            then["required"] = list(cls.required)
        then["properties"] = {"op": True, "ordinal": True, **fields}
        groups.setdefault(json.dumps(then), (then, []))[1].append(op)
    paths = [SCHEMA_DIR / f"{name}.schema.json" for name in ("program", "trace")]
    program, trace = (json.loads(path.read_text()) for path in paths)
    command = program["$defs"]["command"]
    command["properties"]["op"]["enum"] = list(OPS) + SCOPE_OPS
    command["allOf"] = [
        {"if": {"properties": {"op": {"const": ops[0]} if len(ops) == 1 else {"enum": ops}}},
         "then": then}
        for then, ops in groups.values()
    ] + [m for m in command["allOf"] if m["if"]["properties"]["op"].get("const") in SCOPE_OPS]
    program["$defs"]["ring"]["properties"]["capacity"]["maximum"] = RING_CAPACITY_MAX
    trace["properties"]["seed"]["maximum"] = SEED_MAX
    trace["$defs"]["packet"]["properties"]["ingress_port"]["maximum"] = PORT_MAX
    return dict(zip(paths, map(dumps_doc, (program, trace))))


def _program_outputs(name: str, doc_path: Path, solution) -> dict[Path, str]:
    """The document of one program, and the generated files and trace
    results of the Solution loaded back from that document (the path
    the CLI takes)."""
    doc_text = dumps_doc(solution_to_doc(solution))
    out: dict[Path, str] = {doc_path: doc_text}
    solution = solution_from_doc(json.loads(doc_text))
    files = generate(solution)
    for fname, text in files.files.items():
        out[GOLDEN / name / fname] = text
    out[GOLDEN / name / files.template_name] = files.template_text

    seed, packets = load_trace(DATA / f"{name}_trace.json")
    results = run_trace(solution, packets, seed=seed)
    out[GOLDEN / f"{name}_results.json"] = dumps_results(seed, results)
    return out


def build_outputs() -> dict[Path, str]:
    """Map of absolute path to expected file text."""
    out: dict[Path, str] = {}
    for name, builder in sorted(EXAMPLE_BUILDERS.items()):
        out.update(_program_outputs(name, asset_path(name), builder()))
    out.update(_program_outputs("all_ops", ALL_OPS_DOC, all_ops_solution()))
    return out


def check(expected: dict[Path, str], orphans: bool = True) -> int:
    stale = []
    for path, text in expected.items():
        rel = path.relative_to(ROOT)
        if not path.exists():
            stale.append(f"missing: {rel}")
        elif path.read_text() != text:
            stale.append(f"differs: {rel}")
    for path in sorted(GOLDEN.rglob("*")) if orphans else ():
        if path.is_file() and path not in expected:
            stale.append(f"orphaned: {path.relative_to(ROOT)}")
    for line in stale:
        print(line)
    return 1 if stale else 0


def write(expected: dict[Path, str]) -> int:
    if GOLDEN.exists():
        shutil.rmtree(GOLDEN)
    for path, text in expected.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare instead of writing; exit 1 on any drift",
    )
    args = parser.parse_args(argv)
    # The programs below load through the schemas, so those come first.
    schemas = schema_outputs()
    if args.check:
        return check(schemas, orphans=False) or check(build_outputs())
    write(schemas)
    return write(build_outputs())


if __name__ == "__main__":
    raise SystemExit(main())
