"""Command-line front end.

Subcommands: check, generate, simulate, examples. Exit codes: 0 for
success, 1 for I/O and schema problems, 2 for semantic errors and usage
errors. All diagnostics go to stderr; stdout carries machine-readable
output only.

Each subcommand imports the layers it runs when it starts, so that a
run loads no more than it needs: ``check`` loads the program layer
(program_doc, and the core_model, flow_ast and selector modules under
it); ``generate`` adds codegen, ``simulate`` adds simulator, packet and
trace_doc (the trace reader and results writer), and ``examples`` loads
builtin_examples. Names are looked up in their module at call time, so
a tracer that swaps module attributes sees every call.

``simulate`` reads, runs and writes one packet at a time, so its memory
grows with the parsed trace document, not with the packets or results.
Its output, to stdout or to ``-o``, is staged and goes out only when the
run completes, so a trace error found at any packet leaves no output.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .core_model import SEED_MAX
from .errors import DocError, FlowgenError


def cmd_check(args) -> int:
    from .program_doc import load_json, solution_from_doc

    solution_from_doc(load_json(args.program))
    print(f"{args.program}: ok")
    return 0


def cmd_generate(args) -> int:
    from .codegen import generate
    from .program_doc import load_json, solution_from_doc

    solution = solution_from_doc(load_json(args.program))
    for path in generate(solution).write_to(args.out_dir):
        print(path)
    return 0


def cmd_simulate(args) -> int:
    """Each packet is read, run and written in turn, so only the one in
    hand is held; the results are staged, so a trace error at any packet
    writes nothing."""
    from .program_doc import load_json, solution_from_doc
    from .simulator import iter_trace
    from .staging import write_staged, write_staged_stream
    from .trace_doc import iter_results_text, stream_trace

    solution = solution_from_doc(load_json(args.program))
    seed, packets = stream_trace(load_json(args.trace))
    if args.seed is not None:
        seed = args.seed
    chunks = iter_results_text(seed, iter_trace(solution, packets, seed))
    if args.out is None:
        write_staged_stream(chunks, sys.stdout)
    else:
        out = Path(args.out)
        write_staged(out.parent, {out.name: chunks})
    return 0


def cmd_examples(args) -> int:
    from .builtin_examples import EXAMPLE_BUILDERS, asset_path
    from .staging import write_staged

    if args.name is not None and args.name not in EXAMPLE_BUILDERS:
        names = ", ".join(sorted(EXAMPLE_BUILDERS))
        print(
            f"error: unknown example {args.name!r}; available: {names}",
            file=sys.stderr,
        )
        return 2
    names = [args.name] if args.name else sorted(EXAMPLE_BUILDERS)
    files = {f"{name}.json": asset_path(name).read_text() for name in names}
    for path in write_staged(args.out_dir, files):
        print(path)
    return 0


def seed_arg(text: str) -> int:
    """A ``--seed`` value: an integer the generator's 64-bit state holds."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 0 <= seed <= SEED_MAX:
        raise argparse.ArgumentTypeError(f"seed {seed} is outside 0..{SEED_MAX}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="p4flowgen",
        description="Check, generate, and simulate packet-flow programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a program file")
    p.add_argument("program", help="program JSON file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("generate", help="emit P4 fragments for a program")
    p.add_argument("program", help="program JSON file")
    p.add_argument("-o", "--out-dir", required=True, help="output directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("simulate", help="run a packet trace through a program")
    p.add_argument("program", help="program JSON file")
    p.add_argument("-t", "--trace", required=True, help="trace JSON file")
    p.add_argument("--seed", type=seed_arg, default=None,
                   help=f"override the trace's rng seed (0 to {SEED_MAX})")
    p.add_argument("-o", "--out", default=None,
                   help="write results here instead of stdout")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("examples", help="write the built-in example programs")
    p.add_argument("name", nargs="?", default=None,
                   help="one example name (default: all)")
    p.add_argument("-o", "--out-dir", default=".", help="output directory")
    p.set_defaults(func=cmd_examples)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DocError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except FlowgenError as e:  # DocSemanticError included
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())
