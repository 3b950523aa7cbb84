"""Work the benchmark runs in a fresh interpreter.

    child.py setup PROGRAM SEED
        import p4flowgen, then time the first solution_from_doc(load_json())
        plus initial_state; prints the seconds.
    child.py cli-trace SPANS -- ARGS...
        run cli.main(ARGS) with every layer traced; writes the spans to
        SPANS as JSON and exits with cli.main's code.
    child.py spawn OUT ERR -- ARGV...
        run ARGV with its stdout and stderr in OUT and ERR; prints its wall
        time, exit code and peak RSS (from wait4) as JSON.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import ensure_checkout  # noqa: E402


def setup(program: str, seed: str) -> int:
    from p4flowgen import initial_state, solution_from_doc
    from p4flowgen.program_doc import load_json

    start = time.perf_counter()
    initial_state(solution_from_doc(load_json(program)), int(seed))
    print(repr(time.perf_counter() - start))
    return 0


def cli_trace(spans_path: str, dashdash: str, *cli_args: str) -> int:
    from tracing import Tracer

    if dashdash != "--":
        raise SystemExit("usage: child.py cli-trace SPANS -- ARGS...")
    tracer = Tracer(run_id=cli_args[0])
    tracer.install()
    from p4flowgen import cli

    try:
        return cli.main(list(cli_args))
    finally:
        Path(spans_path).write_text(json.dumps(tracer.spans))


def spawn(out: str, err: str, dashdash: str, *argv: str) -> int:
    if dashdash != "--":
        raise SystemExit("usage: child.py spawn OUT ERR -- ARGV...")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], list(argv), os.environ, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    print(json.dumps({"wall": wall, "code": os.waitstatus_to_exitcode(status),
                      "maxrss_kb": usage.ru_maxrss}))
    return 0


if __name__ == "__main__":
    ensure_checkout()
    mode, *rest = sys.argv[1:]
    modes = {"setup": setup, "cli-trace": cli_trace, "spawn": spawn}
    sys.exit(modes[mode](*rest))
