#!/usr/bin/env python3
"""Benchmark the working tree against a parent commit in alternating pairs.

    python3 scripts/bench_pairs.py PARENT_REF --pairs N [--workload W] [--seed S] > BENCH_x.json

Each pair runs ``perfbench/run.py --workload W`` once on an exported copy
of PARENT_REF and once on the working tree, the parent first in odd pairs
and the change first in even ones, so that a slow spell of the host does
not fall on one side only. After the pairs, each side runs each workload
``TRACED_RUNS`` more times with ``--trace 1``, the sides again taking
turns to go first; each per-layer number of the record is the median of
a side's traced runs (unscaled), so that one slow spell does not decide it.

The record, printed as JSON (progress goes to stderr), holds the stdout
of every run and, per workload and end-to-end metric of BENCHMARK.json,
the parent's and the change's q1/median/q3 over the pairs and the number
of pairs the change wins (a win is a strictly better value in the
metric's direction); per workload and per-layer metric, each side's
median over its traced runs; and the host: its CPU, its Python, whether
the runs write no bytecode (then each run compiles the package from
source) and the median start-up of a bare interpreter in the runs'
environment.
Without ``--workload`` every workload of BENCHMARK.json runs. ``--seed``
is passed to every run and kept in the record; without it each run uses
perfbench's default seed and the record's seed is null. A claim made on
the default seed is checked again on a seed not used while the change
was written.

The parent is exported with ``git archive`` into a temporary directory,
which is removed at the end; the repository itself is left as it was.
The script refuses to start while a ``__pycache__`` directory exists under
the working tree's ``src/``: the change would run from that bytecode (it
is read even when no bytecode is written) and the fresh parent export from
source, which makes the change look faster.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
LAYERS = [m["name"] for m in SPEC["per_layer"]]
STARTS = 11  # bare interpreter start-ups timed for the host record
TRACED_RUNS = 3  # traced runs per side and workload


def export(ref: str, into: Path) -> str:
    """Write the tree of ``ref`` into the directory ``into``; returns its
    commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{ref}^{{commit}}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"git archive {commit} failed")
    return commit


def stale_bytecode(tree: Path) -> Optional[Path]:
    """A ``__pycache__`` directory under ``tree``, or None."""
    return next(tree.rglob("__pycache__"), None)


def perfbench_args(workload: str, trace: int, seed: Optional[int]) -> list[str]:
    """The arguments of one ``perfbench/run.py`` run."""
    args = ["perfbench/run.py", "--workload", workload, "--trace", str(trace)]
    return args if seed is None else [*args, "--seed", str(seed)]


def child_env() -> dict:
    """The environment of every benchmark run: this one without
    PYTHONPATH, so that a run measures the package of its own checkout."""
    return {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}


def run(checkout: Path, workload: str, trace: int, seed: Optional[int]) -> tuple[str, dict]:
    """One benchmark run in ``checkout``: its stdout and its last line's
    JSON."""
    proc = subprocess.run(
        [sys.executable, *perfbench_args(workload, trace, seed)],
        cwd=checkout, env=child_env(), capture_output=True, text=True)
    if not proc.stdout.strip():
        raise SystemExit(f"{checkout}: {workload} printed nothing (exit {proc.returncode})\n"
                         f"{proc.stderr}")
    return proc.stdout, json.loads(proc.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return values * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, median, q3]


def summarize(pairs: list[tuple[dict, dict]]) -> dict:
    """Per metric, both sides' q1/median/q3 and the change's wins."""
    summary = {}
    for name, better in BETTER.items():
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
        summary[name] = {
            "parent_q1_median_q3": quartiles(parent),
            "change_q1_median_q3": quartiles(change),
            "change_wins": f"{wins}/{len(pairs)}",
        }
    summary["failed"] = {
        "parent": sum(p["failed"] for p, _ in pairs),
        "change": sum(c["failed"] for _, c in pairs),
    }
    return summary


def layer_medians(traced: dict[str, list[dict]]) -> dict:
    """Per per-layer metric, each side's median over its traced runs."""
    return {name: {side: statistics.median(r["metrics"][name]["value"] for r in results)
                   for side, results in traced.items()}
            for name in LAYERS}


def host() -> dict:
    """The machine and interpreter of the runs. ``dont_write_bytecode``
    is the flag as a benchmark run sees it (when set, every run compiles
    the package from source), and ``python_start_ms`` the median of
    ``STARTS`` start-ups of a bare ``python3 -c pass`` in the same
    environment."""
    env = child_env()
    flags = subprocess.run(
        [sys.executable, "-c", "import sys; print(int(sys.flags.dont_write_bytecode))"],
        env=env, check=True, capture_output=True, text=True).stdout
    times = []
    for _ in range(STARTS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        times.append(time.perf_counter() - start)
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": cpu, "vcpus": os.cpu_count(), "python": platform.python_version(),
            "dont_write_bytecode": flags.strip() == "1",
            "python_start_ms": round(statistics.median(times) * 1e3, 2)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", metavar="PARENT_REF")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        help="a workload to run (repeatable); default: those of BENCHMARK.json")
    parser.add_argument("--seed", type=int,
                        help="the workload seed of every run; default: perfbench's own")
    parser.add_argument("--description", default="", help="the record's description")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    cache = stale_bytecode(ROOT / "src")
    if cache is not None:
        parser.error(f"{cache} holds bytecode that the parent's fresh export lacks; "
                     "remove it first")
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    sides = {"change": ROOT}
    runs, results = [], {w: [] for w in workloads}
    traced = {w: {"parent": [], "change": []} for w in workloads}

    def record(workload, pair, side, first, trace):
        stdout, result = run(sides[side], workload, trace, args.seed)
        runs.append({"workload": workload, "pair": pair, "side": side, "first": first,
                     "trace": trace, "stdout": stdout})
        print(f"{workload} pair {pair} {side}: "
              + ", ".join(f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()),
              file=sys.stderr)
        return result

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        commit = export(args.parent, Path(tmp))
        sides["parent"] = Path(tmp)
        for pair in range(1, args.pairs + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for workload in workloads:
                got = {side: record(workload, pair, side, side == order[0], 0) for side in order}
                results[workload].append((got["parent"], got["change"]))
        for turn in range(TRACED_RUNS):
            order = ("parent", "change") if turn % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    traced[workload][side].append(
                        record(workload, None, side, side == order[0], 1))

    doc = {
        "description": args.description,
        "parent_commit": commit,
        "seed": args.seed,
        "host": host(),
        "commands": [" ".join(["python3", *perfbench_args(w, t, args.seed)])
                     for t in (0, 1) for w in workloads],
        "summary": {w: {**summarize(results[w]), "per_layer": layer_medians(traced[w])}
                    for w in workloads},
        "runs": runs,
    }
    print(json.dumps(doc, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
