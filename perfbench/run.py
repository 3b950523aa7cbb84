"""The p4flowgen benchmark: CLI wall time, simulator throughput and set-up
time on three workloads, checked against a reference model. BENCHMARK.json
lists guess_stream and many_flows; agg_bulk runs when asked for.

    python3 perfbench/run.py                          # every workload, default seed
    python3 perfbench/run.py --workload agg_bulk --seed 3 --trace 0
    python3 perfbench/run.py --workload many_flows --trace 1   # per-layer numbers
    python3 perfbench/run.py --steadiness 10          # spread of each metric vs its bound

A run prints a table (metric, value, unit, samples) and, as its last line,
one JSON object with the keys correct, attempted, failed and metrics. It
exits 1 when any output disagrees with the library or the reference.

The run length is run_seconds in BENCHMARK.json. ``--seconds`` is accepted
because the benchmark's command line carries it, and any other value is
refused, so two commits are always measured over the same length.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

workloads.ensure_checkout()

import calibration  # noqa: E402
import reference  # noqa: E402
from tracing import Tracer, summarize  # noqa: E402

REPO = workloads.REPO
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
RUN_SECONDS = SPEC["run_seconds"]
WORK_ROOT = REPO / ".perfbench_work"

# Rounds of end-to-end samples per run: a fixed count, so that two commits
# take their medians over the same number of samples. RUN_SECONDS caps a
# round count the code under test is too slow for.
ROUNDS = {"guess_stream": 24, "agg_bulk": 36, "many_flows": 12}
IMPORT_RUNS = 3     # -X importtime children in a traced run


class HostSpeed:
    """Scales timings to the speed of the reference host.

    Each vCPU of the shared host switches between a fast and a slow mode
    (about 1.5 times as slow) in spells of about a second, and the modes
    of two vCPUs are not in step (README.md). The benchmark therefore
    runs on one vCPU, its children too, and times a calibration slice
    (calibration.py) after every sample. A sample is scaled by
    REFERENCE_S over the mean of the slices just before and just after
    it, which fall into the same spells as the sample."""

    def __init__(self) -> None:
        self.slices = [calibration.time_slice()]

    def scale(self, seconds: float) -> float:
        """A sample just taken, scaled by its neighbouring slices."""
        self.slices.append(calibration.time_slice())
        return seconds * calibration.REFERENCE_S * 2 / (self.slices[-2] + self.slices[-1])


class Run:
    """One workload on one seed: its input files, the library's own results,
    and the tally of checked operations."""

    def __init__(self, name: str, seed: int, work: Path) -> None:
        from p4flowgen import generate, solution_from_doc
        from p4flowgen.program_doc import dumps_doc, load_json, load_trace, results_to_doc
        from p4flowgen.simulator import run_trace

        self.name = name
        self.work = work
        self.program, self.trace, self.spec = workloads.write(name, seed, work)
        self.trace_doc = json.loads(self.trace.read_text())
        self.solution = solution_from_doc(load_json(self.program))
        self.trace_seed, self.packets = load_trace(self.trace)
        self.results = run_trace(self.solution, self.packets, self.trace_seed)
        self.results_doc = results_to_doc(self.trace_seed, self.results)
        self.output = dumps_doc(self.results_doc).encode()
        self.output_digest = hashlib.sha256(self.output).digest()
        fileset = generate(self.solution)
        self.generated = dict(fileset.files)
        self.generated[fileset.template_name] = fileset.template_text
        self.attempted = 0
        self.failures: list[str] = []
        self.check_library()

    def count(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def check_library(self) -> None:
        """Every run_trace result against the reference model."""
        problems = reference.mismatches(self.spec, self.trace_doc, self.results_doc)
        self.attempted += len(self.packets)
        self.failures += [f"library {p}" for p in problems]

    # -- child processes ----------------------------------------------------

    def child(self, argv: list[str]):
        """Run one child to completion through the ``spawn`` launcher in
        child.py; returns (wall s, exit code, peak RSS MB, stdout text).
        The launcher is a small process, so the child's peak RSS is its
        own and not this process's, which a child spawned from here would
        inherit."""
        env = dict(os.environ, PYTHONPATH=str(workloads.SRC))
        out, err = self.work / "child.out", self.work / "child.err"
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "spawn", str(out), str(err), "--", *argv],
            env=env, cwd=REPO, capture_output=True, text=True, check=True)
        report = json.loads(proc.stdout)
        return report["wall"], report["code"], report["maxrss_kb"] / 1024, out.read_text()

    def cli_argv(self, command: str) -> list[str]:
        # A call that writes nothing must not pass on the last call's files.
        shutil.rmtree(self.work / "gen", ignore_errors=True)
        (self.work / "sim.json").unlink(missing_ok=True)
        args = {
            "check": [str(self.program)],
            "generate": [str(self.program), "-o", str(self.work / "gen")],
            "simulate": [str(self.program), "-t", str(self.trace),
                         "-o", str(self.work / "sim.json")],
        }[command]
        return [command, *args]

    def check_cli(self, command: str, code: int, stdout: str) -> None:
        """One CLI call is one operation: it fails on a non-zero exit or an
        output that differs from the library's."""
        ok = code == 0
        try:
            if ok and command == "check":
                ok = stdout == f"{self.program}: ok\n"
            elif ok and command == "generate":
                gen = self.work / "gen"
                ok = all((gen / n).read_text() == t for n, t in self.generated.items())
            elif ok and command == "simulate":
                data = (self.work / "sim.json").read_bytes()
                ok = hashlib.sha256(data).digest() == self.output_digest
        except OSError:
            ok = False
        self.count(ok, f"cli {command} (exit {code})")

    def run_cli(self, command: str):
        wall, code, rss, stdout = self.child(
            [sys.executable, "-m", "p4flowgen", *self.cli_argv(command)])
        self.check_cli(command, code, stdout)
        return wall, rss

    # -- metrics ------------------------------------------------------------

    def setup_time(self) -> float:
        _, code, _, stdout = self.child(
            [sys.executable, str(HERE / "child.py"), "setup",
             str(self.program), str(self.trace_seed)])
        if code != 0:
            raise RuntimeError(f"setup child exited {code}")
        return float(stdout)

    def library_pass(self, samples: dict[str, list], host: HostSpeed) -> list:
        """One timed run_trace pass, then one pass of simulate_packet calls
        timed one by one with the state threaded through, each scaled by
        ``host``. Returns the simulate_packet results, None where it raised
        MalformedPacket."""
        from p4flowgen.errors import MalformedPacket
        from p4flowgen.simulator import initial_state, run_trace, simulate_packet

        solution, packets, seed = self.solution, self.packets, self.trace_seed
        clock = time.perf_counter
        gc.collect()  # every pass starts from the same heap
        start = clock()
        run_trace(solution, packets, seed)
        samples["run_trace_pps"].append(len(packets) / host.scale(clock() - start))

        state = initial_state(solution, seed)
        latencies, outcomes = [], []
        for packet in packets:
            start = clock()
            try:
                result, state = simulate_packet(solution, state, packet)
            except MalformedPacket:
                result = None
            latencies.append(clock() - start)
            outcomes.append(result)
        cuts = statistics.quantiles(latencies, n=100)
        to_us = host.scale(1e6)
        samples["packet_p50_us"].append(cuts[49] * to_us)
        samples["packet_p99_us"].append(cuts[98] * to_us)
        return outcomes

    def check_packet_path(self, outcomes: list) -> None:
        """simulate_packet must agree with run_trace packet by packet."""
        from p4flowgen.program_doc import result_to_doc

        for want, got in zip(self.results, outcomes):
            ok = (want.error is not None if got is None
                  else result_to_doc(got) == result_to_doc(want))
            self.count(ok, "library simulate_packet differs from run_trace")

    def measure(self) -> dict[str, tuple]:
        """End-to-end metrics as {name: (value, samples)}.

        A round is one set-up child, then one ``check``, ``generate`` and
        ``simulate`` child, each followed by one library pass. A run is
        ROUNDS[workload] rounds, fewer only if the next round would end
        after RUN_SECONDS.

        Each metric is the median of the run's samples, scaled by
        HostSpeed to the reference host speed; a latency percentile is the
        median over the run's simulate_packet passes of each pass's
        percentile. Peak RSS is not scaled."""
        samples: dict[str, list] = {name: [] for name in END_TO_END}
        # Warm-up: write the bytecode caches, then one untimed library pass.
        self.child([sys.executable, "-c", "import p4flowgen"])
        host = HostSpeed()
        self.check_packet_path(self.library_pass({name: [] for name in END_TO_END}, host))

        # The collector skips everything the benchmark holds from here on
        # (inputs, expected results, the calibration heap), so that a
        # library pass pays only for collecting its own garbage.
        gc.collect()
        gc.freeze()
        start = time.perf_counter()
        try:
            for done in range(ROUNDS[self.name]):
                elapsed = time.perf_counter() - start
                if done and elapsed * (done + 1) / done > RUN_SECONDS:
                    break
                samples["setup_s"].append(host.scale(self.setup_time()))
                for command in ("check", "generate", "simulate"):
                    wall, rss = self.run_cli(command)
                    samples[f"{command}_cli_s"].append(host.scale(wall))
                    if command == "simulate":
                        samples["simulate_cli_peak_rss_mb"].append(rss)
                    self.library_pass(samples, host)
        finally:
            gc.unfreeze()

        self.host_slice_s = statistics.median(host.slices)
        return {name: (statistics.median(v), len(v)) for name, v in samples.items()}

    # -- traced run ---------------------------------------------------------

    def import_times(self) -> tuple[list[float], list[float]]:
        """Cumulative import ms of p4flowgen and jsonschema (-X importtime)."""
        own, schema = [], []
        for _ in range(IMPORT_RUNS):
            self.child([sys.executable, "-X", "importtime", "-c", "import p4flowgen"])
            cumulative = {}
            for line in (self.work / "child.err").read_text().splitlines():
                parts = line.split("|")
                if line.startswith("import time:") and parts[1].strip().isdigit():
                    cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1000)
            # A deferred import shows as 0, not as a missing key.
            own.append(cumulative.get("p4flowgen", 0.0))
            schema.append(cumulative.get("jsonschema", 0.0))
        return own, schema

    def traced_round(self) -> dict[str, float]:
        """Each CLI command once untraced and once traced, in fresh
        processes; per-layer numbers come from the traced ones."""
        spans_path = self.work / "spans.json"
        summaries, untraced, traced = {}, 0.0, 0.0
        for command in ("check", "generate", "simulate"):
            wall, _ = self.run_cli(command)
            untraced += wall
            wall, code, _, stdout = self.child(
                [sys.executable, str(HERE / "child.py"), "cli-trace", str(spans_path),
                 "--", *self.cli_argv(command)])
            self.check_cli(command, code, stdout)
            traced += wall
            summaries[command] = summarize(json.loads(spans_path.read_text()))
        check, gen, sim = summaries["check"], summaries["generate"], summaries["simulate"]

        def total(summary, name):
            return summary["total_ms"].get(name, 0.0)

        return {
            "program_doc.validate_program_ms": total(check, "program_doc.validate_program_doc"),
            "program_doc.replay_ms": total(check, "program_doc.solution_from_doc")
            - total(check, "program_doc.validate_program_doc"),
            "program_doc.validate_trace_ms": total(sim, "program_doc.validate_trace_doc"),
            "program_doc.packets_from_doc_ms": total(sim, "program_doc.trace_from_doc")
            - total(sim, "program_doc.validate_trace_doc"),
            "program_doc.results_to_doc_ms": total(sim, "program_doc.results_to_doc"),
            "program_doc.dumps_doc_ms": total(sim, "program_doc.dumps_doc"),
            "codegen.generate_ms": total(gen, "codegen.generate"),
            "cli.unattributed_ms": sum(s["self_ms"].get("cli", 0.0) for s in summaries.values()),
            "program_doc.self_ms": sum(s["self_ms"].get("program_doc", 0.0)
                                       for s in summaries.values()),
            "simulator.self_ms": sim["self_ms"].get("simulator", 0.0),
            "tracing.overhead_pct": (traced / untraced - 1) * 100,
        }

    def traced_library(self) -> dict[str, float]:
        """One traced run_trace pass for classify/execute time, one untraced
        pass for the collector count."""
        from p4flowgen import simulator

        collections = 0

        def on_gc(phase, info):
            nonlocal collections
            collections += phase == "start"

        gc.callbacks.append(on_gc)
        try:
            simulator.run_trace(self.solution, self.packets, self.trace_seed)
        finally:
            gc.callbacks.remove(on_gc)

        tracer = Tracer(run_id="library")
        tracer.install()
        try:
            simulator.run_trace(self.solution, self.packets, self.trace_seed)
        finally:
            tracer.uninstall()
        totals = summarize(tracer.spans)["total_ms"]
        n = len(self.packets)
        classify_ms = totals["simulator.classify"]
        return {
            "simulator.classify_us_per_pkt": classify_ms * 1000 / n,
            "simulator.execute_us_per_pkt":
                (totals["simulator.simulate_packet"] - classify_ms) * 1000 / n,
            "simulator.gc_collections": collections,
        }

    def trace_layers(self) -> dict[str, tuple]:
        """Per-layer metrics as {name: (median, samples)}."""
        own, schema = self.import_times()
        rounds: list[dict] = []
        deadline = time.perf_counter() + RUN_SECONDS
        while len(rounds) < 2 or time.perf_counter() < deadline:
            rounds.append({**self.traced_round(), **self.traced_library()})
        samples = {"import.p4flowgen_ms": own, "import.jsonschema_ms": schema}
        samples.update({key: [r[key] for r in rounds] for key in rounds[0]})
        n = len(self.packets)
        events = sum(len(r.trace) for r in self.results)
        errors = sum(r.error is not None for r in self.results)
        processed = sum(r.verdict == "PROCESSED" for r in self.results)
        samples.update({
            "simulator.trace_events_per_pkt": [events / n],
            "simulator.processed": [processed],
            "simulator.passthrough": [n - processed - errors],
            "simulator.errors": [errors],
            "program_doc.output_bytes_per_pkt": [len(self.output) / n],
            "codegen.output_bytes": [sum(len(t.encode()) for t in self.generated.values())],
        })
        return {name: (statistics.median(values), len(values)) for name, values in samples.items()}


def run_workload(name: str, seed: int, trace: bool):
    """(metrics, attempted, failures) for one workload."""
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK_ROOT))
    try:
        run = Run(name, seed, work)
        metrics = run.trace_layers() if trace else run.measure()
        if not trace:
            print(f"{name}: calibration slice median {run.host_slice_s * 1e3:.3f} ms, "
                  f"times scaled to {calibration.REFERENCE_S * 1e3:g} ms")
        return metrics, run.attempted, run.failures
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_table(title: str, metrics: dict[str, tuple]) -> None:
    print(f"== {title}")
    for name, (value, n) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {UNITS[name]:6s} n={n}")


def steadiness(names, seed: int, runs: int) -> int:
    """Run each workload ``runs`` times on the same seed, each run in its
    own process, and report each end-to-end metric's quartile spread as a
    share of its median, next to its bound. Exits 1 if a spread exceeds
    its bound."""
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    worst = 0.0
    for name in names:
        values: dict[str, list[float]] = {m: [] for m in bounds}
        for i in range(runs):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--trace", "0"],
                capture_output=True, text=True, cwd=REPO)
            if proc.returncode:
                print(f"{name} seed {seed} run {i}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
        print(f"== {name}: {runs} runs, seed {seed}")
        print(f"  {'metric':28s} {'median':>12s} {'spread':>8s} {'bound':>6s} {'suggest':>8s}")
        for m, vs in values.items():
            q1, mid, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / mid
            worst = max(worst, spread / bounds[m])
            print(f"  {m:28s} {mid:12.6g} {spread:8.3f} {bounds[m]:6.2f} "
                  f"{min(0.25, 3 * spread):8.3f}  " + " ".join(f"{v:.4g}" for v in vs))
    print(f"worst spread/bound: {worst:.2f}")
    return 1 if worst > 1 else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, choices=(RUN_SECONDS,), default=RUN_SECONDS,
                        help="the run length; must be run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="RUNS", default=0,
                        help="repeat each workload RUNS times and report spreads")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that children are killed and the
    # scratch directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    # One vCPU for this process and its children (see HostSpeed).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.steadiness:
        return steadiness(names, args.seed, args.steadiness)

    metrics, attempted, failures = {}, 0, []
    for name in names:
        got, n, failed = run_workload(name, args.seed, bool(args.trace))
        print_table(f"{name} seed {args.seed}" + (" (traced)" if args.trace else ""), got)
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: {"value": v, "unit": UNITS[k]}
                        for k, (v, _) in got.items()})
        attempted += n
        failures += failed
    for line in failures[:20]:
        print(f"FAILED: {line}", file=sys.stderr)
    print(f"  {'failed_share':36s} {len(failures) / attempted:14.6g} {'1':6s} "
          f"n={attempted}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
