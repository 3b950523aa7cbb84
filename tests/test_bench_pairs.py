"""scripts/bench_pairs.py: the summary of alternating benchmark pairs."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

import bench_pairs  # noqa: E402


def result(**values):
    """A benchmark run's last-line JSON with the given metric values and
    every other end-to-end and per-layer metric at 1."""
    metrics = {name: {"value": values.get(name, 1.0)}
               for name in [*bench_pairs.BETTER, *bench_pairs.LAYERS]}
    return {"metrics": metrics, "failed": values.get("failed", 0)}


def test_a_win_is_a_strictly_better_value_in_the_metric_direction():
    pairs = [
        (result(run_trace_pps=10, setup_s=2), result(run_trace_pps=12, setup_s=1)),
        (result(run_trace_pps=10, setup_s=2), result(run_trace_pps=10, setup_s=3)),
        (result(run_trace_pps=10, setup_s=2, failed=1), result(run_trace_pps=9, setup_s=1)),
    ]
    summary = bench_pairs.summarize(pairs)
    assert summary["run_trace_pps"]["change_wins"] == "1/3"  # higher is better; a tie is no win
    assert summary["setup_s"]["change_wins"] == "2/3"  # lower is better
    assert summary["run_trace_pps"]["parent_q1_median_q3"] == [10, 10, 10]
    assert summary["run_trace_pps"]["change_q1_median_q3"] == [9.5, 10, 11]
    assert summary["failed"] == {"parent": 1, "change": 0}


def test_one_pair_has_its_value_as_every_quartile():
    assert bench_pairs.quartiles([4.0]) == [4.0, 4.0, 4.0]


def test_the_seed_reaches_every_run_and_the_record(monkeypatch, capsys, tmp_path):
    seen = []

    def fake_run(checkout, workload, trace, seed):
        seen.append((workload, trace, seed))
        return "", result()

    monkeypatch.setattr(bench_pairs, "export", lambda ref, into: "c0ffee")
    monkeypatch.setattr(bench_pairs, "run", fake_run)
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)  # a tree with no bytecode under src/
    assert bench_pairs.main(["HEAD", "--pairs", "2", "--workload", "guess_stream",
                             "--seed", "7"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["seed"] == 7
    assert {seed for _, _, seed in seen} == {7}
    assert len(seen) == 2 * 2 + 2 * bench_pairs.TRACED_RUNS  # the pairs, then the traced runs
    assert record["commands"] == [
        "python3 perfbench/run.py --workload guess_stream --trace 0 --seed 7",
        "python3 perfbench/run.py --workload guess_stream --trace 1 --seed 7",
    ]


def test_each_per_layer_number_is_the_median_of_three_traced_runs(monkeypatch, capsys, tmp_path):
    traced = {"parent": iter([5.0, 1.0, 3.0]), "change": iter([2.0, 9.0, 4.0])}
    seen = []

    def fake_run(checkout, workload, trace, seed):
        side = "change" if checkout == tmp_path else "parent"
        seen.append((side, trace))
        if not trace:
            return "", result()
        value = next(traced[side])
        return "", {"metrics": {name: {"value": value} for name in bench_pairs.LAYERS},
                    "failed": 0}

    monkeypatch.setattr(bench_pairs, "export", lambda ref, into: "c0ffee")
    monkeypatch.setattr(bench_pairs, "run", fake_run)
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)  # the change's side
    assert bench_pairs.main(["HEAD", "--pairs", "1", "--workload", "many_flows"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert bench_pairs.TRACED_RUNS == 3
    # three traced runs per side, the sides taking turns to go first
    assert [s for s, trace in seen if trace] == ["parent", "change", "change", "parent",
                                                "parent", "change"]
    assert [r["first"] for r in record["runs"] if r["trace"]] == [True, False] * 3
    per_layer = record["summary"]["many_flows"]["per_layer"]
    assert set(per_layer) == set(bench_pairs.LAYERS)
    assert per_layer["program_doc.replay_ms"] == {"parent": 3.0, "change": 4.0}


def test_without_a_seed_perfbench_keeps_its_default():
    assert "--seed" not in bench_pairs.perfbench_args("many_flows", 0, None)
    assert bench_pairs.perfbench_args("many_flows", 1, 3)[-2:] == ["--seed", "3"]


@pytest.mark.parametrize("flag, dont_write", [("1", True), ("", False)])
def test_host_records_the_bytecode_flag_and_start_up_the_runs_see(monkeypatch, flag, dont_write):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", flag)
    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    assert "PYTHONPATH" not in bench_pairs.child_env()
    record = bench_pairs.host()
    assert record["dont_write_bytecode"] is dont_write
    assert 0 < record["python_start_ms"] < 10_000


def test_refuses_to_start_while_src_holds_bytecode(monkeypatch, capsys, tmp_path):
    cache = tmp_path / "src" / "p4flowgen" / "__pycache__"
    cache.mkdir(parents=True)
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "export", lambda ref, into: pytest.fail("exported"))
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["HEAD", "--pairs", "1"])
    assert exc.value.code == 2
    assert str(cache) in capsys.readouterr().err
    cache.rmdir()
    assert bench_pairs.stale_bytecode(tmp_path / "src") is None
