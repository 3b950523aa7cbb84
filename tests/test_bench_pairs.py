"""scripts/bench_pairs.py: the summary of alternating benchmark pairs."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

import bench_pairs  # noqa: E402


def result(**values):
    """A benchmark run's last-line JSON with the given metric values and
    every other end-to-end metric at 1."""
    metrics = {name: {"value": values.get(name, 1.0)} for name in bench_pairs.BETTER}
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
