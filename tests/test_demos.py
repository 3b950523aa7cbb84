"""The demo scripts run to the end, with their defaults and with --emit."""

import subprocess
import sys
from pathlib import Path

import pytest
from oracles import splitmix64_stream

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_demo(name: str, *args: str) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_guess_game_demo_wins_and_redraws_from_seed_0():
    lines = run_demo("demo_guess_game.py")
    redrawn = next(splitmix64_stream(0)) & 0xFF
    assert lines[0] == "secret starts at 42"
    assert lines[-1] == f"hit in {len(lines) - 2} probes; secret redrawn to {redrawn}"


def test_insert_agg_demo_prepends_the_sum():
    *_, sums, before, after = run_demo("demo_insert_agg.py")
    a, b = (int(x) for x in sums.split(": ")[1].split(" = ")[0].split(" + "))
    payload, total_len = (field.split("=")[1] for field in before.split()[1:])
    grown = (a + b).to_bytes(4, "big").hex() + payload
    assert after == f"  out payload={grown} totalLen={int(total_len) + 4}"


@pytest.mark.parametrize("name", ["demo_guess_game.py", "demo_insert_agg.py"])
def test_demo_emits_the_generated_p4(name, tmp_path):
    lines = run_demo(name, "--emit", str(tmp_path))
    assert lines[-1] == f"wrote {tmp_path / 'v1model_basic.p4'}"
    assert (tmp_path / "program.p4").is_file()
