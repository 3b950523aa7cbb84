"""End-to-end tests for the command-line front end.

Each test drives cli.main(argv) directly and asserts on the return
code, stdout/stderr, and the filesystem. Generated files and simulate
output are compared byte-for-byte against tests/golden/ (refresh with
scripts/regen_goldens.py after intentional changes).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from p4flowgen import cli
from p4flowgen.builtin_examples import EXAMPLE_BUILDERS, asset_path

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

EXAMPLE_NAMES = sorted(EXAMPLE_BUILDERS)


def write_doc(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def load_asset_doc(name: str) -> dict:
    return json.loads(asset_path(name).read_text())


class TestExamples:
    def test_writes_all_examples(self, tmp_path, capsys):
        assert cli.main(["examples", "-o", str(tmp_path)]) == 0
        out_lines = capsys.readouterr().out.splitlines()
        assert out_lines == [str(tmp_path / f"{n}.json") for n in EXAMPLE_NAMES]
        for name in EXAMPLE_NAMES:
            written = (tmp_path / f"{name}.json").read_bytes()
            assert written == asset_path(name).read_bytes()

    def test_single_example(self, tmp_path, capsys):
        assert cli.main(["examples", "guess_game", "-o", str(tmp_path)]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["guess_game.json"]

    def test_default_out_dir_is_cwd(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["examples", "insert_agg"]) == 0
        assert (tmp_path / "insert_agg.json").exists()

    def test_unknown_name_exits_2(self, tmp_path, capsys):
        assert cli.main(["examples", "nosuch", "-o", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "unknown example 'nosuch'" in err
        assert "guess_game" in err and "insert_agg" in err
        assert list(tmp_path.iterdir()) == []


class TestCheck:
    def test_ok(self, capsys):
        path = str(asset_path("guess_game"))
        assert cli.main(["check", path]) == 0
        assert capsys.readouterr().out == f"{path}: ok\n"

    def test_missing_file_exit_1(self, tmp_path, capsys):
        assert cli.main(["check", str(tmp_path / "nope.json")]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_invalid_json_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert cli.main(["check", str(path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_schema_violation_exit_1(self, tmp_path, capsys):
        doc = load_asset_doc("guess_game")
        del doc["template"]
        path = write_doc(tmp_path / "bad.json", doc)
        assert cli.main(["check", str(path)]) == 1
        assert "template" in capsys.readouterr().err

    def test_semantic_error_exit_2(self, tmp_path, capsys):
        # Widen the source of an assignment: u16 destination, u32 source.
        doc = load_asset_doc("insert_agg")
        doc["processors"][0]["body"][3]["source"] = {"var": "wide_a"}
        path = write_doc(tmp_path / "bad.json", doc)
        assert cli.main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert "processors[0].body[3]" in err
        assert "[WidthMismatch]" in err


class TestGenerate:
    @pytest.mark.parametrize("name", EXAMPLE_NAMES)
    def test_matches_golden(self, tmp_path, capsys, name):
        out_dir = tmp_path / "gen"
        rc = cli.main(["generate", str(asset_path(name)), "-o", str(out_dir)])
        assert rc == 0
        golden_dir = GOLDEN / name
        golden_names = sorted(p.name for p in golden_dir.iterdir())
        assert sorted(p.name for p in out_dir.iterdir()) == golden_names
        for fname in golden_names:
            assert (out_dir / fname).read_bytes() == (golden_dir / fname).read_bytes()
        out_lines = capsys.readouterr().out.splitlines()
        assert sorted(out_lines) == sorted(str(out_dir / n) for n in golden_names)

    def test_deterministic(self, tmp_path, capsys):
        prog = str(asset_path("guess_game"))
        for d in ("a", "b"):
            assert cli.main(["generate", prog, "-o", str(tmp_path / d)]) == 0
        for fa in (tmp_path / "a").iterdir():
            assert fa.read_bytes() == (tmp_path / "b" / fa.name).read_bytes()

    def test_unwritable_parent_exit_1(self, tmp_path, capsys):
        target = tmp_path / "missing" / "deep" / "out"
        rc = cli.main(["generate", str(asset_path("guess_game")), "-o", str(target)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")
        # No partial output: nothing below tmp_path was created.
        assert list(tmp_path.iterdir()) == []

    def test_semantic_error_exit_2(self, tmp_path, capsys):
        doc = load_asset_doc("guess_game")
        doc["selectors"][0]["processor"] = "ghost"
        path = write_doc(tmp_path / "bad.json", doc)
        rc = cli.main(["generate", str(path), "-o", str(tmp_path / "gen")])
        assert rc == 2
        assert "selectors[0]" in capsys.readouterr().err
        assert not (tmp_path / "gen").exists()


class TestSimulate:
    @pytest.mark.parametrize("name", EXAMPLE_NAMES)
    def test_stdout_matches_golden(self, capsys, name):
        rc = cli.main([
            "simulate", str(asset_path(name)),
            "-t", str(DATA / f"{name}_trace.json"),
        ])
        assert rc == 0
        golden = (GOLDEN / f"{name}_results.json").read_text()
        assert capsys.readouterr().out == golden

    def test_seed_override(self, capsys):
        rc = cli.main([
            "simulate", str(asset_path("guess_game")),
            "-t", str(DATA / "guess_game_trace.json"),
            "--seed", "7",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["seed"] == 7
        # Seed 7's first draw is 215, so the post-win secret differs.
        redraw = doc["results"][2]["trace"][7]
        assert redraw["kind"] == "rand"
        assert redraw["after"] == [215]

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "results.json"
        rc = cli.main([
            "simulate", str(asset_path("insert_agg")),
            "-t", str(DATA / "insert_agg_trace.json"),
            "-o", str(out),
        ])
        assert rc == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == (GOLDEN / "insert_agg_results.json").read_text()

    def test_missing_trace_exit_1(self, tmp_path, capsys):
        rc = cli.main([
            "simulate", str(asset_path("guess_game")),
            "-t", str(tmp_path / "nope.json"),
        ])
        assert rc == 1

    def test_trace_schema_violation_exit_1(self, tmp_path, capsys):
        trace = {
            "seed": 0,
            "packets": [{
                "payload": "00",
                "udp": {"dstPort": "5555"},
                "tcp": {"dstPort": "5555"},
            }],
        }
        path = write_doc(tmp_path / "trace.json", trace)
        rc = cli.main(["simulate", str(asset_path("guess_game")), "-t", str(path)])
        assert rc == 1

    def test_trace_bad_field_exit_1(self, tmp_path, capsys):
        trace = {"seed": 0, "packets": [{"payload": "00", "udp": {"dstport": "5555"}}]}
        path = write_doc(tmp_path / "trace.json", trace)
        rc = cli.main(["simulate", str(asset_path("guess_game")), "-t", str(path)])
        assert rc == 1
        assert "packets[0]" in capsys.readouterr().err

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out_file"])
    def test_bad_field_on_the_last_packet_writes_nothing(self, tmp_path, capsys, to_file):
        # The trace is checked whole before the first result is written.
        good = {"payload": "00", "udp": {"dstPort": "5555"}}
        packets = [good] * 50 + [{"payload": "00", "udp": {"dstPort": "70000"}}]
        path = write_doc(tmp_path / "trace.json", {"seed": 0, "packets": packets})
        out = tmp_path / "results" / "results.json"
        out.parent.mkdir()
        argv = ["simulate", str(asset_path("guess_game")), "-t", str(path)]
        rc = cli.main(argv + (["-o", str(out)] if to_file else []))
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "packets[50].udp.dstPort" in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["results", "trace.json"]
        assert list(out.parent.iterdir()) == []

    def test_packets_the_parser_does_not_reach_the_chain_with(self, tmp_path, capsys):
        packets = [
            {"payload": "0a", "udp": {"dstPort": "5555"}, "eth": {"etherType": "0x86DD"}},
            {"payload": "0a", "udp": {"dstPort": "5555"}, "ipv4": {"protocol": "6"}},
            {"payload": "0a", "udp": {"dstPort": "5555"}},
        ]
        path = write_doc(tmp_path / "trace.json", {"seed": 0, "packets": packets})
        rc = cli.main(["simulate", str(asset_path("guess_game")), "-t", str(path)])
        assert rc == 0
        results = json.loads(capsys.readouterr().out)["results"]
        verdicts = [r["verdict"] for r in results]
        assert verdicts == ["PASSTHROUGH", "PASSTHROUGH", "PROCESSED"]
        assert results[0]["eth"]["etherType"] == str(0x86DD)
        assert results[0]["trace"] == [] and "error" not in results[0]
        assert "ipv4.protocol 6" in results[1]["error"]


SEED_MAX = 2**64 - 1


class TestSeedRange:
    """A seed is the generator's 64-bit state: one outside 0..2**64-1 is
    refused, not run as the seed it aliases."""

    PACKETS = [{"payload": "0a", "udp": {"dstPort": "5555"}}]

    def simulate(self, tmp_path, trace_seed, *options):
        path = write_doc(tmp_path / "trace.json", {"seed": trace_seed, "packets": self.PACKETS})
        return cli.main(["simulate", str(asset_path("guess_game")), "-t", str(path), *options])

    @pytest.mark.parametrize("seed", [0, SEED_MAX])
    def test_trace_seed_at_a_bound_runs(self, tmp_path, capsys, seed):
        assert self.simulate(tmp_path, seed) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == seed

    @pytest.mark.parametrize("seed", [-1, SEED_MAX + 1])
    def test_trace_seed_past_a_bound_exits_1(self, tmp_path, capsys, seed):
        assert self.simulate(tmp_path, seed) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: seed: {seed} is ")

    @pytest.mark.parametrize("seed", [0, SEED_MAX])
    def test_seed_option_at_a_bound_runs(self, tmp_path, capsys, seed):
        assert self.simulate(tmp_path, 1, "--seed", str(seed)) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == seed

    @pytest.mark.parametrize("seed", [-1, SEED_MAX + 1])
    def test_seed_option_past_a_bound_exits_2(self, tmp_path, capsys, seed):
        with pytest.raises(SystemExit) as exc:
            self.simulate(tmp_path, 1, "--seed", str(seed))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"seed {seed} is outside 0..{SEED_MAX}" in captured.err

    def test_seed_option_must_be_an_integer(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            self.simulate(tmp_path, 1, "--seed", "7.5")
        assert exc.value.code == 2
        assert "invalid int value: '7.5'" in capsys.readouterr().err

    def test_one_bound_for_the_schema_the_option_and_the_generator(self):
        from p4flowgen.core_model import SEED_MAX as bound
        from p4flowgen.program_doc import load_schema
        from p4flowgen.simulator import SplitMix64

        assert bound == SEED_MAX == SplitMix64.MASK
        assert load_schema("trace")["properties"]["seed"]["maximum"] == bound


class TestParser:
    def test_no_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_generate_requires_out_dir(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["generate", "prog.json"])
        assert exc.value.code == 2


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "p4flowgen", "examples", "-o", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert (tmp_path / "guess_game.json").exists()
