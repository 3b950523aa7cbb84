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
from p4flowgen.core_model import SEED_MAX
from p4flowgen.program_doc import DocSemanticError, solution_from_doc, solution_to_doc

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

    def test_stray_command_key_exit_1(self, tmp_path, capsys):
        doc = load_asset_doc("guess_game")
        doc["processors"][0]["body"][0]["stray"] = 1
        path = write_doc(tmp_path / "bad.json", doc)
        assert cli.main(["check", str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: processors[0].body[0]: additional properties are not allowed: 'stray'\n"
        )

    def test_semantic_error_exit_2(self, tmp_path, capsys):
        # Widen the source of an assignment: u16 destination, u32 source.
        doc = load_asset_doc("insert_agg")
        doc["processors"][0]["body"][3]["source"] = {"var": "wide_a"}
        path = write_doc(tmp_path / "bad.json", doc)
        assert cli.main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert "processors[0].body[3]" in err
        assert "[WidthMismatch]" in err


def nested_doc(depth: int, kind: str) -> tuple[dict, str]:
    """A program whose innermost command sits in ``depth`` nested
    ``kind`` scopes ("if" or "switch"), each taken by a packet with
    payload 01; and the path of the deepest scope command."""
    inner = [{"op": "assign_const", "target": "x", "value": {"width": 8, "value": 9}}]
    for _ in range(depth):
        if kind == "if":
            inner = [{"op": "if", "cond": "ok", "then": inner}]
        else:
            case = {"value": {"width": 8, "value": 1}, "body": inner}
            inner = [{"op": "switch", "selector": {"var": "a"}, "cases": [case]}]
    step = ".then[0]" if kind == "if" else ".cases[0].body[0]"
    doc = {
        "version": 1,
        "template": "v1model_basic",
        "layouts": [
            {"name": "nest_in", "fields": [{"name": "a", "width": 8}]},
            {"name": "nest_out", "fields": [{"name": "x", "width": 8}]},
        ],
        "processors": [{
            "name": "nest",
            "input": "nest_in",
            "output": "nest_out",
            "locals": [{"name": "ok", "width": 8, "bool": True}],
            "body": [
                {"op": "assign_const", "target": "ok", "value": {"width": 8, "value": 1}},
                *inner,
            ],
        }],
        "selectors": [{
            "name": "nest_sel",
            "stack": "IPV4_UDP",
            "criteria": [{"field": "udp.dstPort", "width": 16, "value": 4000}],
            "processor": "nest",
        }],
    }
    return doc, "processors[0].body[1]" + step * (depth - 1)


def called_under(frames: int, fn, *args):
    """``fn(*args)``, called with ``frames`` more Python frames below it."""
    return called_under(frames - 1, fn, *args) if frames else fn(*args)


class TestNesting:
    def test_the_deepest_program_loads_under_a_deep_caller(self):
        # A valid program is read by the replay alone, which nests a few
        # frames per scope, not by the schema check's recursive walk.
        doc, _ = nested_doc(64, "switch")
        solution = called_under(500, solution_from_doc, doc)
        assert solution_to_doc(solution) == solution_to_doc(solution_from_doc(doc))

    @pytest.mark.parametrize("kind", ["if", "switch"])
    def test_the_deepest_program_check_accepts_also_runs(self, tmp_path, capsys, kind):
        doc, _ = nested_doc(64, kind)
        program = str(write_doc(tmp_path / "deep.json", doc))
        trace = {"seed": 0, "packets": [{"udp": {"dstPort": "4000"}, "payload": "01"}]}
        trace_path = str(write_doc(tmp_path / "trace.json", trace))
        out = tmp_path / "results.json"
        assert cli.main(["check", program]) == 0
        assert cli.main(["generate", program, "-o", str(tmp_path / "gen")]) == 0
        assert cli.main(["simulate", program, "-t", trace_path, "-o", str(out)]) == 0
        (result,) = json.loads(out.read_text())["results"]
        assert result["payload_hex"] == "09"
        assert result["trace"][-1]["kind"] == "assign_const"

    @pytest.mark.parametrize("kind", ["if", "switch"])
    def test_one_scope_deeper_is_refused_at_its_path(self, tmp_path, capsys, kind):
        doc, path = nested_doc(65, kind)
        assert cli.main(["check", str(write_doc(tmp_path / "deep.json", doc))]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: [NestingTooDeep] scopes may nest at most 64 deep\n"
        )

    @pytest.mark.parametrize("kind", ["if", "switch"])
    def test_one_scope_deeper_is_refused_under_a_deep_caller(self, kind):
        # A refusal runs the schema check first, whose walk must reach the
        # deepest scope for the replay's own error to be the one reported.
        doc, path = nested_doc(65, kind)
        with pytest.raises(DocSemanticError) as refused:
            called_under(500, solution_from_doc, doc)
        assert (refused.value.kind, refused.value.path) == ("NestingTooDeep", path)


class TestHostileDocuments:
    """Inputs that are not documents fail as a DocError at ``$``: exit 1
    and one line on stderr, no traceback."""

    def check(self, tmp_path, capsys, content: bytes) -> str:
        path = tmp_path / "hostile.json"
        path.write_bytes(content)
        assert cli.main(["check", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        return err

    def test_not_utf8(self, tmp_path, capsys):
        err = self.check(tmp_path, capsys, b"\xff\xfe{}")
        assert err.startswith("error: $: not UTF-8 text: ")

    def test_json_nested_past_the_parser(self, tmp_path, capsys):
        err = self.check(tmp_path, capsys, b"[" * 100000)
        assert err == "error: $: nested too deeply to read\n"

    def test_integer_past_the_int_digit_limit(self, tmp_path, capsys):
        err = self.check(tmp_path, capsys, b'{"version": ' + b"9" * 5000 + b"}")
        assert err.startswith("error: $: ")

    def test_trace_integer_past_the_int_digit_limit(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        path.write_bytes(b'{"seed": ' + b"9" * 5000 + b', "packets": []}')
        rc = cli.main(["simulate", str(asset_path("guess_game")), "-t", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: $: ") and err.count("\n") == 1

    def test_switches_nested_past_the_schema_check(self, tmp_path, capsys):
        doc, _ = nested_doc(200, "switch")
        err = self.check(tmp_path, capsys, json.dumps(doc).encode())
        assert err == "error: $: nested too deeply to check\n"


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

    def test_trace_field_of_thousands_of_digits_exit_1(self, tmp_path, capsys):
        trace = {"seed": 0, "packets": [{"payload": "00", "udp": {"dstPort": "9" * 5000}}]}
        path = write_doc(tmp_path / "trace.json", trace)
        rc = cli.main(["simulate", str(asset_path("guess_game")), "-t", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: packets[0].udp.dstPort: ") and err.count("\n") == 1
        assert err.endswith(" does not fit in 16 bits\n")

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
        from p4flowgen.program_doc import load_schema
        from p4flowgen.simulator import SplitMix64

        assert SEED_MAX == 2**64 - 1 == SplitMix64.MASK
        assert load_schema("trace")["properties"]["seed"]["maximum"] == SEED_MAX


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
