"""Which modules the package and each CLI subcommand load.

Each subcommand imports the layers it runs when it starts (cli.py), and
the package resolves its public names on first use, so ``check`` loads
neither the simulator nor the code generator. The subprocess tests see
what a run loads; the static test names the module-level import that
would undo it.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import p4flowgen

PACKAGE = Path(p4flowgen.__file__).parent
GUESS = PACKAGE / "assets" / "guess_game.json"
TRACE = Path(__file__).parent / "data" / "guess_game_trace.json"

# The layers a subcommand may leave unloaded.
OPTIONAL = {"codegen", "simulator", "builtin_examples"}


def loaded_by(tmp_path, code: str) -> set[str]:
    """The p4flowgen modules a fresh interpreter holds after ``code``."""
    listing = tmp_path / "modules.json"
    script = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(PACKAGE.parent)!r})\n"
        f"{code}\n"
        "names = [m.split('.', 1)[1] for m in sys.modules if m.startswith('p4flowgen.')]\n"
        f"open({str(listing)!r}, 'w').write(json.dumps(names))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(listing.read_text()))


@pytest.mark.parametrize("command, runs", [
    ("check", set()),
    ("generate", {"codegen"}),
    ("simulate", {"simulator"}),
    ("examples", {"builtin_examples"}),
])
def test_each_subcommand_loads_only_the_layers_it_runs(tmp_path, command, runs):
    argv = {
        "check": [str(GUESS)],
        "generate": [str(GUESS), "-o", str(tmp_path / "gen")],
        "simulate": [str(GUESS), "-t", str(TRACE), "-o", str(tmp_path / "sim.json")],
        "examples": ["-o", str(tmp_path / "examples")],
    }[command]
    code = (
        "from p4flowgen import cli\n"
        f"assert cli.main({[command, *argv]!r}) == 0\n"
    )
    assert loaded_by(tmp_path, code) & OPTIONAL == runs


def test_importing_the_package_loads_no_submodule(tmp_path):
    assert loaded_by(tmp_path, "import p4flowgen") == set()


class TestLazyPackage:
    def test_every_public_name_resolves_to_its_module_object(self):
        for name in p4flowgen.__all__:
            value = getattr(p4flowgen, name)
            if name != "__version__":
                module = sys.modules[f"p4flowgen.{p4flowgen._MODULE_OF[name]}"]
                assert value is getattr(module, name)

    def test_dir_lists_every_public_name(self):
        assert set(p4flowgen.__all__) <= set(dir(p4flowgen))

    def test_dir_lists_every_submodule(self):
        modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__", "__main__"}
        assert modules <= set(dir(p4flowgen))

    def test_a_submodule_is_an_attribute_after_a_plain_import(self, tmp_path):
        code = (
            "import p4flowgen\n"
            "assert p4flowgen.simulator.run_trace is p4flowgen.run_trace\n"
            "assert p4flowgen.codegen.generate is p4flowgen.generate\n"
            "assert p4flowgen.staging.write_staged\n"
        )
        assert loaded_by(tmp_path, code) >= {"simulator", "codegen", "staging"}

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            p4flowgen.no_such_name
        with pytest.raises(ImportError):
            from p4flowgen import no_such_name  # noqa: F401


# Module -> the package modules it may not import when it loads.
FORBIDDEN = {
    "core_model": {"codegen", "simulator"},
    "flow_ast": {"codegen", "simulator"},
    "selector": {"codegen", "simulator"},
    "packet": {"codegen", "simulator"},
    "staging": {"codegen", "simulator"},
    "program_doc": {"codegen", "simulator"},
    "cli": {"codegen", "simulator", "builtin_examples"},
}


def load_time_imports(body):
    """The import statements among ``body`` that run when the module
    loads: into if/try/with blocks and class bodies, but not into
    functions or ``if TYPE_CHECKING:``."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If):
            if not (isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"):
                yield from load_time_imports(node.body)
            yield from load_time_imports(node.orelse)
        elif isinstance(node, ast.Try):
            for block in (node.body, *(h.body for h in node.handlers), node.orelse,
                          node.finalbody):
                yield from load_time_imports(block)
        elif isinstance(node, (ast.With, ast.ClassDef)):
            yield from load_time_imports(node.body)


@pytest.mark.parametrize("module", sorted(FORBIDDEN))
def test_lower_layers_do_not_import_the_upper_ones_at_load(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    for node in load_time_imports(tree.body):
        if isinstance(node, ast.Import):
            parts = {part for alias in node.names for part in alias.name.split(".")}
        else:
            parts = {*(node.module or "").split("."), *(alias.name for alias in node.names)}
        clash = parts & FORBIDDEN[module]
        assert not clash, f"{module}.py:{node.lineno} imports {', '.join(sorted(clash))} at load"
