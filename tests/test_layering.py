"""Which modules the package and each CLI subcommand load.

Each subcommand imports the layers it runs when it starts (cli.py), and
the package resolves its public names on first use, so ``check`` loads
neither the simulator, the packet module, the trace reader and results
writer (trace_doc) nor the code generator. The subprocess tests see what
a run loads; the static test names the module-level import that would
undo it.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import p4flowgen
from p4flowgen import program_doc, trace_doc

PACKAGE = Path(p4flowgen.__file__).parent
GUESS = PACKAGE / "assets" / "guess_game.json"
TRACE = Path(__file__).parent / "data" / "guess_game_trace.json"

# The layers a subcommand may leave unloaded.
OPTIONAL = {"codegen", "simulator", "builtin_examples", "packet", "trace_doc"}


def value_after(tmp_path, code: str, value: str):
    """The JSON value of the expression ``value`` in a fresh interpreter
    after ``code``."""
    listing = tmp_path / "value.json"
    script = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(PACKAGE.parent)!r})\n"
        f"{code}\n"
        f"open({str(listing)!r}, 'w').write(json.dumps({value}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(listing.read_text())


def modules_after(tmp_path, code: str) -> set[str]:
    """The names of the modules a fresh interpreter holds after ``code``."""
    return set(value_after(tmp_path, code, "list(sys.modules)"))


def loaded_by(tmp_path, code: str) -> set[str]:
    """The p4flowgen modules a fresh interpreter holds after ``code``."""
    return {
        name.split(".", 1)[1] for name in modules_after(tmp_path, code)
        if name.startswith("p4flowgen.")
    }


def cli_run(tmp_path, command: str) -> str:
    """Code that runs the CLI ``command`` on guess_game."""
    argv = {
        "check": [str(GUESS)],
        "generate": [str(GUESS), "-o", str(tmp_path / "gen")],
        "simulate": [str(GUESS), "-t", str(TRACE), "-o", str(tmp_path / "sim.json")],
        "examples": ["-o", str(tmp_path / "examples")],
    }[command]
    return (
        "from p4flowgen import cli\n"
        f"assert cli.main({[command, *argv]!r}) == 0\n"
    )


@pytest.mark.parametrize("command, runs", [
    ("check", set()),
    ("generate", {"codegen"}),
    ("simulate", {"simulator", "packet", "trace_doc"}),
    ("examples", {"builtin_examples"}),
])
def test_each_subcommand_loads_only_the_layers_it_runs(tmp_path, command, runs):
    assert loaded_by(tmp_path, cli_run(tmp_path, command)) & OPTIONAL == runs


# Standard modules that cost start-up time and that the package does not
# need: ``dataclasses`` imports ``inspect``, which imports ``ast``, ``dis``
# and ``tokenize``. The record classes are built by ``core_model.record``.
SLOW_STDLIB = {"dataclasses", "inspect"}


@pytest.mark.parametrize("command", ["check", "generate", "simulate"])
def test_subcommands_load_no_dataclasses_or_inspect(tmp_path, command):
    assert modules_after(tmp_path, cli_run(tmp_path, command)) & SLOW_STDLIB == set()


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

    def test_dir_lists_every_submodule(self, tmp_path):
        # In a fresh interpreter, so that no submodule another test loaded is listed.
        modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__", "__main__"}
        assert modules <= set(value_after(tmp_path, "import p4flowgen", "dir(p4flowgen)"))

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



# perfbench reads these names from program_doc and cannot change with the
# package, so the ones trace_doc holds must still resolve there.
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def names_perfbench_reads_from_program_doc() -> set[str]:
    """The names perfbench's files import from ``p4flowgen.program_doc``,
    and the ``program_doc`` functions its tracer (``tracing.TRACED``) wraps."""
    names = set()
    for path in PERFBENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "p4flowgen.program_doc":
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
            ):
                names.update(fn for module, fn in ast.literal_eval(node.value)
                             if module == "program_doc")
    return names


class TestTraceDocForwarding:
    def test_each_name_perfbench_reads_is_the_defining_modules_object(self):
        names = names_perfbench_reads_from_program_doc()
        assert {"load_trace", "trace_from_doc", "result_to_doc", "results_to_doc",
                "validate_trace_doc", "dumps_doc", "load_json"} <= names
        for name in names:
            value = getattr(program_doc, name)
            if name in vars(trace_doc):
                assert value is getattr(trace_doc, name), name

    def test_every_public_function_of_trace_doc_is_forwarded(self):
        public = {
            name for name, value in vars(trace_doc).items()
            if not name.startswith("_") and getattr(value, "__module__", None) == trace_doc.__name__
        }
        assert set(program_doc._TRACE_DOC_NAMES) == public
        for name in public:
            assert getattr(program_doc, name) is getattr(trace_doc, name)

    def test_the_package_load_trace_is_trace_docs(self):
        assert p4flowgen.load_trace is trace_doc.load_trace

    @pytest.mark.parametrize("name", ["_EVENTS_HELD", "_packet_reader", "_NOT_A_TRACE",
                                      "no_such_name"])
    def test_private_names_are_not_forwarded(self, name):
        with pytest.raises(AttributeError, match=name):
            getattr(program_doc, name)


# Module -> the package modules it may not import when it loads.
FORBIDDEN = {
    "core_model": {"codegen", "simulator"},
    "flow_ast": {"codegen", "simulator"},
    "selector": {"codegen", "simulator"},
    "packet": {"codegen", "simulator"},
    "staging": {"codegen", "simulator"},
    "program_doc": {"codegen", "simulator", "packet", "trace_doc"},
    "trace_doc": {"codegen", "simulator", "packet"},
    "cli": {"codegen", "simulator", "builtin_examples", "packet", "trace_doc"},
    "__init__": {"codegen", "simulator", "builtin_examples", "packet", "trace_doc"},
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


# flow_ast settles each command fact once: the role of every field (the
# op table's ``roles``) and the one walk of the tree (``render``). The
# modules that read commands ask it, and do not work either out again.
COMMAND_READERS = ["codegen", "program_doc", "simulator"]
TREE_INTERNALS = {
    "walk", "IfNode", "SwitchNode", "AtomicNode", "OPERAND_FIELDS", "operand_fields",
}


@pytest.mark.parametrize("module", COMMAND_READERS)
def test_command_readers_call_no_hasattr(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            assert node.func.id != "hasattr", f"{module}.py:{node.lineno} calls hasattr"


@pytest.mark.parametrize("module", COMMAND_READERS)
def test_command_readers_import_no_tree_internals(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = {part for alias in node.names for part in alias.name.split(".")}
            clash = names & TREE_INTERNALS
            assert not clash, f"{module}.py:{node.lineno} imports {', '.join(sorted(clash))}"
