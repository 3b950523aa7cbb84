"""p4flowgen: build, simulate and compile application-layer packet flows.

The pieces compose in one direction: declare layouts and variables
(core_model), grow a processor body through the checked builder
(flow_ast), bind processors to packets (selector), then either run the
result bit-exactly (simulator) or emit P4 sources (codegen). The
program_doc module round-trips all of it through JSON (trace_doc the
packets and results of a simulation), and cli fronts the whole pipeline.

The public names below load their module on first use (PEP 562), so
that ``import p4flowgen`` loads nothing else and each CLI subcommand
loads only the layers it runs. A submodule is an attribute the same
way: ``p4flowgen.simulator.run_trace`` works after ``import p4flowgen``.
"""

import importlib

__version__ = "0.1.0"

# Each public name's module, grouped by module.
_EXPORTS = {
    "codegen": ("COMBINED_NAME", "FRAGMENT_NAMES", "GeneratedFileSet", "generate"),
    "core_model": (
        "U8", "U16", "U32", "U64", "FieldDecl", "HeaderLayout", "RingBufferDecl",
        "SharedVariableDecl", "UValue", "UWidth", "internet_checksum",
        "u8", "u16", "u32", "u64", "wrap_add", "wrap_sub",
    ),
    "errors": ("FlowgenError", "DocError"),
    "flow_ast": (
        "Add", "AssignConst", "AssignVar", "Cast", "Equals", "ErrorKind",
        "FlowProcessor", "Forward", "Greater", "Hint", "Rand", "RingPush",
        "RingReadHead", "SemanticError", "SendBack", "Sub", "bool_local",
        "local", "new_flow_processor",
    ),
    "program_doc": (
        "DocSemanticError", "load_program", "solution_from_doc", "solution_to_doc",
    ),
    "selector": ("Criterion", "FlowSelector", "ProtocolStack", "Solution", "new_flow_selector"),
    "packet": ("SimPacket", "make_tcp_packet", "make_udp_packet"),
    "simulator": (
        "PASSTHROUGH", "PROCESSED", "SimResult", "classify", "initial_state",
        "iter_trace", "run_trace", "simulate_packet",
    ),
    "trace_doc": ("load_trace",),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

_SUBMODULES = frozenset({*_EXPORTS, "builtin_examples", "cli", "schema_compiler", "staging"})

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is not None:
        value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
