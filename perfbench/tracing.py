"""Spans around the public functions of each p4flowgen layer.

The wrappers live here, not in the package: ``Tracer.install`` replaces
each listed function in every ``p4flowgen`` module that refers to it, so
calls between modules (``cli`` into ``program_doc``, ``run_trace`` into
``simulate_packet`` into ``classify``) are caught too. Spans stay in
memory until the caller reads them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# (module, function); a span is named "<module>.<function>" and its layer
# is the module.
TRACED = (
    ("cli", "main"),
    ("program_doc", "load_json"),
    ("program_doc", "validate_program_doc"),
    ("program_doc", "solution_from_doc"),
    ("program_doc", "validate_trace_doc"),
    ("program_doc", "trace_from_doc"),
    ("program_doc", "results_to_doc"),
    ("program_doc", "dumps_doc"),
    ("simulator", "run_trace"),
    ("simulator", "simulate_packet"),
    ("simulator", "classify"),
    ("codegen", "generate"),
)


class Tracer:
    """Records spans as [name, start_ns, end_ns, parent index, run id]."""

    def __init__(self, run_id=0) -> None:
        self.spans: list[list] = []
        self.run_id = run_id
        self._open: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, open_, clock = self.spans, self._open, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, open_[-1] if open_ else -1, self.run_id]
            open_.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                open_.pop()
                span[2] = clock()

        return traced

    def install(self) -> None:
        for module_name, _ in TRACED:
            importlib.import_module(f"p4flowgen.{module_name}")
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "p4flowgen"]
        for module_name, fn_name in TRACED:
            original = getattr(sys.modules[f"p4flowgen.{module_name}"], fn_name)
            wrapper = self._wrap(f"{module_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()


def summarize(spans) -> dict:
    """Per span name: call count and total ms; per layer: self ms, which is
    span time not covered by the span's children."""
    calls: dict[str, int] = defaultdict(int)
    total_ns: dict[str, int] = defaultdict(int)
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        calls[name] += 1
        total_ns[name] += end - start
        if parent >= 0:
            child_ns[parent] += end - start
    self_ns: dict[str, int] = defaultdict(int)
    for i, (name, start, end, _, _) in enumerate(spans):
        self_ns[name.split(".")[0]] += end - start - child_ns[i]
    return {
        "calls": dict(calls),
        "total_ms": {k: v / 1e6 for k, v in total_ns.items()},
        "self_ms": {k: v / 1e6 for k, v in self_ns.items()},
    }
