"""P4-16 fragment emission.

A Solution (selectors in registration order and their per-stack chains)
turns into five fragment files that the shipped V1Model template pulls in
through ``#include`` hooks:

* headers.p4inc  - header type definitions for user layouts
* parser.p4inc   - chain-enabling ``#define`` lines and parser chain states
* structs.p4inc  - header instances inside the template's headers struct
* decls.p4inc    - control-scope variables, registers, tables and actions
* apply.p4inc    - the per-flow branches executed in the ingress apply block

plus ``program.p4``, the template with every fragment spliced in.

Output is deterministic: identical Solutions yield byte-identical files.
User constants are emitted verbatim, never folded. Every builder call is
echoed as a ``// [ordinal] Kind`` comment so generated lines trace back to
the source program.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Sequence

from .core_model import HEADER_BYTES, HeaderLayout, UValue
from .flow_ast import (
    Add,
    AssignConst,
    AssignVar,
    AtomicNode,
    Block,
    Cast,
    Equals,
    FlowProcessor,
    Forward,
    Greater,
    Hint,
    IfNode,
    Rand,
    RingPush,
    RingReadHead,
    Scope,
    SendBack,
    Sub,
    SwitchNode,
    VarRef,
    walk,
)
from .selector import (
    STACK_HEADERS,
    Criterion,
    FlowSelector,
    ParserChain,
    ProtocolStack,
    Solution,
)

FRAGMENT_NAMES = (
    "headers.p4inc",
    "parser.p4inc",
    "structs.p4inc",
    "decls.p4inc",
    "apply.p4inc",
)

COMBINED_NAME = "program.p4"


# The one shipped template, named by a program document's "template" tag.
TEMPLATE = "v1model_basic"

# One nesting level in every emitted fragment.
INDENT = "    "


@dataclass(frozen=True, eq=False)
class GeneratedFileSet:
    """The emitted fragments plus the combined program, and the template
    they splice into."""

    files: dict[str, str]
    template_name: str
    template_text: str

    def write_to(self, directory) -> list[Path]:
        """Write every file plus the template copy, all or nothing;
        returns the written paths."""
        return write_staged(directory, {**self.files, self.template_name: self.template_text})


def write_staged(target_dir, files: dict[str, str | Iterable[str]]) -> list[Path]:
    """Write a file set without ever leaving partial output behind:
    everything is staged in a temp directory next to ``target_dir``
    first, then moved in. The parent of ``target_dir`` must exist.

    A file's text is a str or an iterable of str chunks, written as they
    come; if producing one raises, nothing is moved in."""
    target_dir = Path(target_dir)
    try:
        staging = Path(tempfile.mkdtemp(dir=target_dir.parent, prefix=".stage-"))
    except OSError as e:
        raise OSError(f"cannot write under {target_dir.parent}: {e}") from None
    try:
        for name, text in files.items():
            with open(staging / name, "w") as f:
                f.writelines([text] if isinstance(text, str) else text)
        target_dir.mkdir(parents=True, exist_ok=True)
        written = []
        for name in files:
            final = target_dir / name
            (staging / name).replace(final)
            written.append(final)
        return written
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def load_template(name: str) -> str:
    """The text of a shipped template; KeyError for an unknown name."""
    if name != TEMPLATE:
        raise KeyError(f"unknown template {name!r}")
    return (Path(__file__).parent / "templates" / f"{name}.p4").read_text()


# -- low-level emission helpers ---------------------------------------------


class _Writer:
    def __init__(self) -> None:
        self.lines: list[str] = []

    def line(self, depth: int, text: str = "") -> None:
        self.lines.append(INDENT * depth + text if text else "")

    def nested(self, depth: int, items: list) -> None:
        """Lines at ``depth``; a nested list goes one level deeper."""
        for item in items:
            if isinstance(item, list):
                self.nested(depth + 1, item)
            else:
                self.line(depth, item)

    def text(self) -> str:
        if not self.lines:
            return ""
        return "\n".join(self.lines) + "\n"


def _const(v: UValue) -> str:
    return f"{v.width.bits}w{v.magnitude}"


def _lvalue(proc: FlowProcessor, ref: VarRef) -> str:
    if ref.scope is Scope.INPUT:
        return f"hdr.{proc.name}__in.{ref.name}"
    if ref.scope is Scope.OUTPUT:
        return f"hdr.{proc.name}__out.{ref.name}"
    # Locals and shared-register shadows live at control scope under the
    # processor prefix; cross-scope name uniqueness keeps them distinct.
    return f"{proc.name}__{ref.name}"


def _operand(proc: FlowProcessor, op) -> str:
    if isinstance(op, UValue):
        return _const(op)
    return _lvalue(proc, op)


def _eq_base(proc: FlowProcessor, ordinal: int) -> str:
    return f"{proc.name}__eq__{ordinal}"


# -- command emission --------------------------------------------------------


def _emit_block(w: _Writer, proc: FlowProcessor, block: Block, depth: int) -> None:
    for cmd in block.commands:
        _emit_command(w, proc, cmd, depth)


def _emit_command(w: _Writer, proc: FlowProcessor, cmd, depth: int) -> None:
    emit = _EMIT.get(type(cmd))
    if emit is not None:
        # Each field in its P4 form: the target and the operands as
        # lvalues or constants, plain values as they are.
        p4 = SimpleNamespace(**{
            name: _operand(proc, v) if isinstance(v, (VarRef, UValue)) else v
            for name, v in vars(cmd).items()
        })
        w.line(depth, f"// [{cmd.ordinal}] {type(cmd).__name__}")
        w.nested(depth, emit(proc, cmd, p4))
        if hasattr(cmd, "target") and cmd.target.scope is Scope.SHARED:
            w.line(depth, f"reg__{proc.name}__{cmd.target.name}.write(0, {p4.target});")
    elif isinstance(cmd, IfNode):
        w.line(depth, f"// [{cmd.ordinal}] If")
        w.line(depth, f"if ({_lvalue(proc, cmd.cond)} == 8w1) {{")
        _emit_block(w, proc, cmd.then_block, depth + 1)
        w.line(depth, "}")
        if cmd.else_block is not None:
            w.line(depth, f"// [{cmd.else_ordinal}] Else")
            w.line(depth, "else {")
            _emit_block(w, proc, cmd.else_block, depth + 1)
            w.line(depth, "}")
    elif isinstance(cmd, SwitchNode):
        w.line(depth, f"// [{cmd.ordinal}] Switch")
        selector = _operand(proc, cmd.selector)
        for i, (value, ordinal, case_block) in enumerate(cmd.cases):
            keyword = "if" if i == 0 else "else if"
            w.line(depth, f"{keyword} ({selector} == {_const(value)}) {{")
            w.line(depth + 1, f"// [{ordinal}] Case")
            _emit_block(w, proc, case_block, depth + 1)
            w.line(depth, "}")
    elif isinstance(cmd, AtomicNode):
        w.line(depth, f"// [{cmd.ordinal}] Atomic")
        w.line(depth, "ATOMIC_BEGIN")
        _emit_block(w, proc, cmd.block, depth)
        w.line(depth, f"// [{cmd.end_ordinal}] EndAtomic")
        w.line(depth, "ATOMIC_END")
    else:
        raise TypeError(f"cannot emit {cmd!r}")


def _set_flag(p4, sign: str) -> list:
    """A comparison into a boolean target through if/else."""
    return [
        f"if ({p4.lhs} {sign} {p4.rhs}) {{",
        [f"{p4.target} = 8w1;"],
        "}",
        "else {",
        [f"{p4.target} = 8w0;"],
        "}",
    ]


def _table_lookup(proc: FlowProcessor, cmd: Equals, p4) -> list:
    """Equals through the exact-match table that _emit_decls declares."""
    base = _eq_base(proc, cmd.ordinal)
    return [f"{base} = {p4.lhs} ^ {p4.rhs};", f"{base}__t.apply();"]


def _emit_rand(proc: FlowProcessor, cmd: Rand, p4) -> list:
    width = cmd.target.width
    return [f"random({p4.target}, {width.bits}w0, {width.bits}w{width.mask});"]


def _emit_ring_push(proc: FlowProcessor, cmd: RingPush, p4) -> list:
    head, reg = f"{proc.name}__{cmd.ring}__head", f"ring__{proc.name}__{cmd.ring}"
    return [
        f"{reg}__head.read({head}, 0);",
        f"{reg}.write({head}, {p4.source});",
        f"{head} = {head} + 32w1;",
        f"if ({head} == 32w{proc.ring(cmd.ring).capacity}) {{",
        [f"{head} = 32w0;"],
        "}",
        f"{reg}__head.write(0, {head});",
    ]


def _emit_ring_read_head(proc: FlowProcessor, cmd: RingReadHead, p4) -> list:
    head, reg = f"{proc.name}__{cmd.ring}__head", f"ring__{proc.name}__{cmd.ring}"
    return [f"{reg}__head.read({head}, 0);", f"{reg}.read({p4.target}, {head});"]


# One entry per plain op: its P4 statements, a nested list one level
# deeper. _emit_command adds the ``// [n] Kind`` comment in front and,
# for a shared target, the register writeback behind.
_EMIT = {
    AssignConst: lambda proc, cmd, p4: [f"{p4.target} = {p4.value};"],
    AssignVar: lambda proc, cmd, p4: [f"{p4.target} = {p4.source};"],
    Cast: lambda proc, cmd, p4: [
        f"{p4.target} = (bit<{cmd.target.width.bits}>){p4.source};"
    ],
    Add: lambda proc, cmd, p4: [f"{p4.target} = {p4.lhs} + {p4.rhs};"],
    Sub: lambda proc, cmd, p4: [f"{p4.target} = {p4.lhs} - {p4.rhs};"],
    Equals: lambda proc, cmd, p4: (
        _table_lookup(proc, cmd, p4) if cmd.hint is Hint.TABLE else _set_flag(p4, "==")
    ),
    Greater: lambda proc, cmd, p4: _set_flag(p4, ">"),
    Rand: _emit_rand,
    RingPush: _emit_ring_push,
    RingReadHead: _emit_ring_read_head,
    SendBack: lambda proc, cmd, p4: ["smeta.egress_spec = smeta.ingress_port;"],
    Forward: lambda proc, cmd, p4: [f"smeta.egress_spec = (bit<9>)16w{p4.port};"],
}


# -- fragment builders --------------------------------------------------------


def _unique_layouts(selectors: Sequence[FlowSelector]) -> list[HeaderLayout]:
    """Every layout once, in first-use order; Solution guarantees that a
    name means one structure."""
    layouts: dict[str, HeaderLayout] = {}
    for sel in selectors:
        for layout in (sel.lookahead, sel.processor.input, sel.processor.output):
            if layout is not None:
                layouts.setdefault(layout.name, layout)
    return list(layouts.values())


def _emit_headers(layouts: Sequence[HeaderLayout]) -> str:
    w = _Writer()
    for i, layout in enumerate(layouts):
        if i:
            w.line(0)
        w.line(0, f"header {layout.name}_t {{")
        for f in layout.fields:
            w.line(1, f"bit<{f.width.bits}> {f.name};")
        w.line(0, "}")
    return w.text()


def _emit_structs(procs: Sequence[FlowProcessor]) -> str:
    w = _Writer()
    for p in procs:
        w.line(1, f"{p.input.name}_t {p.name}__in;")
        if p.output is not None:
            w.line(1, f"{p.output.name}_t {p.name}__out;")
    return w.text()


def _criterion_key(c: Criterion) -> str:
    if "." in c.field:
        return f"hdr.{c.field}"
    return f"la.{c.field}"


def emit_parser_chain(chain: ParserChain, flow_ids: Sequence[int]) -> str:
    """Chain states for one stack: state k checks selector k's criteria,
    extracts the input layout and records flow id ``flow_ids[k]`` on a
    hit, and falls through to state k+1 (or accept) on a miss."""
    if not chain.links:
        raise ValueError("cannot emit an empty parser chain")
    name = chain.stack.value.lower()
    w = _Writer()
    for k, (sel, flow_id) in enumerate(zip(chain.links, flow_ids)):
        is_last = k == len(chain.links) - 1
        miss = "accept" if is_last else f"chain_{name}_{k + 1}"
        w.line(1, f"state chain_{name}_{k} {{")
        if sel.lookahead is not None:
            w.line(
                2,
                f"{sel.lookahead.name}_t la = "
                f"pkt.lookahead<{sel.lookahead.name}_t>();",
            )
        keys = ", ".join(_criterion_key(c) for c in sel.criteria)
        w.line(2, f"transition select({keys}) {{")
        values = ", ".join(_const(c.value) for c in sel.criteria)
        if len(sel.criteria) > 1:
            values = f"({values})"
        w.line(3, f"{values}: chain_{name}_{k}_hit;")
        w.line(3, f"default: {miss};")
        w.line(2, "}")
        w.line(1, "}")
        w.line(1, f"state chain_{name}_{k}_hit {{")
        w.line(2, f"pkt.extract(hdr.{sel.processor.name}__in);")
        w.line(2, f"meta.app_flow = 16w{flow_id};")
        w.line(2, "transition accept;")
        w.line(1, "}")
    return w.text()


def _emit_parser(chains: dict[ProtocolStack, ParserChain], flow_ids: dict[str, int]) -> str:
    parts: list[str] = []
    defines = [
        f"#define PARROT_CHAIN_{stack.value}"
        for stack in ProtocolStack
        if stack in chains
    ]
    if defines:
        parts.append("\n".join(defines) + "\n")
    for stack in ProtocolStack:
        if stack in chains:
            chain = chains[stack]
            ids = [flow_ids[sel.name] for sel in chain.links]
            parts.append(emit_parser_chain(chain, ids))
    return "".join(parts)


def _emit_decls(procs: Sequence[FlowProcessor]) -> str:
    w = _Writer()
    first = True
    for p in procs:
        if not first:
            w.line(0)
        first = False
        w.line(1, f"// processor {p.name}")
        for d in p.locals:
            w.line(1, f"bit<{d.width.bits}> {p.name}__{d.name};")
        for d in p.shared:
            w.line(1, f"bit<{d.width.bits}> {p.name}__{d.name};")
            w.line(1, f"register<bit<{d.width.bits}>>(1) reg__{p.name}__{d.name};")
        if any(d.initial.magnitude != 0 for d in p.shared):
            w.line(1, f"bit<1> {p.name}__boot__v;")
            w.line(1, f"register<bit<1>>(1) reg__{p.name}__boot__v;")
        for r in p.rings:
            w.line(1, f"bit<32> {p.name}__{r.name}__head;")
            w.line(1, f"register<bit<32>>(1) ring__{p.name}__{r.name}__head;")
            w.line(
                1,
                f"register<bit<{r.element_width.bits}>>({r.capacity}) "
                f"ring__{p.name}__{r.name};",
            )
        table_hints = [
            c for c in walk(p.body) if isinstance(c, Equals) and c.hint is Hint.TABLE
        ]
        for eq in table_hints:
            base = _eq_base(p, eq.ordinal)
            width = eq.lhs.width
            target = _lvalue(p, eq.target)
            w.line(1, f"bit<{width.bits}> {base};")
            w.line(1, f"action {base}__hit() {{ {target} = 8w1; }}")
            w.line(1, f"action {base}__miss() {{ {target} = 8w0; }}")
            w.line(1, f"table {base}__t {{")
            w.line(2, f"key = {{ {base} : exact; }}")
            w.line(2, f"actions = {{ {base}__hit; {base}__miss; }}")
            w.line(2, "const entries = {")
            w.line(3, f"{width.bits}w0 : {base}__hit();")
            w.line(2, "}")
            w.line(2, f"const default_action = {base}__miss();")
            w.line(1, "}")
    return w.text()


def emit_processor_control(p: FlowProcessor, stack: ProtocolStack) -> str:
    """The statements executed when a packet hits this processor: zeroed
    locals, register boot and reads, output activation, the command body,
    then header-validity flips and byte-delta bookkeeping, sized for the
    headers of ``stack``."""
    p.validate_complete()
    depth = 3  # inside the flow branch that _emit_apply opens at depth 2
    w = _Writer()
    for d in p.locals:
        w.line(depth, f"{p.name}__{d.name} = {d.width.bits}w0;")
    if any(d.initial.magnitude != 0 for d in p.shared):
        boot = f"{p.name}__boot__v"
        w.line(depth, f"reg__{p.name}__boot__v.read({boot}, 0);")
        w.line(depth, f"if ({boot} == 1w0) {{")
        for d in p.shared:
            w.line(
                depth + 1,
                f"reg__{p.name}__{d.name}.write(0, {_const(d.initial)});",
            )
        w.line(depth + 1, f"reg__{p.name}__boot__v.write(0, 1w1);")
        w.line(depth, "}")
    for d in p.shared:
        w.line(depth, f"reg__{p.name}__{d.name}.read({p.name}__{d.name}, 0);")
    if p.output is not None:
        w.line(depth, f"hdr.{p.name}__out.setValid();")
        for f in p.output.fields:
            w.line(depth, f"hdr.{p.name}__out.{f.name} = {f.width.bits}w0;")
    _emit_block(w, p, p.body, depth)
    if p.output is not None:
        # Bytes of the standard headers in front of the application payload.
        fixed = sum(HEADER_BYTES[h] for h in STACK_HEADERS[stack])
        out_size = p.output.byte_size
        w.line(depth, f"hdr.{p.name}__in.setInvalid();")
        w.line(depth, f"meta.app_added_bytes = 16w{out_size};")
        if p.truncate_payload:
            # Truncation drops the whole residual payload, so the removed
            # count is everything behind the fixed headers, not just the
            # input layout.
            w.line(
                depth,
                "meta.app_removed_bytes = hdr.ipv4.totalLen - "
                f"16w{fixed - HEADER_BYTES['eth']};",
            )
            w.line(depth, f"truncate(32w{fixed + out_size});")
        else:
            w.line(depth, f"meta.app_removed_bytes = 16w{p.input.byte_size};")
    return w.text()


def _emit_apply(selectors: Sequence[FlowSelector], flow_ids: dict[str, int]) -> str:
    w = _Writer()
    first = True
    for sel in selectors:
        if not first:
            w.line(0)
        first = False
        w.line(2, f"// flow {sel.name}")
        w.line(2, f"if (meta.app_flow == 16w{flow_ids[sel.name]}) {{")
        body = emit_processor_control(sel.processor, sel.stack)
        w.lines.extend(body.splitlines())
        w.line(2, "}")
    return w.text()


def _combine(template_text: str, files: dict[str, str]) -> str:
    lines = []
    for line in template_text.splitlines():
        stripped = line.strip()
        if stripped.startswith('#include "') and stripped.endswith('"'):
            name = stripped[len('#include "') : -1]
            if name in files:
                fragment = files[name]
                if fragment:
                    lines.extend(fragment.splitlines())
                continue
        lines.append(line)
    return "\n".join(lines) + "\n"


def generate(solution: Solution) -> GeneratedFileSet:
    """Emit all fragments plus the combined program for a Solution;
    ``write_to`` puts them on disk."""
    selectors = solution.selectors
    procs = solution.processors()
    flow_ids = {sel.name: i + 1 for i, sel in enumerate(selectors)}
    files = {
        "headers.p4inc": _emit_headers(_unique_layouts(selectors)),
        "parser.p4inc": _emit_parser(solution.chains, flow_ids),
        "structs.p4inc": _emit_structs(procs),
        "decls.p4inc": _emit_decls(procs),
        "apply.p4inc": _emit_apply(selectors, flow_ids),
    }
    template_text = load_template(TEMPLATE)
    files[COMBINED_NAME] = _combine(template_text, files)
    return GeneratedFileSet(
        files=files,
        template_name=f"{TEMPLATE}.p4",
        template_text=template_text,
    )
