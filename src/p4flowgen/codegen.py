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

Every fragment is built as nested lists of lines, a nested list one
level deeper, and indented by ``flow_ast.flatten``. A processor's body is
printed once by ``flow_ast.render`` in the ``_P4`` dialect, the same walk
the simulator compiles and the document form follows; that one print
gives both the processor's statements and the declarations they need.

Output is deterministic: identical Solutions yield byte-identical files.
User constants are emitted verbatim, never folded. Every builder call is
echoed as a ``// [ordinal] Kind`` comment so generated lines trace back to
the source program.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence

from .core_model import HEADER_BYTES, TEMPLATE, HeaderLayout, UValue, record
from .flow_ast import (
    TARGET,
    Add,
    AssignConst,
    AssignVar,
    Cast,
    Equals,
    FlowProcessor,
    Forward,
    Greater,
    Hint,
    Rand,
    RingPush,
    RingReadHead,
    Scope,
    SendBack,
    Sub,
    VarRef,
    flatten,
    render,
)
from .selector import (
    STACK_HEADERS,
    Criterion,
    FlowSelector,
    ProtocolStack,
    Solution,
    rewrites,
)
from .staging import write_staged

FRAGMENT_NAMES = (
    "headers.p4inc",
    "parser.p4inc",
    "structs.p4inc",
    "decls.p4inc",
    "apply.p4inc",
)

COMBINED_NAME = "program.p4"


@record(frozen=True, eq=False)
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


def load_template(name: str) -> str:
    """The text of a shipped template; KeyError for an unknown name."""
    if name != TEMPLATE:
        raise KeyError(f"unknown template {name!r}")
    return (Path(__file__).parent / "templates" / f"{name}.p4").read_text()


# -- low-level emission helpers ---------------------------------------------


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


def _eq_base(proc: FlowProcessor, ordinal: int) -> str:
    return f"{proc.name}__eq__{ordinal}"


# -- command emission --------------------------------------------------------


class _P4:
    """The P4 dialect of ``flow_ast.render``, and one processor's body
    printed in it: ``body`` echoes every builder call as a ``// [n] Kind``
    comment in front of its statements, and ``decls`` holds the
    control-scope declarations those need, the table of each TABLE-hint
    Equals. ``written`` names each shared variable and ring the body
    writes, whose register ``_control`` writes back behind it."""

    def __init__(self, proc: FlowProcessor) -> None:
        self.proc = proc
        self.decls: list = []
        self.written: set[str] = set()
        self.body = render(proc.body, self)

    def operand(self, op) -> str:
        return _const(op) if isinstance(op, UValue) else _lvalue(self.proc, op)

    def op(self, cmd, p4) -> list:
        for _, role in cmd.roles:
            if role is TARGET and cmd.target.scope is Scope.SHARED:
                self.written.add(cmd.target.name)
        return [f"// [{cmd.ordinal}] {type(cmd).__name__}", *_EMIT[type(cmd)](self, cmd, p4)]

    def if_(self, cmd, then: list, orelse: Optional[list]) -> list:
        lines = [
            f"// [{cmd.ordinal}] If",
            f"if ({_lvalue(self.proc, cmd.cond)} == 8w1) {{",
            then,
            "}",
        ]
        if orelse is not None:
            lines += [f"// [{cmd.else_ordinal}] Else", "else {", orelse, "}"]
        return lines

    def switch(self, cmd, cases: list) -> list:
        selector = self.operand(cmd.selector)
        lines = [f"// [{cmd.ordinal}] Switch"]
        for i, (value, ordinal, body) in enumerate(cases):
            keyword = "if" if i == 0 else "else if"
            lines += [
                f"{keyword} ({selector} == {_const(value)}) {{",
                [f"// [{ordinal}] Case", *body],
                "}",
            ]
        return lines

    def atomic(self, cmd, body: list) -> list:
        return [
            f"// [{cmd.ordinal}] Atomic",
            "ATOMIC_BEGIN",
            *body,
            f"// [{cmd.end_ordinal}] EndAtomic",
            "ATOMIC_END",
        ]


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


def _table_lookup(d: _P4, cmd: Equals, p4) -> list:
    """Equals through an exact-match table, declared in ``d.decls``."""
    base = _eq_base(d.proc, cmd.ordinal)
    width = cmd.lhs.width
    d.decls += [
        f"bit<{width.bits}> {base};",
        f"action {base}__hit() {{ {p4.target} = 8w1; }}",
        f"action {base}__miss() {{ {p4.target} = 8w0; }}",
        f"table {base}__t {{",
        [
            f"key = {{ {base} : exact; }}",
            f"actions = {{ {base}__hit; {base}__miss; }}",
            "const entries = {",
            [f"{width.bits}w0 : {base}__hit();"],
            "}",
            f"const default_action = {base}__miss();",
        ],
        "}",
    ]
    return [f"{base} = {p4.lhs} ^ {p4.rhs};", f"{base}__t.apply();"]


def _emit_rand(d: _P4, cmd: Rand, p4) -> list:
    width = cmd.target.width
    return [f"random({p4.target}, {width.bits}w0, {width.bits}w{width.mask});"]


def _emit_ring_push(d: _P4, cmd: RingPush, p4) -> list:
    d.written.add(cmd.ring)
    head = f"{d.proc.name}__{cmd.ring}__head"
    return [
        f"ring__{d.proc.name}__{cmd.ring}.write({head}, {p4.source});",
        f"{head} = {head} + 32w1;",
        f"if ({head} == 32w{d.proc.ring(cmd.ring).capacity}) {{",
        [f"{head} = 32w0;"],
        "}",
    ]


# One entry per plain op, called with the dialect: its P4 statements, a
# nested list one level deeper. _P4.op adds the ``// [n] Kind`` comment
# in front.
_EMIT = {
    AssignConst: lambda d, cmd, p4: [f"{p4.target} = {p4.value};"],
    AssignVar: lambda d, cmd, p4: [f"{p4.target} = {p4.source};"],
    Cast: lambda d, cmd, p4: [
        f"{p4.target} = (bit<{cmd.target.width.bits}>){p4.source};"
    ],
    Add: lambda d, cmd, p4: [f"{p4.target} = {p4.lhs} + {p4.rhs};"],
    Sub: lambda d, cmd, p4: [f"{p4.target} = {p4.lhs} - {p4.rhs};"],
    Equals: lambda d, cmd, p4: (
        _table_lookup(d, cmd, p4) if cmd.hint is Hint.TABLE else _set_flag(p4, "==")
    ),
    Greater: lambda d, cmd, p4: _set_flag(p4, ">"),
    Rand: _emit_rand,
    RingPush: _emit_ring_push,
    RingReadHead: lambda d, cmd, p4: [
        f"ring__{d.proc.name}__{cmd.ring}.read({p4.target}, {d.proc.name}__{cmd.ring}__head);"
    ],
    SendBack: lambda d, cmd, p4: ["smeta.egress_spec = smeta.ingress_port;"],
    Forward: lambda d, cmd, p4: [f"smeta.egress_spec = (bit<9>)16w{p4.port};"],
}


# -- fragment builders --------------------------------------------------------


def _emit_headers(layouts: Sequence[HeaderLayout]) -> str:
    return "\n".join(
        flatten([
            f"header {layout.name}_t {{",
            [f"bit<{f.width.bits}> {f.name};" for f in layout.fields],
            "}",
        ], 0)
        for layout in layouts
    )


def _emit_structs(procs: Sequence[FlowProcessor]) -> str:
    items = []
    for p in procs:
        items.append(f"{p.input.name}_t {p.name}__in;")
        if p.output is not None:
            items.append(f"{p.output.name}_t {p.name}__out;")
    return flatten(items, 1)


def _criterion_key(c: Criterion) -> str:
    if "." in c.field:
        return f"hdr.{c.field}"
    return f"la.{c.field}"


def emit_parser_chain(stack: ProtocolStack, chain: tuple, flow_ids: Sequence[int]) -> str:
    """Chain states for ``stack``'s selectors ``chain``, entered at state
    0: state k checks selector k's criteria, extracts the input layout and
    records flow id ``flow_ids[k]`` on a hit, and falls through to state
    k+1 (or accept) on a miss."""
    if not chain:
        raise ValueError("cannot emit an empty parser chain")
    name = stack.value.lower()
    items = []
    for k, (sel, flow_id) in enumerate(zip(chain, flow_ids)):
        is_last = k == len(chain) - 1
        miss = "accept" if is_last else f"chain_{name}_{k + 1}"
        lookahead = []
        if sel.lookahead is not None:
            lookahead.append(
                f"{sel.lookahead.name}_t la = "
                f"pkt.lookahead<{sel.lookahead.name}_t>();"
            )
        keys = ", ".join(_criterion_key(c) for c in sel.criteria)
        values = ", ".join(_const(c.value) for c in sel.criteria)
        if len(sel.criteria) > 1:
            values = f"({values})"
        items += [
            f"state chain_{name}_{k} {{",
            [
                *lookahead,
                f"transition select({keys}) {{",
                [f"{values}: chain_{name}_{k}_hit;", f"default: {miss};"],
                "}",
            ],
            "}",
            f"state chain_{name}_{k}_hit {{",
            [
                f"pkt.extract(hdr.{sel.processor.name}__in);",
                f"meta.app_flow = 16w{flow_id};",
                "transition accept;",
            ],
            "}",
        ]
    return flatten(items, 1)


def _emit_parser(chains: dict[ProtocolStack, tuple], flow_ids: dict[str, int]) -> str:
    stacks = [stack for stack in ProtocolStack if stack in chains]
    parts = [flatten([f"#define PARROT_CHAIN_{stack.value}" for stack in stacks], 0)]
    for stack in stacks:
        ids = [flow_ids[sel.name] for sel in chains[stack]]
        parts.append(emit_parser_chain(stack, chains[stack], ids))
    return "".join(parts)


def _decls(p: FlowProcessor, tables: list) -> list:
    items = [f"// processor {p.name}"]
    items += [f"bit<{d.width.bits}> {p.name}__{d.name};" for d in p.locals]
    for d in p.shared:
        items.append(f"bit<{d.width.bits}> {p.name}__{d.name};")
        items.append(f"register<bit<{d.width.bits}>>(1) reg__{p.name}__{d.name};")
    for r in p.rings:
        items.append(f"bit<32> {p.name}__{r.name}__head;")
        items.append(f"register<bit<32>>(1) ring__{p.name}__{r.name}__head;")
        items.append(
            f"register<bit<{r.element_width.bits}>>({r.capacity}) "
            f"ring__{p.name}__{r.name};"
        )
    return items + tables


def _control(p: FlowProcessor, stack: ProtocolStack, printed: _P4) -> list:
    """The items of ``emit_processor_control``, ``printed`` the body."""
    p.validate_complete()
    items = [f"{p.name}__{d.name} = {d.width.bits}w0;" for d in p.locals]
    # Each shared variable and ring head is read from its register once, in
    # front of the body, and written back once behind it if the body writes
    # it. A shared register holds value ^ initial, so its zero reset reads
    # as the declared initial value.
    writes = []
    for d in p.shared:
        var, reg = f"{p.name}__{d.name}", f"reg__{p.name}__{d.name}"
        key = f" ^ {_const(d.initial)}" if d.initial.magnitude else ""
        items.append(f"{reg}.read({var}, 0);")
        if key:
            items.append(f"{var} = {var}{key};")
        if d.name in printed.written:
            writes.append(f"{reg}.write(0, {var}{key});")
    for r in p.rings:
        head = f"{p.name}__{r.name}__head"
        items.append(f"ring__{head}.read({head}, 0);")
        if r.name in printed.written:
            writes.append(f"ring__{head}.write(0, {head});")
    if p.output is not None:
        items.append(f"hdr.{p.name}__out.setValid();")
        items += [f"hdr.{p.name}__out.{f.name} = {f.width.bits}w0;" for f in p.output.fields]
    items += printed.body + writes
    if p.output is not None:
        items.append(f"hdr.{p.name}__in.setInvalid();")
        for field, (op, n) in rewrites(stack, p).items():
            items.append(f"hdr.{field} = hdr.{field} {op} 16w{n};" if op else f"hdr.{field} = 16w{n};")
        items.append("meta.app_resized = 1w1;")
        if p.truncate_payload:
            kept = sum(HEADER_BYTES[h] for h in STACK_HEADERS[stack]) + p.output.byte_size
            items.append(f"truncate(32w{kept});")
    return items


def emit_processor_control(p: FlowProcessor, stack: ProtocolStack) -> str:
    """The statements executed when a packet hits this processor: zeroed
    locals, register reads, output activation, the command body, register
    write-backs, then header-validity flips and the header rewrites of
    ``selector.FIXUPS``, sized for the headers of ``stack``. They are
    indented for the flow branch that ``_emit_apply`` opens at depth 2."""
    return flatten(_control(p, stack, _P4(p)), 3)


def _emit_apply(selectors: Sequence[FlowSelector], flow_ids: dict[str, int], printed: dict) -> str:
    return "\n".join(
        flatten([
            f"// flow {sel.name}",
            f"if (meta.app_flow == 16w{flow_ids[sel.name]}) {{",
            _control(sel.processor, sel.stack, printed[sel.processor]),
            "}",
        ], 2)
        for sel in selectors
    )


def _combine(template_text: str, files: dict[str, str]) -> str:
    lines = []
    for line in template_text.splitlines():
        stripped = line.strip()
        if stripped.startswith('#include "') and stripped.endswith('"'):
            name = stripped[len('#include "') : -1]
            if name in files:
                lines.extend(files[name].splitlines())
                continue
        lines.append(line)
    return "\n".join(lines) + "\n"


def generate(solution: Solution) -> GeneratedFileSet:
    """Emit all fragments plus the combined program for a Solution;
    ``write_to`` puts them on disk."""
    selectors = solution.selectors
    procs = solution.processors()
    flow_ids = {sel.name: i + 1 for i, sel in enumerate(selectors)}
    printed = {p: _P4(p) for p in procs}
    files = {
        "headers.p4inc": _emit_headers(solution.layouts()),
        "parser.p4inc": _emit_parser(solution.chains, flow_ids),
        "structs.p4inc": _emit_structs(procs),
        "decls.p4inc": "\n".join(flatten(_decls(p, printed[p].decls), 1) for p in procs),
        "apply.p4inc": _emit_apply(selectors, flow_ids, printed),
    }
    template_text = load_template(TEMPLATE)
    files[COMBINED_NAME] = _combine(template_text, files)
    return GeneratedFileSet(
        files=files,
        template_name=f"{TEMPLATE}.p4",
        template_text=template_text,
    )
