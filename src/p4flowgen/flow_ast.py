"""Typed builder for flow processors.

A FlowProcessor owns declarations (input/output layouts, locals, shared
variables, ring buffers) and a body built fluently out of commands and
structured If/Switch/Atomic scopes. Every builder call is checked against
the declarations immediately; a rejected call raises SemanticError and
leaves the tree exactly as it was.

Each builder call on a processor consumes one ordinal (starting at 1),
successful or not. Ordinals identify error sites, simulator trace events
and generated-code comments.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields, replace
from typing import ClassVar, Iterator, Optional, Union, get_args

from .core_model import (
    U8,
    FieldDecl,
    HeaderLayout,
    RingBufferDecl,
    SharedVariableDecl,
    UValue,
    UWidth,
    check_identifier,
)
from .errors import FlowgenError, ReservedName
from .errors import WidthMismatch as CoreWidthMismatch


class Scope(enum.Enum):
    INPUT = "input"
    OUTPUT = "output"
    LOCAL = "local"
    SHARED = "shared"


class ErrorKind(enum.Enum):
    UNDECLARED_NAME = "UndeclaredName"
    WIDTH_MISMATCH = "WidthMismatch"
    DUPLICATE_NAME = "DuplicateName"
    WRITE_TO_INPUT = "WriteToInput"
    OUTPUT_UNDECLARED = "OutputUndeclared"
    NOT_BOOLEAN = "NotBoolean"
    OPEN_SCOPE = "OpenScope"
    ATOMIC_NESTING = "AtomicNesting"
    RESERVED_NAME = "ReservedName"


class SemanticError(FlowgenError):
    """A builder call that violates the processor's declarations."""

    def __init__(self, kind: ErrorKind, message: str, site: int) -> None:
        super().__init__(f"[{kind.value}] call {site}: {message}")
        self.kind = kind
        self.message = message
        self.site = site


class Hint(enum.Enum):
    """Code-shape preference for Equals; never changes behavior."""

    IF_ELSE = "if_else"
    TABLE = "table"


@dataclass(frozen=True)
class LocalDecl(FieldDecl):
    """A per-packet scratch variable. Booleans are u8 restricted to {0,1}."""

    is_bool: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.is_bool and self.width is not U8:
            raise CoreWidthMismatch(
                f"bool local {self.name!r} must be u8, not u{self.width.bits}"
            )


def local(name: str, width: UWidth) -> LocalDecl:
    return LocalDecl(name, width)


def bool_local(name: str) -> LocalDecl:
    return LocalDecl(name, U8, is_bool=True)


@dataclass(frozen=True)
class VarRef:
    """A resolved reference to a declared field or variable."""

    scope: Scope
    name: str
    width: UWidth
    is_bool: bool = False


Operand = Union[VarRef, UValue]

# Each plain command class below is the one declaration of its op: ``op``
# is its document tag and trace-event kind, and its dataclass fields, in
# document order, carry roles fixed by their names. ``target`` is the
# variable the op writes, ``value`` a constant, ``source``/``lhs``/``rhs``
# operands, and ``ring``/``port``/``hint`` plain values. The ops read
# their OPERAND_FIELDS (``value`` included) in field order.
OPERAND_FIELDS = ("value", "source", "lhs", "rhs")


@dataclass(frozen=True)
class AssignConst:
    op: ClassVar[str] = "assign_const"
    target: VarRef
    value: UValue
    ordinal: int = 0


@dataclass(frozen=True)
class AssignVar:
    op: ClassVar[str] = "assign_var"
    target: VarRef
    source: Operand
    ordinal: int = 0


@dataclass(frozen=True)
class Cast:
    """The only width-changing command: narrows by truncation, widens
    by zero extension."""

    op: ClassVar[str] = "cast"
    target: VarRef
    source: Operand
    ordinal: int = 0


@dataclass(frozen=True)
class Add:
    op: ClassVar[str] = "add"
    target: VarRef
    lhs: Operand
    rhs: Operand
    ordinal: int = 0


@dataclass(frozen=True)
class Sub:
    op: ClassVar[str] = "sub"
    target: VarRef
    lhs: Operand
    rhs: Operand
    ordinal: int = 0


@dataclass(frozen=True)
class Equals:
    op: ClassVar[str] = "equals"
    target: VarRef
    lhs: Operand
    rhs: Operand
    hint: Hint = Hint.IF_ELSE
    ordinal: int = 0


@dataclass(frozen=True)
class Greater:
    op: ClassVar[str] = "greater"
    target: VarRef
    lhs: Operand
    rhs: Operand
    ordinal: int = 0


@dataclass(frozen=True)
class Rand:
    """Uniform random value over the target's full width."""

    op: ClassVar[str] = "rand"
    target: VarRef
    ordinal: int = 0


@dataclass(frozen=True)
class RingPush:
    op: ClassVar[str] = "ring_push"
    ring: str
    source: Operand
    ordinal: int = 0


@dataclass(frozen=True)
class RingReadHead:
    op: ClassVar[str] = "ring_read_head"
    ring: str
    target: VarRef
    ordinal: int = 0


@dataclass(frozen=True)
class SendBack:
    """Return the packet through its ingress port."""

    op: ClassVar[str] = "send_back"
    ordinal: int = 0


@dataclass(frozen=True)
class Forward:
    op: ClassVar[str] = "forward"
    port: int
    ordinal: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.port, int) or not 0 <= self.port <= 0xFFFF:
            raise ValueError(f"port {self.port!r} is not an unsigned 16-bit value")


Command = Union[
    AssignConst,
    AssignVar,
    Cast,
    Add,
    Sub,
    Equals,
    Greater,
    Rand,
    RingPush,
    RingReadHead,
    SendBack,
    Forward,
]

# The op table: every plain command class, keyed by its op name.
OPS: dict[str, type] = {cls.op: cls for cls in get_args(Command)}


def operand_fields(cls: type) -> tuple[str, ...]:
    """The fields a plain command class reads, in field order."""
    return tuple(f.name for f in fields(cls) if f.name in OPERAND_FIELDS)


class IfNode:
    """An If command: condition, then branch, optional else branch."""

    def __init__(self, cond: VarRef, container: "Block", ordinal: int) -> None:
        self.cond = cond
        self.container = container
        self.ordinal = ordinal
        self.then_block: "ThenBlock" = None  # set by Block.If right away
        self.else_block: Optional["ElseBlock"] = None
        self.else_ordinal: Optional[int] = None
        self.end_ordinal: Optional[int] = None
        self.closed = False

    def blocks(self) -> list["Block"]:
        return [self.then_block] + ([self.else_block] if self.else_block else [])


class SwitchNode:
    """A Switch command: selector plus (value, block) cases in call order."""

    def __init__(self, selector: Operand, container: "Block", ordinal: int) -> None:
        self.selector = selector
        self.container = container
        self.ordinal = ordinal
        self.cases: list[tuple[UValue, int, "CaseBlock"]] = []
        self.end_ordinal: Optional[int] = None
        self.closed = False

    def blocks(self) -> list["Block"]:
        return [block for _, _, block in self.cases]


class AtomicNode:
    """An Atomic command: its block executes indivisibly."""

    def __init__(self, container: "Block", ordinal: int) -> None:
        self.container = container
        self.ordinal = ordinal
        self.block: "AtomicBlock" = None  # set by Block.Atomic right away
        self.end_ordinal: Optional[int] = None
        self.closed = False

    def blocks(self) -> list["Block"]:
        return [self.block]


Node = Union[IfNode, SwitchNode, AtomicNode]


def walk(block: "Block") -> Iterator[Union[Command, Node]]:
    """Every command and node under a block, depth first in body order."""
    for cmd in block.commands:
        yield cmd
        if isinstance(cmd, (IfNode, SwitchNode, AtomicNode)):
            for inner in cmd.blocks():
                yield from walk(inner)


class Block:
    """An ordered list of commands. Fluent methods return the block to
    keep chaining on."""

    _takes_commands = True

    def __init__(
        self,
        proc: "FlowProcessor",
        parent: Optional["Block"] = None,
        owner: Optional[Node] = None,
    ) -> None:
        self._proc = proc
        self.parent = parent
        self._owner = owner
        self.commands: list[Union[Command, Node]] = []

    # -- scope bookkeeping -------------------------------------------------

    def _owner_chain(self) -> Iterator[Node]:
        node = self._owner
        while node is not None:
            yield node
            node = node.container._owner

    def _guard(self, site: int) -> None:
        for node in self._owner_chain():
            if node.closed:
                raise SemanticError(
                    ErrorKind.OPEN_SCOPE,
                    "the enclosing scope was already closed",
                    site,
                )

    def _begin(self) -> int:
        """Consume the ordinal of a call that adds to this block."""
        site = self._proc._bump()
        if not self._takes_commands:
            raise SemanticError(
                ErrorKind.OPEN_SCOPE, "commands must be inside a Case", site
            )
        self._guard(site)
        return site

    # -- builder calls -----------------------------------------------------

    def add(self, cmd: Command) -> "Block":
        """Append a plain command; returns this block."""
        site = self._begin()
        if OPS.get(getattr(cmd, "op", None)) is not type(cmd):
            raise TypeError(
                f"{cmd!r} is not a command; use If/Switch/Atomic for scopes"
            )
        self._proc._check_command(cmd, site)
        self.commands.append(replace(cmd, ordinal=site))
        return self

    def If(self, cond: VarRef) -> "ThenBlock":
        site = self._begin()
        self._proc._require_bool_cond(cond, site)
        node = IfNode(cond, self, site)
        node.then_block = ThenBlock(self._proc, parent=self, owner=node)
        self.commands.append(node)
        self._proc._open_scopes += 1
        return node.then_block

    def Switch(self, selector: Operand) -> "SwitchBlock":
        site = self._begin()
        self._proc._operand_info(selector, site)
        node = SwitchNode(selector, self, site)
        self.commands.append(node)
        self._proc._open_scopes += 1
        return SwitchBlock(self._proc, parent=self, owner=node)

    def Atomic(self) -> "AtomicBlock":
        site = self._begin()
        for node in self._owner_chain():
            if isinstance(node, AtomicNode):
                raise SemanticError(
                    ErrorKind.ATOMIC_NESTING,
                    "Atomic blocks cannot nest inside Atomic blocks",
                    site,
                )
        node = AtomicNode(self, site)
        node.block = AtomicBlock(self._proc, parent=self, owner=node)
        self.commands.append(node)
        self._proc._open_scopes += 1
        return node.block

    # Scope-closing calls are only valid on the matching block kind; the
    # base class turns misuse into OpenScope instead of AttributeError.

    def _misuse(self, what: str) -> "Block":
        site = self._proc._bump()
        raise SemanticError(
            ErrorKind.OPEN_SCOPE, f"{what} does not close any scope here", site
        )

    def Else(self) -> "ElseBlock":
        return self._misuse("Else")

    def EndIf(self) -> "Block":
        return self._misuse("EndIf")

    def Case(self, value: UValue) -> "Block":
        return self._misuse("Case")

    def EndSwitch(self) -> "Block":
        return self._misuse("EndSwitch")

    def EndAtomic(self) -> "Block":
        return self._misuse("EndAtomic")


class ThenBlock(Block):
    def Else(self) -> "ElseBlock":
        site = self._proc._bump()
        self._guard(site)
        node = self._owner
        if node.else_block is not None:
            raise SemanticError(
                ErrorKind.OPEN_SCOPE, "this If already has an Else branch", site
            )
        node.else_block = ElseBlock(self._proc, parent=node.container, owner=node)
        node.else_ordinal = site
        return node.else_block

    def EndIf(self) -> Block:
        return _close(self, "If")


class ElseBlock(Block):
    def EndIf(self) -> Block:
        return _close(self, "If")


class AtomicBlock(Block):
    def EndAtomic(self) -> Block:
        return _close(self, "Atomic")


class SwitchBlock(Block):
    """The scope returned by Switch. It holds no commands itself; every
    command lives inside a Case."""

    _takes_commands = False

    def Case(self, value: UValue) -> "CaseBlock":
        return _open_case(self, value)

    def EndSwitch(self) -> Block:
        return _close(self, "Switch")


class CaseBlock(Block):
    """One arm of a Switch; Case/EndSwitch chain straight from here."""

    def Case(self, value: UValue) -> "CaseBlock":
        return _open_case(self, value)

    def EndSwitch(self) -> Block:
        return _close(self, "Switch")


def _open_case(block: Block, value: UValue) -> CaseBlock:
    proc = block._proc
    site = proc._bump()
    block._guard(site)
    node = block._owner
    if not isinstance(value, UValue):
        raise TypeError(f"case value must be a UValue, got {value!r}")
    selector_width, _ = proc._operand_info(node.selector, site)
    if value.width is not selector_width:
        raise SemanticError(
            ErrorKind.WIDTH_MISMATCH,
            f"case value is u{value.width.bits}, selector is "
            f"u{selector_width.bits}",
            site,
        )
    if any(v == value for v, _, _ in node.cases):
        raise SemanticError(
            ErrorKind.DUPLICATE_NAME, f"duplicate case value {value}", site
        )
    case_block = CaseBlock(proc, parent=node.container, owner=node)
    node.cases.append((value, site, case_block))
    return case_block


def _close(block: Block, what: str) -> Block:
    proc = block._proc
    site = proc._bump()
    node = block._owner
    if node.closed:
        raise SemanticError(
            ErrorKind.OPEN_SCOPE, f"this {what} scope was already closed", site
        )
    block._guard(site)
    node.closed = True
    node.end_ordinal = site
    proc._open_scopes -= 1
    return node.container


class FlowProcessor:
    """Declarations plus a body under construction. Build via
    new_flow_processor, not directly."""

    def __init__(
        self,
        name: str,
        input: HeaderLayout,
        output: Optional[HeaderLayout],
        locals: tuple[FieldDecl, ...],
        shared: tuple[SharedVariableDecl, ...],
        rings: tuple[RingBufferDecl, ...],
        truncate_payload: bool,
    ) -> None:
        self.name = name
        self.input = input
        self.output = output
        self.locals = locals
        self.shared = shared
        self.rings = rings
        self.truncate_payload = truncate_payload
        self.body = Block(self)
        self._ordinal = 0
        self._open_scopes = 0
        # The simulator's run function and the builder ordinal it was
        # compiled at (simulator._compiled).
        self._compiled = (None, None)

    def _bump(self) -> int:
        self._ordinal += 1
        return self._ordinal

    # -- name resolution ---------------------------------------------------

    def _scopes(self) -> dict[Scope, tuple[FieldDecl, ...]]:
        """The declarations of each scope, in name resolution order."""
        return {
            Scope.INPUT: self.input.fields,
            Scope.OUTPUT: self.output.fields if self.output is not None else (),
            Scope.LOCAL: self.locals,
            Scope.SHARED: self.shared,
        }

    def var(self, name: str) -> VarRef:
        """Resolve a declared name to a reference usable in commands.

        Raises UndeclaredName carrying the ordinal of the most recent
        builder call (resolution itself consumes no ordinal).
        """
        for scope, decls in self._scopes().items():
            decl = _find_field(decls, name)
            if decl is not None:
                return VarRef(scope, name, decl.width, _decl_is_bool(decl))
        raise SemanticError(
            ErrorKind.UNDECLARED_NAME,
            f"{name!r} is not declared in processor {self.name!r}",
            self._ordinal,
        )

    def ring(self, name: str, site: Optional[int] = None) -> RingBufferDecl:
        """A declared ring by name. Raises UndeclaredName at ``site``, or
        at the most recent builder call when none is given."""
        decl = _find_field(self.rings, name)
        if decl is None:
            raise SemanticError(
                ErrorKind.UNDECLARED_NAME,
                f"ring {name!r} is not declared in processor {self.name!r}",
                self._ordinal if site is None else site,
            )
        return decl

    def _decl_of(self, ref: VarRef, site: int) -> tuple[UWidth, bool]:
        """Check a reference against the declarations; returns the declared
        (width, is_bool)."""
        if not isinstance(ref, VarRef):
            raise TypeError(f"expected a VarRef, got {ref!r}")
        if ref.scope is Scope.OUTPUT and self.output is None:
            raise SemanticError(
                ErrorKind.OUTPUT_UNDECLARED,
                f"processor {self.name!r} has no output layout",
                site,
            )
        decl = _find_field(self._scopes()[ref.scope], ref.name)
        if decl is None:
            raise SemanticError(
                ErrorKind.UNDECLARED_NAME,
                f"{ref.name!r} is not declared in scope {ref.scope.value}",
                site,
            )
        is_bool = _decl_is_bool(decl)
        if ref.width is not decl.width:
            raise SemanticError(
                ErrorKind.WIDTH_MISMATCH,
                f"{ref.name!r} is declared u{decl.width.bits}, "
                f"referenced as u{ref.width.bits}",
                site,
            )
        if ref.is_bool != is_bool:
            raise SemanticError(
                ErrorKind.NOT_BOOLEAN,
                f"bool marker on reference to {ref.name!r} does not match "
                "its declaration",
                site,
            )
        return decl.width, is_bool

    def _operand_info(self, op: Operand, site: int) -> tuple[UWidth, bool]:
        if isinstance(op, UValue):
            return op.width, False
        if isinstance(op, VarRef):
            return self._decl_of(op, site)
        raise TypeError(f"expected a VarRef or UValue operand, got {op!r}")

    # -- semantic checks ---------------------------------------------------

    def _check_write(self, target: VarRef, site: int) -> tuple[UWidth, bool]:
        width, is_bool = self._decl_of(target, site)
        if target.scope is Scope.INPUT:
            raise SemanticError(
                ErrorKind.WRITE_TO_INPUT,
                f"input field {target.name!r} is read-only",
                site,
            )
        return width, is_bool

    def _require_bool_cond(self, cond: VarRef, site: int) -> None:
        if isinstance(cond, UValue):
            raise SemanticError(
                ErrorKind.NOT_BOOLEAN, "condition must be a boolean local", site
            )
        _, is_bool = self._decl_of(cond, site)
        if not is_bool:
            raise SemanticError(
                ErrorKind.NOT_BOOLEAN,
                f"{cond.name!r} is not a boolean local",
                site,
            )

    def _require_same_width(self, a: UWidth, b: UWidth, what: str, site: int) -> None:
        if a is not b:
            raise SemanticError(
                ErrorKind.WIDTH_MISMATCH,
                f"{what}: u{a.bits} vs u{b.bits}",
                site,
            )

    def _check_command(self, cmd: Command, site: int) -> None:
        """Resolve the ring, the target and the operands in field order,
        then apply the op's own rules."""
        kind = type(cmd).__name__
        ring = self.ring(cmd.ring, site) if hasattr(cmd, "ring") else None
        if hasattr(cmd, "target"):
            width, is_bool = self._check_write(cmd.target, site)
            if isinstance(cmd, (Equals, Greater)) and not is_bool:
                raise SemanticError(
                    ErrorKind.NOT_BOOLEAN,
                    f"{kind} target {cmd.target.name!r} must be a boolean local",
                    site,
                )
            if isinstance(cmd, (Cast, Add, Sub, Rand, RingReadHead)) and is_bool:
                raise SemanticError(
                    ErrorKind.NOT_BOOLEAN,
                    f"{kind} cannot write boolean local {cmd.target.name!r}",
                    site,
                )
        operands = [
            self._operand_info(getattr(cmd, name), site)
            for name in operand_fields(type(cmd))
        ]

        if isinstance(cmd, AssignConst):
            if not isinstance(cmd.value, UValue):
                raise TypeError(f"assigned value must be a UValue, got {cmd.value!r}")
            self._require_same_width(width, cmd.value.width, "assigned value", site)
            if is_bool and cmd.value.magnitude > 1:
                raise SemanticError(
                    ErrorKind.NOT_BOOLEAN,
                    f"{cmd.value} is not a boolean value",
                    site,
                )
        elif isinstance(cmd, AssignVar):
            (s_width, s_bool), = operands
            self._require_same_width(width, s_width, "assignment", site)
            if is_bool and not s_bool and not (
                isinstance(cmd.source, UValue) and cmd.source.magnitude <= 1
            ):
                raise SemanticError(
                    ErrorKind.NOT_BOOLEAN,
                    f"cannot assign non-boolean source to boolean "
                    f"{cmd.target.name!r}",
                    site,
                )
        elif isinstance(cmd, (Add, Sub, Equals, Greater)):
            (l_width, _), (r_width, _) = operands
            self._require_same_width(l_width, r_width, f"{kind} operands", site)
            if isinstance(cmd, (Add, Sub)):
                self._require_same_width(width, l_width, f"{kind} target", site)
            if isinstance(cmd, Equals) and not isinstance(cmd.hint, Hint):
                raise TypeError(f"hint must be a Hint, got {cmd.hint!r}")
        elif isinstance(cmd, RingPush):
            self._require_same_width(ring.element_width, operands[0][0], "ring push", site)
        elif isinstance(cmd, RingReadHead):
            self._require_same_width(ring.element_width, width, "ring read", site)

    # -- completeness ------------------------------------------------------

    def validate_complete(self) -> None:
        """Confirm the body has no open If/Switch/Atomic scope. Unwritten
        output fields are fine; they read as zero everywhere."""
        if self._open_scopes:
            raise SemanticError(
                ErrorKind.OPEN_SCOPE,
                f"{self._open_scopes} scope(s) still open in processor "
                f"{self.name!r}",
                self._ordinal,
            )

    # -- serialization -----------------------------------------------------

    def to_doc(self) -> dict:
        """A JSON-ready description; replaying it through the builder
        reproduces this processor including ordinals."""
        return {
            "name": self.name,
            "input": self.input.name,
            "output": self.output.name if self.output else None,
            "locals": [_local_doc(d) for d in self.locals],
            "shared": [
                {"name": d.name, "width": d.width.bits, "initial": d.initial.magnitude}
                for d in self.shared
            ],
            "rings": [
                {"name": r.name, "width": r.element_width.bits, "capacity": r.capacity}
                for r in self.rings
            ],
            "truncate_payload": self.truncate_payload,
            "body": _block_doc(self.body),
        }


def _decl_is_bool(decl: FieldDecl) -> bool:
    return isinstance(decl, LocalDecl) and decl.is_bool


def _find_field(decls, name: str) -> Optional[FieldDecl]:
    for d in decls:
        if d.name == name:
            return d
    return None


def new_flow_processor(
    name: str,
    input: HeaderLayout,
    output: Optional[HeaderLayout] = None,
    locals=(),
    shared=(),
    rings=(),
    truncate_payload: bool = False,
) -> FlowProcessor:
    """Create a processor with an empty body.

    When an output layout is present the emitted code replaces the input
    header with the output header; without one the input passes through
    untouched.
    """
    try:
        check_identifier(name, "processor name")
    except ReservedName as e:
        raise SemanticError(ErrorKind.RESERVED_NAME, str(e), 0) from None
    locals = tuple(locals)
    shared = tuple(shared)
    rings = tuple(rings)
    seen: set[str] = set()
    groups = [
        input.fields,
        output.fields if output is not None else (),
        locals,
        shared,
        rings,
    ]
    for group in groups:
        for d in group:
            if d.name in seen:
                raise SemanticError(
                    ErrorKind.DUPLICATE_NAME,
                    f"name {d.name!r} is declared more than once in "
                    f"processor {name!r}",
                    0,
                )
            seen.add(d.name)
    return FlowProcessor(name, input, output, locals, shared, rings, bool(truncate_payload))


# -- document form ---------------------------------------------------------


def _local_doc(d: FieldDecl) -> dict:
    doc = {"name": d.name, "width": d.width.bits}
    if _decl_is_bool(d):
        doc["bool"] = True
    return doc


def uvalue_doc(v: UValue) -> dict:
    return {"width": v.width.bits, "value": v.magnitude}


def _operand_doc(op: Operand) -> dict:
    if isinstance(op, VarRef):
        return {"var": op.name}
    return {"const": uvalue_doc(op)}


def _field_doc(name: str, value):
    if name == "target":
        return value.name
    if name == "value":
        return uvalue_doc(value)
    if name in OPERAND_FIELDS:
        return _operand_doc(value)
    return value.value if isinstance(value, enum.Enum) else value


def _block_doc(block: Block) -> list:
    return [_command_doc(c) for c in block.commands]


def _command_doc(cmd) -> dict:
    if isinstance(cmd, IfNode):
        return {
            "op": "if",
            "ordinal": cmd.ordinal,
            "cond": cmd.cond.name,
            "then": _block_doc(cmd.then_block),
            "else": _block_doc(cmd.else_block) if cmd.else_block else None,
            "else_ordinal": cmd.else_ordinal,
            "end_ordinal": cmd.end_ordinal,
        }
    if isinstance(cmd, SwitchNode):
        return {
            "op": "switch",
            "ordinal": cmd.ordinal,
            "selector": _operand_doc(cmd.selector),
            "cases": [
                {"value": uvalue_doc(v), "ordinal": o, "body": _block_doc(b)}
                for v, o, b in cmd.cases
            ],
            "end_ordinal": cmd.end_ordinal,
        }
    if isinstance(cmd, AtomicNode):
        return {
            "op": "atomic",
            "ordinal": cmd.ordinal,
            "end_ordinal": cmd.end_ordinal,
            "body": _block_doc(cmd.block),
        }
    doc = {"op": cmd.op, "ordinal": cmd.ordinal}
    for f in fields(cmd):
        if f.name != "ordinal":
            doc[f.name] = _field_doc(f.name, getattr(cmd, f.name))
    return doc
