"""Exception types shared across the package."""


class FlowgenError(Exception):
    """Base class for every error raised by p4flowgen."""


class WidthMismatch(FlowgenError):
    """Two operands (or a value and its declaration) differ in bit width."""


class MissingField(FlowgenError):
    """A layout field has no value in the supplied map."""


class TooShort(FlowgenError):
    """A byte sequence is shorter than the layout it should fill."""


class ReservedName(FlowgenError):
    """An identifier is malformed, reserved, or collides with generated names."""


class UndeclaredName(FlowgenError):
    """A referenced field or variable is not declared anywhere visible."""


class DuplicateName(FlowgenError):
    """A name is declared twice where uniqueness is required."""


class ParserGateMismatch(FlowgenError):
    """A criterion requires a value that the stack's parser never lets
    through to the selector chain, so the selector could never match."""


class MissingLookahead(FlowgenError):
    """A selector criterion needs a lookahead layout that was not given."""


class MalformedPacket(FlowgenError):
    """A packet is too short or structurally unfit for the matched flow."""


class DocError(FlowgenError):
    """Structural problem in a document: schema violation or a value the
    format itself cannot express."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message
