"""Fixed-width unsigned values, header layouts and the internet checksum,
plus ``record``, the decorator that builds the package's record classes.

Everything here is immutable after construction and arithmetic always wraps
modulo the width, mirroring what a P4 target does with ``bit<N>`` operands.
All on-wire serialization is big-endian (network byte order).
"""

from __future__ import annotations

import enum
import re
from operator import attrgetter

from .errors import MissingField, ReservedName, WidthMismatch


def _refuse_set(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")


def _refuse_del(self, name):
    raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")


def record(cls=None, *, frozen: bool = False, eq: bool = True):
    """Class decorator for a record class: its fields are its annotated
    names, those of a record base class first and ``ClassVar`` ones left
    out, and a class attribute of a field's name is that field's default.
    A record has at least one field.

    The class gets ``FIELDS``, the field names in order, and, where its
    body does not define them itself:

    - ``__init__``, which takes the fields in order, stores each one
      (when frozen, into the instance ``__dict__``, at about a third of
      the cost of an ``object.__setattr__`` call) and then calls
      ``__post_init__`` if the class has one. It is the one method
      compiled from source, with one ``exec`` per class;
    - ``__repr__``, as ``Name(field=value, ...)``;
    - with ``eq``, ``__eq__`` by field values, only with an instance of
      the very same class, and ``__hash__`` of the field values when
      frozen or None (unhashable) when not; without ``eq``, the identity
      equality and hash of ``object``.

    A frozen instance refuses attribute writes and deletes with an
    AttributeError; its own constructor, a copy and a pickle go round it.
    """
    if cls is None:
        return lambda cls: record(cls, frozen=frozen, eq=eq)
    names = [name for base in cls.__bases__ for name in getattr(base, "FIELDS", ())]
    for name, annotation in cls.__dict__.get("__annotations__", {}).items():
        if not str(annotation).startswith(("ClassVar", "typing.ClassVar")) and name not in names:
            names.append(name)
    cls.FIELDS = names = tuple(names)

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({shown})"

    methods = {"__repr__": __repr__}
    if eq:
        values = attrgetter(*names)

        def __eq__(self, other):
            if other.__class__ is not self.__class__:
                return NotImplemented
            return values(self) == values(other)

        def __hash__(self):
            return hash(values(self))

        methods["__eq__"] = __eq__
        methods["__hash__"] = __hash__ if frozen else None
    if "__init__" not in cls.__dict__:
        defaults = {name: getattr(cls, name) for name in names if hasattr(cls, name)}
        params = ", ".join(f"{n}=_defaults[{n!r}]" if n in defaults else n for n in names)
        if frozen:
            body = ["_d = self.__dict__", *(f"_d[{n!r}] = {n}" for n in names)]
        else:
            body = [f"self.{n} = {n}" for n in names]
        if hasattr(cls, "__post_init__"):
            body.append("self.__post_init__()")
        namespace = {"_defaults": defaults}
        exec("\n    ".join([f"def __init__(self, {params}):", *body]), namespace)
        methods["__init__"] = namespace["__init__"]
    for name, method in methods.items():
        if name not in cls.__dict__:
            if method is not None:
                method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)
    if frozen:
        cls.__setattr__, cls.__delattr__ = _refuse_set, _refuse_del
    return cls


class UWidth(enum.IntEnum):
    """Supported field widths. Only whole-byte widths exist on purpose."""

    U8 = 8
    U16 = 16
    U32 = 32
    U64 = 64

    @property
    def bits(self) -> int:
        return int(self)

    @property
    def nbytes(self) -> int:
        return int(self) // 8

    @property
    def mask(self) -> int:
        return (1 << int(self)) - 1


U8 = UWidth.U8
U16 = UWidth.U16
U32 = UWidth.U32
U64 = UWidth.U64

# The largest seed: a seed is the simulator's 64-bit SplitMix64 state, so
# one outside 0..SEED_MAX is refused rather than aliased modulo 2**64.
SEED_MAX = U64.mask


@record(frozen=True)
class UValue:
    """An unsigned integer with an explicit width."""

    width: UWidth
    magnitude: int

    def __post_init__(self) -> None:
        if not isinstance(self.width, UWidth):
            object.__setattr__(self, "width", UWidth(self.width))
        if type(self.magnitude) is not int:  # not a bool
            raise TypeError("magnitude must be an int")
        if not 0 <= self.magnitude <= self.width.mask:  # str() may refuse so many digits
            size = "negative" if self.magnitude < 0 else f"{self.magnitude.bit_length()}-bit"
            raise ValueError(f"a {size} magnitude does not fit in u{self.width.bits}")

    def __repr__(self) -> str:
        return f"u{self.width.bits}({self.magnitude})"


def u8(v: int) -> UValue:
    return UValue(U8, v)


def u16(v: int) -> UValue:
    return UValue(U16, v)


def u32(v: int) -> UValue:
    return UValue(U32, v)


def u64(v: int) -> UValue:
    return UValue(U64, v)


def wrap_add(a: UValue, b: UValue) -> UValue:
    """Sum of two equal-width values, wrapping modulo 2^width."""
    if a.width is not b.width:
        raise WidthMismatch(f"cannot add u{a.width.bits} and u{b.width.bits}")
    return UValue(a.width, (a.magnitude + b.magnitude) & a.width.mask)


def wrap_sub(a: UValue, b: UValue) -> UValue:
    """Difference of two equal-width values, wrapping modulo 2^width."""
    if a.width is not b.width:
        raise WidthMismatch(f"cannot subtract u{b.width.bits} from u{a.width.bits}")
    return UValue(a.width, (a.magnitude - b.magnitude) & a.width.mask)


def cast_value(v: UValue, target: UWidth) -> UValue:
    """Width conversion: widening preserves the value, narrowing keeps the
    low-order bits, exactly like a P4 ``(bit<N>)`` cast."""
    return UValue(target, v.magnitude & target.mask)


# The standard headers in wire order, as the shipped template declares
# them: header name -> ((field, bits), ...). The TCP reserved nibble
# ("res") is always zero and is left out of packet field maps.
STANDARD_HEADERS: dict[str, tuple[tuple[str, int], ...]] = {
    "eth": (("dstAddr", 48), ("srcAddr", 48), ("etherType", 16)),
    "ipv4": (
        ("version", 4), ("ihl", 4), ("dscp", 6), ("ecn", 2), ("totalLen", 16),
        ("identification", 16), ("flags", 3), ("fragOffset", 13), ("ttl", 8),
        ("protocol", 8), ("hdrChecksum", 16), ("srcAddr", 32), ("dstAddr", 32),
    ),
    "udp": (("srcPort", 16), ("dstPort", 16), ("len", 16), ("checksum", 16)),
    "tcp": (
        ("srcPort", 16), ("dstPort", 16), ("seqNo", 32), ("ackNo", 32),
        ("dataOffset", 4), ("res", 4), ("flags", 8), ("window", 16),
        ("checksum", 16), ("urgentPtr", 16),
    ),
}

# The values the template parser selects on, as its ETHERTYPE_IPV4,
# IPPROTO_UDP and IPPROTO_TCP consts declare them.
ETHERTYPE_IPV4 = 0x0800
IPPROTO_UDP = 17
IPPROTO_TCP = 6

# The largest port number: ingress ports and Forward's egress port lie in
# 0..PORT_MAX, as both schemas bound them.
PORT_MAX = 0xFFFF

# The most slots of a ring. V1Model sizes a register array, and the emitted
# code compares a ring's head with its capacity, in bit<32>; this much lower
# bound keeps the simulator's zeroed list of one ring at 512 KiB.
RING_CAPACITY_MAX = 1 << 16

# Field name -> bits of each standard header, without the reserved nibble.
HEADER_FIELD_BITS: dict[str, dict[str, int]] = {
    header: {name: bits for name, bits in fields if name != "res"}
    for header, fields in STANDARD_HEADERS.items()
}

HEADER_BYTES: dict[str, int] = {
    header: sum(bits for _, bits in fields) // 8
    for header, fields in STANDARD_HEADERS.items()
}

# The one shipped template, named by a program document's "template" tag.
TEMPLATE = "v1model_basic"

# P4-16 keywords plus every name the shipped template declares at file scope.
# User identifiers may not collide with either group; collisions would only
# surface as compile errors in the generated code, far away from the mistake.
P4_KEYWORDS = frozenset(
    """
    abstract action actions apply bit bool const control default else entries
    enum error exit extern false header header_union if in inout int key list
    match_kind out package parser priority return select state string struct
    switch table this transition true tuple type typedef value_set varbit void
    """.split()
)

TEMPLATE_NAMES = frozenset(
    """
    hdr meta smeta pkt main metadata headers standard_metadata
    standard_metadata_t packet_in packet_out ethernet ipv4 udp tcp
    ethernet_t ipv4_t udp_t tcp_t app_flow app_resized
    ETHERTYPE_IPV4 IPPROTO_UDP IPPROTO_TCP ATOMIC_BEGIN ATOMIC_END
    AppParser AppVerifyChecksum AppIngress AppEgress AppComputeChecksum
    AppDeparser V1Switch truncate random update_checksum HashAlgorithm
    register accept reject
    """.split()
)

RESERVED_IDENTIFIERS = P4_KEYWORDS | TEMPLATE_NAMES

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def check_identifier(name: str, what: str = "identifier") -> str:
    """Validate a user-supplied name.

    Double underscores are rejected so that generated compound names
    (``<proc>__<local>``, ``reg__<proc>__<var>``) can never collide with
    names built from other user identifiers.
    """
    if not isinstance(name, str) or not _IDENT_RE.match(name):
        raise ReservedName(f"{what} {name!r} is not a valid identifier")
    if "__" in name:
        raise ReservedName(
            f"{what} {name!r} contains '__', which is reserved for generated names"
        )
    if name in RESERVED_IDENTIFIERS:
        raise ReservedName(f"{what} {name!r} is a reserved word")
    return name


@record(frozen=True)
class FieldDecl:
    """A named fixed-width field inside a layout."""

    name: str
    width: UWidth

    def __post_init__(self) -> None:
        check_identifier(self.name, "field name")
        if not isinstance(self.width, UWidth):
            object.__setattr__(self, "width", UWidth(self.width))


@record(frozen=True)
class HeaderLayout:
    """An ordered sequence of fields describing a byte region of a packet."""

    name: str
    fields: tuple[FieldDecl, ...]

    def __init__(self, name: str, fields) -> None:
        object.__setattr__(self, "name", check_identifier(name, "layout name"))
        object.__setattr__(self, "fields", tuple(fields))
        seen = set()
        for f in self.fields:
            if f.name in seen:
                raise ReservedName(
                    f"layout {name!r} declares field {f.name!r} twice"
                )
            seen.add(f.name)
        if not self.fields:
            raise ValueError(f"layout {name!r} must be at least one byte")

    @property
    def byte_size(self) -> int:
        return sum(f.width.nbytes for f in self.fields)

    def field(self, name: str) -> FieldDecl:
        for f in self.fields:
            if f.name == name:
                return f
        raise MissingField(f"layout {self.name!r} has no field {name!r}")

    def has_field(self, name: str) -> bool:
        return any(f.name == name for f in self.fields)


@record(frozen=True)
class SharedVariableDecl:
    """A register-backed variable that persists across packets."""

    name: str
    width: UWidth
    initial: UValue

    def __post_init__(self) -> None:
        check_identifier(self.name, "shared variable name")
        if not isinstance(self.width, UWidth):
            object.__setattr__(self, "width", UWidth(self.width))
        if self.initial.width is not self.width:
            raise WidthMismatch(
                f"initial value of {self.name!r} is u{self.initial.width.bits}, "
                f"declared u{self.width.bits}"
            )


@record(frozen=True)
class RingBufferDecl:
    """A fixed-capacity ring of registers plus one head-index register."""

    name: str
    element_width: UWidth
    capacity: int

    def __post_init__(self) -> None:
        check_identifier(self.name, "ring buffer name")
        if not isinstance(self.element_width, UWidth):
            object.__setattr__(self, "element_width", UWidth(self.element_width))
        if type(self.capacity) is not int or self.capacity < 1:  # not a bool
            raise ValueError(f"ring {self.name!r} needs capacity >= 1")
        if self.capacity > RING_CAPACITY_MAX:
            raise ValueError(f"ring {self.name!r} needs capacity <= {RING_CAPACITY_MAX}")


def internet_checksum(data: bytes) -> UValue:
    """RFC 1071 internet checksum of ``data`` as a u16.

    Odd-length input is padded with one zero byte for summation. Placing the
    result in the checksum field makes the one's-complement sum of the whole
    region equal 0xFFFF.
    """
    total = 0
    end = len(data) - 1
    for i in range(0, end, 2):
        total += (data[i] << 8) | data[i + 1]
    if len(data) % 2:
        total += data[-1] << 8
    return UValue(U16, complement_fold(total))


def complement_fold(total: int) -> int:
    """The checksum of a sum of 16-bit words: folded to 16 bits with
    end-around carry, then complemented."""
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF
