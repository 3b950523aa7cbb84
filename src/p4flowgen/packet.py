"""Synthetic packets: standard-header field maps plus a raw payload.

A ``SimPacket`` is what the simulator classifies and runs, and what a
trace document's packets load into. ``make_udp_packet`` and
``make_tcp_packet`` build consistent ones (lengths from the payload, a
valid IPv4 header checksum). ``SimPacket.to_bytes`` and
``ipv4_header_bytes`` give the wire bytes of field maps. Nothing here
runs a program.
"""

from __future__ import annotations

from typing import Optional

from .core_model import (
    ETHERTYPE_IPV4,
    HEADER_BYTES,
    HEADER_FIELD_BITS,
    PORT_MAX,
    STANDARD_HEADERS,
    internet_checksum,
    record,
)
from .errors import MalformedPacket
from .selector import TRANSPORT, ProtocolStack


def _pack(header: str, fields: dict[str, int]) -> bytes:
    """The wire bytes of a header's field map, in STANDARD_HEADERS order. A
    field that does not fit its width raises OverflowError; the reserved
    nibble packs as zero."""
    word = 0
    for name, bits in STANDARD_HEADERS[header]:
        value = 0 if name == "res" else fields[name]
        if value >> bits:
            raise OverflowError(f"{header} field out of range in {fields}")
        word = word << bits | value
    return word.to_bytes(HEADER_BYTES[header], "big")


def ipv4_header_bytes(ipv4: dict[str, int]) -> bytes:
    """The 20 IPv4 header bytes of a field map (options unsupported)."""
    return _pack("ipv4", ipv4)


_FIELD_NAMES = {header: frozenset(bits) for header, bits in HEADER_FIELD_BITS.items()}


def _misfit(header: str, fields: Optional[dict[str, int]]) -> MalformedPacket:
    if fields is None:
        return MalformedPacket(f"packet has no {header} header")
    return MalformedPacket(f"{header} fields {sorted(fields)} are not {sorted(_FIELD_NAMES[header])}")


# SimPacket.validate's tests in order, as statements over the locals port,
# eth, ipv4, udp, tcp and payload, and the names they read. The method
# runs them, and the simulator's compiled classifier inlines them, so that
# both word a failure alike.
VALIDATE_LINES = (
    "if port.__class__ is not int: raise MalformedPacket(f'ingress port {port!r} is not an int')",
    "if not 0 <= port <= PORT_MAX: raise MalformedPacket(f'ingress port {port} out of range')",
    "if udp is not None and tcp is not None: "
    "raise MalformedPacket('packet cannot carry both UDP and TCP')",
    "if not isinstance(payload, (bytes, bytearray)): raise MalformedPacket('payload must be bytes')",
    "if eth is None or eth.keys() != ETH_NAMES: raise misfit('eth', eth)",
    "if ipv4 is None or ipv4.keys() != IPV4_NAMES: raise misfit('ipv4', ipv4)",
    "if udp is not None and udp.keys() != UDP_NAMES: raise misfit('udp', udp)",
    "if tcp is not None and tcp.keys() != TCP_NAMES: raise misfit('tcp', tcp)",
)
VALIDATE_NAMES = {
    "MalformedPacket": MalformedPacket, "PORT_MAX": PORT_MAX, "misfit": _misfit,
    **{f"{header.upper()}_NAMES": names for header, names in _FIELD_NAMES.items()},
}


@record
class SimPacket:
    """A synthetic packet: standard-header field maps plus raw payload.

    The udp and tcp maps are mutually exclusive; a packet with neither
    is plain IPv4 and passes through unless ipv4.protocol names UDP/TCP.
    """

    ingress_port: int
    eth: dict[str, int]
    ipv4: dict[str, int]
    udp: Optional[dict[str, int]] = None
    tcp: Optional[dict[str, int]] = None
    payload: bytes = b""

    def validate(self) -> None:
        """Raise MalformedPacket for a port that is not an int (a bool
        included) or is out of range, both transport headers, a payload
        that is not bytes, a missing eth or ipv4 map, or a header map whose
        fields are not its header's; the first failing test, in that
        order, words the error."""
        _validate(self.ingress_port, self.eth, self.ipv4, self.udp, self.tcp, self.payload)

    def stack(self) -> Optional[ProtocolStack]:
        """The stack whose transport header the packet carries, or None."""
        return next((s for s, (l4, _) in TRANSPORT.items() if getattr(self, l4) is not None), None)

    def to_bytes(self) -> bytes:
        headers = (
            _pack(header, getattr(self, header))
            for header in STANDARD_HEADERS
            if getattr(self, header) is not None
        )
        return b"".join(headers) + bytes(self.payload)


exec(
    "def validate(port, eth, ipv4, udp, tcp, payload):\n"
    + "".join(f"    {line}\n" for line in VALIDATE_LINES),
    _namespace := dict(VALIDATE_NAMES),
)
_validate = _namespace["validate"]


def _make_packet(
    stack: ProtocolStack,
    fields: dict[str, int],
    payload: bytes,
    ingress_port: int,
    src_addr: int,
    dst_addr: int,
    ttl: int,
) -> SimPacket:
    l4, protocol = TRANSPORT[stack]
    ipv4 = _zeroed("ipv4") | {
        "version": 4,
        "ihl": 5,
        "totalLen": HEADER_BYTES["ipv4"] + HEADER_BYTES[l4] + len(payload),
        "ttl": ttl,
        "protocol": protocol,
        "srcAddr": src_addr,
        "dstAddr": dst_addr,
    }
    ipv4["hdrChecksum"] = internet_checksum(ipv4_header_bytes(ipv4)).magnitude
    return SimPacket(
        ingress_port=ingress_port,
        eth={
            "dstAddr": 0x020000000002,
            "srcAddr": 0x020000000001,
            "etherType": ETHERTYPE_IPV4,
        },
        ipv4=ipv4,
        payload=bytes(payload),
        **{l4: _zeroed(l4) | fields},
    )


def _zeroed(header: str) -> dict[str, int]:
    """A field map of a standard header with every field zero."""
    return dict.fromkeys(HEADER_FIELD_BITS[header], 0)


def make_udp_packet(
    dst_port: int,
    payload: bytes = b"",
    src_port: int = 40000,
    ingress_port: int = 0,
    src_addr: int = 0x0A000001,
    dst_addr: int = 0x0A000002,
    ttl: int = 64,
) -> SimPacket:
    """A consistent UDP packet: lengths derived from the payload, valid
    IPv4 header checksum, UDP checksum left unused (0)."""
    udp = {
        "srcPort": src_port,
        "dstPort": dst_port,
        "len": HEADER_BYTES["udp"] + len(payload),
    }
    return _make_packet(ProtocolStack.IPV4_UDP, udp, payload, ingress_port, src_addr, dst_addr, ttl)


def make_tcp_packet(
    dst_port: int,
    payload: bytes = b"",
    src_port: int = 40000,
    ingress_port: int = 0,
    src_addr: int = 0x0A000001,
    dst_addr: int = 0x0A000002,
    ttl: int = 64,
) -> SimPacket:
    """A consistent TCP packet with a bare 20-byte header."""
    tcp = {
        "srcPort": src_port,
        "dstPort": dst_port,
        "dataOffset": 5,
        "flags": 0x18,
        "window": 65535,
    }
    return _make_packet(ProtocolStack.IPV4_TCP, tcp, payload, ingress_port, src_addr, dst_addr, ttl)
