"""Synthetic packets: standard-header field maps plus a raw payload.

A ``SimPacket`` is what the simulator classifies and runs, and what a
trace document's packets load into. ``make_udp_packet`` and
``make_tcp_packet`` build consistent ones (lengths from the payload, a
valid IPv4 header checksum), and the header packers give the wire bytes
and checksum of a field map. Nothing here runs a program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core_model import (
    ETHERTYPE_IPV4,
    HEADER_BYTES,
    HEADER_FIELD_BITS,
    IPPROTO_TCP,
    IPPROTO_UDP,
    STANDARD_HEADERS,
    complement_fold,
)
from .errors import MalformedPacket
from .selector import ProtocolStack


def _packer(header: str):
    """Two functions of a header's field map, compiled once from
    STANDARD_HEADERS (the way dataclasses compiles ``__init__``) so that
    they run no per-field loop: its wire bytes, as one shift-and-or
    expression, and its checksum, the one's-complement sum of its 16-bit
    words with each field added at its offset within its word. A field
    that does not fit its width raises OverflowError; the reserved nibble
    packs as zero."""
    shift = HEADER_BYTES[header] * 8
    fields, words, overflow = [], [], []
    for name, bits in STANDARD_HEADERS[header]:
        shift -= bits
        if name != "res":
            fields.append(f"v[{name!r}] << {shift}")
            words.append(f"(v[{name!r}] << {shift % 16})")
            overflow.append(f"v[{name!r}] >> {bits}")
    check = f"_out_of_range({header!r}, v) if {' | '.join(overflow)} else"
    return (
        eval(f"lambda v: {check} ({' | '.join(fields)}).to_bytes({HEADER_BYTES[header]}, 'big')"),
        eval(f"lambda v: {check} complement_fold({' + '.join(words)})"),
    )


def _out_of_range(header: str, values: dict[str, int]):
    raise OverflowError(f"{header} field out of range in {values}")


_PACK = {header: _packer(header) for header in STANDARD_HEADERS}

# The 20 IPv4 header bytes of a field map, in wire order (options
# unsupported), and its header checksum once hdrChecksum is 0.
ipv4_header_bytes, _ipv4_checksum = _PACK["ipv4"]

# The ipv4.protocol under which the template parser extracts each
# transport header.
_L4_PROTOCOL = {"udp": IPPROTO_UDP, "tcp": IPPROTO_TCP}

_FIELD_NAMES = {header: frozenset(bits) for header, bits in HEADER_FIELD_BITS.items()}
_ETH_NAMES, _IPV4_NAMES, _UDP_NAMES, _TCP_NAMES = (
    _FIELD_NAMES[header] for header in ("eth", "ipv4", "udp", "tcp")
)


def _misfit(header: str, fields: Optional[dict[str, int]]) -> MalformedPacket:
    if fields is None:
        return MalformedPacket(f"packet has no {header} header")
    return MalformedPacket(f"{header} fields {sorted(fields)} are not {sorted(_FIELD_NAMES[header])}")


@dataclass
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
        """Raise MalformedPacket for a port out of range, both transport
        headers, a payload that is not bytes, a missing eth or ipv4 map, or
        a header map whose fields are not its header's; the first failing
        test, in that order, words the error."""
        eth, ipv4, udp, tcp = self.eth, self.ipv4, self.udp, self.tcp
        if not 0 <= self.ingress_port <= 0xFFFF:
            raise MalformedPacket(f"ingress port {self.ingress_port} out of range")
        if udp is not None and tcp is not None:
            raise MalformedPacket("packet cannot carry both UDP and TCP")
        if not isinstance(self.payload, (bytes, bytearray)):
            raise MalformedPacket("payload must be bytes")
        if eth is None or eth.keys() != _ETH_NAMES:
            raise _misfit("eth", eth)
        if ipv4 is None or ipv4.keys() != _IPV4_NAMES:
            raise _misfit("ipv4", ipv4)
        if udp is not None and udp.keys() != _UDP_NAMES:
            raise _misfit("udp", udp)
        if tcp is not None and tcp.keys() != _TCP_NAMES:
            raise _misfit("tcp", tcp)

    def stack(self) -> Optional[ProtocolStack]:
        if self.udp is not None:
            return ProtocolStack.IPV4_UDP
        if self.tcp is not None:
            return ProtocolStack.IPV4_TCP
        return None

    def to_bytes(self) -> bytes:
        headers = (
            pack(getattr(self, header))
            for header, (pack, _) in _PACK.items()
            if getattr(self, header) is not None
        )
        return b"".join(headers) + bytes(self.payload)


def _make_packet(
    l4: str,
    fields: dict[str, int],
    payload: bytes,
    ingress_port: int,
    src_addr: int,
    dst_addr: int,
    ttl: int,
) -> SimPacket:
    ipv4 = _zeroed("ipv4") | {
        "version": 4,
        "ihl": 5,
        "totalLen": HEADER_BYTES["ipv4"] + HEADER_BYTES[l4] + len(payload),
        "ttl": ttl,
        "protocol": _L4_PROTOCOL[l4],
        "srcAddr": src_addr,
        "dstAddr": dst_addr,
    }
    ipv4["hdrChecksum"] = _ipv4_checksum(ipv4)
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
    return _make_packet("udp", udp, payload, ingress_port, src_addr, dst_addr, ttl)


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
    return _make_packet("tcp", tcp, payload, ingress_port, src_addr, dst_addr, ttl)
