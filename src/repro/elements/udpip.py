"""UDP/IP encapsulation and checksum elements."""

from __future__ import annotations

import struct

from ..net.addresses import IPAddress
from ..net.checksum import internet_checksum
from ..net.headers import IP_HEADER_LEN, IP_PROTO_UDP, IPHeader, UDP_HEADER_LEN, UDPHeader
from .element import ConfigError, Element
from .registry import register


@register
class UDPIPEncap(Element):
    """Encapsulates payloads in UDP-in-IP:
    ``UDPIPEncap(SRC, SPORT, DST, DPORT)``.  Sets the destination-IP
    annotation so a downstream ARPQuerier can do its job — the classic
    Click traffic-generator head (``InfiniteSource -> UDPIPEncap ->
    ARPQuerier -> ToDevice``)."""

    class_name = "UDPIPEncap"
    processing = "a/a"
    port_counts = "1/1"
    STATE = {"_identification": ("carry", "first")}

    def configure(self, args):
        if len(args) != 4:
            raise ConfigError("UDPIPEncap(SRC, SPORT, DST, DPORT)")
        self.src = IPAddress(args[0])
        self.src_port = int(args[1])
        self.dst = IPAddress(args[2])
        self.dst_port = int(args[3])

    def simple_action(self, packet):
        payload_length = len(packet)
        udp = UDPHeader(
            self.src_port, self.dst_port, length=UDP_HEADER_LEN + payload_length
        )
        ip = IPHeader(
            src=self.src,
            dst=self.dst,
            protocol=IP_PROTO_UDP,
            total_length=IP_HEADER_LEN + UDP_HEADER_LEN + payload_length,
            identification=self._identification,
        )
        self._identification = (self._identification + 1) & 0xFFFF
        packet.push(udp.pack())
        packet.push(ip.pack())
        packet.set_dest_ip_anno(self.dst)
        packet.ip_header_offset = 0
        return packet


@register
class SetUDPChecksum(Element):
    """Computes the UDP checksum (with the IPv4 pseudo-header) for
    UDP-in-IP packets whose data begins at the IP header."""

    class_name = "SetUDPChecksum"
    processing = "a/a"
    port_counts = "1/1"

    def simple_action(self, packet):
        data = packet.data
        if len(data) < IP_HEADER_LEN + UDP_HEADER_LEN:
            return None
        header_length = (data[0] & 0xF) * 4
        udp_start = header_length
        udp_length = struct.unpack_from("!H", data, udp_start + 4)[0]
        if udp_start + udp_length > len(data):
            return None
        # Pseudo header: src, dst, zero, protocol, UDP length.
        pseudo = data[12:20] + bytes([0, IP_PROTO_UDP]) + struct.pack("!H", udp_length)
        segment = bytearray(data[udp_start:udp_start + udp_length])
        segment[6:8] = b"\x00\x00"
        checksum = internet_checksum(pseudo + bytes(segment))
        if checksum == 0:
            checksum = 0xFFFF  # 0 means "no checksum" in UDP
        packet.replace(udp_start + 6, struct.pack("!H", checksum))
        return packet
