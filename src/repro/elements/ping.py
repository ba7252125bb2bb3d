"""ICMP echo (ping) handling."""

from __future__ import annotations

import struct

from ..net.checksum import internet_checksum
from ..net.headers import ICMP_ECHO, ICMP_ECHO_REPLY, IP_HEADER_LEN, IP_PROTO_ICMP
from .element import Element
from .registry import register


@register
class ICMPPingResponder(Element):
    """Answers ICMP echo requests addressed to this host: swaps the IP
    source and destination, flips the ICMP type to echo-reply, repairs
    both checksums, and emits the reply.  Non-echo traffic is dropped
    (upstream classification should have isolated pings).  The reply's
    destination annotation is set for routing back."""

    class_name = "ICMPPingResponder"
    processing = "a/a"
    port_counts = "1/1"
    STATE = {"replies_sent": ("carry", "sum")}

    def simple_action(self, packet):
        data = packet.data
        if len(data) < IP_HEADER_LEN + 8 or data[9] != IP_PROTO_ICMP:
            return None
        header_length = (data[0] & 0xF) * 4
        if data[header_length] != ICMP_ECHO:
            return None
        # Swap IP addresses, reset TTL, clear fragmentation.
        src = data[12:16]
        dst = data[16:20]
        packet.replace(12, dst + src)
        packet.replace(8, bytes([64]))
        ip_header = bytearray(packet.data[:header_length])
        ip_header[10:12] = b"\x00\x00"
        packet.replace(10, struct.pack("!H", internet_checksum(ip_header)))
        # Echo -> echo reply; recompute the ICMP checksum.
        packet.replace(header_length, bytes([ICMP_ECHO_REPLY]))
        icmp = bytearray(packet.data[header_length:])
        icmp[2:4] = b"\x00\x00"
        packet.replace(header_length + 2, struct.pack("!H", internet_checksum(icmp)))
        from ..net.addresses import IPAddress

        packet.set_dest_ip_anno(IPAddress(bytes(src)))
        self.replies_sent += 1
        return packet
