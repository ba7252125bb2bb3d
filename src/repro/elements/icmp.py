"""ICMP error generation."""

from __future__ import annotations

from ..net.addresses import IPAddress
from ..net.headers import IP_HEADER_LEN, IP_PROTO_ICMP, IPHeader, make_icmp_error
from ..net.packet import Packet
from .element import ConfigError, Element
from .registry import register

_TYPE_NAMES = {
    "unreachable": 3,
    "timeexceeded": 11,
    "time-exceeded": 11,
    "parameterproblem": 12,
    "parameter-problem": 12,
    "redirect": 5,
}

_CODE_NAMES = {
    "net": 0,
    "host": 1,
    "protocol": 2,
    "port": 3,
    "needfrag": 4,
    "transit": 0,
    "reassembly": 1,
    "host-redirect": 1,
}


@register
class ICMPError(Element):
    """Consumes an IP packet and emits the corresponding ICMP error
    message, addressed to the packet's source.  The outgoing packet's
    Fix-IP-Source annotation is set so FixIPSrc stamps the address of
    the interface it actually leaves through — the reason Figure 1's
    output path contains FixIPSrc at all."""

    class_name = "ICMPError"
    processing = "a/a"
    port_counts = "1/1"
    STATE = {"errors_sent": ("carry", "sum")}

    def configure(self, args):
        if len(args) != 3:
            raise ConfigError("ICMPError(MYADDR, TYPE, CODE)")
        self.my_ip = IPAddress(args[0])
        self.icmp_type = self._named(args[1], _TYPE_NAMES, "ICMP type")
        self.icmp_code = self._named(args[2], _CODE_NAMES, "ICMP code")

    @staticmethod
    def _named(text, table, what):
        key = text.strip().lower()
        if key in table:
            return table[key]
        try:
            return int(text)
        except ValueError:
            raise ConfigError("bad %s %r" % (what, text)) from None

    def simple_action(self, packet):
        try:
            original = IPHeader.unpack(packet.data)
        except ValueError:
            return None
        if original.protocol == IP_PROTO_ICMP:
            # Never send ICMP errors about ICMP errors (RFC 1122).
            first_byte = packet.data[original.header_length: original.header_length + 1]
            if first_byte and first_byte[0] not in (0, 8):
                return None
        body = make_icmp_error(self.icmp_type, self.icmp_code, packet.data)
        header = IPHeader(
            src=self.my_ip,
            dst=original.src,
            protocol=IP_PROTO_ICMP,
            ttl=255,
            total_length=IP_HEADER_LEN + len(body),
        )
        error = Packet(header.pack() + body)
        error.set_dest_ip_anno(original.src)
        error.fix_ip_src_anno = True
        self.errors_sent += 1
        return error
