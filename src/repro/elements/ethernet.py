"""Ethernet encapsulation elements."""

from __future__ import annotations

from ..net.addresses import EtherAddress
from ..net.headers import EtherHeader, make_ether_header
from .element import ConfigError, Element
from .ip import (
    PACKET_TYPE_BROADCAST,
    PACKET_TYPE_HOST,
    PACKET_TYPE_MULTICAST,
    PACKET_TYPE_OTHERHOST,
)
from .registry import register


@register
class EtherEncap(Element):
    """Prepends a fixed Ethernet header: ``EtherEncap(0x0800, SRC, DST)``."""

    class_name = "EtherEncap"
    processing = "a/a"
    port_counts = "1/1"

    def configure(self, args):
        if len(args) != 3:
            raise ConfigError("EtherEncap(ETHERTYPE, SRC, DST)")
        try:
            self.ether_type = int(args[0], 0)
        except ValueError:
            raise ConfigError("bad ethertype %r" % args[0]) from None
        self.src = EtherAddress(args[1])
        self.dst = EtherAddress(args[2])
        self._header = make_ether_header(self.dst, self.src, self.ether_type)

    def simple_action(self, packet):
        packet.push(self._header)
        return packet

    def segment(self, cold, cx):
        """Packet.push in line; every fact goes."""
        if cx.facts:
            cx.facts.clear()
        h, hlen = cx.attr(self, "_header"), len(self._header)
        return lambda var, pad, exitstmt: cx.prepend(var, pad, h, hlen)


@register
class HostEtherFilter(Element):
    """Marks packets by destination Ethernet address (host / broadcast /
    multicast / other-host), dropping other-host frames unless DROP_OWN
    says otherwise; the device layer's promiscuous-mode companion."""

    class_name = "HostEtherFilter"
    processing = "a/ah"
    port_counts = "1/1-2"
    STATE = {"drops": ("carry", "sum")}

    def configure(self, args):
        if not args:
            raise ConfigError("HostEtherFilter needs our Ethernet address")
        self.my_ether = EtherAddress(args[0])

    def push(self, port, packet):
        result = self._classify(packet)
        if result is not None:
            self.output(0).push(result)

    def pull(self, port):
        packet = self.input(0).pull()
        if packet is None:
            return None
        return self._classify(packet)

    def _classify(self, packet):
        try:
            header = EtherHeader.unpack(packet.data)
        except ValueError:
            self.drops += 1
            return None
        if header.dst == self.my_ether:
            packet.user_annos["packet_type"] = PACKET_TYPE_HOST
            return packet
        if header.dst.is_broadcast():
            packet.user_annos["packet_type"] = PACKET_TYPE_BROADCAST
            return packet
        if header.dst.is_group():
            packet.user_annos["packet_type"] = PACKET_TYPE_MULTICAST
            return packet
        packet.user_annos["packet_type"] = PACKET_TYPE_OTHERHOST
        if self.noutputs > 1:
            self.output(1).push(packet)
        else:
            self.drops += 1
        return None
