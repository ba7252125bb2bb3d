"""ARP elements: ARPQuerier, ARPResponder.

ARPQuerier is the Figure 2 element: the IP router has one per interface,
each connecting to a different downstream Queue — same class, different
targets, which is exactly the pattern that defeats the branch predictor.
It is also the element the "MR" multiple-router optimization removes on
point-to-point links (§7.2).
"""

from __future__ import annotations

from ..net.addresses import EtherAddress, IPAddress
from ..net.headers import (
    ARP_OP_REPLY,
    ARP_OP_REQUEST,
    ETHER_HEADER_LEN,
    ETHERTYPE_IP,
    ArpHeader,
    HeaderError,
    build_arp_reply,
    build_arp_request,
    make_ether_header,
)
from ..net.packet import Packet
from .element import ConfigError, Element
from .registry import register


@register
class ARPQuerier(Element):
    """Encapsulates IP packets in Ethernet headers, using ARP to find
    the destination's hardware address.

    Input 0 takes IP packets annotated with a next-hop address; input 1
    takes ARP responses from the wire.  Output 0 emits Ethernet frames —
    either encapsulated IP packets or ARP queries.  Packets for unknown
    destinations wait in a small per-address holding queue.
    """

    class_name = "ARPQuerier"
    processing = "h/h"
    flow_code = "xy/x"
    port_counts = "2/1"
    HOLD_LIMIT = 4
    # Port 0's push is exactly _handle_ip: encapsulated packets (and ARP
    # queries) leave via output(0) from inside the method, so it always
    # returns None and the fast path may inline it.  Port 1 (responses)
    # is traced as its own chain and still dispatches through push().
    fast_action = "_handle_ip"
    STATE = {
        "drops": ("carry", "sum"),
        "queries_sent": ("carry", "sum"),
        "replies_handled": ("carry", "sum"),
        "table": ("carry", "first"),
        "pending": ("carry", "first"),
        # Bumped whenever the table (and so a cached header) may change;
        # the adaptive fast path bakes a header behind an epoch guard,
        # so any bump sends speculated packets back to the live dicts.
        # The lazy header build in _handle_ip does not bump: it only
        # materializes what the current table already implies.
        "_arp_epoch": ("carry", "first"),
        "_headers": ("reset", "first"),  # rebuilt from the table on use
    }

    def configure(self, args):
        if len(args) != 2:
            raise ConfigError("ARPQuerier needs IP and Ethernet addresses")
        self.my_ip = IPAddress(args[0])
        self.my_ether = EtherAddress(args[1])
        self.table = {}  # IP value -> EtherAddress
        self._headers = {}  # IP value -> ready-made Ethernet header bytes
        self.pending = {}  # IP value -> [Packet]

    def insert(self, ip, ether):
        """Seed the ARP table (tests and the MR configurations use this)."""
        value = IPAddress(ip).value
        self.table[value] = EtherAddress(ether)
        self._headers.pop(value, None)
        self._arp_epoch += 1

    def push(self, port, packet):
        if port == 0:
            self._handle_ip(packet)
        else:
            self._handle_response(packet)

    def _next_hop(self, packet):
        if packet.dest_ip_anno is not None:
            return packet.dest_ip_anno
        return None

    def _handle_ip(self, packet):
        next_hop = self._next_hop(packet)
        if next_hop is None:
            self.drops += 1
            return
        header = self._headers.get(next_hop.value)
        if header is None and next_hop.value in self.table:
            # Build the encapsulation header once per resolved address
            # (Click keeps it in the ARP entry for the same reason).
            header = make_ether_header(
                self.table[next_hop.value], self.my_ether, ETHERTYPE_IP
            )
            self._headers[next_hop.value] = header
        if header is not None:
            packet.push(header)
            self.output(0).push(packet)
            return
        # Unknown: hold the packet and broadcast a query.
        queue = self.pending.setdefault(next_hop.value, [])
        if len(queue) >= self.HOLD_LIMIT:
            queue.pop(0)
            self.drops += 1
        queue.append(packet)
        query = Packet(build_arp_request(self.my_ether, self.my_ip, next_hop))
        self.queries_sent += 1
        self.output(0).push(query)

    def segment(self, cold, cx):
        """Common case in line: a resolved next hop whose Ethernet
        header is already built — encapsulate and keep going.  Every
        other case (unresolved, unannotated, header not yet cached)
        takes ``cold``, which drops/queues/queries and pushes through
        the output port itself.  Under a profile, the hot next hop's
        header is speculated behind an identity test on the interned
        destination plus the table epoch, which any table change bumps,
        so the guard fails safe into the generic probe.  Consumes
        ``off`` (the speculated header's headroom test folds); every
        fact goes."""
        facts = cx.facts
        off = facts.get("off") if facts else None
        if facts:
            facts.clear()
        g, a = cx.attr(self, "_headers", "get"), cx.method(cold)
        constant = cx.policy.arp_constant(self)
        hot = miss = None
        if constant is not None:
            raw, header, epoch = constant
            header = bytes(header)
            hot = (cx.ip(raw), cx.bind(header), cx.element(self), int(epoch), len(header))
            cx.count("guarded_branches")
            miss_token = cx.policy.guard_counter(self, "arp")
            if miss_token is not None:
                miss = cx.bind_policy(miss_token)

        def seg(var, pad, exitstmt):
            lines = [pad + "dst = %s.dest_ip_anno" % var]
            inner = pad
            if hot is not None:
                hot_ip, hot_hdr, e, epoch, hl = hot
                lines.append(pad + "if dst is %s and %s._arp_epoch == %d:" % (hot_ip, e, epoch))
                if off is not None and off >= hl:
                    # Known layout, known header: the headroom test
                    # is decided here and the slice bounds fold.
                    lines += [
                        pad + "    %s._buf[%d:%d] = %s" % (var, off - hl, off, hot_hdr),
                        pad + "    %s._data_offset = %d" % (var, off - hl),
                        pad + "    %s._data_cache = None" % var,
                    ]
                else:
                    lines += cx.prepend(var, pad + "    ", hot_hdr, hl)
                lines.append(pad + "else:")
                inner = pad + "    "
                if miss is not None:
                    lines.append(inner + "%s()" % miss)
            push = cx.prepend(var, inner, "hdr", "hl")
            push.insert(1, inner + "hl = len(hdr)")
            return lines + [
                inner + "hdr = %s(dst.value) if dst is not None else None" % g,
                inner + "if hdr is None:",
                inner + "    %s(%s)" % (a, var),
                inner + "    " + exitstmt,
            ] + push

        return seg

    def _handle_response(self, packet):
        try:
            arp = ArpHeader.unpack(packet.data[ETHER_HEADER_LEN:])
        except HeaderError:
            self.drops += 1
            return
        if arp.operation != ARP_OP_REPLY:
            self.drops += 1
            return
        self.replies_handled += 1
        self.table[arp.sender_ip.value] = arp.sender_ether
        self._headers.pop(arp.sender_ip.value, None)
        self._arp_epoch += 1
        for held in self.pending.pop(arp.sender_ip.value, []):
            header = make_ether_header(arp.sender_ether, self.my_ether, ETHERTYPE_IP)
            held.push(header)
            self.output(0).push(held)


@register
class ARPResponder(Element):
    """Replies to ARP queries for the configured addresses.  Each
    configuration argument is ``"IP[/mask] ETHER"``."""

    class_name = "ARPResponder"
    processing = "a/a"
    port_counts = "1/1"
    STATE = {"replies_sent": ("carry", "sum")}

    def configure(self, args):
        if not args:
            raise ConfigError("ARPResponder needs at least one 'IP ETHER' entry")
        self.entries = []
        for arg in args:
            fields = arg.split()
            if len(fields) != 2:
                raise ConfigError("bad ARPResponder entry %r" % arg)
            from ..net.addresses import parse_ip_prefix

            addr, mask = parse_ip_prefix(fields[0])
            self.entries.append((addr.value & mask, mask, EtherAddress(fields[1])))

    def lookup(self, ip):
        value = IPAddress(ip).value
        for network, mask, ether in self.entries:
            if (value & mask) == network:
                return ether
        return None

    def simple_action(self, packet):
        try:
            arp = ArpHeader.unpack(packet.data[ETHER_HEADER_LEN:])
        except HeaderError:
            return None
        if arp.operation != ARP_OP_REQUEST:
            return None
        ether = self.lookup(arp.target_ip)
        if ether is None:
            return None
        self.replies_sent += 1
        reply = Packet(
            build_arp_reply(ether, arp.target_ip, arp.sender_ether, arp.sender_ip)
        )
        return reply
