"""Combination elements installed by click-xform (§6.2).

"We discourage Click programmers from using these combination elements
directly, since they are relatively inflexible and have complex
specifications.  Instead, combination element programmers should write
click-xform patterns that replace general-purpose element collections
with the corresponding combination elements."

``IPInputCombo`` is Figure 4/6's replacement for the input-side chain;
``IPOutputCombo`` replaces the output-side chain (and, via a second
pattern, absorbs IPFragmenter's MTU check).  Their handlers do the same
per-packet work as the chains they replace, in one element body — no
inter-element transfers, shared header parsing, single dispatch — which
is where their speedup comes from.

The compiled fast path does not call these handlers at all: each combo
declares, in :meth:`lowering`, the stages it stands for, and
:mod:`repro.runtime.fastpath` emits each stage with the ``segment`` the
general-purpose element declares, the combo standing in as its
configuration owner and rare cases (drops, side outputs, fragments)
going to the combo's own cold-path methods, so counters and ports stay
the combo's.
"""

from __future__ import annotations

import struct

from ..net.addresses import IPAddress
from ..net.checksum import update_checksum_u16, verify_checksum
from ..net.headers import IP_HEADER_LEN
from .element import ConfigError, Element
from .infrastructure import Strip
from .ip import (
    PACKET_TYPE_BROADCAST,
    CheckIPHeader,
    DecIPTTL,
    DropBroadcasts,
    FixIPSrc,
    IPFragmenter,
    IPGWOptions,
    Paint,
    PaintTee,
    fragment_ip_packet,
)
from .registry import register


@register
class IPInputCombo(Element):
    """Paint(COLOR) + Strip(14) + CheckIPHeader(BADSRC) + GetIPAddress(16)
    in a single element.  Output 0 carries validated IP packets with the
    destination annotation set; bad packets are dropped."""

    class_name = "IPInputCombo"
    processing = "h/h"
    port_counts = "1/1"
    # The configuration of the stages below that is not an argument:
    # Strip(14), CheckIPHeader at offset 0 without the alignment trap.
    nbytes = 14
    offset = 0
    strict_alignment = False
    STATE = {"drops": ("carry", "sum")}

    def lowering(self):
        """``(class, cold path)`` per stage, in packet order: the fast
        path emits ``class.segment`` with this element as its
        configuration owner and calls the named method where the segment
        would have called the general-purpose element.  GetIPAddress(16)
        has no stage: the header check sets the annotation itself."""
        return ((Paint, None), (Strip, self._fail), (CheckIPHeader, self._fail))

    def _fail(self, packet):
        self.drops += 1
        return None

    def configure(self, args):
        if not args or len(args) > 2:
            raise ConfigError("IPInputCombo(COLOR, [BADSRC...])")
        self.color = int(args[0])
        self.bad_src = set()
        if len(args) > 1:
            for addr in args[1].split():
                self.bad_src.add(IPAddress(addr).value)

    def push(self, port, packet):
        # Paint.
        packet.paint = self.color
        # Strip(14).
        if len(packet) < 14 + IP_HEADER_LEN:
            self.drops += 1
            return
        packet.strip(14)
        data = packet.data
        # CheckIPHeader, on the already-fetched bytes.
        version_ihl = data[0]
        if version_ihl >> 4 != 4:
            self.drops += 1
            return
        header_length = (version_ihl & 0xF) * 4
        if header_length < IP_HEADER_LEN or len(data) < header_length:
            self.drops += 1
            return
        total_length = struct.unpack_from("!H", data, 2)[0]
        if total_length < header_length or total_length > len(data):
            self.drops += 1
            return
        if not verify_checksum(data[:header_length]):
            self.drops += 1
            return
        src = struct.unpack_from("!I", data, 12)[0]
        if src in self.bad_src or src == 0xFFFFFFFF:
            self.drops += 1
            return
        packet.ip_header_offset = 0
        # GetIPAddress(16).
        packet.set_dest_ip_anno(struct.unpack_from("!I", data, 16)[0])
        self.output(0).push(packet)


@register
class IPOutputCombo(Element):
    """DropBroadcasts + CheckPaint(COLOR) + IPGWOptions(IP) + FixIPSrc(IP)
    + DecIPTTL — plus, when an MTU is configured, IPFragmenter's
    fragmentation check — in a single element.

    Outputs: 0 forward; 1 same-interface copy (ICMP redirect); 2 option
    problem; 3 TTL expired; 4 fragmentation needed (only with MTU).
    """

    class_name = "IPOutputCombo"
    processing = "h/h"
    port_counts = "1/1-5"
    STATE = {"drops": ("carry", "sum"), "fragments_made": ("carry", "sum")}

    def configure(self, args):
        if len(args) not in (2, 3):
            raise ConfigError("IPOutputCombo(COLOR, IP, [MTU])")
        self.color = int(args[0])
        self.my_ip = IPAddress(args[1])
        self.mtu = int(args[2]) if len(args) == 3 else None

    def lowering(self):
        """See :meth:`IPInputCombo.lowering`.  Output 0 is the chain's
        own continuation; outputs 1-4 are reached only from the cold
        paths."""
        stages = [
            (DropBroadcasts, None),
            (PaintTee, self._tee),
            (IPGWOptions, self._options),
            (FixIPSrc, self._fix_src),
            (DecIPTTL, self._expire),
        ]
        if self.mtu is not None:
            stages.append((IPFragmenter, self._fragment))
        return stages

    # CheckPaint and FixIPSrc read nothing the combo lacks (color, my_ip,
    # output 1), so their cold paths are the elements' own handlers.

    def _tee(self, packet):
        return PaintTee._tee(self, packet)

    def _fix_src(self, packet):
        return FixIPSrc.simple_action(self, packet)

    def _options(self, packet):
        """IPGWOptions: validate by walking; a malformed option sends
        the packet out output 2."""
        data = packet.data
        header_length = (data[0] & 0xF) * 4
        cursor = IP_HEADER_LEN
        while cursor < header_length:
            option = data[cursor]
            if option == 0:
                break
            if option == 1:
                cursor += 1
                continue
            if cursor + 1 >= header_length or data[cursor + 1] < 2 or (
                cursor + data[cursor + 1] > header_length
            ):
                self.checked_push(2, packet)
                return None
            cursor += data[cursor + 1]
        return packet

    def _expire(self, packet):
        self.checked_push(3, packet)
        return None

    def _fragment(self, packet):
        """The absorbed IPFragmenter: an oversize packet leaves as
        fragments on output 0, or whole on output 4 when DF is set."""
        from ..net.headers import IPHeader

        header = IPHeader.unpack(packet.data)
        if header.dont_fragment:
            self.checked_push(4, packet)
            return None
        # Fragment exactly as the IPFragmenter this pattern absorbed
        # would have, so optimized and unoptimized graphs emit
        # identical bytes.
        fragments = fragment_ip_packet(packet, header, self.mtu)
        self.fragments_made += len(fragments)
        for fragment in fragments:
            self.output(0).push(fragment)
        return None

    def push(self, port, packet):
        # DropBroadcasts.
        if packet.user_annos.get("packet_type") == PACKET_TYPE_BROADCAST:
            self.drops += 1
            return
        # CheckPaint (PaintTee semantics: copy to output 1, continue).
        if packet.paint == self.color and self.noutputs > 1:
            self.output(1).push(packet.clone())
        data = packet.data
        # IPGWOptions: options only when IHL > 5.
        if (data[0] & 0xF) * 4 > IP_HEADER_LEN and self._options(packet) is None:
            return
        # FixIPSrc.
        if packet.fix_ip_src_anno:
            self._fix_src(packet)
            data = packet.data
        # DecIPTTL.
        ttl = data[8]
        if ttl <= 1:
            self._expire(packet)
            return
        old_word = struct.unpack_from("!H", data, 8)[0]
        old_checksum = struct.unpack_from("!H", data, 10)[0]
        packet.replace(8, bytes([ttl - 1]))
        packet.replace(
            10, struct.pack("!H", update_checksum_u16(old_checksum, old_word, old_word - 0x0100))
        )
        # Fragmentation check (absorbed IPFragmenter MTU test).
        if self.mtu is not None and len(packet) > self.mtu:
            self._fragment(packet)
            return
        self.output(0).push(packet)
