"""Alignment elements (§7.1).

``Align`` fixes packet-data alignment with a copy; ``AlignmentInfo``
records what alignments elements may assume.  Both exist so that
click-align can make a configuration safe for strict-alignment
architectures without complicating the packet data model.
"""

from __future__ import annotations

from ..net.packet import DEFAULT_HEADROOM, realigned_buffer_alignment
from .element import ConfigError, Element
from .registry import register


@register
class Align(Element):
    """``Align(MODULUS, OFFSET)``: ensure packet data satisfies
    ``address % MODULUS == OFFSET``, copying when it doesn't."""

    class_name = "Align"
    processing = "a/a"
    port_counts = "1/1"
    STATE = {"copies": ("carry", "sum")}

    def configure(self, args):
        if len(args) != 2:
            raise ConfigError("Align(MODULUS, OFFSET)")
        self.modulus = int(args[0])
        self.offset = int(args[1])
        # Packets track their data pointer modulo 4 (Packet.data_alignment),
        # so nothing finer could ever be satisfied; click-align's
        # lattice stops at 4 and never asks for more.
        if self.modulus not in (2, 4):
            raise ConfigError("Align modulus must be 2 or 4")
        if not 0 <= self.offset < self.modulus:
            raise ConfigError("Align offset must be in [0, modulus)")

    def simple_action(self, packet):
        if packet.data_alignment() % self.modulus != self.offset:
            packet.realign(self.modulus, self.offset)
            self.copies += 1
        return packet

    def segment(self, cold, cx):
        """This test and Packet.realign's effect in line.  The copy
        leaves the contents as they were, so the contents local and
        every fact about it survive (``data`` is consumed).  Produces
        ``off``: a rebuilt buffer has one layout, so the rest of the
        chain is emitted for it with the data offset folded into
        constants.  click-align places an Align only where its input is
        not aligned already; a packet that is takes the chain compiled
        for this edge instead."""
        e = cx.element(self)
        room = bytearray(DEFAULT_HEADROOM)
        r = cx.bind(room)
        facts = cx.facts
        cvar = facts.get("data") if facts else None
        modulus, offset = self.modulus, self.offset
        aligned = realigned_buffer_alignment(modulus, offset)
        jt = None
        if facts is not None:
            jt = cx.jump_table(self, "plain")
            facts["off"] = DEFAULT_HEADROOM

        def seg(var, pad, exitstmt):
            test = "if (%s.buffer_alignment + %s._data_offset) %% %d != %d:" % (var, var, modulus, offset)
            lines = [pad + test] + ([] if cvar else cx.contents(var, pad + "    "))
            lines += [
                pad + "    %s._buf = %s + %s" % (var, r, cvar or "c"),
                pad + "    %s._data_offset = %d" % (var, DEFAULT_HEADROOM),
                pad + "    %s.buffer_alignment = %d" % (var, aligned),
                pad + "    %s.copies += 1" % e,
            ]
            if jt is not None:
                lines += [pad + "else:", pad + "    %s[0](%s)" % (jt, var), pad + "    " + exitstmt]
            return lines

        return seg


@register
class AlignmentInfo(Element):
    """Pure specification carrier: ``AlignmentInfo(elt MOD OFF, ...)``
    tells named elements what alignment they can expect.  At run time it
    does nothing; click-align emits it and elements could consult it."""

    class_name = "AlignmentInfo"
    processing = "a/a"
    port_counts = "0/0"

    def configure(self, args):
        self.entries = {}
        for arg in args:
            fields = arg.split()
            if len(fields) != 3:
                raise ConfigError("bad AlignmentInfo entry %r" % arg)
            name, modulus, offset = fields
            self.entries[name] = (int(modulus), int(offset))
