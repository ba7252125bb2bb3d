"""Alignment elements (§7.1).

``Align`` fixes packet-data alignment with a copy; ``AlignmentInfo``
records what alignments elements may assume.  Both exist so that
click-align can make a configuration safe for strict-alignment
architectures without complicating the packet data model.
"""

from __future__ import annotations

from .element import ConfigError, Element
from .registry import register


@register
class Align(Element):
    """``Align(MODULUS, OFFSET)``: ensure packet data satisfies
    ``address % MODULUS == OFFSET``, copying when it doesn't."""

    class_name = "Align"
    processing = "a/a"
    port_counts = "1/1"

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
        self.copies = 0

    def simple_action(self, packet):
        # The fast path inlines exactly this test and Packet.realign's
        # effect (see FastPath._action_segment).
        if packet.data_alignment() % self.modulus != self.offset:
            packet.realign(self.modulus, self.offset)
            self.copies += 1
        return packet


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
