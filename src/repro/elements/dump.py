"""Trace elements: FromDump replays a pcap capture, ToDump records one.

The Click counterparts read and write real capture files; these operate
on files too (and, for tests, on in-memory byte strings via the
``preloaded`` hook).
"""

from __future__ import annotations

from ..net.packet import Packet
from ..net.pcap import read_pcap, write_pcap
from .element import ConfigError, Element
from .registry import register


@register
class FromDump(Element):
    """Replays the packets of a pcap file, ``burst`` per scheduler
    invocation; stops at end of file (optionally looping)."""

    class_name = "FromDump"
    processing = "h/h"
    port_counts = "0/1"
    BURST = 8
    STATE = {"emitted": ("carry", "sum"), "_cursor": ("carry", "first")}

    def configure(self, args):
        if not args or len(args) > 2:
            raise ConfigError("FromDump(FILENAME, [LOOP])")
        self.filename = args[0].strip()
        self.loop = bool(args[1].strip()) if len(args) > 1 and args[1].strip() else False
        self._packets = None

    def preload(self, blob):
        """Tests inject capture bytes instead of reading the file."""
        self._packets = read_pcap(blob)

    def initialize(self):
        if self._packets is None:
            with open(self.filename, "rb") as handle:
                self._packets = read_pcap(handle.read())

    def is_task(self):
        return True

    def run_task(self):
        sent = 0
        while sent < self.BURST:
            if self._cursor >= len(self._packets):
                if not self.loop or not self._packets:
                    break
                self._cursor = 0
            timestamp, data = self._packets[self._cursor]
            self._cursor += 1
            packet = Packet(data)
            packet.timestamp = timestamp
            self.emitted += 1
            sent += 1
            self.output(0).push(packet)
        return sent > 0


@register
class ToDump(Element):
    """Records passing packets; writes the capture at ``flush()`` (and
    passes packets through when an output is connected)."""

    class_name = "ToDump"
    processing = "a/a"
    port_counts = "1/0-1"
    STATE = {"recorded": ("carry", "first")}

    def configure(self, args):
        if not args or len(args) > 1:
            raise ConfigError("ToDump(FILENAME)")
        self.filename = args[0].strip()
        self.recorded = []

    def simple_action(self, packet):
        timestamp = packet.timestamp if packet.timestamp is not None else len(self.recorded) * 1e-6
        self.recorded.append((timestamp, packet.data))
        return packet

    def push(self, port, packet):
        self.simple_action(packet)
        if self.noutputs:
            self.output(0).push(packet)

    def capture_bytes(self):
        return write_pcap(self.recorded)

    def flush(self):
        with open(self.filename, "wb") as handle:
            handle.write(self.capture_bytes())
