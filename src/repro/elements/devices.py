"""Device elements: PollDevice, FromDevice, ToDevice.

Click replaces the interrupt-driven network stack with polling device
drivers scheduled by a constantly-active kernel thread (§3).  These
elements bind to *device objects* supplied by the environment — the
hardware simulation provides Tulip models (:mod:`repro.sim.nic`); tests
can use the in-memory :class:`LoopbackDevice`.

A device object implements:

    ``rx_dequeue() -> bytes | None``  — next received frame, if any
    ``tx_room() -> int``              — free transmit-ring slots
    ``tx_enqueue(bytes) -> bool``     — queue a frame for transmission

and may declare its rings (``ring``, see :class:`LoopbackDevice`) for a
compiled task loop to read in place of the three calls.  The per-packet
CPU cost of talking to the hardware (DMA descriptor reads, ring
maintenance — Figure 8's "device interactions") is charged through the
meter as ``rx_device`` / ``tx_device`` work.

``run_task`` is each element's one hand-written burst loop: the
reference semantics, and what a router runs that is fault-wrapped or
on a device declaring no rings (a metered router runs no fast path at
all).  Otherwise the fast path compiles the loop from ``lowering()``
(``FastPath._emit_task``).
"""

from __future__ import annotations

from collections import deque

from ..net.addresses import EtherAddress
from ..net.packet import Packet
from .element import ConfigError, Element
from .ip import PACKET_TYPE_BROADCAST, PACKET_TYPE_HOST, PACKET_TYPE_MULTICAST
from .registry import register


class LoopbackDevice:
    """A trivial in-memory device for tests: frames placed on ``rx`` are
    received; transmitted frames accumulate in ``transmitted``."""

    def __init__(self, name="loop0", tx_capacity=64):
        self.name = name
        self.rx = deque()
        self.transmitted = []
        self.tx_capacity = tx_capacity

    #: The ring facts, as attribute names: received frames wait in the
    #: deque ``rx``; ``tx_enqueue`` appends to the list ``transmitted``
    #: while it is shorter than ``tx_capacity``.  Describes the calls
    #: below: a subclass overriding one, or a proxy, declares nothing.
    ring = {"rx": "rx", "tx": "transmitted", "capacity": "tx_capacity"}

    def receive_frame(self, frame):
        self.rx.append(bytes(frame))

    def rx_dequeue(self):
        if not self.rx:
            return None
        return self.rx.popleft()

    def tx_room(self):
        return self.tx_capacity - len(self.transmitted)

    def tx_enqueue(self, frame):
        if self.tx_room() <= 0:
            return False
        self.transmitted.append(bytes(frame))
        return True


def _classify_frame(packet):
    # Unicast is the common case, and the group bit alone decides it —
    # look at one byte before paying for the 6-byte slice.
    buf = packet._buf
    offset = packet._data_offset
    if len(buf) > offset and not buf[offset] & 0x01:
        packet.user_annos["packet_type"] = PACKET_TYPE_HOST
        return packet
    dst = packet.data[:6]
    if dst == b"\xff\xff\xff\xff\xff\xff":
        packet.user_annos["packet_type"] = PACKET_TYPE_BROADCAST
    elif dst and dst[0] & 0x01:
        packet.user_annos["packet_type"] = PACKET_TYPE_MULTICAST
    else:
        packet.user_annos["packet_type"] = PACKET_TYPE_HOST
    return packet


@register
class PollDevice(Element):
    """Polls a device's receive ring and pushes frames into the graph.
    One of the two task elements on every forwarding path.  A compiled
    router runs the loop ``lowering()`` declares, not ``run_task``."""

    class_name = "PollDevice"
    processing = "h/h"
    port_counts = "0/1"
    BURST = 8
    STATE = {"received": ("carry", "sum")}

    def configure(self, args):
        if len(args) != 1:
            raise ConfigError("PollDevice needs a device name")
        self.devname = args[0].strip()
        self.device = None

    def initialize(self):
        self.device = self.router.devices.get(self.devname)
        if self.device is None:
            raise ConfigError("no such device %r" % self.devname)

    def is_task(self):
        return True

    def run_task(self):
        port = self.output(0)
        worked = False
        for _ in range(self.BURST):
            frame = self.device.rx_dequeue()
            if frame is None:
                break
            self.charge("rx_device")
            packet = Packet(frame)
            packet.device_anno = self.devname
            _classify_frame(packet)
            self.received += 1
            port.push(packet)
            worked = True
        return worked

    def lowering(self):
        """The receive segment of the compiled loop, per frame of the
        device's ``rx`` ring, in ``run_task``'s order: ``Packet(frame)``
        slot for slot (``bytes`` frames seed the contents cache),
        ``device_anno`` from the named attribute, ``packet_type`` HOST
        on a clear group bit with ``_classify_frame`` as the cold path,
        ``received`` counted once per burst."""
        return {"ring": "rx", "burst": self.BURST, "count": "received", "device_anno": "devname",
                "packet_type": (PACKET_TYPE_HOST, _classify_frame)}


@register
class FromDevice(PollDevice):
    """Interrupt-style receive; identical behaviour under the polling
    simulation, kept as a distinct class name for configurations."""

    class_name = "FromDevice"


@register
class ToDevice(Element):
    """Pulls packets (normally from a Queue) and places them on a
    device's transmit ring; the other task element on each path
    (compiled from ``lowering()`` like :class:`PollDevice`)."""

    class_name = "ToDevice"
    processing = "l/l"
    port_counts = "1/0"
    BURST = 8
    STATE = {"sent": ("carry", "sum"), "idle_polls": ("carry", "sum")}

    def configure(self, args):
        if len(args) != 1:
            raise ConfigError("ToDevice needs a device name")
        self.devname = args[0].strip()
        self.device = None

    def initialize(self):
        self.device = self.router.devices.get(self.devname)
        if self.device is None:
            raise ConfigError("no such device %r" % self.devname)

    def is_task(self):
        return True

    def run_task(self):
        port = self.input(0)
        worked = False
        for _ in range(self.BURST):
            if self.device.tx_room() <= 0:
                # Transmit DMA queue full: choose not to pull (the
                # behaviour §8.4's instrumentation observed).
                self.idle_polls += 1
                break
            packet = port.pull()
            if packet is None:
                break
            self.charge("tx_device")
            self.device.tx_enqueue(packet.data)
            self.sent += 1
            worked = True
        return worked

    def lowering(self):
        """The transmit segment of the compiled loop: room on the
        device's ``tx`` ring read once per burst, at most ``BURST``
        pulls, each packet's ``data`` appended, ``sent`` counted once
        per burst, ``idle_polls`` wherever ``run_task`` counts it — the
        ring found full before a pull, mid-burst included."""
        return {"ring": "tx", "burst": self.BURST, "count": "sent", "full": "idle_polls"}


@register
class EnsureEther(Element):
    """Guarantees an Ethernet header: packets that already look like
    Ethernet pass through; anything else gets the configured header."""

    class_name = "EnsureEther"
    processing = "a/a"
    port_counts = "1/1"

    def configure(self, args):
        if len(args) != 3:
            raise ConfigError("EnsureEther(ETHERTYPE, SRC, DST)")
        self.ether_type = int(args[0], 0)
        self.src = EtherAddress(args[1])
        self.dst = EtherAddress(args[2])

    def simple_action(self, packet):
        from ..net.headers import make_ether_header

        if len(packet) >= 14 and packet.data[12:14] == self.ether_type.to_bytes(2, "big"):
            return packet
        packet.push(make_ether_header(self.dst, self.src, self.ether_type))
        return packet
