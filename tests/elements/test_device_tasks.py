"""The compiled task loops leave behind what ``run_task`` does.

A compiled router runs the burst loop its device elements *declare*
(``lowering()``, emitted by ``FastPath._emit_task``) instead of the
hand-written ``PollDevice.run_task`` / ``ToDevice.run_task``.  These
tests hold the unit to the reference loop where the two could part:
an exception in the middle of a burst, a transmit ring that fills
before the burst ends, and the packet the unit builds without calling
``Packet.__init__``.
"""

from dataclasses import replace

import pytest

from repro.elements.devices import LoopbackDevice
from repro.elements.element import Element
from repro.elements.runtime import Router
from repro.lang.build import parse_graph
from repro.net.packet import Packet
from repro.runtime import ExecutionProfile

PUSH_SIDE = "src :: PollDevice(eth0) -> boom :: Boom -> q :: Queue(64) -> dst :: ToDevice(eth1);"
PULL_SIDE = "src :: PollDevice(eth0) -> q :: Queue(64) -> boom :: Boom -> dst :: ToDevice(eth1);"


class Boom(Element):
    """Raises on its third packet, whichever way it is entered."""

    class_name = "Boom"
    processing = "a/a"
    port_counts = "1/1"

    def configure(self, args):
        self.seen = 0

    def simple_action(self, packet):
        self.seen += 1
        if self.seen == 3:
            raise RuntimeError("third packet")
        return packet


def build(text, profile, tx_capacity=64):
    devices = {
        "eth0": LoopbackDevice("eth0"),
        "eth1": LoopbackDevice("eth1", tx_capacity=tx_capacity),
    }
    router = Router(parse_graph(text), extra_classes={"Boom": Boom}, devices=devices, profile=profile)
    compiled = profile.mode != "reference"
    assert all(("run_task" in vars(task)) == compiled for task in router.tasks)
    return router, devices


def state(router, devices):
    return {
        "received": router["src"].received,
        "rx": list(devices["eth0"].rx),
        "queued": [packet.data for packet in router["q"]._deque],
        "sent": router["dst"].sent,
        "idle_polls": router["dst"].idle_polls,
        "transmitted": list(devices["eth1"].transmitted),
    }


def frames(count):
    return [b"\x00\x01\x02\x03\x04\x05frame-%02d" % index for index in range(count)]


COMPILED = [ExecutionProfile.fast(), ExecutionProfile.tiered(), ExecutionProfile.fdd()]


@pytest.mark.parametrize("profile", COMPILED, ids=lambda profile: profile.mode)
@pytest.mark.parametrize("text", [PUSH_SIDE, PULL_SIDE], ids=["poll", "transmit"])
def test_exception_mid_burst_leaves_the_reference_state(text, profile):
    """An element raises on the third packet of a burst of eight,
    unsupervised: the counters, the frames still in the receive ring,
    the Queue and the transmit ring are the reference loop's — the
    burst stopped at the packet that raised, which was consumed."""
    observed = []
    for run_profile in (ExecutionProfile.reference(), profile):
        router, devices = build(text, run_profile)
        for frame in frames(8):
            devices["eth0"].receive_frame(frame)
        with pytest.raises(RuntimeError, match="third packet"):
            router.run_tasks(2)
        after_raise = state(router, devices)
        router.run_tasks(4)  # and the rest of the input drains as usual
        observed.append((after_raise, state(router, devices)))
    assert observed[0] == observed[1]
    after_raise, drained = observed[0]
    if text is PUSH_SIDE:
        assert after_raise["received"] == 3 and len(after_raise["rx"]) == 5
        assert len(after_raise["queued"]) == 2 and after_raise["sent"] == 0
    else:
        assert after_raise["received"] == 8 and after_raise["sent"] == 2
        assert len(after_raise["queued"]) == 5
    assert drained["received"] == 8 and drained["sent"] == 7


@pytest.mark.parametrize("batch", [False, True], ids=["scalar", "batch"])
@pytest.mark.parametrize("profile", COMPILED, ids=lambda profile: profile.mode)
def test_transmit_ring_filling_mid_burst_counts_the_reference_polls(profile, batch):
    """Room for three of a burst of eight: three are sent and the poll
    that finds the ring full is counted, mid-burst and on every later
    pass, exactly as ``ToDevice.run_task`` counts it."""
    observed = []
    for run_profile in (ExecutionProfile.reference(), replace(profile, batch=batch)):
        router, devices = build(PUSH_SIDE.replace("boom :: Boom -> ", ""), run_profile, tx_capacity=3)
        for frame in frames(8):
            devices["eth0"].receive_frame(frame)
        passes = []
        for _ in range(3):
            router.run_tasks(1)
            passes.append(state(router, devices))
        del devices["eth1"].transmitted[:2]  # the wire drains two slots
        router.run_tasks(1)
        passes.append(state(router, devices))
        observed.append(passes)
    assert observed[0] == observed[1]
    first, second, _third, drained = observed[0]
    assert (first["sent"], first["idle_polls"]) == (3, 1)
    assert (second["sent"], second["idle_polls"]) == (3, 2)
    assert (drained["sent"], drained["idle_polls"]) == (5, 4)


@pytest.mark.parametrize("batch", [False, True], ids=["scalar", "batch"])
@pytest.mark.parametrize(
    "frame",
    [b"\x00\x11\x22\x33\x44\x55 unicast", b"\xff" * 6 + b" broadcast", b"\x01\x00\x5e\x00\x00\x01 multicast", b""],
    ids=["unicast", "broadcast", "multicast", "empty"],
)
def test_compiled_poll_builds_the_packet_the_constructor_builds(frame, batch):
    """Every slot ``Packet.__init__`` sets, the annotations
    ``PollDevice.run_task`` adds, and a contents cache that is the
    frame itself."""
    packets = []
    for profile in (ExecutionProfile.reference(), ExecutionProfile.fast(batch=batch)):
        router, devices = build("src :: PollDevice(eth0) -> q :: Queue(8) -> dst :: ToDevice(eth1);", profile)
        devices["eth0"].receive_frame(frame)
        router["src"].run_task()
        packets.append(router["q"]._deque.popleft())
    reference, compiled = packets
    for slot in Packet.__slots__:
        assert getattr(compiled, slot) == getattr(reference, slot), slot
    assert compiled._data_cache is compiled.data and compiled.device_anno == "eth0"
