"""Fluid-equilibrium model of the forwarding testbed (§8.3-§8.5).

For each offered input rate the solver finds the steady-state rates of
the four §8.4 packet outcomes:

- **sent** — forwarded out the transmit wire;
- **missed frame** — the receiving Tulip failed to fetch a ready RX
  descriptor twice (the CPU isn't emptying the ring fast enough); the
  failed checks still consume PCI bandwidth;
- **FIFO overflow** — the Tulip's internal FIFO filled because the PCI
  bus couldn't carry frames to memory fast enough (no PCI cost); and
- **Queue drop** — frames crossed into memory but the Click Queue
  overflowed because transmission couldn't keep up.

Three resources interact: the CPU (per-packet cost measured by running
the real element graph under the cycle meter), the shared PCI bus (a
byte budget consumed by RX DMA, TX DMA, and failed descriptor checks),
and the transmit wires.  The Tulips' ability to perform descriptor
checks degrades as the bus gets busy, which produces the §8.4 endgame:
"input rates above about 550,000 packets per second do not cause
decreases in forwarding rate" because excess frames overflow the FIFO
without touching the bus.

The same constants drive the time-stepped simulator
(:mod:`repro.sim.timestep`); the tests cross-validate the two.
"""

from __future__ import annotations

from dataclasses import dataclass

from .nic import DESCRIPTOR_BYTES, FRAME_OVERHEAD_BYTES

# Per-packet PCI costs (bytes of effective bus capacity).
RX_BYTES = 64 + DESCRIPTOR_BYTES + FRAME_OVERHEAD_BYTES  # 106 for 64-byte frames
TX_BYTES = 64 + DESCRIPTOR_BYTES + FRAME_OVERHEAD_BYTES
MISSED_FRAME_BYTES = 92  # two descriptor-fetch attempts with arbitration

# Aggregate descriptor-check capacity at an idle bus (checks/s across
# the receiving Tulips); scales down linearly with bus utilization.
CHECK_RATE_IDLE = 4.0e6

_ITERATIONS = 400
_DAMPING = 0.25

# When the bus (not the CPU) limits forwarding, part of the shortfall
# shows up at the Click Queue rather than the NIC FIFO: those packets
# crossed the RX side before transmission stalled (§8.4's Simple
# analysis: "the CPU wanted to send packets faster than the transmitting
# Tulip cards could process them").
QUEUE_DROP_SHARE = 0.35


@dataclass
class Outcomes:
    """Steady-state packet rates (packets/s)."""

    input_rate: float
    sent: float
    missed_frames: float
    fifo_overflows: float
    queue_drops: float

    @property
    def accounted(self):
        return self.sent + self.missed_frames + self.fifo_overflows + self.queue_drops


def solve(input_rate, cpu_ns_per_packet, platform, frame_bytes=64):
    """Equilibrium outcomes for one offered load.

    ``cpu_ns_per_packet`` is the true (meter-overhead-corrected) CPU
    cost of one forwarded packet for the configuration under test.
    """
    bus = platform.pci_bytes_per_sec
    wire = platform.wire_capacity_pps
    cpu_cap = 1e9 / cpu_ns_per_packet if cpu_ns_per_packet > 0 else float("inf")
    input_rate = min(input_rate, platform.max_input_pps)

    rx_bytes = frame_bytes + DESCRIPTOR_BYTES + FRAME_OVERHEAD_BYTES
    tx_bytes = rx_bytes
    per_packet_bytes = rx_bytes + tx_bytes

    # State: sent, missed frames, queue drops.
    sent = min(input_rate, cpu_cap)
    missed = 0.0
    queue_drops = 0.0

    for _ in range(_ITERATIONS):
        rx_crossing = sent + queue_drops
        rho_dma = min(1.0, (rx_crossing * rx_bytes + sent * tx_bytes) / bus)
        check_cap = CHECK_RATE_IDLE * max(0.0, 1.0 - rho_dma)

        # Bus capacity left for full forwarding (RX + TX DMA per packet)
        # after failed checks and queue-dropped RX crossings.
        bus_for_forwarding = max(
            0.0, bus - missed * MISSED_FRAME_BYTES - queue_drops * rx_bytes
        )
        bus_cap = bus_for_forwarding / per_packet_bytes
        sent_target = min(input_rate, cpu_cap, bus_cap, wire)

        # Missed frames: the Tulip finds no ready descriptor — the CPU
        # isn't keeping the ring refilled.  Bounded by the overload
        # beyond the CPU and by the cards' check capacity (which shrinks
        # as DMA occupies the bus — §8.4's saturation endgame).
        missed_target = min(
            max(0.0, input_rate - cpu_cap),
            max(0.0, input_rate - sent_target),
            check_cap,
        )

        # Bus-limited shortfall splits between the NIC FIFO (never
        # crossed) and the Click Queue (crossed RX, couldn't transmit).
        excess = max(0.0, input_rate - sent_target - missed_target)
        bus_limited = bus_cap < min(input_rate, cpu_cap, wire)
        queue_target = QUEUE_DROP_SHARE * excess if bus_limited else 0.0

        sent += _DAMPING * (sent_target - sent)
        missed += _DAMPING * (missed_target - missed)
        queue_drops += _DAMPING * (queue_target - queue_drops)

    fifo = max(0.0, input_rate - sent - missed - queue_drops)
    return Outcomes(
        input_rate=input_rate,
        sent=sent,
        missed_frames=missed,
        fifo_overflows=fifo,
        queue_drops=queue_drops,
    )


def forwarding_curve(input_rates, cpu_ns_per_packet, platform, frame_bytes=64):
    """Figure 10-style series: [(input_rate, forwarding_rate), ...]."""
    return [
        (outcome.input_rate, outcome.sent)
        for outcome in (
            solve(rate, cpu_ns_per_packet, platform, frame_bytes) for rate in input_rates
        )
    ]


def outcome_curve(input_rates, cpu_ns_per_packet, platform, frame_bytes=64):
    """Figure 11-style series of full Outcomes."""
    return [solve(rate, cpu_ns_per_packet, platform, frame_bytes) for rate in input_rates]


def mlffr(cpu_ns_per_packet, platform, frame_bytes=64, tolerance=0.005):
    """Maximum loss-free forwarding rate: the largest input rate whose
    equilibrium forwards (1 - tolerance) of the offered load, found by
    bisection (§8.3)."""
    low = 1_000.0
    high = platform.max_input_pps

    def loss_free(rate):
        outcome = solve(rate, cpu_ns_per_packet, platform, frame_bytes)
        return outcome.sent >= rate * (1.0 - tolerance)

    if not loss_free(low):
        return 0.0
    if loss_free(high):
        return high
    for _ in range(40):
        mid = (low + high) / 2.0
        if loss_free(mid):
            low = mid
        else:
            high = mid
    return low
