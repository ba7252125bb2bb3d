"""The CPU cost meter: cycles, branch prediction, caches.

A :class:`CycleMeter` attaches to a runtime Router (``Router(graph,
meter=...)``) and charges cycles as the *real element graph* processes
packets (a metered router runs the reference interpreter under any
profile).  Costs are attributed to the paper's three categories
(Figure 8): receiving device interactions, the Click forwarding path,
and transmitting device interactions.

Branch prediction follows §3: the Pentium caches indirect-branch targets
per call site.  A packet transfer's call site is the transferring
element's *class* and port — so two same-class elements share a site
(Figure 2), and the predicted target is the receiving element's class
(its ``push`` entry in the vtable).  Elements written with the
``simple_action`` sugar share one further dispatch site across *all*
such classes (footnote 1: simple_action "can halve their code size, but
confuses the predictor"), which is why a chain of distinct small
elements mispredicts on nearly every hop — and why click-xform's combos
and click-devirtualize's specialized classes help beyond saved call
overhead.
"""

from __future__ import annotations

from ..elements.element import InputPort
from . import cost


class BranchTargetBuffer:
    """Per-call-site last-target cache."""

    def __init__(self):
        self._targets = {}
        self.hits = 0
        self.misses = 0

    def access(self, site, target):
        """Record a branch at ``site`` to ``target``; True if predicted."""
        predicted = self._targets.get(site)
        self._targets[site] = target
        if predicted == target:
            self.hits += 1
            return True
        self.misses += 1
        return False


def uses_simple_action(element):
    """True if the element's class relies on the shared simple_action
    dispatch (:meth:`Element.uses_simple_action`)."""
    return type(element).uses_simple_action()


class CategoryTotals:
    """Cycle totals per Figure 8 category."""

    __slots__ = ("rx_device", "forwarding", "tx_device")

    def __init__(self):
        self.rx_device = 0
        self.forwarding = 0
        self.tx_device = 0

    @property
    def total(self):
        return self.rx_device + self.forwarding + self.tx_device


class CycleMeter:
    """The meter interface the runtime Router calls."""

    def __init__(self):
        self.totals = CategoryTotals()
        self.btb = BranchTargetBuffer()
        self.transfers = 0
        self.direct_transfers = 0
        self.element_entries = 0
        self.dynamic = {}
        self._packets_seen = 0
        # Cycles the CPU spends stalled rather than retiring
        # instructions: memory fetches and misprediction recovery.
        self.stall_cycles = 0

    # -- category attribution -------------------------------------------------

    @staticmethod
    def _category(element):
        name = cost.base_class_name(element)
        if name in ("PollDevice", "FromDevice"):
            return "rx_device"
        if name == "ToDevice":
            return "tx_device"
        return "forwarding"

    def _charge(self, element, cycles):
        category = self._category(element)
        setattr(self.totals, category, getattr(self.totals, category) + cycles)

    # -- meter interface --------------------------------------------------------

    def on_transfer(self, port):
        """A packet transfer through ``port`` (push or pull)."""
        self.transfers += 1
        element = port.element
        if not port.virtual:
            self.direct_transfers += 1
            self._charge(element, cost.CYCLES_DIRECT_CALL)
            return
        if isinstance(port, InputPort):
            site = (type(element).__name__, "pull", port.port)
            target = type(port.source).__name__
        else:
            site = (type(element).__name__, "push", port.port)
            target = type(port.target).__name__
        predicted = self.btb.access(site, target)
        if not predicted:
            self.stall_cycles += (
                cost.CYCLES_VIRTUAL_CALL_MISPREDICTED - cost.CYCLES_VIRTUAL_CALL_PREDICTED
            )
        self._charge(
            element,
            cost.CYCLES_VIRTUAL_CALL_PREDICTED
            if predicted
            else cost.CYCLES_VIRTUAL_CALL_MISPREDICTED,
        )

    def on_element_work(self, element):
        """A packet entered ``element``'s handler."""
        self.element_entries += 1
        devirtualized = getattr(element, "devirtualized", False)
        entry = (
            cost.CYCLES_ELEMENT_ENTRY_DEVIRTUALIZED
            if devirtualized
            else cost.CYCLES_ELEMENT_ENTRY
        )
        work = cost.work_cycles(getattr(element, "class_name", ""))
        if work is None:
            work = cost.ELEMENT_WORK_CYCLES.get(cost.base_class_name(element), 10)
        self._charge(element, entry + work)
        # The shared simple_action dispatch: one more indirect branch,
        # through a call site shared by every simple_action class.
        if not devirtualized and uses_simple_action(element):
            predicted = self.btb.access(("Element::simple_action",), type(element).__name__)
            if not predicted:
                self.stall_cycles += (
                    cost.CYCLES_VIRTUAL_CALL_MISPREDICTED - cost.CYCLES_VIRTUAL_CALL_PREDICTED
                )
            self._charge(
                element,
                cost.CYCLES_VIRTUAL_CALL_PREDICTED
                if predicted
                else cost.CYCLES_VIRTUAL_CALL_MISPREDICTED,
            )

    def on_dynamic_work(self, element, kind, amount):
        cycles = cost.DYNAMIC_COST_CYCLES.get(kind, 0) * amount
        self.dynamic[kind] = self.dynamic.get(kind, 0) + amount
        self._charge(element, cycles)
        if kind == "rx_device":
            # Per-packet costs that belong to no single element: the
            # forwarding path's two header-fetch cache misses and the
            # scheduler's per-packet share.
            self.totals.forwarding += (
                cost.FORWARDING_CACHE_MISSES * cost.CYCLES_MEMORY_FETCH
                + cost.CYCLES_SCHEDULER_PER_PACKET
            )
            self.stall_cycles += cost.FORWARDING_CACHE_MISSES * cost.CYCLES_MEMORY_FETCH
            self._packets_seen += 1

    def on_task(self, element):
        """A scheduler slot; per-packet scheduling is charged via
        rx_device above, so idle polls cost nothing here."""

    # -- merging (the sharded data plane) -----------------------------------------

    def summary(self):
        """A flat snapshot of every monotonic count this meter holds —
        the unit the sharded data plane reconciles: per-shard meters
        snapshot, subtract, and :meth:`absorb` deltas into one parent
        meter."""
        return {
            "rx_device": self.totals.rx_device,
            "forwarding": self.totals.forwarding,
            "tx_device": self.totals.tx_device,
            "btb_hits": self.btb.hits,
            "btb_misses": self.btb.misses,
            "transfers": self.transfers,
            "direct_transfers": self.direct_transfers,
            "element_entries": self.element_entries,
            "packets_seen": self._packets_seen,
            "stall_cycles": self.stall_cycles,
            "dynamic": dict(self.dynamic),
        }

    def absorb(self, summary):
        """Merge another meter's :meth:`summary` (or a delta of two
        summaries) into this one.  Pure count addition — associative
        and commutative, so shards can be absorbed in any order and any
        grouping and the totals agree.  The BTB's *prediction state*
        (last target per site) deliberately does not merge: each shard
        predicts against its own history, exactly as per-core BTBs do.
        """
        self.totals.rx_device += summary.get("rx_device", 0)
        self.totals.forwarding += summary.get("forwarding", 0)
        self.totals.tx_device += summary.get("tx_device", 0)
        self.btb.hits += summary.get("btb_hits", 0)
        self.btb.misses += summary.get("btb_misses", 0)
        self.transfers += summary.get("transfers", 0)
        self.direct_transfers += summary.get("direct_transfers", 0)
        self.element_entries += summary.get("element_entries", 0)
        self._packets_seen += summary.get("packets_seen", 0)
        self.stall_cycles += summary.get("stall_cycles", 0)
        for kind, amount in summary.get("dynamic", {}).items():
            self.dynamic[kind] = self.dynamic.get(kind, 0) + amount
        return self

    # -- reporting ----------------------------------------------------------------

    @property
    def mispredicts(self):
        return self.btb.misses

    def report(self, packets, clock_mhz=700.0):
        """Per-packet nanosecond costs over ``packets`` forwarded."""
        if packets <= 0:
            raise ValueError("no packets forwarded")
        scale = 1000.0 / clock_mhz / packets  # cycles -> ns/packet
        busy = max(0, self.totals.forwarding - self.stall_cycles)
        return CPUReport(
            rx_device_ns=self.totals.rx_device * scale,
            forwarding_ns=self.totals.forwarding * scale,
            tx_device_ns=self.totals.tx_device * scale,
            transfers_per_packet=self.transfers / packets,
            mispredicts_per_packet=self.btb.misses / packets,
            element_entries_per_packet=self.element_entries / packets,
            instructions_per_packet=busy * cost.INSTRUCTIONS_PER_BUSY_CYCLE / packets,
        )


class CPUReport:
    """Figure 8-style cost breakdown (measured values, i.e. including
    the performance-counter overhead the paper describes)."""

    def __init__(
        self,
        rx_device_ns,
        forwarding_ns,
        tx_device_ns,
        transfers_per_packet=0.0,
        mispredicts_per_packet=0.0,
        element_entries_per_packet=0.0,
        instructions_per_packet=0.0,
    ):
        self.rx_device_ns = rx_device_ns
        self.forwarding_ns = forwarding_ns
        self.tx_device_ns = tx_device_ns
        self.transfers_per_packet = transfers_per_packet
        self.mispredicts_per_packet = mispredicts_per_packet
        self.element_entries_per_packet = element_entries_per_packet
        self.instructions_per_packet = instructions_per_packet

    @property
    def total_ns(self):
        return self.rx_device_ns + self.forwarding_ns + self.tx_device_ns

    @property
    def true_total_ns(self):
        """Total with the measurement overhead removed (§8.2's observed
        vs implied rate discrepancy)."""
        return self.total_ns * cost.MEASUREMENT_OVERHEAD_FACTOR

    def __repr__(self):
        return "CPUReport(rx=%.0f fwd=%.0f tx=%.0f total=%.0f ns/packet)" % (
            self.rx_device_ns,
            self.forwarding_ns,
            self.tx_device_ns,
            self.total_ns,
        )
