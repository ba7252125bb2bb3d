"""Driving one workload through the public API and checking it.

A run is: generate inputs from the seed; a metered reference-
interpreter pass over the identical input (the wire oracle, and the
cycle-model numbers for free); several cold set-ups; the timed steady
windows; the update schedule under traffic.  Every window of the timed
router is compared with the reference output for the same input — the
sharding contract on the sharded workload — and every update must be
accepted."""

import contextlib
import gc
import multiprocessing
import os
import resource
import time

from repro import core
from repro.control import ControlPlane, ControlPlaneError
from repro.elements.devices import LoopbackDevice, PollDevice
from repro.elements.runtime import build_router
from repro.runtime.codegen_cache import default_cache
from repro.runtime.profile import ExecutionProfile
from repro.sim.cpu import CycleMeter
from repro.verify.oracle import sharded_transmit_difference

from . import gen, stats

#: Every end-to-end metric: (name, unit, better, bound).  Forwarding
#: and update cost are stated in iterations of a calibration kernel
#: timed beside every sample: the host's speed moves by a fifth and
#: more for seconds to minutes at a time, so as-measured nanoseconds
#: spread wider between identical runs than any bound may be (they are
#: the per-layer ``proc.fwd_ns_per_pkt.*`` and ``control.*_ms_*``).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("fwd_iters_per_pkt", "iter/pkt", "lower", 0.20),
    ("update_kiters", "kiter", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

SETUPS = 5  # cold set-ups per run; the median is reported
#: The sharded plane's journal grows with uptime, so its memory is read
#: (and a traced run injects its kills) at this fixed number of windows.
UPTIME_WINDOWS = 150
WARM_BLOCKS = 4  # blocks forwarded by every set-up (8000 frames)
ROUNDS = 6  # steady rounds, each closed by a burst of updates
BURST_UPDATES = 20
SPIN_ITERATIONS = 20000  # the calibration kernel; fixes the iteration unit
SMOKE_SECONDS = 5  # shorter runs are smokes: they shrink the fixed counts
_TX_CAPACITY = 1 << 30


class Counts:
    """The counts of a run that do not follow ``--seconds``."""

    def __init__(self, seconds):
        smoke = seconds < SMOKE_SECONDS
        self.setups = 2 if smoke else SETUPS
        self.burst_updates = 2 if smoke else BURST_UPDATES
        self.uptime_windows = 10 if smoke else UPTIME_WINDOWS


def iterations_for(frames):
    """Scheduler passes that drain ``frames`` polled in bursts."""
    return frames // PollDevice.BURST + 8


class Tally:
    """Operations attempted and failed: frames offered, updates
    applied, kills injected."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def record(self, count, ok, note):
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.notes) < 8:
                self.notes.append(note)


class Plane:
    """One built router with its devices and, unsharded, the control
    plane in front of it."""

    def __init__(self, router, devices, sharded):
        self.devices = devices
        self.sharded = sharded
        self.control = None if sharded else ControlPlane(router)
        self._router = router

    @property
    def router(self):
        return self._router if self.control is None else self.control.router

    def feed(self, block):
        devices = self.devices
        for device, frame in block:
            devices[device].receive_frame(frame)

    def take(self):
        """The frames transmitted since the last call, per device."""
        out = {}
        for name, device in self.devices.items():
            out[name] = device.transmitted[:]
            device.transmitted.clear()
        return out

    def forward(self, block):
        """Feed, drain and collect one block, untimed."""
        self.feed(block)
        self.router.run_tasks(iterations_for(len(block)))
        return self.take()

    def update(self, element, kind, args):
        """One control-plane update, prepared: calling the result
        applies it and returns its ``SwapReport``.  (The sharded plane
        is fed configuration text; making that text is the harness's
        work, not the program's.)"""
        if self.control is None:
            text = gen.iprouter_text(routes=args)
            return lambda: self._router.apply_update(text)
        method = self.control.update_routes if kind == "routes" else self.control.update_rules
        return lambda: method(element, args)

    @contextlib.contextmanager
    def pinned(self):
        """Inside: the sharded plane's processes each on one processor.

        Three busy processes share two processors there, and where the
        scheduler happens to put the dispatcher moves a whole run by a
        tenth (measured: 127-139 iter/pkt floating over five runs,
        149-157 pinned).  So for the length of a timed window or update the
        dispatcher and worker 0 have the first allowed processor and
        worker 1 the second; workers are told apart by the order they
        were started in.  Outside it the dispatcher floats again, so a
        worker restarted after a kill inherits every processor and is
        pinned with the rest the next time."""
        if not self.sharded:
            yield
            return
        allowed = os.sched_getaffinity(0)
        processors = sorted(allowed)
        workers = sorted(multiprocessing.active_children(),
                         key=lambda process: process.name.rpartition("-")[2].zfill(12))
        os.sched_setaffinity(0, {processors[0]})
        for index, worker in enumerate(workers):
            try:
                os.sched_setaffinity(worker.pid, {processors[index % len(processors)]})
            except ProcessLookupError:
                pass  # killed; its replacement is pinned next time
        try:
            yield
        finally:
            os.sched_setaffinity(0, allowed)

    def close(self):
        if self.sharded:
            self._router.close()


def load_graph(workload, tracer, text=None):
    """Configuration text -> graph, through the optimizer when the
    workload runs optimized.  Returns ``(graph, PipelineReport|None)``."""
    with tracer.span("lang.parse"):
        graph = core.load_config(workload.text() if text is None else text)
    if not workload.optimized:
        return graph, None
    with tracer.span("core.optimize") as parent:
        started = time.perf_counter()
        result = core.named_pipeline("paper").run(graph)
        cursor = started
        for record in result.report:
            tracer.add("core.pass.%s" % record.name, cursor, cursor + record.seconds, parent)
            cursor += record.seconds
        # Round trip through text: exactly what click-optimize emits.
        graph = core.load_config(core.save_config(result.graph))
    return graph, result.report


def build_plane(workload, tracer, profile, text=None, meter=None):
    """Text -> running router under ``profile``, ARP tables seeded."""
    graph, _report = load_graph(workload, tracer, text)
    devices = {
        name: LoopbackDevice(name, tx_capacity=_TX_CAPACITY) for name in ("eth0", "eth1")
    }
    if profile.workers > 1:
        with tracer.span("shard.start"):
            router = build_router(graph, devices=devices, profile=profile)
            _seed_arp(router)
            router.run_tasks(1)
    else:
        with tracer.span("elements.build"):
            router = build_router(graph, devices=devices, meter=meter)
        with tracer.span("runtime.compile"):
            router.configure(profile)
        _seed_arp(router)
    return Plane(router, devices, profile.workers > 1)


def _seed_arp(router):
    for index in range(len(gen.INTERFACES)):
        querier = router.find("arpq%d" % index)
        if querier is not None:
            querier.insert(gen.host_ip(index), gen.HOST_ETHERS[index])


class Inputs:
    """Everything generated from the seed for one workload."""

    def __init__(self, workload, seed):
        self.seed = seed
        self.blocks = workload.traffic(seed)
        self.churn_blocks = [block[: gen.CHURN_FRAMES] for block in self.blocks]
        self.warm = [frame for block in self.blocks[:WARM_BLOCKS] for frame in block]


class Oracle:
    """The metered reference interpreter over the identical input.

    It forwards every distinct block once to fix the expected wire
    output, and once more to show that output is a function of the
    block alone, so blocks may be replayed cyclically.  It then follows
    the timed router through the update schedule in lockstep."""

    def __init__(self, workload, inputs, tracer):
        self.inputs = inputs
        meter = CycleMeter()
        self.plane = build_plane(workload, tracer, ExecutionProfile.reference(), meter=meter)
        self.steady = [self.plane.forward(block) for block in inputs.blocks]
        for block, first in zip(inputs.blocks, self.steady):
            if self.plane.forward(block) != first:
                raise RuntimeError(
                    "%s: the reference output of a block depends on history; "
                    "cyclic replay is not a valid oracle" % workload.name
                )
        self.offered = sum(len(block) for block in inputs.blocks)
        self.forwarded = sum(_count(out) for out in self.steady)
        self.cpu_report = meter.report(2 * self.forwarded)
        self.queue = queue_counters(self.plane.router)
        self.warm = {
            name: [frame for out in self.steady[:WARM_BLOCKS] for frame in out[name]]
            for name in self.plane.devices
        }

    def churn_window(self, index):
        """The reference output for churn block ``index`` at this point
        of the schedule.  Every update preserves behaviour by
        construction; this is where that is checked."""
        out = self.plane.forward(self.inputs.churn_blocks[index])
        for name, frames in out.items():
            if self.steady[index][name][: len(frames)] != frames:
                raise RuntimeError("an update changed the reference output on %s" % name)
        return out

def queue_counters(router):
    """Drops and high water over every bounded queue, read from the
    elements' public counters."""
    drops = high = 0
    for element in router.elements.values():
        if hasattr(element, "highwater"):  # Queue and its subclasses
            drops += int(element.read_handler("drops"))
            high = max(high, element.highwater)
    return {"drops": drops, "high_water": high}


def _count(out):
    return sum(len(frames) for frames in out.values())


def same_wire(out, expected, sharded):
    """Byte-identical per device; on the sharded plane the sharding
    contract (per-flow byte-identical, per-device multiset)."""
    if out == expected:
        return True
    if not sharded:
        return False
    return (
        sharded_transmit_difference(
            {name: [frame.hex() for frame in frames] for name, frames in expected.items()},
            {name: [frame.hex() for frame in frames] for name, frames in out.items()},
        )
        is None
    )


class Window:
    """One timed window: cost per packet and where the time went."""

    __slots__ = ("ns_per_packet", "cpu_seconds", "wall_seconds", "feed_seconds", "frames")

    def __init__(self, frames, wall, cpu, feed):
        self.frames = frames
        self.wall_seconds = wall
        self.cpu_seconds = cpu
        self.feed_seconds = feed
        self.ns_per_packet = wall * 1e9 / frames


def timed_window(plane, block, expected, tally, tracer, label):
    """Feed one block outside the timed region, drain it inside with
    the collector off, then check the wire against ``expected`` (a
    prefix configuration transmits nothing to check: pass None)."""
    with tracer.span("feed"):
        start = time.perf_counter()
        plane.feed(block)
        feed = time.perf_counter() - start
    router = plane.router
    passes = iterations_for(len(block))
    with plane.pinned(), tracer.span("run_tasks"):
        gc.disable()
        cpu = time.process_time()
        start = time.perf_counter()
        router.run_tasks(passes)
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu
        gc.enable()
    with tracer.span("check"):
        out = plane.take()
        if expected is not None:
            tally.record(
                len(block), same_wire(out, expected, plane.sharded),
                "%s: %d frames out, %d expected" % (label, _count(out), _count(expected)),
            )
    return Window(len(block), wall, cpu, feed)


def cold_setup(workload, inputs, oracle, tally, tracer):
    """One cold set-up: text -> graph (-> optimizer) -> router -> the
    warm-up frames forwarded, so tier-2 promotions, diagram builds and
    worker spawn land inside.  Returns ``(plane, seconds)``."""
    default_cache().clear()
    started = time.perf_counter()
    plane = build_plane(workload, tracer, workload.execution_profile())
    with tracer.span("warm"):
        out = plane.forward(inputs.warm)
    seconds = time.perf_counter() - started
    tally.record(
        len(inputs.warm), same_wire(out, oracle.warm, plane.sharded),
        "set-up: %d frames out, %d expected" % (_count(out), _count(oracle.warm)),
    )
    return plane, seconds


def cold_setups(workload, inputs, oracle, tally, tracer, count):
    """``count`` cold set-ups in a row; the last plane is kept running.
    Returns ``(plane, [seconds])``."""
    plane, seconds = None, []
    for _ in range(count):
        if plane is not None:
            plane.close()
            plane = None
        gc.collect()  # the memory peak should be one router's, not five
        plane, elapsed = cold_setup(workload, inputs, oracle, tally, tracer)
        seconds.append(elapsed)
    return plane, seconds


def peak_rss_mb():
    """Peak resident memory of this process plus its live workers."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        try:
            with open("/proc/%d/status" % child.pid) as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


def spin_ns():
    """Wall nanoseconds per iteration of the calibration kernel, a
    fixed pure-Python loop.  The host has speed levels a fifth apart
    that last seconds to minutes; a kernel timed next to every window
    and update lets their cost also be stated in its iterations, which
    cancels the host's speed at that moment."""
    start = time.perf_counter()
    total = 0
    for value in range(SPIN_ITERATIONS):
        total += value * value
    return (time.perf_counter() - start) * 1e9 / SPIN_ITERATIONS


class Samples:
    """Costs of like operations, as measured and in kernel iterations."""

    def __init__(self):
        self.measured = []
        self.iterations = []

    def __len__(self):
        return len(self.measured)


class Phases:
    """The timed phases of one run over one plane: steady windows
    (blocks replayed cyclically) and update bursts under traffic (a
    256-frame window, then one update, repeated), every window checked
    against the oracle."""

    def __init__(self, workload, plane, inputs, oracle, tally, tracer):
        self.workload = workload
        self.plane = plane
        self.inputs = inputs
        self.oracle = oracle
        self.tally = tally
        self.tracer = tracer
        # ns per packet, one Samples per distinct block
        self.windows = [Samples() for _ in inputs.blocks]
        self.churn_windows = [Samples() for _ in inputs.blocks]
        self.updates = {"routes": Samples(), "rules": Samples()}  # ms per update
        self.reports = []
        self.cpu_seconds = 0.0
        self.wall_seconds = 0.0
        self.feed_seconds = 0.0
        self.frames = 0
        self.steady_count = 0
        self.update_count = 0
        self._spin = spin_ns()

    def _record(self, samples, nanoseconds, measured):
        """File one cost, calibrated by the kernel timed before and
        after it."""
        after = spin_ns()
        samples.measured.append(measured)
        samples.iterations.append(nanoseconds * 2.0 / (self._spin + after))
        self._spin = after

    def _window(self, samples, block, expected, label):
        window = timed_window(self.plane, block, expected, self.tally, self.tracer, label)
        self._record(samples, window.ns_per_packet, window.ns_per_packet)
        self.cpu_seconds += window.cpu_seconds
        self.wall_seconds += window.wall_seconds
        self.feed_seconds += window.feed_seconds
        self.frames += window.frames

    def steady(self, until=None, windows=None):
        """Steady windows until the clock reaches ``until`` or
        ``windows`` more are done (at least one)."""
        blocks = self.inputs.blocks
        done = 0
        while True:
            index = self.steady_count % len(blocks)
            self._window(self.windows[index], blocks[index], self.oracle.steady[index],
                         "window %d" % self.steady_count)
            self.steady_count += 1
            done += 1
            if windows is not None and done >= windows:
                return
            if until is not None and time.perf_counter() >= until:
                return

    def churn_window(self):
        """One 256-frame window on the next churn block."""
        index = self.update_count % len(self.inputs.churn_blocks)
        self._window(self.churn_windows[index], self.inputs.churn_blocks[index],
                     self.oracle.churn_window(index), "churn window %d" % self.update_count)

    def churn(self, until=None, updates=None):
        """Window-then-update pairs until the clock reaches ``until``
        or ``updates`` more are applied (at least one).  Where the
        workload batches its updates, a pair's "update" is that many
        consecutive ones applied back to back and timed as one sample
        (a sub-millisecond cold path is otherwise at the mercy of what
        the host did to the caches); the sample is the cost of one."""
        batch = self.workload.update_batch
        done = 0
        while True:
            self.churn_window()
            first = self.update_count * batch
            schedule = [self.workload.update_at(self.inputs.seed, first + offset)
                        for offset in range(batch)]
            kind = schedule[0][1]
            applies = [self.plane.update(*update) for update in schedule]
            reports, note = [], ""
            with self.plane.pinned(), self.tracer.span("control.update_%s" % kind):
                start = time.perf_counter()
                try:
                    for apply in applies:
                        reports.append(apply())
                except ControlPlaneError as error:
                    note = "update %d rejected: %s" % (first + len(reports), error)
                elapsed = (time.perf_counter() - start) / batch
            self.tally.record(batch, not note, note)
            if not note:
                self._record(self.updates[kind], elapsed * 1e9, elapsed * 1e3)
                self.reports.extend(reports)
            for update in schedule:
                self.oracle.plane.update(*update)()
            self.update_count += 1
            done += 1
            if updates is not None and done >= updates:
                return
            if until is not None and time.perf_counter() >= until:
                return

    def run(self, seconds, at_uptime=None):
        """The whole measured phase, ``seconds`` long.

        A churn workload alternates windows and updates throughout.
        The others run ``ROUNDS`` rounds of steady windows, each closed
        by a burst of updates, so the update samples are spread over
        the run's whole length while the router re-promotes only once
        per round (the tiered engines bound their recompiles).
        ``at_uptime`` is called once, after ``UPTIME_WINDOWS`` steady
        windows and before any update.  (:class:`Counts` shrinks the
        fixed counts for smoke runs.)"""
        start = time.perf_counter()
        if not self.workload.steady:
            self.churn(until=start + seconds)
            self.churn_window()  # the last update is checked too
            return
        counts = Counts(seconds)
        if at_uptime is not None:
            self.steady(windows=counts.uptime_windows)
            at_uptime()
        for round_number in range(1, ROUNDS + 1):
            self.steady(until=start + seconds * round_number / ROUNDS)
            self.churn(updates=counts.burst_updates)
        self.steady(windows=len(self.inputs.blocks))

    def forwarding(self):
        """The windows ``fwd_*`` summarise: the steady ones, or on the
        churn workload the windows between updates."""
        return self.windows if self.workload.steady else self.churn_windows


def over_blocks(samples_by_block, statistic, calibrated=False):
    """Mean over the distinct blocks of ``statistic`` of each block's
    windows: blocks differ in content, so each has its own level, and
    the mean weighs every block of the mix equally however the windows
    fell."""
    values = [
        statistic(samples.iterations if calibrated else samples.measured)
        for samples in samples_by_block
        if len(samples)
    ]
    return sum(values) / len(values)


def run_untraced(workload, seed, seconds, tracer):
    """One untraced run: every end-to-end metric of one workload."""
    inputs = Inputs(workload, seed)
    tally = Tally()
    oracle = Oracle(workload, inputs, tracer)
    plane, setup_seconds = cold_setups(
        workload, inputs, oracle, tally, tracer, Counts(seconds).setups)
    memory = []
    try:
        gc.collect()
        gc.freeze()
        phases = Phases(workload, plane, inputs, oracle, tally, tracer)
        # The sharded plane's journal grows with uptime, so its memory
        # is read at a fixed uptime; elsewhere memory is flat.
        phases.run(seconds, at_uptime=(lambda: memory.append(peak_rss_mb()))
                   if workload.sharded else None)
        memory.append(peak_rss_mb())
    finally:
        gc.unfreeze()
        plane.close()
    windows = phases.forwarding()
    updates = phases.updates[workload.gated_update_kind]
    values = {
        "setup_s": stats.median(setup_seconds),
        "fwd_iters_per_pkt": over_blocks(windows, stats.median, calibrated=True),
        "update_kiters": stats.median(updates.iterations) / 1e3,
        "peak_rss_mb": memory[0],
    }
    return {name: (values[name], unit) for name, unit, _better, _bound in END_TO_END}, tally
