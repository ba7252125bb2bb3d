"""The sharded multi-worker data plane: N compiled routers behind an
RSS-style flow-hash dispatcher.

A :class:`ShardedRouter` partitions ingress traffic by flow key
(:mod:`repro.runtime.flowhash`) across ``profile.workers`` shards, each
owning a *full* router — built from the same configuration graph, run
under the same shard-local :class:`~repro.runtime.profile.ExecutionProfile`
(reference, fast, batch, adaptive, or supervised) — and reconciles the
shards' transmitted frames, element counters, and CycleMeters back into
one externally observable surface.

One worker, one coordinator.  Every shard is served by the same command
loop (:func:`_shard_worker`): it builds and owns the shard's router and
executes the coordinator's commands — frame batches, scheduler runs,
transmit-window mirrors, control operations, two-phase update stage and
commit, sync, collect — in order.  :class:`ShardedRouter` reaches a
worker only through a small private transport (``send``, ``recv``,
``alive``, ``kill``, ``close``) and writes streamed dispatch, flush,
control fan-out, hot-swap, two-phase update, fault hooks, restart and
journal replay exactly once in terms of it.  ``profile.shard_backend``
selects how a worker is *hosted*, not a second implementation:

- ``"thread"`` — a daemon thread fed through a bounded
  :class:`SPSCQueue`; objects cross by reference and the codegen cache
  is shared, so startup is cheap.  This is what the differential
  oracle, ``click-chaos`` and the tuner run by default (Python threads
  buy no wall-clock parallelism; equivalence is the point).
- ``"process"`` — a ``multiprocessing`` (spawn) child over a pipe,
  building and compiling its router from the configuration *text* it
  is sent (the children compile side by side; nothing compiled crosses
  the pipe).  True parallelism: the host the 1→N scale curve and the
  benchmark measure.

Either way, a window streams to the workers in rounds of
``chunk_frames`` frames, so the parent's hashing/serialization overlaps
shard execution, and shard state merges in shard order at quiescence
(deterministic by construction).

Ordering semantics: per-flow order is preserved (a flow maps to one
shard; the handoff queues and per-shard routers are FIFO); cross-flow,
cross-shard order is **not**.  The oracle therefore compares sharded
output per-flow byte-identical plus per-device multiset-identical
(:func:`repro.verify.oracle.sharded_transmit_difference`), never as one
global sequence.

Control-plane operations fan out to every shard: ARP inserts, epoch
bumps, forced deopts, hot-swaps, and — via :meth:`ShardedRouter.apply_update`
— incremental updates, which commit *transactionally*: a pure-data
delta is staged on every shard (all parsing and validation, no
mutation) and only then committed everywhere, so a rejected update
leaves all shards serving the old tables; a structural delta — like
:meth:`ShardedRouter.hotswap_all` — swaps every shard with an
acknowledged reply, rolls the swapped ones back if any rejects, and is
journaled only once every live shard acknowledged.

Worker faults: ``worker_crash`` faults (:mod:`repro.sim.faults`) kill a
shard; recovery respawns it and replays the shard's command journal —
every frame batch, scheduler run, transmit-window mirror, and control
operation since birth — which, everything being deterministic,
reconstructs byte-identical shard state (the device-fail analog with a
supervisor-grade recovery story).

Self-healing: when the profile carries a
:class:`~repro.runtime.recovery.RecoveryConfig`, a
:class:`~repro.runtime.recovery.RecoveryManager` closes the loop
autonomously — one health seam (a ``send`` refused, a ``recv`` past its
reply deadline, ``alive()`` false at the per-batch sweep) detects dead
or hung workers without an operator, journal replay restarts them under
seeded exponential backoff with a restart budget and poison-frame
quarantine (batch replay first, frame-granular replay to attribute a
killer frame to its exact journal position), and while a
shard is down its flows follow the profile's recovery policy: buffered
for redelivery, re-steered onto survivors through a rendezvous overlay,
or failed fast.  The journal-then-send invariant makes this safe: every
command is journaled *before* delivery is attempted, so a command
refused by a dying worker is reconstructed by replay, never lost —
and a down shard's partial output is never flushed (replay regenerates
deterministic output, and the flush cursor delivers everything past it
exactly once).

Cross-worker safety notes (the audit thread-hosted workers forced):
``ELEMENT_CLASSES`` is a read-only registry after import; the dest-IP
intern cache (:data:`repro.net.packet._DEST_IP_CACHE`) is only touched
via single dict operations, which the GIL keeps atomic; the process-wide
codegen cache serializes mutation behind an RLock (builds and adaptive
tier-2 recompiles run on worker threads).  Shards share no mutable
runtime state — each worker has its own graph, elements, devices, meter,
and engine, and the coordinator never touches them.
"""

from __future__ import annotations

import os
import pickle
import queue
import threading
import time as _time
from collections import OrderedDict

from .flowhash import DEFAULT_SEED, FlowHasher
from .profile import ExecutionProfile
from .recovery import PoisonFrameError, RecoveryError, ReplayFrameError

_monotonic = _time.monotonic

__all__ = [
    "DEFAULT_CHUNK_FRAMES",
    "DEFAULT_QUEUE_CAPACITY",
    "SPSCQueue",
    "ShardReport",
    "ShardedRouter",
    "TUNABLES",
    "device_names_of",
    "divide_queue_capacities",
]

#: Default capacity of the bounded SPSC handoff queues (thread
#: transport).  Overridable per plane via
#: ``ExecutionProfile.with_workers(..., queue_capacity=...)``.
DEFAULT_QUEUE_CAPACITY = 256

#: Default frames per dispatch round (``ExecutionProfile.chunk_frames``
#: or the ``chunk_frames`` constructor keyword override it): the best of
#: a measured sweep over 64..2048 on two process workers (EXPERIMENTS.md)
#: — smaller rounds pay per-command overhead, larger ones leave the
#: workers idle while the first round is hashed.
DEFAULT_CHUNK_FRAMES = 256

#: Parameter-space declarations for the autotuner (:mod:`repro.tune`).
#: ``shard.workers`` is declared here so the space covers the whole
#: dispatch surface, but it is construction-time: the default search
#: pins it to the target plane's worker count, and
#: ``ExecutionProfile.with_tuning`` never applies it (use
#: ``with_workers``).
TUNABLES = (
    {
        "name": "shard.queue_capacity",
        "kind": "choice",
        "choices": [32, 64, 128, 256, 512, 1024, 2048],
        "default": DEFAULT_QUEUE_CAPACITY,
    },
    {
        "name": "shard.chunk_frames",
        "kind": "log_int",
        "low": 16,
        "high": 8192,
        "default": DEFAULT_CHUNK_FRAMES,
    },
    {"name": "shard.workers", "kind": "choice", "choices": [1, 2, 4, 8], "default": 1},
)

#: Shard-local loopback devices never limit transmit on their own; the
#: parent mirrors the real device's window into ``tx_capacity`` before
#: every scheduler batch.
_SHARD_TX_CAPACITY = 1 << 30


class SPSCQueue:
    """A bounded single-producer single-consumer handoff queue.

    The parent (producer) enqueues command tuples; one worker
    (consumer) drains them.  ``put`` blocks when the queue is full —
    bounded capacity is the backpressure contract: a slow shard slows
    the dispatcher instead of growing an unbounded backlog.
    """

    __slots__ = ("_items", "_capacity", "_lock", "_not_empty", "_not_full", "high_water")

    def __init__(self, capacity=DEFAULT_QUEUE_CAPACITY):
        if capacity < 1:
            raise ValueError("capacity must be >= 1, not %r" % (capacity,))
        self._items = []
        self._capacity = capacity
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self.high_water = 0

    def put(self, item, timeout=None):
        """Enqueue one item; blocks while full.  With ``timeout`` (in
        seconds) returns False instead of blocking forever — the
        recovery path's escape hatch when the consumer is dead or hung
        and the queue will never drain."""
        with self._not_full:
            deadline = None if timeout is None else _monotonic() + timeout
            while len(self._items) >= self._capacity:
                remaining = None if deadline is None else deadline - _monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._not_full.wait(remaining)
            self._items.append(item)
            if len(self._items) > self.high_water:
                self.high_water = len(self._items)
            self._not_empty.notify()
            return True

    def get(self):
        with self._not_empty:
            while not self._items:
                self._not_empty.wait()
            item = self._items.pop(0)
            self._not_full.notify()
            return item

    def __len__(self):
        with self._lock:
            return len(self._items)


def device_names_of(graph):
    """The device names a (flattened) configuration talks to, in
    declaration order — the one resolver the plane, ``click-optimize``,
    ``click-run`` and the oracle share, so an optimized configuration
    (whose device elements carry generated class names) names the same
    devices as its source."""
    from ..elements.devices import PollDevice, ToDevice
    from ..elements.runtime import declared_classes

    names = []
    for decl, cls in declared_classes(graph):
        if issubclass(cls, (PollDevice, ToDevice)):
            name = decl.config.split(",")[0].strip()
            if name and name not in names:
                names.append(name)
    return names


def divide_queue_capacities(graph, index, workers):
    """Shard ``index``'s view of ``graph`` under divide-capacity mode:
    every bounded queue's capacity is split across the ``workers``
    shards — floor share each, remainder to the lowest indices — so the
    plane's *aggregate* queue capacity matches the single-plane router
    and load-dependent loss stays within the sharding contract.

    Returns a fresh graph (text round trip; the caller's graph is the
    undivided source of truth).  A queue whose capacity is below the
    worker count cannot be divided without exceeding the single plane's
    aggregate (every shard queue needs at least one slot), so that
    raises.  Queue declarations whose argument is not a plain integer
    are left alone — the shard build will report them exactly as a
    single-plane build would.
    """
    if workers <= 1:
        return graph
    from ..core.toolchain import load_config, save_config
    from ..elements.infrastructure import Queue
    from ..elements.runtime import declared_classes

    divided = load_config(save_config(graph), "<shard-divide>")
    for decl, cls in declared_classes(divided):
        # Queue and its subclasses take one argument, the capacity.
        if not issubclass(cls, Queue):
            continue
        config = (decl.config or "").strip()
        try:
            capacity = int(config) if config else Queue.DEFAULT_CAPACITY
        except ValueError:
            continue
        if capacity < workers:
            from ..errors import ClickSemanticError

            raise ClickSemanticError(
                "divide_capacity cannot split %s(%d) across %d shards; "
                "every bounded queue needs capacity >= the worker count"
                % (decl.name, capacity, workers)
            )
        share = capacity // workers + (1 if index < capacity % workers else 0)
        decl.config = str(share)
    return divided


def _meter_delta(current, previous):
    """current - previous for two CycleMeter summaries (all fields are
    monotonic counts, so the delta is well-defined)."""
    delta = {}
    for key, value in current.items():
        if key == "dynamic":
            prev = previous.get("dynamic", {})
            delta[key] = {k: v - prev.get(k, 0) for k, v in value.items()}
        else:
            delta[key] = value - previous.get(key, 0)
    return delta


class ShardReport:
    """What the sharded data plane did: dispatch balance, flushes,
    crashes and journal replays, per-shard supervision summaries, and
    (when self-healing is on) the recovery manager's summary."""

    def __init__(self):
        self.workers = 0
        self.backend = "thread"
        self.seed = DEFAULT_SEED
        self.dispatched = []
        self.flushed = 0
        self.runs = 0
        self.updates = 0
        self.crashes = 0
        self.replays = 0
        self.queue_high_water = []
        self.supervisors = {}
        self.recovery = None
        self.meter = None

    def as_dict(self):
        """JSON-safe summary with deterministic ordering — keys sorted,
        list order stable — so chaos/CI artifacts diff cleanly (the PR 8
        codegen-cache report convention)."""
        data = {
            "backend": self.backend,
            "crashes": self.crashes,
            "dispatched": list(self.dispatched),
            "flushed": self.flushed,
            "queue_high_water": list(self.queue_high_water),
            "replays": self.replays,
            "runs": self.runs,
            "seed": self.seed,
            "updates": self.updates,
            "workers": self.workers,
        }
        if self.supervisors:
            data["supervisors"] = {
                key: self.supervisors[key] for key in sorted(self.supervisors)
            }
        if self.recovery is not None:
            data["recovery"] = self.recovery
        if self.meter is not None:
            data["meter"] = self.meter
        return {key: data[key] for key in sorted(data)}

    def format(self):
        lines = [
            "sharded data plane: %d worker(s), %s backend, seed 0x%X"
            % (self.workers, self.backend, self.seed),
            "  dispatched per shard: %s" % (self.dispatched,),
            "  flushed %d frame(s) over %d scheduler batch(es)"
            % (self.flushed, self.runs),
        ]
        if self.crashes:
            lines.append(
                "  %d worker crash(es), %d journal replay(s)"
                % (self.crashes, self.replays)
            )
        if self.recovery is not None:
            lines.append(
                "  recovery (%s): %d detection(s), %d restart(s), "
                "%d benched, %d re-steered, %d buffered, %d quarantined"
                % (
                    self.recovery.get("policy"),
                    self.recovery.get("detections", 0),
                    self.recovery.get("restarts", 0),
                    len(self.recovery.get("benched", ())),
                    self.recovery.get("frames_resteered", 0),
                    self.recovery.get("frames_buffered", 0),
                    len(self.recovery.get("quarantined", ())),
                )
            )
        return "\n".join(lines)


class _FanoutElementProxy:
    """Stands in for a named element on a sharded router: control-plane
    writes (ARP ``insert``) fan out to every shard's instance."""

    __slots__ = ("_sharded", "_name")

    def __init__(self, sharded, name):
        self._sharded = sharded
        self._name = name

    @property
    def name(self):
        return self._name

    def insert(self, ip, ether):
        self._sharded._control(("insert", self._name, ip, ether))

    def __repr__(self):
        return "<fanout %s across %d shard(s)>" % (
            self._name,
            self._sharded.workers,
        )


# -- the shard worker ----------------------------------------------------------


def _build_shard(config, profile, device_names, metered, shard_index, extra_classes=None):
    """One shard's router over shard-local loopback devices, from the
    plane's *undivided* configuration (text, or a graph handed over by
    reference).  Returns ``(router, devices, divider)``; ``divider`` is
    the shard's divide-capacity transform (or None) — every later path
    that materializes a configuration on this shard runs it through the
    divider, because journaled configurations are always undivided."""
    from ..core.toolchain import load_config
    from ..elements.devices import LoopbackDevice
    from ..elements.runtime import build_router

    devices = OrderedDict(
        (name, LoopbackDevice(name, tx_capacity=_SHARD_TX_CAPACITY))
        for name in device_names
    )
    meter = None
    if metered:
        from ..sim.cpu import CycleMeter

        meter = CycleMeter()
    divider = None
    if profile.divide_capacity and profile.workers > 1:

        def divider(graph, _index=shard_index, _workers=profile.workers):
            return divide_queue_capacities(graph, _index, _workers)

    graph = load_config(config, "<shard>") if isinstance(config, str) else config
    if divider is not None:
        graph = divider(graph)
    router = build_router(
        graph,
        extra_classes=extra_classes,
        devices=devices,
        meter=meter,
        profile=profile.shard_local(),
    )
    return router, devices, divider


def _apply_shard_control(router, cmd, divider=None):
    """Apply one journaled control command to the shard's router;
    returns ``(router, SwapReport or None)`` — the router changes
    identity across a swap.  Runs on the live path and under journal
    replay, so it must be deterministic."""
    op = cmd[0]
    report = None
    if op == "insert":
        element = router.find(cmd[1])
        if element is not None and hasattr(element, "insert"):
            element.insert(cmd[2], cmd[3])
    elif op == "bump_epochs":
        router.bump_arp_epochs()
    elif op == "deopt":
        router.force_deopt()
    elif op == "configure":
        router.configure(cmd[1].shard_local())
    elif op == "hotswap":
        from ..core.toolchain import load_config
        from ..elements.hotswap import hotswap

        new_graph = load_config(cmd[1], "<shard-hotswap>")
        if divider is not None:
            new_graph = divider(new_graph)
        result = hotswap(router, new_graph)
        router, report = result.router, result.report
    elif op == "update":
        from ..control import ControlPlane

        update = cmd[1]
        if divider is not None:
            from ..core.toolchain import load_config

            update = divider(load_config(update, "<shard-update>"))
        plane = ControlPlane(router)
        report = plane.apply(update)
        router = plane.router
    else:
        raise ValueError("unknown shard control command %r" % (op,))
    return router, report


#: Commands the coordinator waits on: each is answered exactly once,
#: with its reply or with ``("error", exception)`` — never with silence,
#: which the coordinator could only tell from a hang.
_ASKS = frozenset(
    (
        "update_stage",
        "update_commit",
        "sync",
        "collect",
        "counters",
        "arp_epoch_holders",
        "report",
        "stop",
    )
)


def _portable(exc):
    """``exc`` itself when it survives pickling — the coordinator then
    re-raises exactly what a single router would have raised — else a
    RuntimeError naming it: a reply that cannot cross a pipe would kill
    the protocol instead of reporting the failure."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:  # noqa: BLE001 - any pickling failure means "not portable"
        return RuntimeError("%s: %s" % (type(exc).__name__, exc))


def _shard_worker(
    recv, send, config, profile, device_names, metered=False, shard_index=0, extra_classes=None
):
    """The shard worker — the only one: build one shard's router and
    serve the coordinator's command stream until ``stop`` or until
    ``recv`` reports the channel closed (EOFError/OSError).  ``recv``
    and ``send`` are the worker's end of a transport; nothing here
    knows whether that is a pipe into a spawned process or a pair of
    queues into a thread.

    With ``metered`` the shard runs the reference interpreter under its
    own CycleMeter, whatever the profile's mode; the meter's summary
    rides back on every ``collect`` for the coordinator to absorb.  A
    command that fails parks its error for the next
    ``sync``; a failing :data:`_ASKS` command answers with the error.
    An armed poison frame raises :class:`PoisonFrameError` *out of*
    the loop: the host turns that into the worker's death."""
    from ..control import ControlPlane
    from ..core.toolchain import load_config

    flushed = {name: 0 for name in device_names}
    worked = 0
    staged = None  # (plane, batch, delta, diff seconds, stage seconds)
    swap_report = None  # the last hotswap/update's SwapReport, for the next sync
    poisons = set()  # armed kill frames (worker_poison faults)
    router = devices = divider = None
    try:
        router, devices, divider = _build_shard(
            config, profile, device_names, metered, shard_index, extra_classes
        )
        broken = None
    except Exception as exc:  # noqa: BLE001 - reported through the protocol
        # No router to serve.  Keep answering, so the coordinator hears
        # the build error (at its first sync or question) instead of
        # diagnosing a hang.
        broken = _portable(exc)
    pending_error = None
    while True:
        try:
            cmd = recv()
        except (EOFError, OSError):
            break
        op = cmd[0]
        try:
            if broken is not None and op != "stop":
                raise broken
            if op == "frames":
                _op, name, frames = cmd  # one device's frames, in arrival order
                receive = devices[name].receive_frame
                for frame in frames:
                    if poisons and bytes(frame) in poisons:
                        raise PoisonFrameError(name, frame)
                    receive(frame)
            elif op == "run":
                worked += router.run_tasks(cmd[1])
            elif op == "mirror":
                for name, capacity in cmd[1].items():
                    devices[name].tx_capacity = capacity
            elif op == "poison":
                poisons.add(bytes(cmd[1]))
            elif op == "hang":
                # Fault injection: stop making progress, so the reply
                # deadline — not a crash — has to find this worker.
                _time.sleep(cmd[1])
            elif op == "update_stage":
                staged = None
                try:
                    started = _time.perf_counter()
                    update = cmd[1]
                    if divider is not None:
                        update = divider(load_config(update, "<shard-update>"))
                    plane = ControlPlane(router)
                    delta, _new_graph = plane.resolve(update)
                    resolved = _time.perf_counter()
                    batch = None
                    if not (delta.empty or delta.structural):
                        batch = plane.stage_patch(delta)
                except Exception as exc:  # noqa: BLE001 - a rejection, not a fault
                    # Nothing staged, live tables untouched: the
                    # coordinator aborts everywhere and re-raises this.
                    send(("staged", "rejected", _portable(exc)))
                else:
                    if delta.empty:
                        send(("staged", "empty"))
                    elif batch is None:
                        send(("staged", "structural"))
                    else:
                        staged = (
                            plane,
                            batch,
                            delta,
                            resolved - started,
                            _time.perf_counter() - resolved,
                        )
                        send(("staged", "ok"))
            elif op == "update_commit":
                plane, batch, delta, diff_seconds, stage_seconds = staged
                staged = None
                report = plane.commit_patch(batch, delta)
                router = plane.router
                report.phases["diff"] = diff_seconds
                report.phases["stage"] = stage_seconds
                report.phases.move_to_end("patch")
                send(("committed", report))
            elif op == "update_abort":
                staged = None
            elif op == "set_flushed":
                flushed = dict(cmd[1])
            elif op == "sync":
                if pending_error is not None:
                    send(("error", pending_error))
                else:
                    send(("synced", worked, swap_report))
                worked = 0
                pending_error = swap_report = None
            elif op == "collect":
                fresh = {}
                for name in device_names:
                    frames = devices[name].transmitted
                    start = flushed[name]
                    if len(frames) > start:
                        fresh[name] = frames[start:]
                        flushed[name] = len(frames)
                meter = router.meter.summary() if router.meter is not None else None
                send(("collected", fresh, meter))
            elif op == "counters":
                values = {}
                for name, element in sorted(router.elements.items()):
                    for handler, fn in sorted(element.read_handlers().items()):
                        value = fn()
                        if not isinstance(value, (int, float, str, bool, type(None))):
                            value = repr(value)
                        values["%s.%s" % (name, handler)] = value
                send(("counters", values))
            elif op == "arp_epoch_holders":
                # How many elements ``Router.bump_arp_epochs`` bumps.
                holders = sum(
                    1 for element in router.elements.values() if hasattr(element, "_arp_epoch")
                )
                send(("arp_epoch_holders", holders))
            elif op == "report":
                supervisor = router.supervisor
                send(("report", supervisor.report().as_dict() if supervisor else None))
            elif op == "stop":
                send(("stopped",))
                break
            else:
                router, swap_report = _apply_shard_control(router, cmd, divider)
        except PoisonFrameError:
            raise
        except Exception as exc:  # noqa: BLE001 - reported through the protocol
            if op in _ASKS:
                send(("error", _portable(exc)))
            elif pending_error is None:
                pending_error = _portable(exc)


def _process_shard_main(conn, *args):
    """A spawned process hosting the worker: serve the pipe.  A poison
    frame kills the process the hard way — no exception protocol, just
    a dead process for the health seam to find."""
    try:
        _shard_worker(conn.recv, conn.send, *args)
    except PoisonFrameError:
        os._exit(3)
    conn.close()


# -- the two transports --------------------------------------------------------
#
# What the coordinator knows of a worker's host: ``send(cmd) -> bool``
# (False: refused), ``recv(timeout) -> reply | None`` (None: the
# deadline passed; EOFError: the worker is gone), ``alive()``, ``kill()``
# (now, nothing reaped — the fault hook), ``close()`` (kill if need be
# and release everything; idempotent), plus
# ``reply_timeout`` (the recovery deadline for one reply, None without
# recovery), ``exitcode`` and ``high_water`` for the reports.  A
# transport serves one worker life; a restart builds a new one.


class _ThreadTransport:
    """A worker hosted on a daemon thread of this process: commands
    through a bounded :class:`SPSCQueue` (the backpressure contract),
    replies through an unbounded queue (one per question), the graph
    and ``extra_classes`` by reference, the codegen cache shared.

    A thread cannot be killed, so ``kill()`` is a *fence*: the worker
    sees it at its next ``recv`` and exits without serving another
    command.  A hung worker is abandoned behind the fence — it owns its
    router and devices outright, so nothing it does when it wakes can
    touch the shard rebuilt in its place."""

    exitcode = None  # threads have none

    def __init__(self, plane, index):
        recovery = plane._profile.recovery
        # A handoff must drain within the heartbeat window, an answer
        # arrive within the watchdog's progress deadline.
        self._send_timeout = None if recovery is None else recovery.heartbeat_timeout
        self.reply_timeout = None if recovery is None else recovery.watchdog_timeout
        self._inbox = SPSCQueue(plane._queue_capacity)
        self._outbox = queue.SimpleQueue()
        self._fenced = False
        self._listening = threading.Event()
        self._thread = threading.Thread(
            target=self._host,
            args=(
                # A private copy: an in-place commit rewrites the
                # declarations of the graph its router was built on, and
                # the plane's graph must only ever name what every live
                # shard acknowledged.
                plane.graph.copy(),
                plane._profile,
                list(plane._device_names),
                plane.meter is not None,
                index,
                plane._extra_classes,
            ),
            name="shard-%d" % index,
            daemon=True,
        )
        self._thread.start()
        # One build at a time: the codegen cache is shared in-process,
        # so the next worker replays what this one compiled instead of
        # compiling the same chains beside it (measured: 4 cold workers
        # 445 ms side by side, 90 ms in turn).
        self._listening.wait()

    def _host(self, *args):
        try:
            _shard_worker(self._next_command, self._outbox.put, *args)
        except PoisonFrameError:
            pass  # the dead thread is the fault; alive() reports it
        finally:
            self._listening.set()
            self._outbox.put(None)  # what a closed pipe tells a blocked recv

    def _next_command(self):
        self._listening.set()  # the worker asks for commands only once built
        cmd = self._inbox.get()
        if self._fenced:
            raise EOFError("fenced off")
        return cmd

    @property
    def high_water(self):
        return self._inbox.high_water

    def send(self, cmd):
        deadline = None
        if self._send_timeout is not None:
            deadline = _monotonic() + self._send_timeout
        # Short slices, so a worker that dies while its queue is full
        # refuses the command instead of blocking the coordinator.
        while self.alive():
            if self._inbox.put(cmd, timeout=0.05):
                return True
            if deadline is not None and _monotonic() >= deadline:
                return False
        return False

    def recv(self, timeout=None):
        try:
            reply = self._outbox.get(timeout=timeout)
        except queue.Empty:
            return None
        if reply is None:
            raise EOFError("worker thread exited")
        return reply

    def alive(self):
        return not self._fenced and self._thread.is_alive()

    def kill(self):
        self._fenced = True
        self._inbox.put(("fence",), timeout=0)  # wake a worker blocked on an empty queue

    def close(self):
        self.kill()
        # An idle worker leaves at once; a hung one never joins — it is
        # a daemon behind the fence, so don't wait for it.
        self._thread.join(timeout=0.5)


class _ProcessTransport:
    """A worker hosted in a ``multiprocessing`` spawn child over a
    :class:`multiprocessing.Pipe`: the configuration crosses as text
    and the child compiles it, and a hung worker is SIGKILLed and
    reaped."""

    high_water = None  # a pipe has no bounded queue to report

    def __init__(self, plane, index):
        import multiprocessing

        from ..core.toolchain import save_config

        if plane._extra_classes:
            raise ValueError(
                "the process backend rebuilds shards from configuration "
                "text and cannot ship extra_classes; use the thread backend"
            )
        recovery = plane._profile.recovery
        self.reply_timeout = None if recovery is None else recovery.heartbeat_timeout
        ctx = multiprocessing.get_context("spawn")
        self._conn, child_conn = ctx.Pipe()
        self._process = ctx.Process(
            target=_process_shard_main,
            args=(
                child_conn,
                save_config(plane.graph),
                plane._profile,
                list(plane._device_names),
                plane.meter is not None,
                index,
            ),
            daemon=True,
        )
        self._process.start()
        child_conn.close()

    @property
    def exitcode(self):
        return self._process.exitcode if self._process is not None else None

    def send(self, cmd):
        try:
            self._conn.send(cmd)
            return True
        except OSError:  # broken pipe, or already closed
            return False

    def recv(self, timeout=None):
        try:
            if timeout is not None and not self._conn.poll(timeout):
                return None
            return self._conn.recv()
        except OSError as exc:  # reset pipe, or already closed
            raise EOFError(str(exc)) from exc

    def alive(self):
        return self._process is not None and self._process.is_alive()

    def kill(self):
        if self.alive():
            self._process.kill()

    def close(self):
        """Join the worker with a timeout and close the parent's pipe
        end, so kill/heal cycles leak neither child processes nor file
        descriptors."""
        process, self._process = self._process, None
        if process is not None:
            try:
                if process.is_alive():
                    process.kill()
                process.join(timeout=10)
                process.close()
            except Exception:  # noqa: BLE001 - it crashed; cleanup is best effort
                pass
        try:
            self._conn.close()  # a closed end refuses send/recv with OSError
        except OSError:
            pass


_TRANSPORTS = {"thread": _ThreadTransport, "process": _ProcessTransport}


class _Shard:
    """The coordinator's record of one shard: the transport hosting its
    current worker, and what must survive a restart — the flush cursor
    (frames per device already delivered to the real devices) and the
    meter baseline already absorbed."""

    __slots__ = ("index", "transport", "flushed", "meter_snapshot")

    def __init__(self, index, transport, device_names):
        self.index = index
        self.transport = transport
        self.flushed = {name: 0 for name in device_names}
        self.meter_snapshot = {}


# -- the coordinator -----------------------------------------------------------


class ShardedRouter:
    """Hash-sharded fan-out over N full routers.

    Mirrors the single-router driving surface — ``run_tasks``,
    ``find``/``insert`` fan-out, ``bump_arp_epochs``, ``force_deopt``,
    ``configure``/``profile``, ``retire`` — plus the sharded extras:
    :meth:`apply_update` (transactional control-plane commit across all
    shards), :meth:`hotswap_all`, :meth:`crash_worker` (fault-injection
    hook), :meth:`merged_counters`, and :meth:`report`.

    Built by :func:`repro.elements.runtime.build_router` whenever the
    profile carries ``workers > 1``; a plain ``Router`` refuses such a
    profile.  Shards (and worker threads/processes) start lazily on the
    first operation, so a fault injector can attach first.
    """

    is_sharded = True

    def __init__(
        self,
        graph,
        extra_classes=None,
        meter=None,
        devices=None,
        profile=None,
        hash_seed=DEFAULT_SEED,
        journal=None,
        chunk_frames=None,
    ):
        from ..errors import ClickSemanticError

        if graph.element_classes:
            raise ClickSemanticError(
                "sharded router requires a flattened configuration "
                "(compound classes remain: %s)" % ", ".join(graph.element_classes)
            )
        self.graph = graph
        self.meter = meter
        self.devices = {} if devices is None else devices
        self._extra_classes = extra_classes
        self._profile = profile if profile is not None else ExecutionProfile()
        self.hash_seed = int(hash_seed)
        if chunk_frames is None:
            chunk_frames = self._profile.chunk_frames or DEFAULT_CHUNK_FRAMES
        self.chunk_frames = int(chunk_frames)
        self._queue_capacity = self._profile.queue_capacity or DEFAULT_QUEUE_CAPACITY
        self.fault_injector = None
        self.retired = False
        self._started = False
        self._journal_flag = journal
        self._journals = []
        self._shards = []
        self._device_names = self._mirrored_devices()
        self._dispatched = []
        self._flushed_total = 0
        self._runs = 0
        self._updates = 0
        self._crashes = 0
        self._replays = 0
        self._final_report = None
        self._recovery = None
        self.hasher = FlowHasher(max(1, self._profile.workers), self.hash_seed)

    def _mirrored_devices(self):
        """The device names every shard mirrors, in deterministic flush
        order: the keys of the ``devices`` dict the plane was handed
        are authoritative; without one, the graph's declarations."""
        return list(self.devices) or device_names_of(self.graph)

    # -- profile surface ---------------------------------------------------

    @property
    def workers(self):
        return self._profile.workers

    @property
    def backend(self):
        return self._profile.shard_backend

    @property
    def profile(self):
        """The live :class:`ExecutionProfile`, workers and backend
        included.  (Shards run its ``shard_local()`` derivation.)"""
        return self._profile

    def configure(self, profile=None):
        """Apply a profile across every shard.  The execution tier,
        batch flavor, and supervision may change on a live plane;
        ``workers`` and ``shard_backend`` are construction-time — once
        the shards exist, changing them raises."""
        if profile is None:
            profile = ExecutionProfile()
        live = self._profile
        if self._started and (
            profile.workers != live.workers or profile.shard_backend != live.shard_backend
        ):
            raise ValueError(
                "cannot reshard a live ShardedRouter (%d/%s -> %d/%s); "
                "build a new one"
                % (live.workers, live.shard_backend, profile.workers, profile.shard_backend)
            )
        if self._started and (
            (profile.queue_capacity or DEFAULT_QUEUE_CAPACITY) != self._queue_capacity
            or profile.divide_capacity != live.divide_capacity
        ):
            raise ValueError(
                "queue_capacity and divide_capacity are construction-time "
                "on a ShardedRouter; build a new one"
            )
        self._profile = profile
        self.hasher = FlowHasher(max(1, profile.workers), self.hash_seed)
        if self._started and profile != live:
            self._control(("configure", profile))
        return self

    # -- lifecycle ---------------------------------------------------------

    def _ensure_started(self):
        # retired wins over started: a control op on a closed plane must
        # raise, never reach stopped workers.
        if self.retired:
            raise RuntimeError("this sharded router is retired")
        if self._started:
            return
        # Early validation: every device a declaration names must resolve.
        for name in device_names_of(self.graph):
            if self.devices.get(name) is None:
                from ..errors import ClickSemanticError

                raise ClickSemanticError("no such device %r" % name)
        self._started = True
        if self._profile.recovery is not None:
            from .recovery import RecoveryManager

            self._recovery = RecoveryManager(self, self._profile.recovery)
        journal = self._journal_flag
        if journal is None:
            # Self-healing needs the journal (replay is the restart
            # mechanism), as does manual fault injection.
            journal = self.fault_injector is not None or self._recovery is not None
        self._journal_enabled = bool(journal)
        self._journals = [[] for _ in range(self.workers)]
        self._dispatched = [0] * self.workers
        host = _TRANSPORTS[self._profile.shard_backend]
        # Workers start in shard-index order (the benchmark tells spawn
        # children apart by it).
        for index in range(self.workers):
            transport = host(self, index)
            self._shards.append(_Shard(index, transport, self._device_names))

    def _journal_cmd(self, index, cmd):
        if self._journal_enabled:
            self._journals[index].append(cmd)

    # -- the transport seam ------------------------------------------------

    def _down(self, shard):
        return self._recovery is not None and self._recovery.is_down(shard.index)

    def _live_shards(self):
        """The shards a command can reach right now."""
        return [shard for shard in self._shards if not self._down(shard)]

    def _lost(self, shard, reason):
        """The health seam's one verdict: this shard's worker is gone —
        it refused a command, let a reply deadline pass, exited, or
        reported an error under recovery.  Dispose of it (kill, reap)
        and hand the shard to the recovery manager; without one, a lost
        worker is fatal."""
        transport = shard.transport
        reason = "%s (exit code %r)" % (reason, transport.exitcode)
        transport.close()
        if self._recovery is None:
            raise RuntimeError(
                "shard worker %d %s; if this happened at startup, the spawn "
                "backend re-imports __main__ — entry scripts need an "
                "if __name__ == '__main__' guard" % (shard.index, reason)
            )
        self._recovery.note_dead(shard.index, reason)

    def _send(self, shard, cmd):
        """Hand one command to a shard's worker.  False when the shard
        is (or just went) down: callers journal *before* sending, so a
        refused command is reconstructed by replay, never lost."""
        if self._down(shard):
            return False
        if shard.transport.send(cmd):
            return True
        self._lost(shard, "refused a command")
        return False

    def _post(self, shard, cmd):
        """Journal-then-send one command of the shard's history."""
        self._journal_cmd(shard.index, cmd)
        return self._send(shard, cmd)

    def _ask(self, shards, cmd, timeout=None, settle=True):
        """Put one question to every shard in ``shards`` — all sends
        first, so the workers answer concurrently — and gather the
        replies as ``[(shard, reply)]``.  A shard that goes down
        instead of answering (under recovery it has ``timeout`` seconds,
        by default the transport's reply deadline) is left out.
        ``("error", exception)`` replies are settled once every reply
        is in, so the protocol stays aligned: re-raised without recovery
        (an unsupervised shard fails exactly like an unsupervised single
        router), worker death with it (rebuild + replay clears the error
        or pins it on a poison frame).  ``settle=False`` returns them."""
        recovery = self._recovery
        asked = [shard for shard in shards if self._send(shard, cmd)]
        answers = []
        for shard in asked:
            transport = shard.transport
            deadline = timeout
            if deadline is None and recovery is not None:
                deadline = transport.reply_timeout
            try:
                reply = transport.recv(deadline)
            except EOFError:
                self._lost(shard, "died mid-protocol")
                continue
            if reply is None:
                self._lost(shard, "hung past its reply deadline")
            else:
                answers.append((shard, reply))
        if not settle:
            return answers
        settled = []
        for shard, reply in answers:
            if reply[0] != "error":
                settled.append((shard, reply))
            elif recovery is None:
                raise reply[1] from RuntimeError("raised in shard worker %d" % shard.index)
            else:
                self._lost(
                    shard, "worker error: %s: %s" % (type(reply[1]).__name__, reply[1])
                )
        return settled

    def _control(self, cmd, deliver=True):
        """Fan one control command out: journal it to *every* shard and
        deliver it to the live ones.  A down shard is journaled but not
        touched: the command reaches it through replay when it comes
        back (counted as a recommit).  ``deliver=False`` only journals —
        for commands the live shards have already acknowledged."""
        self._ensure_started()
        for shard in self._shards:
            self._journal_cmd(shard.index, cmd)
            if self._down(shard):
                self._recovery.note_recommitted()
            elif deliver:
                self._send(shard, cmd)

    # -- driving -----------------------------------------------------------

    def run_tasks(self, iterations=1):
        """One sharded scheduler batch: mirror the real devices'
        transmit windows into the shards, stream the ingress rings to
        them in hash-partitioned rounds, run every shard ``iterations``
        passes, then flush shard output back to the real devices in
        shard order."""
        if self.retired:
            return 0
        self._ensure_started()
        self._runs += 1
        if self._recovery is not None:
            self._sweep()
            # Restarts happen *before* this batch's dispatch, so a
            # recovered shard re-homes its traffic (and drains its
            # buffer) starting with this run.
            self._recovery.on_run_start()
        self._dispatch(iterations)
        worked = sum(reply[1] for _shard, reply in self._ask(self._live_shards(), ("sync",)))
        self._flush()
        return worked

    def _sweep(self):
        """Liveness sweep: a worker that exited on its own is found
        here, before the batch dispatches."""
        for shard in self._live_shards():
            if not shard.transport.alive():
                self._lost(shard, "worker exited")

    def _mirror_caps(self):
        """Per-shard transmit-capacity mirrors: a shard-local device may
        hold at most (what it already holds) + (the real device's
        current ring room) — a downed or full real device blocks the
        shard's ToDevice exactly as it blocks the reference router's.
        At quiescence a shard holds exactly what it has flushed."""
        caps = []
        for shard in self._shards:
            local = {}
            for name in self._device_names:
                device = self.devices.get(name)
                room = device.tx_room() if device is not None else 0
                local[name] = shard.flushed[name] + max(0, room)
            caps.append(local)
        return caps

    def _dispatch(self, iterations):
        """Stream one window to the shards in rounds: drain the ingress
        rings device by device, hash-partition up to ``chunk_frames``
        frames, and post every shard its part with a partial run at
        once — the workers execute round *k* while this loop hashes and
        serializes round *k+1*.  A closing full run guarantees at least
        ``iterations`` passes after the last frame arrives (the drain
        the caller sized).

        A shard that is down when a round is hashed gets nothing (and
        no journal entries): its frames follow the recovery policy.
        One that goes down *at* a post has the command in its journal
        already, so replay delivers it; the rounds not yet hashed see
        it down and re-route."""
        from ..elements.devices import PollDevice

        caps = self._mirror_caps()
        for shard in self._live_shards():
            self._post(shard, ("mirror", caps[shard.index]))
        hasher = self.hasher
        dispatched = self._dispatched
        recovery = self._recovery
        shards = self._shards
        chunk = max(1, self.chunk_frames)
        for name in self._device_names:
            device = self.devices.get(name)
            if device is None:
                continue
            dequeue = device.rx_dequeue
            frame = dequeue()
            while frame is not None:
                degraded = recovery is not None and recovery.degraded()
                parts = [[] for _ in shards]
                for _ in range(chunk):
                    index = hasher(frame)
                    if degraded:
                        index = recovery.route_frame(index, name, frame)
                    if index is not None:  # else buffered or dropped
                        parts[index].append(frame)
                    frame = dequeue()
                    if frame is None:
                        break
                for shard, part in zip(shards, parts):
                    if part:
                        dispatched[shard.index] += len(part)
                        if self._post(shard, ("frames", name, part)):
                            self._post(shard, ("run", len(part) // PollDevice.BURST + 1))
        for shard in self._live_shards():
            self._post(shard, ("run", iterations))

    def _redispatch(self, buffered):
        """Re-route a benched shard's buffered ``(device, frame)`` pairs
        through the degraded policy (they re-steer — the shard is never
        coming back) and deliver them immediately.  Called by the
        recovery manager from :meth:`RecoveryManager.bench`."""
        recovery = self._recovery
        parts = {}
        for name, frame in buffered:
            index = recovery.route_frame(self.hasher(frame), name, frame)
            if index is not None:
                parts.setdefault((index, name), []).append(frame)
        for (index, name), frames in sorted(parts.items()):
            self._dispatched[index] += len(frames)
            self._post(self._shards[index], ("frames", name, frames))

    def _deliver_buffered(self, index, buffered):
        """A recovered shard's buffered ``(device, frame)`` pairs,
        delivered in arrival order per device (journaled — they are now
        part of the shard's history)."""
        parts = {}
        for name, frame in buffered:
            parts.setdefault(name, []).append(frame)
        for name, frames in parts.items():
            self._post(self._shards[index], ("frames", name, frames))
        self._dispatched[index] += len(buffered)

    def _flush(self):
        """Collect and deliver every live shard's fresh output.  A down
        shard's partial output is never flushed: the dying run may have
        stopped mid-batch, and replay regenerates deterministic output
        past the flush cursor exactly once."""
        for shard, reply in self._ask(self._live_shards(), ("collect",)):
            self._take(shard, reply)

    def _take(self, shard, collected, absorb=True):
        """Deliver one ``collect`` reply to the real devices and advance
        the shard's flush cursor.  With ``absorb`` the shard meter's
        growth flows to the parent meter; without (after a replay,
        whose re-executed work was already charged before the crash)
        the meter is only re-baselined."""
        _tag, fresh, meter = collected
        for name in self._device_names:
            frames = fresh.get(name)
            if frames:
                self._deliver(name, frames)
                shard.flushed[name] += len(frames)
                self._flushed_total += len(frames)
        if meter is not None and self.meter is not None:
            if absorb:
                self.meter.absorb(_meter_delta(meter, shard.meter_snapshot))
            shard.meter_snapshot = meter

    def _deliver(self, name, frames):
        """Append shard output to the real device.  ``tx_enqueue`` keeps
        capacity/fault accounting honest; a refusal must still not lose
        the frame (it already left a shard's ring), so it lands on the
        transmitted list directly."""
        device = self.devices.get(name)
        for frame in frames:
            if not device.tx_enqueue(frame):
                device.transmitted.append(bytes(frame))

    # -- control-plane fan-out ---------------------------------------------

    def find(self, name):
        """A fan-out proxy for the named element (None when the
        configuration has no such element) — control writes through it
        reach every shard."""
        if name not in self.graph.elements:
            return None
        return _FanoutElementProxy(self, name)

    def bump_arp_epochs(self):
        """Invalidate every shard's baked ARP header guards; returns the
        per-shard element count (identical on every shard), read back
        from a live shard — declarations cannot tell: the optimizers
        rename classes (``Devirtualize@@arpq0`` is an ARPQuerier)."""
        self._control(("bump_epochs",))
        for shard in self._live_shards():
            for _shard, reply in self._ask([shard], ("arp_epoch_holders",)):
                return reply[1]
        return 0

    def force_deopt(self, reason="forced"):
        """Force every shard's tiered engine back to tier 1; True when
        the profile runs one (mirrors ``Router.force_deopt``)."""
        self._control(("deopt",))
        return self._profile.mode in ("adaptive", "fdd")

    def hotswap_all(self, new_graph):
        """Hot-swap every shard to ``new_graph`` (text or graph).  Each
        per-shard swap is transactional; a failure on any shard rolls
        the ones that swapped back to the old configuration, and the
        plane's graph and journal only ever name a configuration every
        live shard acknowledged.  Returns self (the sharded router's
        identity is stable)."""
        from ..core.toolchain import save_config

        text = new_graph if isinstance(new_graph, str) else save_config(new_graph)
        self._ensure_started()
        self._swap_live("hotswap", text)
        return self

    def _swap_live(self, op, text):
        """Install configuration ``text`` on every live shard through
        per-shard transactional swaps (``op`` is ``"hotswap"`` or
        ``"update"``), each acknowledged by the sync that follows it.
        If any shard rejects, the shards that swapped are swapped back
        and the first rejection re-raised; only when all acknowledged
        is the command journaled (to every shard, down ones included)
        and the plane's graph advanced.  Returns the first shard's
        :class:`~repro.elements.hotswap.SwapReport`."""
        from ..core.toolchain import save_config

        live = self._live_shards()
        if not live:
            raise RecoveryError("every shard is down; nothing to swap")
        old_text = save_config(self.graph)
        for shard in live:
            self._send(shard, (op, text))
        replies = self._ask(live, ("sync",), settle=False)
        rejections = [reply[1] for _shard, reply in replies if reply[0] == "error"]
        if rejections:
            swapped = [shard for shard, reply in replies if reply[0] != "error"]
            for shard in swapped:
                self._send(shard, (op, old_text))
            self._ask(swapped, ("sync",))
            raise rejections[0]
        if not replies:
            raise RecoveryError("every shard went down during the swap; nothing installed")
        self._control((op, text), deliver=False)
        self._set_graph(text)
        return replies[0][1][2]

    def _set_graph(self, text):
        from ..core.toolchain import load_config

        graph = load_config(text, "<shard-graph>")
        if graph.element_classes:
            from ..core.flatten import flatten

            graph = flatten(graph)
        self.graph = graph
        self._device_names = self._mirrored_devices()

    def apply_update(self, update):
        """Install one control-plane update on *every* shard
        transactionally.

        Pure-data deltas use two-phase commit: phase one stages the
        parsed, validated new tables on every shard (no mutation);
        only when every shard staged cleanly does phase two commit them
        all — a rejection anywhere leaves every shard serving the old
        tables.  Structural deltas hot-swap shard by shard with
        rollback on failure.  Returns the first live shard's
        :class:`~repro.elements.hotswap.SwapReport` (it rides back on
        the commit acknowledgement)."""
        from ..core.toolchain import save_config

        self._ensure_started()
        self._updates += 1
        if isinstance(update, str):
            text = update
        else:
            # The journal's replayable form is text; a bare GraphDelta
            # is materialized against the plane's graph.
            from ..graph.diff import GraphDelta

            if isinstance(update, GraphDelta):
                update = update.apply_to(self.graph)
            text = save_config(update)
        return self._two_phase(text)

    def _two_phase(self, text, retried=False):
        from ..elements.hotswap import SwapReport

        recovery = self._recovery
        if recovery is not None:
            self._sweep()
        live = self._live_shards()
        if not live:
            raise RecoveryError("every shard is down; nothing to update")
        # Stage and commit are bounded by the prepare timeout — a worker
        # that dies or hangs mid-phase must not wedge the whole plane's
        # control path.
        prepare = recovery.config.prepare_timeout if recovery is not None else None
        verdicts = self._ask(live, ("update_stage", text), timeout=prepare)
        staged = [shard for shard, _verdict in verdicts]
        kinds = {verdict[1] for _shard, verdict in verdicts}
        if len(staged) < len(live):
            # Someone died during stage: abort the survivors, bring the
            # dead back (their journals have no trace of this update),
            # and run the whole update once more on the full plane.
            self._abort(staged)
            return self._retry_update(text, retried)
        if "rejected" in kinds:
            self._abort(staged)
            raise next(verdict[2] for _shard, verdict in verdicts if verdict[1] == "rejected")
        if kinds == {"empty"}:
            return SwapReport("no-op", profile=self._profile.label)
        if kinds == {"ok"}:
            self._fire_commit_hook()
            committed = self._ask(staged, ("update_commit",), timeout=prepare)
            if len(committed) < len(staged):
                # Phase two broke: a worker died between stage and
                # commit (or mid-commit).  Roll the confirmed survivors
                # back to the old tables, restore the dead, and retry
                # the update once against the whole plane.
                self._rollback_committed([shard for shard, _ack in committed])
                return self._retry_update(text, retried)
            self._control(("update", text), deliver=False)
            return committed[0][1][1]
        # Structural (or not patchable in place) somewhere: per-shard
        # transactional swaps, rolled back together on failure.
        self._abort(staged)
        return self._swap_live("update", text)

    def _abort(self, shards):
        for shard in shards:
            self._send(shard, ("update_abort",))

    def _fire_commit_hook(self):
        """The fault injector's window between "every shard staged"
        and "first shard committed" — where a ``worker_kill`` with
        ``phase="commit"`` lands."""
        injector = self.fault_injector
        hook = getattr(injector, "on_commit_phase", None)
        if hook is not None:
            hook(self._updates)

    def _rollback_committed(self, shards):
        """Mid-commit failure: surviving shards that already committed
        re-apply the *old* configuration, so every live shard serves
        the same tables while the dead one recovers."""
        from ..core.toolchain import save_config

        old_text = save_config(self.graph)
        for shard in shards:
            self._send(shard, ("update", old_text))
        self._ask(shards, ("sync",))

    def _retry_update(self, text, already_retried):
        """Force the dead shards back up (no backoff — the control
        plane is blocked on them) and re-run the update across the
        whole plane, once."""
        if self._recovery is None or already_retried:
            raise RecoveryError(
                "a worker died during a two-phase update and the retry "
                "also failed; the plane is inconsistent"
            )
        for index in list(self._recovery.down_indices()):
            self._recovery.attempt_restart(index, force=True)
        return self._two_phase(text, retried=True)

    # -- worker faults -----------------------------------------------------

    def crash_worker(self, index):
        """Kill shard ``index`` and recover it *synchronously*: a fresh
        shard replays the journal — every frame batch, scheduler run,
        transmit mirror, and control op since birth — reconstructing
        byte-identical state (everything in the pipeline is
        deterministic).  The fault injector's ``worker_crash`` fault
        calls this; contrast :meth:`kill_worker`, which only kills and
        leaves detection and restart to the recovery manager."""
        self._ensure_started()
        index = index % self.workers
        if not self._journal_enabled:
            raise RuntimeError(
                "worker_crash needs the command journal; build the "
                "ShardedRouter with journal=True or attach a fault injector "
                "before the first operation"
            )
        self._crashes += 1
        self._revive_shard(index)

    def _fault_target(self, index, fault):
        """The live shard a self-healing fault hook may strike (None
        when it is already down), noting the strike so detection
        latency is measured from it."""
        self._ensure_started()
        index = index % self.workers
        if self._recovery is None:
            raise RecoveryError(
                "%s needs a recovery policy on the profile "
                "(ExecutionProfile.with_recovery); use worker_crash for "
                "synchronous journal-replay recovery without one" % fault
            )
        if self._recovery.is_down(index):
            return None
        self._recovery.note_killed(index)
        return self._shards[index]

    def kill_worker(self, index):
        """Kill shard ``index`` and walk away — the self-healing path's
        entry point (``worker_kill`` faults).  Detection happens at the
        next health seam; restart follows the backoff schedule.
        Requires a recovery policy on the profile."""
        shard = self._fault_target(index, "worker_kill")
        if shard is not None:
            shard.transport.kill()

    def hang_worker(self, index, seconds=30.0):
        """Wedge shard ``index`` (``worker_hang`` faults): the worker
        sleeps instead of progressing, so a reply deadline — not a
        crash — has to find it.  Not journaled: a hang is transient
        wall-clock behavior, not shard history."""
        shard = self._fault_target(index, "worker_hang")
        if shard is not None:
            self._send(shard, ("hang", float(seconds)))

    def arm_poison(self, frame):
        """Arm a poison frame (``worker_poison`` faults) on every
        shard: processing it kills the worker, deterministically —
        journaled, so replay re-dies on it until quarantine strips it
        and records the repro."""
        self._ensure_started()
        if not self._journal_enabled:
            raise RuntimeError(
                "worker_poison needs the command journal; attach a fault "
                "injector or a recovery policy before the first operation"
            )
        self._control(("poison", bytes(frame)))

    # -- restart + journal replay ------------------------------------------

    def _revive_shard(self, index, singly=False):
        """Dispose of shard ``index``'s worker, start a fresh one and
        resend its journal — the recovery manager's restart mechanism
        (and ``crash_worker``'s recovery half).  The fast path ships
        the whole journal and syncs once; ``singly`` — the manager's
        fallback after an unattributed batch-replay death — replays
        frames one at a time, so a killer frame raises a
        :class:`ReplayFrameError` naming its exact ``(command, frame)``
        journal position, which quarantine strips by.

        Replay talks to the transport directly, outside the health
        seam: a replay that dies or hangs is this *restart's* failure,
        raised to the caller, not a new detection."""
        shard = self._shards[index]
        shard.transport.close()
        shard.transport = type(shard.transport)(self, index)  # same host, new life
        journal = self._journals[index]
        if singly:
            for position, cmd in enumerate(journal):
                if cmd[0] != "frames":
                    self._replay(shard, cmd, sync=True)
                    continue
                name = cmd[1]
                for fpos, frame in enumerate(cmd[2]):
                    try:
                        self._replay(shard, ("frames", name, [frame]), sync=True)
                    except Exception as exc:  # noqa: BLE001 - attributed
                        raise ReplayFrameError(
                            index, name, frame, (position, fpos),
                            "%s: %s" % (type(exc).__name__, exc),
                        ) from exc
        else:
            for cmd in journal:
                self._replay(shard, cmd)
        # The parent already consumed everything it flushed before the
        # crash; realign the worker's collect cursor so replayed frames
        # are not delivered twice.
        self._replay(shard, ("set_flushed", dict(shard.flushed)), sync=True)
        # Deliver the replay's regenerated-but-unflushed output (the
        # dying run's frames, which the parent never collected).
        self._take(shard, self._replay(shard, ("collect",), ask=True), absorb=False)
        self._replays += 1

    def _replay(self, shard, cmd, sync=False, ask=False):
        """One step of a replay: send ``cmd``; with ``sync`` follow it
        with a sync and wait for the worker to have executed it, with
        ``ask`` wait for ``cmd``'s own reply (returned).  Bounded by
        four reply deadlines when self-healing (a hung replay must not
        wedge the restart path), blocking like the manual crash path
        otherwise.  Any failure raises."""
        transport = shard.transport
        delivered = transport.send(cmd)
        if sync:
            delivered = delivered and transport.send(("sync",))
        if not delivered:
            raise RuntimeError("shard %d died under replay" % shard.index)
        if not (sync or ask):
            return None
        timeout = None
        if self._recovery is not None:
            timeout = max(10.0, transport.reply_timeout * 4)
        reply = transport.recv(timeout)  # EOFError: died under replay
        if reply is None:
            raise RuntimeError("shard %d hung under replay" % shard.index)
        if reply[0] == "error":
            raise RuntimeError(
                "shard %d replay failed: %s: %s"
                % (shard.index, type(reply[1]).__name__, reply[1])
            )
        return reply

    def _strip_journal_frame(self, index, position):
        """Quarantine's surgical edit: remove one attributed frame from
        the journal (dropping its command when emptied), so the next
        replay runs clean."""
        cmd_pos, frame_pos = position
        journal = self._journals[index]
        op, name, frames = journal[cmd_pos]
        frames = frames[:frame_pos] + frames[frame_pos + 1 :]
        if frames:
            journal[cmd_pos] = (op, name, frames)
        else:
            del journal[cmd_pos]

    # -- observability -----------------------------------------------------

    def merged_counters(self):
        """Every element read handler, reconciled across shards: numeric
        values sum; non-numeric values report shard 0's."""
        self._ensure_started()
        merged = {}
        for _shard, reply in self._ask(self._live_shards(), ("counters",)):
            for key, value in reply[1].items():
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    merged.setdefault(key, value)
                else:
                    merged[key] = merged.get(key, 0) + value
        return merged

    def report(self):
        """A :class:`ShardReport` of the plane's lifetime so far (the
        last one captured is returned after :meth:`close`)."""
        if self.retired and self._final_report is not None:
            return self._final_report
        report = ShardReport()
        report.workers = self.workers
        report.backend = self._profile.shard_backend
        report.seed = self.hash_seed
        report.dispatched = list(self._dispatched) or [0] * self.workers
        report.flushed = self._flushed_total
        report.runs = self._runs
        report.updates = self._updates
        report.crashes = self._crashes
        report.replays = self._replays
        if self._started and not self.retired:
            report.queue_high_water = [
                shard.transport.high_water
                for shard in self._shards
                if shard.transport.high_water is not None
            ]
            for shard, reply in self._ask(self._live_shards(), ("report",)):
                if reply[1] is not None:
                    report.supervisors["shard-%d" % shard.index] = reply[1]
        if self._recovery is not None:
            report.recovery = self._recovery.report().as_dict()
        if self.meter is not None:
            report.meter = self.meter.summary()
        return report

    # -- teardown ----------------------------------------------------------

    def close(self):
        """Stop every worker and release the plane.  Idempotent; the
        final :class:`ShardReport` stays readable via :meth:`report`."""
        if self.retired:
            return
        if self._started:
            try:
                self._final_report = self.report()
            except Exception:  # noqa: BLE001 - teardown must not raise
                self._final_report = None
            for shard in self._shards:
                transport = shard.transport
                try:
                    if transport.alive() and transport.send(("stop",)):
                        transport.recv(5)
                except Exception:  # noqa: BLE001
                    pass
                transport.close()
        self.retired = True

    def retire(self):
        """Decommission (hot-swap parity with ``Router.retire``)."""
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:  # noqa: BLE001
            pass
