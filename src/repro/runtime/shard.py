"""The sharded multi-worker data plane: N compiled routers behind an
RSS-style flow-hash dispatcher.

A :class:`ShardedRouter` partitions ingress traffic by flow key
(:mod:`repro.runtime.flowhash`) across ``profile.workers`` shards, each
owning a *full* router — built from the same configuration graph, run
under the same shard-local :class:`~repro.runtime.profile.ExecutionProfile`
(reference, fast, batch, fdd, or supervised) — and reconciles the
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
  :class:`SPSCQueue`; objects cross by reference and the chain store
  is shared, so startup is cheap.  This is what the differential
  oracle and ``click-chaos`` run by default (Python threads
  buy no wall-clock parallelism; equivalence is the point).
- ``"process"`` — a child forked from a ``multiprocessing`` fork
  server that preloaded the runtime, over a pipe, building and
  compiling its router from the configuration *text* it is sent (the
  children compile side by side; nothing compiled crosses the pipe).
  True parallelism: the host the 1→N scale curve and the benchmark
  measure.

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

Control-plane operations fan out to every shard as events of
:mod:`repro.events`, which a worker runs through the same
:func:`repro.events.apply` the oracle does.  The coordinator resolves an
update or a hot-swap once into a :class:`~repro.graph.diff.GraphDelta`
(re-parsing only the statements a text update edited, when it can), and
the workers and the journal get the delta: no worker parses text after
it is built.  A pure-data update is staged on every shard and only then
committed everywhere, so a rejected update leaves every shard on the old
tables; a structural one, like :meth:`ShardedRouter.hotswap_all`, is
installed shard by shard, in place, and undone on the installed ones by
the inverse delta if any rejects.  Either is journaled only once every
live shard acknowledged it.

Worker faults: a shard's journal holds everything it was given since
birth, so a fresh worker that replays it reconstructs byte-identical
state — how ``crash_worker`` and self-healing
(:mod:`repro.runtime.recovery`) restart a shard, and what
:meth:`ShardedRouter.export_case` writes as an oracle case.  Every
command is journaled *before* delivery is attempted, so a command
refused by a dying worker is reconstructed by replay, never lost; and a
down shard's partial output is never flushed (replay regenerates it,
and the flush cursor delivers everything past it exactly once).

Cross-worker safety notes (the audit thread-hosted workers forced):
``ELEMENT_CLASSES`` is a read-only registry after import; the dest-IP
intern cache (:data:`repro.net.packet._DEST_IP_CACHE`) is only touched
via single dict operations, which the GIL keeps atomic; the process-wide
chain store serializes every operation behind a lock (chains are
entered, and compiled, on worker threads).  Shards share no mutable
runtime state — each worker has its own graph, elements, devices, meter,
and engine, and the coordinator never touches them.
"""

from __future__ import annotations

import operator
import os
import pickle
import queue
import threading
import time as _time
from collections import OrderedDict
from typing import NamedTuple

from ..events import apply, case_events, merge_rules, read_counters
from .flowhash import DEFAULT_SEED, FlowHasher
from .profile import ExecutionProfile
from .recovery import PoisonFrameError, RecoveryError, ReplayFrameError

_monotonic = _time.monotonic

#: The process that imported this module.  A forked worker inherits it,
#: so a worker reading another pid here found the runtime already loaded.
_IMPORTED_BY = os.getpid()

__all__ = [
    "DEFAULT_CHUNK_FRAMES",
    "DEFAULT_QUEUE_CAPACITY",
    "SPSCQueue",
    "ShardReport",
    "ShardedRouter",
    "device_names_of",
    "divide_queue_capacities",
]

#: Capacity of the bounded SPSC handoff queues (thread transport).
DEFAULT_QUEUE_CAPACITY = 256

#: Default frames per dispatch round (``ExecutionProfile.chunk_frames``
#: overrides it): the best of a measured sweep over 64..2048 on two
#: process workers (EXPERIMENTS.md) — smaller rounds pay per-command
#: overhead, larger ones leave the workers idle while the first round
#: is hashed.
DEFAULT_CHUNK_FRAMES = 256

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
        if issubclass(cls, Queue):
            decl.config = _capacity_share(decl.name, decl.config, index, workers)
    return divided


def _capacity_share(name, config, index, workers):
    """Shard ``index``'s share of the capacity queue ``name`` is
    configured with (``config`` itself when that is not a plain
    integer)."""
    from ..elements.infrastructure import Queue

    text = (config or "").strip()
    try:
        capacity = int(text) if text else Queue.DEFAULT_CAPACITY
    except ValueError:
        return config
    if capacity < workers:
        from ..errors import ClickSemanticError

        raise ClickSemanticError(
            "divide_capacity cannot split %s(%d) across %d shards; "
            "every bounded queue needs capacity >= the worker count"
            % (name, capacity, workers)
        )
    return str(capacity // workers + (1 if index < capacity % workers else 0))


def _divided_delta(delta, router, index, workers):
    """Shard ``index``'s view of the plane's undivided ``delta``, to
    apply to ``router`` (built divided): every queue the delta adds or
    reconfigures gets its share, as :func:`divide_queue_capacities`
    gives it, and a change that leaves this shard's share where it was
    is dropped."""
    from ..elements.infrastructure import Queue
    from ..elements.runtime import compile_archive_classes
    from ..elements.registry import ELEMENT_CLASSES
    from ..graph.diff import ElementChange, GraphDelta

    declared = router.graph.elements
    generated = None

    def divide(name, class_name, config):
        nonlocal generated
        decl = declared.get(name)
        if decl is not None and decl.class_name == class_name:
            cls = type(router.elements[name])
        else:
            # A class this shard may not have built yet: look it up the
            # way a build does, the archive first, then the registry.
            if generated is None:
                generated = compile_archive_classes({**router.graph.archive, **delta.archive})
            cls = generated.get(class_name) or ELEMENT_CLASSES.get(class_name)
        if cls is not None and issubclass(cls, Queue):
            return _capacity_share(name, config, index, workers)
        return config

    changed = []
    for change in delta.changed:
        decl = declared.get(change.name)
        current = change.old_config if decl is None else decl.config
        config = divide(change.name, change.new_class, change.new_config)
        if change.class_changed or config != current:
            changed.append(
                ElementChange(change.name, change.old_class, change.new_class, current, config)
            )
    return GraphDelta(
        added=[(name, cls, divide(name, cls, config)) for name, cls, config in delta.added],
        removed=delta.removed,
        changed=changed,
        added_connections=delta.added_connections,
        removed_connections=delta.removed_connections,
        archive=delta.archive,
        after=delta.after,
    )


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
    reference).  Returns ``(router, devices, share)``; ``share`` is
    ``(shard index, workers)`` under divide-capacity mode, else None —
    every later configuration or delta this shard installs is divided
    by it, because journaled ones are always undivided."""
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
    share = None
    if profile.divide_capacity and profile.workers > 1:
        share = (shard_index, profile.workers)
    graph = load_config(config, "<shard>") if isinstance(config, str) else config
    if share is not None:
        graph = divide_queue_capacities(graph, *share)
    router = build_router(
        graph,
        extra_classes=extra_classes,
        devices=devices,
        meter=meter,
        profile=profile.shard_local(),
    )
    return router, devices, share


#: How :meth:`ShardedRouter.merged_counters` combines two shards' values
#: of a counter, by its declared merge rule (any other rule: the first).
_MERGES = {"sum": operator.add, "max": max}

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
    knows whether that is a pipe into a worker process or a pair of
    queues into a thread.

    With ``metered`` the shard runs the reference interpreter under its
    own CycleMeter, whatever the profile's mode; the meter's summary
    rides back on every ``collect`` for the coordinator to absorb.  A
    command that fails parks its error for the next
    ``sync``; a failing :data:`_ASKS` command answers with the error.
    An armed poison frame raises :class:`PoisonFrameError` *out of*
    the loop: the host turns that into the worker's death."""
    from ..control import ControlPlane
    from ..graph.diff import GraphDelta

    # A worker holds only output the coordinator has not consumed.  The
    # flush cursor and the transmit mirrors count from the worker's
    # birth; a device's list counts from ``base``, the frames it has let
    # go of.  ``owed`` is what replay still regenerates below the cursor
    # (delivered by an earlier life), dropped after every run.
    base = {name: 0 for name in device_names}
    owed = {}
    worked = 0
    staged = None  # (plane, batch, delta, stage seconds)
    swap_report = None  # the last hotswap/update's SwapReport, for the next sync
    poisons = set()  # armed kill frames (worker_poison faults)
    router = devices = share = None
    try:
        router, devices, share = _build_shard(
            config, profile, device_names, metered, shard_index, extra_classes
        )
        broken = None
    except Exception as exc:  # noqa: BLE001 - reported through the protocol
        # No router to serve.  Keep answering, so the coordinator hears
        # the build error (at its first sync or question) instead of
        # diagnosing a hang.
        broken = _portable(exc)

    def let_go(name, count):
        """Drop the first ``count`` frames ``name`` holds.  Capacity
        shrinks with the list, so the room the shard sees is unchanged."""
        device = devices[name]
        del device.transmitted[:count]  # in place: the tx loop binds the list
        device.tx_capacity -= count
        base[name] += count

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
                for name, count in list(owed.items()):
                    dropped = min(count, len(devices[name].transmitted))
                    let_go(name, dropped)
                    if dropped == count:
                        del owed[name]
                    else:
                        owed[name] = count - dropped
            elif op == "mirror":
                for name, capacity in cmd[1].items():
                    devices[name].tx_capacity = capacity - base[name]
            elif op == "poison":
                poisons.add(bytes(cmd[1]))
            elif op == "hang":
                # Fault injection: stop making progress, so the reply
                # deadline — not a crash — has to find this worker.
                _time.sleep(cmd[1])
            elif op == "update_stage":
                # The coordinator resolved the update into a GraphDelta
                # against the committed graph: nothing to parse here.
                staged = None
                try:
                    started = _time.perf_counter()
                    delta = cmd[1]
                    if share is not None:
                        delta = _divided_delta(delta, router, *share)
                    plane = ControlPlane(router)
                    batch = None if delta.structural else plane.stage_patch(delta)
                except Exception as exc:  # noqa: BLE001 - a rejection, not a fault
                    # Nothing staged, live tables untouched: the
                    # coordinator aborts everywhere and re-raises this.
                    send(("staged", "rejected", _portable(exc)))
                else:
                    if batch is None:
                        send(("staged", "structural"))
                    elif not batch[0]:  # nothing changed, or only to equivalent tables
                        send(("staged", "empty"))
                    else:
                        staged = (plane, batch, delta, _time.perf_counter() - started)
                        send(("staged", "ok"))
            elif op == "update_commit":
                plane, batch, delta, stage_seconds = staged
                staged = None
                report = plane.commit_patch(batch, delta)
                report.phases["stage"] = stage_seconds
                report.phases.move_to_end("patch")
                send(("committed", report))
            elif op == "update_abort":
                staged = None
            elif op == "set_flushed":  # a fresh worker's first command under replay
                owed = {name: cursor for name, cursor in cmd[1].items() if cursor}
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
                    if frames:
                        fresh[name] = frames[:]
                        let_go(name, len(frames))
                meter = router.meter.summary() if router.meter is not None else None
                send(("collected", fresh, meter))
            elif op == "counters":
                send(("counters", read_counters(router), merge_rules(router)))
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
                # A control event (repro.events).  A delta arrives
                # undivided, as the journal holds it.
                if share is not None and isinstance(cmd[-1], GraphDelta):
                    cmd = (op, _divided_delta(cmd[1], router, *share))
                swap_report = apply(router, cmd)
        except PoisonFrameError:
            raise
        except Exception as exc:  # noqa: BLE001 - reported through the protocol
            if op in _ASKS:
                send(("error", _portable(exc)))
            elif pending_error is None:
                pending_error = _portable(exc)


def _process_shard_main(conn, *args):
    """A forked worker process: serve the pipe.  A poison frame kills
    the process the hard way — no exception protocol, just a dead
    process for the health seam to find."""
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
    and ``extra_classes`` by reference, the chain store shared.

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
        self._inbox = SPSCQueue()
        self._outbox = queue.SimpleQueue()
        self._fenced = False
        self._listening = threading.Event()
        self._thread = threading.Thread(
            target=self._host,
            args=(
                # A private copy: an in-place commit rewrites the
                # declarations of the graph its router was built on.
                plane._birth.copy(),
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
        # One build at a time: the chain store is shared in-process,
        # so the next worker finds the chains this one compiled instead
        # of compiling the same chains beside it.
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


#: Serializes the environment hand-off to the fork server.
_SERVER_LOCK = threading.Lock()


def _process_context():
    """The ``multiprocessing`` context process workers are forked from:
    a fork server that has imported this module — and with it the
    runtime — once per coordinator process, so a worker or a revive is
    one ``fork()`` of it instead of a fresh interpreter importing
    ``repro``.  The server compiles nothing; every worker compiles its
    configuration text cold.

    The server is started here, not at the first ``Process.start()``:
    Python 3.11's server is sent the coordinator's ``sys.path`` but
    never applies it, and its preload swallows the ``ImportError``, so
    a coordinator that reaches ``repro`` through a ``sys.path`` insert
    would get a server that preloaded nothing.  The directory holding
    the package goes to the server through ``PYTHONPATH``, set only
    while it starts.  A server someone else started without this
    preload is still correct, only slower: its children import
    ``repro`` themselves."""
    import multiprocessing
    import tempfile
    from multiprocessing import forkserver, util

    ctx = multiprocessing.get_context("forkserver")
    ctx.set_forkserver_preload([__name__])
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with _SERVER_LOCK:
        # The server listens on a socket in multiprocessing's temp dir,
        # ``<tempdir>/pymp-XXXXXXXX/listener-XXXXXXXX``, and a socket
        # path holds 107 bytes: under a longer TMPDIR Python 3.11 cannot
        # bind it, so that dir is made where the path fits.
        saved_tempdir = tempfile.tempdir
        if len(tempfile.gettempdir()) > 75:
            tempfile.tempdir = "/tmp"
        try:
            util.get_temp_dir()
        finally:
            tempfile.tempdir = saved_tempdir
        saved = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (root, saved)))
        try:
            forkserver.ensure_running()
        finally:
            if saved is None:
                del os.environ["PYTHONPATH"]
            else:
                os.environ["PYTHONPATH"] = saved
    return ctx


class _ProcessTransport:
    """A worker hosted in a child forked from the preloaded fork server
    (:func:`_process_context`) over a :class:`multiprocessing.Pipe`:
    the configuration crosses as text and the child compiles it, and a
    hung worker is SIGKILLed and reaped."""

    high_water = None  # a pipe has no bounded queue to report

    def __init__(self, plane, index):
        from ..core.toolchain import save_config

        if plane._extra_classes:
            raise ValueError(
                "the process backend rebuilds shards from configuration "
                "text and cannot ship extra_classes; use the thread backend"
            )
        recovery = plane._profile.recovery
        self.reply_timeout = None if recovery is None else recovery.heartbeat_timeout
        ctx = _process_context()
        self._conn, child_conn = ctx.Pipe()
        self._process = ctx.Process(
            target=_process_shard_main,
            args=(
                child_conn,
                save_config(plane._birth),
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


class _Update(NamedTuple):
    """One update as the coordinator resolved it: the ``delta`` every
    shard gets, the ``graph`` it commits (None until
    :meth:`against` computes it), and the configuration ``text`` it was
    given as, with its statement ``ends`` (both None when unknown)."""

    delta: object
    graph: object
    text: object
    ends: object

    def against(self, committed):
        """This update with its graph: ``delta`` applied to ``committed``."""
        if self.graph is not None:
            return self
        return self._replace(graph=self.delta.apply_to(committed))

    def inverse(self, committed):
        """The delta that takes a shard from this update's graph back to
        ``committed`` (removed elements return to their old places)."""
        from ..graph.diff import diff_graphs

        return diff_graphs(self.against(committed).graph, committed)


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
    ``configure``/``profile`` — plus the sharded extras:
    :meth:`apply_update` (transactional control-plane commit across all
    shards), :meth:`hotswap_all`, :meth:`crash_worker` (fault-injection
    hook), :meth:`merged_counters`, :meth:`report` and :meth:`export_case`.

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
        journal=None,
    ):
        from ..errors import ClickSemanticError

        if graph.element_classes:
            raise ClickSemanticError(
                "sharded router requires a flattened configuration "
                "(compound classes remain: %s)" % ", ".join(graph.element_classes)
            )
        # Every shard is born from this configuration, and journal replay
        # starts from it, whatever the plane has committed since.
        self._birth = graph
        self._graph = graph
        # The committed configuration as text, when an update gave it,
        # and its top-level statement ends when the next text update
        # may re-parse only what it edited (lang/region.py).
        self._text = None
        self._ends = None
        self.meter = meter
        self.devices = {} if devices is None else devices
        self._extra_classes = extra_classes
        self._profile = profile if profile is not None else ExecutionProfile()
        self.chunk_frames = self._profile.chunk_frames or DEFAULT_CHUNK_FRAMES
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
        self.hasher = FlowHasher(max(1, self._profile.workers), DEFAULT_SEED)

    @property
    def graph(self):
        """The configuration every live shard last acknowledged."""
        return self._graph

    def _commit(self, update):
        """Advance the plane to ``update`` (an :class:`_Update`)."""
        update = update.against(self._graph)
        self._graph, self._text, self._ends = update.graph, update.text, update.ends

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
        ``workers``, ``shard_backend`` and ``divide_capacity`` are
        construction-time — once the shards exist, changing them
        raises."""
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
        if self._started and profile.divide_capacity != live.divide_capacity:
            raise ValueError(
                "divide_capacity is construction-time on a ShardedRouter; "
                "build a new one"
            )
        self._profile = profile
        self.hasher = FlowHasher(max(1, profile.workers), DEFAULT_SEED)
        if self._started and profile != live:
            self._control(("configure", profile.shard_local()))
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
        # Workers start in shard-index order (the benchmark tells
        # process workers apart by it).
        for index in range(self.workers):
            transport = host(self, index)
            self._shards.append(_Shard(index, transport, self._device_names))

    def _need_journal(self, what):
        if not getattr(self, "_journal_enabled", False):
            raise RuntimeError(
                "%s needs the command journal: build the ShardedRouter with journal=True, "
                "a fault injector or a recovery policy" % what
            )

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
                "shard worker %d %s; if this happened at startup, note that "
                "process workers run the entry script's top level again as "
                "__mp_main__ — entry scripts need an "
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
        send at most (what it has flushed) + (the real device's current
        ring room) — a downed or full real device blocks the shard's
        ToDevice exactly as it blocks the reference router's.  The cap
        counts from the worker's birth, like the flush cursor; the
        worker subtracts what it has let go of.  At quiescence a live
        shard holds nothing, so its room is exactly the real ring's."""
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
        return self._profile.mode == "fdd"

    def hotswap_all(self, new_graph):
        """Hot-swap every shard, transactionally, to ``new_graph``: a
        delta, a graph or text, resolved as :meth:`apply_update` resolves
        an update.  Returns the first shard's ``SwapReport``."""
        self._ensure_started()
        return self._swap_live("hotswap", self._resolve(new_graph))

    def _swap_live(self, kind, update):
        """Install ``update`` (an :class:`_Update`) as ``(kind, delta)``
        on every live shard, each swap acknowledged by the sync after
        it.  If any shard rejects, the ones that swapped get the inverse
        delta and the first rejection is re-raised; only when all
        acknowledged is the command journaled (to every shard, down ones
        included) and the plane advanced.  Returns the first shard's
        :class:`~repro.elements.hotswap.SwapReport`."""
        live = self._live_shards()
        if not live:
            raise RecoveryError("every shard is down; nothing to swap")
        cmd = (kind, update.delta)
        for shard in live:
            self._send(shard, cmd)
        replies = self._ask(live, ("sync",), settle=False)
        rejections = [reply[1] for _shard, reply in replies if reply[0] == "error"]
        if rejections:
            swapped = [shard for shard, reply in replies if reply[0] != "error"]
            undo = (kind, update.inverse(self._graph))
            for shard in swapped:
                self._send(shard, undo)
            self._ask(swapped, ("sync",))
            raise rejections[0]
        if not replies:
            raise RecoveryError("every shard went down during the swap; nothing installed")
        self._control(cmd, deliver=False)
        self._commit(update)
        self._device_names = self._mirrored_devices()
        return replies[0][1][2]

    def apply_update(self, update):
        """Install one control-plane update on *every* shard
        transactionally.

        ``update`` is a :class:`~repro.graph.diff.GraphDelta`, a graph,
        or configuration text, resolved here once into a delta against
        :attr:`graph` — text by re-parsing only the statements it edited
        when that can only rewrite configuration strings, by a full
        parse otherwise — and the workers and the journal get the
        delta.  Pure-data deltas use two-phase commit: phase one stages
        the validated new tables on every shard (no mutation); only when
        every shard staged cleanly does phase two commit them all — a
        rejection anywhere leaves every shard serving the old tables.
        Structural deltas are installed shard by shard, in place, with
        rollback on failure.  Returns the first live shard's
        :class:`~repro.elements.hotswap.SwapReport` (it rides back on
        the commit acknowledgement), its ``diff`` phase the resolve."""
        self._ensure_started()
        self._updates += 1
        started = _time.perf_counter()
        resolved = self._resolve(update)
        seconds = _time.perf_counter() - started
        report = self._two_phase(resolved)
        report.phases["diff"] = seconds
        report.phases.move_to_end("diff", last=False)
        return report

    def _resolve(self, update):
        """``update`` as an :class:`_Update` against :attr:`graph`.  The
        full parse is the semantics, and raises the canonical errors;
        the region re-parse only ever short-cuts to the same delta."""
        from ..graph.diff import GraphDelta, diff_graphs

        if isinstance(update, GraphDelta):
            return _Update(update, None, None, None)
        text = ends = None
        if isinstance(update, str):
            from ..core.toolchain import load_config
            from ..lang.archive import is_archive
            from ..lang.region import parse_with_ends

            text = update
            if is_archive(text):
                update = load_config(text, "<update>")
            else:
                edited = self._edited(text)
                if edited is not None:
                    return edited
                update, ends = parse_with_ends(text, "<update>")
                if update.element_classes:
                    ends = None
        if update.element_classes:
            from ..core.flatten import flatten

            update = flatten(update)
        return _Update(diff_graphs(self._graph, update), None, text, ends)

    def _edited(self, text):
        """The :class:`_Update` for ``text`` from re-parsing only the
        statements that differ from the committed text, or None when
        only a full parse can resolve it: no committed text to compare
        with, an edited region that does not parse alone, or one that
        holds anything but declarations keeping their names and class."""
        from ..graph.diff import ElementChange, GraphDelta
        from ..lang.region import reparse_edit

        if self._ends is None:
            return None
        try:
            found = reparse_edit(self._text, self._ends, text)
        except Exception:  # noqa: BLE001 - the full parse decides
            return None
        if found is None:
            return None
        pairs, ends = found
        elements = self._graph.elements
        changed = []
        for old, new in pairs:
            for name in new.names:
                decl = elements.get(name)
                if decl is None or decl.class_name != new.class_name or decl.config != old.config:
                    return None
                if new.config != old.config:
                    changed.append(
                        ElementChange(name, decl.class_name, decl.class_name, old.config, new.config)
                    )
        return _Update(GraphDelta(changed=changed), None, text, ends)

    def _two_phase(self, update, retried=False):
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
        delta = update.delta
        verdicts = self._ask(live, ("update_stage", delta), timeout=prepare)
        staged = [shard for shard, _verdict in verdicts]
        kinds = {verdict[1] for _shard, verdict in verdicts}
        if len(staged) < len(live):
            # Someone died during stage: abort the survivors, bring the
            # dead back (their journals have no trace of this update),
            # and run the whole update once more on the full plane.
            self._abort(staged)
            return self._retry_update(update, retried)
        if "rejected" in kinds:
            self._abort(staged)
            raise next(verdict[2] for _shard, verdict in verdicts if verdict[1] == "rejected")
        if kinds == {"empty"}:
            # Every shard kept its tables (nothing changed, or only to
            # equivalent ones): nothing commits, nothing is journaled,
            # and the plane's graph stays the one the workers hold.
            return SwapReport("no-op", profile=self._profile.label)
        if kinds == {"ok"}:
            self._fire_commit_hook()
            committed = self._ask(staged, ("update_commit",), timeout=prepare)
            if len(committed) < len(staged):
                # Phase two broke: a worker died between stage and
                # commit (or mid-commit).  Roll the confirmed survivors
                # back to the old tables, restore the dead, and retry
                # the update once against the whole plane.
                self._rollback_committed([shard for shard, _ack in committed], update)
                return self._retry_update(update, retried)
            self._control(("update", delta), deliver=False)
            self._commit(update)
            return committed[0][1][1]
        # Structural (or not patchable in place) somewhere: per-shard
        # transactional swaps, rolled back together on failure.
        self._abort(staged)
        return self._swap_live("update", update)

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

    def _rollback_committed(self, shards, update):
        """Mid-commit failure: surviving shards that already committed
        apply the inverse delta, so every live shard serves the last
        committed tables while the dead one recovers."""
        undo = ("update", update.inverse(self._graph))
        for shard in shards:
            self._send(shard, undo)
        self._ask(shards, ("sync",))

    def _retry_update(self, update, already_retried):
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
        return self._two_phase(update, retried=True)

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
        self._need_journal("worker_crash")
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
        self._need_journal("worker_poison")
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
        # The parent already consumed everything it flushed before the
        # crash.  The cursor goes first, so the worker drops that output
        # after every replayed run and never holds more than a window.
        self._replay(shard, ("set_flushed", dict(shard.flushed)))
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
        self._replay(shard, ("sync",), ask=True)
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

    def export_case(self, index):
        """Shard ``index``'s history as an oracle case
        (:mod:`repro.verify.oracle`): its birth configuration, divided
        under ``divide_capacity``, and its journal as case events
        (:func:`repro.events.case_events`).  ``click-fuzz --repro`` runs
        it under every mode, and the shrinker reduces it.  Needs the
        journal."""
        from ..core.toolchain import save_config

        self._need_journal("export_case")

        def text(graph):
            if self._profile.divide_capacity:
                graph = divide_queue_capacities(graph, index, self.workers)
            return save_config(graph)

        return {
            "name": "shard-%d" % index,
            "config": text(self._birth),
            "events": case_events(self._journals[index], self._birth, text),
            "optimize": False,
        }

    # -- observability -----------------------------------------------------

    def merged_counters(self):
        """Every element read handler, reconciled across shards by the
        rule its element declares (:func:`repro.events.merge_rules`): a
        counter sums, a high-water mark takes the maximum, and any other
        handler reports the first live shard's value."""
        self._ensure_started()
        merged = {}
        for _shard, (_op, counters, rules) in self._ask(self._live_shards(), ("counters",)):
            for key, value in counters.items():
                combine = _MERGES.get(rules.get(key)) if key in merged else None
                merged[key] = combine(merged[key], value) if combine else merged.get(key, value)
        return merged

    def report(self):
        """A :class:`ShardReport` of the plane's lifetime so far (the
        last one captured is returned after :meth:`close`)."""
        if self.retired and self._final_report is not None:
            return self._final_report
        report = ShardReport()
        report.workers = self.workers
        report.backend = self._profile.shard_backend
        report.seed = DEFAULT_SEED
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

    def __del__(self):
        try:
            self.close()
        except Exception:  # noqa: BLE001
            pass
