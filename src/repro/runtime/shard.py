"""The sharded multi-worker data plane: N compiled routers behind an
RSS-style flow-hash dispatcher.

A :class:`ShardedRouter` partitions ingress traffic by flow key
(:mod:`repro.runtime.flowhash`) across ``profile.workers`` shards, each
owning a *full* router — built from the same configuration graph, run
under the same shard-local :class:`~repro.runtime.profile.ExecutionProfile`
(reference, fast, batch, adaptive, or supervised) — and reconciles the
shards' transmitted frames, element counters, and CycleMeters back into
one externally observable surface.

Two backends, selected by ``profile.shard_backend``:

- ``"thread"`` — in-process worker threads fed through bounded
  :class:`SPSCQueue` handoff queues, with a barrier after every
  scheduler batch.  Deterministic by construction (shard state merges
  in shard order at quiescence), which is what the differential oracle
  runs; parallel speedup is not the point here, equivalence is.
- ``"process"`` — ``multiprocessing`` (spawn) workers, each building
  its own router from the configuration *text* and rehydrating compiled
  chains from the codegen cache's validated disk layer
  (:meth:`~repro.runtime.codegen_cache.CodegenCache.save`), so the
  compile is paid once.  Frame batches pipeline to the workers in
  chunks so the parent's hashing/serialization overlaps shard
  execution — this is the backend the 1→N scale curve measures.

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
leaves all shards serving the old tables; a structural delta hot-swaps
shard by shard with rollback on failure.

Worker faults: ``worker_crash`` faults (:mod:`repro.sim.faults`) kill a
shard; recovery respawns it and replays the shard's command journal —
every frame batch, scheduler run, transmit-window mirror, and control
operation since birth — which, everything being deterministic,
reconstructs byte-identical shard state (the device-fail analog with a
supervisor-grade recovery story).

Self-healing: when the profile carries a
:class:`~repro.runtime.recovery.RecoveryConfig`, a
:class:`~repro.runtime.recovery.RecoveryManager` closes the loop
autonomously — liveness heartbeats (process backend) and barrier
watchdog deadlines (thread backend) detect dead or hung workers without
an operator, journal replay restarts them under seeded exponential
backoff with a restart budget and poison-frame quarantine, and while a
shard is down its flows follow the profile's recovery policy: buffered
for redelivery, re-steered onto survivors through a rendezvous overlay,
or failed fast.  The journal-then-send invariant makes this safe: every
command is journaled *before* delivery is attempted, so a command
refused by a dying worker is reconstructed by replay, never lost —
and a down shard's partial output is never flushed (replay regenerates
deterministic output, and the flush cursor delivers everything past it
exactly once).

Cross-worker safety notes (the audit the thread backend forced):
``ELEMENT_CLASSES`` is a read-only registry after import; the dest-IP
intern cache (:data:`repro.net.packet._DEST_IP_CACHE`) is only touched
via single dict operations, which the GIL keeps atomic; the process-wide
codegen cache now serializes mutation behind an RLock (adaptive tier-2
recompiles can run on worker threads).  Shards share no mutable runtime
state — each has its own elements, devices, meter, and engine.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time as _time
from collections import OrderedDict
from dataclasses import replace

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
    "divide_queue_capacities",
]

#: Default capacity of the bounded SPSC handoff queues (thread
#: backend).  Overridable per plane via
#: ``ExecutionProfile.with_workers(..., queue_capacity=...)``.
DEFAULT_QUEUE_CAPACITY = 256

#: Default frames per pipelined chunk on the process backend
#: (``ExecutionProfile.chunk_frames`` or the ``chunk_frames``
#: constructor keyword override it).
DEFAULT_CHUNK_FRAMES = 2048

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
        "low": 256,
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
            if timeout is None:
                while len(self._items) >= self._capacity:
                    self._not_full.wait()
            else:
                deadline = _monotonic() + timeout
                while len(self._items) >= self._capacity:
                    remaining = deadline - _monotonic()
                    if remaining <= 0 or not self._not_full.wait(remaining):
                        if len(self._items) < self._capacity:
                            break
                        if deadline - _monotonic() <= 0:
                            return False
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


def _declared_classes(graph):
    """``(declaration, element class)`` for every declaration whose
    class resolves, generated classes included: the optimizers rename
    classes (``Devirtualize@@q`` is a Queue), so a declared class name
    says nothing until it is looked up the way the router build looks
    it up — the graph's archive first, then the registry."""
    from ..elements.registry import ELEMENT_CLASSES
    from ..elements.runtime import compile_archive_classes

    generated = compile_archive_classes(graph.archive)
    for decl in graph.elements.values():
        cls = generated.get(decl.class_name) or ELEMENT_CLASSES.get(decl.class_name)
        if cls is not None:
            yield decl, cls


def _device_names_of(graph, devices=None):
    """The device names the shard mirrors, in deterministic flush
    order.  When the plane was handed a ``devices`` dict its keys are
    authoritative; without one, the device elements' declarations
    name them."""
    if devices:
        return list(devices)
    from ..elements.devices import PollDevice, ToDevice

    names = []
    for decl, cls in _declared_classes(graph):
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

    divided = load_config(save_config(graph), "<shard-divide>")
    for decl, cls in _declared_classes(divided):
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


class _ThreadShard:
    """One in-process shard: its router, devices, meter, worker thread,
    and flush bookkeeping."""

    __slots__ = (
        "index",
        "router",
        "devices",
        "meter",
        "queue",
        "thread",
        "worked",
        "error",
        "flushed",
        "meter_snapshot",
        "dead",
        "generation",
        "poisons",
    )

    def __init__(self, index, queue_capacity=DEFAULT_QUEUE_CAPACITY):
        self.index = index
        self.router = None
        self.devices = None
        self.meter = None
        self.queue = SPSCQueue(queue_capacity)
        self.thread = None
        self.worked = 0
        self.error = None
        self.flushed = {}
        self.meter_snapshot = {}
        # Recovery bookkeeping: ``dead`` is set by the worker itself on
        # a fatal error (or a ``die`` fault); ``generation`` fences off
        # abandoned (hung) worker threads — a stale generation exits
        # without touching rebuilt state; ``poisons`` is the armed
        # kill-frame set the worker checks at frame delivery.
        self.dead = False
        self.generation = 0
        self.poisons = set()


class _ProcessShard:
    """One multiprocessing shard: its process handle, pipe, and the
    parent-side mirror of its flush counters."""

    __slots__ = ("index", "process", "conn", "worked", "flushed", "meter_snapshot")

    def __init__(self, index):
        self.index = index
        self.process = None
        self.conn = None
        self.worked = 0
        self.flushed = {}
        self.meter_snapshot = {}

    def recv(self):
        try:
            return self.conn.recv()
        except (EOFError, ConnectionResetError, BrokenPipeError) as exc:
            exitcode = self.process.exitcode if self.process is not None else None
            raise RuntimeError(
                "shard worker %d died mid-protocol (exit code %r); if this "
                "happened at startup, the spawn backend re-imports __main__ "
                "— entry scripts need an if __name__ == '__main__' guard"
                % (self.index, exitcode)
            ) from exc


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
        self._sharded._fanout_insert(self._name, ip, ether)

    def __repr__(self):
        return "<fanout %s across %d shard(s)>" % (
            self._name,
            self._sharded.workers,
        )


def _arp_epoch_holders(router):
    """How many elements ``Router.bump_arp_epochs`` bumps."""
    return sum(1 for element in router.elements.values() if hasattr(element, "_arp_epoch"))


def _apply_shard_control(router, devices, cmd, divider=None):
    """Apply one journaled control command to a single shard's router;
    returns the (possibly new) router.  Used both on the live path and
    during crash-replay, so it must be deterministic.  ``divider`` is
    the shard's divide-capacity transform (or None): journaled
    configurations are always the *undivided* text, so every path that
    materializes a graph on a shard runs it through the divider."""
    op = cmd[0]
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
    elif op == "mirror":
        for name, capacity in cmd[1].items():
            device = devices.get(name)
            if device is not None and hasattr(device, "tx_capacity"):
                device.tx_capacity = capacity
    elif op == "hotswap":
        from ..core.toolchain import load_config
        from ..elements.hotswap import hotswap

        new_graph = load_config(cmd[1], "<shard-hotswap>")
        if divider is not None:
            new_graph = divider(new_graph)
        router = hotswap(router, new_graph).router
    elif op == "update":
        from ..control import ControlPlane

        update = cmd[1]
        if divider is not None:
            from ..core.toolchain import load_config

            update = divider(load_config(update, "<shard-update>"))
        plane = ControlPlane(router)
        plane.apply(update)
        router = plane.router
    else:
        raise ValueError("unknown shard control command %r" % (op,))
    return router


def _process_shard_main(
    conn, config_text, profile, device_names, cache_path, metered=False, shard_index=0
):
    """The multiprocessing worker: build one shard's router from the
    configuration text (rehydrating compiled chains from the shipped
    codegen-cache file) and serve the parent's command stream.  With
    ``metered`` the shard runs under its own CycleMeter, whose summary
    rides back on every ``collect`` for the parent to absorb.  The
    parent always ships *undivided* configuration text; under
    divide-capacity mode the worker derives its own shard view from
    ``shard_index`` and the profile's worker count."""
    from ..core.toolchain import load_config
    from ..elements.devices import LoopbackDevice
    from ..elements.runtime import build_router
    from .codegen_cache import default_cache

    if cache_path:
        try:
            default_cache().load(cache_path)
        except Exception:  # noqa: BLE001 - a bad cache file is survivable
            pass
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

    graph = load_config(config_text, "<shard>")
    if divider is not None:
        graph = divider(graph)
    router = build_router(
        graph,
        devices=devices,
        meter=meter,
        profile=profile.shard_local(),
    )
    flushed = {name: 0 for name in device_names}
    worked = 0
    pending_error = None
    staged = None  # (plane, staged batch, delta) between stage and commit
    poisons = set()  # armed kill frames (worker_poison faults)
    while True:
        try:
            cmd = conn.recv()
        except (EOFError, OSError):
            break
        op = cmd[0]
        try:
            if op == "frames":
                for name, frame in cmd[1]:
                    if poisons and bytes(frame) in poisons:
                        # A poison frame kills the worker the hard way:
                        # no exception protocol, just a dead process for
                        # the parent's health machinery to find.
                        os._exit(3)
                    devices[name].receive_frame(frame)
            elif op == "run":
                worked += router.run_tasks(cmd[1])
            elif op == "poison":
                poisons.add(bytes(cmd[1]))
            elif op == "hang":
                _time.sleep(cmd[1])
            elif op == "mirror":
                for name, capacity in cmd[1].items():
                    devices[name].tx_capacity = capacity
            elif op in ("insert", "bump_epochs", "deopt", "configure", "hotswap", "update"):
                router = _apply_shard_control(router, devices, cmd, divider=divider)
            elif op == "update_stage":
                from ..control import ControlPlane, ControlPlaneError

                plane = ControlPlane(router)
                try:
                    update = cmd[1]
                    if divider is not None:
                        update = divider(load_config(update, "<shard-update>"))
                    delta, _new_graph = plane.resolve(update)
                    if delta.empty:
                        conn.send(("staged", "empty"))
                    elif delta.structural:
                        conn.send(("staged", "structural"))
                    else:
                        batch = plane.stage_patch(delta)
                        if batch is None:
                            conn.send(("staged", "structural"))
                        else:
                            staged = (plane, batch, delta)
                            conn.send(("staged", "ok"))
                except ControlPlaneError as exc:
                    staged = None
                    conn.send(("staged", "rejected", str(exc)))
            elif op == "update_commit":
                plane, batch, delta = staged
                plane.commit_patch(batch, delta)
                router = plane.router
                staged = None
                conn.send(("committed",))
            elif op == "update_abort":
                staged = None
            elif op == "set_flushed":
                flushed = dict(cmd[1])
            elif op == "sync":
                conn.send(("synced", worked, pending_error))
                worked = 0
                pending_error = None
            elif op == "collect":
                fresh = {}
                for name in device_names:
                    frames = devices[name].transmitted
                    start = flushed[name]
                    if len(frames) > start:
                        fresh[name] = frames[start:]
                        flushed[name] = len(frames)
                meter = router.meter.summary() if router.meter is not None else None
                conn.send(("collected", fresh, meter))
            elif op == "counters":
                values = {}
                for name, element in sorted(router.elements.items()):
                    for handler, fn in sorted(element.read_handlers().items()):
                        value = fn()
                        if not isinstance(value, (int, float, str, bool, type(None))):
                            value = repr(value)
                        values["%s.%s" % (name, handler)] = value
                conn.send(("counters", values))
            elif op == "arp_epoch_holders":
                conn.send(("arp_epoch_holders", _arp_epoch_holders(router)))
            elif op == "report":
                supervisor = router.supervisor
                conn.send(
                    ("report", supervisor.report().as_dict() if supervisor else None)
                )
            elif op == "stop":
                conn.send(("stopped",))
                break
        except Exception as exc:  # noqa: BLE001 - delivered at next sync
            pending_error = (type(exc).__name__, str(exc))
    conn.close()


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
        self._device_names = _device_names_of(graph, self.devices)
        self._dispatched = []
        self._flushed_total = 0
        self._runs = 0
        self._updates = 0
        self._crashes = 0
        self._replays = 0
        self._cache_path = None
        self._final_report = None
        self._recovery = None
        self.hasher = FlowHasher(max(1, self._profile.workers), self.hash_seed)

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
        if self._started and self.backend == "thread" and self._shards:
            local = self._shards[0].router.profile
            return replace(
                local,
                workers=self.workers,
                shard_backend=self.backend,
                recovery=self._profile.recovery,
            )
        return self._profile

    def configure(self, profile=None):
        """Apply a profile across every shard.  The execution tier,
        batch flavor, and supervision may change on a live plane;
        ``workers`` and ``shard_backend`` are construction-time — once
        the shards exist, changing them raises."""
        if profile is None:
            profile = ExecutionProfile()
        if self._started and (
            profile.workers != self.workers
            or profile.shard_backend != self.backend
        ):
            raise ValueError(
                "cannot reshard a live ShardedRouter (%d/%s -> %d/%s); "
                "build a new one"
                % (self.workers, self.backend, profile.workers, profile.shard_backend)
            )
        if self._started and (
            (profile.queue_capacity or DEFAULT_QUEUE_CAPACITY) != self._queue_capacity
            or profile.divide_capacity != self._profile.divide_capacity
        ):
            raise ValueError(
                "queue_capacity and divide_capacity are construction-time "
                "on a ShardedRouter; build a new one"
            )
        changed = profile != self._profile
        self._profile = profile
        self.hasher = FlowHasher(max(1, profile.workers), self.hash_seed)
        if self._started and changed:
            self._control(("configure", profile))
        return self

    # -- lifecycle ---------------------------------------------------------

    def _ensure_started(self):
        # retired wins over started: a control op on a closed plane must
        # raise, never enqueue to stopped workers (which would deadlock
        # at the next barrier).
        if self.retired:
            raise RuntimeError("this sharded router is retired")
        if self._started:
            return
        # Early validation: every device a declaration names must resolve.
        for name in _device_names_of(self.graph):
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
        if self.backend == "thread":
            self._start_thread_shards()
        else:
            self._start_process_shards()

    def _journal_cmd(self, index, cmd):
        if self._journal_enabled:
            self._journals[index].append(cmd)

    def _divider(self, index):
        """Shard ``index``'s divide-capacity graph transform
        (:func:`divide_queue_capacities` curried over this plane's
        worker count), or None when divide-capacity mode is off."""
        if not (self._profile.divide_capacity and self.workers > 1):
            return None
        workers = self.workers

        def divide(graph, _index=index, _workers=workers):
            return divide_queue_capacities(graph, _index, _workers)

        return divide

    # -- thread backend ----------------------------------------------------

    def _build_shard_router(self, index=0):
        from ..elements.devices import LoopbackDevice
        from ..elements.runtime import Router

        devices = OrderedDict(
            (name, LoopbackDevice(name, tx_capacity=_SHARD_TX_CAPACITY))
            for name in self._device_names
        )
        meter = None
        if self.meter is not None:
            from ..sim.cpu import CycleMeter

            meter = CycleMeter()
        graph = self.graph
        divider = self._divider(index)
        if divider is not None:
            graph = divider(graph)
        router = Router(
            graph,
            extra_classes=self._extra_classes,
            meter=meter,
            devices=devices,
            profile=self._profile.shard_local(),
        )
        return router, devices, meter

    def _start_thread_shards(self):
        for index in range(self.workers):
            shard = _ThreadShard(index, self._queue_capacity)
            shard.router, shard.devices, shard.meter = self._build_shard_router(index)
            shard.flushed = {name: 0 for name in self._device_names}
            self._spawn_thread_worker(shard)
            self._shards.append(shard)

    def _spawn_thread_worker(self, shard):
        shard.thread = threading.Thread(
            target=self._thread_main,
            args=(shard, shard.generation),
            name="shard-%d" % shard.index,
            daemon=True,
        )
        shard.thread.start()

    def _thread_main(self, shard, generation):
        queue = shard.queue
        recovering = self._recovery is not None
        while True:
            cmd = queue.get()
            if shard.generation != generation:
                # This worker was abandoned by the watchdog and the
                # shard rebuilt around it: exit without touching the
                # fresh state (the command came off the stale queue).
                break
            op = cmd[0]
            if op == "stop":
                break
            if op == "die":
                # Fault injection: the worker "crashes" between
                # commands, exactly as an OS kill would land for the
                # process backend.
                shard.dead = True
                break
            try:
                if op == "frames":
                    devices = shard.devices
                    poisons = shard.poisons
                    for name, frame in cmd[1]:
                        if poisons and bytes(frame) in poisons:
                            raise PoisonFrameError(name, frame)
                        devices[name].receive_frame(frame)
                elif op == "run":
                    worked = shard.router.run_tasks(cmd[1])
                    if shard.generation == generation:
                        shard.worked += worked
                elif op == "hang":
                    # Fault injection: stop making progress.  The
                    # barrier's watchdog deadline fires, the shard is
                    # rebuilt, and the generation fence retires this
                    # thread when the sleep ends.
                    _time.sleep(cmd[1])
                elif op == "poison":
                    shard.poisons.add(bytes(cmd[1]))
                elif op == "sync":
                    cmd[1].set()
            except BaseException as exc:  # noqa: BLE001 - re-raised at the barrier
                if shard.error is None:
                    shard.error = exc
                if recovering:
                    # Under recovery an escaped exception is worker
                    # death, not a parked error: mark the shard down
                    # and stop consuming.  Detection happens at the
                    # next barrier.
                    shard.dead = True
                    if op == "sync":
                        cmd[1].set()
                    break
                if op == "sync":
                    cmd[1].set()

    def _queue_put(self, shard, cmd):
        """Enqueue one command to a thread shard.  Without recovery
        this is a plain (possibly blocking) put; with recovery a put
        that cannot complete within the heartbeat window marks the
        worker dead — its queue will never drain — and returns False.
        Callers journal *before* putting, so a refused command is
        recovered by replay, never lost."""
        if self._recovery is None:
            shard.queue.put(cmd)
            return True
        if shard.dead or not shard.thread.is_alive():
            self._recovery.note_dead(shard.index, "worker thread died")
            return False
        if shard.queue.put(cmd, timeout=self._recovery.config.heartbeat_timeout):
            return True
        shard.generation += 1  # fence the stalled worker off
        self._recovery.note_dead(shard.index, "handoff queue stalled")
        return False

    def _barrier(self):
        """Quiesce every worker thread; re-raise the first shard error
        (an unsupervised shard must fail exactly like an unsupervised
        single router would).  Under recovery this is also the thread
        backend's health seam: a worker that died is recorded instead
        of raised, and one that stops progressing past the watchdog
        deadline is abandoned behind the generation fence."""
        recovery = self._recovery
        events = []
        for shard in self._shards:
            if recovery is not None and recovery.is_down(shard.index):
                events.append(None)
                continue
            event = threading.Event()
            if not self._queue_put(shard, ("sync", event)):
                events.append(None)
                continue
            events.append(event)
        if recovery is None:
            for event in events:
                event.wait()
        else:
            deadline = recovery.config.watchdog_timeout
            for shard, event in zip(self._shards, events):
                if event is None:
                    continue
                waited = 0.0
                while not event.wait(0.05):
                    if shard.dead or not shard.thread.is_alive():
                        break
                    waited += 0.05
                    if waited >= deadline:
                        # No progress within the watchdog window: hung.
                        # Abandon the thread (the generation fence
                        # retires it) and mark the shard down.
                        shard.generation += 1
                        shard.dead = True
                        break
        for shard in self._shards:
            if recovery is not None and shard.dead and not recovery.is_down(shard.index):
                reason = "worker hung past the watchdog deadline"
                if shard.error is not None:
                    reason = "%s: %s" % (type(shard.error).__name__, shard.error)
                    shard.error = None
                recovery.note_dead(shard.index, reason)
        for shard in self._shards:
            if shard.error is not None:
                if recovery is not None and recovery.is_down(shard.index):
                    shard.error = None
                    continue
                error, shard.error = shard.error, None
                raise error

    # -- process backend ---------------------------------------------------

    def _start_process_shards(self):
        if self._extra_classes:
            raise ValueError(
                "the process backend rebuilds shards from configuration "
                "text and cannot ship extra_classes; use the thread backend"
            )
        self._cache_path = self._prewarm_cache()
        for index in range(self.workers):
            shard = _ProcessShard(index)
            shard.flushed = {name: 0 for name in self._device_names}
            self._spawn_process_shard(shard)
            self._shards.append(shard)

    def _spawn_process_shard(self, shard):
        """Start (or restart) one process-backend worker, attaching a
        fresh pipe.  The previous process, if any, must already be
        reaped (:meth:`_reap_process`)."""
        import multiprocessing

        from ..core.toolchain import save_config

        ctx = multiprocessing.get_context("spawn")
        parent_conn, child_conn = ctx.Pipe()
        shard.process = ctx.Process(
            target=_process_shard_main,
            args=(
                child_conn,
                save_config(self.graph),
                self._profile,
                list(self._device_names),
                self._cache_path,
                self.meter is not None,
                shard.index,
            ),
            daemon=True,
        )
        shard.process.start()
        child_conn.close()
        shard.conn = parent_conn

    def _reap_process(self, shard, kill=False):
        """Join a dead (or doomed) worker with a timeout and close the
        parent's pipe end, so crash/recover cycles leak neither child
        processes nor file descriptors."""
        process, conn = shard.process, shard.conn
        if process is not None:
            try:
                if kill and process.is_alive():
                    process.kill()
                process.join(timeout=10)
                if process.is_alive():
                    process.kill()
                    process.join(timeout=10)
                process.close()
            except Exception:  # noqa: BLE001 - it crashed; cleanup is best effort
                pass
            shard.process = None
        if conn is not None:
            try:
                conn.close()
            except Exception:  # noqa: BLE001
                pass
            shard.conn = None

    def _poll_health(self):
        """Heartbeat liveness sweep (process backend): a worker that
        exited is detected here, before the batch dispatches."""
        recovery = self._recovery
        for shard in self._shards:
            if recovery.is_down(shard.index):
                continue
            if shard.process is None or not shard.process.is_alive():
                exitcode = shard.process.exitcode if shard.process else None
                self._reap_process(shard)
                recovery.note_dead(
                    shard.index, "worker process exited (code %r)" % (exitcode,)
                )

    def _proc_send(self, shard, cmd):
        """Send one command to a process shard; under recovery a broken
        pipe marks the shard dead and returns False (the command is
        journaled first, so replay covers it)."""
        recovery = self._recovery
        if recovery is None:
            shard.conn.send(cmd)
            return True
        if recovery.is_down(shard.index):
            return False
        try:
            shard.conn.send(cmd)
            return True
        except (BrokenPipeError, ConnectionResetError, OSError):
            exitcode = shard.process.exitcode if shard.process else None
            self._reap_process(shard)
            recovery.note_dead(
                shard.index, "pipe to worker broke (exit code %r)" % (exitcode,)
            )
            return False

    def _proc_recv(self, shard, timeout=None):
        """Receive one protocol reply; under recovery a worker that
        neither answers within the deadline (the heartbeat window by
        default) nor exits is hung (reaped + marked dead), and a dead
        pipe marks the shard dead.  Returns None when the shard went
        down instead of answering."""
        recovery = self._recovery
        if recovery is None:
            return shard.recv()
        if timeout is None:
            timeout = recovery.config.heartbeat_timeout
        try:
            while not shard.conn.poll(timeout):
                if shard.process is None or not shard.process.is_alive():
                    raise EOFError("worker exited mid-protocol")
                # Alive but silent past the heartbeat window: hung.
                exitcode = shard.process.exitcode
                self._reap_process(shard, kill=True)
                recovery.note_dead(
                    shard.index,
                    "worker hung past the heartbeat window (exit code %r)"
                    % (exitcode,),
                )
                return None
            return shard.conn.recv()
        except (EOFError, ConnectionResetError, BrokenPipeError, OSError):
            exitcode = shard.process.exitcode if shard.process else None
            self._reap_process(shard)
            recovery.note_dead(
                shard.index, "worker died mid-protocol (exit code %r)" % (exitcode,)
            )
            return None

    def _prewarm_cache(self):
        """Compile the configuration once locally and write the codegen
        cache's disk layer; workers rehydrate compiled chains from it
        instead of paying compile/exec each."""
        if self._profile.mode == "reference":
            return None
        try:
            from .codegen_cache import default_cache

            router, _devices, _meter = self._build_shard_router()
            router.retire()
            handle, path = tempfile.mkstemp(prefix="repro-shard-cache-", suffix=".bin")
            os.close(handle)
            default_cache().save(path)
            return path
        except Exception:  # noqa: BLE001 - prewarm is an optimization only
            return None

    def _sync_process(self):
        recovery = self._recovery
        pending = []
        for shard in self._shards:
            if recovery is not None and recovery.is_down(shard.index):
                continue
            if self._proc_send(shard, ("sync",)):
                pending.append(shard)
        worked = 0
        for shard in pending:
            reply = self._proc_recv(shard)
            if reply is None:
                continue  # went down instead of answering; noted
            worked += reply[1]
            if reply[2] is not None:
                if recovery is not None:
                    # A worker-side error under recovery is treated as
                    # worker death: rebuild + replay clears it (or
                    # attributes it to a poison frame).
                    self._reap_process(shard, kill=True)
                    recovery.note_dead(
                        shard.index,
                        "worker error: %s: %s" % (reply[2][0], reply[2][1]),
                    )
                    continue
                raise RuntimeError(
                    "shard %d: %s: %s" % (shard.index, reply[2][0], reply[2][1])
                )
        return worked

    # -- driving -----------------------------------------------------------

    def run_tasks(self, iterations=1):
        """One sharded scheduler batch: mirror the real devices'
        transmit windows into the shards, drain and hash-partition the
        ingress rings, run every shard ``iterations`` passes, then
        flush shard output back to the real devices in shard order."""
        if self.retired:
            return 0
        self._ensure_started()
        self._runs += 1
        if self._recovery is not None:
            if self.backend == "process":
                self._poll_health()
            # Restarts happen *before* this batch's dispatch, so a
            # recovered shard re-homes its traffic (and drains its
            # buffer) starting with this run.
            self._recovery.on_run_start()
        caps = self._mirror_caps()
        batches = self._drain_and_partition()
        if self.backend == "thread":
            return self._run_thread(iterations, caps, batches)
        return self._run_process(iterations, caps, batches)

    def _mirror_caps(self):
        """Per-shard transmit-capacity mirrors: a shard-local device may
        hold at most (what it already holds) + (the real device's
        current ring room) — a downed or full real device blocks the
        shard's ToDevice exactly as it blocks the reference router's."""
        caps = []
        for shard_index in range(self.workers):
            local = {}
            for name in self._device_names:
                device = self.devices.get(name)
                room = device.tx_room() if device is not None else 0
                held = self._shard_transmitted_len(shard_index, name)
                local[name] = held + max(0, room)
            caps.append(local)
        return caps

    def _shard_transmitted_len(self, index, name):
        if self.backend == "thread":
            return len(self._shards[index].devices[name].transmitted)
        return self._shards[index].flushed[name]

    def _drain_and_partition(self):
        hasher = self.hasher
        dispatched = self._dispatched
        recovery = self._recovery
        degraded = recovery is not None and (
            recovery.down_indices()
            or recovery.benched_indices()
            or recovery.quarantined
        )
        batches = [[] for _ in range(self.workers)]
        for name in self._device_names:
            device = self.devices.get(name)
            if device is None:
                continue
            dequeue = device.rx_dequeue
            while True:
                frame = dequeue()
                if frame is None:
                    break
                index = hasher(frame)
                if degraded:
                    index = recovery.route_frame(index, name, frame)
                    if index is None:
                        continue  # buffered or dropped
                batches[index].append((name, frame))
                dispatched[index] += 1
        return batches

    def _redispatch(self, buffered):
        """Re-route a benched shard's buffered frames through the
        degraded policy (they re-steer — the shard is never coming
        back) and deliver them immediately.  Called by the recovery
        manager from :meth:`RecoveryManager.bench`."""
        recovery = self._recovery
        batches = {}
        for name, frame in buffered:
            index = recovery.route_frame(self.hasher(frame), name, frame)
            if index is None:
                continue
            batches.setdefault(index, []).append((name, frame))
            self._dispatched[index] += 1
        for index, batch in sorted(batches.items()):
            self._send_frames(index, batch)

    def _send_frames(self, index, batch):
        """Journal-then-send one frame batch to a live shard."""
        frames = ("frames", batch)
        self._journal_cmd(index, frames)
        if self.backend == "thread":
            self._queue_put(self._shards[index], frames)
        else:
            self._proc_send(self._shards[index], frames)

    def _deliver_buffered(self, index, buffered):
        """A recovered shard's buffered frames, delivered in arrival
        order (journaled — they are now part of the shard's history)."""
        self._send_frames(index, list(buffered))
        self._dispatched[index] += len(buffered)

    def _run_thread(self, iterations, caps, batches):
        recovery = self._recovery
        before = sum(shard.worked for shard in self._shards)
        for index, shard in enumerate(self._shards):
            if recovery is not None and recovery.is_down(index):
                # A down shard gets no mirror/run commands (and no
                # journal entries for them): nothing was dispatched to
                # it this batch, so replay reconstructs it exactly up
                # to its death point.
                continue
            mirror = ("mirror", caps[index])
            self._journal_cmd(index, mirror)
            for name, capacity in caps[index].items():
                shard.devices[name].tx_capacity = capacity
            if batches[index]:
                frames = ("frames", batches[index])
                self._journal_cmd(index, frames)
                if not self._queue_put(shard, frames):
                    continue
            run = ("run", iterations)
            self._journal_cmd(index, run)
            self._queue_put(shard, run)
        self._barrier()
        self._flush_thread()
        return max(0, sum(shard.worked for shard in self._shards) - before)

    def _flush_thread(self):
        recovery = self._recovery
        flushed = 0
        for shard in self._shards:
            if recovery is not None and recovery.is_down(shard.index):
                # Never flush a down shard's partial output: the dying
                # run may have stopped mid-batch, and replay regenerates
                # deterministic output past the flush cursor exactly
                # once.
                continue
            for name in self._device_names:
                frames = shard.devices[name].transmitted
                start = shard.flushed[name]
                if len(frames) > start:
                    self._deliver(name, frames[start:])
                    flushed += len(frames) - start
                    shard.flushed[name] = len(frames)
            if shard.meter is not None and self.meter is not None:
                summary = shard.meter.summary()
                self.meter.absorb(_meter_delta(summary, shard.meter_snapshot))
                shard.meter_snapshot = summary
        self._flushed_total += flushed

    def _deliver(self, name, frames):
        """Append shard output to the real device.  ``tx_enqueue`` keeps
        capacity/fault accounting honest; a refusal must still not lose
        the frame (it already left a shard's ring), so it lands on the
        transmitted list directly."""
        device = self.devices.get(name)
        for frame in frames:
            if not device.tx_enqueue(frame):
                device.transmitted.append(bytes(frame))

    def _run_process(self, iterations, caps, batches):
        from ..elements.devices import PollDevice

        recovery = self._recovery
        chunk = max(1, self.chunk_frames)
        total = sum(len(batch) for batch in batches)
        for index, shard in enumerate(self._shards):
            if recovery is not None and recovery.is_down(index):
                continue
            mirror = ("mirror", caps[index])
            self._journal_cmd(index, mirror)
            self._proc_send(shard, mirror)
        if total <= chunk:
            for index, shard in enumerate(self._shards):
                if recovery is not None and recovery.is_down(index):
                    continue
                if batches[index]:
                    frames = ("frames", batches[index])
                    self._journal_cmd(index, frames)
                    if not self._proc_send(shard, frames):
                        continue
                run = ("run", iterations)
                self._journal_cmd(index, run)
                self._proc_send(shard, run)
        else:
            # Pipeline: deliver each shard's frames in chunks with a
            # partial run after each, so workers execute while the
            # parent hashes and serializes the next chunk; a final full
            # run guarantees at least ``iterations`` passes after the
            # last frame arrives (the drain the caller sized).
            per_shard_chunk = max(PollDevice.BURST, chunk // self.workers)
            positions = [0] * self.workers
            spent = [0] * self.workers
            while True:
                progressed = False
                for index, shard in enumerate(self._shards):
                    batch = batches[index]
                    position = positions[index]
                    if position >= len(batch):
                        continue
                    if recovery is not None and recovery.is_down(index):
                        # Died mid-pipeline: the unsent remainder of its
                        # batch was never journaled, so it re-routes
                        # through the degraded policy instead of being
                        # lost.
                        positions[index] = len(batch)
                        self._dispatched[index] -= len(batch) - position
                        self._redispatch(batch[position:])
                        continue
                    progressed = True
                    part = batch[position : position + per_shard_chunk]
                    positions[index] = position + len(part)
                    frames = ("frames", part)
                    self._journal_cmd(index, frames)
                    if not self._proc_send(shard, frames):
                        continue
                    passes = len(part) // PollDevice.BURST + 1
                    spent[index] += passes
                    run = ("run", passes)
                    self._journal_cmd(index, run)
                    self._proc_send(shard, run)
                if not progressed:
                    break
            for index, shard in enumerate(self._shards):
                if recovery is not None and recovery.is_down(index):
                    continue
                run = ("run", max(1, iterations))
                self._journal_cmd(index, run)
                self._proc_send(shard, run)
        worked = self._sync_process()
        self._flush_process()
        return worked

    def _flush_process(self):
        recovery = self._recovery
        flushed = 0
        pending = []
        for shard in self._shards:
            if recovery is not None and recovery.is_down(shard.index):
                continue
            if self._proc_send(shard, ("collect",)):
                pending.append(shard)
        for shard in pending:
            reply = self._proc_recv(shard)
            if reply is None:
                continue
            fresh, meter = reply[1], reply[2]
            for name in self._device_names:
                frames = fresh.get(name)
                if frames:
                    self._deliver(name, frames)
                    shard.flushed[name] += len(frames)
                    flushed += len(frames)
            if meter is not None and self.meter is not None:
                self.meter.absorb(_meter_delta(meter, shard.meter_snapshot))
                shard.meter_snapshot = meter
        self._flushed_total += flushed

    # -- control-plane fan-out ---------------------------------------------

    def _control(self, cmd):
        """Fan one journaled control command out to every shard, at
        quiescence.  A down shard is journaled but not touched: the
        command reaches it through replay when it comes back (counted
        as a recommit)."""
        self._ensure_started()
        recovery = self._recovery
        if self.backend == "thread":
            self._barrier()
            for index, shard in enumerate(self._shards):
                self._journal_cmd(index, cmd)
                if recovery is not None and recovery.is_down(index):
                    recovery.note_recommitted()
                    continue
                shard.router = _apply_shard_control(
                    shard.router, shard.devices, cmd, divider=self._divider(index)
                )
        else:
            for index, shard in enumerate(self._shards):
                self._journal_cmd(index, cmd)
                if recovery is not None and recovery.is_down(index):
                    recovery.note_recommitted()
                    continue
                self._proc_send(shard, cmd)

    def find(self, name):
        """A fan-out proxy for the named element (None when the
        configuration has no such element) — control writes through it
        reach every shard."""
        if name not in self.graph.elements:
            return None
        return _FanoutElementProxy(self, name)

    def _fanout_insert(self, name, ip, ether):
        self._control(("insert", name, ip, ether))

    def bump_arp_epochs(self):
        """Invalidate every shard's baked ARP header guards; returns the
        per-shard element count (identical on every shard), read back
        from a live shard — declarations cannot tell: the optimizers
        rename classes (``Devirtualize@@arpq0`` is an ARPQuerier)."""
        self._control(("bump_epochs",))
        recovery = self._recovery
        for shard in self._shards:
            if recovery is not None and recovery.is_down(shard.index):
                continue
            if self.backend == "thread":
                return _arp_epoch_holders(shard.router)
            if self._proc_send(shard, ("arp_epoch_holders",)):
                reply = self._proc_recv(shard)
                if reply is not None:
                    return reply[1]
        return 0

    def force_deopt(self, reason="forced"):
        """Force every shard's adaptive engine back to tier 1; True when
        the profile runs adaptively (mirrors ``Router.force_deopt``)."""
        self._control(("deopt",))
        return self._profile.mode == "adaptive"

    def hotswap_all(self, new_graph):
        """Hot-swap every shard to ``new_graph`` (text or graph).  Each
        per-shard swap is transactional; a failure after some shards
        swapped rolls the finished ones back to the old configuration.
        Returns self (the sharded router's identity is stable)."""
        from ..core.toolchain import load_config, save_config

        if isinstance(new_graph, str):
            text = new_graph
        else:
            text = save_config(new_graph)
        self._ensure_started()
        if self.backend != "thread":
            self._control(("hotswap", text))
            self._set_graph(text)
            return self
        self._barrier()
        old_text = save_config(self.graph)
        live = self._live_shards()
        done = []
        try:
            for shard in live:
                shard.router = _apply_shard_control(
                    shard.router,
                    shard.devices,
                    ("hotswap", text),
                    divider=self._divider(shard.index),
                )
                done.append(shard)
        except Exception:
            for shard in done:
                shard.router = _apply_shard_control(
                    shard.router,
                    shard.devices,
                    ("hotswap", old_text),
                    divider=self._divider(shard.index),
                )
            raise
        recovery = self._recovery
        for index in range(self.workers):
            self._journal_cmd(index, ("hotswap", text))
            if recovery is not None and recovery.is_down(index):
                recovery.note_recommitted()
        self._set_graph(text)
        return self

    def _set_graph(self, text):
        from ..core.toolchain import load_config

        graph = load_config(text, "<shard-graph>")
        if graph.element_classes:
            from ..core.flatten import flatten

            graph = flatten(graph)
        self.graph = graph
        self._device_names = _device_names_of(graph, self.devices)

    def apply_update(self, update):
        """Install one control-plane update on *every* shard
        transactionally.

        Pure-data deltas use two-phase commit: phase one stages the
        parsed, validated new tables on every shard (no mutation);
        only when every shard staged cleanly does phase two commit them
        all — a rejection anywhere leaves every shard serving the old
        tables.  Structural deltas hot-swap shard by shard with
        rollback on failure.  Returns shard 0's
        :class:`~repro.elements.hotswap.SwapReport`."""
        self._ensure_started()
        self._updates += 1
        if self.backend == "process":
            return self._apply_update_process(update)
        from ..control import ControlPlane

        self._barrier()
        if self._divider(0) is not None:
            return self._apply_update_divided(update)
        live = self._live_shards()
        planes = [ControlPlane(shard.router) for shard in live]
        delta, new_graph = planes[0].resolve(update)
        if delta.empty:
            return planes[0].apply(delta)
        text = self._update_text(update, delta, new_graph)
        if not delta.structural:
            staged = []
            for plane in planes:
                batch = plane.stage_patch(delta)
                if batch is None:
                    break
                staged.append(batch)
            if len(staged) == len(planes):
                self._fire_commit_hook()
                report = None
                for plane, batch in zip(planes, staged):
                    committed = plane.commit_patch(batch, delta)
                    if report is None:
                        report = committed
                self._journal_update(text)
                return report
        # Structural (or not patchable in place): per-shard transactional
        # swaps, rolled back together on failure.
        from ..core.toolchain import save_config

        old_text = save_config(self.graph)
        done = []
        report = None
        try:
            for position, plane in enumerate(planes):
                committed = plane.apply(update)
                done.append(position)
                if report is None:
                    report = committed
        except Exception:
            for position in done:
                ControlPlane(planes[position].router).apply(old_text)
                live[position].router = planes[position].router
            raise
        for position, plane in enumerate(planes):
            live[position].router = plane.router
        self._journal_update(text)
        self._set_graph(text)
        return report

    def _live_shards(self):
        """The shards an update can reach right now; raises when the
        whole plane is down."""
        recovery = self._recovery
        if recovery is None:
            return list(self._shards)
        live = [
            shard
            for shard in self._shards
            if not recovery.is_down(shard.index)
        ]
        if not live:
            raise RecoveryError("every shard is down; nothing to update")
        return live

    def _journal_update(self, text):
        """Journal a committed update to *every* shard — down shards
        included, so replay re-commits it the moment they return."""
        recovery = self._recovery
        for index in range(self.workers):
            self._journal_cmd(index, ("update", text))
            if recovery is not None and recovery.is_down(index):
                recovery.note_recommitted()

    def _fire_commit_hook(self):
        """The fault injector's window between "every shard staged"
        and "first shard committed" — where a ``worker_kill`` with
        ``phase="commit"`` lands."""
        injector = self.fault_injector
        hook = getattr(injector, "on_commit_phase", None)
        if hook is not None:
            hook(self._updates)

    def _update_text(self, update, delta, new_graph):
        """The update as configuration text (the journal's replayable
        form), materializing the delta against the live graph when the
        caller passed a bare GraphDelta."""
        from ..core.toolchain import save_config

        if isinstance(update, str):
            return update
        if new_graph is None:
            new_graph = delta.apply_to(self.graph)
        return save_config(new_graph)

    def _apply_update_divided(self, update):
        """Control-plane update under divide-capacity mode (thread
        backend): the undivided update is the journaled source of truth,
        but every shard must install its *divided* view, so the shared
        in-place staging path (which would diff undivided capacities
        against divided live queues) is skipped in favor of per-shard
        transactional applies with divided rollback."""
        from ..control import ControlPlane
        from ..core.toolchain import load_config, save_config
        from ..graph.diff import GraphDelta

        if isinstance(update, str):
            new_graph = load_config(update, "<shard-update>")
        elif isinstance(update, GraphDelta):
            new_graph = update.apply_to(self.graph)
        else:
            new_graph = update
        text = save_config(new_graph)
        old_text = save_config(self.graph)
        live = self._live_shards()
        planes = [ControlPlane(shard.router) for shard in live]
        done = []
        report = None
        try:
            for position, plane in enumerate(planes):
                committed = plane.apply(self._divider(live[position].index)(new_graph))
                done.append(position)
                if report is None:
                    report = committed
        except Exception:
            old_graph = load_config(old_text, "<shard-rollback>")
            for position in done:
                ControlPlane(planes[position].router).apply(
                    self._divider(live[position].index)(old_graph)
                )
                live[position].router = planes[position].router
            raise
        for position, plane in enumerate(planes):
            live[position].router = plane.router
        self._journal_update(text)
        self._set_graph(text)
        return report

    def _apply_update_process(self, update, _retry=False):
        from ..control import ControlPlaneError

        recovery = self._recovery
        delta = None
        new_graph = None
        if isinstance(update, str):
            text = update
        else:
            from ..graph.diff import GraphDelta, diff_graphs

            if isinstance(update, GraphDelta):
                delta, new_graph = update, None
            else:
                delta, new_graph = diff_graphs(self.graph, update), update
            text = self._update_text(update, delta, new_graph)
        if recovery is not None:
            self._poll_health()
        live = self._live_shards()
        prepare = recovery.config.prepare_timeout if recovery is not None else None
        # Phase one: stage on every live shard, bounded by the prepare
        # timeout — a worker that dies or hangs mid-stage must not wedge
        # the whole plane's control path.
        staged = []
        verdicts = []
        for shard in live:
            if self._proc_send(shard, ("update_stage", text)):
                staged.append(shard)
        for shard in staged:
            verdict = self._proc_recv(shard, timeout=prepare)
            if verdict is not None:
                verdicts.append((shard, verdict))
        if recovery is not None and len(verdicts) < len(live):
            # Someone died during stage: abort the survivors, bring the
            # dead back (their journals have no trace of this update),
            # and run the whole update once more on the full plane.
            for shard, _verdict in verdicts:
                self._proc_send(shard, ("update_abort",))
            return self._retry_update_process(update, _retry)
        rejected = [(s, v) for s, v in verdicts if v[1] == "rejected"]
        if rejected:
            for shard, _verdict in verdicts:
                self._proc_send(shard, ("update_abort",))
            raise ControlPlaneError(rejected[0][1][2])
        if all(v[1] == "empty" for _s, v in verdicts):
            from ..elements.hotswap import SwapReport

            return SwapReport("no-op", profile=self._profile.label)
        if all(v[1] == "ok" for _s, v in verdicts):
            self._fire_commit_hook()
            committed = []
            lost = False
            for shard, _verdict in verdicts:
                if self._proc_send(shard, ("update_commit",)):
                    committed.append(shard)
                else:
                    lost = True
            confirmed = []
            for shard in committed:
                if self._proc_recv(shard, timeout=prepare) is not None:
                    confirmed.append(shard)
                else:
                    lost = True
            if lost:
                # Phase two broke: a worker died between stage and
                # commit (or mid-commit).  Roll the confirmed survivors
                # back to the old tables, restore the dead, and retry
                # the update once against the whole plane.
                self._rollback_committed(confirmed)
                return self._retry_update_process(update, _retry)
            self._journal_update(text)
            from ..elements.hotswap import SwapReport

            report = SwapReport("in-place", profile=self._profile.label)
            report.elements_patched = len(
                delta.changed if delta is not None else ()
            )
            return report
        # Structural somewhere: full per-shard apply (each shard's
        # ControlPlane is transactional on its own).
        for shard, _verdict in verdicts:
            self._proc_send(shard, ("update_abort",))
            self._proc_send(shard, ("update", text))
        self._sync_process()
        self._journal_update(text)
        self._set_graph(text)
        from ..elements.hotswap import SwapReport

        return SwapReport("scoped-swap", profile=self._profile.label)

    def _rollback_committed(self, shards):
        """Mid-commit failure: surviving shards that already committed
        re-apply the *old* configuration, so every live shard serves
        the same tables while the dead one recovers."""
        from ..core.toolchain import save_config

        old_text = save_config(self.graph)
        pending = []
        for shard in shards:
            if self._proc_send(shard, ("update", old_text)):
                pending.append(shard)
        for shard in pending:
            if self._proc_send(shard, ("sync",)):
                self._proc_recv(shard)

    def _retry_update_process(self, update, already_retried):
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
        return self._apply_update_process(update, _retry=True)

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

    def kill_worker(self, index):
        """Kill shard ``index`` and walk away — the self-healing path's
        entry point (``worker_kill`` faults).  Detection happens at the
        next health seam; restart follows the backoff schedule.
        Requires a recovery policy on the profile."""
        self._ensure_started()
        index = index % self.workers
        if self._recovery is None:
            raise RecoveryError(
                "worker_kill needs a recovery policy on the profile "
                "(ExecutionProfile.with_recovery); use worker_crash for "
                "synchronous journal-replay recovery without one"
            )
        if self._recovery.is_down(index):
            return
        self._recovery.note_killed(index)
        shard = self._shards[index]
        if self.backend == "thread":
            shard.queue.put(("die",), timeout=1.0)
        elif shard.process is not None and shard.process.is_alive():
            shard.process.kill()

    def hang_worker(self, index, seconds=30.0):
        """Wedge shard ``index`` (``worker_hang`` faults): the worker
        sleeps instead of progressing, so the watchdog/heartbeat
        machinery — not a crash — has to find it.  Not journaled: a
        hang is transient wall-clock behavior, not shard history."""
        self._ensure_started()
        index = index % self.workers
        if self._recovery is None:
            raise RecoveryError(
                "worker_hang needs a recovery policy on the profile "
                "(ExecutionProfile.with_recovery)"
            )
        if self._recovery.is_down(index):
            return
        self._recovery.note_killed(index)
        cmd = ("hang", float(seconds))
        shard = self._shards[index]
        if self.backend == "thread":
            shard.queue.put(cmd, timeout=1.0)
        else:
            self._proc_send(shard, cmd)

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
        data = bytes(frame)
        cmd = ("poison", data)
        if self.backend == "thread":
            self._barrier()
            for index, shard in enumerate(self._shards):
                self._journal_cmd(index, cmd)
                if self._recovery is not None and self._recovery.is_down(index):
                    continue
                shard.poisons.add(data)
        else:
            for index, shard in enumerate(self._shards):
                self._journal_cmd(index, cmd)
                if self._recovery is not None and self._recovery.is_down(index):
                    continue
                self._proc_send(shard, cmd)

    # -- restart + journal replay ------------------------------------------

    def _revive_shard(self, index, singly=False):
        """Rebuild one shard and replay its journal.  The recovery
        manager's restart mechanism (and ``crash_worker``'s recovery
        half).  Raises :class:`ReplayFrameError` when the replay died
        at an exactly attributed frame, so the caller can quarantine
        it."""
        if self.backend == "thread":
            self._revive_thread(index)
        else:
            self._revive_process(index, singly=singly)
        self._replays += 1

    def _revive_thread(self, index):
        shard = self._shards[index]
        # Retire whatever worker is attached — gracefully when alive
        # (manual crash_worker), by the generation fence when hung.
        shard.generation += 1
        thread = shard.thread
        if thread is not None and thread.is_alive():
            shard.queue.put(("stop",), timeout=0.1)
            thread.join(timeout=0.5 if self._recovery is not None else 10)
        shard.router, shard.devices, shard.meter = self._build_shard_router(index)
        shard.worked = 0
        shard.error = None
        shard.dead = False
        shard.poisons = set()
        self._replay_thread_journal(shard, index)
        # Replayed work was genuinely re-executed, but its meter charges
        # were already absorbed before the crash: re-baseline so only
        # post-recovery work flows to the parent meter.  The flush
        # cursor (``shard.flushed``) is deliberately preserved: replay
        # regenerated *all* output, and only frames past the cursor
        # were never delivered.
        if shard.meter is not None:
            shard.meter_snapshot = shard.meter.summary()
        shard.queue = SPSCQueue(self._queue_capacity)
        self._spawn_thread_worker(shard)

    def _replay_thread_journal(self, shard, index):
        """Re-execute the journal against the freshly built shard,
        parent-side, attributing any death to the exact frame."""
        divider = self._divider(index)
        for position, cmd in enumerate(self._journals[index]):
            op = cmd[0]
            if op == "frames":
                for fpos, (name, frame) in enumerate(cmd[1]):
                    if shard.poisons and bytes(frame) in shard.poisons:
                        raise ReplayFrameError(
                            index, name, frame, (position, fpos),
                            "armed poison frame",
                        )
                    try:
                        shard.devices[name].receive_frame(frame)
                    except Exception as exc:  # noqa: BLE001 - attributed
                        raise ReplayFrameError(
                            index, name, frame, (position, fpos),
                            "%s: %s" % (type(exc).__name__, exc),
                        ) from exc
            elif op == "run":
                shard.router.run_tasks(cmd[1])
            elif op == "poison":
                shard.poisons.add(bytes(cmd[1]))
            else:
                shard.router = _apply_shard_control(
                    shard.router, shard.devices, cmd, divider=divider
                )

    def _revive_process(self, index, singly=False):
        """Respawn a process shard and resend its journal.  The fast
        path ships the whole journal and syncs once; ``singly`` replays
        command by command — frames one at a time — so a killer frame
        is attributed exactly (the slow path the manager falls back to
        after an unattributed batch-replay death)."""
        shard = self._shards[index]
        self._reap_process(shard, kill=True)
        self._spawn_process_shard(shard)
        journal = self._journals[index]
        if singly:
            for position, cmd in enumerate(journal):
                if cmd[0] == "frames":
                    for fpos, (name, frame) in enumerate(cmd[1]):
                        self._replay_send(
                            shard, ("frames", [(name, frame)]),
                            index, name, frame, (position, fpos),
                        )
                else:
                    self._replay_send(shard, cmd, index, None, b"", (position, 0))
        else:
            for cmd in journal:
                shard.conn.send(cmd)
        # The parent already consumed everything it flushed before the
        # crash; realign the worker's collect cursor so replayed frames
        # are not delivered twice.
        shard.conn.send(("set_flushed", dict(shard.flushed)))
        shard.conn.send(("sync",))
        reply = self._replay_reply(shard)
        if reply[2] is not None:
            raise RuntimeError(
                "shard %d replay failed: %s: %s" % (index, reply[2][0], reply[2][1])
            )
        shard.worked = 0
        # Deliver the replay's regenerated-but-unflushed output (the
        # dying run's frames, which the parent never collected) and
        # re-baseline the meter like the thread backend does.
        shard.conn.send(("collect",))
        collected = self._replay_reply(shard)
        for name in self._device_names:
            frames = collected[1].get(name)
            if frames:
                self._deliver(name, frames)
                shard.flushed[name] += len(frames)
                self._flushed_total += len(frames)
        if collected[2] is not None:
            shard.meter_snapshot = collected[2]

    def _replay_send(self, shard, cmd, index, name, frame, position):
        """One singly-replay step: send, sync, and convert any death
        into a frame-attributed :class:`ReplayFrameError`."""
        try:
            shard.conn.send(cmd)
            shard.conn.send(("sync",))
            reply = self._replay_reply(shard)
            if reply[2] is not None:
                raise RuntimeError("%s: %s" % (reply[2][0], reply[2][1]))
        except ReplayFrameError:
            raise
        except Exception as exc:  # noqa: BLE001 - attributed below
            if cmd[0] != "frames":
                raise
            raise ReplayFrameError(
                index, name, frame, position, "%s: %s" % (type(exc).__name__, exc)
            ) from exc

    def _replay_reply(self, shard):
        """Wait for a replay sync; bounded by the heartbeat window when
        self-healing (a hung replay must not wedge the restart path),
        blocking like the manual crash path otherwise."""
        if self._recovery is None:
            return shard.recv()
        timeout = max(10.0, self._recovery.config.heartbeat_timeout * 4)
        if not shard.conn.poll(timeout):
            raise RuntimeError("shard %d replay hung" % shard.index)
        return shard.conn.recv()

    def _strip_journal_frame(self, index, position):
        """Quarantine's surgical edit: remove one attributed frame from
        the journal (dropping its command when emptied), so the next
        replay runs clean."""
        cmd_pos, frame_pos = position
        journal = self._journals[index]
        frames = list(journal[cmd_pos][1])
        del frames[frame_pos]
        if frames:
            journal[cmd_pos] = ("frames", frames)
        else:
            del journal[cmd_pos]

    # -- observability -----------------------------------------------------

    def merged_counters(self):
        """Every element read handler, reconciled across shards: numeric
        values sum; non-numeric values report shard 0's."""
        self._ensure_started()
        recovery = self._recovery
        if self.backend == "thread":
            self._barrier()
            per_shard = []
            for shard in self._shards:
                if recovery is not None and recovery.is_down(shard.index):
                    continue
                values = {}
                for name, element in sorted(shard.router.elements.items()):
                    for handler, fn in sorted(element.read_handlers().items()):
                        value = fn()
                        if not isinstance(value, (int, float, str, bool, type(None))):
                            value = repr(value)
                        values["%s.%s" % (name, handler)] = value
                per_shard.append(values)
        else:
            per_shard = []
            pending = []
            for shard in self._shards:
                if recovery is not None and recovery.is_down(shard.index):
                    continue
                if self._proc_send(shard, ("counters",)):
                    pending.append(shard)
            for shard in pending:
                reply = self._proc_recv(shard)
                if reply is not None:
                    per_shard.append(reply[1])
        merged = {}
        for values in per_shard:
            for key, value in values.items():
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
        report.backend = self.backend
        report.seed = self.hash_seed
        report.dispatched = list(self._dispatched) or [0] * self.workers
        report.flushed = self._flushed_total
        report.runs = self._runs
        report.updates = self._updates
        report.crashes = self._crashes
        report.replays = self._replays
        recovery = self._recovery
        if self._started and self.backend == "thread":
            self._barrier()
            report.queue_high_water = [s.queue.high_water for s in self._shards]
            for shard in self._shards:
                if recovery is not None and recovery.is_down(shard.index):
                    continue
                supervisor = shard.router.supervisor
                if supervisor is not None:
                    report.supervisors["shard-%d" % shard.index] = (
                        supervisor.report().as_dict()
                    )
        elif self._started:
            pending = []
            for shard in self._shards:
                if recovery is not None and recovery.is_down(shard.index):
                    continue
                if self._proc_send(shard, ("report",)):
                    pending.append(shard)
            for shard in pending:
                reply = self._proc_recv(shard)
                if reply is not None and reply[1] is not None:
                    report.supervisors["shard-%d" % shard.index] = reply[1]
        if recovery is not None:
            report.recovery = recovery.report().as_dict()
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
            if self.backend == "thread":
                for shard in self._shards:
                    shard.generation += 1  # fence off hung workers
                    if shard.thread is not None and shard.thread.is_alive():
                        try:
                            shard.queue.put(("stop",), timeout=0.5)
                        except Exception:  # noqa: BLE001
                            pass
                for shard in self._shards:
                    if shard.thread is not None:
                        # A hung worker never joins; it is a daemon
                        # behind the generation fence, so don't wait.
                        shard.thread.join(timeout=1 if shard.dead else 10)
            else:
                for shard in self._shards:
                    if shard.conn is not None and shard.process is not None:
                        try:
                            if shard.process.is_alive():
                                shard.conn.send(("stop",))
                                if shard.conn.poll(5):
                                    shard.conn.recv()
                        except Exception:  # noqa: BLE001
                            pass
                    self._reap_process(shard, kill=True)
        if self._cache_path:
            try:
                os.unlink(self._cache_path)
            except OSError:
                pass
            self._cache_path = None
        self.retired = True

    def retire(self):
        """Decommission (hot-swap parity with ``Router.retire``)."""
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:  # noqa: BLE001
            pass
