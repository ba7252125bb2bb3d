"""Self-healing for the sharded data plane: health detection, automatic
restart with backoff, and degraded-mode flow re-steering.

The sharded plane (:mod:`repro.runtime.shard`) has had the *mechanisms*
of recovery since PR 7 — a per-shard command journal whose replay
reconstructs byte-identical shard state — but recovery itself was
operator-driven: a test harness called ``crash_worker`` by hand, and a
worker that died on its own silently blackholed its flows.  This module
closes the loop.  A :class:`RecoveryManager` rides along with every
``ShardedRouter`` whose profile carries a :class:`RecoveryConfig`, and
owns four jobs:

- **Detection.**  One health seam, the shard's transport: a ``send``
  the worker refuses (broken pipe; a handoff queue that does not drain
  within ``heartbeat_timeout``), a ``recv`` that outlives its reply
  deadline — a worker that neither answers nor exits is *hung* — or
  ``alive()`` false at the liveness sweep that opens every scheduler
  batch.  The reply deadline is ``heartbeat_timeout`` for a worker in its
  own process (hung: SIGKILLed and reaped) and ``watchdog_timeout``
  for one on a thread (hung: abandoned behind a fence — it owns its
  router outright, so it can never touch the rebuilt shard).
- **Restart.**  A detected-down shard is rebuilt and its journal
  replayed, under seeded exponential backoff measured in *scheduler
  runs* (the plane's deterministic clock): attempt ``n`` waits
  ``min(backoff_base * backoff_factor**(n-1), backoff_limit)`` runs
  plus a seeded jitter draw.  ``restart_budget`` failed attempts trip
  the circuit breaker and bench the shard permanently.
- **Quarantine.**  A frame that kills the worker again during replay —
  a batch replay that dies unattributed is re-run frame-by-frame, which
  names the exact journal position — is not replayed forever: after
  ``quarantine_limit`` consecutive replay kills the frame is stripped
  from the journal, recorded as a :class:`QuarantineRecord` (the repro
  artifact), and dropped from all future dispatch.
- **Degraded dispatch.**  While a shard is down, its flows follow the
  profile's recovery *policy*: ``"buffer"`` (hold frames, bounded, and
  deliver them — journaled — the moment the shard returns; full
  per-flow order is preserved), ``"resteer"`` (re-home the flows onto
  survivors through a rendezvous overlay on
  :func:`repro.runtime.flowhash.rendezvous_shard`; per-flow order is
  preserved *from the re-home point*, and flows re-home back after
  recovery), or ``"fail-fast"`` (raise :class:`RecoveryError` — the
  explicit opt-out).  Benched shards re-steer under either non-fatal
  policy, since they are never coming back.

Everything the manager does is summarized by a :class:`RecoveryReport`
(detection latencies, MTTR in runs and seconds, restart/bench/
quarantine counts, frames re-steered/buffered/dropped), folded into
``ShardReport`` and the ``click-optimize``/``click-chaos`` CLIs.  The
degraded-mode wire contract is checked by
:func:`repro.verify.oracle.degraded_transmit_difference`.
"""

from __future__ import annotations

import random
import time

from .flowhash import DEFAULT_SEED, rendezvous_shard

__all__ = [
    "PoisonFrameError",
    "QuarantineRecord",
    "RECOVERY_POLICIES",
    "RecoveryConfig",
    "RecoveryError",
    "RecoveryManager",
    "RecoveryReport",
    "ReplayFrameError",
]

RECOVERY_POLICIES = ("buffer", "resteer", "fail-fast")


class RecoveryError(RuntimeError):
    """Recovery cannot proceed (no policy configured for a worker
    fault, a fail-fast policy met a down shard, or every shard is
    gone)."""


class PoisonFrameError(RuntimeError):
    """The exception an armed poison frame raises inside the shard
    worker, out of its command loop — the deterministic stand-in for a
    frame whose processing kills the worker (the worker's host turns it
    into the worker's death)."""

    def __init__(self, device, frame):
        self.device = device
        self.frame = bytes(frame)
        super().__init__(
            "poison frame (%d bytes) on %s killed the worker"
            % (len(self.frame), device)
        )


class ReplayFrameError(RuntimeError):
    """Journal replay died at an exactly attributed frame.

    Carries everything quarantine needs: the shard, the device the
    frame arrived on, the frame bytes, and the journal position as a
    ``(command index, frame index)`` pair.
    """

    def __init__(self, shard, device, frame, position, cause):
        self.shard = shard
        self.device = device
        self.frame = bytes(frame)
        self.position = tuple(position)
        self.cause = cause
        super().__init__(
            "shard %d replay killed by frame at journal position %r "
            "(device %s, %d bytes): %s"
            % (shard, self.position, device, len(self.frame), cause)
        )


class QuarantineRecord:
    """The repro record for one quarantined frame: enough to rebuild
    the failure (which shard, which device, the exact bytes, where in
    the journal it sat, and how many replays it killed first)."""

    __slots__ = ("shard", "device", "frame_hex", "position", "kills", "cause")

    def __init__(self, shard, device, frame, position, kills, cause):
        self.shard = int(shard)
        self.device = device
        self.frame_hex = bytes(frame).hex()
        self.position = tuple(position)
        self.kills = int(kills)
        self.cause = str(cause)

    def as_dict(self):
        data = {
            "cause": self.cause,
            "device": self.device,
            "frame_hex": self.frame_hex,
            "kills": self.kills,
            "position": list(self.position),
            "shard": self.shard,
        }
        return {key: data[key] for key in sorted(data)}

    def __repr__(self):
        return "QuarantineRecord(shard=%d, device=%r, %d bytes, kills=%d)" % (
            self.shard,
            self.device,
            len(self.frame_hex) // 2,
            self.kills,
        )


class RecoveryConfig:
    """Tuning knobs for detection, restart pacing, and degraded mode.

    Backoff is measured in scheduler runs — the sharded plane's
    deterministic clock — so a replayed trace heals at the same points
    every time; the three ``*_timeout`` knobs are wall-clock seconds,
    because hung-worker detection is inherently a real-time judgment.
    """

    __slots__ = (
        "policy",
        "restart_budget",
        "backoff_base",
        "backoff_factor",
        "backoff_limit",
        "jitter",
        "seed",
        "heartbeat_timeout",
        "watchdog_timeout",
        "prepare_timeout",
        "quarantine_limit",
        "buffer_limit",
        "max_records",
    )

    def __init__(
        self,
        policy="buffer",
        restart_budget=5,
        backoff_base=1,
        backoff_factor=2.0,
        backoff_limit=32,
        jitter=1,
        seed=DEFAULT_SEED,
        heartbeat_timeout=5.0,
        watchdog_timeout=5.0,
        prepare_timeout=5.0,
        quarantine_limit=2,
        buffer_limit=4096,
        max_records=64,
    ):
        if policy not in RECOVERY_POLICIES:
            raise ValueError(
                "recovery policy must be one of %s, not %r"
                % ("/".join(RECOVERY_POLICIES), policy)
            )
        self.policy = policy
        for name, value, low in (
            ("restart_budget", restart_budget, 1),
            ("backoff_base", backoff_base, 0),
            ("backoff_limit", backoff_limit, 1),
            ("jitter", jitter, 0),
            ("quarantine_limit", quarantine_limit, 1),
            ("buffer_limit", buffer_limit, 1),
            ("max_records", max_records, 1),
        ):
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError("%s must be an int, not %r" % (name, value))
            if value < low:
                raise ValueError("%s must be >= %d, not %d" % (name, low, value))
            setattr(self, name, value)
        for name, value in (
            ("backoff_factor", backoff_factor),
            ("heartbeat_timeout", heartbeat_timeout),
            ("watchdog_timeout", watchdog_timeout),
            ("prepare_timeout", prepare_timeout),
        ):
            value = float(value)
            if not value > 0:
                raise ValueError("%s must be positive, not %r" % (name, value))
            setattr(self, name, value)
        self.seed = int(seed)

    def as_dict(self):
        data = {name: getattr(self, name) for name in self.__slots__}
        return {key: data[key] for key in sorted(data)}

    def __eq__(self, other):
        return type(other) is type(self) and self.as_dict() == other.as_dict()

    def __hash__(self):
        return hash(tuple(self.as_dict().items()))

    def __repr__(self):
        return "RecoveryConfig(policy=%r, restart_budget=%d)" % (
            self.policy,
            self.restart_budget,
        )


class _ShardHealth:
    """Per-shard recovery state: liveness, the backoff schedule, the
    degraded-mode buffer, and per-frame replay-kill counts."""

    __slots__ = (
        "index",
        "up",
        "benched",
        "bench_reason",
        "attempts",
        "restarts",
        "next_attempt_run",
        "kill_run",
        "down_run",
        "down_time",
        "down_reason",
        "buffer",
        "frame_kills",
        "singly",
    )

    def __init__(self, index):
        self.index = index
        self.up = True
        self.benched = False
        self.bench_reason = None
        self.attempts = 0  # consecutive failed restart attempts
        self.restarts = 0  # successful restarts over the shard's lifetime
        self.next_attempt_run = None
        self.kill_run = None  # when a fault hook killed it (detection base)
        self.down_run = None
        self.down_time = None
        self.down_reason = None
        self.buffer = []
        self.frame_kills = {}  # frame bytes -> consecutive replay kills
        self.singly = False  # next replay runs frame-granular


class RecoveryManager:
    """Drives health detection, restart, and degraded dispatch for one
    :class:`~repro.runtime.shard.ShardedRouter`.

    The sharded router calls in at its natural seams —
    ``note_killed``/``note_dead`` at detection points, ``on_run_start``
    at the top of every scheduler batch, ``route_frame`` per dispatched
    frame — and provides the mechanics back (``_revive_shard``,
    ``_strip_journal_frame``, ``_deliver_buffered``).  The manager owns
    only policy and bookkeeping; how a worker is hosted never reaches it.
    """

    def __init__(self, router, config):
        self.router = router
        self.config = config
        self.workers = router.workers
        self._health = [_ShardHealth(index) for index in range(self.workers)]
        self._rngs = [
            random.Random(config.seed * 1000003 + index)
            for index in range(self.workers)
        ]
        self.quarantined = set()  # frame bytes dropped from all dispatch
        self.quarantine_records = []
        self.affected_flows = set()  # dispatch keys re-homed off a down shard
        self.detections = 0
        self.detection_latency_runs = []
        self.restart_attempts = 0
        self.restarts = 0
        self.mttr_runs = []
        self.mttr_seconds = []
        self.replay_depths = []
        self.frames_resteered = 0
        self.frames_buffered = 0
        self.buffer_drops = 0
        self.quarantine_drops = 0
        self.updates_recommitted = 0

    # -- liveness ----------------------------------------------------------

    def is_down(self, index):
        return not self._health[index].up

    def healthy_indices(self):
        return [health.index for health in self._health if health.up]

    def down_indices(self):
        """Down but not benched — shards recovery is still working on."""
        return [
            health.index
            for health in self._health
            if not health.up and not health.benched
        ]

    def benched_indices(self):
        return [health.index for health in self._health if health.benched]

    def note_killed(self, index):
        """A fault hook killed this worker; the *parent* does not act on
        this — detection happens at the next health seam, and the gap is
        the detection latency the report records."""
        health = self._health[index]
        if health.up and health.kill_run is None:
            health.kill_run = self.router._runs

    def note_dead(self, index, reason):
        """The health seam (send refused, reply deadline passed, worker
        not alive) found this worker dead or hung.  Marks it down and
        makes the first restart attempt due immediately."""
        health = self._health[index]
        if not health.up:
            return
        health.up = False
        health.down_run = self.router._runs
        health.down_time = time.monotonic()
        health.down_reason = reason
        health.attempts = 0
        health.next_attempt_run = health.down_run  # first attempt: no backoff
        self.detections += 1
        if len(self.detection_latency_runs) < self.config.max_records:
            base = health.kill_run if health.kill_run is not None else health.down_run
            self.detection_latency_runs.append(max(0, health.down_run - base))
        health.kill_run = None

    # -- degraded dispatch -------------------------------------------------

    def degraded(self):
        """Whether dispatch must put frames through :meth:`route_frame`:
        a shard is down (benched ones never come back up) or a frame is
        quarantined."""
        return bool(self.quarantined) or not all(health.up for health in self._health)

    def route_frame(self, home, name, frame):
        """Where one ingress frame goes while the plane is (possibly)
        degraded: its home shard when healthy, a rendezvous survivor or
        the buffer when not, ``None`` when the frame was consumed
        (buffered or dropped)."""
        if self.quarantined and bytes(frame) in self.quarantined:
            self.quarantine_drops += 1
            return None
        health = self._health[home]
        if health.up:
            return home
        policy = self.config.policy
        if policy == "fail-fast":
            raise RecoveryError(
                "shard %d is down (%s) under the fail-fast recovery policy"
                % (home, health.down_reason)
            )
        if policy == "resteer" or health.benched:
            healthy = self.healthy_indices()
            if not healthy:
                raise RecoveryError("no healthy shards left to re-steer onto")
            key = bytes(self.router.hasher.key(frame))
            # Record the re-homed flow: the degraded-contract oracle
            # holds exactly these flows to the weaker (multiset-only)
            # guarantee and everything else to strict per-flow order.
            self.affected_flows.add(key)
            target = rendezvous_shard(key, healthy, self.config.seed)
            self.frames_resteered += 1
            return target
        if len(health.buffer) >= self.config.buffer_limit:
            self.buffer_drops += 1
            return None
        health.buffer.append((name, frame))
        self.frames_buffered += 1
        return None

    # -- restart scheduling ------------------------------------------------

    def on_run_start(self):
        """Called at the top of every scheduler batch: attempt every
        restart whose backoff delay has elapsed."""
        now = self.router._runs
        for health in self._health:
            if health.up or health.benched:
                continue
            if health.next_attempt_run is not None and now >= health.next_attempt_run:
                self.attempt_restart(health.index)

    def _schedule_backoff(self, health):
        config = self.config
        delay = min(
            config.backoff_base * config.backoff_factor ** max(0, health.attempts - 1),
            config.backoff_limit,
        )
        delay = int(delay) + (
            self._rngs[health.index].randrange(config.jitter + 1)
            if config.jitter
            else 0
        )
        health.next_attempt_run = self.router._runs + max(1, delay)

    def bench(self, index, reason):
        """Trip the circuit breaker: the shard is out of the rotation
        for good; its flows re-steer (or fail fast) from here on."""
        health = self._health[index]
        health.benched = True
        health.bench_reason = reason
        health.next_attempt_run = None
        if health.buffer:
            # Buffered frames re-steer now that the shard is never
            # coming back; counters already counted them as buffered.
            buffered, health.buffer = health.buffer, []
            self.router._redispatch(buffered)

    def attempt_restart(self, index, force=False):
        """One restart attempt (or a forced chain of them): rebuild the
        shard and replay its journal, quarantining exactly attributed
        killer frames and benching the shard once the restart budget is
        gone.  Returns True when the shard came back up."""
        health = self._health[index]
        if health.up:
            return True
        if health.benched:
            return False
        router = self.router
        while True:
            self.restart_attempts += 1
            try:
                router._revive_shard(index, singly=health.singly)
            except ReplayFrameError as exc:
                health.attempts += 1
                key = bytes(exc.frame)
                kills = health.frame_kills.get(key, 0) + 1
                health.frame_kills[key] = kills
                if kills >= self.config.quarantine_limit:
                    self._quarantine(exc, kills)
                    continue  # journal is clean of the killer; retry now
            except Exception as exc:  # noqa: BLE001 - unattributed death
                health.attempts += 1
                if not health.singly:
                    # Re-run the replay frame-granular so a killer frame
                    # (if that is what this was) gets attributed.
                    health.singly = True
                    continue
                health.down_reason = "%s: %s" % (type(exc).__name__, exc)
            else:
                self._mark_recovered(health)
                return True
            if health.attempts >= self.config.restart_budget:
                self.bench(
                    index,
                    "restart budget (%d) exhausted: %s"
                    % (self.config.restart_budget, health.down_reason),
                )
                return False
            if not force:
                self._schedule_backoff(health)
                return False

    def _mark_recovered(self, health):
        health.up = True
        health.restarts += 1
        health.attempts = 0
        health.singly = False
        health.frame_kills = {}
        health.next_attempt_run = None
        self.restarts += 1
        if len(self.mttr_runs) < self.config.max_records:
            self.mttr_runs.append(self.router._runs - health.down_run)
            self.mttr_seconds.append(
                round(time.monotonic() - health.down_time, 6)
            )
        if len(self.replay_depths) < self.config.max_records:
            self.replay_depths.append(len(self.router._journals[health.index]))
        health.down_run = None
        health.down_time = None
        health.down_reason = None
        if health.buffer:
            buffered, health.buffer = health.buffer, []
            self.router._deliver_buffered(health.index, buffered)

    def _quarantine(self, exc, kills):
        """Strip the attributed killer frame from the shard's journal,
        record the repro, and drop it from all future dispatch."""
        self.router._strip_journal_frame(exc.shard, exc.position)
        self.quarantined.add(bytes(exc.frame))
        if len(self.quarantine_records) < self.config.max_records:
            self.quarantine_records.append(
                QuarantineRecord(
                    exc.shard, exc.device, exc.frame, exc.position, kills, exc.cause
                )
            )

    def note_recommitted(self, count=1):
        self.updates_recommitted += count

    # -- observability -----------------------------------------------------

    def report(self):
        return RecoveryReport(self)


class RecoveryReport:
    """JSON-safe snapshot of the recovery manager's lifetime: what went
    down, how fast it was caught, how long it took to come back, and
    what degraded mode did to the traffic in between."""

    def __init__(self, manager):
        config = manager.config
        self.policy = config.policy
        self.config = config.as_dict()
        self.workers = manager.workers
        self.detections = manager.detections
        self.detection_latency_runs = list(manager.detection_latency_runs)
        self.restart_attempts = manager.restart_attempts
        self.restarts = manager.restarts
        self.mttr_runs = list(manager.mttr_runs)
        self.mttr_seconds = list(manager.mttr_seconds)
        self.replay_depths = list(manager.replay_depths)
        self.down = sorted(manager.down_indices())
        self.benched = sorted(manager.benched_indices())
        self.bench_reasons = {
            health.index: health.bench_reason
            for health in manager._health
            if health.benched
        }
        self.shard_restarts = [health.restarts for health in manager._health]
        self.frames_resteered = manager.frames_resteered
        self.affected_flows = len(manager.affected_flows)
        self.frames_buffered = manager.frames_buffered
        self.buffer_drops = manager.buffer_drops
        self.quarantine_drops = manager.quarantine_drops
        self.updates_recommitted = manager.updates_recommitted
        self.quarantined = [
            record.as_dict() for record in manager.quarantine_records
        ]

    def as_dict(self):
        data = {
            "affected_flows": self.affected_flows,
            "bench_reasons": {
                str(key): self.bench_reasons[key] for key in sorted(self.bench_reasons)
            },
            "benched": list(self.benched),
            "buffer_drops": self.buffer_drops,
            "config": self.config,
            "detection_latency_runs": list(self.detection_latency_runs),
            "detections": self.detections,
            "down": list(self.down),
            "frames_buffered": self.frames_buffered,
            "frames_resteered": self.frames_resteered,
            "mttr_runs": list(self.mttr_runs),
            "mttr_seconds": list(self.mttr_seconds),
            "policy": self.policy,
            "quarantine_drops": self.quarantine_drops,
            "quarantined": list(self.quarantined),
            "replay_depths": list(self.replay_depths),
            "restart_attempts": self.restart_attempts,
            "restarts": self.restarts,
            "shard_restarts": list(self.shard_restarts),
            "updates_recommitted": self.updates_recommitted,
            "workers": self.workers,
        }
        return {key: data[key] for key in sorted(data)}

    def format(self):
        lines = [
            "recovery (%s): %d detection(s), %d restart(s) in %d attempt(s), "
            "%d shard(s) benched"
            % (
                self.policy,
                self.detections,
                self.restarts,
                self.restart_attempts,
                len(self.benched),
            )
        ]
        if self.detection_latency_runs:
            lines.append(
                "  detection latency: %s run(s); MTTR: %s run(s)"
                % (self.detection_latency_runs, self.mttr_runs)
            )
        if self.frames_resteered or self.frames_buffered:
            lines.append(
                "  degraded traffic: %d re-steered, %d buffered (%d buffer drop(s))"
                % (self.frames_resteered, self.frames_buffered, self.buffer_drops)
            )
        if self.quarantined:
            lines.append(
                "  quarantined %d poison frame(s) (%d dispatch drop(s))"
                % (len(self.quarantined), self.quarantine_drops)
            )
        if self.updates_recommitted:
            lines.append(
                "  %d control-plane command(s) recommitted via replay"
                % self.updates_recommitted
            )
        for index in self.benched:
            lines.append(
                "  shard %d benched: %s" % (index, self.bench_reasons.get(index))
            )
        return "\n".join(lines)
