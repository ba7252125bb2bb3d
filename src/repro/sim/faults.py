"""Deterministic, seeded fault injection for chaos testing the runtime.

A :class:`FaultPlan` is a JSON-serializable schedule of faults; a
:class:`FaultInjector` applies one plan to a live router and its
devices.  Fault *time* comes in two deterministic clocks so that a plan
replays identically under every execution mode:

- **ticks** — the injector's :meth:`FaultInjector.tick` counter, which
  the chaos harness advances once per ``["run", N]`` trace event.
  Device flaps/failures and worker faults are tick-based: the same
  scheduler passes see the same hardware state in every mode.
- **counts** — per-object event counters (frames dequeued from one
  device, packets entering one element).  Frame corruption and injected
  element exceptions are count-based because every execution mode
  processes the same packets in the same per-chain order, so "the 12th
  packet through ``chk``" names the same packet whether the chain is
  interpreted, compiled, batched, or adaptively recompiled.

The element fault is installed as an *instance-attribute* wrapper around
the element's processing entry point (``fast_action``, ``simple_action``
or ``push``) before the fast path compiles, so both the reference
interpreter and generated code call through it.  Wrapped elements are
flagged ``_fault_wrapped`` (the chain compiler skips specializations
that would bypass an instance attribute) and the router is flagged
``_fault_uncacheable`` (a scoped rebuild splices no chain between a
faulted router and a clean one: the wrapper lives on the element
instance, which a chain emitted for the clean router would bypass).

Faults never break the differential contract on their own: a supervised
router drops exactly the packets whose processing raised, in every
mode.  Pair the injector with :class:`repro.runtime.supervisor` (see
``repro.verify.chaos``) for the crash-free guarantee.
"""

from __future__ import annotations

import json
import random

__all__ = ["FAULT_KINDS", "FaultError", "FaultInjector", "FaultPlan", "FaultyDevice", "InjectedFault"]

#: kind -> (required fields, optional fields with defaults)
FAULT_KINDS = {
    "device_flap": (("device", "at", "ticks"), {}),
    "device_fail": (("device", "at"), {}),
    "corrupt_frame": (("device", "after"), {"count": 1, "offset": 0, "xor": 0xFF}),
    "element_error": (("element", "after"), {"count": 1, "message": None}),
    "worker_crash": (("at",), {"worker": 0}),
    # Self-healing faults (the recovery manager, not the injector, does
    # the recovering).  ``worker_kill`` with phase="commit" lands inside
    # the ``at``-th two-phase update's commit window instead of at a
    # tick; ``worker_poison`` arms a frame (hex) whose processing kills
    # whichever worker touches it, until quarantine strips it.
    "worker_kill": (("at",), {"worker": 0, "phase": "tick"}),
    "worker_hang": (("at",), {"worker": 0, "seconds": 30.0}),
    "worker_poison": (("at", "frame"), {}),
}


class FaultError(ValueError):
    """A malformed fault plan."""


class InjectedFault(RuntimeError):
    """The exception an ``element_error`` fault raises inside an
    element's packet handler."""

    def __init__(self, element_name, sequence, message=None):
        self.element_name = element_name
        self.sequence = sequence
        text = message or "injected fault #%d in %s" % (sequence, element_name)
        super().__init__(text)


class FaultPlan:
    """An ordered, JSON-round-trippable list of fault dicts."""

    def __init__(self, faults=(), seed=None, name="fault-plan"):
        self.faults = [dict(fault) for fault in faults]
        self.seed = seed
        self.name = name
        self.validate()

    def validate(self):
        for index, fault in enumerate(self.faults):
            kind = fault.get("kind")
            if kind not in FAULT_KINDS:
                raise FaultError(
                    "fault %d: unknown kind %r (choose from %s)"
                    % (index, kind, ", ".join(sorted(FAULT_KINDS)))
                )
            required, optional = FAULT_KINDS[kind]
            for field in required:
                if field not in fault:
                    raise FaultError("fault %d (%s): missing field %r" % (index, kind, field))
            for field, value in fault.items():
                if field == "kind":
                    continue
                if field not in required and field not in optional:
                    raise FaultError("fault %d (%s): unknown field %r" % (index, kind, field))
                if field in ("at", "ticks", "after", "count", "offset", "xor", "worker"):
                    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                        raise FaultError(
                            "fault %d (%s): field %r must be a non-negative "
                            "integer, not %r" % (index, kind, field, value)
                        )
                elif field == "phase":
                    if value not in ("tick", "commit"):
                        raise FaultError(
                            "fault %d (%s): phase must be 'tick' or 'commit', "
                            "not %r" % (index, kind, value)
                        )
                elif field == "seconds":
                    if (
                        not isinstance(value, (int, float))
                        or isinstance(value, bool)
                        or not value > 0
                    ):
                        raise FaultError(
                            "fault %d (%s): seconds must be a positive number, "
                            "not %r" % (index, kind, value)
                        )
                elif field == "frame":
                    bad = not isinstance(value, str) or not value
                    if not bad:
                        try:
                            bytes.fromhex(value)
                        except ValueError:
                            bad = True
                    if bad:
                        raise FaultError(
                            "fault %d (%s): frame must be a non-empty hex "
                            "string, not %r" % (index, kind, value)
                        )
        return self

    # -- serialization -----------------------------------------------------

    def to_dict(self):
        return {"name": self.name, "seed": self.seed, "faults": [dict(f) for f in self.faults]}

    @classmethod
    def from_dict(cls, data):
        return cls(
            faults=data.get("faults", ()),
            seed=data.get("seed"),
            name=data.get("name", "fault-plan"),
        )

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text, source="<json>"):
        """Parse and *validate* a plan, attributing every failure to
        ``source`` — a malformed plan must die here, with context, not
        halfway through a chaos run."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultError("%s: fault plan is not valid JSON: %s" % (source, exc)) from exc
        if not isinstance(data, dict):
            raise FaultError(
                "%s: fault plan must be a JSON object, not %s"
                % (source, type(data).__name__)
            )
        try:
            return cls.from_dict(data)
        except FaultError as exc:
            raise FaultError("%s: %s" % (source, exc)) from exc

    def save(self, path):
        with open(path, "w") as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path):
        with open(path) as handle:
            return cls.from_json(handle.read(), source=str(path))

    # -- generation --------------------------------------------------------

    @classmethod
    def seeded(cls, seed, devices=(), elements=(), ticks=16, events=64, sharded=False):
        """A deterministic plan drawn from ``seed``: one device flap,
        maybe a frame-corruption window and one or two element faults —
        scaled to a trace of about
        ``ticks`` run events carrying about ``events`` packets.

        ``sharded=True`` draws a *shard-safe* plan for comparing
        sharded against single-shard execution: element faults are
        count-based ("the 12th packet through ``chk``"), and global
        packet-entry order is exactly what sharding does not preserve —
        so they come out, and a ``worker_crash`` (whose journal-replay
        recovery is a deterministic no-op on the wire, and which plain
        routers ignore entirely) goes in."""
        rng = random.Random(seed)
        devices = list(devices)
        elements = list(elements)
        faults = []
        if devices:
            device = rng.choice(devices)
            at = rng.randrange(max(1, ticks // 2))
            faults.append(
                {"kind": "device_flap", "device": device, "at": at, "ticks": 1 + rng.randrange(3)}
            )
            if rng.random() < 0.75:
                faults.append(
                    {
                        "kind": "corrupt_frame",
                        "device": rng.choice(devices),
                        "after": rng.randrange(max(1, events // 4)),
                        "count": 1 + rng.randrange(3),
                        "offset": rng.choice((0, 14, 30)),
                        "xor": 1 + rng.randrange(255),
                    }
                )
        if sharded:
            faults.append(
                {
                    "kind": "worker_crash",
                    "at": rng.randrange(max(1, ticks)),
                    "worker": rng.randrange(8),
                }
            )
        else:
            for element in rng.sample(elements, min(len(elements), 1 + rng.randrange(2))):
                faults.append(
                    {
                        "kind": "element_error",
                        "element": element,
                        "after": rng.randrange(max(1, events // 2)),
                        "count": 1 + rng.randrange(4),
                    }
                )
        return cls(faults=faults, seed=seed, name="seeded-%s" % seed)

    def device_names(self):
        return sorted({f["device"] for f in self.faults if "device" in f})

    def element_names(self):
        return sorted({f["element"] for f in self.faults if "element" in f})

    def __len__(self):
        return len(self.faults)


class _DeviceFaultState:
    """Per-device schedule: flap windows, permanent failure, and
    count-based corruption windows over dequeued frames."""

    __slots__ = ("name", "flaps", "fail_at", "corruptions", "down", "rx_count", "down_polls", "corrupted")

    def __init__(self, name):
        self.name = name
        self.flaps = []  # (at, ticks)
        self.fail_at = None
        self.corruptions = []  # (after, count, offset, xor)
        self.down = False
        self.rx_count = 0
        self.down_polls = 0
        self.corrupted = 0

    def update(self, tick):
        down = any(at <= tick < at + ticks for (at, ticks) in self.flaps)
        if self.fail_at is not None and tick >= self.fail_at:
            down = True
        self.down = down

    def corrupt(self, frame):
        """Apply any active corruption window to a dequeued frame."""
        n = self.rx_count
        for after, count, offset, xor in self.corruptions:
            if after < n <= after + count:
                frame = bytearray(frame)
                if offset < len(frame):
                    frame[offset] ^= xor
                self.corrupted += 1
                return bytes(frame)
        return frame


class FaultyDevice:
    """A device proxy applying one :class:`_DeviceFaultState`.

    Deliberately declares no ``ring`` (as ``LoopbackDevice`` does): a
    compiled task loop must fall back to the element's own and its
    three device calls so faults are actually observed.  While down, received
    frames stay queued on the underlying device (a flap delays, a
    permanent failure strands them) and the transmit ring reports no
    room.
    """

    def __init__(self, device, state):
        self.device = device
        self.state = state
        self.name = getattr(device, "name", state.name)

    def receive_frame(self, frame):
        self.device.receive_frame(frame)

    def rx_dequeue(self):
        state = self.state
        if state.down:
            state.down_polls += 1
            return None
        frame = self.device.rx_dequeue()
        if frame is None:
            return None
        state.rx_count += 1
        return state.corrupt(frame)

    def tx_room(self):
        if self.state.down:
            return 0
        return self.device.tx_room()

    def tx_enqueue(self, frame):
        if self.state.down:
            return False
        return self.device.tx_enqueue(frame)

    @property
    def transmitted(self):
        return self.device.transmitted

    @property
    def rx(self):
        return self.device.rx


class _ElementFaultState:
    __slots__ = ("name", "windows", "calls", "fired")

    def __init__(self, name):
        self.name = name
        self.windows = []  # (after, count, message)
        self.calls = 0
        self.fired = 0

    def note_call(self):
        """Count one handler entry; raise if a window covers it."""
        self.calls = n = self.calls + 1
        for after, count, message in self.windows:
            if after < n <= after + count:
                self.fired += 1
                raise InjectedFault(self.name, n, message)


def _entry_attr(element):
    """The attribute name that is ``element``'s per-packet entry point:
    the declared fast_action, simple_action for default-dispatch
    elements, else the push handler itself."""
    from ..elements.element import Element

    cls = type(element)
    action = getattr(cls, "fast_action", None)
    if action:
        return action
    # Push alone decides, not Element.uses_simple_action: an element
    # that overrides only pull still enters pushed packets there.
    if cls.push is Element.push:
        return "simple_action"
    return "push"


class FaultInjector:
    """Applies one :class:`FaultPlan` to routers and devices.

    Usage order matters: wrap the devices, build the router over the
    wrapped devices, :meth:`prepare_router` *before* compiling (before
    ``configure``), then :meth:`tick` once per scheduler batch.  The
    injector may prepare several routers in sequence (hot-swap installs
    a new one); element fault counters are injector-owned and keyed by
    element name, so counting continues across a swap.
    """

    def __init__(self, plan):
        self.plan = plan if isinstance(plan, FaultPlan) else FaultPlan.from_dict(plan)
        self.plan.validate()
        self.tick_count = 0
        self.worker_crashes = 0
        self.worker_kills = 0
        self.worker_hangs = 0
        self.worker_poisons = 0
        self._devices = {}
        self._elements = {}
        self._worker_events = []  # (at, worker index), unfired worker_crash
        self._recovery_events = []  # unfired tick-phase kill/hang/poison dicts
        self._commit_events = []  # unfired phase="commit" worker_kill dicts
        self._router = None
        for fault in self.plan.faults:
            kind = fault["kind"]
            if kind in ("device_flap", "device_fail", "corrupt_frame"):
                state = self._devices.setdefault(
                    fault["device"], _DeviceFaultState(fault["device"])
                )
                if kind == "device_flap":
                    state.flaps.append((fault["at"], fault["ticks"]))
                elif kind == "device_fail":
                    at = fault["at"]
                    state.fail_at = at if state.fail_at is None else min(state.fail_at, at)
                else:
                    state.corruptions.append(
                        (
                            fault["after"],
                            fault.get("count", 1),
                            fault.get("offset", 0),
                            fault.get("xor", 0xFF),
                        )
                    )
            elif kind == "element_error":
                state = self._elements.setdefault(
                    fault["element"], _ElementFaultState(fault["element"])
                )
                state.windows.append(
                    (fault["after"], fault.get("count", 1), fault.get("message"))
                )
            elif kind == "worker_crash":
                self._worker_events.append((fault["at"], fault.get("worker", 0)))
            else:
                event = dict(fault)
                if kind == "worker_kill" and event.get("phase", "tick") == "commit":
                    self._commit_events.append(event)
                else:
                    self._recovery_events.append(event)
        for state in self._devices.values():
            state.update(0)

    # -- device side -------------------------------------------------------

    def wrap_devices(self, devices):
        """A new mapping where every device named by a device fault is
        wrapped in a :class:`FaultyDevice`; other devices pass through
        untouched (keeping their compiled task loops)."""
        wrapped = {}
        for name, device in devices.items():
            state = self._devices.get(name)
            wrapped[name] = device if state is None else FaultyDevice(device, state)
        return wrapped

    # -- element side ------------------------------------------------------

    def prepare_router(self, router):
        """Install element-fault wrappers on ``router`` (idempotent per
        router) and mark it so no scoped rebuild splices its chains.
        Must run before the router compiles a fast path."""
        self._router = router
        if getattr(router, "is_sharded", False):
            if self._elements:
                # Element faults fire by *global* packet-entry count, an
                # order sharding deliberately does not preserve — such a
                # plan cannot be mode-invariant on a sharded plane.
                raise FaultError(
                    "element_error faults are count-ordered and cannot be "
                    "applied to a sharded router; use a sharded-safe plan "
                    "(FaultPlan.seeded(..., sharded=True))"
                )
            router.fault_injector = self
            return []
        touched = []
        for name, state in self._elements.items():
            element = router.find(name)
            if element is None:
                continue
            attr = _entry_attr(element)
            original = getattr(element, attr)
            if getattr(original, "_fault_wrapper", False):
                continue

            def wrapper(*args, _original=original, _state=state):
                _state.note_call()
                return _original(*args)

            wrapper._fault_wrapper = True
            setattr(element, attr, wrapper)
            element._fault_wrapped = True
            touched.append(name)
        if self._elements:
            router._fault_uncacheable = True
        router.fault_injector = self
        return touched

    # -- clocks ------------------------------------------------------------

    def tick(self, count=1):
        """Advance the fault clock ``count`` ticks, updating device
        up/down state and firing due worker faults."""
        for _ in range(count):
            now = self.tick_count
            self.tick_count = now + 1
            for state in self._devices.values():
                state.update(now)
            for at, worker in list(self._worker_events):
                if at == now:
                    self._worker_events.remove((at, worker))
                    # Kill-and-recover one data-plane shard.  A plain
                    # (single-shard) router has no workers to crash, so
                    # the fault is a no-op there — which is what keeps a
                    # sharded-safe plan mode-invariant.
                    crash = getattr(self._router, "crash_worker", None)
                    if crash is not None:
                        crash(worker)
                        self.worker_crashes += 1
            for event in list(self._recovery_events):
                if event["at"] == now:
                    self._recovery_events.remove(event)
                    self._fire_recovery_event(event)

    def _fire_recovery_event(self, event):
        """Deliver one self-healing fault to the sharded router (a
        plain router has none of these hooks, so the fault is a no-op
        there and the plan stays mode-invariant)."""
        router = self._router
        kind = event["kind"]
        if kind == "worker_kill":
            kill = getattr(router, "kill_worker", None)
            if kill is not None:
                kill(event.get("worker", 0))
                self.worker_kills += 1
        elif kind == "worker_hang":
            hang = getattr(router, "hang_worker", None)
            if hang is not None:
                hang(event.get("worker", 0), event.get("seconds", 30.0))
                self.worker_hangs += 1
        elif kind == "worker_poison":
            arm = getattr(router, "arm_poison", None)
            if arm is not None:
                arm(bytes.fromhex(event["frame"]))
                self.worker_poisons += 1

    def on_commit_phase(self, update_number):
        """The sharded router's window between "every shard staged" and
        "first shard committed" during a two-phase update: fire any due
        phase="commit" worker kills (``at`` counts committed updates,
        1-based), so the mid-commit death path gets exercised."""
        for event in list(self._commit_events):
            if update_number >= event["at"]:
                self._commit_events.remove(event)
                kill = getattr(self._router, "kill_worker", None)
                if kill is not None:
                    kill(event.get("worker", 0))
                    self.worker_kills += 1

    # -- observability -----------------------------------------------------

    def fault_counts(self):
        """JSON-safe injection counters for the resilience report."""
        return {
            "ticks": self.tick_count,
            "worker_crashes": self.worker_crashes,
            "worker_kills": self.worker_kills,
            "worker_hangs": self.worker_hangs,
            "worker_poisons": self.worker_poisons,
            "devices": {
                name: {
                    "down_polls": state.down_polls,
                    "corrupted_frames": state.corrupted,
                    "frames_seen": state.rx_count,
                }
                for name, state in sorted(self._devices.items())
            },
            "elements": {
                name: {"calls": state.calls, "errors_fired": state.fired}
                for name, state in sorted(self._elements.items())
            },
        }
