"""Supervised execution: error boundaries, tiered degradation, and a
watchdog over the compiled runtime.

The fast path (PR 2) and the adaptive engine (PR 3) trade the reference
interpreter's per-hop isolation for speed: one exception inside a
compiled chain would otherwise unwind through the driver loop and kill
the whole router.  The :class:`Supervisor` restores isolation without
giving the speed back on the healthy path:

- Every compiled chain *entry* (each ``FastOutputPort``/``FastInputPort``
  the fast path installed) is wrapped in a boundary.  Boundaries on the
  ports of **task elements** (PollDevice, ToDevice, Unqueue...) are
  *containing*: an exception drops exactly the packet that raised,
  records it, demotes the chain one tier, and lets the driver's burst
  continue.  Boundaries on **interior** ports record and demote their
  own chain but re-raise, so the error surfaces at the task entry —
  precisely where the reference interpreter would have surfaced it.
  That placement is what keeps supervised execution byte-identical
  across modes: the raise aborts mid-handler side effects (a Tee's
  remaining outputs, an ARP querier's post-push bookkeeping) the same
  way everywhere.
- Demotion walks a per-chain tier stack: ``adaptive -> fast ->
  reference`` (``fdd -> ...`` under that mode).  The top tier reads the
  live port slot each call, so the engine's dispatcher/promotion
  rewrites keep working untouched; ``fast`` pins the static tier-1
  compiled function; ``reference`` calls the saved interpreter port.
- A per-chain circuit breaker: once a chain burns its error budget it
  drops straight to the reference floor.  Re-promotion is earned — a
  clean streak of ``backoff`` packets climbs one tier, and each error
  multiplies the required streak by ``backoff_factor`` (exponential
  backoff, capped at ``backoff_limit``).
- In reference mode the same containing boundaries wrap the task
  elements' plain ports, and :meth:`Router.run_tasks` adds a task-level
  backstop, so a supervised reference router is equally crash-free.
- A watchdog: a task that keeps claiming work (``run_task() -> True``)
  while its progress counters stay flat for ``watchdog_limit``
  consecutive passes is recorded and benched for ``watchdog_cooldown``
  passes.

Batched entries are *scalarized* while supervised: the boundary feeds
the scalar chain one packet at a time so an error costs one packet, not
the tail of a burst — the documented price of supervision in batch
mode.  Metered routers are refused (the meter charges at reference call
sites; boundaries would skew it).
"""

from __future__ import annotations

import json

__all__ = ["ResilienceReport", "Supervisor", "SupervisorConfig", "SupervisorError", "TUNABLES"]

#: Parameter-space declarations for the autotuner (:mod:`repro.tune`):
#: the circuit-breaker knobs worth searching.  Plain data, mirrored by
#: ``ExecutionProfile.with_tuning`` (applied only to supervised
#: profiles).
TUNABLES = (
    {"name": "supervisor.error_budget", "kind": "int", "low": 2, "high": 16, "default": 4},
    {"name": "supervisor.backoff", "kind": "log_int", "low": 8, "high": 512, "default": 32},
)


class SupervisorError(RuntimeError):
    """Supervision cannot be attached (metered router, double attach)."""


class SupervisorConfig:
    """Tuning knobs for boundaries, breaker, and watchdog."""

    __slots__ = (
        "error_budget",
        "backoff",
        "backoff_factor",
        "backoff_limit",
        "watchdog_limit",
        "watchdog_cooldown",
        "max_records",
    )

    def __init__(
        self,
        error_budget=4,
        backoff=32,
        backoff_factor=2.0,
        backoff_limit=4096,
        watchdog_limit=8,
        watchdog_cooldown=32,
        max_records=64,
    ):
        self.error_budget = int(error_budget)
        self.backoff = int(backoff)
        self.backoff_factor = float(backoff_factor)
        self.backoff_limit = int(backoff_limit)
        self.watchdog_limit = int(watchdog_limit)
        self.watchdog_cooldown = int(watchdog_cooldown)
        self.max_records = int(max_records)

    def as_dict(self):
        return {name: getattr(self, name) for name in sorted(self.__slots__)}

    def __eq__(self, other):
        return type(other) is type(self) and self.as_dict() == other.as_dict()

    def __hash__(self):
        return hash(tuple(self.as_dict().items()))


class _ChainGuard:
    """Per-supervised-chain state: the tier stack, breaker accounting,
    and the exponential re-promotion backoff."""

    __slots__ = (
        "key",
        "tiers",
        "level",
        "fn",
        "errors",
        "demotions",
        "repromotions",
        "clean",
        "need",
        "last_error",
        "supervisor",
    )

    def __init__(self, supervisor, key, tiers):
        self.supervisor = supervisor
        self.key = key
        self.tiers = tiers  # [(label, callable)], best tier first
        self.level = 0
        self.fn = tiers[0][1]
        self.errors = 0
        self.demotions = 0
        self.repromotions = 0
        self.clean = 0
        self.need = supervisor.config.backoff
        self.last_error = None

    @property
    def tier(self):
        return self.tiers[self.level][0]

    @property
    def breaker(self):
        """``closed`` while healthy at the top tier, ``half-open`` while
        degraded but still probing upward, ``open`` once the error
        budget is gone and the chain sits on the reference floor."""
        if self.errors >= self.supervisor.config.error_budget and self.level == len(self.tiers) - 1:
            return "open"
        if self.level:
            return "half-open"
        return "closed"

    def record(self, exc):
        """Count one boundary-caught exception; demote one tier (or to
        the floor once the budget is spent) and stretch the backoff."""
        config = self.supervisor.config
        self.errors += 1
        self.clean = 0
        self.last_error = "%s: %s" % (type(exc).__name__, exc)
        self.supervisor._note_chain_error(self, exc)
        floor = len(self.tiers) - 1
        if self.level < floor:
            self.level = floor if self.errors >= config.error_budget else self.level + 1
            self.fn = self.tiers[self.level][1]
            self.demotions += 1
        self.need = min(int(self.need * config.backoff_factor), config.backoff_limit)

    def promote(self):
        """One earned step back up the tier stack."""
        if self.level:
            self.level -= 1
            self.fn = self.tiers[self.level][1]
            self.repromotions += 1
        self.clean = 0


def _entry_push_boundary(guard):
    def push(packet, _g=guard):
        try:
            _g.fn(packet)
        except Exception as exc:  # noqa: BLE001 - the boundary IS the handling
            _g.record(exc)
            return
        if _g.level:
            _g.clean += 1
            if _g.clean >= _g.need:
                _g.promote()

    return push


def _interior_push_boundary(guard):
    def push(packet, _g=guard):
        try:
            _g.fn(packet)
        except Exception as exc:  # noqa: BLE001
            _g.record(exc)
            raise
        if _g.level:
            _g.clean += 1
            if _g.clean >= _g.need:
                _g.promote()

    return push


def _entry_pull_boundary(guard):
    def pull(_g=guard):
        try:
            packet = _g.fn()
        except Exception as exc:  # noqa: BLE001
            _g.record(exc)
            return None
        if _g.level:
            _g.clean += 1
            if _g.clean >= _g.need:
                _g.promote()
        return packet

    return pull


def _interior_pull_boundary(guard):
    def pull(_g=guard):
        try:
            packet = _g.fn()
        except Exception as exc:  # noqa: BLE001
            _g.record(exc)
            raise
        if _g.level:
            _g.clean += 1
            if _g.clean >= _g.need:
                _g.promote()
        return packet

    return pull


class SupervisedOutputPort:
    """A boundary-wrapped push port.  Keeps the reference OutputPort
    surface; ``inner`` is the port it wraps (restored on detach)."""

    __slots__ = ("element", "port", "target", "target_port", "virtual", "push", "push_batch", "inner", "guard")

    def __init__(self, inner, guard, entry):
        self.element = inner.element
        self.port = inner.port
        self.target = inner.target
        self.target_port = inner.target_port
        self.virtual = inner.virtual
        self.inner = inner
        self.guard = guard
        scalar = _entry_push_boundary(guard) if entry else _interior_push_boundary(guard)
        self.push = scalar
        if getattr(inner, "push_batch", None) is not None:
            # Scalarized: one packet at a time through the boundary, so
            # an error never discards the tail of a burst.
            def push_batch(packets, _scalar=scalar):
                for packet in packets:
                    _scalar(packet)

            self.push_batch = push_batch
        else:
            self.push_batch = None


class SupervisedInputPort:
    """A boundary-wrapped pull port."""

    __slots__ = ("element", "port", "source", "source_port", "virtual", "pull", "pull_batch", "inner", "guard")

    def __init__(self, inner, guard, entry):
        self.element = inner.element
        self.port = inner.port
        self.source = inner.source
        self.source_port = inner.source_port
        self.virtual = inner.virtual
        self.inner = inner
        self.guard = guard
        scalar = _entry_pull_boundary(guard) if entry else _interior_pull_boundary(guard)
        self.pull = scalar
        if getattr(inner, "pull_batch", None) is not None:

            def pull_batch(limit, _scalar=scalar):
                packets = []
                while limit > 0:
                    limit -= 1
                    packet = _scalar()
                    if packet is None:
                        break
                    packets.append(packet)
                return packets

            self.pull_batch = pull_batch
        else:
            self.pull_batch = None


class _TaskState:
    __slots__ = ("name", "progress", "stuck", "benched", "watchdog_trips")

    def __init__(self, name):
        self.name = name
        self.progress = None
        self.stuck = 0
        self.benched = 0
        self.watchdog_trips = 0


_PROGRESS_ATTRS = ("received", "sent", "count", "emitted")


class Supervisor:
    """Error boundaries + breaker + watchdog over one router.

    Create, then :meth:`attach`; :meth:`detach` restores the wrapped
    ports exactly (and must run before the router changes mode, which
    swaps port lists wholesale underneath the wrappers —
    Router.configure handles that ordering).
    """

    def __init__(self, router, config=None):
        if router.meter is not None:
            raise SupervisorError(
                "cannot supervise a metered router: the meter charges at "
                "reference call sites and boundaries would skew it"
            )
        self.router = router
        self.config = config if config is not None else SupervisorConfig()
        self.guards = {}
        self.attached = False
        self.task_errors = []  # bounded [(task name, error text)]
        self.task_error_count = 0
        self.watchdog_events = []  # bounded [event dict]
        self.chain_error_count = 0
        self._wrapped = []  # (element, "out"/"in", index, supervised port)
        self._task_states = {}

    # -- attach / detach ---------------------------------------------------

    def attach(self):
        from .fastpath import FastInputPort, FastOutputPort

        if self.attached:
            raise SupervisorError("supervisor already attached")
        router = self.router
        engine = router.engine
        if engine is None:
            self._attach_reference()
        else:
            fastpath = engine.tier1
            saved = fastpath._saved_ports or {}
            for name, element in router.elements.items():
                ref_outputs, ref_inputs = saved.get(name, (element._output_ports, element._input_ports))
                entry = element.is_task()
                for index, port in enumerate(element._output_ports):
                    if not isinstance(port, FastOutputPort):
                        continue
                    key = ("push", name, index)
                    # The top tier reads the live slot; a chain the
                    # engine tiers also gets its static function pinned
                    # beneath it.
                    tiers = [(engine.mode, _dynamic_push(port))]
                    if key in engine.states:
                        tiers.append(("fast", fastpath.function_for(key)))
                    tiers.append(("reference", ref_outputs[index].push))
                    guard = _ChainGuard(self, key, tiers)
                    self.guards[key] = guard
                    wrapped = SupervisedOutputPort(port, guard, entry)
                    element._output_ports[index] = wrapped
                    self._wrapped.append((element, "out", index, wrapped))
                for index, port in enumerate(element._input_ports):
                    if not isinstance(port, FastInputPort):
                        continue
                    key = ("pull", name, index)
                    tiers = [
                        ("fast", _dynamic_pull(port)),
                        ("reference", ref_inputs[index].pull),
                    ]
                    guard = _ChainGuard(self, key, tiers)
                    self.guards[key] = guard
                    wrapped = SupervisedInputPort(port, guard, entry)
                    element._input_ports[index] = wrapped
                    self._wrapped.append((element, "in", index, wrapped))
        self.attached = True
        router.supervisor = self
        return self

    def _attach_reference(self):
        """Reference mode: containing boundaries on the task elements'
        plain ports — the same packet-drop points the compiled modes
        get, so supervised behaviour stays mode-identical."""
        for name, element in self.router.elements.items():
            if not element.is_task():
                continue
            for index, port in enumerate(element._output_ports):
                if port.target is None:
                    continue
                key = ("push", name, index)
                guard = _ChainGuard(self, key, [("reference", port.push)])
                self.guards[key] = guard
                wrapped = SupervisedOutputPort(port, guard, True)
                element._output_ports[index] = wrapped
                self._wrapped.append((element, "out", index, wrapped))
            for index, port in enumerate(element._input_ports):
                if port.source is None:
                    continue
                key = ("pull", name, index)
                guard = _ChainGuard(self, key, [("reference", port.pull)])
                self.guards[key] = guard
                wrapped = SupervisedInputPort(port, guard, True)
                element._input_ports[index] = wrapped
                self._wrapped.append((element, "in", index, wrapped))

    def detach(self):
        """Unwrap every supervised port (tolerating ports the mode
        machinery already replaced wholesale)."""
        if not self.attached:
            return
        for element, side, index, wrapped in self._wrapped:
            ports = element._output_ports if side == "out" else element._input_ports
            if 0 <= index < len(ports) and ports[index] is wrapped:
                ports[index] = wrapped.inner
        self._wrapped = []
        self.guards = {}
        self.attached = False
        if getattr(self.router, "supervisor", None) is self:
            self.router.supervisor = None

    # -- recording ---------------------------------------------------------

    def _note_chain_error(self, guard, exc):
        # Per-chain detail lives on the guard; only the total is global.
        self.chain_error_count += 1

    def on_task_error(self, task, exc):
        """A task-level boundary catch (reference backstop, or an error
        that escaped every chain boundary)."""
        self.task_error_count += 1
        if len(self.task_errors) < self.config.max_records:
            self.task_errors.append((task.name, "%s: %s" % (type(exc).__name__, exc)))

    # -- watchdog ----------------------------------------------------------

    def task_benched(self, task):
        """True while the watchdog has this task benched; consumes one
        cooldown pass."""
        state = self._task_states.get(task.name)
        if state is None or state.benched <= 0:
            return False
        state.benched -= 1
        return True

    def note_task(self, task, worked):
        """Progress bookkeeping after one run_task call: a task that
        claims work while its counters stay flat is stuck."""
        state = self._task_states.get(task.name)
        if state is None:
            state = self._task_states[task.name] = _TaskState(task.name)
        progress = tuple(getattr(task, attr, None) for attr in _PROGRESS_ATTRS)
        if worked and progress == state.progress and any(v is not None for v in progress):
            state.stuck += 1
            if state.stuck >= self.config.watchdog_limit:
                state.stuck = 0
                state.benched = self.config.watchdog_cooldown
                state.watchdog_trips += 1
                if len(self.watchdog_events) < self.config.max_records:
                    self.watchdog_events.append(
                        {
                            "task": task.name,
                            "after_passes": self.config.watchdog_limit,
                            "benched_for": self.config.watchdog_cooldown,
                        }
                    )
        else:
            state.stuck = 0
        state.progress = progress

    # -- observability -----------------------------------------------------

    def report(self):
        return ResilienceReport(self)


def _dynamic_push(port):
    """The top-tier callable: read the port's live ``push`` slot every
    call, so the adaptive engine's dispatcher installs, promotions, and
    deopts all stay in effect under the boundary."""

    def push(packet, _port=port):
        _port.push(packet)

    return push


def _dynamic_pull(port):
    def pull(_port=port):
        return _port.pull()

    return pull


class ResilienceReport:
    """JSON-safe snapshot of supervised execution: per-chain tiers,
    demotions, breaker states, watchdog and task-error history, plus
    the fault injector's counters when one is attached."""

    def __init__(self, supervisor):
        router = supervisor.router
        self.mode = router.mode
        self.config = supervisor.config.as_dict()
        self.chains = {}
        open_breakers = demotions = repromotions = 0
        for key, guard in sorted(supervisor.guards.items()):
            label = "%s %s[%d]" % key
            self.chains[label] = {
                "tier": guard.tier,
                "level": guard.level,
                "tiers": [name for name, _fn in guard.tiers],
                "errors": guard.errors,
                "demotions": guard.demotions,
                "repromotions": guard.repromotions,
                "breaker": guard.breaker,
                "backoff_need": guard.need,
                "last_error": guard.last_error,
            }
            demotions += guard.demotions
            repromotions += guard.repromotions
            open_breakers += guard.breaker == "open"
        self.totals = {
            "chains": len(self.chains),
            "chain_errors": supervisor.chain_error_count,
            "demotions": demotions,
            "repromotions": repromotions,
            "open_breakers": open_breakers,
            "task_errors": supervisor.task_error_count,
            "watchdog_trips": sum(
                state.watchdog_trips for state in supervisor._task_states.values()
            ),
        }
        self.task_errors = list(supervisor.task_errors)
        self.watchdog_events = list(supervisor.watchdog_events)
        injector = getattr(router, "fault_injector", None)
        self.faults = injector.fault_counts() if injector is not None else None

    def as_dict(self):
        """JSON-safe summary with deterministic ordering — keys sorted,
        chains in sorted-label order — so chaos/CI artifacts diff
        cleanly (the PR 8 codegen-cache report convention)."""
        data = {
            "chains": {
                label: {
                    key: self.chains[label][key] for key in sorted(self.chains[label])
                }
                for label in sorted(self.chains)
            },
            "config": {key: self.config[key] for key in sorted(self.config)},
            "faults": self.faults,
            "mode": self.mode,
            "task_errors": [list(item) for item in self.task_errors],
            "totals": {key: self.totals[key] for key in sorted(self.totals)},
            "watchdog_events": self.watchdog_events,
        }
        return {key: data[key] for key in sorted(data)}

    def to_json(self):
        return json.dumps(self.as_dict(), indent=2, sort_keys=True, default=str)

    def format(self):
        totals = self.totals
        lines = [
            "supervisor: %(chains)d chain(s), %(chain_errors)d chain error(s), "
            "%(demotions)d demotion(s), %(repromotions)d re-promotion(s), "
            "%(open_breakers)d open breaker(s)" % totals,
            "  task errors: %(task_errors)d, watchdog trips: %(watchdog_trips)d" % totals,
        ]
        for label, info in self.chains.items():
            if not info["errors"] and not info["level"]:
                continue
            lines.append(
                "  %-40s tier %s (%s), %d error(s), last: %s"
                % (label, info["tier"], info["breaker"], info["errors"], info["last_error"])
            )
        if self.faults is not None:
            lines.append(
                "  injected: %d cache invalidation(s), %d cache corruption(s)"
                % (self.faults["cache_invalidations"], self.faults["cache_corruptions"])
            )
            for name, info in self.faults["elements"].items():
                lines.append(
                    "  fault %-32s %d call(s), %d error(s) fired"
                    % (name, info["calls"], info["errors_fired"])
                )
        return "\n".join(lines)
