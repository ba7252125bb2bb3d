"""Supervised execution: one error boundary, tiered degradation, and a
watchdog, all kept at the scheduler.

The fast path (PR 2) and the adaptive engine (PR 3) trade the reference
interpreter's per-hop isolation for speed: one exception inside a
compiled chain would otherwise unwind through the driver loop and kill
the whole router.  Every packet a router moves is moved by some task's
``run_task``, so that call is where supervision restores isolation:

- **One boundary.**  Under supervision :meth:`Router.run_tasks
  <repro.elements.runtime.Router.run_tasks>` wraps each
  ``task.run_task()`` in a ``try/except``; nothing wraps a port.  Every
  task loop — the element's own and the compiled task unit alike —
  counts a packet before it hands the packet on, so a contained error
  costs the packet in flight and ends that task's burst, and the rest of
  the burst stays on its ring or queue for the task's next call.  The
  error unwinds from where it was raised to the task in every mode, so
  mid-handler side effects (a Tee's remaining outputs, an ARP querier's
  post-push bookkeeping) abort alike and supervised modes stay
  byte-identical to one another.  A ``batch`` profile compiles its
  scalar units while supervised: a batch unit pops its whole burst
  before the chain runs, so an error would cost the burst's tail.
- **One guard per task**, charged with whatever its ``run_task``
  raised.  An error demotes the task one tier down its engine's stack,
  ``fdd``/``adaptive`` → ``fast`` → ``reference`` (``fast`` →
  ``reference`` under ``fast``), through
  :meth:`~repro.runtime.adaptive.AdaptiveEngine.pin`; the reference
  interpreter is its own floor.  Once a task burns its
  ``error_budget`` the breaker opens and the task drops straight to the
  floor.  Re-promotion is earned: ``backoff`` clean packets, read off
  the task's progress counter, climb one tier, and each error multiplies
  the streak needed by ``backoff_factor`` (capped at ``backoff_limit``).
- **A watchdog**: a task that keeps claiming work (``run_task() ->
  True``) while its progress counter stays flat for ``watchdog_limit``
  consecutive passes is recorded and benched for ``watchdog_cooldown``
  passes.

Nothing is attached to the router's ports, so there is nothing to
detach: ``Router.configure`` builds a fresh supervisor for a supervised
profile, a rules patch leaves every pin standing (it swaps the new code
under the functions a pin holds), and a hot-swap or a structural update
keeps the supervisor, guards the renewed tasks afresh and pins the
others again (:meth:`Supervisor.rebind`).  A metered
router may be supervised: no boundary sits on a call site the meter
charges.
"""

from __future__ import annotations

import json

__all__ = ["ResilienceReport", "Supervisor", "SupervisorConfig"]


class SupervisorConfig:
    """Tuning knobs for the breaker, backoff, and watchdog."""

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


#: Counters a task loop advances once per packet it moves; the first a
#: task has is its progress counter.
_PROGRESS_ATTRS = ("received", "sent", "count", "emitted", "carried")


class _TaskGuard:
    """One task's supervision state: its tier on the engine's stack,
    breaker accounting, the re-promotion backoff, and the watchdog."""

    __slots__ = (
        "supervisor",
        "task",
        "tiers",
        "counter",
        "level",
        "errors",
        "demotions",
        "repromotions",
        "clean",
        "need",
        "last_error",
        "progress",
        "stuck",
        "benched",
        "watchdog_trips",
    )

    def __init__(self, supervisor, task, tiers):
        self.supervisor = supervisor
        self.task = task
        self.tiers = tiers  # tier names, best first
        self.counter = next((attr for attr in _PROGRESS_ATTRS if hasattr(task, attr)), None)
        self.level = 0
        self.errors = self.demotions = self.repromotions = self.clean = 0
        self.need = supervisor.config.backoff
        self.last_error = None
        self.progress = None
        self.stuck = self.benched = self.watchdog_trips = 0

    @property
    def tier(self):
        return self.tiers[self.level]

    @property
    def breaker(self):
        """``closed`` while healthy at the top tier, ``half-open`` while
        degraded but still probing upward, ``open`` once the error
        budget is gone and the task sits on the floor tier."""
        if self.errors >= self.supervisor.config.error_budget and self.level == len(self.tiers) - 1:
            return "open"
        if self.level:
            return "half-open"
        return "closed"

    def fail(self, exc):
        """Charge one contained error: demote one tier (to the floor
        once the budget is spent) and stretch the backoff."""
        config = self.supervisor.config
        self.errors += 1
        self.clean = 0
        self.last_error = "%s: %s" % (type(exc).__name__, exc)
        self.supervisor.note_error(self.task, self.last_error)
        floor = len(self.tiers) - 1
        if self.level < floor:
            self._pin(floor if self.errors >= config.error_budget else self.level + 1)
            self.demotions += 1
        self.need = min(int(self.need * config.backoff_factor), config.backoff_limit)
        if self.counter is not None:
            # What the failed pass moved is no part of a clean streak.
            self.progress = getattr(self.task, self.counter)

    def note(self, worked):
        """Bookkeeping after a clean ``run_task``, off the progress
        counter: the watchdog's flat-pass count, and the clean streak
        that earns one tier back."""
        if self.counter is None:
            return
        last = self.progress
        self.progress = progress = getattr(self.task, self.counter)
        if progress == last:
            self.stuck = self.stuck + 1 if worked else 0
            if self.stuck >= self.supervisor.config.watchdog_limit:
                self._bench()
            return
        self.stuck = 0
        if self.level and last is not None:
            self.clean += progress - last
            if self.clean >= self.need:
                self.clean = 0
                self.repromotions += 1
                self._pin(self.level - 1)

    def _pin(self, level):
        self.level = level
        engine = self.supervisor.router.engine
        if engine is not None:
            engine.pin(self.task, level)

    def _bench(self):
        config = self.supervisor.config
        self.stuck = 0
        self.benched = config.watchdog_cooldown
        self.watchdog_trips += 1
        events = self.supervisor.watchdog_events
        if len(events) < config.max_records:
            events.append(
                {
                    "task": self.task.name,
                    "after_passes": config.watchdog_limit,
                    "benched_for": config.watchdog_cooldown,
                }
            )


class Supervisor:
    """The books of one supervised router: a guard per task (keyed by
    task name), the bounded error log, and the watchdog's events.  The
    boundary itself is the supervised scheduler loop
    (``Router.run_tasks``); ``Router.configure`` builds one of these per
    supervised profile."""

    def __init__(self, router, config=None):
        self.router = router
        self.config = config if config is not None else SupervisorConfig()
        engine = router.engine
        self.tiers = engine.tiers if engine is not None else ("reference",)
        self.guards = {}
        self.task_errors = []  # bounded [(task name, error text)]
        self.task_error_count = 0
        self.watchdog_events = []  # bounded [event dict]
        for task in router.tasks:
            self.guard(task)

    def guard(self, task):
        """``task``'s guard, made on first sight."""
        guard = self.guards.get(task.name)
        if guard is None:
            guard = self.guards[task.name] = _TaskGuard(self, task, self.tiers)
        return guard

    def rebind(self):
        """After an install in place: a guard whose task is gone or
        replaced goes, every other one pins its task again (the engine's
        pins went with its ports), and a new task gets a guard.  The
        error totals stand."""
        engine = self.router.engine
        for name, guard in list(self.guards.items()):
            if self.router.elements.get(name) is not guard.task:
                del self.guards[name]
            elif guard.level and engine is not None:
                engine.pin(guard.task, guard.level)
        for task in self.router.tasks:
            self.guard(task)

    def note_error(self, task, text):
        self.task_error_count += 1
        if len(self.task_errors) < self.config.max_records:
            self.task_errors.append((task.name, text))

    def report(self):
        return ResilienceReport(self)


class ResilienceReport:
    """JSON-safe snapshot of supervised execution: per-task tiers,
    demotions, breaker states, the error log and watchdog history, plus
    the fault injector's counters when one is attached."""

    def __init__(self, supervisor):
        router = supervisor.router
        self.mode = router.mode
        self.config = supervisor.config.as_dict()
        self.chains = {}
        open_breakers = demotions = repromotions = watchdog_trips = 0
        for name, guard in sorted(supervisor.guards.items()):
            self.chains["task %s" % name] = {
                "tier": guard.tier,
                "level": guard.level,
                "tiers": list(guard.tiers),
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
            watchdog_trips += guard.watchdog_trips
        self.totals = {
            "chains": len(self.chains),
            "chain_errors": supervisor.task_error_count,
            "demotions": demotions,
            "repromotions": repromotions,
            "open_breakers": open_breakers,
            "watchdog_trips": watchdog_trips,
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
            "supervisor: %(chains)d task(s), %(chain_errors)d contained error(s), "
            "%(demotions)d demotion(s), %(repromotions)d re-promotion(s), "
            "%(open_breakers)d open breaker(s)" % totals,
            "  watchdog trips: %(watchdog_trips)d" % totals,
        ]
        for label, info in self.chains.items():
            if not info["errors"] and not info["level"]:
                continue
            lines.append(
                "  %-40s tier %s (%s), %d error(s), last: %s"
                % (label, info["tier"], info["breaker"], info["errors"], info["last_error"])
            )
        if self.faults is not None:
            lines.append("  injected over %d fault tick(s)" % self.faults["ticks"])
            for name, info in self.faults["elements"].items():
                lines.append(
                    "  fault %-32s %d call(s), %d error(s) fired"
                    % (name, info["calls"], info["errors_fired"])
                )
        return "\n".join(lines)
