"""Tests for supervised execution: error boundaries, tiered demotion,
the circuit breaker with exponential re-promotion backoff, and the task
watchdog (repro.runtime.supervisor)."""

import json

import pytest

from repro.elements import Router, hotswap_router
from repro.elements.devices import LoopbackDevice
from repro.lang.build import parse_graph
from repro.runtime import ExecutionProfile
from repro.runtime.fastpath import FastOutputPort
from repro.runtime.supervisor import (
    SupervisedOutputPort,
    Supervisor,
    SupervisorConfig,
    SupervisorError,
)
from repro.sim.faults import FaultInjector, FaultPlan

PIPE = (
    "src :: PollDevice(eth0); c :: Counter; q :: Queue(8); "
    "dst :: ToDevice(eth1); src -> c -> q -> dst;"
)


def build(mode="fast", batch=False, faults=None, config=None):
    """A supervised two-device pipeline, optionally with element faults
    wired in (prepared before compile, as the chaos harness does)."""
    devices = {
        "eth0": LoopbackDevice("eth0"),
        "eth1": LoopbackDevice("eth1", tx_capacity=1 << 20),
    }
    injector = None
    if faults:
        injector = FaultInjector(FaultPlan(faults=faults))
        devices = injector.wrap_devices(devices)
    router = Router(parse_graph(PIPE), devices=devices)
    if injector is not None:
        injector.prepare_router(router)
    router.configure(ExecutionProfile(mode=mode, batch=batch).with_supervision(config))
    return router, devices, router.supervisor


def feed(devices, count, start=0):
    for index in range(start, start + count):
        devices["eth0"].receive_frame(b"frame-%02d" % index)


class TestBoundaries:
    def test_fast_demotes_and_drops_only_faulted_packet(self):
        router, devices, supervisor = build(
            mode="fast",
            faults=[{"kind": "element_error", "element": "c", "after": 1, "count": 1}],
        )
        feed(devices, 3)
        router.run_tasks(4)
        guard = supervisor.guards[("push", "src", 0)]
        assert guard.errors == 1
        assert guard.demotions == 1
        assert guard.tier == "reference"
        assert guard.breaker == "half-open"
        # Exactly the faulted packet dropped; the router kept serving.
        assert [f for f in devices["eth1"].transmitted] == [b"frame-00", b"frame-02"]
        assert "InjectedFault" in guard.last_error

    def test_adaptive_walks_full_tier_stack(self):
        router, devices, supervisor = build(
            mode="adaptive",
            faults=[{"kind": "element_error", "element": "c", "after": 0, "count": 2}],
        )
        guard = supervisor.guards[("push", "src", 0)]
        assert [name for name, _fn in guard.tiers] == ["adaptive", "fast", "reference"]
        feed(devices, 4)
        router.run_tasks(4)
        assert guard.errors == 2
        assert guard.demotions == 2
        assert guard.tier == "reference"
        assert len(devices["eth1"].transmitted) == 2  # packets 3 and 4

    def test_breaker_opens_after_budget(self):
        router, devices, supervisor = build(
            mode="fast",
            faults=[{"kind": "element_error", "element": "c", "after": 0, "count": 100}],
            config=SupervisorConfig(error_budget=2),
        )
        feed(devices, 5)
        router.run_tasks(4)
        guard = supervisor.guards[("push", "src", 0)]
        assert guard.breaker == "open"
        assert guard.errors == 5
        assert devices["eth1"].transmitted == []
        report = supervisor.report()
        assert report.totals["open_breakers"] == 1
        assert report.totals["chain_errors"] == 5

    def test_repromotion_after_clean_streak_with_backoff(self):
        router, devices, supervisor = build(
            mode="fast",
            faults=[{"kind": "element_error", "element": "c", "after": 1, "count": 1}],
            config=SupervisorConfig(backoff=2, backoff_factor=2.0),
        )
        guard = supervisor.guards[("push", "src", 0)]
        feed(devices, 2)
        router.run_tasks(2)
        assert guard.tier == "reference"
        assert guard.need == 4  # backoff stretched 2 -> 4 by the error
        feed(devices, 5, start=2)
        router.run_tasks(4)
        assert guard.repromotions == 1
        assert guard.tier == "fast"
        assert guard.breaker == "closed"
        assert len(devices["eth1"].transmitted) == 6  # only the faulted packet lost

    def test_pull_boundary_demotes_without_losing_packet(self):
        router, devices, supervisor = build(mode="fast")
        guard = supervisor.guards[("pull", "dst", 0)]

        def boom():
            raise RuntimeError("pull boom")

        guard.fn = boom
        feed(devices, 1)
        router.run_tasks(1)  # the poisoned pull fails; boundary contains it
        assert guard.errors == 1
        assert guard.tier == "reference"
        router.run_tasks(2)  # reference tier drains the still-queued packet
        assert devices["eth1"].transmitted == [b"frame-00"]

    def test_batch_mode_scalarized_boundary(self):
        router, devices, supervisor = build(
            mode="fast",
            batch=True,
            faults=[{"kind": "element_error", "element": "c", "after": 2, "count": 1}],
        )
        feed(devices, 6)
        router.run_tasks(4)
        # One error mid-burst costs exactly one packet, never the tail.
        assert len(devices["eth1"].transmitted) == 5
        assert supervisor.guards[("push", "src", 0)].errors == 1

    def test_reference_mode_boundaries_on_task_ports(self):
        router, devices, supervisor = build(
            mode="reference",
            faults=[{"kind": "element_error", "element": "c", "after": 1, "count": 1}],
        )
        assert all(key[1] in ("src", "dst") for key in supervisor.guards)
        feed(devices, 3)
        router.run_tasks(4)
        assert devices["eth1"].transmitted == [b"frame-00", b"frame-02"]
        assert supervisor.guards[("push", "src", 0)].errors == 1


class TestCompileOnFirstEntry:
    @pytest.mark.parametrize("mode, batch", [("fast", False), ("fast", True), ("adaptive", False)])
    def test_guards_hold_the_object_that_becomes_the_chain(self, mode, batch):
        from repro.classifier.compile import is_pending
        from repro.runtime.codegen_cache import default_cache

        default_cache().clear()
        router, devices, supervisor = build(mode=mode, batch=batch)
        key = ("push", "src", 0)
        static = router.fastpath.function_for(key)
        inner = router.find("src")._output_ports[0].inner
        assert is_pending(static)
        if mode == "adaptive":  # pinned beneath the tiering engine's slot
            assert dict(supervisor.guards[key].tiers)["fast"] is static
            assert router.adaptive.states[key].plain is static
        else:
            assert inner.push is static
        feed(devices, 4)
        router.run_tasks(4)
        assert len(devices["eth1"].transmitted) == 4
        assert router.fastpath.function_for(key) is static and not is_pending(static)
        assert mode == "adaptive" or inner.push is static
        assert supervisor.guards[key].errors == 0

    def test_a_failed_entry_is_not_an_error_of_the_chain(self, monkeypatch):
        from repro.runtime import fastpath as fastpath_module
        from repro.runtime.codegen_cache import default_cache

        def compile_chain(lines, offset, *args):
            raise SyntaxError("injected emitter bug")

        monkeypatch.setattr(fastpath_module, "compile_chain", compile_chain)
        default_cache().clear()
        router, devices, supervisor = build(mode="fast")
        feed(devices, 4)
        router.run_tasks(4)
        assert [bytes(f) for f in devices["eth1"].transmitted] == [b"frame-%02d" % i for i in range(4)]
        # (the reference port of src[0] enters c, whose own port is compiled)
        assert set(router.fastpath.report.failed_entries) == {
            "push src[0]", "push c[0]", "pull dst[0]", "task src[0]", "task dst[0]"
        }
        assert all(guard.errors == 0 and guard.level == 0 for guard in supervisor.guards.values())


class TestLifecycle:
    def test_attach_detach_restores_ports(self):
        router, devices, _supervisor = build(mode="fast")
        assert isinstance(router["src"]._output_ports[0], SupervisedOutputPort)
        router.detach_supervisor()
        assert isinstance(router["src"]._output_ports[0], FastOutputPort)
        assert router.supervisor is None
        feed(devices, 2)
        router.run_tasks(2)
        assert len(devices["eth1"].transmitted) == 2

    def test_supervision_survives_mode_change(self):
        router, devices, _supervisor = build(mode="fast")
        router.configure(router.profile.with_mode("reference"))
        assert router.supervisor is not None and router.supervisor.attached
        feed(devices, 2)
        router.run_tasks(2)
        assert len(devices["eth1"].transmitted) == 2
        router.configure(router.profile.with_mode("fast"))
        assert router.supervisor is not None
        feed(devices, 2, start=2)
        router.run_tasks(2)
        assert len(devices["eth1"].transmitted) == 4

    def test_double_attach_refused(self):
        router, _devices, _supervisor = build(mode="fast")
        with pytest.raises(SupervisorError):
            router.supervisor.attach()

    def test_metered_router_refused(self):
        router = Router(parse_graph("f :: Idle; d :: Discard; f -> d;"))
        router.meter = object()
        with pytest.raises(SupervisorError):
            Supervisor(router)


class TestTasks:
    def test_task_backstop_keeps_router_alive(self):
        router, devices, supervisor = build(mode="reference")

        def explode():
            raise RuntimeError("driver bug")

        router["src"].run_task = explode
        feed(devices, 2)
        router.run_tasks(3)  # must not raise
        assert supervisor.task_error_count == 3
        assert supervisor.task_errors[0][0] == "src"
        assert "driver bug" in supervisor.task_errors[0][1]

    def test_watchdog_benches_stuck_task(self):
        router, _devices, supervisor = build(
            mode="reference",
            config=SupervisorConfig(watchdog_limit=3, watchdog_cooldown=5),
        )

        class StuckTask:
            name = "stuck"
            count = 0  # progress counter that never moves

            def run_task(self):
                return True  # claims work forever

        stuck = StuckTask()
        router._tasks.append(stuck)
        router.run_tasks(4)  # trips on the 4th pass (3 flat repeats)
        assert supervisor.watchdog_events
        event = supervisor.watchdog_events[0]
        assert event["task"] == "stuck"
        assert supervisor.report().totals["watchdog_trips"] >= 1
        # Benched: the cooldown passes skip the task entirely.
        calls_before = supervisor._task_states["stuck"].benched
        assert calls_before == 5
        router.run_tasks(2)
        assert supervisor._task_states["stuck"].benched == 3

    def test_progressing_task_never_trips(self):
        router, devices, supervisor = build(mode="fast")
        feed(devices, 8)
        router.run_tasks(16)
        assert supervisor.watchdog_events == []
        assert supervisor.report().totals["watchdog_trips"] == 0


class TestReport:
    def test_report_shape_and_json(self):
        router, devices, supervisor = build(
            mode="fast",
            faults=[{"kind": "element_error", "element": "c", "after": 0, "count": 1}],
        )
        feed(devices, 2)
        router.run_tasks(2)
        report = supervisor.report()
        payload = report.as_dict()
        assert set(payload) == {
            "mode",
            "config",
            "chains",
            "totals",
            "task_errors",
            "watchdog_events",
            "faults",
        }
        assert payload["mode"] == "fast"
        assert payload["faults"]["elements"]["c"]["errors_fired"] == 1
        label = "push src[0]"
        assert payload["chains"][label]["errors"] == 1
        parsed = json.loads(report.to_json())
        assert parsed["totals"]["chain_errors"] == 1
        text = report.format()
        assert "supervisor:" in text and label in text

    def test_router_constructor_supervised_profile(self):
        devices = {
            "eth0": LoopbackDevice("eth0"),
            "eth1": LoopbackDevice("eth1", tx_capacity=1 << 20),
        }
        router = Router(
            parse_graph(PIPE),
            devices=devices,
            profile=ExecutionProfile.fast().with_supervision(),
        )
        assert router.supervisor is not None
        assert router.supervisor.report().totals["chains"] > 0


class TestSwapStorm:
    """Regression guard for supervisor round-trips across hot-swap
    generations: every generation must come up supervised, with working
    guards and a live report, and the retired generation must be fully
    detached."""

    GRAPHS = (PIPE, PIPE.replace("Queue(8)", "Queue(16)"))

    def test_supervisor_survives_a_swap_storm(self):
        devices = {
            "eth0": LoopbackDevice("eth0"),
            "eth1": LoopbackDevice("eth1", tx_capacity=1 << 20),
        }
        router = Router(
            parse_graph(PIPE),
            devices=devices,
            profile=ExecutionProfile.fast().with_supervision(),
        )
        config = router.supervisor.config
        sent = 0
        for generation in range(8):
            previous = router
            router = hotswap_router(
                previous, parse_graph(self.GRAPHS[generation % 2])
            ).router
            # The new generation is supervised with the same config; the
            # retired one is fully detached.
            assert router.supervisor is not None and router.supervisor.attached
            assert router.supervisor.config is config
            assert router.supervisor.router is router
            assert previous.supervisor is None
            # Guards are live on the *new* generation's ports.
            assert router.supervisor.guards
            assert isinstance(router["src"]._output_ports[0], SupervisedOutputPort)
            feed(devices, 2, start=sent)
            sent += 2
            router.run_tasks(3)
            report = router.supervisor.report()
            assert report.totals["chains"] > 0
            assert report.totals["open_breakers"] == 0
        assert len(devices["eth1"].transmitted) == sent
        assert devices["eth1"].transmitted[0] == b"frame-00"
