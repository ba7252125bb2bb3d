"""Tests for supervised execution: the scheduler's error boundary,
tiered demotion, the circuit breaker with exponential re-promotion
backoff, and the task watchdog (repro.runtime.supervisor)."""

import json
from dataclasses import replace

import pytest

from repro.elements import Router, hotswap_router
from repro.elements.devices import LoopbackDevice
from repro.elements.element import Element
from repro.lang.build import parse_graph
from repro.runtime import ExecutionProfile
from repro.runtime.supervisor import SupervisorConfig
from repro.sim.faults import FaultInjector, FaultPlan

PIPE = (
    "src :: PollDevice(eth0); c :: Counter; q :: Queue(8); "
    "dst :: ToDevice(eth1); src -> c -> q -> dst;"
)


def loopbacks():
    return {"eth0": LoopbackDevice("eth0"), "eth1": LoopbackDevice("eth1", tx_capacity=1 << 20)}


def build(mode="fast", batch=False, faults=None, config=None):
    """A supervised two-device pipeline, optionally with element faults
    wired in (prepared before compile, as the chaos harness does)."""
    devices = loopbacks()
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


class Boom(Element):
    """Raises on its third packet (no fault wrapper, so the compiled
    task units run)."""

    class_name = "Boom"
    processing = "a/a"
    port_counts = "1/1"

    def configure(self, args):
        self.seen = 0

    def simple_action(self, packet):
        self.seen += 1
        if self.seen == 3:
            raise RuntimeError("third packet")
        return packet


def build_boom(profile, text=PIPE.replace("c :: Counter", "c :: Boom")):
    devices = loopbacks()
    router = Router(parse_graph(text), extra_classes={"Boom": Boom}, devices=devices, profile=profile)
    return router, devices


SUPERVISED_PROFILES = [ExecutionProfile.reference().with_supervision()] + [
    profile(batch=batch).with_supervision()
    for profile in (ExecutionProfile.fast, ExecutionProfile.tiered, ExecutionProfile.fdd)
    for batch in (False, True)
]


class TestBoundaries:
    def test_fast_demotes_and_drops_only_faulted_packet(self):
        router, devices, supervisor = build(
            mode="fast",
            faults=[{"kind": "element_error", "element": "c", "after": 1, "count": 1}],
        )
        feed(devices, 3)
        router.run_tasks(4)
        guard = supervisor.guards["src"]
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
        guard = supervisor.guards["src"]
        assert list(guard.tiers) == ["adaptive", "fast", "reference"]
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
        router.run_tasks(5)  # one error per pass: each ends its burst
        guard = supervisor.guards["src"]
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
        guard = supervisor.guards["src"]
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
        guard = supervisor.guards["dst"]

        def boom():
            raise RuntimeError("pull boom")

        router["dst"]._input_ports[0].pull = boom  # the compiled entry
        feed(devices, 1)
        router.run_tasks(1)  # the poisoned pull fails; the scheduler contains it
        assert guard.errors == 1
        assert guard.tier == "reference"
        assert "run_task" not in vars(router["dst"])  # the element's own loop
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
        assert supervisor.guards["src"].errors == 1
        assert not router.fastpath.batch

    def test_reference_mode_boundaries_on_task_ports(self):
        router, devices, supervisor = build(
            mode="reference",
            faults=[{"kind": "element_error", "element": "c", "after": 1, "count": 1}],
        )
        assert set(supervisor.guards) == {"src", "dst"}
        feed(devices, 3)
        router.run_tasks(4)
        assert devices["eth1"].transmitted == [b"frame-00", b"frame-02"]
        assert supervisor.guards["src"].errors == 1

    @pytest.mark.parametrize("profile", SUPERVISED_PROFILES, ids=str)
    def test_a_contained_error_costs_one_packet_and_ends_the_burst(self, profile):
        router, devices = build_boom(profile)
        feed(devices, 8)
        router.run_tasks(1)
        # The burst stopped at the packet that raised, which was consumed;
        # the rest stays on the receive ring for the task's next call.
        assert (router["src"].received, len(devices["eth0"].rx)) == (3, 5)
        assert devices["eth1"].transmitted == [b"frame-00", b"frame-01"]
        router.run_tasks(2)
        assert devices["eth1"].transmitted == [b"frame-%02d" % i for i in range(8) if i != 2]
        guard = router.supervisor.guards["src"]
        assert guard.errors == 1 and guard.tier == guard.tiers[min(1, len(guard.tiers) - 1)]


class TestCompileOnFirstEntry:
    @pytest.mark.parametrize("mode, batch", [("fast", False), ("fast", True), ("adaptive", False)])
    def test_guards_hold_the_object_that_becomes_the_chain(self, mode, batch):
        from repro.classifier.compile import is_pending
        from repro.runtime.codegen_cache import default_cache

        default_cache().clear()
        router, devices, supervisor = build(mode=mode, batch=batch)
        key = ("push", "src", 0)
        static = router.fastpath.function_for(key)
        port = router.find("src")._output_ports[0]
        assert is_pending(static)
        if mode == "adaptive":  # beneath the tiering engine's dispatcher
            assert router.adaptive.states[key].plain is static
        else:
            assert port.push is static
        feed(devices, 4)
        router.run_tasks(4)
        assert len(devices["eth1"].transmitted) == 4
        assert router.fastpath.function_for(key) is static and not is_pending(static)
        assert mode == "adaptive" or port.push is static
        assert supervisor.guards["src"].errors == 0

    def test_a_failed_entry_is_not_an_error_of_the_chain(self, monkeypatch):
        from repro.runtime import fastpath as fastpath_module
        from repro.runtime.codegen_cache import default_cache

        def compile_chain(lines, *args):
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
    @pytest.mark.parametrize("profile", SUPERVISED_PROFILES, ids=str)
    def test_no_supervisor_object_among_ports(self, profile):
        """Supervision wraps no port: every port an element holds is the
        interpreter's or the fast path's, whatever the profile."""
        router = Router(parse_graph(PIPE), devices=loopbacks(), profile=profile)
        assert router.supervisor is not None
        ports = [
            port
            for element in router.elements.values()
            for port in element._output_ports + element._input_ports
        ]
        assert ports
        assert not any(type(port).__module__ == "repro.runtime.supervisor" for port in ports)
        assert not any(hasattr(port, "guard") or hasattr(port, "inner") for port in ports)

    @pytest.mark.parametrize("profile", SUPERVISED_PROFILES[1:], ids=str)
    def test_supervised_source_is_the_unbatched_unsupervised_source(self, profile):
        """Nothing is emitted for supervision, and a supervised batch
        profile compiles the scalar task units."""
        supervised = Router(parse_graph(PIPE), devices=loopbacks(), profile=profile)
        plain = Router(
            parse_graph(PIPE),
            devices=loopbacks(),
            profile=replace(profile, batch=False).without_supervision(),
        )
        assert supervised.fastpath.source == plain.fastpath.source

    def test_supervision_survives_mode_change(self):
        router, devices, _supervisor = build(mode="fast")
        router.configure(router.profile.with_mode("reference"))
        assert router.supervisor is not None and router.supervisor.tiers == ("reference",)
        feed(devices, 2)
        router.run_tasks(2)
        assert len(devices["eth1"].transmitted) == 2
        router.configure(router.profile.with_mode("fast"))
        assert router.supervisor is not None
        feed(devices, 2, start=2)
        router.run_tasks(2)
        assert len(devices["eth1"].transmitted) == 4

    def test_a_new_supervisor_starts_every_task_at_the_top_tier(self):
        router, devices = build_boom(ExecutionProfile.fast().with_supervision())
        feed(devices, 4)
        router.run_tasks(1)
        assert router.supervisor.guards["src"].tier == "reference"
        assert "run_task" not in vars(router["src"])  # pinned to the element's loop
        router.configure(router.profile)  # the same engine, a fresh supervisor
        assert router.supervisor.guards["src"].tier == "fast"
        assert router.engine.pins == {} and "run_task" in vars(router["src"])

    def test_metered_router_supervised(self):
        """A supervised metered router charges what the unsupervised one
        does on clean traffic: no boundary sits on a charged call site."""
        from repro.sim.cpu import CycleMeter
        from repro.sim.testbed import Testbed

        summaries = []
        for profile in (ExecutionProfile.fdd(), ExecutionProfile.fdd().with_supervision()):
            testbed, meter = Testbed(2), CycleMeter()
            router, devices = testbed.build_router(testbed.variant_graph("base"), meter=meter, profile=profile)
            for device_name, frame in testbed.evaluation_frames(128):
                devices[device_name].receive_frame(frame)
            router.run_tasks(128)
            assert (router.supervisor is not None) == profile.supervised
            summaries.append((meter.summary(), {name: list(d.transmitted) for name, d in devices.items()}))
        assert summaries[0] == summaries[1] and any(summaries[0][1].values())
        assert router.supervisor.report().totals["chain_errors"] == 0


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
        calls_before = supervisor.guards["stuck"].benched
        assert calls_before == 5
        router.run_tasks(2)
        assert supervisor.guards["stuck"].benched == 3

    def test_progressing_task_never_trips(self):
        router, devices, supervisor = build(mode="fast")
        feed(devices, 8)
        router.run_tasks(16)
        assert supervisor.watchdog_events == []
        assert supervisor.report().totals["watchdog_trips"] == 0

    SINK = " -> boom :: Boom -> q :: Queue(64) -> dst :: ToDevice(eth1);"

    @pytest.mark.parametrize(
        "source",
        [
            'src :: InfiniteSource("payload", 8, 4)',
            'src :: RatedSource("payload", 2000, 8)',
            'src :: TimedSource(0.001, "payload")',
            "rx :: PollDevice(eth0) -> q0 :: Queue(64) -> src :: Unqueue(4)",
        ],
        ids=["infinite", "rated", "timed", "unqueue"],
    )
    def test_task_loops_count_before_they_push(self, source):
        """A contained error costs exactly the packet in flight, which
        the source already counted: every supervised mode leaves the
        same bytes and counters."""
        from repro.verify.oracle import observe

        observed = []
        for mode in ("reference", "fast", "fdd"):
            router, devices = build_boom(ExecutionProfile(mode=mode).with_supervision(), source + self.SINK)
            feed(devices, 8)
            router.run_tasks(8)  # one TimedSource packet a pass
            assert router.supervisor.task_error_count == 1
            observed.append((observe(router, devices), router["boom"].seen))
        assert observed[0] == observed[1] == observed[2]
        observation, seen = observed[0]
        source = router["src"]
        counted = source.count if source.class_name == "Unqueue" else source.emitted
        assert counted == seen == len(observation["transmitted"]["eth1"]) + 1 == 8


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
        label = "task src"
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
    """Regression guard for supervision across hot-swaps: after every
    swap the router is supervised by the same supervisor, with guards
    on the renewed tasks and a live report."""

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
        supervisor = router.supervisor
        sent = 0
        for generation in range(8):
            replaced = router["src"]
            hotswap_router(router, parse_graph(self.GRAPHS[generation % 2]))
            # The same supervisor, bound to the same router.
            assert router.supervisor is supervisor
            assert supervisor.router is router
            # Guards are live on the renewed tasks.
            assert router["src"] is not replaced
            assert supervisor.guards["src"].task is router["src"]
            feed(devices, 2, start=sent)
            sent += 2
            router.run_tasks(3)
            report = router.supervisor.report()
            assert report.totals["chains"] > 0
            assert report.totals["open_breakers"] == 0
        assert len(devices["eth1"].transmitted) == sent
        assert devices["eth1"].transmitted[0] == b"frame-00"
