"""Self-healing shard plane equivalence: scripted outages (worker
kills, hangs, poison-frame crash loops, mid-commit deaths) must heal
with zero operator intervention, and the healed plane's wire output
must satisfy the degraded contract against a healthy single-plane
reference (no loss, no duplication, strict per-flow order except for
re-homed flows)."""

import os
import time

import multiprocessing

import pytest

from repro.core.toolchain import save_config
from repro.elements.devices import LoopbackDevice
from repro.elements.runtime import build_router
from repro.runtime import ExecutionProfile, RecoveryConfig, RecoveryError
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.testbed import HOST_ETHERS, Testbed, host_ip
from repro.verify.chaos import _affected_predicate, compare_recovery
from repro.verify.genconfig import stock_cases
from repro.verify.oracle import degraded_transmit_difference


def stock(name, events=48):
    cases = {case["name"]: case for case in stock_cases(events_count=events)}
    return cases[name]


def recovery_testbed(workers=4, backend="thread", policy="buffer", **knobs):
    """A live self-healing iprouter plane over the deterministic
    testbed, plus its devices and the testbed itself."""
    knobs.setdefault("jitter", 0)
    knobs.setdefault("watchdog_timeout", 0.5)
    knobs.setdefault("heartbeat_timeout", 2.0)
    knobs.setdefault("prepare_timeout", 2.0)
    testbed = Testbed(2)
    graph = testbed.variant_graph("base")
    devices = {
        interface.device: LoopbackDevice(interface.device, tx_capacity=1 << 30)
        for interface in testbed.interfaces
    }
    profile = (
        ExecutionProfile.fast(batch=True)
        .with_workers(workers, backend)
        .with_recovery(config=RecoveryConfig(policy=policy, **knobs))
    )
    router = build_router(graph, devices=devices, profile=profile)
    for index in range(2):
        router.find("arpq%d" % index).insert(host_ip(index), HOST_ETHERS[index])
    return testbed, router, devices


def drive(testbed, router, devices, packets, offset=0):
    frames = testbed.evaluation_frames(packets + offset)[offset:]
    for name, frame in frames:
        devices[name].receive_frame(frame)
    router.run_tasks(packets // 8 + 16)


def transmitted_hex(devices):
    return {
        name: [bytes(f).hex() for f in device.transmitted]
        for name, device in sorted(devices.items())
    }


def reference_transmit(frames, skip=(), iterations=None):
    """What a healthy single-plane router transmits for ``frames`` (the
    degraded contract's left-hand side).  ``skip`` drops frames (by
    bytes) that the degraded plane legitimately never forwards — armed
    poison frames quarantine strips."""
    testbed = Testbed(2)
    graph = testbed.variant_graph("base")
    devices = {
        interface.device: LoopbackDevice(interface.device, tx_capacity=1 << 30)
        for interface in testbed.interfaces
    }
    router = build_router(
        graph, devices=devices, profile=ExecutionProfile.fast(batch=True)
    )
    for index in range(2):
        router.find("arpq%d" % index).insert(host_ip(index), HOST_ETHERS[index])
    skip = {bytes(frame) for frame in skip}
    for name, frame in frames:
        if bytes(frame) in skip:
            continue
        devices[name].receive_frame(frame)
    router.run_tasks(iterations if iterations is not None else len(frames) // 8 + 16)
    return transmitted_hex(devices)


class TestScenarioHarness:
    """The click-chaos --recovery scenarios, as the CI smoke job runs
    them: heal with the degraded contract held.  One coordinator serves
    both transports, so the matrix runs on threads (no process start-up) and
    the quarantine scenario — the longest walk through restart,
    escalation and attribution — on both."""

    @pytest.mark.parametrize("kind", ["crash-storm", "hang", "crash-loop"])
    def test_scenarios_heal_under_resteer(self, kind):
        case = stock("iprouter-mtu1500")
        result = compare_recovery(case, kind, policy="resteer", backend="thread", seed=3)
        assert result["status"] == "ok", result["failures"]

    def test_crash_storm_heals_under_buffer(self):
        case = stock("firewall")
        result = compare_recovery(
            case, "crash-storm", policy="buffer", backend="thread", seed=5
        )
        assert result["status"] == "ok", result["failures"]
        # Three kills, one of them between stage and commit; each is
        # detected and healed (TestMidCommitDeath pins the commit one).
        assert result["checks"]["detections"] >= 3
        assert result["checks"]["restarts"] == result["checks"]["detections"]

    def test_crash_loop_quarantines(self):
        case = stock("iprouter-mtu1500")
        for backend in ("thread", "process"):
            result = compare_recovery(
                case, "crash-loop", policy="buffer", backend=backend, seed=3
            )
            assert result["status"] == "ok", (backend, result["failures"])
            assert result["checks"]["quarantined"] == 1, backend
            [record] = result["report"]["recovery"]["quarantined"]
            assert record["kills"] >= 2 and record["frame_hex"], backend

    def test_rejects_fail_fast(self):
        with pytest.raises(ValueError, match="non-fatal"):
            compare_recovery(stock("firewall"), "hang", policy="fail-fast")


class TestKillAndHeal:
    """Detection and restart through the one health seam (send refused,
    reply deadline passed, worker not alive), on both transports: this
    class hosts the workers on threads, the subclass below in forked
    processes."""

    plane = {"backend": "thread"}
    hang_deadline = {"watchdog_timeout": 0.25}
    #: A killed thread refuses the very next command; a killed process
    #: may still take a few into its pipe before the kernel reaps it.
    kill_refuses_next_post = True
    #: The workers the first test kills in turn under live traffic.
    kills = (1, 2, 3)

    @staticmethod
    def assert_healed(report, kills=1):
        assert report.detections == report.restarts == kills
        # Detection latency end to end: on a live plane every kill is
        # noticed at a health seam within two scheduler runs.
        assert max(report.detection_latency_runs) <= 2

    def test_kill_is_detected_restarted_and_lossless(self):
        testbed, router, devices = recovery_testbed(policy="buffer", **self.plane)
        try:
            drive(testbed, router, devices, 64)
            for nth, worker in enumerate(self.kills, 1):
                router.kill_worker(worker)
                drive(testbed, router, devices, 64, offset=64 * nth)
            router.run_tasks(8)
            self.assert_healed(router._recovery.report(), len(self.kills))
            reference = reference_transmit(
                testbed.evaluation_frames(64 * (len(self.kills) + 1))
            )
            diff = degraded_transmit_difference(
                reference, transmitted_hex(devices), affected=None
            )
            assert diff is None, diff
        finally:
            router.close()

    def test_kill_between_rounds_of_one_window_is_lossless(self):
        """A worker killed while the coordinator streams a window: what
        was posted is in the journal and replays, the rounds not yet
        hashed re-route through the policy (buffered, then delivered in
        order to the restarted shard) — nothing lost, per-flow order
        kept."""
        testbed, router, devices = recovery_testbed(policy="buffer", **self.plane)
        router.chunk_frames = chunk = 16
        try:
            drive(testbed, router, devices, 64)
            device = devices["eth0"]  # drained first
            dequeue, served = device.rx_dequeue, []

            def dequeue_and_kill():
                served.append(None)
                if len(served) == chunk + 2:  # the second round is being hashed
                    router.kill_worker(1)
                return dequeue()

            device.rx_dequeue = dequeue_and_kill
            drive(testbed, router, devices, 192, offset=64)
            router.run_tasks(8)
            report = router._recovery.report()
            self.assert_healed(report)
            if self.kill_refuses_next_post:
                assert report.frames_buffered > 0 and report.buffer_drops == 0
            reference = reference_transmit(testbed.evaluation_frames(256))
            diff = degraded_transmit_difference(
                reference, transmitted_hex(devices), affected=None
            )
            assert diff is None, diff
        finally:
            router.close()

    def test_hang_is_caught_by_watchdog(self):
        testbed, router, devices = recovery_testbed(
            policy="buffer", **{**self.plane, **self.hang_deadline}
        )
        try:
            drive(testbed, router, devices, 64)
            router.hang_worker(2, seconds=5.0)
            drive(testbed, router, devices, 64, offset=64)
            router.run_tasks(8)
            self.assert_healed(router._recovery.report())
            reference = reference_transmit(testbed.evaluation_frames(128))
            diff = degraded_transmit_difference(
                reference, transmitted_hex(devices), affected=None
            )
            assert diff is None, diff
        finally:
            router.close()

    def test_worker_faults_require_recovery_policy(self):
        testbed = Testbed(2)
        devices = {
            interface.device: LoopbackDevice(interface.device, tx_capacity=1 << 30)
            for interface in testbed.interfaces
        }
        router = build_router(
            testbed.variant_graph("base"),
            devices=devices,
            profile=ExecutionProfile.fast(batch=True).with_workers(2),
        )
        try:
            with pytest.raises(RecoveryError, match="recovery policy"):
                router.kill_worker(0)
            with pytest.raises(RecoveryError, match="recovery policy"):
                router.hang_worker(0)
        finally:
            router.close()


class TestKillAndHealOverProcess(TestKillAndHeal):
    # Two workers, not four, and generous deadlines wherever the test
    # does not wait one out.
    plane = {
        "backend": "process",
        "workers": 2,
        "heartbeat_timeout": 30.0,
        "prepare_timeout": 30.0,
    }
    hang_deadline = {"heartbeat_timeout": 2.0}
    kill_refuses_next_post = False
    kills = (1,)
    test_worker_faults_require_recovery_policy = None  # starts no worker

    @staticmethod
    def assert_healed(report, kills=1):
        # Starting a process is asynchronous: on a loaded machine a
        # slow (re)start can trip a reply deadline into a spurious
        # (healed, but count-inflating) extra episode.
        assert report.restarts == report.detections >= 1


class TestDegradedResteer:
    def _bench_one_shard(self, policy):
        """Arm a poison frame under a one-attempt restart budget: its
        home shard crash-loops once and is benched, leaving a plane
        that is permanently degraded — the sustained re-steer state."""
        testbed, router, devices = recovery_testbed(
            policy=policy, restart_budget=1, quarantine_limit=5
        )
        frames = testbed.evaluation_frames(128)
        poison_name, poison_frame = frames[0]
        router.arm_poison(poison_frame)
        devices[poison_name].receive_frame(poison_frame)
        router.run_tasks(4)  # the home shard dies on the poison frame
        router.run_tasks(4)  # restart attempt replays, dies, budget -> bench
        report = router._recovery.report()
        assert len(report.benched) == 1, report.as_dict()
        return testbed, router, devices, frames, poison_frame

    @pytest.mark.parametrize("policy", ["resteer", "buffer"])
    def test_benched_shard_resteers_with_contract_held(self, policy):
        testbed, router, devices, frames, poison = self._bench_one_shard(policy)
        try:
            for name, frame in frames[1:]:
                devices[name].receive_frame(frame)
            router.run_tasks(32)
            manager = router._recovery
            assert manager.frames_resteered > 0
            assert manager.affected_flows
            reference = reference_transmit(frames, skip=[poison])
            diff = degraded_transmit_difference(
                reference,
                transmitted_hex(devices),
                affected=_affected_predicate(manager.affected_flows),
            )
            assert diff is None, diff
            # The re-homed flows really are held to the weaker bar:
            # without the predicate the strict check must reject them
            # or the outage never moved anything worth testing.
            report = manager.report()
            assert report.frames_resteered == manager.frames_resteered
        finally:
            router.close()

    def test_fail_fast_policy_raises_while_down(self):
        testbed, router, devices = recovery_testbed(
            policy="fail-fast", restart_budget=2, backoff_base=8, backoff_limit=8
        )
        try:
            frames = testbed.evaluation_frames(128)
            poison_name, poison_frame = frames[0]
            home = router.hasher(poison_frame)
            router.arm_poison(poison_frame)
            devices[poison_name].receive_frame(poison_frame)
            router.run_tasks(4)  # dies; first restart replays and dies again
            follow_up = next(
                (name, frame)
                for name, frame in frames[1:]
                if router.hasher(frame) == home
            )
            devices[follow_up[0]].receive_frame(follow_up[1])
            with pytest.raises(RecoveryError, match="fail-fast"):
                router.run_tasks(4)
        finally:
            router.close()


class TestMidCommitDeath:
    ROUTES = "1.0.0.1/32 0, 2.0.0.1/32 0, 2.0.0.0/8 2, 1.0.0.0/8 1"

    def _updated_text(self, router):
        text = save_config(router.graph)
        return text.replace(router.graph.elements["rt"].config, self.ROUTES)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_mid_commit_kill_heals(self, backend):
        """A worker killed between "every shard staged" and "first
        shard committed": the confirmed survivors roll back, the dead
        shard is force-restarted, and the update is retried once across
        the whole plane — healed, lossless, and reported in-place."""
        testbed, router, devices = recovery_testbed(
            workers=2, backend=backend, policy="buffer"
        )
        try:
            drive(testbed, router, devices, 64)
            plan = FaultPlan(
                faults=[{"kind": "worker_kill", "at": 1, "phase": "commit", "worker": 0}]
            )
            injector = FaultInjector(plan)
            injector.prepare_router(router)
            report = router.apply_update(self._updated_text(router))
            assert report.kind == "in-place"
            assert injector.worker_kills == 1
            drive(testbed, router, devices, 64, offset=64)
            router.run_tasks(8)
            recovery = router._recovery.report()
            # The force-restart retry inside apply_update and the
            # liveness sweep can each notice the same death, so counts
            # are >= 1, not == 1; the contract is healed and lossless.
            assert recovery.detections >= 1
            assert recovery.restarts >= 1
            assert router._recovery.down_indices() == []
            total = sum(len(d.transmitted) for d in devices.values())
            assert total == 128
        finally:
            router.close()

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_mid_commit_rollback_restores_the_last_commit(self, backend):
        """The second of two in-place updates loses a worker mid-commit:
        the survivors roll back to the first update's routes (the last
        commit), not the routes the plane was born with, before the
        retry installs the second everywhere."""
        testbed, router, devices = recovery_testbed(
            workers=2, backend=backend, policy="buffer"
        )
        try:
            drive(testbed, router, devices, 64)
            first = self._updated_text(router)
            assert router.apply_update(first).kind == "in-place"
            second_routes = self.ROUTES + ", 3.0.0.0/8 2"
            second = first.replace(self.ROUTES, second_routes)
            plan = FaultPlan(
                faults=[{"kind": "worker_kill", "at": 2, "phase": "commit", "worker": 0}]
            )
            injector = FaultInjector(plan)
            injector.prepare_router(router)

            def routes_on_live_shards():
                replies = router._ask(router._live_shards(), ("counters",))
                return [reply[1]["rt.config"] for _shard, reply in replies]

            rolled_back = []
            retry = router._retry_update

            def observe_then_retry(text, already_retried):
                rolled_back.extend(routes_on_live_shards())
                return retry(text, already_retried)

            router._retry_update = observe_then_retry
            assert router.apply_update(second).kind == "in-place"
            assert injector.worker_kills == 1
            assert rolled_back == [self.ROUTES]
            assert routes_on_live_shards() == [second_routes] * 2
            assert router.graph.elements["rt"].config == second_routes
            drive(testbed, router, devices, 64, offset=64)
            assert sum(len(d.transmitted) for d in devices.values()) == 128
        finally:
            router.close()

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_update_against_down_shard_is_recommitted(self, backend):
        """A shard that is down when an update commits gets the update
        journaled anyway (counted as a recommit) while the survivors
        commit live — the update is never lost."""
        testbed, router, devices = recovery_testbed(
            workers=2, backend=backend, policy="resteer", restart_budget=1, quarantine_limit=5
        )
        try:
            frames = testbed.evaluation_frames(64)
            poison_name, poison_frame = frames[0]
            router.arm_poison(poison_frame)
            devices[poison_name].receive_frame(poison_frame)
            router.run_tasks(4)  # home shard dies on the poison frame
            router.run_tasks(4)  # replay dies too; budget of 1 -> benched
            assert router._recovery.benched_indices()
            report = router.apply_update(self._updated_text(router))
            assert report.kind == "in-place"
            assert router._recovery.report().updates_recommitted >= 1
        finally:
            router.close()


class TestIdempotentReplay:
    """Satellite: journal replay is idempotent — replaying a second
    time (on an already-recovered shard) changes nothing observable."""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_double_replay_is_byte_identical(self, backend):
        testbed, router, devices = recovery_testbed(backend=backend, policy="buffer")
        try:
            drive(testbed, router, devices, 96)
            router.crash_worker(1)
            first_wire = transmitted_hex(devices)
            first_counters = router.merged_counters()
            router.crash_worker(1)  # replay again, same journal
            assert transmitted_hex(devices) == first_wire
            assert router.merged_counters() == first_counters
            # The twice-replayed shard still forwards correctly.
            drive(testbed, router, devices, 32, offset=96)
            reference = reference_transmit(testbed.evaluation_frames(128))
            diff = degraded_transmit_difference(
                reference, transmitted_hex(devices), affected=None
            )
            assert diff is None, diff
            assert router.report().replays >= 2
        finally:
            router.close()


class TestProcessHygiene:
    """Satellite: repeated kill/recover cycles leave no zombie worker
    processes and no leaked pipe descriptors."""

    def test_kill_recover_cycles_leave_no_leaks(self):
        # Generous liveness timeouts: on a loaded machine a slow worker
        # respawn can trip the 2 s heartbeat into a spurious (healed,
        # but count-inflating) extra episode.
        testbed, router, devices = recovery_testbed(
            backend="process",
            policy="buffer",
            heartbeat_timeout=30.0,
            prepare_timeout=30.0,
        )
        try:
            drive(testbed, router, devices, 32)
            manager = router._recovery

            def kill_and_heal(worker):
                before = manager.restarts
                router.kill_worker(worker)
                # SIGKILL delivery and heartbeat detection are
                # asynchronous; spin runs (bounded) until the restart
                # actually lands rather than assuming a fixed count.
                for _ in range(64):
                    if manager.restarts > before:
                        break
                    router.run_tasks(1)
                assert manager.restarts > before

            # One warm-up cycle first: the initial kill/recover
            # materializes per-process sentinel and pipe descriptors
            # that then reach steady state — growth past that plateau
            # is a genuine leak.
            kill_and_heal(0)
            fd_baseline = len(os.listdir("/proc/self/fd"))
            for cycle in range(1, 4):
                kill_and_heal(cycle % 4)
            report = manager.report()
            assert report.detections >= 4
            assert report.restarts == report.detections  # every episode healed
            assert manager.down_indices() == []
            assert len(os.listdir("/proc/self/fd")) <= fd_baseline
        finally:
            router.close()
        deadline = time.time() + 10
        while multiprocessing.active_children() and time.time() < deadline:
            time.sleep(0.05)
        assert multiprocessing.active_children() == []
