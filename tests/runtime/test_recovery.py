"""Unit tests for the self-healing layer (repro.runtime.recovery):
config validation, the rendezvous overlay, backoff scheduling, degraded
dispatch policies, quarantine, and report determinism."""

import json

import pytest

from repro.runtime.flowhash import DEFAULT_SEED, rendezvous_shard
from repro.runtime.recovery import (
    QuarantineRecord,
    RecoveryConfig,
    RecoveryError,
    RecoveryManager,
    ReplayFrameError,
)


class _FakeHasher:
    def key(self, frame):
        return bytes(frame)[:8]


class _FakeRouter:
    """Just enough ShardedRouter surface for the manager: counters, a
    journal per shard, and scriptable revive outcomes."""

    def __init__(self, workers=4):
        self.workers = workers
        self.hasher = _FakeHasher()
        self._runs = 0
        self._journals = [[] for _ in range(workers)]
        self.revive_outcomes = {}  # index -> list of None | Exception
        self.revived = []
        self.stripped = []
        self.delivered = []
        self.redispatched = []

    def _revive_shard(self, index, singly=False):
        self.revived.append((index, singly))
        outcomes = self.revive_outcomes.get(index)
        if outcomes:
            outcome = outcomes.pop(0)
            if outcome is not None:
                raise outcome

    def _strip_journal_frame(self, index, position):
        self.stripped.append((index, tuple(position)))

    def _deliver_buffered(self, index, buffered):
        self.delivered.append((index, list(buffered)))

    def _redispatch(self, buffered):
        self.redispatched.append(list(buffered))


def _manager(workers=4, **knobs):
    router = _FakeRouter(workers=workers)
    config = RecoveryConfig(**knobs)
    return router, RecoveryManager(router, config)


class TestRecoveryConfig:
    def test_defaults(self):
        config = RecoveryConfig()
        assert config.policy == "buffer"
        assert config.restart_budget == 5
        assert config.seed == DEFAULT_SEED

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="policy"):
            RecoveryConfig(policy="pray")

    @pytest.mark.parametrize(
        "knobs",
        [
            {"restart_budget": 0},
            {"restart_budget": True},
            {"backoff_base": -1},
            {"backoff_factor": 0},
            {"quarantine_limit": 0},
            {"buffer_limit": 0},
            {"heartbeat_timeout": 0},
            {"watchdog_timeout": -1.0},
            {"prepare_timeout": 0},
        ],
    )
    def test_rejects_bad_knobs(self, knobs):
        with pytest.raises((TypeError, ValueError)):
            RecoveryConfig(**knobs)

    def test_as_dict_sorted_and_json_safe(self):
        payload = RecoveryConfig().as_dict()
        assert list(payload) == sorted(payload)
        json.dumps(payload)


class TestRendezvous:
    def test_deterministic_and_in_candidates(self):
        for key in (b"a", b"flow-1", b"\x00" * 8):
            target = rendezvous_shard(key, [0, 2, 3])
            assert target in (0, 2, 3)
            assert target == rendezvous_shard(key, [3, 0, 2])  # order-free

    def test_minimal_disruption(self):
        """Removing one candidate only moves the flows that were homed
        on it; everything else keeps its placement."""
        keys = [("flow-%d" % n).encode() for n in range(64)]
        before = {key: rendezvous_shard(key, [0, 1, 2, 3]) for key in keys}
        after = {key: rendezvous_shard(key, [0, 1, 3]) for key in keys}
        for key in keys:
            if before[key] != 2:
                assert after[key] == before[key]
            else:
                assert after[key] in (0, 1, 3)

    def test_empty_candidates_raise(self):
        with pytest.raises(ValueError):
            rendezvous_shard(b"x", [])

    def test_seed_changes_placement(self):
        keys = [("flow-%d" % n).encode() for n in range(64)]
        a = [rendezvous_shard(key, [0, 1, 2, 3], seed=1) for key in keys]
        b = [rendezvous_shard(key, [0, 1, 2, 3], seed=2) for key in keys]
        assert a != b


class TestDetectionAndBackoff:
    def test_note_dead_marks_down_and_counts_latency(self):
        router, manager = _manager()
        router._runs = 5
        manager.note_killed(1)
        router._runs = 7
        manager.note_dead(1, "watchdog")
        assert manager.is_down(1)
        assert manager.down_indices() == [1]
        assert manager.healthy_indices() == [0, 2, 3]
        assert manager.detection_latency_runs == [2]
        # Second note_dead on the same shard is a no-op.
        manager.note_dead(1, "again")
        assert manager.detections == 1

    def test_first_attempt_is_immediate_then_backoff(self):
        router, manager = _manager(jitter=0)
        router.revive_outcomes[0] = [RuntimeError("still bad")] * 2
        router._runs = 3
        manager.note_dead(0, "died")
        manager.on_run_start()  # first attempt: no backoff, fails
        assert manager.restart_attempts >= 1
        health = manager._health[0]
        assert not health.up
        assert health.next_attempt_run > router._runs

    def test_backoff_schedule_is_seeded_deterministic(self):
        delays = []
        for _ in range(2):
            router, manager = _manager(
                backoff_base=2, backoff_factor=2.0, backoff_limit=16, jitter=3
            )
            health = manager._health[2]
            run_delays = []
            for attempts in (1, 2, 3, 4, 5):
                health.attempts = attempts
                manager._schedule_backoff(health)
                run_delays.append(health.next_attempt_run - router._runs)
            delays.append(run_delays)
        assert delays[0] == delays[1]
        # The deterministic part grows geometrically under the cap.
        base = [min(2 * 2.0 ** (n - 1), 16) for n in (1, 2, 3, 4, 5)]
        for delay, floor in zip(delays[0], base):
            assert floor <= delay <= floor + 3

    def test_budget_exhaustion_benches_the_shard(self):
        router, manager = _manager(restart_budget=2, jitter=0)
        router.revive_outcomes[1] = [RuntimeError("perma-broken")] * 5
        manager.note_dead(1, "died")
        assert manager.attempt_restart(1) is False
        assert manager.attempt_restart(1) is False
        assert manager.benched_indices() == [1]
        assert manager.attempt_restart(1) is False  # benched: no more tries
        report = manager.report()
        assert report.benched == [1]
        assert "perma-broken" in report.bench_reasons[1]


class TestDegradedDispatch:
    def test_healthy_home_passes_through(self):
        router, manager = _manager()
        assert manager.route_frame(2, "eth0", b"frame") == 2
        assert manager.frames_resteered == 0

    def test_fail_fast_raises(self):
        router, manager = _manager(policy="fail-fast")
        manager.note_dead(1, "died")
        with pytest.raises(RecoveryError, match="fail-fast"):
            manager.route_frame(1, "eth0", b"frame")

    def test_buffer_holds_until_recovery(self):
        router, manager = _manager(policy="buffer")
        manager.note_dead(1, "died")
        assert manager.route_frame(1, "eth0", b"one") is None
        assert manager.route_frame(1, "eth1", b"two") is None
        assert manager.frames_buffered == 2
        manager.attempt_restart(1)
        assert manager.is_down(1) is False
        assert router.delivered == [(1, [("eth0", b"one"), ("eth1", b"two")])]

    def test_buffer_limit_drops(self):
        router, manager = _manager(policy="buffer", buffer_limit=1)
        manager.note_dead(0, "died")
        assert manager.route_frame(0, "eth0", b"one") is None
        assert manager.route_frame(0, "eth0", b"two") is None
        assert manager.frames_buffered == 1
        assert manager.buffer_drops == 1

    def test_resteer_targets_survivor_and_records_flow(self):
        router, manager = _manager(policy="resteer")
        manager.note_dead(1, "died")
        target = manager.route_frame(1, "eth0", b"flow-bytes")
        assert target in (0, 2, 3)
        assert manager.frames_resteered == 1
        assert router.hasher.key(b"flow-bytes") in manager.affected_flows
        # Sticky: the same flow re-homes to the same survivor.
        assert manager.route_frame(1, "eth0", b"flow-bytes") == target

    def test_resteer_with_no_survivors_raises(self):
        router, manager = _manager(workers=1, policy="resteer")
        manager.note_dead(0, "died")
        with pytest.raises(RecoveryError, match="no healthy"):
            manager.route_frame(0, "eth0", b"frame")

    def test_benched_shard_resteers_even_under_buffer_policy(self):
        router, manager = _manager(policy="buffer", restart_budget=1, jitter=0)
        router.revive_outcomes[1] = [RuntimeError("broken")] * 3
        manager.note_dead(1, "died")
        assert manager.route_frame(1, "eth0", b"held") is None  # buffered
        manager.attempt_restart(1)  # exhausts the budget -> bench
        assert manager.benched_indices() == [1]
        # The bench re-dispatched the held frames...
        assert router.redispatched == [[("eth0", b"held")]]
        # ...and new frames re-steer from now on.
        assert manager.route_frame(1, "eth0", b"fresh") in (0, 2, 3)


class TestQuarantine:
    def test_replay_killer_is_quarantined_and_stripped(self):
        router, manager = _manager(quarantine_limit=2, jitter=0)
        killer = ReplayFrameError(1, "eth0", b"poison", (3, 0), "armed poison frame")
        router.revive_outcomes[1] = [killer, killer]  # two kills, then clean
        manager.note_dead(1, "died")
        assert manager.attempt_restart(1) is False  # kill 1: backoff
        assert manager.attempt_restart(1) is True  # kill 2: quarantine + heal
        assert router.stripped == [(1, (3, 0))]
        assert b"poison" in manager.quarantined
        [record] = manager.quarantine_records
        assert record.kills == 2 and record.shard == 1
        assert record.frame_hex == b"poison".hex()
        # Future dispatch of the quarantined frame is dropped.
        assert manager.route_frame(1, "eth0", b"poison") is None
        assert manager.quarantine_drops == 1

    def test_unattributed_death_escalates_to_singly_replay(self):
        router, manager = _manager(jitter=0)
        router.revive_outcomes[2] = [RuntimeError("died mid-batch"), None]
        manager.note_dead(2, "died")
        assert manager.attempt_restart(2) is True
        # Batch replay failed once, then the frame-granular retry ran.
        assert router.revived == [(2, False), (2, True)]

    def test_quarantine_record_as_dict_sorted(self):
        record = QuarantineRecord(1, "eth0", b"\x01\x02", (4, 2), 2, "boom")
        payload = record.as_dict()
        assert list(payload) == sorted(payload)
        assert payload["frame_hex"] == "0102"
        assert payload["position"] == [4, 2]
        json.dumps(payload)


class TestRecoveryReport:
    def test_as_dict_sorted_and_deterministic(self):
        router, manager = _manager(policy="resteer")
        manager.note_dead(3, "died")
        manager.route_frame(3, "eth0", b"frame")
        manager.attempt_restart(3)
        manager.note_recommitted()
        payload = manager.report().as_dict()
        assert list(payload) == sorted(payload)
        assert payload["detections"] == 1
        assert payload["restarts"] == 1
        assert payload["frames_resteered"] == 1
        assert payload["affected_flows"] == 1
        assert payload["updates_recommitted"] == 1
        assert json.dumps(payload, sort_keys=True) == json.dumps(payload)

    def test_format_mentions_policy_and_counts(self):
        router, manager = _manager(policy="resteer")
        manager.note_dead(0, "died")
        manager.attempt_restart(0)
        text = manager.report().format()
        assert "resteer" in text
        assert "1 detection(s)" in text
        assert "1 restart(s)" in text
