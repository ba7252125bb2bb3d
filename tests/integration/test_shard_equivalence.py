"""Sharded data plane equivalence: the oracle must prove every shard-*
mode observably equivalent to the single-shard reference under the
sharding contract — on healthy traces, under a control-plane update
storm, and under sharded-safe chaos plans with worker crashes."""

import pytest

from repro.sim.faults import FaultError, FaultInjector, FaultPlan
from repro.verify.chaos import compare_chaos, seeded_plan
from repro.verify.genconfig import generate_case, stock_cases
from repro.verify.oracle import (
    MODES,
    SHARD_MODES,
    compare_case,
    mode_profile,
    overflow_drops,
    run_case,
    sharded_transmit_difference,
)


def stock(name, events=64):
    cases = {case["name"]: case for case in stock_cases(events_count=events)}
    return cases[name]


class TestShardModes:
    def test_shard_modes_mirror_modes(self):
        assert list(SHARD_MODES) == ["shard-%s" % m for m in MODES]

    def test_mode_profile_shards(self):
        profile = mode_profile("shard-batch")
        assert profile.workers == 2 and profile.shard_backend == "thread"
        assert profile.mode == "fast" and profile.batch
        supervised = mode_profile("shard-adaptive", supervised=True)
        assert supervised.supervised and supervised.workers == 2


class TestShardedTransmitDifference:
    def test_cross_flow_reorder_allowed(self):
        from tests.runtime.test_flowhash import udp_frame

        a = udp_frame(sport=1000).hex()
        b = udp_frame(sport=2000).hex()
        assert sharded_transmit_difference({"e": [a, b]}, {"e": [b, a]}) is None

    def test_within_flow_reorder_rejected(self):
        from tests.runtime.test_flowhash import udp_frame

        a = udp_frame(sport=1000, ident=1).hex()
        b = udp_frame(sport=1000, ident=2).hex()
        diff = sharded_transmit_difference({"e": [a, b]}, {"e": [b, a]})
        assert diff is not None and "per-flow order" in diff

    def test_multiset_mismatch_rejected(self):
        from tests.runtime.test_flowhash import udp_frame

        a = udp_frame(sport=1000).hex()
        diff = sharded_transmit_difference({"e": [a, a]}, {"e": [a]})
        assert diff is not None and "multiset" in diff


class TestHealthyEquivalence:
    @pytest.mark.parametrize("config", ["iprouter-mtu1500", "iprouter-mtu576", "firewall"])
    def test_stock_cases_agree(self, config):
        result = compare_case(stock(config), modes=list(SHARD_MODES))
        assert result["status"] == "ok", result["divergences"]

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_generated_cases_agree(self, index):
        case = generate_case(20260809, index, events_count=48)
        result = compare_case(case, modes=["shard-fast", "shard-adaptive"])
        assert result["status"] == "ok", result["divergences"]


class TestUpdateStorm:
    def test_update_storm_stays_equivalent(self):
        """A trace that re-installs the configuration as a control-plane
        update between every traffic burst: the transactional cross-shard
        commit path runs repeatedly and must stay invisible."""
        case = stock("iprouter-mtu1500", events=96)
        events = []
        burst = 0
        for event in case["events"]:
            events.append(event)
            if event[0] == "run":
                burst += 1
                if burst % 3 == 0:
                    events.append(["update"])
        storm = dict(case, events=events, name="iprouter-update-storm")
        result = compare_case(storm, modes=list(SHARD_MODES))
        assert result["status"] == "ok", result["divergences"]


class TestLossyOverflow:
    """Regression for the fuzz-found gen3/gen16-pipeline divergence:
    each shard owns a private copy of every bounded queue, so aggregate
    capacity — and which packets overflow — scales with the worker
    count.  Such traces are out of the shard contract: reported as
    skips with a lossy-overflow reason, never as divergences and never
    silently."""

    def lossy_case(self, frames=8):
        from tests.runtime.test_flowhash import udp_frame

        config = (
            "src :: PollDevice(eth0);\n"
            "q :: FrontDropQueue(4);\n"
            "dst :: ToDevice(eth1);\n"
            "src -> q -> dst;\n"
        )
        events = [
            ["frame", "eth0", udp_frame(sport=1000 + i).hex()] for i in range(frames)
        ]
        events.append(["run", 4])
        return {
            "name": "lossy-pipeline",
            "config": config,
            "events": events,
            "optimize": False,
        }

    def test_overflow_is_a_skip_not_a_divergence(self):
        result = compare_case(self.lossy_case(), modes=list(SHARD_MODES))
        assert result["status"] == "ok", result["divergences"]
        assert result["skips"], "overflow must be recorded, not silent"
        for skip in result["skips"]:
            assert skip["mode"] in SHARD_MODES
            assert "lossy-overflow" in skip["reason"]

    def test_single_plane_modes_still_strict(self):
        # Drop behavior is deterministic and mode-invariant on a single
        # plane; only the partitioned plane is out of contract.
        result = compare_case(self.lossy_case(), modes=list(MODES))
        assert result["status"] == "ok", result["divergences"]
        assert result["skips"] == []

    def test_no_overflow_no_skip(self):
        case = self.lossy_case(frames=3)  # under capacity: nothing drops
        result = compare_case(case, modes=list(SHARD_MODES))
        assert result["status"] == "ok", result["divergences"]
        assert result["skips"] == []

    def test_overflow_drops_counts_queue_handlers(self):
        assert overflow_drops({"q.drops": 3, "q2.drops": 1, "c.count": 9}) == 4
        assert overflow_drops({"c.count": 9, "q.drops": "n/a"}) == 0

    def test_numbering_packets_across_flows_is_a_skip(self):
        """Each shard's UDPIPEncap numbers its own packets from IP ID 0:
        a multiset difference with no drop, recorded as out of
        contract; the single-plane modes still compare strictly."""
        case = self.lossy_case()
        case["config"] = case["config"].replace(
            "src -> q", "src -> e :: UDPIPEncap(10.0.9.1, 1234, 10.0.9.2, 53) -> q"
        ).replace("FrontDropQueue(4)", "Queue(64)")
        result = compare_case(case, modes=list(MODES) + list(SHARD_MODES))
        assert result["status"] == "ok", result["divergences"]
        assert {skip["mode"] for skip in result["skips"]} == set(SHARD_MODES)
        assert all(skip["reason"].startswith("cross-flow state: e (") for skip in result["skips"])


class TestShardedChaos:
    def test_sharded_plan_survives_worker_crash(self):
        case = stock("iprouter-mtu1500")
        plan = seeded_plan(case, seed=7, sharded=True)
        kinds = {fault["kind"] for fault in plan.faults}
        assert "worker_crash" in kinds
        assert "element_error" not in kinds
        result = compare_chaos(
            case, plan, modes=["reference", "shard-fast", "shard-batch"]
        )
        assert result["status"] == "ok", result["failures"]
        # The sharded modes report through ShardReport, crash included.
        for mode in ("shard-fast", "shard-batch"):
            report = result["reports"][mode]
            assert report["workers"] == 2
            assert report["crashes"] >= 1
            assert report["replays"] >= 1

    def test_element_faults_rejected_on_sharded_plane(self):
        """Count-ordered element faults cannot be applied to a
        partitioned plane; the injector refuses rather than silently
        diverging."""
        case = stock("iprouter-mtu1500")
        plan = seeded_plan(case, seed=7, sharded=False)
        assert any(f["kind"] == "element_error" for f in plan.faults)
        status, payload = run_case(case, "shard-fast", plan=plan, supervised=True)
        assert status == "error"
        assert payload[0] == "FaultError"

    def test_worker_crash_is_noop_on_plain_router(self):
        """One sharded-safe plan stays valid across the whole matrix:
        on a plain router the worker_crash fault does nothing."""
        plan = FaultPlan(faults=[{"kind": "worker_crash", "at": 1, "worker": 0}])
        case = stock("iprouter-mtu1500")
        reference = run_case(case, "reference")
        faulted = run_case(case, "reference", plan=plan, supervised=True)
        assert faulted[0] == "ok"
        assert faulted[1]["transmitted"] == reference[1]["transmitted"]

    def test_injector_counts_worker_crashes(self):
        plan = FaultPlan(faults=[{"kind": "worker_crash", "at": 1, "worker": 1}])
        case = stock("iprouter-mtu1500")
        collected = []
        status, _payload = run_case(
            case, "shard-batch", plan=plan, collect=collected.append
        )
        assert status == "ok"
        router = collected[-1]
        assert router.is_sharded
        assert router.fault_injector.worker_crashes == 1
        assert router.fault_injector.fault_counts()["worker_crashes"] == 1

    def test_invalid_worker_field_rejected(self):
        with pytest.raises(FaultError):
            FaultInjector(
                FaultPlan(faults=[{"kind": "worker_crash", "at": 1, "worker": -1}])
            )


class TestDivideCapacity:
    """The ``divide_capacity`` narrowing of the lossy-overflow carve-out
    (docs/SHARDING.md): with each bounded queue's capacity split across
    the shards, aggregate capacity matches the single plane, and — with
    the overflowing flows balanced across shards — the lossy trace
    becomes a *strict* equivalence, not a skip."""

    def balanced_lossy_case(self, frames=8):
        # sports 1000..1007 alternate shards under FlowHasher(2): even
        # sports land on one shard, odd on the other.  The reference
        # FrontDropQueue(4) keeps the last 4 arrivals {4,5,6,7}; the
        # divided per-shard cap-2 queues keep {4,6} and {5,7} — the
        # same multiset, so per-device output must agree exactly.
        case = TestLossyOverflow().lossy_case(frames=frames)
        return dict(case, name="lossy-pipeline-divided", divide_capacity=True)

    def test_flows_are_balanced_across_shards(self):
        from tests.runtime.test_flowhash import udp_frame

        from repro.runtime.flowhash import FlowHasher

        hasher = FlowHasher(2)
        shards = [hasher(bytes(udp_frame(sport=1000 + i))) for i in range(8)]
        assert shards.count(0) == 4 and shards.count(1) == 4
        assert shards[::2] != shards[1::2]  # alternating, not clumped

    def test_lossy_case_is_strict_equivalence(self):
        result = compare_case(self.balanced_lossy_case(), modes=list(SHARD_MODES))
        assert result["status"] == "ok", result["divergences"]
        assert result["skips"] == [], "divide mode must not fall back to the carve-out"

    def test_divided_plane_still_drops(self):
        # The equivalence above is only meaningful if overflow really
        # happened on the divided plane.
        status, observation = run_case(self.balanced_lossy_case(), "shard-fast")
        assert status == "ok"
        assert overflow_drops(observation["counters"]) > 0

    def test_undivided_carveout_still_applies(self):
        # Without the opt-in, the same trace stays a documented skip.
        case = TestLossyOverflow().lossy_case()
        result = compare_case(case, modes=["shard-fast"])
        assert result["status"] == "ok"
        assert result["skips"] and "lossy-overflow" in result["skips"][0]["reason"]
