"""The search driver (repro.tune.search) and TunedProfile artifact:
seeded determinism, tuned-never-worse, inert-knob canonicalization, and
the content-addressed JSON round trip."""

import pytest

from repro.runtime import ExecutionProfile
from repro.tune import TunedProfile, default_space, tune
from repro.tune.search import _canonicalize


def quick_tune(**overrides):
    options = dict(
        workload="iprouter", mode="adaptive", seed=7, budget=8, validate=False
    )
    options.update(overrides)
    return tune(**options)


@pytest.fixture(scope="module")
def tuned():
    return quick_tune()


class TestDeterminism:
    def test_same_seed_same_artifact(self, tuned):
        again = quick_tune()
        assert again.params == tuned.params
        assert again.key == tuned.key
        assert again.score == tuned.score
        assert again.search["rungs"] == tuned.search["rungs"]

    def test_different_seed_may_differ_but_stays_valid(self):
        other = quick_tune(seed=8)
        space = default_space(mode="adaptive")
        relevant = {k: v for k, v in other.params.items() if k in space.params}
        assert space.check(dict(space.defaults(), **relevant)) is None


class TestNeverWorse:
    def test_tuned_at_least_default(self, tuned):
        """Defaults are candidate 0 and exempt from halving, so the
        winner can tie the shipped constants but never lose to them."""
        assert tuned.score >= tuned.baseline_score
        assert tuned.speedup >= 1.0
        assert tuned.search["effective_ns"] <= tuned.search["baseline_effective_ns"]
        assert tuned.cpu_speedup >= 1.0

    def test_fdd_mode_never_worse(self):
        fdd = quick_tune(workload="firewall", mode="fdd")
        assert fdd.score >= fdd.baseline_score
        assert fdd.search["effective_ns"] <= fdd.search["baseline_effective_ns"]


class TestCanonicalize:
    def test_inert_knobs_reset_to_defaults(self):
        space = default_space(mode="adaptive", workers=1, supervised=False)
        drawn = dict(space.defaults())
        drawn["shard.queue_capacity"] = 64  # inert at workers=1
        drawn["fdd.node_budget"] = 999  # inert off-fdd
        drawn["supervisor.backoff"] = 4  # inert unsupervised
        canonical = _canonicalize(space, drawn, "adaptive", 1, False)
        defaults = space.defaults()
        assert canonical["shard.queue_capacity"] == defaults["shard.queue_capacity"]
        assert canonical["fdd.node_budget"] == defaults["fdd.node_budget"]
        assert canonical["supervisor.backoff"] == defaults["supervisor.backoff"]

    def test_live_knobs_survive(self):
        space = default_space(mode="adaptive", workers=1, supervised=False)
        drawn = dict(space.defaults(), **{"adaptive.threshold": 128})
        canonical = _canonicalize(space, drawn, "adaptive", 1, False)
        assert canonical["adaptive.threshold"] == 128


class TestArtifact:
    def test_json_round_trip(self, tuned):
        clone = TunedProfile.from_json(tuned.to_json())
        assert clone.params == tuned.params
        assert clone.key == tuned.key
        assert clone.as_dict() == tuned.as_dict()

    def test_key_is_content_addressed(self, tuned):
        assert len(tuned.key) == 16
        shifted = TunedProfile.from_dict(
            dict(tuned.as_dict(), graph_fingerprint="deadbeef")
        )
        assert shifted.key != tuned.key
        mode_shifted = TunedProfile.from_dict(dict(tuned.as_dict(), mode="fdd"))
        assert mode_shifted.key != tuned.key

    def test_save_load(self, tuned, tmp_path):
        path = tmp_path / "tuned.json"
        tuned.save(str(path))
        assert TunedProfile.load(str(path)).key == tuned.key

    def test_unknown_keys_ignored(self, tuned):
        payload = dict(tuned.as_dict(), future_field=123)
        assert TunedProfile.from_dict(payload).key == tuned.key

    def test_with_tuning_consumes_artifact(self, tuned):
        profile = ExecutionProfile.tiered().with_tuning(tuned)
        assert profile.adaptive.threshold == tuned.params["adaptive.threshold"]
        assert profile.workers == 1  # construction shape untouched


class TestChunkTerm:
    def test_model_prefers_the_measured_round_size(self):
        """The process backend's chunk term has the measured shape: a
        serial head that grows with the round beside a per-round cost
        that falls with it, so the model's best ``shard.chunk_frames``
        is within one octave of the default the measured sweep chose —
        and the default is not an edge of the range."""
        from repro.runtime.shard import DEFAULT_CHUNK_FRAMES
        from repro.tune.objective import CostModel
        from repro.tune.workloads import workload

        space = default_space(mode="fast", workers=2)
        chunk = space.params["shard.chunk_frames"]
        assert chunk.low < DEFAULT_CHUNK_FRAMES < chunk.high
        model = CostModel(workload("iprouter"), mode="fast", workers=2, shard_backend="process")
        sizes = [1 << power for power in range(20) if chunk.low <= 1 << power <= chunk.high]
        costs = {
            size: model.effective_ns(dict(space.defaults(), **{"shard.chunk_frames": size}))
            for size in sizes
        }
        best = min(costs, key=costs.get)
        assert DEFAULT_CHUNK_FRAMES // 2 <= best <= DEFAULT_CHUNK_FRAMES * 2, costs
        assert costs[best] < costs[sizes[0]] and costs[best] < costs[sizes[-1]]
