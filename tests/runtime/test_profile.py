"""Unit tests for ExecutionProfile (repro.runtime.profile): validation,
derivation helpers, and the Router.configure/profile round trip."""

import pytest

from repro.elements import Router
from repro.lang.build import parse_graph
from repro.runtime import ExecutionProfile
from repro.runtime.adaptive import AdaptiveConfig
from repro.runtime.supervisor import SupervisorConfig

PIPE = "f :: Idle; c :: Counter; q :: Queue(8); u :: Unqueue; d :: Discard; f -> c -> q -> u -> d;"


class TestValue:
    def test_defaults_are_reference(self):
        profile = ExecutionProfile()
        assert profile.mode == "reference"
        assert not profile.batch and not profile.supervised
        assert profile == ExecutionProfile.reference()

    def test_constructors(self):
        assert ExecutionProfile.fast().mode == "fast"
        assert ExecutionProfile.fast(batch=True).batch is True
        config = AdaptiveConfig(threshold=48, sample=4, min_samples=12)
        tiered = ExecutionProfile.tiered(config=config)
        assert tiered.mode == "adaptive" and tiered.adaptive is config

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            ExecutionProfile(mode="warp-speed")

    def test_batch_requires_compiled_mode(self):
        with pytest.raises(ValueError, match="batch"):
            ExecutionProfile(mode="reference", batch=True)

    def test_supervisor_config_implies_supervised(self):
        profile = ExecutionProfile.fast(supervisor=SupervisorConfig())
        assert profile.supervised is True

    def test_with_helpers(self):
        profile = ExecutionProfile.fast().with_supervision()
        assert profile.supervised
        assert profile.without_supervision() == ExecutionProfile.fast()
        # with_mode keeps the batch flavor unless reference forces it off.
        batched = ExecutionProfile.fast(batch=True)
        assert batched.with_mode("adaptive").batch is True
        assert batched.with_mode("reference").batch is False

    def test_immutability_and_equality(self):
        profile = ExecutionProfile.fast()
        with pytest.raises(Exception):
            profile.mode = "reference"
        assert profile == ExecutionProfile(mode="fast")
        assert profile != ExecutionProfile.reference()

    def test_equal_configs_make_equal_profiles(self):
        from repro.runtime.recovery import RecoveryConfig

        def build():
            return ExecutionProfile.fdd(
                config=AdaptiveConfig(threshold=64),
                supervisor=SupervisorConfig(backoff=8),
                recovery=RecoveryConfig(policy="resteer"),
            )

        assert build() == build() and hash(build()) == hash(build())
        assert build() != ExecutionProfile.fdd(config=AdaptiveConfig(threshold=65))
        assert AdaptiveConfig() != SupervisorConfig()

    def test_label_and_as_dict(self):
        profile = ExecutionProfile.fast(batch=True).with_supervision()
        assert profile.label == "fast+batch+supervised"
        assert str(profile) == profile.label
        payload = profile.as_dict()
        assert payload == {
            "mode": "fast",
            "batch": True,
            "adaptive": False,
            "supervised": True,
            "supervisor": True,
            "workers": 1,
            "shard_backend": "thread",
            "divide_capacity": False,
            "chunk_frames": None,
            "recovery": None,
        }


class TestRouterRoundTrip:
    def test_configure_then_read_back(self):
        router = Router(parse_graph(PIPE))
        assert router.profile == ExecutionProfile.reference()
        router.configure(ExecutionProfile.fast(batch=True))
        assert router.profile == ExecutionProfile.fast(batch=True)
        assert router.fastpath.installed and router.fastpath.batch

    def test_configure_adaptive_and_back(self):
        config = AdaptiveConfig(threshold=48, sample=4, min_samples=12)
        router = Router(parse_graph(PIPE), profile=ExecutionProfile.tiered(config=config))
        assert router.mode == "adaptive"
        assert router.profile.adaptive is config
        router.configure(ExecutionProfile.reference())
        assert router.mode == "reference"
        assert router.adaptive is None

    def test_configure_detaches_supervision_when_absent(self):
        router = Router(
            parse_graph(PIPE), profile=ExecutionProfile.fast().with_supervision()
        )
        assert router.supervisor is not None
        router.configure(ExecutionProfile.fast())
        assert router.supervisor is None

    def test_equal_profile_keeps_the_engine(self):
        from repro.runtime.codegen_cache import default_cache

        def profile(threshold=64):
            return ExecutionProfile.fdd(config=AdaptiveConfig(threshold=threshold))

        router = Router(parse_graph(PIPE), profile=profile())
        engine, misses = router.engine, default_cache().stats()["misses"]
        router.configure(profile())  # equal, not identical
        assert router.engine is engine
        assert default_cache().stats()["misses"] == misses
        router.configure(profile(threshold=65))
        assert router.engine is not engine and router.engine.config.threshold == 65

    def test_configure_returns_router(self):
        router = Router(parse_graph(PIPE))
        assert router.configure(ExecutionProfile.fast()) is router


class TestTunableFields:
    def test_chunk_frames_validation(self):
        assert ExecutionProfile(chunk_frames=64).chunk_frames == 64
        with pytest.raises(ValueError):
            ExecutionProfile(chunk_frames=0)
        with pytest.raises(TypeError):
            ExecutionProfile(chunk_frames="big")
        with pytest.raises(TypeError):
            ExecutionProfile(chunk_frames=True)
        with pytest.raises(ValueError):
            ExecutionProfile(chunk_frames=-1)

    def test_divide_capacity_normalized_to_bool(self):
        assert ExecutionProfile(divide_capacity=1).divide_capacity is True
        assert ExecutionProfile().divide_capacity is False

    def test_with_workers_carries_capacity_knobs(self):
        profile = ExecutionProfile.fast().with_workers(2, "thread", divide_capacity=True)
        assert profile.workers == 2
        assert profile.divide_capacity is True
        # None keeps the current values.
        again = profile.with_workers(2)
        assert again.shard_backend == "thread" and again.divide_capacity is True

    def test_shard_local_keeps_capacity_knobs(self):
        profile = ExecutionProfile.fast().with_workers(2, divide_capacity=True)
        local = profile.shard_local()
        assert local.workers == 1
        assert local.divide_capacity is True

