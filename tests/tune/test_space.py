"""Parameter-space declarations (repro.tune.space): typed domains,
validity constraints, rejection sampling, and the satellite guarantee
that the tuner can never emit an assignment the runtime configs reject."""

import random

import pytest

from repro.runtime.adaptive import AdaptiveConfig
from repro.runtime.supervisor import SupervisorConfig
from repro.tune import Param, ParamSpace, default_space


class TestParam:
    def test_int_domain(self):
        param = Param("k", "int", 4, low=1, high=8)
        assert param.valid(1) and param.valid(8)
        assert not param.valid(0) and not param.valid(9)
        assert not param.valid(4.0)  # ints only, no float smuggling
        assert not param.valid(True)  # bools are not domain ints

    def test_log_int_sampling_stays_in_bounds(self):
        param = Param("k", "log_int", 256, low=16, high=4096)
        rng = random.Random(7)
        draws = [param.sample(rng) for _ in range(200)]
        assert all(16 <= value <= 4096 for value in draws)
        # log-uniform: the bottom decade actually gets visited.
        assert any(value < 64 for value in draws)

    def test_choice_checks_type_and_value(self):
        param = Param("k", "choice", 0.5, choices=[0.5, 0.75])
        assert param.valid(0.75)
        assert not param.valid(1)  # not a listed choice
        bool_param = Param("b", "choice", False, choices=[False, True])
        assert bool_param.valid(True)
        assert not bool_param.valid(1)  # 1 == True but type differs

    def test_bad_declarations_rejected(self):
        with pytest.raises(ValueError):
            Param("k", "gaussian", 1, low=0, high=2)
        with pytest.raises(ValueError):
            Param("k", "int", 1, low=5, high=2)
        with pytest.raises(ValueError):
            Param("k", "choice", 1, choices=[])
        with pytest.raises(ValueError):
            Param("k", "int", 99, low=1, high=8)  # default off-domain

    def test_pin_freezes_to_one_value(self):
        pinned = Param("k", "int", 4, low=1, high=8).pin(6)
        assert pinned.valid(6) and not pinned.valid(4)
        assert pinned.sample(random.Random(0)) == 6


class TestParamSpace:
    def space(self):
        return ParamSpace(
            [
                Param("a", "int", 4, low=1, high=8),
                Param("b", "int", 2, low=1, high=8),
            ],
            constraints=[("b <= a", lambda p: p["b"] <= p["a"])],
        )

    def test_defaults_are_the_shipped_constants(self):
        assert self.space().defaults() == {"a": 4, "b": 2}

    def test_check_reports_first_violation(self):
        space = self.space()
        assert space.check({"a": 4, "b": 2}) is None
        assert "missing" in space.check({"a": 4})
        assert "outside" in space.check({"a": 99, "b": 2})
        assert space.check({"a": 2, "b": 5}) == "b <= a"
        with pytest.raises(ValueError):
            space.validate({"a": 2, "b": 5})

    def test_samples_always_satisfy_constraints(self):
        space = self.space()
        rng = random.Random(3)
        for _ in range(100):
            assignment = space.sample(rng)
            assert space.check(assignment) is None

    def test_invalid_defaults_rejected_at_construction(self):
        with pytest.raises(ValueError, match="default assignment"):
            ParamSpace(
                [Param("a", "int", 1, low=1, high=8)],
                constraints=[("never", lambda p: False)],
            )


class TestDefaultSpace:
    def test_defaults_match_runtime_config_defaults(self):
        """The registry's defaults ARE the shipped constants — a drifted
        default would make 'tuned vs default' comparisons meaningless."""
        defaults = default_space().defaults()
        adaptive = AdaptiveConfig()
        assert defaults["adaptive.threshold"] == adaptive.threshold
        assert defaults["adaptive.sample"] == adaptive.sample
        assert defaults["adaptive.min_samples"] == adaptive.min_samples
        assert defaults["adaptive.guard_miss_limit"] == adaptive.guard_miss_limit
        assert defaults["adaptive.max_recompiles"] == adaptive.max_recompiles
        supervisor = SupervisorConfig()
        assert defaults["supervisor.error_budget"] == supervisor.error_budget
        assert defaults["supervisor.backoff"] == supervisor.backoff
        from repro.runtime.shard import DEFAULT_CHUNK_FRAMES, DEFAULT_QUEUE_CAPACITY

        assert defaults["shard.queue_capacity"] == DEFAULT_QUEUE_CAPACITY
        assert defaults["shard.chunk_frames"] == DEFAULT_CHUNK_FRAMES

    def test_workers_are_pinned(self):
        space = default_space(workers=4)
        rng = random.Random(11)
        assert all(space.sample(rng)["shard.workers"] == 4 for _ in range(20))

    def test_every_sample_builds_a_valid_adaptive_config(self):
        """Constraint-enforcement satellite: no draw, ever, may produce
        an assignment AdaptiveConfig's own validation would reject."""
        space = default_space(workers=2)
        rng = random.Random(20260809)
        for _ in range(300):
            assignment = space.sample(rng)
            config = AdaptiveConfig(
                threshold=assignment["adaptive.threshold"],
                sample=assignment["adaptive.sample"],
                min_samples=assignment["adaptive.min_samples"],
                guard_miss_limit=assignment["adaptive.guard_miss_limit"],
                hot_fraction=assignment["adaptive.hot_fraction"],
                max_recompiles=assignment["adaptive.max_recompiles"],
            )
            # Promotion must stay reachable under the drawn thresholds.
            assert config.sample <= config.threshold
            assert config.min_samples <= config.threshold
            SupervisorConfig(
                error_budget=assignment["supervisor.error_budget"],
                backoff=assignment["supervisor.backoff"],
            )
