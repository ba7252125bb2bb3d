"""The tuning objective: knob assignment -> effective cost -> MLFFR.

The cheap objective is a calibrated analytic cost model.  It anchors on
one deterministic measurement — the workload's metered reference
per-packet cost (:meth:`Workload.base_cpu_ns`, a cycle-model number,
not a stopwatch) — then maps a knob assignment to an *effective*
per-packet cost over a fixed packet horizon:

- the tiered engine's tier-1 phase pays a probe cost amortized by the
  sampling stride; promotion happens after ``threshold`` packets when
  the speculation preconditions hold (enough samples per stride, hot
  fraction below the workload's actual skew), after which hot traffic
  runs at the tier-2 rate and cold traffic pays guard misses;
- guard misses accumulate toward ``guard_miss_limit``; each deopt
  re-runs tier 1 and pays a recompile, bounded by ``max_recompiles``;
- FDD mode expands the workload's real classifier trees under the
  candidate node budget (:func:`repro.runtime.fdd.build_diagram`) and
  credits the saved loads and matcher calls, taxed per diagram node;
- sharding takes the max of the dispatch cost (hash + handoff amortized
  by queue capacity + queue memory-footprint tax; on process workers
  also the pipe, a serial head that grows with the dispatch round and a
  per-round cost that falls with it) and the per-worker share;
- supervision adds a small per-packet tax shrinking with the backoff
  and error budget.

The effective cost is scored through the fluid equilibrium solver
(:func:`repro.sim.fluid.mlffr`) — the paper's loss-free forwarding
rate — so candidates are ranked by the number the paper optimizes.
Everything is closed-form over deterministic inputs: the same
assignment always scores identically.
"""

from __future__ import annotations

from ..sim.testbed import DISPATCH_NS

__all__ = ["CostModel"]

#: Packet horizon the phase-weighted average is taken over.
HORIZON = 100_000

# Calibration constants (ns unless noted).  FAST_FACTOR and TIER2_GAIN
# track the measured fastpath/adaptive bench ratios; the shard dispatch
# anchor *is* Testbed.sharded_mlffr's default dispatch_ns, itself set
# from the measured hash.  ROUND_SYNC_NS and WINDOW_FRAMES are fitted
# to the measured round-size sweep (EXPERIMENTS.md: 64 -> 2048 frames
# per round on two process workers, best at 256).
FAST_FACTOR = 0.33  # compiled tier-1 cost as a share of reference
TIER2_GAIN = 0.82  # hot-path cost after the profile-guided recompile
BATCH_GAIN = 0.94  # batch dispatch rides the branch predictor
PROBE_NS = 120.0  # per *sampled* packet profiling cost
GUARD_MISS_NS = 90.0  # cold packet: guard check + generic fallback
RECOMPILE_NS = 1.5e6  # one tier-2 recompile
LOAD_NS = 14.0  # one redundant header load an FDD elides
MATCH_NS = 35.0  # one generic matcher invocation an FDD elides
NODE_TAX_NS = 0.08  # icache/dispatch tax per materialized FDD node
HASH_NS = DISPATCH_NS  # flow-hash dispatch per packet (sharded)
HANDOFF_NS = 1200.0  # per-batch SPSC handoff, amortized by capacity
QMEM_NS = 0.11  # queue memory footprint tax per capacity slot
PIPE_NS = 900.0  # process backend: pipe serialization per packet
ROUND_SYNC_NS = 6.0e4  # process backend: posting and running one round
WINDOW_FRAMES = 1024  # frames one device drain hands the dispatcher
SUPERVISE_NS = 6.0  # supervised dispatch indirection
TRIP_NS = 400.0  # watchdog probe cost, amortized by backoff
RECORD_NS = 120.0  # error-record bookkeeping, shrinks with budget


class CostModel:
    """Effective per-packet cost and MLFFR score for one workload under
    one execution regime (mode / workers / backend / supervision)."""

    def __init__(
        self, workload, mode="adaptive", workers=1, shard_backend="thread", supervised=False
    ):
        self.workload = workload
        self.mode = mode
        self.workers = int(workers)
        self.shard_backend = shard_backend
        self.supervised = bool(supervised)
        self._fdd_gain_cache = {}

    # -- pieces ------------------------------------------------------------

    def _fdd_gain_ns(self, node_budget):
        """Per-hot-packet ns the workload's diagrams save under
        ``node_budget``, from real :func:`build_diagram` expansions."""
        node_budget = int(node_budget)
        cached = self._fdd_gain_cache.get(node_budget)
        if cached is not None:
            return cached
        from ..runtime.fdd import build_diagram

        gain = 0.0
        for tree in self.workload.classifier_trees().values():
            plan = build_diagram(tree, node_budget=node_budget)
            if plan is None:
                continue  # over budget: the generic matcher stays
            per_packet = (
                plan.loads_saved / max(1, plan.paths) * LOAD_NS
                + MATCH_NS
                - plan.nodes * NODE_TAX_NS
            )
            gain += max(0.0, per_packet)
        self._fdd_gain_cache[node_budget] = gain
        return gain

    def effective_ns(self, params):
        """The phase-weighted per-packet cost (ns) of running the
        workload under ``params`` for :data:`HORIZON` packets."""
        base = self.workload.base_cpu_ns()
        hot_share = self.workload.hot_share
        cold_share = 1.0 - hot_share
        if self.mode == "reference":
            average = base
        else:
            fast = base * FAST_FACTOR
            if bool(params.get("batch", False)):
                fast *= BATCH_GAIN
            if self.mode == "fast":
                average = fast
            else:
                sample = int(params["adaptive.sample"])
                threshold = int(params["adaptive.threshold"])
                min_samples = int(params["adaptive.min_samples"])
                guard_miss_limit = int(params["adaptive.guard_miss_limit"])
                hot_fraction = float(params["adaptive.hot_fraction"])
                max_recompiles = int(params["adaptive.max_recompiles"])
                tier1 = fast + PROBE_NS / sample
                speculates = (
                    min_samples <= threshold / sample and hot_fraction <= hot_share
                )
                if not speculates:
                    # Never promotes: the dispatcher keeps sampling forever.
                    average = tier1
                else:
                    hot = fast * TIER2_GAIN
                    if self.mode == "fdd":
                        gain = self._fdd_gain_ns(params["fdd.node_budget"])
                        hot = max(fast * 0.35, hot - gain)
                    warm = hot_share * hot + cold_share * (fast + GUARD_MISS_NS)
                    cold_misses = cold_share * HORIZON
                    deopts = min(float(max_recompiles), cold_misses / guard_miss_limit)
                    tier1_packets = min(
                        float(HORIZON), threshold * (1.0 + deopts)
                    )
                    tier1_frac = tier1_packets / HORIZON
                    average = (
                        tier1_frac * tier1
                        + (1.0 - tier1_frac) * warm
                        + deopts * RECOMPILE_NS / HORIZON
                    )
        if self.workers > 1:
            from ..elements.devices import PollDevice

            capacity = int(params["shard.queue_capacity"])
            dispatch = (
                HASH_NS
                + HANDOFF_NS * PollDevice.BURST / capacity
                + QMEM_NS * capacity
            )
            if self.shard_backend == "process":
                # Two opposed terms: the workers idle while the first
                # round is hashed and serialized (a head that grows with
                # the round, amortized over the drain), and every round
                # costs its commands and a partial run (falls with it).
                chunk = int(params["shard.chunk_frames"])
                head = (HASH_NS + PIPE_NS) * min(chunk, WINDOW_FRAMES) / WINDOW_FRAMES
                dispatch += PIPE_NS + head + ROUND_SYNC_NS / chunk
            average = max(dispatch, average / self.workers)
        if self.supervised:
            backoff = int(params["supervisor.backoff"])
            error_budget = int(params["supervisor.error_budget"])
            average += SUPERVISE_NS + TRIP_NS / backoff + RECORD_NS / error_budget
        return average

    def score(self, params):
        """The fluid-model MLFFR (pps) under ``params`` — the cheap
        objective the search maximizes."""
        from ..sim.fluid import mlffr

        return mlffr(self.effective_ns(params), self.workload.platform)
