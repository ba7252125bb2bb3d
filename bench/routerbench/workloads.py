"""The five pinned workloads.

Each is closed loop with one generator process: the next window is fed
only after the previous one drained, so a slower router is offered
less.  At most two workers ever run (``nproc`` is 2)."""

from dataclasses import dataclass

from . import gen


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: str  # "iprouter" or "firewall"
    traffic: object  # seed -> blocks
    profile: str  # "fdd" or "shard2"
    update: str  # what the control plane rewrites under traffic
    update_batch: int = 1  # consecutive updates timed as one sample
    optimized: bool = False  # run click-optimize's "paper" pipeline first
    steady: bool = True  # has a steady phase of 2000-frame windows

    @property
    def sharded(self):
        return self.profile == "shard2"

    def text(self):
        return gen.iprouter_text() if self.config == "iprouter" else gen.firewall_text()

    def ladder(self):
        return gen.iprouter_ladder() if self.config == "iprouter" else gen.firewall_ladder()

    def execution_profile(self):
        """The profile the workload is timed under."""
        from repro.runtime.profile import ExecutionProfile
        from repro.runtime.recovery import RecoveryConfig

        if self.profile == "fdd":
            return ExecutionProfile.fdd()
        return (
            ExecutionProfile.fast(batch=True)
            .with_workers(2, "process")
            .with_recovery(config=RecoveryConfig(policy="buffer", jitter=0))
        )

    def update_at(self, seed, index):
        """Update ``index`` of the schedule: ``(element, kind, args)``
        with kind ``routes`` or ``rules``."""
        if self.update == "firewall":
            return "fw", "rules", gen.firewall_update(seed, index)
        if self.update == "churn" and index % 4 == 3:
            return "c%d" % (index // 4 % 2), "rules", gen.classifier_update(seed, index)
        return "rt", "routes", gen.route_update(seed, index)

    @property
    def gated_update_kind(self):
        """The update kind ``update_kiters`` reports.  Routes and rules
        differ ~500x, so they are never pooled: where a workload mixes
        them the costlier kind is gated and the other is a layer
        metric."""
        return "routes" if self.update == "routes" else "rules"


WORKLOADS = (
    Workload(
        name="iprouter_skew",
        why="Plain IP router under fdd, 64 B frames, 90/10 skew: one hot route arm and "
            "ARP entry is tier-2 speculation's best case; tiny classifiers, so route, "
            "chain body, queue and transmit dominate.",
        config="iprouter",
        traffic=gen.skew_blocks,
        profile="fdd",
        update="routes",
        update_batch=16,
    ),
    Workload(
        name="iprouter_opt",
        why="Same traffic and profile on click-optimize's paper pipeline output, round-"
            "tripped through text: the only workload where repro.core's output runs, "
            "and where wall clock and cycle model disagree today.",
        config="iprouter",
        traffic=gen.skew_blocks,
        profile="fdd",
        update="routes",
        update_batch=16,
        optimized=True,
    ),
    Workload(
        name="firewall_zipf",
        why="17-rule firewall, fdd, Zipf(1.1) over a rule order rotated per block, "
            "64/576/1500 B frames: the 107-node diagram loads classifier "
            "and fdd, every rule is hot in turn, big frames show copies.",
        config="firewall",
        traffic=gen.zipf_blocks,
        profile="fdd",
        update="firewall",
    ),
    Workload(
        name="iprouter_churn",
        why="Plain IP router, fdd, behind a ControlPlane, even traffic, 3 route : 1 "
            "rule updates 256 frames apart: writes beside reads, every update "
            "deoptimizes, so gains bought with heavier speculation cost here.",
        config="iprouter",
        traffic=lambda seed: gen.even_blocks(seed, flows=7),
        profile="fdd",
        update="churn",
        steady=False,
    ),
    Workload(
        name="iprouter_shard2",
        why="Plain IP router, fast(batch) on 2 process workers, buffered recovery, 64 "
            "flows: hash, handoff, worker and merge do the work, tiering none; the "
            "replay journal grows with uptime, and memory shows it.",
        config="iprouter",
        traffic=lambda seed: gen.even_blocks(seed, flows=64),
        profile="shard2",
        update="routes",
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}
