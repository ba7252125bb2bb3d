"""The search driver: seeded random + successive halving.

Parasol's recipe, sized for a cost-model objective: draw a seeded
random population over the valid region of the knob space, rank it
cheaply (the closed-form effective cost), halve into the fluid-model
MLFFR for the survivors, then validate the finalists on the
time-stepped hardware simulator and a byte-equivalence run against the
reference interpreter.  The shipped defaults are always candidate 0
and are exempt from halving, so the winner can never score below the
defaults — tuning is monotone by construction.

Inert knobs (shard capacities at one worker, the FDD budget outside
FDD mode, supervisor knobs when unsupervised) are canonicalized back
to their defaults before dedup, so the search never wastes budget
distinguishing assignments the runtime cannot tell apart.
"""

from __future__ import annotations

import math
import random

from .artifact import TunedProfile
from .objective import CostModel
from .space import default_space
from .workloads import workload as _workload

__all__ = ["SearchReport", "tune"]

#: Successive-halving keep fraction (1/eta survive each rung).
ETA = 3
#: Finalists validated on the expensive stage.
FINALISTS = 3


class SearchReport:
    """Per-rung accounting for one :func:`tune` run (how many
    candidates each stage saw and kept, plus the seed and budget that
    reproduce it)."""

    def __init__(self, seed, budget):
        self.seed = seed
        self.budget = budget
        self.rungs = []

    def rung(self, name, evaluated, kept):
        """Record one rung's evaluated/kept counts."""
        self.rungs.append({"name": name, "evaluated": evaluated, "kept": kept})

    def as_dict(self):
        """JSON-safe form (embedded in the artifact)."""
        return {"seed": self.seed, "budget": self.budget, "rungs": list(self.rungs)}


def _canonicalize(space, params, mode, workers, supervised):
    """Reset knobs the regime cannot express back to their defaults."""
    defaults = space.defaults()
    canonical = dict(params)
    canonical["shard.workers"] = workers
    if workers <= 1:
        for name in ("shard.queue_capacity", "shard.chunk_frames"):
            canonical[name] = defaults[name]
    if mode != "fdd":
        canonical["fdd.node_budget"] = defaults["fdd.node_budget"]
    if mode in ("reference", "fast"):
        for name in defaults:
            if name.startswith("adaptive."):
                canonical[name] = defaults[name]
    if mode == "reference":
        canonical["batch"] = False
    if not supervised:
        for name in defaults:
            if name.startswith("supervisor."):
                canonical[name] = defaults[name]
    return canonical


def _profile_for(mode, params, supervised):
    """The single-plane ExecutionProfile a finalist runs under."""
    from ..runtime import ExecutionProfile

    if mode == "adaptive":
        profile = ExecutionProfile.tiered()
    elif mode == "fdd":
        profile = ExecutionProfile.fdd()
    else:
        profile = ExecutionProfile(mode=mode)
    if supervised:
        profile = profile.with_supervision()
    return profile.with_tuning(params)


def _wire_identical(subject, mode, params, supervised, packets=512):
    """True when the tuned profile forwards byte-identical traffic to
    the reference interpreter on the workload (single plane; the shard
    contract is the fuzz oracle's job)."""
    from ..runtime import ExecutionProfile

    router, devices, frames = subject.build(ExecutionProfile.reference())
    reference = subject.drive(router, devices, frames, packets)
    router, devices, frames = subject.build(_profile_for(mode, params, supervised))
    tuned = subject.drive(router, devices, frames, packets)
    return tuned == reference


def _timestep_outcome(subject, effective_ns, score, params):
    """Run the finalist's operating point through the time-stepped
    simulator at 90% of its modeled MLFFR; returns a JSON-safe summary
    including whether the point held (approximately) loss-free."""
    from ..sim.timestep import simulate

    rate = 0.9 * score
    outcome = simulate(
        rate,
        effective_ns,
        subject.platform,
        duration_s=0.02,
        queue_capacity=params.get("shard.queue_capacity"),
    )
    return {
        "input_rate_pps": round(rate, 1),
        "sent_pps": round(outcome.sent, 1),
        "loss_free": outcome.sent >= 0.85 * rate,
    }


def tune(
    workload,
    mode="adaptive",
    seed=0,
    budget=24,
    workers=1,
    shard_backend="thread",
    supervised=False,
    validate=True,
):
    """Search the runtime knob space for ``workload``; returns a
    :class:`~repro.tune.artifact.TunedProfile`.

    ``workload`` is a name (``iprouter``/``firewall``) or a
    :class:`~repro.tune.workloads.Workload`.  ``budget`` bounds the
    population size; ``seed`` makes the whole run reproducible (same
    seed, same artifact).  ``validate=False`` skips the expensive
    finalist stage (the CI smoke path still gets the model-ranked
    winner)."""
    subject = _workload(workload) if isinstance(workload, str) else workload
    if budget < 1:
        raise ValueError("budget must be >= 1, not %d" % budget)
    space = default_space(workers=workers)
    model = CostModel(
        subject,
        mode=mode,
        workers=workers,
        shard_backend=shard_backend,
        supervised=supervised,
    )
    rng = random.Random(seed)
    report = SearchReport(seed, budget)

    # Population: defaults first (index 0 survives every rung), then
    # seeded random draws, canonicalized and deduplicated.
    candidates = [space.defaults()]
    seen = {repr(sorted(candidates[0].items()))}
    draws = 0
    while len(candidates) < budget and draws < budget * 20:
        draws += 1
        drawn = _canonicalize(
            space, space.sample(rng), mode, workers, supervised
        )
        space.validate(drawn)
        fingerprint = repr(sorted(drawn.items()))
        if fingerprint in seen:  # tiny effective spaces draw duplicates
            continue
        seen.add(fingerprint)
        candidates.append(drawn)

    # Rung 0: closed-form effective cost (cheapest; whole population).
    costs = [model.effective_ns(params) for params in candidates]
    keep = max(FINALISTS, int(math.ceil(len(candidates) / ETA)))
    ranked = sorted(range(len(candidates)), key=lambda index: (costs[index], index))
    survivors = sorted(set(ranked[:keep]) | {0})
    report.rung("effective-cost", len(candidates), len(survivors))

    # Rung 1: fluid-model MLFFR for the survivors.  On an I/O-bound
    # platform every sub-knee candidate forwards at the same loss-free
    # rate, so ties break toward CPU headroom (lower effective cost).
    scores = {index: model.score(candidates[index]) for index in survivors}
    rank_key = lambda index: (-scores[index], costs[index], index)  # noqa: E731
    ranked = sorted(survivors, key=rank_key)
    finalists = sorted(set(ranked[:FINALISTS]) | {0})
    report.rung("fluid-mlffr", len(survivors), len(finalists))

    # Rung 2: expensive validation — time-stepped simulation of the
    # operating point and byte-equivalence against the reference.
    validation = {}
    if validate:
        checked = []
        for index in finalists:
            params = candidates[index]
            if not _wire_identical(subject, mode, params, supervised):
                continue  # never emit a semantics-changing assignment
            checked.append(index)
        finalists = checked or [0]
        report.rung("validate", len(checked) or 1, len(finalists))

    winner = min(finalists, key=rank_key)
    params = candidates[winner]
    score = scores[winner]
    baseline = scores[0]
    if validate:
        validation = {
            "wire_identical": True,
            "timestep": _timestep_outcome(subject, costs[winner], score, params),
        }
    search = report.as_dict()
    search["effective_ns"] = round(costs[winner], 1)
    search["baseline_effective_ns"] = round(costs[0], 1)
    return TunedProfile(
        subject.name,
        subject.fingerprint(),
        mode,
        params,
        round(score, 1),
        baseline_score=round(baseline, 1),
        workers=workers,
        supervised=supervised,
        search=search,
        validation=validation,
    )
