"""The traced run: a wall-clock Figure 8, obtained from outside.

Per-layer numbers come from three sources, none inside the program:
spans recorded here around the calls into each layer; two *ladders*
of routers run round-robin on the workload's own frames — the stage
ladder (prefix configurations of the forwarding path, whose successive
differences split the per-packet cost that compilation has fused) and
the tier ladder (the same configuration under every execution tier);
and the counters the public reports already expose.  End-to-end
metrics are never taken here."""

import gc
import inspect
import sys
import time

from repro import classifier, core
from repro.configs import firewall as fw
from repro.graph.diff import diff_graphs
from repro.lang.lexer import split_config_args
from repro.net.checksum import internet_checksum
from repro.runtime.codegen_cache import default_cache
from repro.runtime.flowhash import FlowHasher
from repro.runtime.profile import ExecutionProfile
from repro.runtime.shard import SPSCQueue
from repro.sim import fluid
from repro.sim.platforms import P0
from repro.sim.testbed import Testbed

from . import drive, gen, stats

#: Every per-layer metric: (name, unit, better).  A workload to which a
#: metric does not apply reports 0.  Modelled (deterministic) times
#: carry the unit ``model_ns`` to keep them apart from measured ones.
PER_LAYER = (
    ("lang.parse_s", "s", "lower"),
    ("lang.elements", "count", "lower"),
    ("lang.connections", "count", "lower"),
    ("core.optimize_s", "s", "lower"),
    ("core.pass_s.fastclassifier", "s", "lower"),
    ("core.pass_s.xform", "s", "lower"),
    ("core.pass_s.devirtualize", "s", "lower"),
    ("core.xform_replacements", "count", "higher"),
    ("core.devirtualized_classes", "count", "higher"),
    ("core.elements_after", "count", "lower"),
    ("classifier.tree_nodes", "count", "lower"),
    ("classifier.compile_s", "s", "lower"),
    ("classifier.match_ns", "ns", "lower"),
    ("net.build_frame_ns", "ns", "lower"),
    ("net.checksum_ns_64B", "ns", "lower"),
    ("net.checksum_ns_1500B", "ns", "lower"),
    ("elements.build_s", "s", "lower"),
    ("elements.feed_ns_per_frame", "ns", "lower"),
    ("elements.reference_ns_per_pkt", "ns", "lower"),
    ("elements.stage_ns.poll", "ns", "lower"),
    ("elements.stage_ns.classify", "ns", "lower"),
    ("elements.stage_ns.route", "ns", "lower"),
    ("elements.stage_ns.body", "ns", "lower"),
    ("elements.stage_ns.queue", "ns", "lower"),
    ("elements.stage_ns.transmit", "ns", "lower"),
    ("elements.dropped_share", "share", "lower"),
    ("elements.queue_drops", "count", "lower"),
    ("elements.queue_high_water", "count", "lower"),
    ("runtime.fastpath.compile_s", "s", "lower"),
    ("runtime.fastpath.chains", "count", "lower"),
    ("runtime.fastpath.code_bytes", "count", "lower"),
    ("runtime.fastpath.fast_ns_per_pkt", "ns", "lower"),
    ("runtime.fastpath.batch_ns_per_pkt", "ns", "lower"),
    ("runtime.fastpath.stage_ns.poll", "ns", "lower"),
    ("runtime.fastpath.stage_ns.classify", "ns", "lower"),
    ("runtime.fastpath.stage_ns.route", "ns", "lower"),
    ("runtime.fastpath.stage_ns.body", "ns", "lower"),
    ("runtime.fastpath.stage_ns.queue", "ns", "lower"),
    ("runtime.fastpath.stage_ns.transmit", "ns", "lower"),
    ("runtime.fastpath.bytecodes_per_pkt", "count", "lower"),
    ("runtime.fastpath.allocs_per_pkt", "count", "lower"),
    ("runtime.adaptive.adaptive_ns_per_pkt", "ns", "lower"),
    ("runtime.adaptive.warm_s", "s", "lower"),
    ("runtime.adaptive.promoted_chains", "count", "higher"),
    ("runtime.adaptive.recompiles", "count", "lower"),
    ("runtime.adaptive.deopts", "count", "lower"),
    ("runtime.adaptive.guard_misses", "count", "lower"),
    ("runtime.fdd.fdd_ns_per_pkt", "ns", "lower"),
    ("runtime.fdd.diagrams", "count", "higher"),
    ("runtime.fdd.nodes", "count", "lower"),
    ("runtime.fdd.paths", "count", "lower"),
    ("runtime.fdd.loads_saved", "count", "higher"),
    ("runtime.fdd.diagram_rebuilds", "count", "lower"),
    ("runtime.codegen_cache.hits", "count", "higher"),
    ("runtime.codegen_cache.misses", "count", "lower"),
    ("runtime.codegen_cache.warm_setup_s", "s", "lower"),
    ("runtime.supervisor.overhead_ns_per_pkt", "ns", "lower"),
    ("runtime.flowhash.hash_ns_per_frame", "ns", "lower"),
    ("runtime.flowhash.imbalance", "ratio", "lower"),
    ("runtime.shard.start_s", "s", "lower"),
    ("runtime.shard.close_s", "s", "lower"),
    ("runtime.shard.overhead_ns_per_pkt", "ns", "lower"),
    ("runtime.shard.scale_1to2", "ratio", "higher"),
    ("runtime.shard.dispatched.0", "count", "higher"),
    ("runtime.shard.dispatched.1", "count", "higher"),
    ("runtime.shard.flushed", "count", "higher"),
    ("runtime.shard.queue_high_water", "count", "lower"),
    ("runtime.shard.spsc_ns_per_item", "ns", "lower"),
    ("runtime.shard.journal_entries", "count", "lower"),
    ("runtime.recovery.recover_ms", "ms", "lower"),
    ("runtime.recovery.detect_runs", "count", "lower"),
    ("runtime.recovery.mttr_runs", "count", "lower"),
    ("runtime.recovery.replay_depth", "count", "lower"),
    ("runtime.recovery.recover_ms_per_kframe", "ms", "lower"),
    ("control.kinds.in_place", "count", "higher"),
    ("control.kinds.scoped_swap", "count", "lower"),
    ("control.kinds.full_swap", "count", "lower"),
    ("control.phase_ms.diff", "ms", "lower"),
    ("control.phase_ms.stage", "ms", "lower"),
    ("control.phase_ms.patch", "ms", "lower"),
    ("control.route_update_ms_p50", "ms", "lower"),
    ("control.route_update_ms_p90", "ms", "lower"),
    ("control.route_update_ms_p99", "ms", "lower"),
    ("control.route_update_ms_max", "ms", "lower"),
    ("control.rule_update_ms_p50", "ms", "lower"),
    ("control.rule_update_ms_p90", "ms", "lower"),
    ("control.rule_update_ms_p99", "ms", "lower"),
    ("control.rule_update_ms_max", "ms", "lower"),
    ("control.deopts_per_update", "ratio", "lower"),
    ("control.tier2_window_share", "share", "higher"),
    ("graph.diff_ms", "ms", "lower"),
    ("sim.model_cpu_ns_per_pkt", "model_ns", "lower"),
    ("sim.model_mlffr_pps", "pkt/s", "higher"),
    ("sim.rx_device_ns", "model_ns", "lower"),
    ("sim.forwarding_ns", "model_ns", "lower"),
    ("sim.tx_device_ns", "model_ns", "lower"),
    ("sim.mispredicts_per_pkt", "count", "lower"),
    ("sim.element_entries_per_pkt", "count", "lower"),
    ("sim.transfers_per_pkt", "count", "lower"),
    ("sim.dispatch_model_ns", "model_ns", "lower"),
    ("sim.wall_over_model", "ratio", "lower"),
    ("proc.fwd_ns_per_pkt.med", "ns", "lower"),
    ("proc.fwd_ns_per_pkt.floor", "ns", "lower"),
    ("proc.fwd_ns_per_pkt.p90", "ns", "lower"),
    ("proc.fwd_ns_per_pkt.min", "ns", "lower"),
    ("proc.spin_ns_per_iter", "ns", "lower"),
    ("proc.windows", "count", "higher"),
    ("proc.cpu_share", "share", "higher"),
    ("proc.gc_collections", "count", "lower"),
    ("proc.trace_overhead", "ratio", "lower"),
    ("proc.trace_self_share", "share", "higher"),
)

TIERS = ("reference", "fast", "batch", "tiered", "fdd", "supervised")
KILLS = (1, 0, 1)  # workers killed, in order, on the sharded workload
HEAL_RUNS = 64  # a kill must heal within this many scheduler runs
LADDER_ROUNDS = 5  # at least this many rounds of every ladder
#: How a traced run splits ``--seconds``: the workload's own steady
#: windows, the tier ladder, and each of the two stage ladders.
MAIN_SHARE, TIER_SHARE, STAGE_SHARE = 0.3, 0.25, 0.125


def tier_profile(tier):
    return {
        "reference": ExecutionProfile.reference,
        "fast": ExecutionProfile.fast,
        "batch": lambda: ExecutionProfile.fast(batch=True),
        "tiered": ExecutionProfile.tiered,
        "fdd": ExecutionProfile.fdd,
        "supervised": lambda: ExecutionProfile.fdd().with_supervision(),
    }[tier]()


def run_ladder(cells, blocks, seconds, tally, tracer, name):
    """Round-robin over ``cells`` (``label -> (plane, expected|None)``)
    on the same frames and window discipline, so a slow phase of the
    host lands on every cell alike.  Returns the median ns per packet
    of each."""
    samples = {label: [] for label in cells}
    stop = time.perf_counter() + seconds
    rounds = 0
    with tracer.span(name):
        while rounds < LADDER_ROUNDS or time.perf_counter() < stop:
            index = rounds % len(blocks)
            for label, (plane, expected) in cells.items():
                window = drive.timed_window(
                    plane, blocks[index],
                    None if expected is None else expected[index],
                    tally, tracer, "%s %s" % (name, label),
                )
                samples[label].append(window.ns_per_packet)
            rounds += 1
    return {label: stats.median(values) for label, values in samples.items()}


def stage_ladder(workload, profile, inputs, oracle, seconds, tally, tracer, name):
    """Stage costs under ``profile``: the difference of successive
    prefix medians, so the six sum to the full router's median by
    construction."""
    cells = {}
    with tracer.span(name + ".build"):
        for stage, text in workload.ladder():
            if text is None:
                continue
            plane = drive.build_plane(workload, tracer, profile, text=text)
            plane.forward(inputs.warm)
            cells[stage] = (plane, oracle.steady if stage == "transmit" else None)
    medians = run_ladder(cells, inputs.blocks, seconds, tally, tracer, name)
    costs, previous = {}, 0.0
    for stage in gen.STAGES:
        if stage in medians:
            costs[stage] = medians[stage] - previous
            previous = medians[stage]
        else:
            costs[stage] = 0.0
    return costs


def tier_ladder(workload, inputs, oracle, seconds, tally, tracer):
    """The workload's configuration under every tier, one plane each.
    Returns ``(medians, planes)``."""
    cells = {}
    with tracer.span("ladder.tiers.build"):
        for tier in TIERS:
            if tier == "fast":
                default_cache().clear()  # so its compile report is a cold one
            plane = drive.build_plane(workload, tracer, tier_profile(tier))
            plane.forward(inputs.warm)
            cells[tier] = (plane, oracle.steady)
    medians = run_ladder(cells, inputs.blocks, seconds, tally, tracer, "ladder.tiers")
    return medians, {tier: plane for tier, (plane, _expected) in cells.items()}


def count_bytecodes(function):
    """Bytecode instructions executed by ``function()`` in Python
    frames, by opcode tracing."""
    count = 0

    def trace(frame, event, _argument):
        nonlocal count
        if event == "call":
            frame.f_trace_opcodes = True
        elif event == "opcode":
            count += 1
        return trace

    sys.settrace(trace)
    try:
        function()
    finally:
        sys.settrace(None)
    return count


def per_call_ns(function, arguments, repeat=3):
    """Best-of-``repeat`` mean nanoseconds of ``function(argument)``."""
    best = None
    for _ in range(repeat):
        start = time.perf_counter()
        for argument in arguments:
            function(argument)
        elapsed = (time.perf_counter() - start) * 1e9 / len(arguments)
        best = elapsed if best is None else min(best, elapsed)
    return best


def classifier_layer(workload, inputs, tracer):
    """The workload's classifier compiled and called directly."""
    frames = [frame for _device, frame in inputs.blocks[0]]
    with tracer.span("classifier.compile"):
        start = time.perf_counter()
        if workload.config == "firewall":
            tree = classifier.compile_filter_rules(fw.firewall_rule_strings())
            frames = [frame[14:] for frame in frames]  # IPFilter sits behind Strip(14)
        else:
            tree = classifier.compile_patterns(split_config_args(gen.CLASSIFIER_PATTERNS))
        compiled = classifier.compile_tree(tree)
        seconds = time.perf_counter() - start
    with tracer.span("classifier.match"):
        match_ns = per_call_ns(compiled, frames)
    return {
        "classifier.tree_nodes": len(compiled.tree.exprs),
        "classifier.compile_s": seconds,
        "classifier.match_ns": match_ns,
    }


def net_layer(workload, tracer):
    with tracer.span("net.micro"):
        if workload.config == "firewall":
            build = per_call_ns(lambda rule: gen.firewall_frame(rule, 64),
                                list(range(len(gen.FIREWALL_TEMPLATES))) * 20)
        else:
            build = per_call_ns(lambda sequence: gen.udp_frame(sequence % 2, 1000, sequence),
                                list(range(400)))
        return {
            "net.build_frame_ns": build,
            "net.checksum_ns_64B": per_call_ns(internet_checksum, [bytes(range(64))] * 400),
            "net.checksum_ns_1500B": per_call_ns(internet_checksum, [bytes(1500)] * 100),
        }


def shard_micro(inputs, tracer):
    """Flow hashing and the handoff queue on their own."""
    frames = [frame for block in inputs.blocks for _device, frame in block]
    with tracer.span("shard.micro"):
        hasher = FlowHasher(2)
        counts = [0, 0]
        for frame in frames:
            counts[hasher(frame)] += 1
        queue = SPSCQueue(256)

        def through(item):
            queue.put(item)
            queue.get()

        return {
            "runtime.flowhash.hash_ns_per_frame": per_call_ns(hasher, frames[:4000]),
            "runtime.flowhash.imbalance": max(counts) * 2.0 / len(frames),
            "runtime.shard.spsc_ns_per_item": per_call_ns(through, frames[:4000]),
        }


def graph_layer(workload, tracer):
    """``diff_graphs`` on the workload's configuration against the
    same configuration with one table rewritten."""
    old = core.load_config(workload.text())
    if workload.config == "firewall":
        new = core.load_config(gen.firewall_text(gen.firewall_update(0, 0)))
    else:
        new = core.load_config(gen.iprouter_text(routes=gen.route_update(0, 0)))
    with tracer.span("graph.diff"):
        best = per_call_ns(lambda _index: diff_graphs(old, new), range(20))
    return {"graph.diff_ms": best / 1e6}


def sim_layer(oracle, reference_ns):
    report = oracle.cpu_report
    model_ns = report.true_total_ns + P0.pio_overhead_ns
    dispatch = inspect.signature(Testbed.sharded_mlffr).parameters["dispatch_ns"].default
    return {
        "sim.model_cpu_ns_per_pkt": model_ns,
        "sim.model_mlffr_pps": fluid.mlffr(model_ns, P0),
        "sim.rx_device_ns": report.rx_device_ns,
        "sim.forwarding_ns": report.forwarding_ns,
        "sim.tx_device_ns": report.tx_device_ns,
        "sim.mispredicts_per_pkt": report.mispredicts_per_packet,
        "sim.element_entries_per_pkt": report.element_entries_per_packet,
        "sim.transfers_per_pkt": report.transfers_per_packet,
        "sim.dispatch_model_ns": dispatch,
        "sim.wall_over_model": reference_ns / model_ns,
    }


def control_layer(phases, deopts, tier2_windows):
    values = {}
    kinds = {"in-place": 0, "scoped-swap": 0, "full-swap": 0}
    phase_ms = {"diff": 0.0, "stage": 0.0, "patch": 0.0}
    for report in phases.reports:
        kinds[report.kind] = kinds.get(report.kind, 0) + 1
        for name in phase_ms:
            phase_ms[name] += report.phases.get(name, 0.0) * 1e3
    for kind, count in kinds.items():
        values["control.kinds.%s" % kind.replace("-", "_")] = count
    applied = max(1, len(phases.reports))
    for name, total in phase_ms.items():
        values["control.phase_ms.%s" % name] = total / applied
    for label, kind in (("route", "routes"), ("rule", "rules")):
        samples = phases.updates[kind].measured
        for tag, fraction in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99), ("max", 1.0)):
            values["control.%s_update_ms_%s" % (label, tag)] = (
                stats.percentile(samples, fraction) if samples else 0.0
            )
    values["control.deopts_per_update"] = deopts / applied
    values["control.tier2_window_share"] = (
        sum(tier2_windows) / len(tier2_windows) if tier2_windows else 0.0
    )
    return values


def adaptive_layer(plane):
    """Counters of the tiered engine and its diagrams, from the public
    reports of the plane that ran the workload."""
    engine = None if plane.sharded else plane.router.adaptive
    if engine is None:
        return {}
    profile = engine.profile_report().as_dict()
    values = {
        "runtime.adaptive.promoted_chains":
            sum(1 for chain in profile["chains"].values() if chain["tier"] == 2),
        "runtime.adaptive.recompiles": profile["recompiles"],
        "runtime.adaptive.deopts": len(profile["deopts"]),
        "runtime.adaptive.guard_misses": sum(profile["guard_misses"].values()),
    }
    if hasattr(engine, "diagram_report"):
        diagrams = engine.diagram_report()
        totals = diagrams["totals"]
        values.update({
            "runtime.fdd.diagrams": totals["diagrams"],
            "runtime.fdd.nodes": totals["nodes"],
            "runtime.fdd.paths": totals["paths"],
            "runtime.fdd.loads_saved": totals["loads_saved"],
            "runtime.fdd.diagram_rebuilds": diagrams["rebuilds"],
        })
    return values


def core_layer(report):
    if report is None:
        return {}
    values = {"core.optimize_s": report.total_seconds}
    for record in report:
        if record.name in ("fastclassifier", "xform", "devirtualize"):
            values["core.pass_s.%s" % record.name] = record.seconds
        if record.name == "xform":
            values["core.xform_replacements"] = record.elements_before - record.elements_after
        if record.name == "devirtualize":
            values["core.devirtualized_classes"] = len(record.classes_added)
        values["core.elements_after"] = record.elements_after
    return values


def heal_after_kill(plane, worker, tally, tracer):
    """Kill one worker and drive the scheduler until the recovery
    report shows no shard down and one more restart.  Returns the wall
    milliseconds from kill to healed, or None."""
    router = plane.router
    before = router.report().as_dict()["recovery"]["restarts"]
    with tracer.span("shard.kill_heal"):
        start = time.perf_counter()
        router.kill_worker(worker)
        healed = False
        for _ in range(HEAL_RUNS):
            router.run_tasks(1)
            recovery = router.report().as_dict()["recovery"]
            if not recovery["down"] and recovery["restarts"] == before + 1:
                healed = True
                break
        elapsed = time.perf_counter() - start
    tally.record(1, healed, "kill of worker %d not healed in %d runs" % (worker, HEAL_RUNS))
    return elapsed * 1e3 if healed else None


def recovery_layer(plane, heal_ms, dispatched_at_kill):
    recovery = plane.router.report().as_dict()["recovery"]
    healed = [value for value in heal_ms if value is not None]
    per_kframe = [
        ms * 1e3 / frames
        for ms, frames in zip(heal_ms, dispatched_at_kill)
        if ms is not None and frames
    ]
    depths = recovery["replay_depths"]
    return {
        "runtime.recovery.recover_ms": stats.median(healed) if healed else 0.0,
        "runtime.recovery.detect_runs": _mean(recovery["detection_latency_runs"]),
        "runtime.recovery.mttr_runs": _mean(recovery["mttr_runs"]),
        "runtime.recovery.replay_depth": depths[-1] if depths else 0,
        "runtime.recovery.recover_ms_per_kframe": _mean(per_kframe),
        "runtime.shard.journal_entries": depths[-1] if depths else 0,
    }


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def mean_duration(tracer, name):
    """Mean duration of the closed spans called ``name`` (0 if none)."""
    return _mean([end - start for span, start, end, _parent in tracer.spans
                  if span == name and end is not None])


def traced_phases(workload, plane, inputs, oracle, seconds, counts, tally, tracer):
    """The workload itself with spans recorded: on the sharded plane
    three kill -> heal cycles at the fixed uptime, then rounds of
    ``seconds / ROUNDS`` of steady windows, each closed by a burst of
    updates.  Alternate rounds record spans or not; the ratio of their
    windows is the tracing overhead.  Returns ``(phases, values)``."""
    phases = drive.Phases(workload, plane, inputs, oracle, tally, tracer)
    traced, untraced, tier2_windows = [], [], []
    heal_ms, dispatched_at_kill = [], []
    values = {}

    def engine(counter):
        return adaptive_layer(plane).get("runtime.adaptive." + counter, 0)

    deopts_before = engine("deopts")
    with tracer.span("phase.workload"):
        if workload.sharded:
            phases.steady(windows=counts.uptime_windows)
            for worker in KILLS:
                dispatched_at_kill.append(
                    plane.router.report().as_dict()["dispatched"][worker])
                heal_ms.append(heal_after_kill(plane, worker, tally, tracer))
                phases.steady(windows=len(inputs.blocks))  # the healed plane forwards
        for round_number in range(drive.ROUNDS):
            tracer.enabled = round_number % 2 == 0
            bucket = traced if tracer.enabled else untraced
            seen = [len(samples) for samples in phases.forwarding()]
            if workload.steady:
                phases.steady(until=time.perf_counter() + seconds / drive.ROUNDS)
                tracer.enabled = True
            if round_number == 0:
                values.update(adaptive_layer(plane))  # warm, before any update
            for _ in range(max(1, counts.burst_updates // 2)):
                tier2_windows.append(1.0 if engine("promoted_chains") else 0.0)
                phases.churn(updates=1)
            tracer.enabled = True
            for samples, count in zip(phases.forwarding(), seen):
                bucket.extend(samples.iterations[count:])
        phases.churn_window()
    final = adaptive_layer(plane)
    final.pop("runtime.adaptive.promoted_chains", None)  # keep the warm reading
    values.update(final)
    values.update(control_layer(phases, engine("deopts") - deopts_before, tier2_windows))
    values["proc.trace_overhead"] = stats.median(traced) / stats.median(untraced)
    if workload.sharded:
        values.update(recovery_layer(plane, heal_ms, dispatched_at_kill))
        report = plane.router.report().as_dict()
        values.update({
            "runtime.shard.dispatched.0": report["dispatched"][0],
            "runtime.shard.dispatched.1": report["dispatched"][1],
            "runtime.shard.flushed": report["flushed"],
            "runtime.shard.queue_high_water": max(report["queue_high_water"] or [0]),
        })
    return phases, values


def proc_layer(phases, oracle, collections):
    windows = phases.forwarding()
    everything = [ns for samples in windows for ns in samples.measured]
    median = drive.over_blocks(windows, stats.median)
    return {
        "proc.fwd_ns_per_pkt.med": median,
        "proc.fwd_ns_per_pkt.floor": drive.over_blocks(windows, stats.floor),
        "proc.fwd_ns_per_pkt.p90": drive.over_blocks(
            windows, lambda samples: stats.percentile(samples, 0.9)),
        "proc.fwd_ns_per_pkt.min": min(everything),
        "proc.spin_ns_per_iter":
            median / drive.over_blocks(windows, stats.median, calibrated=True),
        "proc.windows": len(everything),
        "proc.cpu_share": phases.cpu_seconds / phases.wall_seconds,
        "proc.gc_collections": collections,
        "elements.feed_ns_per_frame": phases.feed_seconds * 1e9 / phases.frames,
        "elements.dropped_share": 1.0 - oracle.forwarded / oracle.offered,
        "elements.queue_drops": oracle.queue["drops"],
        "elements.queue_high_water": oracle.queue["high_water"],
    }


def fastpath_layer(tiers, planes, local, block):
    """Tier medians, the static compile's report and, on the compiled
    plane of the workload's own tier, instructions and allocations per
    packet."""
    fast = planes["fast"].router.fastpath
    plane = planes["fdd" if local.mode == "fdd" else "batch"]
    passes = drive.iterations_for(len(block))
    plane.feed(block)
    bytecodes = count_bytecodes(lambda: plane.router.run_tasks(passes))
    plane.take()
    plane.feed(block)
    gc.disable()
    before = sys.getallocatedblocks()
    plane.router.run_tasks(passes)
    allocated = sys.getallocatedblocks() - before
    gc.enable()
    plane.take()
    return {
        "elements.reference_ns_per_pkt": tiers["reference"],
        "runtime.fastpath.fast_ns_per_pkt": tiers["fast"],
        "runtime.fastpath.batch_ns_per_pkt": tiers["batch"],
        "runtime.adaptive.adaptive_ns_per_pkt": tiers["tiered"],
        "runtime.fdd.fdd_ns_per_pkt": tiers["fdd"],
        "runtime.supervisor.overhead_ns_per_pkt": tiers["supervised"] - tiers["fdd"],
        "runtime.fastpath.compile_s": fast.report.compile_seconds,
        "runtime.fastpath.chains": fast.report.push_chains + fast.report.pull_chains,
        "runtime.fastpath.code_bytes": len(fast.source),
        "runtime.fastpath.bytecodes_per_pkt": bytecodes / len(block),
        "runtime.fastpath.allocs_per_pkt": allocated / len(block),
    }


def run_traced(workload, seed, seconds, tracer):
    """One traced run: every per-layer metric of one workload, as
    ``name -> value`` (see :func:`finish`)."""
    values = {name: 0.0 for name, _unit, _better in PER_LAYER}
    tally = drive.Tally()
    with tracer.span("harness.generate"):
        inputs = drive.Inputs(workload, seed)
    with tracer.span("oracle.reference"):
        oracle = drive.Oracle(workload, inputs, tracer)
    plain = core.load_config(workload.text())
    values["lang.elements"] = len(plain.elements)
    values["lang.connections"] = len(plain.connections)
    values.update(core_layer(drive.load_graph(workload, tracer)[1]))

    # Set-up: two cold, then one with the codegen cache left warm.
    with tracer.span("setup.cold"):
        plane, _seconds = drive.cold_setups(workload, inputs, oracle, tally, tracer, count=2)
        plane.close()
    values["lang.parse_s"] = mean_duration(tracer, "lang.parse")
    values["elements.build_s"] = mean_duration(tracer, "elements.build")
    values["runtime.adaptive.warm_s"] = mean_duration(tracer, "warm")
    with tracer.span("setup.warm_cache"):
        start = time.perf_counter()
        plane = drive.build_plane(workload, tracer, workload.execution_profile())
        out = plane.forward(inputs.warm)
        values["runtime.codegen_cache.warm_setup_s"] = time.perf_counter() - start
    tally.record(len(inputs.warm), drive.same_wire(out, oracle.warm, plane.sharded),
                 "warm-cache set-up: the wire differs")
    values["runtime.shard.start_s"] = mean_duration(tracer, "shard.start")

    gc.collect()
    gc.freeze()
    collections = sum(generation["collections"] for generation in gc.get_stats())
    try:
        phases, measured = traced_phases(
            workload, plane, inputs, oracle, seconds * MAIN_SHARE, drive.Counts(seconds),
            tally, tracer)
    finally:
        tracer.enabled = True
        gc.unfreeze()
        with tracer.span("shard.close" if workload.sharded else "plane.close"):
            plane.close()
    values.update(measured)
    values["runtime.shard.close_s"] = mean_duration(tracer, "shard.close")
    collections = sum(generation["collections"] for generation in gc.get_stats()) - collections
    values.update(proc_layer(phases, oracle, collections))

    # The ladders run single planes, under the shard-local profile.
    local = workload.execution_profile().shard_local()
    tiers, planes = tier_ladder(workload, inputs, oracle, seconds * TIER_SHARE, tally, tracer)
    values.update(fastpath_layer(tiers, planes, local, inputs.churn_blocks[0]))
    del planes
    if workload.sharded:
        median = values["proc.fwd_ns_per_pkt.med"]
        values["runtime.shard.overhead_ns_per_pkt"] = median - tiers["batch"]
        values["runtime.shard.scale_1to2"] = tiers["batch"] / median
    for layer, profile in (("elements", ExecutionProfile.reference()),
                           ("runtime.fastpath", local)):
        costs = stage_ladder(workload, profile, inputs, oracle, seconds * STAGE_SHARE, tally,
                             tracer, "ladder.stages.%s" % profile.mode)
        for stage, cost in costs.items():
            values["%s.stage_ns.%s" % (layer, stage)] = cost

    values.update(classifier_layer(workload, inputs, tracer))
    values.update(net_layer(workload, tracer))
    values.update(shard_micro(inputs, tracer))
    values.update(graph_layer(workload, tracer))
    values.update(sim_layer(oracle, tiers["reference"]))
    cache = default_cache().stats()
    values["runtime.codegen_cache.hits"] = cache["hits"]
    values["runtime.codegen_cache.misses"] = cache["misses"]
    return values, tally


def finish(values, tracer):
    """Add the one metric that needs the closed root span and give
    every value its unit: ``name -> (value, unit)``."""
    root = next(index for index, span in enumerate(tracer.spans) if span[3] is None)
    _name, start, end, _parent = tracer.spans[root]
    values["proc.trace_self_share"] = 1.0 - tracer.self_times()[root] / (end - start)
    return {name: (values[name], unit) for name, unit, _better in PER_LAYER}
