"""``click-chaos``: seeded chaos testing of the supervised runtime.

The differential fuzzer (:mod:`repro.verify.cli`) hunts divergence on
*healthy* runs.  This harness hunts it on *faulted* runs: a seeded
:class:`repro.sim.faults.FaultPlan` flaps devices, corrupts frames and
raises injected exceptions inside elements while a stock trace plays —
under every execution mode, each supervised by
:class:`repro.runtime.supervisor.Supervisor`.

The contract being checked is the resilience guarantee:

- **no crash** — a supervised router survives any plan; an escaped
  exception in any mode is a harness failure (kind ``crash``);
- **byte equivalence** — every mode transmits byte-identical frames.
  Only transmitted bytes compare (unlike click-fuzz, counters do not:
  the supervisor's tier bookkeeping differs per mode, and fault
  wrappers perturb handler call counts in mode-specific places — the
  wire is the contract).

Chaos runs skip the optimized axis on purpose: the optimizers rename
and merge elements, so a plan's element names would silently stop
matching.

Everything is deterministic: plans derive from ``--seed``, fault ticks
advance once per ``["run"]`` trace event, and count-based faults hit
the same packet in every mode.

``shard-*`` modes pull the sharded data plane into the torture matrix.
Two rules change with them: the plan must be *sharded-safe*
(``FaultPlan.seeded(..., sharded=True)`` replaces count-ordered
element errors — which a partitioned plane cannot order — with a
``worker_crash`` fault, the device-failure analog that kills one shard
worker mid-trace and forces a journal replay; ``worker_crash`` is a
no-op on plain routers, so one plan stays valid for the whole matrix),
and the wire check weakens to the sharding contract (per-flow
byte-identical, per-device multiset-identical).

``--recovery`` switches to the *self-healing* harness
(:mod:`repro.runtime.recovery`): instead of the mode matrix, each case
runs three scripted outage scenarios — a ``crash-storm`` (repeated
worker kills, one landing mid-commit inside a two-phase update), a
``hang`` (a wedged worker the watchdog/heartbeat deadline must catch),
and a ``crash-loop`` (a poison frame that kills its shard on every
replay until quarantine strips it) — against the sharded plane under a
recovery policy, with zero operator intervention.  The wire check is
the degraded contract
(:func:`repro.verify.oracle.degraded_transmit_difference`): no frame
lost or duplicated, strict per-flow order except for flows the outage
actually re-homed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from ..sim.faults import FaultPlan
from .genconfig import stock_cases
from .oracle import (
    MODES,
    SHARD_MODES,
    degraded_transmit_difference,
    device_names,
    first_transmit_difference,
    lossy_overflow_skip,
    mode_profile,
    run_case,
    sharded_transmit_difference,
)

#: Element classes seeded plans never target: device drivers (their
#: faults come from the device side of the plan) and sinks too trivial
#: to fail interestingly.
_PLAN_SKIP_CLASSES = ("PollDevice", "ToDevice")


def element_candidates(config_text):
    """Element names a seeded plan may inject errors into, from the
    flattened graph (stable across modes; excludes device drivers)."""
    from ..core.toolchain import load_config

    graph = load_config(config_text, "<chaos>")
    if graph.element_classes:
        from ..core.flatten import flatten

        graph = flatten(graph)
    return sorted(
        name
        for name, decl in graph.elements.items()
        if decl.class_name not in _PLAN_SKIP_CLASSES
    )


def seeded_plan(case, seed, sharded=False):
    """The deterministic fault plan for one case: drawn from ``seed``
    and the case's own devices, elements, and trace shape.  With
    ``sharded=True`` the plan is sharded-safe (worker crashes instead
    of count-ordered element errors) and remains valid — the crash is a
    no-op — on plain routers."""
    events = case["events"]
    ticks = sum(1 for event in events if event[0] == "run")
    frames = sum(1 for event in events if event[0] == "frame")
    return FaultPlan.seeded(
        seed,
        devices=device_names(case["config"]),
        elements=element_candidates(case["config"]),
        ticks=max(1, ticks),
        events=max(1, frames),
        sharded=sharded,
    )


def compare_chaos(case, plan, modes=None):
    """Run one case under ``plan`` in every mode, supervised, and check
    the resilience contract.

    Returns a JSON-safe dict: ``status`` is ``"ok"``, ``"divergence"``
    (transmitted bytes differ), or ``"crash"`` (an exception escaped the
    supervisor in some mode); ``failures`` lists each violation;
    ``reports`` carries every mode's resilience report."""
    modes = [m for m in (modes or list(MODES)) if m in MODES or m in SHARD_MODES]
    if "reference" not in modes:
        modes = ["reference"] + modes
    failures = []
    skips = []
    reports = {}
    reference = None
    for mode in modes:
        routers = []
        status, payload = run_case(
            case, mode, plan=plan, supervised=True, collect=routers.append
        )
        if routers and getattr(routers[-1], "is_sharded", False):
            # The sharded plane's report aggregates its shards'
            # supervisors (plus crash/replay counts).
            reports[mode] = routers[-1].report().as_dict()
        elif routers and getattr(routers[-1], "supervisor", None) is not None:
            reports[mode] = routers[-1].supervisor.report().as_dict()
        if status == "error":
            failures.append(
                {
                    "mode": mode,
                    "kind": "crash",
                    "detail": "%s: %s" % (payload[0], payload[1]),
                }
            )
            continue
        if mode == "reference":
            reference = payload
            continue
        if reference is None:
            continue  # reference crashed; already recorded
        transmit_diff = (
            sharded_transmit_difference
            if mode in SHARD_MODES
            else first_transmit_difference
        )
        diff = transmit_diff(reference["transmitted"], payload["transmitted"])
        if diff is not None:
            skip = lossy_overflow_skip(reference, payload, diff, mode=mode) if mode in SHARD_MODES else None
            if skip is not None:
                skips.append(skip)
                continue
            failures.append({"mode": mode, "kind": "transmitted", "detail": diff})
    if any(f["kind"] == "crash" for f in failures):
        status = "crash"
    elif failures:
        status = "divergence"
    else:
        status = "ok"
    return {
        "status": status,
        "failures": failures,
        "skips": skips,
        "reports": reports,
        "plan": plan.to_dict(),
    }


# -- self-healing (recovery) harness -------------------------------------------

RECOVERY_PLAN_KINDS = ("crash-storm", "hang", "crash-loop")
RECOVERY_WORKERS = 4
#: Scheduler runs appended to every recovery trace so backoff restarts,
#: buffered redelivery, and quarantine all complete inside the trace.
_RECOVERY_DRAIN_RUNS = 12


def _recovery_config(policy):
    """The :class:`~repro.runtime.recovery.RecoveryConfig` recovery
    scenarios run under: tight detection deadlines (the harness *wants*
    hangs caught inside the trace) and a short backoff ceiling so every
    restart lands within the appended drain runs."""
    from ..runtime.recovery import RecoveryConfig

    return RecoveryConfig(
        policy=policy,
        restart_budget=5,
        backoff_base=1,
        backoff_factor=2.0,
        backoff_limit=4,
        jitter=1,
        watchdog_timeout=0.75,
        heartbeat_timeout=2.0,
        prepare_timeout=2.0,
    )


def recovery_trace(case):
    """The case's trace adapted for recovery runs: one ``update`` event
    (re-applying the case's own configuration) inserted at the midpoint
    run, so a phase="commit" worker kill has a live two-phase commit to
    land in, and trailing ``run`` drains appended so backoff restarts
    and buffered redelivery finish inside the trace."""
    events = [list(event) for event in case["events"]]
    runs = sum(1 for event in events if event[0] == "run")
    halfway, seen, insert_at = max(1, runs // 2), 0, len(events)
    for position, event in enumerate(events):
        if event[0] == "run":
            seen += 1
            if seen >= halfway:
                insert_at = position + 1
                break
    events.insert(insert_at, ["update", case["config"]])
    events.extend([["run", 1] for _ in range(_RECOVERY_DRAIN_RUNS)])
    return events


def recovery_plan(case, kind, seed, workers=RECOVERY_WORKERS):
    """The deterministic fault plan for one self-healing scenario.

    Returns ``(plan, poison_hex)``.  ``poison_hex`` is the armed frame
    for ``crash-loop`` (None otherwise): quarantine drops it from the
    degraded plane's traffic, so the healthy reference must drop it
    from its trace too before the wire comparison.
    """
    import random

    events = recovery_trace(case)
    ticks = sum(1 for event in events if event[0] == "run")
    rng = random.Random("%d/%s/%s" % (seed, kind, case["name"]))
    active = max(4, ticks - _RECOVERY_DRAIN_RUNS)
    if kind == "crash-storm":
        spread = max(1, active // 4)
        faults = [
            {"kind": "worker_kill", "at": spread, "worker": 1 % workers},
            {"kind": "worker_kill", "at": spread * 2, "worker": 2 % workers},
            {"kind": "worker_kill", "at": spread * 3, "worker": 3 % workers},
            # ``at`` counts committed updates (1-based): this one fires
            # inside the inserted update's stage->commit window.
            {"kind": "worker_kill", "at": 1, "phase": "commit", "worker": 0},
        ]
        return FaultPlan(faults, seed=seed, name="recovery-crash-storm"), None
    if kind == "hang":
        faults = [
            {
                "kind": "worker_hang",
                "at": max(1, active // 3),
                "worker": rng.randrange(workers),
                "seconds": 30.0,
            }
        ]
        return FaultPlan(faults, seed=seed, name="recovery-hang"), None
    if kind == "crash-loop":
        frames = [event[2] for event in events if event[0] == "frame"]
        if not frames:
            raise ValueError("case %r has no frame events to poison" % case["name"])
        counts = {}
        for hex_frame in frames:
            counts[hex_frame] = counts.get(hex_frame, 0) + 1
        singles = sorted(set(h for h in frames if counts[h] == 1))
        poison = rng.choice(singles or sorted(set(frames)))
        faults = [{"kind": "worker_poison", "at": 0, "frame": poison}]
        return FaultPlan(faults, seed=seed, name="recovery-crash-loop"), poison
    raise ValueError(
        "unknown recovery plan kind %r (choose from %s)"
        % (kind, ", ".join(RECOVERY_PLAN_KINDS))
    )


def _affected_predicate(affected_keys):
    """A predicate over *output* flow keys
    (:func:`~repro.runtime.flowhash.output_flow_key` tuples) matching
    every flow whose *dispatch* key the recovery manager re-homed.

    Dispatch keys are ``flow_key`` bytes; output groups refine them, so
    the mapping is reconstructed per group kind.  Fragment groups lose
    the original datagram's ports, so they match on the portless
    10-byte prefix — conservative (may mark a sibling flow affected,
    weakening its check to multiset-only) but never misses a flow that
    really was re-homed.
    """
    keys = {bytes(key) for key in affected_keys}
    prefixes = {key[:10] for key in keys if key[:1] == b"\x04"}

    def predicate(flow):
        kind = flow[0]
        if kind == "ip":
            key = b"\x04" + bytes((flow[1],)) + flow[2]
            if len(flow) > 3:
                key += flow[3]
            return key in keys or key[:10] in prefixes
        if kind == "frag":
            return (b"\x04" + bytes((flow[2],)) + flow[1])[:10] in prefixes
        if kind == "icmperr":
            proto, addrs, ports = flow[1]
            key = b"\x04" + bytes((proto,)) + addrs + ports
            return key in keys or key[:10] in prefixes
        return bytes(flow[1][:14]) in keys
    return predicate


def _recovery_shortfall(kind, checks):
    """The scenario's own success bar, beyond the wire contract: did
    the machinery under test actually fire?"""
    if kind == "crash-storm":
        if checks["detections"] < 3:
            return "crash-storm: only %d worker death(s) detected (expected >= 3)" % checks["detections"]
        if checks["restarts"] < 1:
            return "crash-storm: no shard ever restarted"
    elif kind == "hang":
        if checks["detections"] < 1:
            return "hang: the wedged worker was never detected"
        if checks["restarts"] < 1:
            return "hang: the wedged worker never restarted"
    elif kind == "crash-loop":
        if checks["quarantined"] < 1:
            return "crash-loop: the poison frame was never quarantined"
        if checks["restarts"] < 1:
            return "crash-loop: the poisoned shard never came back"
    return None


def compare_recovery(
    case, kind, policy="resteer", backend="thread", seed=1, workers=RECOVERY_WORKERS, collect=None
):
    """Run one self-healing scenario and check the degraded contract.

    The faulted sharded plane (``workers`` shards on ``backend``, with
    automatic recovery under ``policy``) must transmit the same frame
    multiset as a *healthy* single-plane reference — byte-identical per
    flow except where re-steering is allowed to break order — and the
    scenario's recovery machinery (detection, restart, quarantine) must
    actually have fired.  Zero operator intervention: nobody calls
    ``crash_worker``; the recovery manager does all the healing.

    Returns a JSON-safe dict shaped like :func:`compare_chaos` results,
    plus ``kind``/``policy``/``backend``/``checks`` and the sharded
    plane's full report; a failing one also carries ``cases``, each
    shard's journal as an oracle case (``ShardedRouter.export_case``).
    ``collect`` is called with the closed plane, as by ``run_case``.
    """
    if policy not in ("buffer", "resteer"):
        raise ValueError(
            "recovery scenarios need a non-fatal policy (buffer or resteer), not %r" % policy
        )
    plan, poison_hex = recovery_plan(case, kind, seed, workers=workers)
    events = recovery_trace(case)
    recovery_case = dict(case, events=events)
    reference_case = dict(
        case,
        events=[
            event
            for event in events
            if not (poison_hex is not None and event[0] == "frame" and event[2] == poison_hex)
        ],
    )
    mode = "shard-%s" % backend
    failures = []
    skips = []
    checks = {}
    report = None

    ref_status, reference = run_case(reference_case, "reference")
    if ref_status == "error":
        failures.append(
            {"mode": "reference", "kind": "crash", "detail": "%s: %s" % (reference[0], reference[1])}
        )

    profile = (
        mode_profile("shard-fast")  # the oracle's small dispatch round
        .with_workers(workers, backend)
        .with_recovery(config=_recovery_config(policy))
    )
    routers = []
    status, payload = run_case(
        recovery_case, "fast", plan=plan, profile=profile, collect=routers.append
    )
    affected = None
    if routers:
        router = routers[-1]
        if collect is not None:
            collect(router)
        report = router.report().as_dict()
        manager = getattr(router, "_recovery", None)
        if manager is not None and manager.affected_flows:
            affected = _affected_predicate(manager.affected_flows)
    if status == "error":
        failures.append(
            {"mode": mode, "kind": "crash", "detail": "%s: %s" % (payload[0], payload[1])}
        )
    elif ref_status == "ok":
        diff = degraded_transmit_difference(
            reference["transmitted"], payload["transmitted"], affected=affected
        )
        if diff is not None:
            skip = lossy_overflow_skip(reference, payload, diff, mode=mode)
            if skip is not None:
                skips.append(skip)
            else:
                failures.append({"mode": mode, "kind": "transmitted", "detail": diff})

    if report is not None:
        recovery_report = report.get("recovery") or {}
        checks = {
            "detections": recovery_report.get("detections", 0),
            "restarts": recovery_report.get("restarts", 0),
            "restart_attempts": recovery_report.get("restart_attempts", 0),
            "benched": len(recovery_report.get("benched", [])),
            "quarantined": len(recovery_report.get("quarantined", [])),
            "frames_resteered": recovery_report.get("frames_resteered", 0),
            "frames_buffered": recovery_report.get("frames_buffered", 0),
            "updates_recommitted": recovery_report.get("updates_recommitted", 0),
        }
        if not any(f["kind"] == "crash" for f in failures):
            shortfall = _recovery_shortfall(kind, checks)
            if shortfall:
                failures.append({"mode": mode, "kind": "recovery", "detail": shortfall})
    if any(f["kind"] == "crash" for f in failures):
        status = "crash"
    elif failures:
        status = "divergence"
    else:
        status = "ok"
    result = {
        "status": status,
        "kind": kind,
        "policy": policy,
        "backend": backend,
        "failures": failures,
        "skips": skips,
        "checks": checks,
        "report": report,
        "plan": plan.to_dict(),
    }
    if failures and routers:
        result["cases"] = [router.export_case(index) for index in range(workers)]
    return result


# -- CLI -----------------------------------------------------------------------

_CONFIG_CHOICES = ("iprouter", "firewall", "both")


def _parser():
    parser = argparse.ArgumentParser(
        description="Chaos harness: replay seeded fault plans (device "
        "flaps, frame corruption, injected element errors) against the "
        "supervised router under every execution "
        "mode and verify it neither crashes nor diverges on the wire."
    )
    parser.add_argument(
        "--seed", type=int, default=1, help="seed for fault-plan generation"
    )
    parser.add_argument(
        "--config",
        default="both",
        choices=_CONFIG_CHOICES,
        help="which stock configuration(s) to torture (default: %(default)s)",
    )
    parser.add_argument(
        "--modes",
        default=",".join(MODES),
        metavar="LIST",
        help="comma-separated mode matrix (default: %(default)s)",
    )
    parser.add_argument(
        "--events",
        type=int,
        default=96,
        metavar="N",
        help="traffic events per case trace",
    )
    parser.add_argument(
        "--plan",
        default=None,
        metavar="FILE",
        help="replay this fault-plan JSON instead of seeding one "
        "(a single plan, or a click-chaos --plan-out mapping)",
    )
    parser.add_argument(
        "--plan-out",
        default=None,
        metavar="FILE",
        help="write the per-case fault plans here (replayable via --plan)",
    )
    parser.add_argument(
        "--report",
        default=None,
        metavar="FILE",
        help="write the JSON run report here (- for stderr)",
    )
    parser.add_argument(
        "--recovery",
        default=None,
        choices=("buffer", "resteer", "both"),
        metavar="POLICY",
        help="run the self-healing harness instead of the mode matrix: "
        "crash-storm/hang/crash-loop scenarios against the sharded plane "
        "under this recovery policy (buffer, resteer, or both); --modes "
        "is ignored in this mode",
    )
    parser.add_argument(
        "--recovery-backend",
        default="thread",
        choices=("thread", "process", "both"),
        help="shard backend(s) the recovery scenarios run on "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--recovery-kinds",
        default=",".join(RECOVERY_PLAN_KINDS),
        metavar="LIST",
        help="comma-separated recovery scenarios (default: %(default)s)",
    )
    return parser


def _parse_modes(spec):
    modes = [m.strip() for m in spec.split(",") if m.strip()]
    unknown = [m for m in modes if m not in MODES and m not in SHARD_MODES]
    if unknown:
        raise SystemExit(
            "click-chaos: unknown mode(s) %s (choose from %s)"
            % (", ".join(unknown), ", ".join(list(MODES) + list(SHARD_MODES)))
        )
    return modes


def _cases(args):
    wanted = {
        "iprouter": ("iprouter-mtu1500",),
        "firewall": ("firewall",),
        "both": ("iprouter-mtu1500", "firewall"),
    }[args.config]
    stock = {case["name"]: case for case in stock_cases(events_count=args.events)}
    return [stock[name] for name in wanted]


def _load_plans(path, cases):
    """A --plan file is either one FaultPlan (applied to every case) or
    a --plan-out mapping ``{"plans": {case name: plan}}``."""
    with open(path) as handle:
        data = json.load(handle)
    if "plans" in data:
        by_name = data["plans"]
        return {
            case["name"]: FaultPlan.from_dict(by_name[case["name"]])
            for case in cases
            if case["name"] in by_name
        }
    plan = FaultPlan.from_dict(data)
    return {case["name"]: plan for case in cases}


def _write_json(dest, payload):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if dest == "-":
        sys.stderr.write(text)
    else:
        with open(dest, "w") as handle:
            handle.write(text)


def _recovery_main(args, cases):
    """The --recovery branch: every case x scenario x policy x backend,
    each checked against the degraded contract with zero operator
    intervention."""
    policies = ("buffer", "resteer") if args.recovery == "both" else (args.recovery,)
    backends = (
        ("thread", "process")
        if args.recovery_backend == "both"
        else (args.recovery_backend,)
    )
    kinds = [k.strip() for k in args.recovery_kinds.split(",") if k.strip()]
    unknown = [k for k in kinds if k not in RECOVERY_PLAN_KINDS]
    if unknown:
        raise SystemExit(
            "click-chaos: unknown recovery scenario(s) %s (choose from %s)"
            % (", ".join(unknown), ", ".join(RECOVERY_PLAN_KINDS))
        )
    started = time.time()
    records = []
    counts = {"ok": 0, "divergence": 0, "crash": 0}
    for case in cases:
        for kind in kinds:
            for policy in policies:
                for backend in backends:
                    result = compare_recovery(
                        case, kind, policy=policy, backend=backend, seed=args.seed
                    )
                    counts[result["status"]] += 1
                    records.append({"name": case["name"], **result})
                    label = "%s/%s/%s/%s" % (case["name"], kind, policy, backend)
                    if result["status"] == "ok":
                        checks = result["checks"]
                        print(
                            "click-chaos: %s healed: %d detection(s), "
                            "%d restart(s), %d benched, %d quarantined"
                            % (
                                label,
                                checks.get("detections", 0),
                                checks.get("restarts", 0),
                                checks.get("benched", 0),
                                checks.get("quarantined", 0),
                            )
                        )
                    else:
                        print(
                            "click-chaos: %s %s: %s"
                            % (
                                label,
                                result["status"].upper(),
                                result["failures"][0]["detail"],
                            )
                        )
    summary = dict(counts)
    summary["scenarios"] = len(records)
    summary["seconds"] = round(time.time() - started, 3)
    print(
        "click-chaos: %(scenarios)d recovery scenario(s): %(ok)d healed, "
        "%(divergence)d divergent, %(crash)d crashed in %(seconds).1fs" % summary
    )
    if args.plan_out:
        _write_json(
            args.plan_out,
            {
                "seed": args.seed,
                "plans": {
                    "%s/%s/%s/%s"
                    % (r["name"], r["kind"], r["policy"], r["backend"]): r["plan"]
                    for r in records
                },
            },
        )
    if args.report:
        _write_json(
            args.report,
            {
                "seed": args.seed,
                "config": args.config,
                "recovery": args.recovery,
                "backends": list(backends),
                "kinds": list(kinds),
                "summary": summary,
                "scenarios": records,
            },
        )
    return 0 if not (counts["divergence"] or counts["crash"]) else 1


def main(argv=None):
    """The ``click-chaos`` entry point; returns the process exit status
    (0 resilient, 1 crash or divergence, 2 usage error via argparse)."""
    args = _parser().parse_args(argv)
    cases = _cases(args)
    if args.recovery:
        return _recovery_main(args, cases)
    modes = _parse_modes(args.modes)
    sharded = any(mode in SHARD_MODES for mode in modes)
    if args.plan:
        plans = _load_plans(args.plan, cases)
    else:
        plans = {
            case["name"]: seeded_plan(case, args.seed, sharded=sharded)
            for case in cases
        }

    started = time.time()
    records = []
    counts = {"ok": 0, "divergence": 0, "crash": 0}
    for case in cases:
        plan = plans.get(case["name"])
        if plan is None:
            continue
        result = compare_chaos(case, plan, modes=modes)
        counts[result["status"]] += 1
        records.append({"name": case["name"], **result})
        if result["status"] == "ok":
            print(
                "click-chaos: %s survived %d fault(s) across %d mode(s)"
                % (case["name"], len(plan), len(modes))
            )
        else:
            print(
                "click-chaos: %s %s: %s"
                % (
                    case["name"],
                    result["status"].upper(),
                    result["failures"][0]["detail"],
                )
            )

    summary = dict(counts)
    summary["cases"] = len(records)
    summary["seconds"] = round(time.time() - started, 3)
    print(
        "click-chaos: %(cases)d case(s): %(ok)d resilient, "
        "%(divergence)d divergent, %(crash)d crashed in %(seconds).1fs" % summary
    )
    if args.plan_out:
        _write_json(
            args.plan_out,
            {"seed": args.seed, "plans": {name: plan.to_dict() for name, plan in plans.items()}},
        )
    if args.report:
        _write_json(
            args.report,
            {
                "seed": args.seed,
                "config": args.config,
                "mode_matrix": modes,
                "summary": summary,
                "cases": records,
            },
        )
    return 0 if not (counts["divergence"] or counts["crash"]) else 1


if __name__ == "__main__":
    raise SystemExit(main())
