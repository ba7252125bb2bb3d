"""Control-plane churn benchmark: incremental updates vs. full hot-swaps.

Drives the Figure 10 IP router under sustained traffic while a seeded
schedule of control-plane updates lands — route-table rewrites and
ACL (classifier) rule changes, the churn a real router sees from BGP
flaps and policy pushes.  The same schedule is installed twice:

- ``incremental``: through :class:`repro.control.ControlPlane`, which
  patches pure-data deltas into the live compiled tables in place;
- ``full_swap``: through the transactional hot-swap, rebuilding the
  router for every update (chains untouched by the delta are spliced
  from the old compile, code objects included, but the
  build/transfer/commit cost is paid in full).

Correctness is part of the measurement, not a side check: both runs
must transmit byte-identical traffic, and every frame fed must come out
the other side — zero packets dropped by any of the installs.  A short
churn trace is then chaos-verified (seeded fault plan, all four
execution modes, supervised) through the differential oracle.

Results go to ``BENCH_churn.json``.  Runs standalone (no pytest):

    python benchmarks/bench_churn.py              # full run
    python benchmarks/bench_churn.py --quick      # CI smoke
    python benchmarks/bench_churn.py --check      # validate output

The headline numbers: incremental updates per second (thousands — each
patch is table staging plus an adaptive deopt, no recompile), p99
incremental update latency, and the speedup over full hot-swaps
(acceptance floor: 5x)."""

import argparse
import json
import os
import random
import sys
import time
from unittest import mock

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro.control import ControlPlane  # noqa: E402
from repro.elements.devices import PollDevice  # noqa: E402
from repro.elements.hotswap import hotswap  # noqa: E402
from repro.lang.lexer import split_config_args  # noqa: E402
from repro.runtime import ExecutionProfile  # noqa: E402
from repro.runtime import fastpath as fastpath_module  # noqa: E402
from repro.sim.testbed import Testbed  # noqa: E402

SEED = 0xC1C0
SPEEDUP_FLOOR = 5.0

# Traffic between updates: enough to keep queues and the fast path hot,
# small enough that install latency dominates the loop.
FRAMES_PER_UPDATE = 8


def build(profile=None):
    testbed = Testbed(2)
    router, devices = testbed.build_router(
        testbed.variant_graph("base"), profile=profile or ExecutionProfile.fast()
    )
    return testbed, router, devices


def update_schedule(graph, count, rng):
    """``count`` pure-data updates: ``(element, kind, config_args)``.

    Route updates shuffle the table and append never-matching /24
    routes (longest-prefix semantics keep the evaluation traffic's
    forwarding identical); ACL updates swap the two ARP rule arms of a
    classifier (the evaluation traffic is IP, so its path is
    unchanged).  Behaviour-preserving by construction — that is what
    makes the zero-drop assertion meaningful under churn."""
    routes = split_config_args(graph.elements["rt"].config)
    ports = sorted({route.split()[-1] for route in routes})
    schedule = []
    for index in range(count):
        if index % 2 == 0:
            table = list(routes)
            rng.shuffle(table)
            table.append(
                "203.0.%d.0/24 %s" % (rng.randrange(1, 250), rng.choice(ports))
            )
            schedule.append(("rt", "routes", table))
        else:
            name = "c%d" % (index // 2 % 2)
            rules = split_config_args(graph.elements[name].config)
            # Swap the ARP-request/ARP-reply arms; IP traffic still
            # lands on the same output port either way.
            rules[0], rules[1] = rules[1], rules[0]
            if rng.random() < 0.5:
                rules[0], rules[1] = rules[1], rules[0]
            schedule.append((name, "rules", rules))
    return schedule


def drive(router, devices, frames):
    for device_name, frame in frames:
        devices[device_name].receive_frame(frame)
    router.run_tasks(len(frames) // PollDevice.BURST + 4)


def drain(router, devices):
    router.run_tasks(64)
    return {
        name: [bytes(f) for f in device.transmitted]
        for name, device in sorted(devices.items())
    }


def run_incremental(updates):
    """The same schedule through ControlPlane; per-update latencies."""
    testbed, router, devices = build()
    plane = ControlPlane(router)
    schedule = update_schedule(router.graph, updates, random.Random(SEED))
    traffic = testbed.evaluation_frames(FRAMES_PER_UPDATE * updates)
    latencies = []
    kinds = {}
    fed = 0
    for index, (name, kind, args) in enumerate(schedule):
        chunk = traffic[index * FRAMES_PER_UPDATE : (index + 1) * FRAMES_PER_UPDATE]
        drive(plane.router, devices, chunk)
        fed += len(chunk)
        start = time.perf_counter()
        if kind == "routes":
            report = plane.update_routes(name, args)
        else:
            report = plane.update_rules(name, args)
        latencies.append(time.perf_counter() - start)
        kinds[report.kind] = kinds.get(report.kind, 0) + 1
    wire = drain(plane.router, devices)
    return latencies, kinds, fed, wire


def run_full_swap(updates):
    """The same schedule, each update installed as a transactional
    hot-swap of the whole configuration."""
    testbed, router, devices = build()
    schedule = update_schedule(router.graph, updates, random.Random(SEED))
    traffic = testbed.evaluation_frames(FRAMES_PER_UPDATE * updates)
    latencies = []
    reused = recompiled = 0
    fed = 0
    compiled = []  # one entry per compile() call the fast-path compiler makes

    def counting(source, *args, **kwargs):
        compiled.append(len(source))
        return compile(source, *args, **kwargs)

    with mock.patch.object(fastpath_module, "compile", counting, create=True):
        for index, (name, kind, args) in enumerate(schedule):
            chunk = traffic[index * FRAMES_PER_UPDATE : (index + 1) * FRAMES_PER_UPDATE]
            drive(router, devices, chunk)
            fed += len(chunk)
            new_graph = router.graph.copy()
            new_graph.elements[name].config = ", ".join(args)
            start = time.perf_counter()
            result = hotswap(router, new_graph)
            latencies.append(time.perf_counter() - start)
            router = result.router
            reused += result.report.chains_reused
            recompiled += result.report.chains_recompiled
    wire = drain(router, devices)
    chains = {"reused": reused, "recompiled": recompiled, "units_compiled": len(compiled)}
    return latencies, chains, fed, wire


def percentile(latencies, fraction):
    ordered = sorted(latencies)
    return ordered[min(len(ordered) - 1, int(fraction * (len(ordered) - 1) + 0.5))]


def stats(latencies):
    mean = sum(latencies) / len(latencies)
    return {
        "updates": len(latencies),
        "updates_per_second": round(1.0 / mean, 1),
        "mean_ms": round(mean * 1e3, 4),
        "p50_ms": round(percentile(latencies, 0.50) * 1e3, 4),
        "p99_ms": round(percentile(latencies, 0.99) * 1e3, 4),
        "max_ms": round(max(latencies) * 1e3, 4),
    }


def chaos_verify(events=32):
    """A short churn trace (traffic + interleaved incremental updates)
    through the chaos harness: every execution mode, supervised, under
    a seeded fault plan, must agree on the wire and never crash."""
    from repro.verify.chaos import compare_chaos, seeded_plan
    from repro.verify.genconfig import stock_cases

    cases = {case["name"]: case for case in stock_cases(events_count=events)}
    case = cases["iprouter-mtu1500"]
    graph_events = list(case["events"])
    testbed, router, _devices = build()
    schedule = update_schedule(router.graph, 2, random.Random(SEED + 1))
    from repro.core.toolchain import save_config

    for index, (name, kind, args) in enumerate(schedule):
        graph = router.graph.copy()
        graph.elements[name].config = ", ".join(args)
        position = (index + 1) * len(graph_events) // (len(schedule) + 1)
        graph_events.insert(position, ["update", save_config(graph)])
    churn_case = dict(case, events=graph_events, name="churn-chaos", optimize=False)
    plan = seeded_plan(churn_case, 7)
    result = compare_chaos(churn_case, plan)
    return {
        "status": result["status"],
        "modes": sorted(result.get("reports", {})),
        "failures": result.get("failures", []),
    }


def run(updates, quick):
    latencies, kinds, fed, wire = run_incremental(updates)
    swap_latencies, chain_totals, swap_fed, swap_wire = run_full_swap(updates)

    transmitted = sum(len(frames) for frames in wire.values())
    swap_transmitted = sum(len(frames) for frames in swap_wire.values())
    zero_drop = transmitted == fed and swap_transmitted == swap_fed
    wire_identical = wire == swap_wire
    speedup = (sum(swap_latencies) / len(swap_latencies)) / (
        sum(latencies) / len(latencies)
    )
    chaos = chaos_verify()

    results = {
        "quick": quick,
        "seed": SEED,
        "frames_per_update": FRAMES_PER_UPDATE,
        "incremental": dict(stats(latencies), kinds=kinds),
        "full_swap": dict(stats(swap_latencies), chains=chain_totals),
        "speedup": round(speedup, 2),
        "packets_fed": fed,
        "packets_transmitted": transmitted,
        "zero_dropped_by_swap": zero_drop,
        "wire_identical_to_full_rebuild": wire_identical,
        "chaos": chaos,
    }
    print(
        "incremental: %(updates_per_second).0f updates/s, p99 %(p99_ms).3f ms"
        % results["incremental"]
    )
    print(
        "full swap:   %(updates_per_second).1f updates/s, p99 %(p99_ms).1f ms"
        % results["full_swap"]
    )
    print(
        "speedup %.1fx; zero-drop=%s; wire-identical=%s; chaos=%s"
        % (speedup, zero_drop, wire_identical, chaos["status"])
    )
    return results


def check_file(path):
    """Validate an existing results file: the acceptance criteria the
    CI gate holds (speedup floor, zero drops, identical wire, chaos)."""
    with open(path) as fh:
        results = json.load(fh)
    failures = []
    if results["speedup"] < SPEEDUP_FLOOR:
        failures.append(
            "incremental speedup %.2fx is below the %.0fx floor"
            % (results["speedup"], SPEEDUP_FLOOR)
        )
    if not results["zero_dropped_by_swap"]:
        failures.append("packets were dropped by an install")
    if not results["wire_identical_to_full_rebuild"]:
        failures.append("incremental wire output differs from the full rebuild's")
    if results["chaos"]["status"] != "ok":
        failures.append("chaos verification failed: %s" % results["chaos"]["failures"])
    chains = results["full_swap"]["chains"]
    if chains["units_compiled"] != chains["recompiled"]:
        failures.append(
            "full swaps report %d chains recompiled but called compile() %d times"
            % (chains["recompiled"], chains["units_compiled"])
        )
    if results["incremental"]["updates_per_second"] < 1000:
        failures.append(
            "incremental rate %.0f updates/s is not control-plane grade"
            % results["incremental"]["updates_per_second"]
        )
    if failures:
        raise SystemExit("%s: churn regression:\n  %s" % (path, "\n  ".join(failures)))
    print(
        "%s: ok (%.0f updates/s incremental, %.1fx over full swaps)"
        % (path, results["incremental"]["updates_per_second"], results["speedup"])
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small run for CI smoke")
    parser.add_argument("--updates", type=int, default=None, help="updates per run")
    parser.add_argument(
        "--out",
        default=os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_churn.json"
        ),
        help="result file (default: repo-root BENCH_churn.json)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="validate an existing --out file instead of measuring",
    )
    args = parser.parse_args(argv)
    if args.check:
        check_file(args.out)
        return
    updates = args.updates or (24 if args.quick else 120)
    results = run(updates, args.quick)
    with open(args.out, "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % os.path.abspath(args.out))


if __name__ == "__main__":
    main()
