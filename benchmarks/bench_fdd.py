"""Wall-clock benchmark: forwarding decision diagrams vs. the tiered engine.

FDD mode's bet is that per-element dispatch — even fully inlined — still
pays for every classifier twice: the compiled matcher walks the decision
tree, and the per-output chain re-tests bytes the matcher already
examined.  Compiling the whole tree *into* the chain as an ordered
decision diagram (every location materialized at most once per
root-to-leaf path, hot side as the fall-through) removes the matcher
call and the duplicate loads.  This benchmark measures that bet on the
same 90/10 skewed traffic as ``bench_adaptive.py``:

- ``iprouter``: the Figure 10 IP router — two small ethernet
  classifiers fuse into the device-to-queue chains;
- ``firewall``: the §4 screened subnet — the 17-rule IPFilter expands
  to a 107-node diagram (the node-budget stress case).

Modes:

- ``reference`` / ``fast`` / ``adaptive_warm``: the existing ladder,
  re-measured in the same session so ratios are noise-honest;
- ``fdd_cold``: the FDD engine from packet zero (diagram compile and
  tier-2 promotion inside the measurement);
- ``fdd_warm``: the FDD engine after the hot chains promoted to the
  profile-ordered tier-2 diagrams — the headline mode.

Every rep interleaves all modes on fresh routers (round-robin, best-of)
so slow machine phases hit every mode equally.  Results go to
``BENCH_fdd.json``; ``--check`` validates the relative gates (warm FDD
at least as fast as the warm adaptive engine) and, for full runs, the
recorded absolute speedups.  Runs standalone (no pytest):

    python benchmarks/bench_fdd.py              # full run
    python benchmarks/bench_fdd.py --quick      # CI smoke
    python benchmarks/bench_fdd.py --check      # validate output
"""

import argparse
import gc
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from bench_adaptive import (  # noqa: E402
    ADAPTIVE,
    CONFIGS,
    SKEW,
    drive,
    transmitted,
)
from repro.elements.devices import PollDevice  # noqa: E402
from repro.runtime.adaptive import AdaptiveConfig  # noqa: E402

MODES = ["reference", "fast", "adaptive_warm", "fdd_cold", "fdd_warm"]

#: Absolute speedups over the reference interpreter the checked-in
#: results must clear — the warm adaptive engine's recorded numbers
#: (BENCH_adaptive.json), which warm FDD has to beat.  Quick/CI runs
#: check only the relative gate (machine speeds vary); full runs are
#: held to these.
GATES = {"iprouter": 3.19, "firewall": 2.82}


def build(builder, mode):
    base = mode.split("_")[0]
    if base in ("adaptive", "fdd"):
        return builder(base, adaptive_config=AdaptiveConfig(**ADAPTIVE))
    return builder(mode)


def measure_round(builder, mode, packets, warmup=256):
    """One timed run of one mode on a fresh router; returns
    ``(pps, promoted_chains, diagram_totals)``."""
    if mode.endswith("_warm"):
        warmup = max(warmup, 4096)
    router, devices, frames = build(builder, mode)
    drive(router, devices, frames, warmup)
    for device_name, frame in frames(packets):
        devices[device_name].receive_frame(frame)
    # Collect the previous rounds' dead routers now, not inside some
    # unlucky mode's timed window (the rounds interleave all modes, so
    # uncollected garbage would tax whichever mode runs last).
    gc.collect()
    start = time.perf_counter()
    router.run_tasks(packets // PollDevice.BURST + 16)
    elapsed = time.perf_counter() - start
    promoted = None
    diagrams = None
    if router.adaptive is not None:
        chains = router.adaptive.profile_report().as_dict()["chains"]
        promoted = sum(1 for chain in chains.values() if chain["tier"] == 2)
        if router.mode == "fdd":
            diagrams = router.adaptive.diagram_report()["totals"]
    return packets / elapsed, promoted, diagrams


def measure_all(builder, packets, reps):
    """Best-of-``reps`` per mode, with the modes interleaved round-robin
    so machine-speed drift lands on every mode equally."""
    best = {}
    promoted = {}
    diagrams = {}
    for _ in range(reps):
        for mode in MODES:
            pps, chains, totals = measure_round(builder, mode, packets)
            if mode not in best or pps > best[mode]:
                best[mode] = pps
            if chains is not None:
                promoted[mode] = chains
            if totals is not None:
                diagrams[mode] = totals
    return best, promoted, diagrams


def check_equivalence(builder, packets=1024):
    """Warm FDD must forward byte-identical traffic to the reference
    interpreter, across the tier-1 -> tier-2 transition (eager
    thresholds) and a node-budget-stressing packet count."""
    router, devices, frames = builder("reference")
    drive(router, devices, frames, packets)
    reference = transmitted(devices)
    eager = AdaptiveConfig(threshold=48, sample=4, min_samples=12)
    router, devices, frames = builder("fdd", adaptive_config=eager)
    drive(router, devices, frames, packets)
    if transmitted(devices) != reference:
        raise AssertionError("fdd output differs from reference")


def run(packets, reps, quick):
    results = {"quick": quick, "packets": packets, "reps": reps, "skew": SKEW,
               "adaptive_config": dict(ADAPTIVE), "configs": {}}
    for config_name, builder in CONFIGS.items():
        check_equivalence(builder)
        best, promoted, diagrams = measure_all(builder, packets, reps)
        entry = {}
        baseline = best["reference"]
        for mode in MODES:
            entry[mode] = {
                "pps": round(best[mode], 1),
                "ns_per_packet": round(1e9 / best[mode], 1),
                "speedup": round(best[mode] / baseline, 3),
            }
            if mode in promoted:
                entry[mode]["promoted_chains"] = promoted[mode]
            if mode in diagrams:
                entry[mode]["diagrams"] = diagrams[mode]
        entry["fdd_warm_over_adaptive_warm"] = round(
            best["fdd_warm"] / best["adaptive_warm"], 3
        )
        entry["fdd_warm_over_fast"] = round(best["fdd_warm"] / best["fast"], 3)
        results["configs"][config_name] = entry
        for mode in MODES:
            stats = entry[mode]
            print(
                "%-10s %-14s %10.0f pps  %8.0f ns/pkt  %5.2fx"
                % (config_name, mode, stats["pps"], stats["ns_per_packet"],
                   stats["speedup"])
            )
        print(
            "%-10s warm fdd over warm adaptive: %.3fx"
            % (config_name, entry["fdd_warm_over_adaptive_warm"])
        )
    return results


def check_file(path):
    """Validate a results file.  Always: well-formed, chains promoted,
    diagrams compiled, and warm FDD at least as fast as the warm
    adaptive engine on the iprouter (the CI smoke gate).  Full runs
    additionally must clear the recorded absolute speedup bars."""
    with open(path) as fh:
        results = json.load(fh)
    configs = results["configs"]
    if not configs:
        raise SystemExit("%s: no configs measured" % path)
    for config_name, entry in configs.items():
        for mode in MODES:
            stats = entry[mode]
            if not (stats["pps"] > 0 and stats["ns_per_packet"] > 0):
                raise SystemExit("%s: %s/%s has bogus numbers" % (path, config_name, mode))
        if entry["fdd_warm"].get("promoted_chains", 0) < 1:
            raise SystemExit(
                "%s: %s fdd warmed without promoting any chain" % (path, config_name)
            )
        if entry["fdd_warm"].get("diagrams", {}).get("diagrams", 0) < 1:
            raise SystemExit(
                "%s: %s fdd ran without any compiled diagram" % (path, config_name)
            )
    if configs["iprouter"]["fdd_warm_over_adaptive_warm"] < 1.0:
        raise SystemExit(
            "%s: iprouter warm fdd is slower than warm adaptive (%.3fx)"
            % (path, configs["iprouter"]["fdd_warm_over_adaptive_warm"])
        )
    if not results.get("quick"):
        for config_name, gate in GATES.items():
            speedup = configs[config_name]["fdd_warm"]["speedup"]
            if speedup <= gate:
                raise SystemExit(
                    "%s: %s warm fdd speedup %.3fx does not clear the %.2fx gate"
                    % (path, config_name, speedup, gate)
                )
    print("%s: ok (%s)" % (path, ", ".join(sorted(configs))))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small run for CI smoke")
    parser.add_argument("--reps", type=int, default=None, help="repetitions per mode")
    parser.add_argument("--packets", type=int, default=None, help="timed packets per rep")
    parser.add_argument(
        "--out",
        default=os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_fdd.json"),
        help="result file (default: repo-root BENCH_fdd.json)",
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
    packets = args.packets or (2000 if args.quick else 20000)
    reps = args.reps or (2 if args.quick else 5)
    results = run(packets, reps, args.quick)
    with open(args.out, "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % os.path.abspath(args.out))


if __name__ == "__main__":
    main()
