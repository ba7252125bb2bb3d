"""Sharded data plane benchmark: 1 -> N worker scale curve.

Measures the RSS-style flow-hash sharded router (``repro.runtime.shard``)
against the single-shard fast path on the standards-compliant IP router,
three ways:

- **wall-clock scale curve** — packets-per-second through a live
  multiprocessing plane at 1, 2, and 4 workers.  Machine-dependent:
  Python workers only scale on real cores, so this row is recorded as
  data, not gated (CI containers are often single-core, where the curve
  documents the dispatch overhead instead of the speedup);
- **modeled saturation throughput** — the repo's standard methodology
  (CycleMeter per-packet cost through the §8 fluid model).  Per-shard
  meters are reconciled into one cost, and the plane's service time is
  ``max(dispatch_ns, cpu_ns / workers)`` (every frame crosses the
  single flow-hash dispatcher; see ``Testbed.sharded_mlffr``).  The
  MLFFR curve is solved on two platforms: on P0 (shared 33 MHz PCI) the
  curve flattens at the bus limit almost immediately — sharding cannot
  buy what the fabric won't carry — while on P2 (64-bit/66 MHz PCI,
  gigabit ports) the shards scale toward wire rate.  The gated number
  is P2's: the modeled speedup at 4 workers must stay >= 2.0x the
  single-shard fast path;
- **dispatch microbench** — measured ns/frame through the flow hasher,
  the constant that eventually flattens the saturation curve.

Before timing, the sharded plane is checked against the single-shard
reference under the sharding contract: per-device multiset-identical
and per-flow byte-identical transmitted frames.

Results go to ``BENCH_shard.json``.  Runs standalone (no pytest):

    python benchmarks/bench_shard.py              # full run
    python benchmarks/bench_shard.py --quick      # CI smoke
    python benchmarks/bench_shard.py --check      # validate output
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro.elements.devices import PollDevice  # noqa: E402
from repro.net.headers import build_ether_udp_packet  # noqa: E402
from repro.runtime import ExecutionProfile  # noqa: E402
from repro.runtime.flowhash import FlowHasher, flow_key  # noqa: E402
from repro.sim import fluid  # noqa: E402
from repro.sim.cpu import CycleMeter  # noqa: E402
from repro.sim.platforms import P0, P2  # noqa: E402
from repro.sim.testbed import DISPATCH_NS, HOST_ETHERS, Testbed, host_ip  # noqa: E402
from repro.verify.oracle import sharded_transmit_difference  # noqa: E402

SCALE_WORKERS = (1, 2, 4)
GATE_WORKERS = 4
GATE_SPEEDUP = 2.0
GATE_PLATFORM = "P2"
#: The modeled per-frame dispatcher cost (flow hash + queue handoff):
#: ``Testbed.sharded_mlffr``'s default, so the gate is deterministic
#: across machines.  The measured value is recorded alongside as
#: ``dispatch.measured_ns``.
MODEL_DISPATCH_NS = DISPATCH_NS


def sharded_frames(testbed, count, flows=64):
    """The evaluation workload with a widened flow population (64
    source ports instead of 7) so four shards load-balance; otherwise
    identical to ``Testbed.evaluation_frames``."""
    n = len(testbed.interfaces)
    frames = []
    for sequence in range(count):
        rx = sequence % n
        tx = (rx + 1) % n
        frames.append(
            (
                testbed.interfaces[rx].device,
                build_ether_udp_packet(
                    HOST_ETHERS[rx],
                    testbed.interfaces[rx].ether,
                    host_ip(rx),
                    host_ip(tx),
                    src_port=1000 + sequence % flows,
                    dst_port=2000,
                    payload=b"\x00" * 14,
                    identification=sequence & 0xFFFF,
                ),
            )
        )
    return frames


def build_plane(testbed, workers, backend="process", meter=None):
    """An optimized ("all"-variant) IP router: a plain fast-path Router
    at 1 worker, a ShardedRouter above that."""
    profile = ExecutionProfile.fast(batch=True)
    if workers > 1:
        profile = profile.with_workers(workers, backend)
    graph = testbed.variant_graph("all")
    return testbed.build_router(graph, meter=meter, profile=profile)


def drive(router, devices, frames):
    for device_name, frame in frames:
        devices[device_name].receive_frame(frame)
    router.run_tasks(len(frames) // PollDevice.BURST + 16)


def close_plane(router):
    if getattr(router, "is_sharded", False):
        router.close()


def check_equivalence(testbed, packets=512):
    """The sharded plane must match the single-shard reference under
    the sharding contract (per-flow order, per-device multiset)."""
    frames = sharded_frames(testbed, packets)
    baselines = {}
    for workers, backend in ((1, "process"), (2, "thread"), (4, "process")):
        router, devices = build_plane(testbed, workers, backend)
        try:
            drive(router, devices, frames)
            output = {
                name: [bytes(f).hex() for f in device.transmitted]
                for name, device in sorted(devices.items())
            }
        finally:
            close_plane(router)
        if not baselines:
            baselines = output
            forwarded = sum(len(v) for v in output.values())
            if forwarded < packets:
                raise AssertionError(
                    "baseline lost packets: %d of %d forwarded" % (forwarded, packets)
                )
            continue
        diff = sharded_transmit_difference(baselines, output)
        if diff is not None:
            raise AssertionError(
                "%d-worker %s plane diverges from single-shard fast path: %s"
                % (workers, backend, diff)
            )


def measure_wallclock(testbed, workers, packets, reps, warmup=256):
    """Best-of-N wall-clock pps through a live plane (multiprocessing
    above 1 worker)."""
    best = None
    for _ in range(reps):
        router, devices = build_plane(testbed, workers)
        try:
            drive(router, devices, sharded_frames(testbed, warmup))
            frames = sharded_frames(testbed, packets)
            for device_name, frame in frames:
                devices[device_name].receive_frame(frame)
            start = time.perf_counter()
            router.run_tasks(packets // PollDevice.BURST + 16)
            elapsed = time.perf_counter() - start
        finally:
            close_plane(router)
        if best is None or elapsed < best:
            best = elapsed
    return packets / best


def measure_modeled(testbed, packets):
    """Metered per-packet cost on the live 2-worker process plane
    (shard meters reconciled into one CycleMeter), then the fluid-model
    saturation rate at every worker count, per platform."""
    meter = CycleMeter()
    router, devices = build_plane(testbed, 2, meter=meter)
    try:
        drive(router, devices, sharded_frames(testbed, 256))  # warmup
        meter.__init__()
        already = sum(len(d.transmitted) for d in devices.values())
        drive(router, devices, sharded_frames(testbed, packets))
        forwarded = sum(len(d.transmitted) for d in devices.values()) - already
    finally:
        close_plane(router)
    if forwarded < packets:
        raise AssertionError(
            "modeled run lost packets: %d of %d forwarded" % (forwarded, packets)
        )
    modeled = {}
    for platform in (P0, P2):
        report = meter.report(forwarded, clock_mhz=platform.clock_mhz)
        cpu_ns = report.true_total_ns + platform.pio_overhead_ns
        curve = {}
        for workers in (1, 2, 4, 8):
            effective_ns = (
                max(MODEL_DISPATCH_NS, cpu_ns / workers) if workers > 1 else cpu_ns
            )
            curve[str(workers)] = round(fluid.mlffr(effective_ns, platform), 1)
        base_rate = curve["1"]
        modeled[platform.name] = {
            "cpu_ns_per_packet": round(cpu_ns, 1),
            "mlffr_pps": curve,
            "speedup": {w: round(rate / base_rate, 3) for w, rate in curve.items()},
        }
    return modeled


def measure_dispatch(packets=20000):
    """ns/frame through the flow-hash dispatcher (key extraction plus
    shard selection), the sharding-specific per-frame cost."""
    testbed = Testbed(2)
    frames = [frame for _, frame in sharded_frames(testbed, 2048)]
    shard_of = FlowHasher(4)
    best = None
    for _ in range(3):
        start = time.perf_counter()
        remaining = packets
        while remaining > 0:
            for frame in frames:
                shard_of(frame)
            remaining -= len(frames)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    spread = len({flow_key(frame) for frame in frames})
    return {
        "measured_ns": round(best / packets * 1e9, 1),
        "model_ns": MODEL_DISPATCH_NS,
        "distinct_flows": spread,
    }


def run(packets, reps, quick):
    results = {
        "quick": quick,
        "packets": packets,
        "reps": reps,
        "config": "iprouter-all",
        "backend": "process",
    }
    testbed = Testbed(2)
    check_equivalence(testbed)
    print("equivalence: sharded planes match the single-shard fast path")
    results["equivalence"] = "ok"

    wallclock = {}
    for workers in SCALE_WORKERS:
        pps = measure_wallclock(testbed, workers, packets, reps)
        wallclock[str(workers)] = {
            "pps": round(pps, 1),
            "ns_per_packet": round(1e9 / pps, 1),
        }
    base = wallclock["1"]["pps"]
    for workers, stats in wallclock.items():
        stats["speedup"] = round(stats["pps"] / base, 3)
        print(
            "wallclock  %s worker(s) %10.0f pps  %8.0f ns/pkt  %5.2fx"
            % (workers, stats["pps"], stats["ns_per_packet"], stats["speedup"])
        )
    results["wallclock"] = wallclock

    modeled = measure_modeled(testbed, packets=min(packets, 4000))
    for platform_name, entry in modeled.items():
        for workers in sorted(entry["mlffr_pps"], key=int):
            print(
                "modeled    %-3s %s worker(s) %10.0f pps MLFFR  %5.2fx"
                % (
                    platform_name,
                    workers,
                    entry["mlffr_pps"][workers],
                    entry["speedup"][workers],
                )
            )
    results["modeled"] = modeled

    results["dispatch"] = measure_dispatch(packets=2000 if quick else 20000)
    print(
        "dispatch   %.0f ns/frame measured (%d distinct flows), %.0f ns modeled"
        % (
            results["dispatch"]["measured_ns"],
            results["dispatch"]["distinct_flows"],
            results["dispatch"]["model_ns"],
        )
    )
    return results


def check_file(path):
    """Validate a results file: well-formed, equivalence held, and the
    modeled saturation speedup at 4 workers clears the 2.0x gate."""
    with open(path) as fh:
        results = json.load(fh)
    if results.get("equivalence") != "ok":
        raise SystemExit("%s: sharded equivalence pre-check did not pass" % path)
    for workers, stats in results["wallclock"].items():
        if not (stats["pps"] > 0 and stats["ns_per_packet"] > 0):
            raise SystemExit("%s: wallclock/%s has bogus numbers" % (path, workers))
    modeled = results["modeled"]
    for platform_name, entry in modeled.items():
        if entry["cpu_ns_per_packet"] <= 0:
            raise SystemExit(
                "%s: bogus metered per-packet cost on %s" % (path, platform_name)
            )
    speedup = modeled[GATE_PLATFORM]["speedup"].get(str(GATE_WORKERS), 0.0)
    if speedup < GATE_SPEEDUP:
        raise SystemExit(
            "%s: modeled %s throughput at %d workers is %.2fx the single-shard "
            "fast path (gate: >= %.1fx)"
            % (path, GATE_PLATFORM, GATE_WORKERS, speedup, GATE_SPEEDUP)
        )
    print(
        "%s: ok (modeled %s %d-worker speedup %.2fx >= %.1fx, dispatch %.0f ns/frame)"
        % (
            path,
            GATE_PLATFORM,
            GATE_WORKERS,
            speedup,
            GATE_SPEEDUP,
            results["dispatch"]["measured_ns"],
        )
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small run for CI smoke")
    parser.add_argument("--reps", type=int, default=None, help="repetitions per point")
    parser.add_argument("--packets", type=int, default=None, help="timed packets per rep")
    parser.add_argument(
        "--out",
        default=os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_shard.json"),
        help="result file (default: repo-root BENCH_shard.json)",
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
    packets = args.packets or (2000 if args.quick else 12000)
    reps = args.reps or (2 if args.quick else 3)
    results = run(packets, reps, args.quick)
    with open(args.out, "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % os.path.abspath(args.out))


if __name__ == "__main__":
    main()
