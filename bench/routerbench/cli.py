"""Command-line modes of ``bench/run.py``."""

import json
import os
import subprocess
import sys

from . import compare, host

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run(arguments):
    if arguments.selftest:
        return selftest()
    if arguments.compare:
        return compare.compare_files(load_benchmark(), *arguments.compare)
    benchmark = load_benchmark()
    seconds = arguments.seconds
    if seconds is None:
        seconds = 1.0 if arguments.quick else float(benchmark["run_seconds"])
    if arguments.workload:
        return run_one(arguments.workload, arguments.seed, seconds, arguments.trace)
    if arguments.repeat:
        return repeat(benchmark, arguments, seconds)
    results = run_all(benchmark, arguments.seed, seconds, arguments.trace)
    print_results(benchmark, results, arguments.trace)
    if arguments.out:
        with open(arguments.out, "w") as handle:
            json.dump(results, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 1 if any(result["failed"] for result in results["workloads"].values()) else 0


def run_one(name, seed, seconds, trace):
    """One workload in this process; the result is the last line."""
    from . import drive, layers, spans, workloads

    workload = workloads.BY_NAME.get(name)
    if workload is None:
        sys.stderr.write(
            "unknown workload %r (have: %s)\n" % (name, ", ".join(workloads.BY_NAME))
        )
        return 2
    if workload.sharded and (os.cpu_count() or 1) < 2:
        sys.stderr.write("%s needs two processors; this host has one\n" % name)
        return 2
    tracer = spans.Tracer(name, enabled=bool(trace))
    if trace:
        with tracer.span("workload"):
            values, tally = layers.run_traced(workload, seed, seconds, tracer)
        metrics = layers.finish(values, tracer)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, "trace-%s.json" % name))
    else:
        metrics, tally = drive.run_untraced(workload, seed, seconds, tracer)
    for note in tally.notes:
        sys.stderr.write("FAILED %s: %s\n" % (name, note))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()
        },
    }
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0 if tally.failed == 0 else 1


def run_all(benchmark, seed, seconds, trace):
    """Every workload, each in its own fresh subprocess."""
    results = {"host": host.fingerprint(), "seed": seed, "seconds": seconds,
               "trace": trace, "workloads": {}}
    for entry in benchmark["workloads"]:
        name = entry["name"]
        command = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", repr(seconds), "--trace", str(trace)]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = done.stdout.strip().splitlines()
        if not lines:
            raise SystemExit("%s printed no result (exit %d)" % (name, done.returncode))
        results["workloads"][name] = json.loads(lines[-1])
    return results


def print_results(benchmark, results, trace):
    section = "per_layer" if trace else "end_to_end"
    order = [metric["name"] for metric in benchmark[section]]
    fingerprint = results["host"]
    print("host: %s" % ", ".join("%s=%s" % item for item in sorted(fingerprint.items())))
    for name, result in results["workloads"].items():
        share = result["failed"] / result["attempted"]
        print("%s  seed=%d  attempted=%d failed=%d failed_share=%.6f"
              % (name, results["seed"], result["attempted"], result["failed"], share))
        for metric in order:
            value = result["metrics"][metric]
            print("  %-44s %16.6f %s" % (metric, value["value"], value["unit"]))


def repeat(benchmark, arguments, seconds):
    """K whole sets; per metric the spread against its bound."""
    sets = [
        run_all(benchmark, arguments.seed + index, seconds, 0)
        for index in range(arguments.repeat)
    ]
    if arguments.out:
        with open(arguments.out, "w") as handle:
            json.dump(sets, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return compare.agreement(benchmark, sets)


def selftest():
    """The harness's own tests (``bench/tests``)."""
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
               os.path.join(BENCH_DIR, "tests")]
    return subprocess.run(command, cwd=ROOT).returncode
