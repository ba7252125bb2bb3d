#!/usr/bin/env python3
"""The router benchmark: one command, five pinned workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
        one run of one workload in this process; the last line of
        standard output is the result as one JSON object.
    python3 bench/run.py [--seed N] [--seconds S] [--trace] [--out FILE]
        every workload, each in its own fresh subprocess; prints every
        metric by name with its unit and exits non-zero when any
        operation failed.
    python3 bench/run.py --repeat K      agreement between K sets of runs
    python3 bench/run.py --compare A.json B.json
    python3 bench/run.py --selftest      the harness's own tests
    python3 bench/run.py --quick         --seconds 1 by default: a smoke run

See bench/README.md for the metrics, the workloads and how to read a
trace."""

import argparse
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SOURCE = os.path.join(ROOT, "src")
SUPERVISED = "ROUTERBENCH_SUPERVISED"  # set in the environment of a supervised run


def parse_arguments(argv):
    parser = argparse.ArgumentParser(
        description="Router benchmark: end-to-end and per-layer metrics."
    )
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the measured phase (default: run_seconds "
                             "of BENCHMARK.json; 1 with --quick)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1), help="1: the traced run (per-layer metrics)")
    parser.add_argument("--out", help="write the results of all workloads here (JSON)")
    parser.add_argument("--repeat", type=int, default=0, metavar="K",
                        help="run everything K times and report each metric's spread "
                             "against its bound")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="apply the bounds of BENCHMARK.json to two result files")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--quick", action="store_true")
    return parser.parse_args(argv)


def main(argv=None):
    arguments = parse_arguments(sys.argv[1:] if argv is None else argv)
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        sys.stderr.write("bench/run.py: no src/repro beside bench/; nothing to measure\n")
        return 2
    sys.path[:0] = [SOURCE, BENCH_DIR]
    if os.environ.get("PYTHONHASHSEED") != "0" or not os.environ.get(SUPERVISED):
        # Run as the child of a supervisor that waits for every process
        # the run leaves behind, with string hashing pinned: set and
        # dict order feed code generation.
        from routerbench import reaper

        env = dict(os.environ, PYTHONHASHSEED="0", **{SUPERVISED: "1"})
        return reaper.supervise(
            [sys.executable, os.path.abspath(__file__)] + sys.argv[1:], env)
    # Workers are spawned with this environment: keep their scratch
    # files (the shared codegen cache) inside the checkout.
    scratch = os.path.join(BENCH_DIR, "out", "tmp")
    os.makedirs(scratch, exist_ok=True)
    os.environ["TMPDIR"] = scratch

    from routerbench import cli

    return cli.run(arguments)


if __name__ == "__main__":
    sys.exit(main())
