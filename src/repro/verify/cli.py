"""``click-fuzz``: the differential fuzzing driver.

Follows the tool-chain CLI conventions (:mod:`repro.core.cli`): a JSON
``--report`` destination where ``-`` means stderr, deterministic output
for fixed inputs, and exit status carrying the verdict — 0 when every
case agrees across the whole mode matrix, 1 when any divergence
survives, 2 when the run itself could not proceed.

Two ways to run:

- ``click-fuzz --seed 7 --budget 200`` fuzzes: the deterministic stock
  cases first (IP router at two MTUs, the firewall), then seeded random
  cases — mutated routers and registry-composed pipelines — until the
  budget is spent.  Every divergence is delta-debugged down to a minimal
  case and written as a self-contained repro file under ``--repro-dir``.
  ``--updates`` adds control-plane updates to every trace: a named
  counter inserted and deleted again, a rules rotation mid-trace and a
  value edit of the same classifier, the first filter's rules reordered
  where no verdict changes (a no-op wherever it runs as an IPFilter),
  a filter grown past a hundred rules, and a route patch that sends one
  traced destination out of another wired output.
- ``click-fuzz --repro FILE`` replays one repro file through the full
  matrix and reports whether the divergence is still present (exit 1) or
  fixed (exit 0).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

from .genconfig import generate_case, stock_cases
from .gentraffic import (
    with_grown_filter,
    with_permuted_filter,
    with_route_update,
    with_rules_update,
    with_structural_update,
)
from .oracle import MODES, SHARD_MODES, compare_case
from .shrink import element_count, load_repro, shrink_case, write_repro


def _parser():
    parser = argparse.ArgumentParser(
        description="Differential fuzzer: hunt mode-divergence bugs by "
        "running generated (config, traffic) cases under every execution "
        "mode and optimization axis and comparing the results."
    )
    parser.add_argument(
        "--seed", type=int, default=1, help="random seed for case generation"
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=50,
        metavar="N",
        help="total number of cases to run (stock cases included)",
    )
    parser.add_argument(
        "--modes",
        default=",".join(MODES),
        metavar="LIST",
        help="comma-separated mode matrix; shard-* labels run the "
        "sharded data plane (default: %(default)s)",
    )
    parser.add_argument(
        "--events",
        type=int,
        default=64,
        metavar="N",
        help="traffic events per generated case",
    )
    parser.add_argument(
        "--repro",
        default=None,
        metavar="FILE",
        help="replay one repro file instead of fuzzing",
    )
    parser.add_argument(
        "--repro-dir",
        default="fuzz-repros",
        metavar="DIR",
        help="where shrunken repro files for divergences land",
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="report divergences without delta-debugging them",
    )
    parser.add_argument(
        "--no-stock",
        action="store_true",
        help="skip the deterministic stock cases",
    )
    parser.add_argument(
        "--updates",
        action="store_true",
        help="install one seeded rules rotation mid-trace in every case "
        "that has a classifier: what its outputs mean changes under "
        "every mode, in place where the mode can; before it, insert "
        "a named Counter into one push connection and delete it again; "
        "after it, reorder the first IPFilter's rules where no verdict "
        "changes, then grow it past a hundred rules; and send one traced "
        "destination out of another wired output of the first route table",
    )
    parser.add_argument(
        "--report",
        default=None,
        metavar="FILE",
        help="write the JSON run report here (- for stderr)",
    )
    return parser


def _write_report(dest, payload):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if dest == "-":
        sys.stderr.write(text)
    else:
        with open(dest, "w") as handle:
            handle.write(text)


def _parse_modes(spec):
    modes = [m.strip() for m in spec.split(",") if m.strip()]
    unknown = [m for m in modes if m not in MODES and m not in SHARD_MODES]
    if unknown:
        raise SystemExit(
            "click-fuzz: unknown mode(s) %s (choose from %s)"
            % (", ".join(unknown), ", ".join(list(MODES) + list(SHARD_MODES)))
        )
    return modes


def _replay(args, modes):
    case = load_repro(args.repro)
    result = compare_case(case, modes=modes)
    record = {
        "name": case["name"],
        "file": args.repro,
        "status": result["status"],
        "divergences": result["divergences"],
        "elements": element_count(case),
        "events": len(case["events"]),
    }
    if result.get("skips"):
        record["skips"] = result["skips"]
        print(
            "click-fuzz: %s out of shard contract (%s)"
            % (case["name"], result["skips"][0]["reason"])
        )
    if result["status"] == "divergence":
        print(
            "click-fuzz: %s still diverges (%d way(s)); first: %s"
            % (
                case["name"],
                len(result["divergences"]),
                result["divergences"][0]["detail"],
            )
        )
    elif result["status"] == "error":
        print("click-fuzz: %s errored: %s" % (case["name"], result.get("detail")))
    elif result.get("skips"):
        print("click-fuzz: %s agrees within the shard contract" % case["name"])
    else:
        print("click-fuzz: %s agrees across the matrix" % case["name"])
    if args.report:
        _write_report(args.report, {"mode_matrix": modes, "replay": record})
    return 1 if result["status"] == "divergence" else 0


def _fuzz_cases(args):
    cases = []
    if not args.no_stock:
        cases.extend(stock_cases(events_count=max(args.events, 96)))
    index = 0
    while len(cases) < args.budget:
        cases.append(generate_case(args.seed, index, events_count=args.events))
        index += 1
    cases = cases[: args.budget]
    if args.updates:
        rng = random.Random(args.seed)
        cases = [
            with_route_update(
                with_permuted_filter(with_structural_update(with_grown_filter(with_rules_update(case, rng)), rng), rng),
                rng,
            )
            for case in cases
        ]
    return cases


def main(argv=None):
    """The ``click-fuzz`` entry point; returns the process exit status
    (0 clean, 1 divergence, 2 usage error via argparse)."""
    args = _parser().parse_args(argv)
    modes = _parse_modes(args.modes)
    if args.repro:
        return _replay(args, modes)

    started = time.time()
    records = []
    repro_files = []
    counts = {"ok": 0, "divergence": 0, "error": 0}
    skipped = 0
    for case in _fuzz_cases(args):
        result = compare_case(case, modes=modes)
        counts[result["status"]] += 1
        record = {"name": case["name"], "status": result["status"]}
        if result.get("skips"):
            # Out-of-contract shard comparisons (lossy overflow): not
            # divergences, but never silent either.
            record["skips"] = result["skips"]
            skipped += 1
            print(
                "click-fuzz: %s out of shard contract (%s)"
                % (case["name"], result["skips"][0]["reason"])
            )
        if result["status"] == "error":
            record["detail"] = result.get("detail")
        if result["status"] == "divergence":
            record["divergences"] = result["divergences"]
            shrunk = case
            if not args.no_shrink:
                shrunk = shrink_case(case, modes=modes)
                record["shrunk_elements"] = element_count(shrunk)
                record["shrunk_events"] = len(shrunk["events"])
            os.makedirs(args.repro_dir, exist_ok=True)
            path = os.path.join(args.repro_dir, "%s.repro.json" % case["name"])
            write_repro(path, shrunk, result=result, seed=args.seed)
            repro_files.append(path)
            record["repro"] = path
            print(
                "click-fuzz: DIVERGENCE %s (%s) -> %s"
                % (case["name"], result["divergences"][0]["detail"], path)
            )
        records.append(record)

    summary = dict(counts)
    summary["cases"] = len(records)
    summary["shard_contract_skips"] = skipped
    summary["seconds"] = round(time.time() - started, 3)
    line = (
        "click-fuzz: %(cases)d case(s): %(ok)d ok, %(divergence)d divergent, "
        "%(error)d errored in %(seconds).1fs" % summary
    )
    if skipped:
        line += " (%d outside the shard contract)" % skipped
    print(line)
    if args.report:
        _write_report(
            args.report,
            {
                "seed": args.seed,
                "budget": args.budget,
                "mode_matrix": modes,
                "summary": summary,
                "cases": records,
                "repro_files": repro_files,
            },
        )
    return 1 if counts["divergence"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
