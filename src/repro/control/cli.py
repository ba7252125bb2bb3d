"""``click-update``: replay control-plane updates against a live router.

Builds the base configuration (loopback devices for every referenced
device), wraps it in a :class:`~repro.control.ControlPlane`, applies
each update in order, and prints the resulting
:class:`~repro.elements.hotswap.SwapReport` — which updates were
patched in place, which were structural, how many compiled chains each
update kept, and the per-phase wall times.

Updates come from ``--update FILE`` (a full replacement configuration;
the delta is computed against the live graph), ``--routes NAME=TABLE``
(an in-place route-table patch), and ``--rules NAME=RULES`` (an
in-place classifier patch), applied left to right in command-line
order.  ``--diff-only`` prints each update's delta without building a
router.
"""

from __future__ import annotations

import argparse
import json
import sys


def _build_router(text, mode, batch):
    from ..elements.devices import LoopbackDevice
    from ..elements.runtime import Router
    from ..core.toolchain import load_config
    from ..runtime import ExecutionProfile
    from ..verify.oracle import device_names

    devices = {
        name: LoopbackDevice(name, tx_capacity=1 << 30)
        for name in device_names(text)
    }
    profile = ExecutionProfile(mode=mode, batch=batch)
    graph = load_config(text, "<click-update>")
    return Router(graph, devices=devices, profile=profile)


def main(argv=None):
    """``click-update`` CLI; exit status 1 when any update was rejected."""
    parser = argparse.ArgumentParser(
        prog="click-update",
        description="replay control-plane updates against a live router "
        "and report how each one was installed",
    )
    parser.add_argument("config", help="base configuration file")
    parser.add_argument(
        "--update",
        action="append",
        default=[],
        metavar="FILE",
        dest="updates",
        help="replacement configuration to apply (repeatable, in order)",
    )
    parser.add_argument(
        "--routes",
        action="append",
        default=[],
        metavar="NAME=TABLE",
        help="in-place route-table patch, e.g. rt='1.0.0.0/8 1, ...'",
    )
    parser.add_argument(
        "--rules",
        action="append",
        default=[],
        metavar="NAME=RULES",
        help="in-place classifier-rule patch, e.g. cls='12/0800, -'",
    )
    parser.add_argument(
        "--mode",
        choices=("reference", "fast", "adaptive", "fdd"),
        default="fast",
        help="execution profile to run the router under (default: fast)",
    )
    parser.add_argument("--batch", action="store_true", help="batched dispatch")
    parser.add_argument(
        "--diff-only",
        action="store_true",
        help="print each update's delta against the base without building a router",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable reports")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as handle:
            base_text = handle.read()
    except OSError as exc:
        parser.error("cannot read %s: %s" % (args.config, exc))

    # (label, kind, payload) in command-line order: full configs first
    # come from --update; --routes/--rules append after them.
    updates = []
    for path in args.updates:
        try:
            with open(path) as handle:
                updates.append((path, "config", handle.read()))
        except OSError as exc:
            parser.error("cannot read %s: %s" % (path, exc))
    for kind, flag in (("routes", args.routes), ("rules", args.rules)):
        for spec in flag:
            name, eq, value = spec.partition("=")
            if not eq or not name:
                parser.error("--%s wants NAME=VALUE, got %r" % (kind, spec))
            updates.append(("%s %s" % (kind, name), kind, (name, value)))
    if not updates:
        parser.error("nothing to do: give --update, --routes, or --rules")

    if args.diff_only:
        from ..core.toolchain import load_config
        from ..graph.diff import diff_graphs

        base = load_config(base_text, args.config)
        results = []
        for label, kind, payload in updates:
            if kind != "config":
                results.append({"update": label, "delta": "in-place %s patch" % kind})
                continue
            delta = diff_graphs(base, load_config(payload, label))
            results.append({"update": label, "delta": delta.as_dict()})
        if args.json:
            json.dump(results, sys.stdout, indent=2, sort_keys=True)
            sys.stdout.write("\n")
        else:
            for result in results:
                delta = result["delta"]
                summary = delta if isinstance(delta, str) else "structural" if delta["structural"] else "pure-data"
                print("%s: %s" % (result["update"], summary))
        return 0

    from . import ControlPlane, ControlPlaneError
    from ..lang.lexer import split_config_args

    router = _build_router(base_text, args.mode, args.batch)
    plane = ControlPlane(router)
    reports = []
    status = 0
    for label, kind, payload in updates:
        try:
            if kind == "config":
                report = plane.apply(payload)
            elif kind == "routes":
                report = plane.update_routes(payload[0], split_config_args(payload[1]))
            else:
                report = plane.update_rules(payload[0], split_config_args(payload[1]))
        except ControlPlaneError as exc:
            reports.append({"update": label, "error": str(exc)})
            status = 1
            continue
        entry = report.as_dict()
        entry["update"] = label
        reports.append(entry)

    if args.json:
        json.dump(reports, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        for entry in reports:
            if "error" in entry:
                print("%s: REJECTED: %s" % (entry["update"], entry["error"]))
            else:
                print(
                    "%s: %s in %.2f ms (%d patched, %d chains emitted, %d re-linked, %d reused)"
                    % (
                        entry["update"],
                        entry["kind"],
                        entry["total_seconds"] * 1e3,
                        entry["elements_patched"],
                        entry["chains_emitted"],
                        entry["chains_relinked"],
                        entry["chains_reused"],
                    )
                )
        print(
            "%d update(s): %d in-place, %d swaps, %d rejected"
            % (
                len(reports),
                sum(1 for e in reports if e.get("kind") == "in-place"),
                sum(1 for e in reports if e.get("kind", "").endswith("swap")),
                sum(1 for e in reports if "error" in e),
            )
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
