"""Command-line entry points: each tool as a Unix filter.

"The optimizers read Click router configurations on standard input,
analyze and transform them in various ways, and write the optimized
configurations to standard output.  They are thus easily combined, much
like compiler optimization passes" (§1) — e.g.::

    click-fastclassifier < ip.click | click-xform | click-devirtualize

Every entry point shares one option-parsing and IO path: a positional
``file`` (default stdin), ``-o/--output`` (default stdout), and
``--report FILE`` writing the JSON :class:`~repro.core.pipeline.
PipelineReport` of the run (``-`` sends it to stderr, keeping stdout
clean for the configuration).  ``click-optimize`` runs a whole named
pipeline — ``click-optimize --pipeline paper --report -`` replaces the
four-stage shell pipe above with one command.
"""

from __future__ import annotations

import argparse
import sys

from .align import align
from .check import check
from .devirtualize import devirtualize
from .fastclassifier import fastclassifier
from .flatten import flatten
from .mkmindriver import mkmindriver
from .pipeline import NAMED_PIPELINES, Pass, Pipeline, named_pipeline
from .pretty import pretty_html
from .toolchain import load_config, save_config
from .undead import undead
from .xform import PatternPair, xform


# ---------------------------------------------------------------------------
# The shared option-parsing / IO path.


def _base_parser(description, extra_args=None, pre_args=None):
    """The parser every filter entry point shares: ``file``, ``-o``,
    ``--report``; ``pre_args`` adds positionals before ``file``."""
    parser = argparse.ArgumentParser(description=description)
    if pre_args:
        pre_args(parser)
    parser.add_argument(
        "file", nargs="?", default="-", help="configuration file (default: stdin)"
    )
    parser.add_argument("-o", "--output", default="-", help="output file (default: stdout)")
    parser.add_argument(
        "--report",
        default=None,
        metavar="FILE",
        help="write the JSON pass report here (- for stderr)",
    )
    if extra_args:
        extra_args(parser)
    return parser


def _read_input(path):
    """Read a configuration file, ``-`` meaning stdin."""
    if path == "-":
        return sys.stdin.read()
    with open(path) as handle:
        return handle.read()


def _write_output(path, text):
    """Write output text, ``-`` meaning stdout."""
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


def _write_report(dest, report):
    """Write the JSON pass report; ``-`` means stderr (stdout carries
    the configuration)."""
    text = report.to_json() + "\n"
    if dest == "-":
        sys.stderr.write(text)
    else:
        with open(dest, "w") as handle:
            handle.write(text)


def _filter_main(make_pipeline, description, argv=None, extra_args=None,
                 pre_args=None, render=save_config, preflight=None):
    """Run one filter entry point: parse options, read, run the
    pipeline ``make_pipeline(args)`` builds, render, write, report."""
    parser = _base_parser(description, extra_args, pre_args)
    args = parser.parse_args(argv)
    if preflight is not None:
        status = preflight(args)
        if status is not None:
            return status
    graph = load_config(_read_input(args.file), args.file)
    pipeline = make_pipeline(args) if make_pipeline else Pipeline([])
    result = pipeline.run(graph)
    _write_output(args.output, render(result.graph))
    if args.report:
        _write_report(args.report, result.report)
    return 0


def _single_pass(make_pass):
    """A pipeline factory wrapping one tool pass."""

    def make_pipeline(args):
        return Pipeline([make_pass(args)])

    return make_pipeline


# ---------------------------------------------------------------------------
# The per-tool filters.


def fastclassifier_main(argv=None):
    """click-fastclassifier CLI."""
    return _filter_main(
        _single_pass(lambda args: fastclassifier.as_pass()),
        "Compile classifiers into specialized code.",
        argv,
    )


def devirtualize_main(argv=None):
    """click-devirtualize CLI."""
    def extra(parser):
        parser.add_argument(
            "-n",
            "--no-devirtualize",
            action="append",
            default=[],
            metavar="ELEMENT",
            help="do not devirtualize this element (repeatable)",
        )

    return _filter_main(
        _single_pass(lambda args: devirtualize.as_pass(exclude=args.no_devirtualize)),
        "Replace virtual packet transfers with direct calls.",
        argv,
        extra_args=extra,
    )


def xform_main(argv=None):
    """click-xform CLI."""
    def extra(parser):
        parser.add_argument(
            "-p",
            "--patterns",
            action="append",
            default=[],
            metavar="FILE",
            help="pattern file: alternating pattern/replacement compound bodies "
            "separated by lines of '%%%%' (default: the standard combo patterns)",
        )

    def make_pass(args):
        if not args.patterns:
            return xform.as_pass()
        from .patterns import STANDARD_PATTERNS

        pairs = list(STANDARD_PATTERNS)
        for path in args.patterns:
            with open(path) as handle:
                pairs.extend(parse_pattern_file(handle.read(), path))
        return xform.as_pass(patterns=pairs)

    return _filter_main(
        _single_pass(make_pass),
        "Replace element collections with combination elements.",
        argv,
        extra_args=extra,
    )


def parse_pattern_file(text, filename="<patterns>"):
    """Pattern files: pattern body, '%%' line, replacement body, '%%',
    next pattern body, ..."""
    sections = [part.strip() for part in text.split("\n%%\n")]
    sections = [part for part in sections if part]
    if len(sections) % 2:
        raise ValueError("%s: odd number of pattern/replacement sections" % filename)
    pairs = []
    for index in range(0, len(sections), 2):
        pairs.append(
            PatternPair.from_texts(
                sections[index], sections[index + 1], name="%s#%d" % (filename, index // 2)
            )
        )
    return pairs


def undead_main(argv=None):
    """click-undead CLI."""
    return _filter_main(
        _single_pass(lambda args: undead.as_pass()),
        "Remove dead code from the configuration.",
        argv,
    )


def align_main(argv=None):
    """click-align CLI."""
    return _filter_main(
        _single_pass(lambda args: align.as_pass()),
        "Insert Align elements for strict-alignment machines.",
        argv,
    )


def flatten_main(argv=None):
    """click-flatten CLI."""
    return _filter_main(
        _single_pass(lambda args: flatten.as_pass()),
        "Compile away compound element abstractions.",
        argv,
    )


def mkmindriver_main(argv=None):
    """click-mkmindriver CLI."""
    return _filter_main(
        _single_pass(lambda args: mkmindriver.as_pass()),
        "Attach a minimal driver manifest.",
        argv,
    )


def pretty_main(argv=None):
    """click-pretty CLI."""
    return _filter_main(
        None, "Pretty-print the configuration as HTML.", argv, render=pretty_html
    )


# ---------------------------------------------------------------------------
# The pipeline driver.


def optimize_main(argv=None):
    """click-optimize CLI: run a whole named pass pipeline in one
    command — ``click-optimize --pipeline paper --report -``."""
    def extra(parser):
        parser.add_argument(
            "--pipeline",
            default="paper",
            metavar="NAME",
            help="named pipeline to run (default: paper; see --list-pipelines)",
        )
        parser.add_argument(
            "--validate",
            action="store_true",
            help="run click-check between passes; fail naming the offending pass",
        )
        parser.add_argument(
            "--list-pipelines",
            action="store_true",
            help="list the named pipelines and exit",
        )
        parser.add_argument(
            "--fast",
            action="store_true",
            help="after the pipeline, compile the optimized router's "
            "runtime fast path and print its report to stderr",
        )
        parser.add_argument(
            "--adaptive",
            action="store_true",
            help="compile the optimized router under the tiered adaptive "
            "engine instead of the static fast path (implies --fast)",
        )
        parser.add_argument(
            "--fdd",
            action="store_true",
            help="compile the optimized router under the forwarding-"
            "decision-diagram engine (classifier trees fused into the "
            "chains) and print its diagram report (implies --fast)",
        )
        parser.add_argument(
            "--profile-report",
            action="store_true",
            help="with --adaptive/--fdd: also print the engine's "
            "per-chain tier/profile report to stderr",
        )
        parser.add_argument(
            "--supervised",
            action="store_true",
            help="run the compiled router supervised "
            "(implies --fast) and include its resilience report",
        )
        parser.add_argument(
            "--workers",
            type=int,
            default=1,
            metavar="N",
            help="also bring up the optimized router as a sharded data "
            "plane with N worker shards and print its shard report "
            "(implies --fast)",
        )
        parser.add_argument(
            "--shard-backend",
            default="thread",
            choices=("thread", "process"),
            help="worker backend for --workers (default: %(default)s)",
        )
        parser.add_argument(
            "--recovery",
            default=None,
            choices=("buffer", "resteer", "fail-fast"),
            metavar="POLICY",
            help="with --workers: attach the self-healing recovery "
            "manager under this policy (buffer, resteer, fail-fast) and "
            "include its recovery report in the shard section",
        )

    def preflight(args):
        if args.list_pipelines:
            for name in sorted(NAMED_PIPELINES):
                passes = NAMED_PIPELINES[name]()
                sys.stdout.write(
                    "%-12s %s\n" % (name, " -> ".join(p.name for p in passes))
                )
            return 0
        return None

    parser = _base_parser(
        "Run a named optimization pipeline over the configuration.", extra
    )
    args = parser.parse_args(argv)
    status = preflight(args)
    if status is not None:
        return status
    graph = load_config(_read_input(args.file), args.file)
    pipeline = named_pipeline(args.pipeline, validate="check" if args.validate else None)
    result = pipeline.run(graph)
    _write_output(args.output, save_config(result.graph))
    fastpath_section = None
    if (
        args.fast
        or args.adaptive
        or args.fdd
        or args.profile_report
        or args.supervised
        or args.workers > 1
    ):
        text, fastpath_section = _fastpath_report(
            result.graph,
            adaptive=(args.adaptive or args.profile_report) and not args.fdd,
            fdd=args.fdd,
            profile=args.profile_report,
            supervised=args.supervised,
            workers=args.workers,
            shard_backend=args.shard_backend,
            recovery=args.recovery,
        )
        sys.stderr.write(text + "\n")
    if args.report:
        _write_report_with_fastpath(args.report, result.report, fastpath_section)
    return 0


def _write_report_with_fastpath(dest, report, fastpath_section):
    """The pipeline's JSON report, extended with a ``fastpath`` section
    (compile time, chains emitted, per-chain generated-code size)
    when the run also compiled one."""
    if fastpath_section is None:
        _write_report(dest, report)
        return
    import json

    payload = report.to_dict()
    payload["fastpath"] = fastpath_section
    # Stable key order: fuzz/CI artifacts from repeated runs must diff
    # cleanly, so every dict (pass records, per-chain fastpath entries,
    # adaptive counters) serializes sorted.
    text = json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"
    if dest == "-":
        sys.stderr.write(text)
    else:
        with open(dest, "w") as handle:
            handle.write(text)


def _format_diagram_report(report):
    """Human-readable rendering of :meth:`AdaptiveEngine.diagram_report`."""
    lines = [
        "forwarding decision diagrams (node budget %d):" % report["node_budget"]
    ]
    for name, info in sorted(report["diagrams"].items()):
        lines.append(
            "  %-24s %3d nodes, %3d paths, gate %d, %d shared loads"
            % (name, info["nodes"], info["paths"], info["gate"], info["loads_saved"])
        )
    totals = report["totals"]
    lines.append(
        "  total: %d diagrams, %d nodes, %d paths, %d shared loads"
        % (
            totals["diagrams"],
            totals["nodes"],
            totals["paths"],
            totals["loads_saved"],
        )
    )
    if report["budget_fallbacks"]:
        lines.append(
            "  budget fallbacks (generic matcher): %s"
            % ", ".join(report["budget_fallbacks"])
        )
    cache = report["codegen_cache"]
    lines.append(
        "  codegen cache: %d entries, %d hits, %d misses"
        % (cache["entries"], cache["hits"], cache["misses"])
    )
    if report["rebuilds"]:
        lines.append("  diagram rebuilds (rules patches): %d" % report["rebuilds"])
    return "\n".join(lines)


def _fastpath_report(
    graph,
    adaptive=False,
    fdd=False,
    profile=False,
    supervised=False,
    workers=1,
    shard_backend="thread",
    recovery=None,
):
    """Instantiate the optimized graph (loopback devices stand in for
    whatever hardware the config names) and compile — but do not run —
    its fast path; returns ``(report text, report dict)``.  With
    ``adaptive`` the router comes up under the tiered engine instead,
    and ``profile`` appends its per-chain tier report.  ``supervised``
    runs the compiled router supervised and appends its resilience
    report (every task healthy at compile time — the section documents
    the tier stacks).
    ``workers > 1`` additionally spins the graph up as a sharded data
    plane (one compiled router per shard on ``shard_backend``) and
    appends its shard report — with ``recovery`` set, the plane comes
    up self-healing under that policy and the report carries the
    recovery section."""
    from ..elements.devices import LoopbackDevice
    from ..elements.runtime import Router
    from ..runtime import ExecutionProfile, FastPath

    class AutoDevices(dict):
        # The optimized config can name any hardware; every lookup
        # conjures a loopback stand-in so compilation never depends on
        # the machine this runs on.
        def get(self, name, default=None):
            if name not in self:
                self[name] = LoopbackDevice(name)
            return self[name]

    if fdd:
        run_profile = ExecutionProfile.fdd()
    elif adaptive:
        run_profile = ExecutionProfile.tiered()
    elif supervised:
        run_profile = ExecutionProfile.fast()  # --supervised implies --fast
    else:
        run_profile = ExecutionProfile.reference()
    if supervised:
        run_profile = run_profile.with_supervision()
    router = Router(graph, devices=AutoDevices(), profile=run_profile)
    engine = router.engine
    # No tier flag (plain --fast): build, don't install; report every chain's record.
    fastpath = FastPath(router) if engine is None else engine.tier1
    fastpath.records()
    compile_report = fastpath.report
    text = compile_report.format()
    section = compile_report.as_dict()
    if adaptive or fdd:
        if profile:
            text += "\n" + engine.profile_report().format()
        section["adaptive"] = engine.profile_report().as_dict()
        if fdd:
            diagram = engine.diagram_report()
            section["fdd"] = diagram
            text += "\n" + _format_diagram_report(diagram)
    if supervised:
        resilience = router.supervisor.report()
        text += "\n" + resilience.format()
        section["resilience"] = resilience.as_dict()
    if workers > 1:
        from ..elements.runtime import build_router
        from ..runtime.shard import device_names_of

        devices = AutoDevices()
        for name in device_names_of(graph):
            devices.get(name)
        shard_profile = run_profile.with_workers(workers, shard_backend)
        if recovery is not None:
            shard_profile = shard_profile.with_recovery(recovery)
        sharded = build_router(graph, devices=devices, profile=shard_profile)
        try:
            # One empty scheduler pass spins up (and compiles) every
            # shard so the report documents a live plane.
            sharded.run_tasks(1)
            shard_report = sharded.report()
            text += "\n" + shard_report.format()
            section["shard"] = shard_report.as_dict()
        finally:
            sharded.close()
    return text, section


# ---------------------------------------------------------------------------
# Entry points outside the single-filter mould.


def check_main(argv=None):
    """click-check CLI: exit status 1 on errors."""
    parser = argparse.ArgumentParser(description="Check a configuration for errors.")
    parser.add_argument("file", nargs="?", default="-")
    args = parser.parse_args(argv)
    collector = check(load_config(_read_input(args.file), args.file))
    report = collector.format()
    if report:
        sys.stderr.write(report + "\n")
    return 0 if collector.ok else 1


def combine_main(argv=None):
    """click-combine CLI."""
    parser = argparse.ArgumentParser(
        description="Combine router configurations into one (§7.2)."
    )
    parser.add_argument(
        "-r",
        "--router",
        action="append",
        default=[],
        metavar="NAME=FILE",
        help="a router and its configuration file (repeatable)",
    )
    parser.add_argument(
        "-l",
        "--link",
        action="append",
        default=[],
        metavar="A.dev=B.dev",
        help="a link: router A's device connects to router B's device",
    )
    parser.add_argument("-o", "--output", default="-")
    args = parser.parse_args(argv)

    from collections import OrderedDict

    from .combine import Link, combine

    routers = OrderedDict()
    for spec in args.router:
        name, _, path = spec.partition("=")
        routers[name] = load_config(_read_input(path), path)
    links = []
    for spec in args.link:
        left, _, right = spec.partition("=")
        from_router, _, from_device = left.partition(".")
        to_router, _, to_device = right.partition(".")
        links.append(Link(from_router, from_device, to_router, to_device))
    _write_output(args.output, save_config(combine(routers, links)))
    return 0


def uncombine_main(argv=None):
    """click-uncombine CLI."""
    from .combine import uncombine

    def pre(parser):
        parser.add_argument("router", help="router name to extract")

    return _filter_main(
        _single_pass(
            lambda args: Pass(
                uncombine, name="uncombine", options={"router_name": args.router}
            )
        ),
        "Extract one router from a combined configuration.",
        argv,
        pre_args=pre,
    )


def fuzz_main(argv=None):
    """click-fuzz CLI (lazy: the differential fuzzer pulls in the whole
    runtime, which the pure config filters never need)."""
    from ..verify.cli import main

    return main(argv)


def chaos_main(argv=None):
    """click-chaos CLI (lazy, like click-fuzz)."""
    from ..verify.chaos import main

    return main(argv)


def update_main(argv=None):
    """click-update CLI (lazy, like click-fuzz): replay control-plane
    updates against a live router and report how each installed."""
    from ..control.cli import main

    return main(argv)
