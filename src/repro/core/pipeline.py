"""The pass manager: optimizer tools as observable compiler passes.

The paper's tools compose "much like compiler optimization passes" (§1,
§5).  This module supplies the pass framework that makes the analogy
real:

- :class:`Pass` wraps any tool — a ``RouterGraph -> RouterGraph``
  callable — with a name, bound options, and optional fixpoint
  iteration;
- :class:`Pipeline` runs a sequence of passes, recording per pass the
  wall-clock time, element and connection counts before and after, the
  element classes added or removed, and the archive members generated —
  collected into a :class:`PipelineReport` (printable as a table,
  serializable to JSON);
- ``validate="check"`` runs click-check semantics between passes and
  raises :class:`PassError` naming the offending pass;
- :func:`named_pipeline` builds the standard tool orderings, notably
  ``"paper"`` — fastclassifier → xform → undead → align → devirtualize,
  honouring §6.1's devirtualize-last rule (a :class:`PipelineWarning`
  fires when a pipeline violates it); and
- :func:`tool_api` is the decorator unifying every tool behind one
  calling convention: ``tool(graph, **options)`` plus an
  ``as_pass(**options)`` factory.
"""

from __future__ import annotations

import functools
import json
import time
import warnings
from dataclasses import dataclass, field

from ..errors import ClickSemanticError

#: Default bound on fixpoint iteration (divergence guard).
DEFAULT_MAX_ITERATIONS = 16

#: Passes that rewrite graph structure; devirtualize must follow them
#: (§6.1: it cements the order of elements in the graph).
_STRUCTURAL_PASS_NAMES = {
    "fastclassifier",
    "xform",
    "undead",
    "align",
    "flatten",
    "eliminate-arp",
}


class PassError(ClickSemanticError):
    """A pass failed, or left the configuration invalid; carries the
    name of the offending pass in ``pass_name``."""

    def __init__(self, message, pass_name=None):
        super().__init__(message)
        self.pass_name = pass_name


class PipelineWarning(UserWarning):
    """A pipeline is legal but suspicious (e.g. devirtualize not last)."""


class Pass:
    """One named pipeline stage: a tool plus bound options.

    A Pass is itself a tool (``pass_(graph) -> RouterGraph``), so passes
    nest inside :func:`~repro.core.toolchain.chain` or other pipelines.
    With ``fixpoint=True`` the tool is re-applied until the serialized
    configuration stops changing, bounded by ``max_iterations`` (the
    divergence guard — exceeding it raises :class:`PassError`).
    """

    def __init__(self, tool, name=None, options=None, fixpoint=False,
                 max_iterations=DEFAULT_MAX_ITERATIONS):
        self.tool = tool
        self.name = name or getattr(tool, "pass_name", None) or getattr(
            tool, "__name__", "pass"
        )
        self.options = dict(options or {})
        self.fixpoint = fixpoint
        self.max_iterations = max_iterations
        # chain() labels stages by __name__.
        self.__name__ = self.name

    def apply(self, graph):
        """Apply the tool once."""
        return self.tool(graph, **self.options)

    def run(self, graph):
        """Apply the tool, honouring ``fixpoint``; returns
        ``(graph, iterations)``."""
        if not self.fixpoint:
            return self.apply(graph), 1
        from .toolchain import save_config

        iterations = 0
        text = save_config(graph)
        while True:
            iterations += 1
            if iterations > self.max_iterations:
                raise PassError(
                    "pass %r failed to reach a fixpoint after %d iterations "
                    "(divergence guard; the pass keeps changing the graph)"
                    % (self.name, self.max_iterations),
                    pass_name=self.name,
                )
            graph = self.apply(graph)
            new_text = save_config(graph)
            if new_text == text:
                return graph, iterations
            text = new_text

    def __call__(self, graph):
        """Tool convention: graph in, transformed graph out."""
        return self.run(graph)[0]

    def __repr__(self):
        options = ", ".join("%s=%r" % item for item in sorted(self.options.items()))
        return "Pass(%s%s%s)" % (
            self.name, ", " + options if options else "",
            ", fixpoint" if self.fixpoint else "",
        )


@dataclass(frozen=True)
class PassRecord:
    """What one pass did: wall-clock time and graph deltas."""

    name: str
    seconds: float
    iterations: int
    elements_before: int
    elements_after: int
    connections_before: int
    connections_after: int
    classes_added: tuple = ()
    classes_removed: tuple = ()
    archive_members_added: tuple = ()
    requirements_added: tuple = ()

    @property
    def elements_delta(self):
        """Net change in element count."""
        return self.elements_after - self.elements_before

    @property
    def connections_delta(self):
        """Net change in connection count."""
        return self.connections_after - self.connections_before

    def to_dict(self):
        """The record as JSON-serializable primitives."""
        return {
            "name": self.name,
            "seconds": self.seconds,
            "iterations": self.iterations,
            "elements_before": self.elements_before,
            "elements_after": self.elements_after,
            "elements_delta": self.elements_delta,
            "connections_before": self.connections_before,
            "connections_after": self.connections_after,
            "connections_delta": self.connections_delta,
            "classes_added": list(self.classes_added),
            "classes_removed": list(self.classes_removed),
            "archive_members_added": list(self.archive_members_added),
            "requirements_added": list(self.requirements_added),
        }


class PipelineReport:
    """The structured observation record of one pipeline run: a
    :class:`PassRecord` per pass, printable (:meth:`to_table`) and
    serializable (:meth:`to_json`)."""

    def __init__(self, records=(), name=None):
        self.records = list(records)
        self.name = name

    @property
    def total_seconds(self):
        """Wall-clock time summed over all passes."""
        return sum(record.seconds for record in self.records)

    def __iter__(self):
        return iter(self.records)

    def __len__(self):
        return len(self.records)

    def record(self, name):
        """The first record for the pass called ``name``."""
        for record in self.records:
            if record.name == name:
                return record
        raise KeyError(name)

    def to_dict(self):
        """The report as JSON-serializable primitives."""
        return {
            "pipeline": self.name,
            "total_seconds": self.total_seconds,
            "passes": [record.to_dict() for record in self.records],
        }

    def to_json(self, indent=2):
        """The report as a JSON document (stable key order, so repeated
        runs diff cleanly)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_table(self):
        """The report as an aligned plain-text table."""
        headers = ["pass", "ms", "iter", "elements", "connections",
                   "classes", "archive"]
        rows = []
        for record in self.records:
            rows.append([
                record.name,
                "%.2f" % (record.seconds * 1e3),
                "%d" % record.iterations,
                "%d → %d" % (record.elements_before, record.elements_after),
                "%d → %d" % (record.connections_before, record.connections_after),
                "+%d/-%d" % (len(record.classes_added), len(record.classes_removed)),
                ", ".join(record.archive_members_added) or "-",
            ])
        rows.append([
            "total", "%.2f" % (self.total_seconds * 1e3), "", "", "", "", "",
        ])
        widths = [max(len(row[i]) for row in [headers] + rows) for i in range(len(headers))]
        lines = [
            "  ".join(cell.ljust(width) for cell, width in zip(headers, widths)).rstrip(),
            "  ".join("-" * width for width in widths),
        ]
        for row in rows:
            lines.append(
                "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
            )
        return "\n".join(lines)

    def __str__(self):
        return self.to_table()

    def __repr__(self):
        return "PipelineReport(%r, %d passes, %.1f ms)" % (
            self.name, len(self.records), self.total_seconds * 1e3,
        )


@dataclass(frozen=True)
class PipelineResult:
    """What :meth:`Pipeline.run` returns: the transformed graph and the
    :class:`PipelineReport` observed while producing it."""

    graph: object
    report: PipelineReport = field(default_factory=PipelineReport)

    def __iter__(self):
        """Unpack as ``graph, report = pipeline.run(...)``."""
        return iter((self.graph, self.report))


class Pipeline:
    """A pass manager: run a sequence of passes over a RouterGraph,
    observing each one.

    ``passes`` may mix :class:`Pass` objects, unified tools (anything
    with an ``as_pass`` factory), and plain ``graph -> graph`` callables.
    ``validate="check"`` runs click-check semantics after every pass and
    raises :class:`PassError` naming the first pass that leaves the
    configuration invalid.  A pipeline is itself a tool:
    ``pipeline(graph)`` returns just the transformed graph (the report
    remains available as ``pipeline.last_report``).
    """

    def __init__(self, passes, name=None, validate=None, warn_misordered=True):
        self.passes = [self._coerce(item) for item in passes]
        self.name = name
        self.validate = self._check_validate(validate)
        self.last_report = None
        if warn_misordered:
            self._warn_if_misordered()

    @staticmethod
    def _coerce(item):
        if isinstance(item, Pass):
            return item
        if callable(item):
            factory = getattr(item, "as_pass", None)
            if factory is not None:
                return factory()
            return Pass(item)
        raise TypeError("not a pass or tool: %r" % (item,))

    @staticmethod
    def _check_validate(validate):
        if validate not in (None, "check"):
            raise ValueError("validate must be None or 'check', not %r" % (validate,))
        return validate

    def _warn_if_misordered(self):
        names = [pass_.name for pass_ in self.passes]
        if "devirtualize" in names:
            tail = names[names.index("devirtualize") + 1:]
            late = [name for name in tail if name in _STRUCTURAL_PASS_NAMES]
            if late:
                warnings.warn(
                    "devirtualize should be the last optimizer (§6.1: it "
                    "cements element order); %s run(s) after it" % ", ".join(late),
                    PipelineWarning,
                    stacklevel=3,
                )

    def run(self, graph, validate=None):
        """Run every pass over ``graph``; returns a
        :class:`PipelineResult` (graph + report).  ``validate``
        overrides the pipeline's validation mode for this run."""
        validate = self._check_validate(validate) or self.validate
        records = []
        current = graph
        for pass_ in self.passes:
            previous = current
            before = _snapshot(current)
            started = time.perf_counter()
            try:
                current, iterations = pass_.run(current)
            except PassError:
                raise
            except Exception as exc:
                raise PassError(
                    "pass %r failed: %s" % (pass_.name, exc), pass_name=pass_.name
                ) from exc
            elapsed = time.perf_counter() - started
            if validate == "check":
                self._validate_between(current, pass_.name)
            records.append(_record(pass_.name, elapsed, iterations, before, current))
            # Emulate the tools' textual boundary: a re-parse restarts
            # anonymous-name numbering, so the in-memory pipeline must
            # too for its output to match the equivalent shell pipe.
            if current is not previous and hasattr(current, "reset_anon_names"):
                current.reset_anon_names()
        report = PipelineReport(records, name=self.name)
        self.last_report = report
        return PipelineResult(current, report)

    @staticmethod
    def _validate_between(graph, pass_name):
        from .check import check

        collector = check(graph)
        if not collector.ok:
            raise PassError(
                "pass %r produced an invalid configuration:\n%s"
                % (pass_name, collector.format()),
                pass_name=pass_name,
            )

    def __call__(self, graph):
        """Tool convention: graph in, transformed graph out."""
        return self.run(graph).graph

    def __repr__(self):
        return "Pipeline(%s)" % ", ".join(repr(pass_) for pass_ in self.passes)


def _snapshot(graph):
    """The observable state of a graph a PassRecord diffs against."""
    return {
        "elements": len(graph.elements),
        "connections": len(graph.connections),
        "classes": {decl.class_name for decl in graph.elements.values()},
        "archive": set(graph.archive),
        "requirements": set(graph.requirements),
    }


def _record(name, seconds, iterations, before, graph):
    after = _snapshot(graph)
    return PassRecord(
        name=name,
        seconds=seconds,
        iterations=iterations,
        elements_before=before["elements"],
        elements_after=after["elements"],
        connections_before=before["connections"],
        connections_after=after["connections"],
        classes_added=tuple(sorted(after["classes"] - before["classes"])),
        classes_removed=tuple(sorted(before["classes"] - after["classes"])),
        archive_members_added=tuple(sorted(after["archive"] - before["archive"])),
        requirements_added=tuple(sorted(after["requirements"] - before["requirements"])),
    )


def tool_api(name=None):
    """Unify a tool behind the ``tool(graph, **options)`` convention:
    options are keyword-only.  The tool also gains
    ``tool.as_pass(**options)``, a factory producing a bound
    :class:`Pass` (the reserved keywords ``fixpoint`` and
    ``max_iterations`` configure the pass itself).
    """

    def decorate(fn):
        tool_name = name or fn.__name__

        @functools.wraps(fn)
        def tool(graph, **options):
            return fn(graph, **options)

        def as_pass(**options):
            """Build a :class:`Pass` running this tool with ``options``."""
            fixpoint = options.pop("fixpoint", False)
            max_iterations = options.pop("max_iterations", DEFAULT_MAX_ITERATIONS)
            return Pass(
                tool, name=tool_name, options=options,
                fixpoint=fixpoint, max_iterations=max_iterations,
            )

        tool.pass_name = tool_name
        tool.as_pass = as_pass
        return tool

    return decorate


# ---------------------------------------------------------------------------
# Named standard pipelines.  Factories import the tools lazily: the tool
# modules import this module for tool_api, so top-level imports here
# would be circular.


def _paper_passes():
    """§6.1's full chain, devirtualize last: fastclassifier → xform →
    undead → align → devirtualize."""
    from .align import align
    from .devirtualize import devirtualize
    from .fastclassifier import fastclassifier
    from .undead import undead
    from .xform import xform

    return [
        fastclassifier.as_pass(),
        xform.as_pass(),
        undead.as_pass(),
        align.as_pass(),
        devirtualize.as_pass(),
    ]


def _forwarding_passes():
    """Figure 9's "All" variant: fastclassifier → xform → devirtualize."""
    from .devirtualize import devirtualize
    from .fastclassifier import fastclassifier
    from .xform import xform

    return [fastclassifier.as_pass(), xform.as_pass(), devirtualize.as_pass()]


def _cleanup_passes():
    """Abstraction removal only: flatten → undead."""
    from .flatten import flatten
    from .undead import undead

    return [flatten.as_pass(), undead.as_pass()]


#: Named standard pipelines: name → zero-argument pass-list factory.
NAMED_PIPELINES = {
    "paper": _paper_passes,
    "forwarding": _forwarding_passes,
    "cleanup": _cleanup_passes,
}


def named_pipeline(name, validate=None):
    """Build one of the standard pipelines (see :data:`NAMED_PIPELINES`)."""
    try:
        factory = NAMED_PIPELINES[name]
    except KeyError:
        raise ValueError(
            "unknown pipeline %r (available: %s)"
            % (name, ", ".join(sorted(NAMED_PIPELINES)))
        ) from None
    return Pipeline(factory(), name=name, validate=validate)
