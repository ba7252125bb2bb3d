"""The paper's contribution: optimization tools over router
configurations, composable like compiler passes.

- :func:`fastclassifier` — classifiers → generated code (§4)
- :func:`devirtualize` — virtual transfers → direct calls (§6.1)
- :func:`xform` — subgraph pattern replacement (§6.2)
- :func:`undead` — dead-code elimination (§6.3)
- :func:`align` — alignment data-flow and Align insertion (§7.1)
- :func:`combine` / :func:`uncombine` / :func:`eliminate_arp` — the
  multiple-router tools (§7.2)
- :func:`check`, :func:`flatten`, :func:`mkmindriver`,
  :func:`pretty_html` — supporting tools (§7)

Every optimizer follows one calling convention — ``tool(graph,
**options) -> RouterGraph`` — and carries an ``as_pass(**options)``
factory producing a :class:`Pass` for the :class:`Pipeline` pass
manager (per-pass timing, graph deltas, inter-pass validation; see
:mod:`repro.core.pipeline` and docs/PIPELINE.md).
"""

from .align import align, compute_alignments
from .check import check, click_check
from .combine import Link, combine, eliminate_arp, uncombine
from .devirtualize import devirtualize, sharing_classes
from .fastclassifier import fastclassifier
from .flatten import flatten
from .mkmindriver import make_minimal_class_table, mkmindriver, required_classes
from .patterns import CLEANUP_PATTERNS, STANDARD_PATTERNS, arp_elimination_pattern
from .pipeline import (
    NAMED_PIPELINES,
    Pass,
    PassError,
    PassRecord,
    Pipeline,
    PipelineReport,
    PipelineResult,
    PipelineWarning,
    named_pipeline,
    tool_api,
)
from .pretty import pretty_html
from .specialize import DevirtualizedMixin, make_devirtualized_class
from .toolchain import chain, load_config, run_tool_on_text, save_config, tool_specs
from .undead import undead
from .xform import PatternPair, xform

__all__ = [
    "align",
    "compute_alignments",
    "check",
    "click_check",
    "Link",
    "combine",
    "eliminate_arp",
    "uncombine",
    "devirtualize",
    "sharing_classes",
    "fastclassifier",
    "flatten",
    "make_minimal_class_table",
    "mkmindriver",
    "required_classes",
    "CLEANUP_PATTERNS",
    "STANDARD_PATTERNS",
    "arp_elimination_pattern",
    "pretty_html",
    "DevirtualizedMixin",
    "make_devirtualized_class",
    "chain",
    "load_config",
    "run_tool_on_text",
    "save_config",
    "tool_specs",
    "undead",
    "xform",
    "PatternPair",
    "NAMED_PIPELINES",
    "Pass",
    "PassError",
    "PassRecord",
    "Pipeline",
    "PipelineReport",
    "PipelineResult",
    "PipelineWarning",
    "named_pipeline",
    "tool_api",
]
