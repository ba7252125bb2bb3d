"""Differential fuzzing and verification (`click-fuzz`).

Four execution modes (reference interpreter, static fast path, batched
fast path, decision diagrams under tiered recompilation) and the `paper` optimization
pipeline all promise the same observable behaviour for any legal
configuration.  This package hunts violations of that promise: it
generates (configuration, traffic) cases, runs every case through the
full mode matrix on both the unoptimized and the pipeline-optimized
graph, compares transmitted bytes and element counters, and shrinks any
divergence to a minimal self-contained repro file.

See docs/VERIFY.md for the architecture and the replay workflow.
"""

from .chaos import compare_chaos, seeded_plan
from .genconfig import generate_case, stock_cases
from .oracle import MODES, compare_case, run_case
from .shrink import load_repro, shrink_case, write_repro

__all__ = [
    "MODES",
    "compare_case",
    "compare_chaos",
    "generate_case",
    "load_repro",
    "run_case",
    "seeded_plan",
    "shrink_case",
    "stock_cases",
    "write_repro",
]
