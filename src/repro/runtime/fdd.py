"""Forwarding decision diagrams: whole-graph symbolic compilation.

The fast path (:mod:`repro.runtime.fastpath`) inlines per-element code
but still *dispatches* per element: a classifier terminal calls its
compiled matcher, branches on the result, and each arm re-tests packet
bytes that the matcher already examined.  "A Fast Compiler for NetKAT"
compiles entire policies into BDD/FDD form where every packet field is
tested at most once per path; this module is that move applied to the
compiled chains.

:func:`build_diagram` expands a classifier's optimized decision tree
(:class:`repro.classifier.tree.DecisionTree` — a DAG of masked-word
tests) into an *ordered decision diagram plan*: a nested if/else
structure over named byte locations, where each location (a contiguous
byte slice or a masked 32-bit word) is materialized into a local at
most once per root-to-leaf path.  The chain compiler
(:meth:`FastPath._emit_classifier_diagram`) emits the plan in place of
the matcher call, fusing the per-output chain bodies — CheckIPHeader,
route lookup, TTL decrement and all — straight onto the diagram's
leaves, so a forwarded packet runs from device to queue through one
specialized root-to-leaf function with no matcher call at all.

Safety mirrors the adaptive tiers (Morpheus-style):

- **short packets** cannot be tested in-bounds the way the tree's
  interpreted traversal zero-pads them, so every diagram carries a
  *length gate*; packets under it fall back to the compiled matcher,
  which pads identically.
- **profile-guided ordering**: the tier-2 FDD policy walks the profiled
  hot exemplar through the tree and flips each diagram test so the hot
  side is the fall-through — the adaptive guard machinery (sampling
  dispatchers, guard-miss counters, deopt) is inherited unchanged from
  :class:`AdaptiveEngine`.
- **control-plane patches**: a rules update changes tree *content*
  that diagrams bake in, so :meth:`FDDEngine.on_table_patch` rebuilds
  only the chains that can reach the patched classifier (scoped donor
  reuse splices every untouched chain verbatim); route patches need no
  rebuild at all — compiled lookups read the live table through bound
  memo/lookup cells, exactly as in adaptive mode.

Cache addressing: diagram code inlines tree content, which a rules
patch changes *without* changing the graph fingerprint, so every FDD
policy folds a digest of the live tree signatures (diagram shapes)
into its codegen-cache key.
"""

from __future__ import annotations

import hashlib

from .adaptive import (
    AdaptiveEngine,
    OptimizedPolicy,
    ProfilingPolicy,
)
from .codegen_cache import default_cache
from .fastpath import ChainPolicy, FastPath

__all__ = [
    "DEFAULT_NODE_BUDGET",
    "DiagramPlan",
    "FDDEngine",
    "FDDOptimizedPolicy",
    "FDDPolicy",
    "FDDProfilingPolicy",
    "TUNABLES",
    "build_diagram",
    "classifier_hot_path",
    "router_trees",
    "trees_digest",
]

#: Expanding a DAG-shaped tree into nested if/else replicates shared
#: subtrees; past this many expanded test nodes a classifier keeps the
#: generic matcher emission (correct, just not diagram-fused).  Sized
#: so the paper's 17-rule screened-subnet IPFilter (107 expanded nodes)
#: still compiles to a diagram.
DEFAULT_NODE_BUDGET = 160

#: Parameter-space declaration for the autotuner (:mod:`repro.tune`).
#: The budget trades diagram coverage (too low and big classifiers fall
#: back to the generic matcher) against generated-code size.
TUNABLES = (
    {
        "name": "fdd.node_budget",
        "kind": "log_int",
        "low": 32,
        "high": 1024,
        "default": DEFAULT_NODE_BUDGET,
    },
)


class _BudgetExceeded(Exception):
    pass


def _loc_for(expr):
    """The cheapest load for one tree test: a contiguous byte slice
    when the mask covers whole bytes, else the masked 32-bit word.
    Returns ``(loc, cond)`` — ``loc`` identifies the materialized
    local, ``cond`` how to compare it."""
    mask_bytes = expr.mask.to_bytes(4, "big")
    set_bytes = [i for i in range(4) if mask_bytes[i]]
    if set_bytes and all(mask_bytes[i] == 0xFF for i in set_bytes):
        first, last = set_bytes[0], set_bytes[-1]
        if set_bytes == list(range(first, last + 1)):
            value_bytes = expr.value.to_bytes(4, "big")[first : last + 1]
            return (
                ("slice", expr.offset + first, expr.offset + last + 1),
                ("bytes", bytes(value_bytes)),
            )
    return ("word", expr.offset), ("masked", expr.mask, expr.value)


def _loc_name(loc):
    if loc[0] == "slice":
        return "_fdd_%d_%d" % (loc[1], loc[2])
    return "_fddw_%d" % loc[1]


def _loc_load(loc, data_var):
    if loc[0] == "slice":
        return "%s[%d:%d]" % (data_var, loc[1], loc[2])
    return "int.from_bytes(%s[%d:%d], 'big')" % (data_var, loc[1], loc[1] + 4)


def _loc_need(loc):
    """Bytes the gate must guarantee for this loc's in-bounds read to
    agree with the tree's zero-padding traversal."""
    if loc[0] == "slice":
        return loc[2]
    return loc[1] + 4


def _cond(name, cond, negate=False):
    if cond[0] == "bytes":
        return "%s %s %r" % (name, "!=" if negate else "==", cond[1])
    _, mask, value = cond
    op = "!=" if negate else "=="
    if mask == 0xFFFFFFFF:
        return "%s %s 0x%x" % (name, op, value)
    return "(%s & 0x%x) %s 0x%x" % (name, mask, op, value)


class DiagramPlan:
    """One classifier's expanded decision diagram, ready to emit.

    ``root`` is a nested node structure: ``("leaf", leaf_id, out)``
    (``out`` None = drop) or ``("test", loc, cond, swap, first,
    second)`` where ``swap`` means the emitted condition is negated and
    ``first`` is the tree's *no* side (profile-hot fall-through).
    ``gate`` is the contents length under which the compiled matcher
    must run instead; ``nodes``/``paths``/``loads_saved`` feed the
    diagram report.
    """

    __slots__ = ("root", "nodes", "paths", "gate", "loads_saved", "signature")

    def __init__(self, root, nodes, paths, gate, loads_saved, signature):
        self.root = root
        self.nodes = nodes
        self.paths = paths
        self.gate = gate
        self.loads_saved = loads_saved
        self.signature = signature

    def leaves(self):
        """Every ``(leaf_id, out)`` in emission order."""
        found = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node[0] == "leaf":
                found.append((node[1], node[2]))
            else:
                stack.append(node[5])
                stack.append(node[4])
        return found

    def emit(self, data_var, pad, leaf_render):
        """Render the diagram as source lines.  ``leaf_render(leaf_id,
        out, pad)`` supplies each leaf's body (fused chain, jump-table
        call, or drop count)."""
        lines = []
        self._emit(self.root, data_var, pad, leaf_render, frozenset(), lines)
        return lines

    def _emit(self, node, data_var, pad, leaf_render, have, lines):
        if node[0] == "leaf":
            lines.extend(leaf_render(node[1], node[2], pad))
            return
        _, loc, cond, swap, first, second = node
        name = _loc_name(loc)
        if loc not in have:
            lines.append(pad + "%s = %s" % (name, _loc_load(loc, data_var)))
            have = have | {loc}
        lines.append(pad + "if %s:" % _cond(name, cond, negate=swap))
        self._emit(first, data_var, pad + "    ", leaf_render, have, lines)
        lines.append(pad + "else:")
        self._emit(second, data_var, pad + "    ", leaf_render, have, lines)

    def as_dict(self):
        return {
            "nodes": self.nodes,
            "paths": self.paths,
            "gate": self.gate,
            "loads_saved": self.loads_saved,
        }


def build_diagram(tree, hot_path=None, node_budget=DEFAULT_NODE_BUDGET):
    """Expand ``tree`` into a :class:`DiagramPlan`, or None when the
    expansion would exceed ``node_budget`` test nodes (shared subtrees
    replicate) — the caller then keeps the generic matcher emission.

    ``hot_path`` maps 1-based tree positions to the branch the profiled
    hot flow takes there (``{pos: taken}``); those tests emit with the
    hot side as the fall-through.  Constant trees (no expressions —
    empty/'-' rule tables) become a single-leaf plan with gate 0.
    """
    from ..classifier.tree import is_leaf, leaf_output

    if tree is None:
        return None
    hot_path = hot_path or {}
    exprs = tree.exprs
    signature = tree.signature()
    if not exprs:
        root = ("leaf", 0, tree.constant_output)
        return DiagramPlan(root, 0, 1, 0, 0, signature)
    state = {"nodes": 0, "leaves": 0, "saved": 0, "gate": 0}

    def expand(target, have):
        if is_leaf(target):
            leaf_id = state["leaves"]
            state["leaves"] += 1
            return ("leaf", leaf_id, leaf_output(target))
        expr = exprs[target - 1]
        if expr.mask == 0:
            # A constant test (the optimizer normally folds these):
            # (word & 0) == value is True exactly when value is 0.
            return expand(expr.yes if expr.value == 0 else expr.no, have)
        state["nodes"] += 1
        if state["nodes"] > node_budget:
            raise _BudgetExceeded()
        loc, cond = _loc_for(expr)
        state["gate"] = max(state["gate"], _loc_need(loc))
        if loc in have:
            state["saved"] += 1
        else:
            have = have | {loc}
        swap = hot_path.get(target) is False
        first = expand(expr.no if swap else expr.yes, have)
        second = expand(expr.yes if swap else expr.no, have)
        return ("test", loc, cond, swap, first, second)

    try:
        root = expand(1, frozenset())
    except (_BudgetExceeded, RecursionError):
        return None
    return DiagramPlan(
        root, state["nodes"], state["leaves"], state["gate"], state["saved"], signature
    )


def classifier_hot_path(tree, hot_out, exemplar):
    """The ``(pos, taken)`` steps the profiled hot exemplar takes
    through ``tree``, or ``()`` when there is no exemplar or it does
    not actually reach ``hot_out`` (several leaves can share an
    output; orienting the wrong path would pessimize the hot flow)."""
    from ..classifier.tree import is_leaf, leaf_output

    if tree is None or not tree.exprs or exemplar is None:
        return ()
    path = []
    target = 1
    for _ in range(len(tree.exprs) + 1):
        expr = tree.exprs[target - 1]
        taken = expr.test(exemplar)
        path.append((target, taken))
        target = expr.yes if taken else expr.no
        if is_leaf(target):
            return tuple(path) if leaf_output(target) == hot_out else ()
    return ()


def router_trees(router):
    """``{name: tree}`` for every classifier element whose dispatch the
    chain compiler specializes (live-patchable tree walkers and the
    generated fast classifiers)."""
    from ..elements.classifiers import FastClassifierBase, _TreeClassifier

    trees = {}
    for name, element in router.elements.items():
        push = type(element).push
        if push is _TreeClassifier.push or push is FastClassifierBase.push:
            tree = getattr(element, "tree", None)
            if tree is not None:
                trees[name] = tree
    return trees


def trees_digest(trees):
    """Content digest over every live tree signature — the diagram-shape
    component of FDD cache keys.  A control-plane rules patch changes a
    tree without changing the graph fingerprint; this digest keeps the
    stale diagram entry from replaying."""
    canonical = sorted((name, tree.signature()) for name, tree in trees.items())
    return hashlib.sha256(repr(canonical).encode("utf-8")).hexdigest()[:16]


class FDDPolicy(ChainPolicy):
    """Tier 1 of FDD mode: the static policy plus whole-tree diagram
    emission for every classifier terminal, with cross-element fact
    fusion on every chain.  Plans are built eagerly so a cache-hit
    replay still carries them (for the diagram report and repatching)."""

    profiling = False
    tag = "fdd"
    fuse_facts = True

    def __init__(self, router, node_budget=DEFAULT_NODE_BUDGET):
        self.node_budget = node_budget
        self.trees = router_trees(router)
        self.digest = trees_digest(self.trees)
        self.plans = {}
        for name, tree in sorted(self.trees.items()):
            plan = self._build_plan(name, tree)
            if plan is not None:
                self.plans[name] = plan

    def _build_plan(self, name, tree):
        return build_diagram(tree, node_budget=self.node_budget)

    def cache_key(self):
        return ("fdd", self.node_budget, self.digest)

    def reuse_key(self):
        # Donor reuse across a rules patch: the dirty-set closure
        # already recompiles every chain that can reach the patched
        # classifier, and untouched closures see identical trees — so
        # the content digest must not veto the splice.
        return ("fdd", self.node_budget)

    def classifier_diagram(self, element):
        return self.plans.get(element.name)


class FDDProfilingPolicy(FDDPolicy):
    """The instrumented tier-1 flavor: identical diagrams plus the
    note hooks the profile store feeds on (diagram leaves note their
    output, the short-packet fallback notes the matcher's)."""

    profiling = True
    tag = "fdd-profiling"

    def __init__(self, router, store, node_budget=DEFAULT_NODE_BUDGET):
        super().__init__(router, node_budget=node_budget)
        self.store = store

    def cache_key(self):
        return ("fdd-profiling", self.node_budget, self.digest)

    def reuse_key(self):
        return ("fdd-profiling", self.node_budget)

    classifier_note = ProfilingPolicy.classifier_note
    route_note = ProfilingPolicy.route_note
    resolve = ProfilingPolicy.resolve


class FDDOptimizedPolicy(OptimizedPolicy):
    """Tier 2 of FDD mode: everything the adaptive optimized policy
    speculates (branch order, route/ARP constants, cold-arm pruning)
    plus profile-*ordered* diagrams — each test's hot side, per the
    profiled exemplar's root-to-leaf walk, becomes the fall-through.

    The per-element classifier guard is superseded wherever a plan
    exists (the diagram already puts the hot path first without the
    redundant pre-test); budget-fallback classifiers keep the guard."""

    tag = "fdd-optimized"
    fuse_facts = True

    def __init__(
        self,
        router,
        decisions,
        engine=None,
        exemplars=None,
        node_budget=DEFAULT_NODE_BUDGET,
    ):
        super().__init__(decisions, engine)
        self.node_budget = node_budget
        self.trees = router_trees(router)
        self.digest = trees_digest(self.trees)
        # Canonical (pos, taken) hot paths — not raw exemplar bytes —
        # so two runs profiling different packets of the same flow
        # shape produce the same cache key.
        self.hot_paths = {}
        for name, tree in sorted(self.trees.items()):
            decision = decisions.classifier.get(name)
            if not decision:
                continue
            hot_out = decision["order"][0]
            exemplar = (exemplars or {}).get(name, {}).get(hot_out)
            path = classifier_hot_path(tree, hot_out, exemplar)
            if path:
                self.hot_paths[name] = path
        self.plans = {}
        for name, tree in sorted(self.trees.items()):
            plan = build_diagram(
                tree,
                hot_path=dict(self.hot_paths.get(name, ())),
                node_budget=self.node_budget,
            )
            if plan is not None:
                self.plans[name] = plan
        canonical = sorted(self.hot_paths.items())
        self._hot_digest = hashlib.sha256(
            repr(canonical).encode("utf-8")
        ).hexdigest()[:16]

    def cache_key(self):
        return (
            "fdd-optimized",
            self.node_budget,
            self.digest,
            self.decisions.digest,
            self._hot_digest,
        )

    def reuse_key(self):
        return (
            "fdd-optimized",
            self.node_budget,
            self.decisions.digest,
            self._hot_digest,
        )

    def classifier_diagram(self, element):
        return self.plans.get(element.name)

    def classifier_guard(self, element):
        if element.name in self.plans:
            return None
        return super().classifier_guard(element)


class FDDEngine(AdaptiveEngine):
    """The FDD execution engine: the adaptive tiered engine with every
    policy swapped for its diagram-emitting counterpart.

    Tier 1 compiles each classifier's whole tree into its chains (with
    fact fusion down to the route lookup); the sampling dispatchers,
    promotion thresholds, guard-miss deopt and profile store are
    inherited unchanged.  Tier 2 re-emits the diagrams with
    profile-ordered tests and the usual route/ARP speculation.  A
    control-plane *rules* patch triggers :meth:`repatch_classifier` — a
    scoped rebuild that recompiles only the chains reaching the patched
    element and splices every other chain verbatim from the old
    compile; *route* patches fall through to the inherited deopt (the
    compiled lookup reads the live table, only speculation is stale).
    """

    mode_label = "fdd"
    tier_label = "fdd"

    def __init__(self, router, config=None, batch=False, node_budget=DEFAULT_NODE_BUDGET):
        self.node_budget = node_budget
        self.diagram_rebuilds = 0
        super().__init__(router, config=config, batch=batch)

    # -- policy factories --------------------------------------------------

    def _tier1_policy(self):
        return FDDPolicy(self.router, node_budget=self.node_budget)

    def _profiling_policy(self):
        return FDDProfilingPolicy(self.router, self.store, node_budget=self.node_budget)

    def _optimized_policy(self, decisions):
        return FDDOptimizedPolicy(
            self.router,
            decisions,
            engine=self,
            exemplars=self.store.classifier_exemplar,
            node_budget=self.node_budget,
        )

    # -- control-plane patching --------------------------------------------

    def on_table_patch(self, name, kind):
        if kind == "rules" and name in getattr(self.tier1.policy, "plans", {}):
            # The patched tree is baked into compiled diagrams; rebuild
            # just the chains that can reach it.
            return self.repatch_classifier(name)
        # Route patches (and budget-fallback classifiers, which
        # dispatch through the live matcher cell) only invalidate
        # speculation; the inherited deopt is enough.
        return super().on_table_patch(name, kind)

    def repatch_classifier(self, name):
        """Scoped diagram rebuild after a rules patch on ``name``:
        rebuild tier 1 (both flavors) with the new tree — only chains
        that reach ``name`` are emitted and compiled, every other chain
        is spliced from the old compile, code object and bound objects
        included — then rearm the dispatchers and reattach supervision.
        Tier 2 and the profile restart cold, exactly as after a deopt.
        Returns the fast paths it built."""
        router = self.router
        if self.metered:
            # Metered chains call the element's own push, which walks
            # the live tree — nothing baked, nothing to rebuild.
            self.deopt("control-plane patch of %s" % name, element_name=name)
            return ()
        supervisor = getattr(router, "supervisor", None)
        sup_config = supervisor.config if supervisor is not None else None
        was_installed = self.installed
        if supervisor is not None:
            supervisor.detach()
        old_tier1, old_profiled = self.tier1, self.profiled
        if was_installed:
            # Restore the reference ports *before* recompiling so the
            # new tier 1 saves them (not the old compiled ports) for
            # its own uninstall.
            self.uninstall()
        self.deopts.append("diagram repatch of %s" % name)
        self.store.reset()
        self._decisions_cache = None
        self.tier2_fp = None
        self._guard_counters = []
        self.states = {}
        self._reach_cache = {}
        self.diagram_rebuilds += 1
        # A data patch: the wiring stands, so only chains that can touch
        # ``name`` from a port's far end on are emitted again.
        router._fastpath_reuse = {
            "patched": {name},
            "fastpaths": [old_tier1, old_profiled],
        }
        try:
            self.tier1 = FastPath(
                router,
                batch=self.batch,
                policy=self._tier1_policy(),
                cache=default_cache(),
            )
            self.profiled = FastPath(
                router,
                batch=self.batch,
                policy=self._profiling_policy(),
                cache=default_cache(),
            )
        finally:
            try:
                del router._fastpath_reuse
            except AttributeError:
                pass
        if was_installed:
            self.install()
        if supervisor is not None and was_installed:
            router._attach_supervisor(sup_config)
        return self.tier1, self.profiled

    # -- observability -----------------------------------------------------

    def diagram_report(self):
        """JSON-safe snapshot of the compiled diagrams: per-classifier
        node/path/gate counts, fused-test savings from the compile
        reports, rebuild history, and the codegen cache's hit rate."""
        policy = self.tier1.policy
        diagrams = {}
        totals = {"diagrams": 0, "nodes": 0, "paths": 0, "loads_saved": 0}
        for name, plan in sorted(getattr(policy, "plans", {}).items()):
            diagrams[name] = plan.as_dict()
            totals["diagrams"] += 1
            totals["nodes"] += plan.nodes
            totals["paths"] += plan.paths
            totals["loads_saved"] += plan.loads_saved
        fallbacks = sorted(
            set(getattr(policy, "trees", {})) - set(getattr(policy, "plans", {}))
        )
        report = {
            "mode": self.mode_label,
            "node_budget": self.node_budget,
            "diagrams": diagrams,
            "totals": totals,
            "budget_fallbacks": fallbacks,
            "rebuilds": self.diagram_rebuilds,
            "tier1": {
                "fdd_diagrams": self.tier1.report.fdd_diagrams,
                "fdd_nodes": self.tier1.report.fdd_nodes,
                "fdd_paths": self.tier1.report.fdd_paths,
                "fdd_tests_saved": self.tier1.report.fdd_tests_saved,
                "cache_hit": self.tier1.report.cache_hit,
            },
            "tier2": None,
            "codegen_cache": default_cache().stats(),
        }
        if self.tier2_fp is not None:
            tier2_policy = self.tier2_fp.policy
            report["tier2"] = {
                "fdd_diagrams": self.tier2_fp.report.fdd_diagrams,
                "fdd_nodes": self.tier2_fp.report.fdd_nodes,
                "fdd_paths": self.tier2_fp.report.fdd_paths,
                "fdd_tests_saved": self.tier2_fp.report.fdd_tests_saved,
                "cache_hit": self.tier2_fp.report.cache_hit,
                "hot_paths": {
                    name: len(path)
                    for name, path in sorted(
                        getattr(tier2_policy, "hot_paths", {}).items()
                    )
                },
            }
        return report
