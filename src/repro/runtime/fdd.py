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
most once per root-to-leaf path.  The chain compiler's dispatch
emitter expands a classifier's declared dispatch into the plan in place
of the matcher call (:meth:`~repro.runtime.fastpath._Emission.dispatch`),
fusing the per-output chain bodies — CheckIPHeader,
route lookup, TTL decrement and all — straight onto the diagram's
leaves, so a forwarded packet runs from device to queue through one
specialized root-to-leaf function with no matcher call at all.

Safety mirrors the adaptive tiers (Morpheus-style):

- **short packets** cannot be tested in-bounds the way the tree's
  interpreted traversal zero-pads them, so every diagram carries a
  *length gate*; packets under it fall back to the compiled matcher,
  which pads identically.
- **profile-guided ordering**: at tier 2 :func:`diagram_pass` walks
  the profiled hot exemplar through the tree and flips each diagram
  test so the hot side is the fall-through — the guard machinery
  (sampling dispatchers, guard-miss counters, deopt) is the engine's
  (:class:`~repro.runtime.adaptive.AdaptiveEngine`), diagrams or not.
- **control-plane patches**: a rules update changes tree *content*
  that diagrams bake in, so the engine's update stage builds the
  patched classifier's plan again from the tree before it is live, and
  rewrites only the chains that inlined it, under the installed
  functions (every other chain stands as it was).  Each test's compared value and mask is a *literal* of
  the chain (:meth:`DiagramPlan.emit`), so when the new plan has the
  inlined one's shape (:meth:`DiagramPlan.filled`) the chain's template
  stands: the patch emits nothing and re-links the live code with the
  plan's new constants instead of compiling it
  (:meth:`~repro.runtime.fastpath.FastPath.stage_rewrite`); route patches
  need no rewrite at all — compiled lookups read the live table
  through bound memo/lookup cells, exactly as in ``fast`` mode.

This module is the pass alone — trees in, plans out
(:func:`diagram_pass`); the engine hands the result to a
:class:`~repro.runtime.fastpath.ChainPolicy` as data.  Diagram code
inlines the shape of the tree, so the chain store, keyed by each
chain's text, tells a reshaped diagram from the one it replaced without
being told.
"""

from __future__ import annotations

__all__ = [
    "DEFAULT_NODE_BUDGET",
    "DiagramPlan",
    "build_diagram",
    "classifier_hot_path",
    "diagram_pass",
    "router_trees",
]

#: Expanding a DAG-shaped tree into nested if/else replicates shared
#: subtrees; past this many expanded test nodes a classifier keeps the
#: generic matcher emission (correct, just not diagram-fused).  Sized
#: so the paper's 17-rule screened-subnet IPFilter (107 expanded nodes)
#: still compiles to a diagram.
DEFAULT_NODE_BUDGET = 160


class _BudgetExceeded(Exception):
    pass


def _loc_for(offset, mask, value):
    """The cheapest load for one tree test (the word at ``offset``
    under ``mask`` equals ``value``): a contiguous byte slice when the
    mask covers whole bytes, else the masked 32-bit word.  Returns
    ``(loc, cond)`` — ``loc`` identifies the materialized local,
    ``cond`` how to compare it.  The tier-2 guards render their tests
    by the same choice (:func:`repro.runtime.adaptive._guard_conds`)."""
    mask_bytes = mask.to_bytes(4, "big")
    set_bytes = [i for i in range(4) if mask_bytes[i]]
    if set_bytes and all(mask_bytes[i] == 0xFF for i in set_bytes):
        first, last = set_bytes[0], set_bytes[-1]
        if set_bytes == list(range(first, last + 1)):
            value_bytes = value.to_bytes(4, "big")[first : last + 1]
            return ("slice", offset + first, offset + last + 1), ("bytes", value_bytes)
    return ("word", offset), ("masked", mask, value)


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


def _literal(value, text):
    return text


def _cond(name, cond, negate=False, literal=_literal):
    """The test of one diagram node.  Its compared value and mask are
    written through ``literal(value, text)`` (:meth:`_Emission.literal
    <repro.runtime.fastpath._Emission.literal>` in a chain, which lifts
    them out of the chain's template); the rest of the text is the
    node's shape."""
    op = "!=" if negate else "=="
    if cond[0] == "bytes":
        return "%s %s %s" % (name, op, literal(cond[1], repr(cond[1])))
    _, mask, value = cond
    value = literal(value, "0x%x" % value)
    if mask == 0xFFFFFFFF:
        return "%s %s %s" % (name, op, value)
    return "(%s & %s) %s %s" % (name, literal(mask, "0x%x" % mask), op, value)


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

    __slots__ = ("root", "nodes", "paths", "gate", "loads_saved", "signature", "_filled")

    def __init__(self, root, nodes, paths, gate, loads_saved, signature):
        self.root = root
        self.nodes = nodes
        self.paths = paths
        self.gate = gate
        self.loads_saved = loads_saved
        self.signature = signature
        self._filled = None

    def filled(self):
        """``(shape, literals)``: ``shape`` is the plan's gate and its
        lines as :meth:`emit` writes them, each compared value and mask a
        placeholder (equal values share one) and each leaf its
        ``(leaf_id, out)``; ``literals`` the ``(value, text)`` of each
        literal in the order :func:`_cond` writes them.  Plans of one
        shape emit one template, but for their literals."""
        if self._filled is None:
            literals, seen = [], {}

            def literal(value, text):
                literals.append((value, text))
                return "\x00%d" % seen.setdefault(value, len(seen))

            lines = self.emit("", "", lambda leaf_id, out, pad: [pad + repr((leaf_id, out))], literal)
            self._filled = (self.gate, tuple(lines)), tuple(literals)
        return self._filled

    def literals_for(self, other):
        """The literals of :meth:`filled` if the plan has ``other``'s
        shape, else None — without a walk where a count already differs
        (a permutation of a firewall's rules mostly moves them)."""
        if (self.gate, self.nodes, self.paths) != (other.gate, other.nodes, other.paths):
            return None
        shape, literals = self.filled()
        return literals if shape == other.filled()[0] else None

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

    def emit(self, data_var, pad, leaf_render, literal=_literal):
        """Render the diagram as source lines.  ``leaf_render(leaf_id,
        out, pad)`` supplies each leaf's body (fused chain, jump-table
        call, or drop count); each test's compared value and mask go
        through ``literal`` (in a chain, :meth:`_Emission.literal`)."""
        lines = []
        self._emit(self.root, data_var, pad, leaf_render, literal, frozenset(), lines)
        return lines

    def _emit(self, node, data_var, pad, leaf_render, literal, have, lines):
        if node[0] == "leaf":
            lines.extend(leaf_render(node[1], node[2], pad))
            return
        _, loc, cond, swap, first, second = node
        name = _loc_name(loc)
        if loc not in have:
            lines.append(pad + "%s = %s" % (name, _loc_load(loc, data_var)))
            have = have | {loc}
        lines.append(pad + "if %s:" % _cond(name, cond, swap, literal))
        self._emit(first, data_var, pad + "    ", leaf_render, literal, have, lines)
        lines.append(pad + "else:")
        self._emit(second, data_var, pad + "    ", leaf_render, literal, have, lines)

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
    replicate) or a path ``_MAX_INLINE_DEPTH`` tests deep (``compile()``
    rejects source nested 100 levels deep) — the caller then keeps the
    generic matcher emission, which spills deep subtrees into helpers.

    ``hot_path`` maps 1-based tree positions to the branch the profiled
    hot flow takes there (``{pos: taken}``); those tests emit with the
    hot side as the fall-through.  Constant trees (no expressions —
    empty/'-' rule tables) become a single-leaf plan with gate 0.
    """
    from ..classifier.compile import _MAX_INLINE_DEPTH
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

    def expand(target, have, depth):
        if is_leaf(target):
            leaf_id = state["leaves"]
            state["leaves"] += 1
            return ("leaf", leaf_id, leaf_output(target))
        expr = exprs[target - 1]
        if expr.mask == 0:
            # A constant test (the optimizer normally folds these):
            # (word & 0) == value is True exactly when value is 0.
            return expand(expr.yes if expr.value == 0 else expr.no, have, depth)
        state["nodes"] += 1
        if state["nodes"] > node_budget or depth >= _MAX_INLINE_DEPTH:
            raise _BudgetExceeded()
        loc, cond = _loc_for(expr.offset, expr.mask, expr.value)
        state["gate"] = max(state["gate"], _loc_need(loc))
        if loc in have:
            state["saved"] += 1
        else:
            have = have | {loc}
        swap = hot_path.get(target) is False
        first = expand(expr.no if swap else expr.yes, have, depth + 1)
        second = expand(expr.yes if swap else expr.no, have, depth + 1)
        return ("test", loc, cond, swap, first, second)

    try:
        root = expand(1, frozenset(), 0)
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


def router_trees(router, names=None):
    """``{name: tree}`` for every classifier (of those in ``names``, if
    given) whose ``push`` the chain compiler emits from its declaration
    (the dispatch a diagram expands): the test
    :meth:`FastPath._push_terminal` makes."""
    from .fastpath import _segment_owner

    trees = {}
    for name in router.elements if names is None else names:
        element = router.elements.get(name)
        tree = getattr(element, "tree", None)
        if tree is not None and _segment_owner(element, "push"):
            trees[name] = tree
    return trees


def diagram_pass(router, node_budget, decisions=None, exemplars=None):
    """The diagram pass over one router: expand every classifier tree
    the chain compiler specializes, under ``node_budget``.  Returns
    the :class:`~repro.runtime.fastpath.ChainPolicy` fields the pass
    sets — what the policy needs to emit, report and repatch
    diagrams; a tree over budget has no plan and keeps the generic
    emission.

    With ``decisions`` (tier 2) each tree is ordered by the walk the
    profiled hot exemplar takes through it.  ``hot_paths`` holds those
    canonical ``(pos, taken)`` walks — not raw exemplar bytes — so two
    runs profiling different packets of the same flow shape produce the
    same chain texts, which the chain store shares."""
    trees = router_trees(router)
    hot_paths = {}
    plans = {}
    for name, tree in sorted(trees.items()):
        path = ()
        decision = decisions.classifier.get(name) if decisions is not None else None
        if decision:
            hot_out = decision["order"][0]
            exemplar = (exemplars or {}).get(name, {}).get(hot_out)
            path = classifier_hot_path(tree, hot_out, exemplar)
        if path:
            hot_paths[name] = path
        plan = build_diagram(tree, hot_path=dict(path), node_budget=node_budget)
        if plan is not None:
            plans[name] = plan
    return {
        "plans": plans,
        "node_budget": node_budget,
        "hot_paths": hot_paths,
    }
