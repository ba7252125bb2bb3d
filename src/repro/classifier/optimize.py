"""Decision-tree optimizations.

"We sped up their inner loops by restricting decision tree operations,
and implemented an extensive set of decision tree optimizations, similar
to BPF+'s, to optimize them further." (§3)

Three passes, in the spirit of BPF+'s global data-flow optimizations:

- **path-sensitive pruning**: walking from the root, each branch records
  what is already known about the packet word it tested; later tests
  whose outcome is implied by those facts are bypassed (redundant-
  predicate elimination).
- **node deduplication**: structurally identical subtrees are shared
  (hash-consing, one postorder pass), undoing the duplication pruning
  can introduce.
- **unreachable-node elimination**: renumbering keeps only live nodes.

Two root paths part at an undecided test, after which one knows the
test held and the other that it failed, so no two paths reach a node
with the same facts.  Pruning therefore needs no memo: it visits each
(undecided test, facts) pair once, and its budget counts those visits.
It also makes one round of the three a fixpoint.  Once pruning finishes,
every path carries the facts its tests were kept under, so pruning
again decides nothing; a pruning that gave up on its budget gives up
again on the deduplicated tree, which has the same pairs and a smaller
budget.

``graft`` combines adjacent classifiers' trees — the transformation
*click-fastclassifier* applies before code generation (§4).
"""

from __future__ import annotations

from .tree import FAILURE, DecisionTree, Expr, TreeBuilder, is_leaf

_EXPANSION_LIMIT_FACTOR = 16


class _Facts:
    """Knowledge about packet words along one root-to-node path."""

    __slots__ = ("known", "negative")

    def __init__(self, known=None, negative=None):
        self.known = dict(known or {})  # offset -> (mask, value)
        self.negative = frozenset(negative or ())  # {(offset, mask, value)}

    def decide(self, offset, mask, value):
        """True/False if the test's outcome is implied; None otherwise."""
        known_mask, known_value = self.known.get(offset, (0, 0))
        overlap = known_mask & mask
        if (known_value & overlap) != (value & overlap):
            return False  # contradicts what we know
        if overlap == mask:
            return True  # fully determined and consistent
        if (offset, mask, value) in self.negative:
            return False
        return None

    def assume_true(self, offset, mask, value):
        known_mask, known_value = self.known.get(offset, (0, 0))
        new_known = dict(self.known)
        new_known[offset] = (known_mask | mask, (known_value & ~mask) | value)
        return _Facts(new_known, self.negative)

    def assume_false(self, offset, mask, value):
        return _Facts(self.known, self.negative | {(offset, mask, value)})


def prune_redundant_tests(tree):
    """Path-sensitive redundant-predicate elimination.

    Returns a new tree; bails out (returning the input) if the rewritten
    tree would explode past a size limit, since path duplication is
    exponential in the worst case.
    """
    if not tree.exprs:
        return tree
    builder = TreeBuilder()
    budget = [max(64, len(tree.exprs) * _EXPANSION_LIMIT_FACTOR)]

    def walk(pos, facts):
        # Decided tests add no fact: follow them to the first undecided
        # test, which costs one unit of budget and splits the facts.
        while not is_leaf(pos):
            expr = tree.exprs[pos - 1]
            decided = facts.decide(expr.offset, expr.mask, expr.value)
            if decided is None:
                break
            pos = expr.yes if decided else expr.no
        else:
            return pos
        if budget[0] <= 0:
            raise _Overflow()
        budget[0] -= 1
        yes_entry = walk(expr.yes, facts.assume_true(expr.offset, expr.mask, expr.value))
        no_entry = walk(expr.no, facts.assume_false(expr.offset, expr.mask, expr.value))
        if yes_entry == no_entry and not isinstance(yes_entry, str):
            return yes_entry  # test no longer matters
        return builder.node(expr.offset, expr.mask, expr.value, yes_entry, no_entry)

    try:
        root = walk(1, _Facts())
    except _Overflow:
        return tree
    return builder.finish(root, noutputs=tree._noutputs)


class _Overflow(Exception):
    pass


def deduplicate_nodes(tree):
    """Merge structurally identical nodes: one postorder hash-consing
    pass from the root, then renumbering."""
    if not tree.exprs:
        return tree
    canonical = {}  # node -> the first node in postorder with its key
    interned = {}  # (offset, mask, value, yes, no) -> canonical node

    def redirect(target):
        return target if is_leaf(target) else canonical[target]

    stack = [1]
    while stack:
        pos = stack[-1]
        if pos in canonical:
            stack.pop()
            continue
        expr = tree.exprs[pos - 1]
        waiting = [t for t in (expr.no, expr.yes) if not is_leaf(t) and t not in canonical]
        if waiting:
            stack.extend(waiting)
            continue
        stack.pop()
        key = (expr.offset, expr.mask, expr.value, redirect(expr.yes), redirect(expr.no))
        canonical[pos] = interned.setdefault(key, pos)
    exprs = list(tree.exprs)
    for key, pos in interned.items():
        exprs[pos - 1] = Expr(*key)
    return remove_unreachable(DecisionTree(exprs, noutputs=tree._noutputs))


def remove_unreachable(tree):
    """Drop nodes unreachable from the root and renumber."""
    if not tree.exprs:
        return tree
    reachable = []
    index_map = {}
    stack = [1]
    while stack:
        pos = stack.pop()
        if is_leaf(pos) or pos in index_map:
            continue
        index_map[pos] = len(reachable) + 1
        reachable.append(pos)
        expr = tree.exprs[pos - 1]
        stack.append(expr.no)
        stack.append(expr.yes)

    def redirect(target):
        return target if is_leaf(target) else index_map[target]

    exprs = []
    for pos in reachable:
        expr = tree.exprs[pos - 1]
        exprs.append(Expr(expr.offset, expr.mask, expr.value, redirect(expr.yes), redirect(expr.no)))
    return DecisionTree(exprs, constant_output=tree.constant_output, noutputs=tree._noutputs)


def optimize(tree):
    """The full pipeline: prune, deduplicate, drop dead nodes — one
    round, which is a fixpoint (see the module docstring)."""
    current = remove_unreachable(tree)
    pruned = deduplicate_nodes(prune_redundant_tests(current))
    # Keep the smaller tree (pruning can enlarge before dedup shrinks).
    return pruned if len(pruned.exprs) <= len(current.exprs) else current


def remap_outputs(tree, mapping):
    """Rewrite leaf outputs through ``mapping`` (output -> output);
    outputs mapped to None become drops."""
    from .tree import FAILURE, make_leaf

    def redirect(target):
        if target is FAILURE:
            return FAILURE
        if is_leaf(target):
            mapped = mapping.get(-target, -target)
            return FAILURE if mapped is None else make_leaf(mapped)
        return target

    if not tree.exprs:
        mapped = mapping.get(tree.constant_output, tree.constant_output)
        return DecisionTree([], constant_output=mapped)
    exprs = [
        Expr(e.offset, e.mask, e.value, redirect(e.yes), redirect(e.no)) for e in tree.exprs
    ]
    noutputs = max([m for m in mapping.values() if m is not None] + [0]) + 1
    return DecisionTree(exprs, noutputs=noutputs)


def graft(first, port, second, output_map):
    """Combine adjacent classifiers: packets leaving ``first`` on
    ``port`` continue into ``second``.  ``output_map[j]`` gives the
    combined-tree output for ``second``'s output ``j``; ``first``'s other
    outputs keep their numbers.  Returns the combined tree (un-optimized;
    callers run :func:`optimize`)."""
    builder = TreeBuilder()

    def leaf_of_second(output):
        if output is FAILURE:
            return FAILURE
        mapped = output_map[-output]
        return FAILURE if mapped is None else -mapped

    def import_tree(tree, leaf_fn, memo):
        def conv(target):
            if is_leaf(target):
                return leaf_fn(target)
            if target not in memo:
                expr = tree.exprs[target - 1]
                memo[target] = builder.node(
                    expr.offset, expr.mask, expr.value, conv(expr.yes), conv(expr.no)
                )
            return memo[target]

        if not tree.exprs:
            if tree.constant_output is None:
                return FAILURE
            return leaf_fn(-tree.constant_output)
        return conv(1)

    second_root = import_tree(second, leaf_of_second, {})

    def leaf_of_first(target):
        if target is FAILURE:
            return FAILURE
        if -target == port:
            return second_root
        return target

    first_root = import_tree(first, leaf_of_first, {})
    n_outputs = max(
        [o for o in range(first.noutputs) if o != port]
        + [m for m in output_map.values() if m is not None]
        + [0]
    ) + 1
    return builder.finish(first_root, noutputs=n_outputs)
