"""Unit tests for decision-tree optimization (the BPF+-style passes)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classifier.ipfilter import compile_expressions, compile_filter_rules
from repro.classifier.language import compile_patterns
from repro.classifier.optimize import (
    _EXPANSION_LIMIT_FACTOR,
    _Facts,
    deduplicate_nodes,
    graft,
    optimize,
    prune_redundant_tests,
    remove_unreachable,
)
from repro.classifier.tree import FAILURE, DecisionTree, Expr, TreeBuilder, is_leaf, make_leaf
from repro.configs import firewall_graph, firewall_rule_strings, ip_router_graph, simple_graph
from repro.lang.lexer import split_config_args


def behaviour(tree, packets):
    return [tree.match(p) for p in packets]


def random_packets():
    return [
        bytes(60),
        bytes(12) + b"\x08\x00" + b"\x45" + bytes(45),
        bytes(12) + b"\x08\x06" + bytes(46),
        b"\x45" + bytes(19) + b"\x00\x35\x00\x35" + bytes(36),
        bytes(range(60)),
    ]


class TestRemoveUnreachable:
    def test_drops_orphans(self):
        tree = DecisionTree(
            [
                Expr(12, 0xFFFF, 0x0800, make_leaf(0), make_leaf(1)),
                Expr(16, 0xFF, 0x45, make_leaf(0), make_leaf(1)),  # orphan
            ]
        )
        slim = remove_unreachable(tree)
        assert len(slim.exprs) == 1
        assert behaviour(slim, random_packets()) == behaviour(tree, random_packets())


class TestDeduplicate:
    def test_merges_identical_subtrees(self):
        # Two identical nodes reached from different branches.
        tree = DecisionTree(
            [
                Expr(12, 0xFFFF, 0x0800, 2, 3),
                Expr(16, 0xFF000000, 0x45000000, make_leaf(0), FAILURE),
                Expr(16, 0xFF000000, 0x45000000, make_leaf(0), FAILURE),
            ]
        )
        slim = deduplicate_nodes(tree)
        assert len(slim.exprs) == 2
        assert behaviour(slim, random_packets()) == behaviour(tree, random_packets())


class TestPruneRedundant:
    def test_repeated_test_collapses(self):
        # The same test twice in a row on the yes path.
        tree = DecisionTree(
            [
                Expr(12, 0xFFFF, 0x0800, 2, make_leaf(1)),
                Expr(12, 0xFFFF, 0x0800, make_leaf(0), make_leaf(1)),
            ]
        )
        slim = prune_redundant_tests(tree)
        assert len(slim.exprs) == 1
        assert behaviour(slim, random_packets()) == behaviour(tree, random_packets())

    def test_contradictory_test_resolved(self):
        # After ethertype 0x0800 succeeds, 0x0806 must fail.
        tree = DecisionTree(
            [
                Expr(12, 0xFFFF0000, 0x08000000, 2, make_leaf(2)),
                Expr(12, 0xFFFF0000, 0x08060000, make_leaf(0), make_leaf(1)),
            ]
        )
        slim = prune_redundant_tests(tree)
        assert len(slim.exprs) == 1
        assert slim.match(bytes(12) + b"\x08\x00" + bytes(40)) == 1

    def test_negative_fact_used(self):
        # no-branch of a test implies the identical later test also fails.
        tree = DecisionTree(
            [
                Expr(12, 0xFFFF, 0x0800, make_leaf(0), 2),
                Expr(12, 0xFFFF, 0x0800, make_leaf(1), make_leaf(2)),
            ]
        )
        slim = prune_redundant_tests(tree)
        assert len(slim.exprs) == 1
        assert behaviour(slim, random_packets()) == behaviour(tree, random_packets())


class TestOptimizePipeline:
    def test_preserves_behaviour_on_overlapping_filters(self):
        tree = compile_expressions(
            ["tcp dst port 80", "tcp dst port 443", "tcp", "udp dst port 53", "-"]
        )
        optimized = optimize(tree)
        packets = random_packets() + [
            # Real-ish packets exercising each output.
            _tcp(dport=80), _tcp(dport=443), _tcp(dport=25), _udp(dport=53), _udp(dport=54),
        ]
        assert behaviour(optimized, packets) == behaviour(tree, packets)

    def test_shrinks_redundant_proto_checks(self):
        """Five rules all guard on the same 0x45 byte and proto; the
        optimizer must collapse most of the repeats."""
        tree = compile_expressions(
            ["tcp dst port 80", "tcp dst port 443", "tcp dst port 25", "-"]
        )
        optimized = optimize(tree)
        assert len(optimized.exprs) < len(tree.exprs)

    @settings(max_examples=30)
    @given(st.lists(st.sampled_from(
        ["tcp", "udp", "icmp", "tcp dst port 80", "udp src port 53",
         "src net 18.26.4.0/24", "ip frag", "icmp type echo"]
    ), min_size=1, max_size=5))
    def test_optimize_is_semantics_preserving(self, patterns):
        tree = compile_expressions(patterns + ["-"])
        optimized = optimize(tree)
        packets = random_packets() + [
            _tcp(dport=80), _udp(sport=53), _tcp(src="18.26.4.1"), _icmp(), _frag(),
        ]
        assert behaviour(optimized, packets) == behaviour(tree, packets)


class TestGraft:
    def test_adjacent_classifier_combination(self):
        """Classifier(12/0800, -) feeding Classifier(14/45, -) on port 0
        behaves like the two in sequence."""
        first = compile_patterns(["12/0800", "-"])
        second = compile_patterns(["14/45", "-"])
        # Combined outputs: second's 0 -> 0, second's 1 -> 1; first's
        # old output 1 (non-IP) stays 1... map non-overlapping: second 0->0,
        # second 1->2, first's 1 stays 1.
        combined = graft(first, 0, second, {0: 0, 1: 2})
        ip_45 = bytes(12) + b"\x08\x00\x45" + bytes(45)
        ip_other = bytes(12) + b"\x08\x00\x55" + bytes(45)
        non_ip = bytes(12) + b"\x08\x06" + bytes(46)
        assert combined.match(ip_45) == 0
        assert combined.match(ip_other) == 2
        assert combined.match(non_ip) == 1

    def test_graft_drop_mapping(self):
        first = compile_patterns(["12/0800", "-"])
        second = compile_patterns(["14/45"])  # no catch-all: drops
        combined = graft(first, 0, second, {0: 0})
        assert combined.match(bytes(12) + b"\x08\x00\x55" + bytes(45)) is None


# -- the reference optimizer -------------------------------------------------
#
# The optimizer's earlier form, frozen: pruning recursed and built a memo
# key at every node, deduplication iterated over node indices to a
# fixpoint, and optimize ran up to four rounds, the last one confirming.
# The current passes must agree with it tree for tree.


class _ReferenceOverflow(Exception):
    pass


def reference_prune(tree):
    if not tree.exprs:
        return tree
    builder = TreeBuilder()
    budget = [max(64, len(tree.exprs) * _EXPANSION_LIMIT_FACTOR)]
    memo = {}

    def walk(pos, facts):
        if is_leaf(pos):
            return pos
        key = (pos, tuple(sorted(facts.known.items())), facts.negative)
        if key in memo:
            return memo[key]
        expr = tree.exprs[pos - 1]
        decided = facts.decide(expr.offset, expr.mask, expr.value)
        if decided is True:
            result = walk(expr.yes, facts)
        elif decided is False:
            result = walk(expr.no, facts)
        else:
            if budget[0] <= 0:
                raise _ReferenceOverflow()
            budget[0] -= 1
            yes_entry = walk(expr.yes, facts.assume_true(expr.offset, expr.mask, expr.value))
            no_entry = walk(expr.no, facts.assume_false(expr.offset, expr.mask, expr.value))
            if yes_entry == no_entry and not isinstance(yes_entry, str):
                result = yes_entry
            else:
                result = builder.node(expr.offset, expr.mask, expr.value, yes_entry, no_entry)
        memo[key] = result
        return result

    try:
        root = walk(1, _Facts())
    except _ReferenceOverflow:
        return tree
    return builder.finish(root, noutputs=tree._noutputs)


def reference_deduplicate(tree):
    if not tree.exprs:
        return tree
    canonical = {i + 1: i + 1 for i in range(len(tree.exprs))}
    changed = True
    while changed:
        changed = False
        seen = {}
        for index in range(len(tree.exprs), 0, -1):
            expr = tree.exprs[index - 1]
            yes = canonical[expr.yes] if not is_leaf(expr.yes) else expr.yes
            no = canonical[expr.no] if not is_leaf(expr.no) else expr.no
            key = (expr.offset, expr.mask, expr.value, yes, no)
            if key in seen:
                if canonical[index] != seen[key]:
                    canonical[index] = seen[key]
                    changed = True
            else:
                seen[key] = canonical[index]
    if all(canonical[i + 1] == i + 1 for i in range(len(tree.exprs))):
        return remove_unreachable(tree)

    def redirect(target):
        return target if is_leaf(target) else canonical[target]

    exprs = [Expr(e.offset, e.mask, e.value, redirect(e.yes), redirect(e.no)) for e in tree.exprs]
    return remove_unreachable(DecisionTree(exprs, noutputs=tree._noutputs))


def reference_optimize(tree):
    current = remove_unreachable(tree)
    for _ in range(4):
        pruned = reference_deduplicate(reference_prune(current))
        if len(pruned.exprs) >= len(current.exprs) and pruned.signature() == current.signature():
            break
        if len(pruned.exprs) <= len(current.exprs):
            current = pruned
        else:
            break
    return current


def assert_matches_reference(tree):
    """Same trees from every pass as the reference, the same budget
    bail-out, and an optimized tree that optimizing again leaves alone.
    Returns whether pruning gave up on its budget."""
    pruned, expected = prune_redundant_tests(tree), reference_prune(tree)
    assert (pruned is tree) == (expected is tree)
    assert pruned.signature() == expected.signature()
    if pruned is tree:
        # Why optimize runs one round: dedup never rescues a bail-out.
        shared = deduplicate_nodes(tree)
        assert prune_redundant_tests(shared) is shared
    assert deduplicate_nodes(tree).signature() == reference_deduplicate(tree).signature()
    optimized = optimize(tree)
    assert optimized.signature() == reference_optimize(tree).signature()
    assert optimize(optimized).signature() == optimized.signature()
    return pruned is tree


_TREE_BUILDERS = {
    "Classifier": compile_patterns,
    "IPClassifier": compile_expressions,
    "IPFilter": compile_filter_rules,
}


def stock_classifier_trees():
    trees = []
    for graph in (ip_router_graph(), firewall_graph(), simple_graph()):
        for decl in graph.elements.values():
            if decl.class_name in _TREE_BUILDERS:
                trees.append(_TREE_BUILDERS[decl.class_name](split_config_args(decl.config)))
    return trees


def firewall_permutation(seed):
    """The firewall with its fourteen ``allow`` rules in a seeded order,
    the shape of the control plane's rules patches on it."""
    rules = firewall_rule_strings()
    allows = rules[2:-1]
    random.Random(seed).shuffle(allows)
    return rules[:2] + allows + rules[-1:]


def diamond_chain(levels, offsets=4):
    """``levels`` tests in a row.  Below the root each level is two
    structurally identical nodes, one for each branch of the level
    above, so dedup halves the tree.  With four ``offsets`` (up to 16
    levels) every test reads its own byte and stays undecided whichever
    way the path went: pruning meets 2**levels - 1 (test, facts) pairs."""
    tests = [
        (4 * (i % offsets), 0xFF << (8 * (i // offsets % 4)), (i + 1) << (8 * (i // offsets % 4)))
        for i in range(levels)
    ]
    exprs = []
    for i, (offset, mask, value) in enumerate(tests):
        if i + 1 < levels:
            yes, no = 2 * i + 2, 2 * i + 3
        else:
            yes, no = make_leaf(0), make_leaf(1)
        exprs.append(Expr(offset, mask, value, yes, no))
        if i:
            exprs.append(Expr(offset, mask, value, yes, no))
    return DecisionTree(exprs)


def budget_edge(comb, repeats, levels=8):
    """``comb`` tests that each send one byte value to output 2, with
    ``repeats`` copies of the first right after it (decided on its
    no-branch), then a single-node diamond of ``levels`` tests.
    Pruning meets ``comb + 2**levels - 1`` undecided (test, facts)
    pairs; the repeats cost nothing but raise the budget."""
    tests = [
        (4 * (slot // 4), 0xFF << (8 * (slot % 4)), 0x11 << (8 * (slot % 4)))
        for slot in range(comb + levels)
    ]
    kinds = [tests[0]] * (1 + repeats) + tests[1:comb]
    nodes = [(test, True) for test in kinds] + [(test, False) for test in tests[comb:]]
    exprs = []
    for index, ((offset, mask, value), in_comb) in enumerate(nodes, 1):
        following = index + 1 if index < len(nodes) else None
        if in_comb:
            yes, no = make_leaf(2), following
        elif following:
            yes = no = following
        else:
            yes, no = make_leaf(0), make_leaf(1)
        exprs.append(Expr(offset, mask, value, yes, no))
    return DecisionTree(exprs)


def random_dag(rng, size):
    """A random decision DAG over few words and masks (so tests decide
    each other), its nodes numbered in a shuffled order: successors can
    sit at lower indices than the node that branches to them."""
    order = list(range(2, size + 1))
    rng.shuffle(order)
    number = {1: 1, **dict(zip(range(2, size + 1), order))}

    def target(i):
        if i < size and rng.random() < 0.75:
            return number[rng.randrange(i + 1, size + 1)]
        return rng.choice([make_leaf(rng.randrange(3)), FAILURE])

    exprs = [None] * size
    for i in range(1, size + 1):
        mask = rng.choice([0xFF, 0xFF00, 0xFFFF, 0xFF000000])
        exprs[number[i] - 1] = Expr(4 * rng.randrange(2), mask, rng.randrange(1 << 32) & mask, target(i), target(i))
    return DecisionTree(exprs)


_RULE_ATOMS = [
    "tcp", "udp", "icmp", "tcp dst port 80", "udp src port 53", "dst port 25",
    "src net 18.26.4.0/24", "dst host 192.168.1.5", "src host 10.5.0.1",
    "ip frag", "icmp type echo", "tcp opt ack",
]


class TestAgainstReference:
    """The rewritten passes return the reference's trees exactly, so no
    generated source can change."""

    def test_every_stock_classifier(self):
        trees = stock_classifier_trees()
        assert len(trees) >= 3
        for tree in trees:
            assert not assert_matches_reference(tree)

    def test_firewall_permutations(self):
        for seed in range(100):
            assert not assert_matches_reference(compile_filter_rules(firewall_permutation(seed)))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(
        st.tuples(st.sampled_from(["allow", "deny"]),
                  st.lists(st.sampled_from(_RULE_ATOMS), min_size=1, max_size=3)),
        min_size=1, max_size=8,
    ))
    def test_drawn_filter_rules(self, rules):
        texts = ["%s %s" % (action, " && ".join(atoms)) for action, atoms in rules]
        assert_matches_reference(compile_filter_rules(texts + ["deny all"]))
        assert_matches_reference(compile_expressions([" && ".join(atoms) for _, atoms in rules]))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(
        st.dictionaries(st.sampled_from([0, 12, 14, 23, 30]),
                        st.sampled_from(["08", "0800", "0806", "45", "11", "06"]),
                        min_size=1, max_size=3),
        min_size=1, max_size=6,
    ))
    def test_drawn_byte_patterns(self, patterns):
        texts = [" ".join("%d/%s" % term for term in terms.items()) for terms in patterns]
        assert_matches_reference(compile_patterns(texts + ["-"]))

    def test_random_dags_including_budget_bailouts(self):
        rng = random.Random(28)
        bailouts = 0
        for index in range(300):
            if index % 3:
                tree = random_dag(rng, rng.randrange(1, 40))
            else:
                tree = diamond_chain(rng.randrange(2, 12), offsets=rng.randrange(1, 4))
            bailouts += assert_matches_reference(tree)
        assert bailouts >= 20

    def test_a_200_rule_filter(self):
        """The reference's cost grows quadratically with the rule count;
        the current passes run this case in about a tenth of its time."""
        rng = random.Random(200)
        rules = [
            "allow tcp && dst host 10.%d.%d.%d && dst port %d"
            % (rng.randrange(256), rng.randrange(256), rng.randrange(256), rng.choice([22, 25, 80]))
            for _ in range(200)
        ]
        tree = compile_filter_rules(rules + ["deny all"])
        optimized = optimize(tree)
        assert optimized.signature() == reference_optimize(tree).signature()
        assert len(optimized.exprs) < len(tree.exprs)


class TestBudgetBailout:
    def test_prune_returns_its_input_past_the_budget(self):
        tree = diamond_chain(10)
        assert 2 ** 10 > max(64, len(tree.exprs) * _EXPANSION_LIMIT_FACTOR)
        assert prune_redundant_tests(tree) is tree
        assert reference_prune(tree) is tree

    def test_the_budget_counts_undecided_tests_only(self):
        """Pruning may meet exactly its budget of undecided (test,
        facts) pairs; one more and it gives up.  Decided tests are free."""
        at_limit, over = budget_edge(comb=1, repeats=7), budget_edge(comb=2, repeats=6)
        assert len(at_limit.exprs) == len(over.exprs) == 16  # a budget of 256
        assert prune_redundant_tests(at_limit) is not at_limit
        assert prune_redundant_tests(over) is over
        assert not assert_matches_reference(at_limit)
        assert assert_matches_reference(over)

    def test_optimize_still_deduplicates(self):
        tree = diamond_chain(10)
        optimized = optimize(tree)
        assert len(optimized.exprs) == 10 < len(tree.exprs) == 19
        assert optimized.signature() == reference_optimize(tree).signature()
        rng = random.Random(3)
        # Small byte values: each test's byte matches one packet in 16.
        packets = [bytes(rng.randrange(16) for _ in range(16)) for _ in range(200)]
        assert {optimized.match(p) for p in packets} == {0, 1}
        assert behaviour(optimized, packets) == behaviour(tree, packets)


def _tcp(src="10.0.0.2", dst="18.26.4.9", sport=1234, dport=80):
    from repro.net.headers import IP_PROTO_TCP, IPHeader

    ip = IPHeader(src=src, dst=dst, protocol=IP_PROTO_TCP, total_length=40)
    return ip.pack() + sport.to_bytes(2, "big") + dport.to_bytes(2, "big") + bytes(16)


def _udp(src="10.0.0.2", dst="18.26.4.9", sport=1234, dport=53):
    from repro.net.headers import build_udp_packet

    return build_udp_packet(src, dst, src_port=sport, dst_port=dport, payload=bytes(14))


def _icmp(icmp_type=8):
    from repro.net.headers import IP_PROTO_ICMP, IPHeader

    ip = IPHeader(src="10.0.0.2", dst="18.26.4.9", protocol=IP_PROTO_ICMP, total_length=28)
    return ip.pack() + bytes([icmp_type, 0]) + bytes(6)


def _frag():
    from repro.net.headers import IP_PROTO_UDP, IPHeader

    ip = IPHeader(
        src="10.0.0.2", dst="18.26.4.9", protocol=IP_PROTO_UDP,
        total_length=40, fragment_offset=10,
    )
    return ip.pack() + bytes(20)
