"""Unit tests for classifier decision trees."""

import pytest

from repro.classifier.tree import (
    FAILURE,
    DecisionTree,
    Expr,
    TreeBuilder,
    TreeError,
    is_leaf,
    leaf_output,
    make_leaf,
)


def ethertype_tree():
    """Figure 3's classifier: Ethernet type 0x0800 -> 0, else 1.
    The ethertype occupies bytes 12-13, the high half of the big-endian
    word at offset 12."""
    return DecisionTree([Expr(12, 0xFFFF0000, 0x08000000, make_leaf(0), make_leaf(1))])


IP_FRAME = bytes(12) + b"\x08\x00" + bytes(20)
ARP_FRAME = bytes(12) + b"\x08\x06" + bytes(20)


class TestLeafEncoding:
    def test_leaves(self):
        assert is_leaf(make_leaf(0))
        assert is_leaf(make_leaf(3))
        assert is_leaf(FAILURE)
        assert not is_leaf(1)

    def test_round_trip(self):
        assert leaf_output(make_leaf(5)) == 5
        assert leaf_output(FAILURE) is None

    def test_negative_output_rejected(self):
        with pytest.raises(TreeError):
            make_leaf(-1)


class TestMatching:
    def test_figure3_classifier(self):
        tree = ethertype_tree()
        assert tree.match(IP_FRAME) == 0
        assert tree.match(ARP_FRAME) == 1

    def test_short_packet_zero_padded(self):
        tree = ethertype_tree()
        assert tree.match(b"\x00" * 13) == 1  # can't match 0x0800

    def test_failure_leaf_drops(self):
        tree = DecisionTree([Expr(12, 0xFFFF0000, 0x08000000, make_leaf(0), FAILURE)])
        assert tree.match(ARP_FRAME) is None

    def test_constant_tree(self):
        tree = DecisionTree([], constant_output=2)
        assert tree.match(b"anything") == 2
        assert DecisionTree([], constant_output=None).match(b"x") is None

    def test_multi_step(self):
        # IP (ethertype 0x0800) then check the IP version/IHL byte (14).
        tree = DecisionTree(
            [
                Expr(12, 0xFFFF0000, 0x08000000, 2, make_leaf(2)),
                Expr(12, 0x0000FF00, 0x00004500, make_leaf(0), make_leaf(1)),
            ]
        )
        ip_45 = bytes(12) + b"\x08\x00\x45" + bytes(19)
        assert tree.match(ip_45) == 0
        assert tree.match(IP_FRAME) == 1  # ethertype IP but byte 14 != 0x45
        assert tree.match(ARP_FRAME) == 2

    def test_steps_counts_traversal(self):
        tree = ethertype_tree()
        assert tree.steps(IP_FRAME) == 1


class TestValidation:
    def test_branch_past_end_rejected(self):
        with pytest.raises(TreeError):
            DecisionTree([Expr(0, 0xFF, 0x45, 5, make_leaf(0))])

    def test_unaligned_offset_rejected(self):
        with pytest.raises(TreeError):
            DecisionTree([Expr(2, 0xFF, 0x45, make_leaf(0), make_leaf(1))])

    def test_value_outside_mask_rejected(self):
        with pytest.raises(TreeError):
            DecisionTree([Expr(0, 0x0F, 0x45, make_leaf(0), make_leaf(1))])


class TestOutputs:
    def test_noutputs_inferred(self):
        assert ethertype_tree().noutputs == 2

    def test_noutputs_explicit(self):
        tree = DecisionTree(
            [Expr(12, 0xFFFF, 0x0800, make_leaf(0), FAILURE)], noutputs=3
        )
        assert tree.noutputs == 3

    def test_outputs_used(self):
        tree = DecisionTree([Expr(12, 0xFFFF, 0x0800, make_leaf(0), FAILURE)])
        assert tree.outputs_used() == {0}


class TestTextFormat:
    def test_round_trip(self):
        tree = DecisionTree(
            [
                Expr(12, 0x0000FFFF, 0x00000800, 2, make_leaf(1)),
                Expr(16, 0xFF000000, 0x45000000, make_leaf(0), FAILURE),
            ]
        )
        text = tree.to_text()
        parsed = DecisionTree.from_text(text)
        assert parsed.signature()[0] == tree.signature()[0]

    def test_constant_round_trip(self):
        tree = DecisionTree([], constant_output=1)
        assert DecisionTree.from_text(tree.to_text()).constant_output == 1

    def test_drop_round_trip(self):
        tree = DecisionTree([], constant_output=None)
        assert DecisionTree.from_text(tree.to_text()).constant_output is None

    def test_bad_dump_rejected(self):
        with pytest.raises(TreeError):
            DecisionTree.from_text("garbage\n")

    def test_dump_mentions_drop(self):
        tree = DecisionTree([Expr(12, 0xFFFF, 0x0800, make_leaf(0), FAILURE)])
        assert "[drop]" in tree.to_text()


class TestSignatures:
    def test_identical_trees_share_signature(self):
        assert ethertype_tree().signature() == ethertype_tree().signature()

    def test_different_trees_differ(self):
        other = DecisionTree([Expr(12, 0xFFFF, 0x0806, make_leaf(0), make_leaf(1))])
        assert other.signature() != ethertype_tree().signature()


class TestTreeBuilder:
    def test_linear_build(self):
        builder = TreeBuilder()
        second = builder.node(16, 0xFF000000, 0x45000000, make_leaf(0), FAILURE)
        root = builder.node(12, 0xFFFF0000, 0x08000000, second, make_leaf(1))
        tree = builder.finish(root)
        frame_with_45_at_16 = bytes(12) + b"\x08\x00" + bytes(2) + b"\x45" + bytes(19)
        assert tree.match(frame_with_45_at_16) == 0
        assert tree.match(IP_FRAME) is None  # byte 16 is zero -> drop
        assert tree.match(ARP_FRAME) == 1

    def test_root_is_index_one(self):
        builder = TreeBuilder()
        second = builder.node(16, 0xFF, 0x45, make_leaf(0), FAILURE)
        root = builder.node(12, 0xFFFF, 0x0800, second, make_leaf(1))
        tree = builder.finish(root)
        assert tree.exprs[0].offset == 12

    def test_unreachable_nodes_dropped(self):
        builder = TreeBuilder()
        builder.node(0, 0xFF, 0x01, make_leaf(0), make_leaf(1))  # orphan
        root = builder.node(12, 0xFFFF, 0x0800, make_leaf(0), make_leaf(1))
        tree = builder.finish(root)
        assert len(tree.exprs) == 1

    def test_leaf_root(self):
        builder = TreeBuilder()
        tree = builder.finish(make_leaf(3))
        assert tree.constant_output == 3

    def test_shared_node(self):
        builder = TreeBuilder()
        shared = builder.node(16, 0xFF, 0x45, make_leaf(0), make_leaf(1))
        root = builder.node(12, 0xFFFF, 0x0800, shared, shared)
        tree = builder.finish(root)
        assert len(tree.exprs) == 2
        assert tree.exprs[0].yes == tree.exprs[0].no == 2

    def test_one_id_per_key(self):
        """The builder hash-conses: asking twice for the same test and
        successors gives the same node, so equal subtrees built apart
        are one."""
        builder = TreeBuilder()
        first = builder.node(16, 0xFF, 0x45, make_leaf(0), FAILURE)
        again = builder.node(16, 0xFF | 0x100000000, 0x45, make_leaf(0), FAILURE)
        assert first == again  # masks are taken to 32 bits before the lookup
        assert builder.node(16, 0xFF, 0x45, FAILURE, make_leaf(0)) != first
        left = builder.node(20, 0xFF, 0x06, first, make_leaf(1))
        right = builder.node(20, 0xFF, 0x06, again, make_leaf(1))
        assert left == right
        tree = builder.finish(builder.node(12, 0xFFFF, 0x0800, left, right))
        assert len(tree.exprs) == 3


def _firewall_permutations(count):
    import random

    from repro.configs.firewall import firewall_rule_strings

    rules = firewall_rule_strings()
    for seed in range(count):
        allows = rules[2:-1]
        random.Random(seed).shuffle(allows)
        yield rules[:2] + allows + rules[-1:]


def _assert_no_equal_keys(tree):
    keys = [expr.key() for expr in tree.exprs]
    assert len(set(keys)) == len(keys)


@pytest.mark.parametrize(
    "rules",
    [
        ["allow tcp dst port 80", "allow tcp dst port 443", "allow udp dst port 53"],
        ["deny src net 10.0.0.0/8", "allow tcp && (dst port 25 || dst port 587)", "allow tcp dst port 25"],
        ["allow (tcp || udp) && dst port 53", "allow (udp || tcp) && dst port 53"],
    ]
    + list(_firewall_permutations(4)),
)
def test_compiled_filter_rules_share_every_equal_node(rules):
    from repro.classifier.ipfilter import compile_filter_rules

    _assert_no_equal_keys(compile_filter_rules(rules))


@pytest.mark.parametrize(
    "patterns",
    [
        ["12/0806 20/0001", "12/0806 20/0002", "12/0800", "-"],
        ["12/0800 23/06", "12/0800 23/11", "12/0800 23/06", "-"],
        ["0/ff 1/ff", "2/ff 1/ff", "0/ff 1/ff"],
    ],
)
def test_compiled_patterns_share_every_equal_node(patterns):
    from repro.classifier.language import compile_patterns

    _assert_no_equal_keys(compile_patterns(patterns))
