"""Unit tests for decision-tree → Python code generation."""

import tracemalloc
from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classifier.compile import CompiledClassifier, compile_tree, generate_source
from repro.classifier.ipfilter import compile_expressions
from repro.classifier.language import compile_patterns
from repro.classifier.tree import DecisionTree


class TestGeneratedSource:
    def test_figure3_shape(self):
        """The generated code for Classifier(12/0800, -) has the same
        shape as Figure 3b: one masked comparison with inlined constants,
        two returns."""
        tree = compile_patterns(["12/0800", "-"])
        source = generate_source(tree)
        assert "0x08000000" in source
        assert "return 0" in source
        assert "return 1" in source
        assert source.count("int.from_bytes") == 1

    def test_full_mask_drops_and_operation(self):
        tree = DecisionTree.from_text("  1  12/08004500%ffffffff  yes->[0]  no->[1]\n")
        source = generate_source(tree)
        assert "&" not in source.split("def classify")[1]

    def test_constant_tree(self):
        tree = DecisionTree([], constant_output=1)
        assert CompiledClassifier(tree)(b"anything") == 1

    def test_drop_tree(self):
        tree = DecisionTree([], constant_output=None)
        assert CompiledClassifier(tree)(b"anything") is None

    def test_shared_nodes_become_helpers(self):
        from repro.classifier.tree import Expr, make_leaf

        shared_tree = DecisionTree(
            [
                Expr(0, 0xFF000000, 0x45000000, 2, 2),
                Expr(8, 0x00FF0000, 0x00060000, make_leaf(0), make_leaf(1)),
            ]
        )
        source = generate_source(shared_tree)
        assert "_step_2" in source


class TestCompiledBehaviour:
    def test_matches_interpreter_on_simple_classifier(self):
        tree = compile_patterns(["12/0806 20/0001", "12/0806 20/0002", "12/0800", "-"])
        compiled = CompiledClassifier(tree)
        frames = [
            bytes(12) + b"\x08\x06" + bytes(6) + b"\x00\x01" + bytes(40),
            bytes(12) + b"\x08\x06" + bytes(6) + b"\x00\x02" + bytes(40),
            bytes(12) + b"\x08\x00" + bytes(46),
            bytes(12) + b"\x86\xdd" + bytes(46),
        ]
        for frame in frames:
            assert compiled(frame) == tree.match(frame)

    def test_short_packets_handled(self):
        tree = compile_patterns(["12/0800", "-"])
        compiled = CompiledClassifier(tree)
        for size in range(0, 20):
            data = bytes(size)
            assert compiled(data) == tree.match(data)

    def test_compile_tree_optimizes_first(self):
        tree = compile_expressions(["tcp dst port 80", "tcp dst port 443", "-"])
        compiled = compile_tree(tree)
        assert len(compiled.tree.exprs) <= len(tree.exprs)

    @settings(max_examples=50)
    @given(st.binary(max_size=80))
    def test_compiled_always_agrees_with_interpreter(self, data):
        """Core fastclassifier invariant: compiled code and interpreted
        tree classify every byte string identically."""
        tree = compile_expressions(
            ["icmp", "tcp dst port 80", "udp src port 53", "src net 18.26.4.0/24", "-"]
        )
        compiled = compile_tree(tree)
        assert compiled(data) == tree.match(data)

    @settings(max_examples=25)
    @given(
        st.lists(
            st.sampled_from(["12/0800", "12/0806", "12/08??", "14/45", "12/0800 14/45", "-"]),
            min_size=1,
            max_size=4,
        ),
        st.binary(max_size=64),
    )
    def test_pattern_language_compiles_faithfully(self, patterns, data):
        tree = compile_patterns(patterns)
        compiled = compile_tree(tree)
        assert compiled(data) == tree.match(data)

    def test_very_deep_trees_compile(self):
        """Large rule sets would exceed Python's indentation limit if the
        generator inlined everything; deep subtrees must spill into
        helper functions and still classify identically."""
        rules = [
            "allow tcp && src host 10.0.%d.%d && dst port %d" % (i // 250, i % 250, 1000 + i)
            for i in range(80)
        ] + ["deny all"]
        from repro.classifier.ipfilter import compile_filter_rules

        tree = compile_filter_rules(rules)
        compiled = compile_tree(tree)
        # No generated line may breach the tokenizer's 100-level limit.
        worst_indent = max(
            (len(line) - len(line.lstrip())) // 4
            for line in compiled.source.splitlines()
            if line.strip()
        )
        assert worst_indent < 60
        from repro.net.headers import IP_PROTO_TCP, IPHeader

        probe = IPHeader(
            src="10.0.0.57", dst="9.9.9.9", protocol=IP_PROTO_TCP, total_length=40
        ).pack() + (1234).to_bytes(2, "big") + (1057).to_bytes(2, "big") + bytes(16)
        assert compiled(probe) == compiled.tree.match(probe) == 0


class TestFunctionCache:
    def test_a_live_trees_entry_survives_300_other_trees(self, monkeypatch):
        """The matcher memo is bounded at 256 trees and evicts the one
        asked for least recently: a router rebuilding the rules it runs
        every 100 other trees gets back the function it compiled, never
        a second copy, where emptying the full memo would have dropped
        it."""
        from repro.classifier import compile as matcher_module
        from repro.classifier.compile import compiled_function_for, enter, is_pending

        monkeypatch.setattr(matcher_module, "_FUNCTION_CACHE", OrderedDict())
        live = compile_patterns(["12/0800", "12/0806", "-"])
        matcher = compiled_function_for(live)
        enter(matcher)
        for index in range(300):
            compiled_function_for(compile_patterns(["16/%08x" % index, "-"]))
            if index % 100 == 99:
                assert compiled_function_for(live) is matcher
            assert len(matcher_module._FUNCTION_CACHE) <= matcher_module._FUNCTION_CACHE_LIMIT == 256
        assert compiled_function_for(live) is matcher and not is_pending(matcher)
        assert matcher(bytes(12) + b"\x08\x06") == 1

    def test_hits_on_a_full_memo_allocate_nothing(self, monkeypatch):
        """A hit moves its entry to the end in place: 1024 hits on a memo
        at its bound allocate no block in the memo's module (popping and
        re-inserting the key, as a plain dict must, reallocates its table
        every few dozen hits: 18 KiB here)."""
        from repro.classifier import compile as matcher_module
        from repro.classifier.compile import compiled_function_for

        monkeypatch.setattr(matcher_module, "_FUNCTION_CACHE", type(matcher_module._FUNCTION_CACHE)())
        trees = [compile_patterns(["16/%08x" % index, "-"]) for index in range(256)]
        functions = [compiled_function_for(tree) for tree in trees]
        assert len(matcher_module._FUNCTION_CACHE) == matcher_module._FUNCTION_CACHE_LIMIT
        tracemalloc.start()
        try:
            for _ in range(4):
                for tree, function in zip(trees, functions):
                    assert compiled_function_for(tree) is function
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        memo = snapshot.filter_traces([tracemalloc.Filter(True, matcher_module.__file__)])
        assert sum(stat.size for stat in memo.statistics("filename")) == 0
