"""Unit tests for the RouterGraph IR and its manipulations."""

import pytest

from repro.graph.router import Conn, RouterGraph
from repro.lang.build import parse_graph
from repro.lang.errors import ClickSemanticError


def simple_graph():
    graph = RouterGraph()
    graph.add_element("a", "Counter")
    graph.add_element("b", "Queue", "64")
    graph.add_element("c", "Discard")
    graph.add_connection("a", 0, "b", 0)
    graph.add_connection("b", 0, "c", 0)
    return graph


class TestConstruction:
    def test_add_and_query(self):
        graph = simple_graph()
        assert graph.elements["b"].config == "64"
        assert graph.input_count("b") == 1
        assert graph.output_count("b") == 1
        assert graph.downstream_elements("a") == ["b"]
        assert graph.upstream_elements("c") == ["b"]

    def test_anonymous_names_are_click_style(self):
        graph = RouterGraph()
        first = graph.add_element(None, "Discard")
        second = graph.add_element(None, "Discard")
        assert first.name == "Discard@1"
        assert second.name == "Discard@2"

    def test_duplicate_declaration_rejected(self):
        graph = simple_graph()
        with pytest.raises(ClickSemanticError):
            graph.add_element("a", "Tee")

    def test_connection_to_unknown_element_rejected(self):
        graph = simple_graph()
        with pytest.raises(ClickSemanticError):
            graph.add_connection("a", 0, "nosuch", 0)

    def test_duplicate_connection_ignored(self):
        graph = simple_graph()
        graph.add_connection("a", 0, "b", 0)
        assert len(graph.connections_from("a")) == 1

    def test_port_counts_from_connections(self):
        graph = RouterGraph()
        graph.add_element("c", "Classifier", "12/0806, 12/0800, -")
        graph.add_element("d0", "Discard")
        graph.add_element("d2", "Discard")
        graph.add_connection("c", 0, "d0", 0)
        graph.add_connection("c", 2, "d2", 0)
        assert graph.output_count("c") == 3  # port 1 unconnected but counted


class TestMutation:
    def test_remove_element_removes_connections(self):
        graph = simple_graph()
        graph.remove_element("b")
        assert "b" not in graph
        assert graph.connections == []

    def test_rename_element_updates_connections(self):
        graph = simple_graph()
        graph.rename_element("b", "queue0")
        assert "queue0" in graph
        assert Conn("a", 0, "queue0", 0) in graph.connections
        assert Conn("queue0", 0, "c", 0) in graph.connections

    def test_rename_collision_rejected(self):
        graph = simple_graph()
        with pytest.raises(ClickSemanticError):
            graph.rename_element("b", "a")

    def test_set_class(self):
        graph = simple_graph()
        graph.set_class("b", "FastQueue@@b", None)
        assert graph.elements["b"].class_name == "FastQueue@@b"
        assert graph.elements["b"].config is None

    def test_splice_out(self):
        graph = simple_graph()
        graph.splice_out("b")
        assert graph.connections == [Conn("a", 0, "c", 0)]

    def test_splice_out_multiport_rejected(self):
        graph = parse_graph(
            "t :: Tee(2); a :: Counter; d1 :: Discard; d2 :: Discard;"
            "a -> t; t [0] -> d1; t [1] -> d2;"
        )
        with pytest.raises(ClickSemanticError):
            graph.splice_out("t")

    def test_copy_is_deep_for_elements(self):
        graph = simple_graph()
        dup = graph.copy()
        dup.elements["a"].class_name = "Changed"
        dup.add_element("extra", "Tee")
        assert graph.elements["a"].class_name == "Counter"
        assert "extra" not in graph


class TestIntegrity:
    def test_dangling_connection_named(self):
        graph = simple_graph()
        del graph.elements["c"]
        with pytest.raises(ClickSemanticError) as info:
            graph.check_integrity()
        assert info.value.bare_message == "dangling connection b [0] -> [0] c"


class TestConn:
    """A connection is a tuple that keeps a record's str, repr, equality
    and hash (a frozen dataclass hashes its field tuple too)."""

    def test_str_and_repr(self):
        conn = Conn("a", 1, "b", 2)
        assert str(conn) == "a [1] -> [2] b"
        assert "%s" % (conn,) == "a [1] -> [2] b"
        assert repr(conn) == "Conn(from_element='a', from_port=1, to_element='b', to_port=2)"

    def test_equality_and_hash(self):
        conn = Conn("a", 1, "b", 2)
        assert conn == Conn("a", 1, "b", 2)
        assert conn != Conn("a", 1, "b", 3)
        assert hash(conn) == hash(("a", 1, "b", 2))
        assert len({conn, Conn("a", 1, "b", 2)}) == 1


class TestReplaceSubgraph:
    def test_replace_linear_chain_with_single_element(self):
        """The click-xform primitive: swap {b} for a combo element."""
        graph = simple_graph()
        replacement = RouterGraph()
        replacement.add_element("combo", "FastQueue", "64")
        boundary = {
            ("in", "b", 0): ("combo", 0),
            ("out", "b", 0): ("combo", 0),
        }
        name_map = graph.replace_subgraph(["b"], replacement, boundary)
        combo = name_map["combo"]
        assert graph.elements[combo].class_name == "FastQueue"
        assert Conn("a", 0, combo, 0) in graph.connections
        assert Conn(combo, 0, "c", 0) in graph.connections

    def test_replace_uncovered_boundary_rejected(self):
        graph = simple_graph()
        replacement = RouterGraph()
        replacement.add_element("combo", "FastQueue")
        with pytest.raises(ClickSemanticError) as info:
            graph.replace_subgraph(["b"], replacement, {("in", "b", 0): ("combo", 0)})
        assert info.value.bare_message == (
            "replacement does not cover boundary connection b [0] -> [0] c"
        )

    def test_replace_uncovered_incoming_boundary_rejected(self):
        graph = simple_graph()
        replacement = RouterGraph()
        replacement.add_element("combo", "FastQueue")
        with pytest.raises(ClickSemanticError) as info:
            graph.replace_subgraph(["b"], replacement, {("out", "b", 0): ("combo", 0)})
        assert info.value.bare_message == (
            "replacement does not cover boundary connection a [0] -> [0] b"
        )
        assert "b" in graph  # nothing removed

    def test_replacement_names_uniquified(self):
        graph = simple_graph()
        replacement = RouterGraph()
        replacement.add_element("a", "FastQueue")  # collides with host "a"
        boundary = {("in", "b", 0): ("a", 0), ("out", "b", 0): ("a", 0)}
        name_map = graph.replace_subgraph(["b"], replacement, boundary)
        assert name_map["a"] != "a"
        assert name_map["a"] in graph
