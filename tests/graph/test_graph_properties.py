"""Hypothesis property tests on the RouterGraph and its invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.router import RouterGraph
from repro.graph.visitor import backward_reachable, forward_reachable, topological_order


@st.composite
def graphs(draw):
    graph = RouterGraph()
    count = draw(st.integers(min_value=1, max_value=10))
    names = ["n%d" % i for i in range(count)]
    for name in names:
        graph.add_element(name, draw(st.sampled_from(["A", "B", "C"])))
    edge_count = draw(st.integers(min_value=0, max_value=count * 2))
    for _ in range(edge_count):
        graph.add_connection(
            draw(st.sampled_from(names)),
            draw(st.integers(min_value=0, max_value=1)),
            draw(st.sampled_from(names)),
            draw(st.integers(min_value=0, max_value=1)),
        )
    return graph


class TestGraphInvariants:
    @settings(max_examples=60)
    @given(graphs())
    def test_copy_is_equal_but_independent(self, graph):
        dup = graph.copy()
        assert set(dup.elements) == set(graph.elements)
        assert dup.connections == graph.connections
        if dup.elements:
            victim = next(iter(dup.elements))
            dup.remove_element(victim)
            assert victim in graph.elements

    @settings(max_examples=60)
    @given(graphs())
    def test_remove_element_leaves_no_dangling_connections(self, graph):
        for name in list(graph.elements):
            graph.remove_element(name)
            graph.check_integrity()
        assert graph.connections == []

    @settings(max_examples=60)
    @given(graphs())
    def test_rename_preserves_structure(self, graph):
        original = len(graph.connections)
        for index, name in enumerate(list(graph.elements)):
            graph.rename_element(name, "renamed%d" % index)
        graph.check_integrity()
        assert len(graph.connections) == original

    @settings(max_examples=60)
    @given(graphs())
    def test_topological_order_covers_every_element(self, graph):
        order = topological_order(graph)
        assert sorted(order) == sorted(graph.elements)

    @settings(max_examples=60)
    @given(graphs())
    def test_topological_order_respects_edges_when_acyclic(self, graph):
        # Cycle breaking is best-effort, so the edge-direction guarantee
        # only holds for fully acyclic graphs.
        for name in graph.elements:
            successors = [c.to_element for c in graph.connections_from(name)]
            if name in forward_reachable(graph, successors):
                return  # the graph has a cycle; property does not apply
        order = topological_order(graph)
        position = {name: i for i, name in enumerate(order)}
        for conn in graph.connections:
            assert position[conn.from_element] < position[conn.to_element]

    @settings(max_examples=60)
    @given(graphs())
    def test_forward_backward_reachability_duality(self, graph):
        for name in graph.elements:
            forwards = forward_reachable(graph, [name])
            for other in forwards:
                assert name in backward_reachable(graph, [other])

    @settings(max_examples=60)
    @given(graphs())
    def test_port_counts_match_connections(self, graph):
        for name in graph.elements:
            n_in = graph.input_count(name)
            n_out = graph.output_count(name)
            for conn in graph.connections_to(name):
                assert conn.to_port < n_in
            for conn in graph.connections_from(name):
                assert conn.from_port < n_out


class TestAnonymousNaming:
    @settings(max_examples=30)
    @given(st.lists(st.sampled_from(["Counter", "Queue", "Tee"]), min_size=1, max_size=20))
    def test_generated_names_never_collide(self, classes):
        graph = RouterGraph()
        names = [graph.add_element(None, class_name).name for class_name in classes]
        assert len(set(names)) == len(names)
