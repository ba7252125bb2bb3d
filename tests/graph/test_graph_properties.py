"""Hypothesis property tests on the RouterGraph and its invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.router import RouterGraph
from repro.graph.visitor import backward_reachable, forward_reachable, topological_order

from ..lang.test_unparse_roundtrip import random_graphs


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


# -- fingerprint ------------------------------------------------------------------


def _mutations(graph):
    """``graph`` with exactly one declaration or connection changed,
    one copy per kind of change that applies."""
    name = next(iter(graph.elements))
    for field, value in (("class_name", "Null"), ("config", "77")):
        changed = graph.copy()
        setattr(changed.elements[name], field, value)
        yield changed
    renamed = graph.copy()
    renamed.rename_element(name, "renamed")
    yield renamed
    added = graph.copy()
    added.add_element("added", "Idle")
    yield added
    wired = graph.copy()
    wired.add_connection(name, 7, name, 7)
    yield wired
    if graph.connections:
        conn = graph.connections[0]
        cut = graph.copy()
        cut.remove_connection(conn)
        yield cut
        moved = graph.copy()
        moved.remove_connection(conn)
        moved.add_connection(conn.from_element, conn.from_port + 3, conn.to_element, conn.to_port)
        yield moved


class TestFingerprint:
    """The fingerprint is taken from the graph, not from its text, and
    must still say exactly what the text says."""

    @settings(max_examples=60)
    @given(random_graphs())
    def test_says_what_the_text_says(self, graph):
        from repro.core.toolchain import load_config, save_config

        text = save_config(graph)
        # equal text, equal fingerprint: a parse of the text, and the
        # same graph written with its connections listed backwards
        reparsed = load_config(text)
        assert save_config(reparsed) == text
        assert reparsed.fingerprint() == graph.fingerprint()
        backwards = graph.copy()
        backwards.connections.reverse()
        assert backwards.fingerprint() == graph.fingerprint()
        # any one change, another fingerprint (and another text)
        for changed in _mutations(graph):
            assert save_config(changed) != text
            assert changed.fingerprint() != graph.fingerprint()

    def test_stock_configurations_round_trip(self):
        """Plain, compound and archive-carrying configurations hash the
        same before and after ``save_config`` / ``load_config``."""
        from repro.configs.firewall import firewall_graph
        from repro.configs.iprouter import ip_router_graph
        from repro.core.pipeline import named_pipeline
        from repro.core.toolchain import load_config, save_config
        from repro.lang.build import parse_graph

        compound = parse_graph(
            "elementclass Gate { $cap | input -> q :: Queue($cap) -> u :: Unqueue -> output; }\n"
            "c :: Counter; g :: Gate(9); c -> g -> Discard;"
        )
        optimized = named_pipeline("paper").run(ip_router_graph()).graph
        assert optimized.archive
        seen = set()
        for graph in (ip_router_graph(), firewall_graph(), compound, optimized):
            reloaded = load_config(save_config(graph))
            assert reloaded.fingerprint() == graph.fingerprint()
            seen.add(graph.fingerprint())
        assert len(seen) == 4
        bigger = parse_graph(
            "elementclass Gate { $cap | input -> q :: Queue($cap) -> u :: Unqueue -> u2 :: Null -> output; }\n"
            "c :: Counter; g :: Gate(9); c -> g -> Discard;"
        )
        assert bigger.fingerprint() != compound.fingerprint()
        member = next(iter(optimized.archive))
        edited = optimized.copy()
        edited.archive[member] = edited.archive[member] + "\n# edited\n"
        assert edited.fingerprint() != optimized.fingerprint()
