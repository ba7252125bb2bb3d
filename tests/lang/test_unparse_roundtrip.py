"""Round-trip properties: unparse(parse(x)) must preserve the graph.

§5.2: optimizers "expect to be able to arbitrarily transform
configuration graphs and generate Click-language files corresponding
exactly to the results" — so unparse → parse must be the identity on
graph structure, for arbitrary graphs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang.build import parse_graph
from repro.lang.unparse import unparse

CLASS_NAMES = ["Counter", "Queue", "Tee", "Discard", "Idle", "Paint", "Strip"]


def canonical(graph):
    """Structure modulo element order: class/config per name + edge set."""
    return (
        {name: (d.class_name, d.config or None) for name, d in graph.elements.items()},
        {(c.from_element, c.from_port, c.to_element, c.to_port) for c in graph.connections},
        tuple(graph.requirements),
    )


@st.composite
def random_graphs(draw):
    from repro.graph.router import RouterGraph

    graph = RouterGraph()
    count = draw(st.integers(min_value=1, max_value=8))
    names = ["e%d" % i for i in range(count)]
    for name in names:
        class_name = draw(st.sampled_from(CLASS_NAMES))
        config = draw(st.sampled_from([None, "1", "64", "14", "1, 2"]))
        graph.add_element(name, class_name, config)
    edges = draw(st.integers(min_value=0, max_value=count * 2))
    for _ in range(edges):
        src = draw(st.sampled_from(names))
        dst = draw(st.sampled_from(names))
        graph.add_connection(
            src,
            draw(st.integers(min_value=0, max_value=2)),
            dst,
            draw(st.integers(min_value=0, max_value=2)),
        )
    return graph


class TestRoundTrip:
    @settings(max_examples=60)
    @given(random_graphs())
    def test_unparse_parse_is_identity_on_structure(self, graph):
        text = unparse(graph)
        reparsed = parse_graph(text)
        assert canonical(reparsed) == canonical(graph)

    def test_a_run_that_closes_on_itself_round_trips(self):
        """Hypothesis's find: every connection of a plain ring is
        absorbed by its predecessor, so none was a chain head and the
        ring was not written at all."""
        graph = parse_graph("a :: Counter; b :: Counter; a -> b; b -> a;")
        assert canonical(parse_graph(unparse(graph))) == canonical(graph)

    def test_ip_router_round_trips(self):
        from repro.configs.iprouter import ip_router_graph

        graph = ip_router_graph()
        assert canonical(parse_graph(unparse(graph))) == canonical(graph)

    def test_firewall_round_trips(self):
        """Config strings with nested commas and parens must survive."""
        from repro.configs.firewall import firewall_graph

        graph = firewall_graph()
        reparsed = parse_graph(unparse(graph))
        assert canonical(reparsed) == canonical(graph)

    def test_requirements_round_trip(self):
        graph = parse_graph("require(fastclassifier);\nc :: Counter; c -> Discard;")
        assert parse_graph(unparse(graph)).requirements == ["fastclassifier"]

    def test_compound_definitions_round_trip(self):
        text = """
        elementclass Gate { $cap | input -> q :: Queue($cap) -> u :: Unqueue -> output; }
        c :: Counter; g :: Gate(9); c -> g -> Discard;
        """
        graph = parse_graph(text)
        reparsed = parse_graph(unparse(graph))
        assert "Gate" in reparsed.element_classes
        assert reparsed.element_classes["Gate"].params == ["$cap"]
        # Flattening both gives the same structure.
        from repro.core.flatten import flatten

        assert canonical(flatten(reparsed)) == canonical(flatten(graph))

    def test_double_round_trip_is_stable(self):
        from repro.configs.iprouter import ip_router_graph

        once = unparse(parse_graph(unparse(ip_router_graph())))
        twice = unparse(parse_graph(once))
        assert once == twice


class TestArchiveRoundTrip:
    from repro.lang.archive import read_archive, write_archive

    @settings(max_examples=60)
    @given(
        st.dictionaries(
            st.text(
                alphabet="abcdefghijklmnopqrstuvwxyz0123456789_.",
                min_size=1,
                max_size=12,
            ),
            st.text(max_size=200),
            min_size=1,
            max_size=4,
        )
    )
    def test_archive_round_trip(self, members):
        from repro.lang.archive import read_archive, write_archive

        text = write_archive(members)
        assert read_archive(text) == members

    def test_plain_text_is_single_member(self):
        from repro.lang.archive import read_archive

        assert read_archive("a -> b;") == {"config": "a -> b;"}

    def test_member_content_with_archive_magic_inside(self):
        """Member bodies containing the magic string must not confuse
        the reader (length-prefixed framing)."""
        from repro.lang.archive import read_archive, write_archive

        members = {"config": "x;\n", "tricky.py": "!<archive>\n!<member name=fake length=3>\nabc"}
        assert read_archive(write_archive(members)) == members
