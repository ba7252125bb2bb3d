"""§6.2's scalability claim for click-xform.

Paper: "click-xform takes about one minute to run several hundred
replacements on a router graph with thousands of elements, and much less
time for normal-sized routers."  We build a synthetic graph of several
hundred IP-router-like chains (thousands of elements), run the standard
combo patterns to a fixpoint, and verify the replacement count and a
comfortable time bound.
"""

import pytest

from paper_targets import emit, table
from repro.core.patterns import IP_INPUT_COMBO
from repro.core.xform import xform
from repro.graph.router import RouterGraph

CHAINS = 150  # 150 chains x 6 elements = 900 elements + sinks


def big_graph(chains=CHAINS):
    graph = RouterGraph()
    for index in range(chains):
        src = graph.add_element("src%d" % index, "Idle")
        paint = graph.add_element("p%d" % index, "Paint", str(index % 250))
        strip = graph.add_element("s%d" % index, "Strip", "14")
        check = graph.add_element("k%d" % index, "CheckIPHeader", "18.26.4.255")
        get = graph.add_element("g%d" % index, "GetIPAddress", "16")
        sink = graph.add_element("d%d" % index, "Discard")
        graph.add_connection(src.name, 0, paint.name, 0)
        graph.add_connection(paint.name, 0, strip.name, 0)
        graph.add_connection(strip.name, 0, check.name, 0)
        graph.add_connection(check.name, 0, get.name, 0)
        graph.add_connection(get.name, 0, sink.name, 0)
    return graph


def test_hundreds_of_replacements_on_large_graph(benchmark):
    graph = big_graph()
    before = len(graph.elements)

    result = benchmark.pedantic(lambda: xform(graph, patterns=[IP_INPUT_COMBO]), rounds=1, iterations=1)
    combos = result.elements_of_class("IPInputCombo")
    rows = [
        ("elements before", before),
        ("elements after", len(result.elements)),
        ("replacements applied", len(combos)),
    ]
    emit("xform_scale", table(["metric", "value"], rows))

    assert len(combos) == CHAINS
    assert not result.elements_of_class("Paint")
    # Configurations carried their wildcards through.
    assert {c.config.split(",")[0].strip() for c in combos} == {
        str(i % 250) for i in range(CHAINS)
    }


def test_normal_sized_router_is_fast(benchmark):
    """'Much less time for normal-sized routers.'"""
    from repro.configs.iprouter import ip_router_graph
    from repro.core.patterns import STANDARD_PATTERNS

    result = benchmark(lambda: xform(ip_router_graph(), patterns=STANDARD_PATTERNS))
    assert result.elements_of_class("IPOutputCombo")
