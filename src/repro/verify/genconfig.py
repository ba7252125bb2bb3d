"""Seeded configuration generation: stock configs, graph mutators, and
a random composer of legal pipelines.

The composer consults the element registry's legal-composition metadata
(:func:`repro.elements.registry.composition_table`) rather than
hard-coded knowledge: an element joins the middle of a push chain only
if the registry says it is one-in/one-out and agnostic, branch counts
are drawn from the spec's legal output counts, and every generated graph
is validated with ``click-check`` before it becomes a case.  Mutators
perturb the stock IP router the same way (insert a transparent element
on an edge, resize a queue, wrap an edge in Strip/Unstrip) and fall back
to the unmutated graph whenever a perturbation fails validation.
"""

from __future__ import annotations

from ..configs.firewall import firewall_config
from ..configs.iprouter import default_interfaces, ip_router_config
from ..core.check import check
from ..core.toolchain import load_config, save_config
from ..elements.registry import composition_table
from ..graph.router import RouterGraph
from . import gentraffic

# Transparent one-in/one-out elements a mutator may drop onto any edge,
# with a config generator for each.  Each candidate is validated against
# the registry metadata at use time (agnostic, 1/1) — if an element ever
# changes shape, the generator silently stops using it instead of
# emitting illegal graphs.
_TRANSPARENT = [
    ("Null", lambda rng: None),
    ("Counter", lambda rng: None),
    ("Paint", lambda rng: str(rng.randrange(0, 8))),
    ("Counter", lambda rng: None),
]

_MIDDLE = _TRANSPARENT + [
    ("Strip", lambda rng: str(rng.choice([2, 4, 14]))),
    ("CheckLength", lambda rng: str(rng.choice([46, 64, 120, 1500]))),
    # Their state changes what they do: RED's average, UDPIPEncap's IP IDs.
    ("RED", lambda rng: "%d, %d, %s" % (rng.choice([1, 2]), rng.choice([3, 8]), rng.choice([0.2, 1]))),
    ("UDPIPEncap", lambda rng: "10.0.9.1, 1234, 10.0.9.%d, 53" % rng.randrange(2, 9)),
]


def _is_transparent_unary(table, class_name):
    """Registry metadata says this element may sit on any edge: one
    input, one output (legal), both agnostic."""
    info = table.get(class_name)
    return (
        info is not None
        and 1 in info["input_counts"]
        and 1 in info["output_counts"]
        and info["input_codes"][0] == "a"
        and info["output_codes"][0] == "a"
    )


def _validated(graph):
    collector = check(graph)
    return not collector.errors


def random_pipeline(rng, table=None):
    """A random legal push pipeline: PollDevice -> [middle elements,
    possibly a Classifier or Tee branch] -> Queue -> [Shaper] ->
    ToDevice."""
    table = table or composition_table()
    graph = RouterGraph()
    graph.add_element("src", "PollDevice", "eth0")
    previous = "src"

    if rng.random() < 0.5:
        # A classifier near the front exercises the compiled matcher,
        # the jump-table terminal, and click-fastclassifier.
        graph.add_element("cl", "Classifier", "12/0800, -")
        graph.add_connection(previous, 0, "cl", 0)
        graph.add_element("clsink", "Discard", None)
        graph.add_connection("cl", 1, "clsink", 0)
        previous = "cl"

    strip_budget = 0
    for index in range(rng.randrange(1, 5)):
        class_name, make_config = rng.choice(_MIDDLE)
        config = make_config(rng)
        info = table.get(class_name)
        if info is None or 1 not in info["input_counts"] or 1 not in info["output_counts"]:
            continue  # registry says it cannot sit mid-chain
        name = "m%d" % index
        graph.add_element(name, class_name, config)
        graph.add_connection(previous, 0, name, 0)
        previous = name
        if class_name == "Strip":
            # Balance every Strip with an Unstrip so frames leave whole
            # (and the pair stresses the packet data-cache discipline).
            strip_budget = int(config)
        elif strip_budget and rng.random() < 0.7:
            graph.add_element("u%d" % index, "Unstrip", str(strip_budget))
            graph.add_connection(previous, 0, "u%d" % index, 0)
            previous = "u%d" % index
            strip_budget = 0
    if strip_budget:
        graph.add_element("unstrip", "Unstrip", str(strip_budget))
        graph.add_connection(previous, 0, "unstrip", 0)
        previous = "unstrip"

    if rng.random() < 0.3:
        # A Tee branch: legal output counts come from the registry.
        info = table.get("Tee")
        branches = rng.choice([c for c in info["output_counts"] if 2 <= c <= 3] or [2])
        graph.add_element("tee", "Tee", None)
        graph.add_connection(previous, 0, "tee", 0)
        graph.add_element("teecount", "Counter", None)
        graph.add_element("teesink", "Discard", None)
        graph.add_connection("tee", 1, "teecount", 0)
        graph.add_connection("teecount", 0, "teesink", 0)
        for extra in range(2, branches):
            graph.add_element("teesink%d" % extra, "Discard", None)
            graph.add_connection("tee", extra, "teesink%d" % extra, 0)
        previous = "tee"

    queue_class = rng.choice(["Queue", "FrontDropQueue"])
    graph.add_element("q", queue_class, str(rng.choice([4, 16, 64])))
    graph.add_connection(previous, 0, "q", 0)
    graph.add_element("dst", "ToDevice", "eth1")
    if rng.random() < 0.3:
        # At 1000/s or more a Shaper passes a frame a scheduler pass (a
        # simulated millisecond), so every trace drains before it ends.
        graph.add_element("shaper", "Shaper", str(rng.choice([1000, 2000, 4000])))
        graph.add_connection("q", 0, "shaper", 0)
        graph.add_connection("shaper", 0, "dst", 0)
    else:
        graph.add_connection("q", 0, "dst", 0)
    return graph


def mutate_iprouter(rng, graph):
    """Apply 1-3 behaviour-preserving-shaped mutations to a parsed stock
    router; any mutation that fails click-check is rolled back."""
    table = composition_table()
    for _ in range(rng.randrange(1, 4)):
        candidate = graph.copy()
        choice = rng.random()
        try:
            if choice < 0.4 and candidate.connections:
                conn = rng.choice(candidate.connections)
                class_name, make_config = rng.choice(_TRANSPARENT)
                if not _is_transparent_unary(table, class_name):
                    continue
                decl = candidate.add_element(None, class_name, make_config(rng))
                candidate.remove_connection(conn)
                candidate.add_connection(conn.from_element, conn.from_port, decl.name, 0)
                candidate.add_connection(decl.name, 0, conn.to_element, conn.to_port)
            elif choice < 0.7 and candidate.connections:
                # Wrap an edge in a Strip/Unstrip pair.
                conn = rng.choice(candidate.connections)
                nbytes = rng.choice([2, 4, 8])
                strip = candidate.add_element(None, "Strip", str(nbytes))
                unstrip = candidate.add_element(None, "Unstrip", str(nbytes))
                candidate.remove_connection(conn)
                candidate.add_connection(conn.from_element, conn.from_port, strip.name, 0)
                candidate.add_connection(strip.name, 0, unstrip.name, 0)
                candidate.add_connection(unstrip.name, 0, conn.to_element, conn.to_port)
            else:
                queues = [
                    d for d in candidate.elements.values() if d.class_name == "Queue"
                ]
                if not queues:
                    continue
                rng.choice(queues).config = str(rng.choice([4, 16, 256]))
        except Exception:  # noqa: BLE001 - a failed mutation is just skipped
            continue
        if _validated(candidate):
            graph = candidate
    return graph


def stock_cases(events_count=96):
    """The deterministic always-run cases: the stock IP router (both
    MTUs, so fragmentation is exercised) and the stock firewall."""
    import random

    cases = []
    for mtu in (1500, 576):
        interfaces = default_interfaces(2)
        rng = random.Random(0xC11C + mtu)
        cases.append(
            {
                "name": "iprouter-mtu%d" % mtu,
                "config": ip_router_config(interfaces, mtu=mtu),
                "events": gentraffic.iprouter_events(
                    rng, interfaces, count=events_count, mtu=mtu
                ),
                "optimize": True,
            }
        )
    rng = random.Random(0xF12E)
    cases.append(
        {
            "name": "firewall",
            "config": firewall_config(),
            "events": gentraffic.firewall_events(rng, count=min(64, events_count)),
            "optimize": True,
        }
    )
    return cases


def generate_case(seed, index, events_count=64):
    """Case number ``index`` of the stream seeded with ``seed``."""
    import random

    rng = random.Random((seed & 0xFFFFFFFF) * 1000003 + index)
    roll = rng.random()
    if roll < 0.20:
        interfaces = default_interfaces(2)
        mtu = rng.choice([576, 1500])
        return {
            "name": "gen%d-iprouter" % index,
            "config": ip_router_config(
                interfaces, mtu=mtu, queue_capacity=rng.choice([16, 64])
            ),
            "events": gentraffic.iprouter_events(
                rng, interfaces, count=events_count, mtu=mtu
            ),
            "optimize": True,
        }
    if roll < 0.40:
        interfaces = default_interfaces(2)
        mtu = rng.choice([576, 1500])
        graph = load_config(ip_router_config(interfaces, mtu=mtu), "<gen>")
        graph = mutate_iprouter(rng, graph)
        return {
            "name": "gen%d-iprouter-mutant" % index,
            "config": save_config(graph),
            "events": gentraffic.iprouter_events(
                rng, interfaces, count=events_count, mtu=mtu
            ),
            "optimize": True,
        }
    if roll < 0.55:
        return {
            "name": "gen%d-firewall" % index,
            "config": firewall_config(queue_capacity=rng.choice([16, 64])),
            "events": gentraffic.firewall_events(rng, count=events_count),
            "optimize": True,
        }
    for _ in range(5):
        graph = random_pipeline(rng)
        if _validated(graph):
            break
    return {
        "name": "gen%d-pipeline" % index,
        "config": save_config(graph),
        "events": gentraffic.pipeline_events(rng, ["eth0"], count=events_count),
        "optimize": True,
    }
