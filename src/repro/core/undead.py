"""click-undead: dead-code elimination for configurations (§6.3).

Removes

- *StaticSwitch* elements (packets always take the configured branch, so
  the switch collapses to a wire) and their unused branches;
- elements that can never receive a packet: not reachable, following
  connections forward, from any packet source (devices, scheduled
  sources, ICMP generators are reached transitively); and
- elements all of whose packets are provably discarded (chains ending
  only in Discard/Idle with no side effects observed) — conservatively,
  only pure plumbing classes are treated as removable sinks.

Information elements (AlignmentInfo, ScheduleInfo — 0 in / 0 out) are
never dead.  "Generally, click-undead is effective only in the presence
of compound element abstractions, which are the most likely source of
dead code in Click configurations" — so the tool flattens first, like
every other optimizer.
"""

from __future__ import annotations

from ..graph.visitor import forward_reachable
from .flatten import flatten
from .pipeline import tool_api
from .toolchain import tool_specs

# Classes whose elements originate packets (roots for liveness).
SOURCE_CLASSES = {
    "PollDevice",
    "FromDevice",
    "InfiniteSource",
    "RatedSource",
    "TimedSource",
}

# Pure sinks with no externally visible effect: a chain feeding only
# these does no work worth keeping.
PURE_SINK_CLASSES = {"Discard", "Idle"}

# Pure plumbing that may be removed when it only feeds dead sinks.
# (Counter is NOT here: its counts are observable state users read.)
TRANSPARENT_CLASSES = {
    "Tee",
    "Queue",
    "Unqueue",
    "Strip",
    "Unstrip",
    "Paint",
}


def _stock_classes(graph):
    """``{element name: the stock class name it runs as}``, each class
    resolved the way the router build resolves it: a generated class
    (``Devirtualize@@PollDevice@2``) stands for the registered class it
    specializes.  An unresolved declaration keeps its declared name."""
    from ..elements.registry import ELEMENT_CLASSES
    from ..elements.runtime import declared_classes

    stock = {name: decl.class_name for name, decl in graph.elements.items()}
    for decl, cls in declared_classes(graph):
        registered = [k for k in cls.__mro__ if ELEMENT_CLASSES.get(getattr(k, "class_name", None)) is k]
        if registered:
            stock[decl.name] = registered[0].class_name
    return stock


def _is_info_element(graph, name, specs):
    spec = specs.get(graph.elements[name].class_name)
    if spec is None:
        return False
    return spec.port_counts.inputs_ok(0) and spec.port_counts.outputs_ok(0) and (
        graph.input_count(name) == 0 and graph.output_count(name) == 0
    )


def _collapse_static_switches(graph):
    changed = False
    for decl in list(graph.elements.values()):
        if decl.class_name != "StaticSwitch" or decl.name not in graph.elements:
            continue
        try:
            active = int((decl.config or "").strip())
        except ValueError:
            continue
        incoming = graph.connections_to(decl.name)
        live = graph.connections_from(decl.name, active) if active >= 0 else []
        graph.remove_element(decl.name)
        for before in incoming:
            for after in live:
                graph.add_connection(
                    before.from_element, before.from_port, after.to_element, after.to_port
                )
        changed = True
    return changed


def _remove_unreachable(graph, specs, stock):
    roots = [name for name in graph.elements if stock[name] in SOURCE_CLASSES]
    live = forward_reachable(graph, roots)
    removed = False
    for name in list(graph.elements):
        if name in live:
            continue
        if _is_info_element(graph, name, specs):
            continue
        # Pull-side elements (ToDevice behind a live Queue) are reached
        # through the same forward connection edges, so plain forward
        # reachability covers them.
        graph.remove_element(name)
        removed = True
    return removed


def _remove_dead_sinks(graph, stock):
    """Remove transparent chains that feed only pure sinks."""
    removed = False
    changed = True
    while changed:
        changed = False
        for decl in list(graph.elements.values()):
            name = decl.name
            if name not in graph.elements:
                continue
            if stock[name] in PURE_SINK_CLASSES:
                # A sink with no inputs at all is dead.
                if not graph.connections_to(name):
                    graph.remove_element(name)
                    removed = changed = True
                continue
            if stock[name] not in TRANSPARENT_CLASSES:
                continue
            outgoing = graph.connections_from(name)
            if not outgoing:
                continue
            if all(stock[c.to_element] in PURE_SINK_CLASSES for c in outgoing):
                # Everything this element forwards is discarded; route
                # its inputs straight to a sink by deleting it (its
                # upstream's packets die one hop earlier).
                targets = [(c.to_element, c.to_port) for c in outgoing]
                incoming = graph.connections_to(name)
                graph.remove_element(name)
                for before in incoming:
                    for target_element, target_port in targets:
                        if target_element in graph.elements:
                            graph.add_connection(
                                before.from_element, before.from_port,
                                target_element, target_port,
                            )
                removed = changed = True
    return removed


@tool_api()
def undead(graph):
    """The tool."""
    result = flatten(graph) if graph.element_classes else graph.copy()
    specs = tool_specs(result)
    stock = _stock_classes(result)
    changed = True
    while changed:
        changed = False
        changed |= _collapse_static_switches(result)
        changed |= _remove_unreachable(result, specs, stock)
        changed |= _remove_dead_sinks(result, stock)
    return result
