"""One event vocabulary for driving a router, and its one interpreter.

The differential oracle (:mod:`repro.verify.oracle`) runs a case's
trace through :func:`apply`, and so does a shard worker
(:mod:`repro.runtime.shard`) with its coordinator's control commands.
:meth:`~repro.runtime.shard.ShardedRouter.export_case` writes a shard's
replay journal in this vocabulary, so what a shard was given replays as
an oracle case.  Events are lists in a case (JSON) and tuples in a
journal:

================================  ========================================
``["frame", DEVICE, HEX]``        a frame arrives on DEVICE's receive ring
``["run", N]``                    N scheduler passes (``run_tasks``)
``["mirror", {DEVICE: CAP}]``     DEVICE's transmit ring takes at most CAP
                                  frames since birth (a shard's copy of
                                  the real ring's room)
``["insert", ELEMENT, IP, ETH]``  ARP-table insert, epoch bump included; a
                                  no-op when ELEMENT is missing, so config
                                  shrinking never invalidates a trace
``["bump_epochs"]``               invalidate every baked ARP header guard
``["deopt"]``                     force a tiered engine back to tier 1
``["configure", PROFILE]``        re-run under an ``ExecutionProfile``
                                  (journal only: the oracle runs every mode)
``["hotswap", CONFIG]``           transactional hot-swap, carrying state
``["update", CONFIG]``            control-plane update (:mod:`repro.control`),
                                  in place, structural ones included
================================  ========================================

``CONFIG`` is configuration text, a graph, or a
:class:`~repro.graph.diff.GraphDelta` against the live configuration;
without it the live configuration is installed again.  Every kind runs
on a ``Router`` and on a ``ShardedRouter``, which fans control out to
its shards.  A shard worker gets frames batched as ``("frames", DEVICE,
[FRAME, ...])`` and runs ``frames``, ``run`` and ``mirror`` itself: its
poison check and flush cursor ride on them.  Its journal also holds
``("poison", FRAME)``, a fault hook no case carries.
"""

from __future__ import annotations


def apply(router, event, devices=None):
    """Run one event on ``router``, whose devices by name are
    ``devices``.  Returns ``(router, report)``: a single router changes
    identity across a hot-swap, and ``report`` is a hot-swap's or an
    update's :class:`~repro.elements.hotswap.SwapReport`, else None."""
    kind = event[0]
    report = None
    if kind == "frame":
        device = devices.get(event[1])
        if device is not None:
            device.receive_frame(bytes.fromhex(event[2]))
    elif kind == "run":
        router.run_tasks(int(event[1]))
    elif kind == "mirror":
        for name, capacity in event[1].items():
            if name in devices:  # a shrunk config may have lost the device
                devices[name].tx_capacity = capacity
    elif kind == "insert":
        element = router.find(event[1])
        if element is not None and hasattr(element, "insert"):
            element.insert(event[2], event[3])
    elif kind == "bump_epochs":
        router.bump_arp_epochs()
    elif kind == "deopt":
        router.force_deopt()
    elif kind == "configure":
        router.configure(event[1])
    elif kind in ("hotswap", "update"):
        config = event[1] if len(event) > 1 else router.graph.copy()
        if getattr(router, "is_sharded", False):
            # The plane installs on every shard transactionally and
            # keeps its own identity.
            install = router.hotswap_all if kind == "hotswap" else router.apply_update
            report = install(config)
        elif kind == "hotswap":
            from .elements.hotswap import hotswap
            from .graph.diff import GraphDelta

            delta = None
            if isinstance(config, GraphDelta):
                delta, config = config, config.apply_to(router.graph)
            elif isinstance(config, str):
                from .core.toolchain import load_config

                config = load_config(config, "<hotswap>")
            result = hotswap(router, config, delta=delta)
            router, report = result.router, result.report
        else:
            from .control import ControlPlane

            plane = ControlPlane(router)
            report = plane.apply(config)
            router = plane.router
    else:
        raise ValueError("unknown event %r" % (kind,))
    return router, report


def read_counters(router):
    """Every element read handler of one (unsharded) router, keyed
    ``element.handler``, values made JSON-safe."""
    counters = {}
    for name, element in sorted(router.elements.items()):
        for handler, fn in sorted(element.read_handlers().items()):
            value = fn()
            if not isinstance(value, (int, float, str, bool, type(None))):
                value = repr(value)
            counters["%s.%s" % (name, handler)] = value
    return counters


def merge_rules(router):
    """How shards merge :func:`read_counters`' keys: each counter by its
    element class's rule, and a queue's ``length`` by sum."""
    rules = {}
    for name, element in router.elements.items():
        counters = element.counters()
        if hasattr(element, "__len__"):
            counters["length"] = "sum"
        rules.update(("%s.%s" % (name, field), merge) for field, merge in counters.items())
    return rules


def case_events(journal, graph, write):
    """A shard journal as case events: one ``frame`` event per journaled
    frame (so ddmin shrinks frame by frame); each hot-swap or update
    delta folded into ``graph``, the journal's starting configuration,
    and written as ``write(graph)``; ``configure`` (the oracle runs
    every mode) and ``poison`` (quarantine strips killers) dropped."""
    events = []
    for entry in journal:
        kind = entry[0]
        if kind == "frames":
            events.extend(["frame", entry[1], bytes(frame).hex()] for frame in entry[2])
        elif kind in ("hotswap", "update"):
            graph = entry[1].apply_to(graph)
            events.append([kind, write(graph)])
        elif kind not in ("configure", "poison"):
            events.append(list(entry))
    return events
