"""Hot-swap support: install a new configuration, preserving state.

§5.1: "To add an element to a Click router, the user must install an
entirely new configuration, although this can be done in such a way that
important state is transferred into the new router."  That is the
mechanism that keeps configurations static (enabling the optimizers)
without losing queues or ARP tables on every change.

State moves between elements that have the same *name* and compatible
classes, as each class declares it in ``STATE``
(:class:`~repro.elements.element.Element`): :func:`take_state` copies
every ``carry`` field both classes declare, and a ``reset`` field keeps
the value the new configuration gave it.  Compatibility follows the
runtime class hierarchy, so a ``Devirtualize@@q`` Queue accepts state
from a plain ``Queue`` and vice versa — optimizing a live router
preserves its queues.

Every configuration change that touches the graph goes through one
two-phase commit in the live router, :func:`install`.  Phase one stages
everything that can fail while the router keeps serving: the ``check``
pass, the new element instances (configured, wired, initialized, given
their predecessors' state) and the wiring planned over the new graph.
Phase two swaps them in, rewires, and has the engine rewrite each
compiled flavor's stale chains; a failure there puts everything back.
Any failure raises :class:`HotswapError` and leaves the router as it
was, still serving, queues and ARP tables intact.

:func:`hotswap` is §5.1's event: *every* element gets a new instance,
so a ``reset`` field reads its configured value afterwards.  A
structural update (:meth:`repro.control.ControlPlane.apply`) renews
only the elements it adds, re-classes or reconfigures.  Either way the
router, its engine, its supervisor and their totals stay, and both
return a :class:`SwapReport`.
"""

from __future__ import annotations

import copy
import time
from collections import ChainMap, OrderedDict

from ..graph.diff import GraphDelta, diff_graphs
from .element import Element
from .runtime import compile_archive_classes, instantiate, plan_wiring, wire, wiring_of


class HotswapError(RuntimeError):
    """An install (a hot-swap, or a structural update) failed; the
    router is as it was, still serving."""


class SwapReport:
    """What one configuration update did: its kind (``in-place`` data
    patch, ``scoped-swap`` or ``no-op``), per-phase wall times, and the
    chain accounting of the fast paths it rewrote (:meth:`count_chains`):
    ``chains_emitted`` were emitted again, ``chains_relinked`` took
    a rules patch's new values without that, ``chains_reused`` neither
    (left as they were), and ``chains_deferred`` wait for their first
    packet.  Shared by :func:`hotswap` and
    :meth:`repro.control.ControlPlane.apply`."""

    def __init__(self, kind, profile=None, delta=None):
        self.kind = kind
        self.profile = profile  # ExecutionProfile label (str) or None
        self.delta = delta  # GraphDelta summary (str) or None
        self.phases = OrderedDict()  # phase name -> seconds
        self.chains_emitted = 0
        self.chains_relinked = 0
        self.chains_reused = 0
        self.chains_deferred = 0
        self.elements_patched = 0
        self.transferred = []  # element names that carried state over

    def count_chains(self, fastpaths):
        """Sum the chain counts over the fast paths an update rewrote:
        chains emitted again (``FastPathReport.emitted_units``), chains
        re-linked (``relinked_units``), the other chains with a record,
        and the edges left without one until their first packet (stale
        chains nothing had entered, and new edges).  The four add up to
        the fast paths' chain edges."""
        for path in fastpaths:
            emitted, relinked = path.report.emitted_units, path.report.relinked_units
            self.chains_emitted += emitted
            self.chains_relinked += relinked
            self.chains_reused += len(path.chains) - emitted - relinked
            self.chains_deferred += len(path._compiled) - len(path.chains)

    @property
    def total_seconds(self):
        return sum(self.phases.values())

    def as_dict(self):
        return {
            "kind": self.kind,
            "profile": self.profile,
            "delta": self.delta,
            "phases": {name: round(value, 6) for name, value in self.phases.items()},
            "total_seconds": round(self.total_seconds, 6),
            "chains_emitted": self.chains_emitted,
            "chains_relinked": self.chains_relinked,
            "chains_reused": self.chains_reused,
            "chains_deferred": self.chains_deferred,
            "elements_patched": self.elements_patched,
            "transferred": list(self.transferred),
        }

    def format(self):
        parts = ["%s in %.2f ms" % (self.kind, self.total_seconds * 1e3)]
        if self.delta:
            parts.append(self.delta)
        if self.kind == "in-place":
            parts.append("%d element(s) patched" % self.elements_patched)
        counts = (self.chains_emitted, self.chains_relinked, self.chains_reused, self.chains_deferred)
        if self.kind != "in-place" or any(counts):
            parts.append("%d chain(s) emitted, %d re-linked, %d reused, %d deferred" % counts)
        if self.transferred:
            parts.append("state carried for %d element(s)" % len(self.transferred))
        if self.profile:
            parts.append("profile %s" % self.profile)
        if self.phases:
            parts.append(
                "phases: "
                + ", ".join(
                    "%s=%.2fms" % (name, value * 1e3)
                    for name, value in self.phases.items()
                )
            )
        return "; ".join(parts)

    def __repr__(self):
        return "SwapReport(%s)" % self.format()


def check_graph(graph):
    """Raise :class:`HotswapError` where the ``check`` pass rejects ``graph``."""
    from ..core.check import check as check_config

    collector = check_config(graph)
    if not collector.ok:
        raise HotswapError("new configuration failed check; old router still serving:\n%s" % collector.format())


def _compatible(new_element, old_element):
    """Share state if the two classes have a common base below
    :class:`Element` — generated subclasses count as their base class."""
    shared = set(type(new_element).__mro__) & set(type(old_element).__mro__)
    return any(cls is not Element and issubclass(cls, Element) for cls in shared)


def resolve(graph, update):
    """``update`` — a :class:`~repro.graph.diff.GraphDelta`, a
    configuration graph, or configuration text — as the delta from
    ``graph`` to it."""
    if isinstance(update, GraphDelta):
        return update
    if isinstance(update, str):
        from ..core.toolchain import load_config

        update = load_config(update, "<update>")
    if update.element_classes:
        from ..core.flatten import flatten

        update = flatten(update)
    return diff_graphs(graph, update)


def hotswap(router, update, validate=True):
    """§5.1's hot-swap, in the live ``router``: install ``update`` (a
    delta, a graph or text, as :func:`resolve` takes it) with a new
    instance of *every* element, each given its same-named
    predecessor's declared state.  Returns the :class:`SwapReport`; on
    any failure raises :class:`HotswapError` and the router serves on,
    untouched."""
    started = time.perf_counter()
    delta = resolve(router.graph, update)
    report = SwapReport("scoped-swap", profile=router.profile.label, delta=delta.summary())
    report.phases["diff"] = time.perf_counter() - started
    install(router, delta, report, renew_all=True, validate=validate)
    return report


def install(router, delta, report, renew_all=False, validate=True):
    """Install ``delta`` in the live ``router`` in two phases, timing
    each step into ``report``.  Stage everything that can fail while
    the router serves on: the ``check`` pass, a new instance of every
    element added, re-classed or reconfigured (of every element, with
    ``renew_all``) — configured, wired, initialized and given its
    predecessor's state — and the wiring planned over the new graph.
    Then commit (:func:`_commit`).  Raises :class:`HotswapError`, the
    router as it was, if any step fails."""
    try:
        started = time.perf_counter()
        new_graph = delta.apply_to(router.graph)
        if validate:
            check_graph(new_graph)
        report.phases["validate"] = time.perf_counter() - started
        started = time.perf_counter()
        classes = router._classes
        if new_graph.archive != router.graph.archive:
            overlay = dict(classes.maps[0], **compile_archive_classes(new_graph.archive))
            classes = ChainMap(overlay, *classes.maps[1:])
        elements, fresh = {}, {}  # the new graph's elements; the new instances among them
        for decl in new_graph.elements.values():
            old = router.elements.get(decl.name)
            if renew_all or old is None or type(old) is not classes.get(decl.class_name) or old.config_string != decl.config:
                old = fresh[decl.name] = instantiate(router, decl, classes)
            elements[decl.name] = old
        plan = plan_wiring(new_graph, elements, classes)
        wire(elements, plan, fresh)
        for element in fresh.values():
            element.initialize()
        report.phases["build"] = time.perf_counter() - started
        started = time.perf_counter()
        for name, element in fresh.items():
            old = router.elements.get(name)
            if old is None or not _compatible(element, old):
                continue
            try:
                took = take_state(element, old)
            except Exception as exc:
                raise HotswapError(
                    "state transfer for %r failed; old router still serving: %s: %s"
                    % (name, type(exc).__name__, exc)
                ) from exc
            if took:
                report.transferred.append(name)
        report.phases["transfer"] = time.perf_counter() - started
        # Rewired: a new instance, one whose planned wiring is not its
        # live ports', and one that connects to a new instance.
        rewired = {name for name, entry in plan.items() if name in fresh or entry != wiring_of(elements[name])
                   or any(end is not None and end[0] in fresh for end in entry[2] + entry[3])}
        _commit(router, new_graph, classes, elements, plan, rewired.difference(fresh), rewired, report)
    except HotswapError:
        raise
    except Exception as exc:
        raise HotswapError(
            "installing the update failed; old router still serving: %s: %s" % (type(exc).__name__, exc)
        ) from exc


def _commit(router, new_graph, classes, elements, plan, rewire, changed, report):
    """Swap the staged ``elements`` in, give those in ``rewire`` new
    ports, initialize every element again (RED finds its queues over
    the new wiring), rebuild tasks and graph, and let the engine
    rewrite each flavor's chains that hold an element ``changed`` or
    removed; the supervisor then guards the tasks as they are.  If that
    fails, everything is put back and it raises."""
    started = time.perf_counter()
    engine = router.engine
    changed = changed.union(name for name in router.elements if name not in elements)
    if engine is not None:
        engine.uninstall()
    old = router.elements, router.graph, router._classes, router._tasks
    ports = {name: (e._output_ports, e._input_ports) for name, e in router.elements.items()}
    try:
        router.elements, router.graph, router._classes = elements, new_graph, classes
        wire(elements, plan, rewire)
        if router.fault_injector is not None:
            router.fault_injector.prepare_router(router)
        for element in elements.values():
            element.initialize()
        router._tasks = [element for element in elements.values() if element.is_task()]
        staged = engine.stage_update(changed) if engine is not None else None
    except BaseException:
        router.elements, router.graph, router._classes, router._tasks = old
        for name, (outputs, inputs) in ports.items():
            old[0][name]._output_ports, old[0][name]._input_ports = outputs, inputs
        for element in router.elements.values():
            element.initialize()
        if engine is not None:
            engine.install()
        if router.supervisor is not None:
            router.supervisor.rebind()
        raise
    report.phases["compile"] = time.perf_counter() - started
    started = time.perf_counter()
    rebuilt = engine.commit_update(staged, "structural update") if engine is not None else []
    if router.supervisor is not None:
        router.supervisor.rebind()
    report.phases["commit"] = time.perf_counter() - started
    report.count_chains(rebuilt)


def take_state(new, old):
    """Copy into ``new`` every field declared ``carry`` by both its
    class and ``old``'s; True when there was one.  A copy goes one level
    into a dict (ARP's held-packet lists), and shares the packets.  A
    queue refills its own deque in place (the fast path binds the deque
    object), up to the new capacity, and counts what does not fit as
    ``drops``."""
    fields = [
        field
        for field, (swap, _merge) in new.STATE.items()
        if swap == "carry" and old.STATE.get(field, ("reset",))[0] == "carry"
    ]
    for field in fields:
        value = getattr(old, field)
        if isinstance(value, dict):
            setattr(new, field, {key: copy.copy(item) for key, item in value.items()})
        elif field != "_deque":
            setattr(new, field, copy.copy(value))
    if "_deque" in fields:
        held = list(old._deque)
        new._deque.clear()
        new._deque.extend(held[: new.capacity])
        new.drops += max(0, len(held) - new.capacity)
    return bool(fields)
