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

The swap is a **two-phase commit**.  Phase one prepares everything that
can fail while the old router keeps serving: the new graph runs the
``check`` pass, a new router is built in reference mode, state is
copied over (the old element is only read), and the old router's
execution profile — fast/adaptive, batch flavor, adaptive config,
supervision — is recompiled onto the new router.  Only after all of
that succeeds does phase two commit: the old router is retired.  Any
failure raises :class:`HotswapError` and leaves the old router exactly
as it was, still serving, queues and ARP tables intact.

The swap is **scoped**: before recompiling, the graphs are diffed
(:func:`repro.graph.diff.diff_graphs`, or an explicit ``delta`` from the
control plane) and the old router's compiled fast paths are offered to
the new compile as *donors* — every chain whose reachable elements are
untouched by the delta is spliced in verbatim instead of re-emitted
(see :meth:`FastPath._reuse_chain`).  ``hotswap`` returns a
:class:`SwapResult` carrying the new router and a :class:`SwapReport`
with per-phase timings and the recompiled-vs-reused chain counts.
"""

from __future__ import annotations

import copy
import time
from collections import OrderedDict

from ..graph.diff import diff_graphs
from .element import Element
from .runtime import Router


class HotswapError(RuntimeError):
    """A hot-swap aborted before commit; the old router is untouched
    and still serving."""


class SwapReport:
    """What one configuration update did: its kind (``in-place`` data
    patch, ``scoped-swap``, ``full-swap``, or ``no-op``), per-phase wall
    times, and the chain accounting of the fast paths it built:
    ``chains_recompiled`` were emitted again, ``chains_relinked`` took
    a rules patch's new values without that, ``chains_reused`` neither
    (spliced from the old compile, shared with a cached text, or left).
    Shared by :func:`hotswap` and :meth:`repro.control.ControlPlane.apply`."""

    def __init__(self, kind, profile=None, delta=None):
        self.kind = kind
        self.profile = profile  # ExecutionProfile label (str) or None
        self.delta = delta  # GraphDelta summary (str) or None
        self.phases = OrderedDict()  # phase name -> seconds
        self.chains_recompiled = 0
        self.chains_relinked = 0
        self.chains_reused = 0
        self.elements_patched = 0
        self.transferred = []  # element names that carried state over

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
            "chains_recompiled": self.chains_recompiled,
            "chains_relinked": self.chains_relinked,
            "chains_reused": self.chains_reused,
            "elements_patched": self.elements_patched,
            "transferred": list(self.transferred),
        }

    def format(self):
        parts = ["%s in %.2f ms" % (self.kind, self.total_seconds * 1e3)]
        if self.delta:
            parts.append(self.delta)
        if self.kind == "in-place":
            parts.append("%d element(s) patched" % self.elements_patched)
        counts = (self.chains_recompiled, self.chains_relinked, self.chains_reused)
        if self.kind != "in-place" or any(counts):
            parts.append("%d chain(s) recompiled, %d re-linked, %d reused" % counts)
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


class SwapResult:
    """What :func:`hotswap` returns: the new live router plus the
    :class:`SwapReport` describing the swap."""

    __slots__ = ("router", "report")

    def __init__(self, router, report):
        self.router = router
        self.report = report

    def __repr__(self):
        return "SwapResult(router=%r, report=%r)" % (self.router, self.report)


def _compatible(new_element, old_element):
    """Share state if the two classes have a common base below
    :class:`Element` — generated subclasses count as their base class."""
    shared = set(type(new_element).__mro__) & set(type(old_element).__mro__)
    return any(cls is not Element and issubclass(cls, Element) for cls in shared)


def _live_fastpaths(router):
    """Every compiled :class:`FastPath` the router's engine holds, for
    use as scoped-swap reuse donors or for chain accounting."""
    engine = getattr(router, "engine", None)
    return engine.flavors() if engine is not None else []


def chain_totals(fastpaths):
    """``(emitted, re-linked, reused)`` chain counts summed over
    compiled fast paths — what :class:`SwapReport` calls recompiled,
    re-linked and reused (``FastPathReport.emitted_units``,
    ``relinked_units``, the rest)."""
    recompiled = relinked = total = 0
    for path in fastpaths:
        report = path.report
        recompiled += report.emitted_units
        relinked += report.relinked_units
        total += report.push_chains + report.pull_chains + report.task_units
    return recompiled, relinked, total - recompiled - relinked


def hotswap(old_router, new_graph, profile=None, validate=True, delta=None, **router_kwargs):
    """Two-phase-commit hot-swap: build a Router from ``new_graph``,
    transferring state from ``old_router`` for same-named compatible
    elements and carrying the old router's
    :class:`~repro.runtime.profile.ExecutionProfile` (mode, batch
    flavor, adaptive config, supervision) unless ``profile`` overrides
    it.  The swap is scoped by ``delta`` (computed via
    :func:`~repro.graph.diff.diff_graphs` when not supplied): compiled
    chains that cannot touch a changed element are spliced from the old
    router's fast paths instead of recompiled.  On success the old
    router is retired and a :class:`SwapResult` returned; on any
    failure a :class:`HotswapError` is raised and the old router keeps
    serving, untouched."""
    if profile is None:
        profile = old_router.profile

    if new_graph.element_classes:
        from ..core.flatten import flatten

        new_graph = flatten(new_graph)

    report = SwapReport("full-swap", profile=profile.label)
    started = time.perf_counter()

    # Phase 1a: validate.  Everything check would reject, the kernel
    # installer would have rejected before touching the live router.
    if validate:
        from ..core.check import check as check_config

        collector = check_config(new_graph)
        if not collector.ok:
            raise HotswapError(
                "new configuration failed check; old router still serving:\n%s"
                % collector.format()
            )
    report.phases["validate"] = time.perf_counter() - started

    # The delta scopes the swap: chains of the new compile that cannot
    # touch a dirty element are spliced from the old router's compiled
    # fast paths.  An explicit delta (the control plane's) wins; without
    # one, diff the graphs here.
    old_graph = getattr(old_router, "graph", None)
    if delta is None and old_graph is not None:
        delta = diff_graphs(old_graph, new_graph)
    if delta is not None:
        report.kind = "scoped-swap"
        report.delta = delta.summary()

    router_kwargs.setdefault("devices", old_router.devices)
    router_kwargs.setdefault("meter", old_router.meter)

    # Phase 1b: build (reference mode first — state transfer happens on
    # plain wiring; the carried profile compiles afterwards, over the
    # transferred state).
    started = time.perf_counter()
    try:
        new_router = Router(new_graph, **router_kwargs)
    except Exception as exc:
        raise HotswapError(
            "building the new router failed; old router still serving: %s: %s"
            % (type(exc).__name__, exc)
        ) from exc
    report.phases["build"] = time.perf_counter() - started

    # Phase 1b': carry fault injection (chaos harness).  Wrappers must be
    # installed before the carried mode compiles so the compiler sees
    # them; injector counters are keyed by element name, so fault
    # schedules continue across the swap.
    injector = getattr(old_router, "fault_injector", None)
    if injector is not None:
        injector.prepare_router(new_router)

    # Phase 1c: transfer state.  take_state reads the old element and
    # mutates only the new one, so a failure here abandons the half-built
    # new router without having disturbed the old.
    started = time.perf_counter()
    transferred = []
    for name, new_element in new_router.elements.items():
        old_element = old_router.find(name)
        if old_element is None or not _compatible(new_element, old_element):
            continue
        try:
            took = take_state(new_element, old_element)
        except Exception as exc:
            raise HotswapError(
                "state transfer for %r failed; old router still serving: %s: %s"
                % (name, type(exc).__name__, exc)
            ) from exc
        if took:
            transferred.append(name)
    report.phases["transfer"] = time.perf_counter() - started
    report.transferred = transferred

    # Phase 1d: recompile the carried execution profile, offering the
    # old router's compiled fast paths as scoped-reuse donors.
    started = time.perf_counter()
    donors = _live_fastpaths(old_router)
    if delta is not None and donors:
        new_router._fastpath_reuse = {
            "fastpaths": donors,
            "dirty": delta.dirty_names(),
        }
    try:
        new_router.configure(profile)
    except Exception as exc:
        raise HotswapError(
            "compiling the new router (profile=%s) failed; old router still "
            "serving: %s: %s" % (profile.label, type(exc).__name__, exc)
        ) from exc
    finally:
        new_router._fastpath_reuse = None
    report.phases["compile"] = time.perf_counter() - started
    totals = chain_totals(_live_fastpaths(new_router))
    report.chains_recompiled, report.chains_relinked, report.chains_reused = totals

    # Phase 2: commit.
    started = time.perf_counter()
    new_router.hotswap_transferred = transferred
    old_router.retire()
    for path in donors:
        path.release()
    report.phases["commit"] = time.perf_counter() - started
    return SwapResult(new_router, report)


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
