"""ControlPlane: install each configuration update in the live router.

A delta that only rewrites the configuration strings of data-table
elements (route tables, live classifier rules) never changes the graph
the fast-path compiler saw — the generated chains bind the *containers*
(the route memo, the one-slot matcher cell), so new tables can be
patched under them in place, with only the adaptive engine's
speculations deoptimized for the touched elements.  Anything that adds,
removes, rewires, or re-classes elements — or reconfigures one that
cannot be patched — goes through the hot-swap's two-phase install
(:func:`repro.elements.hotswap.install`), which renews only the elements
the delta adds, re-classes or reconfigures, where a hot-swap renews
them all.  The router, its engine, its supervisor and their totals
survive every update.

Every update returns the shared :class:`~repro.elements.hotswap.SwapReport`
(kind, phase timings, chains emitted vs reused, elements patched),
and ``apply`` keeps a bounded history of them for the churn benchmark.
"""

from __future__ import annotations

import time
from collections import deque

from ..elements.classifiers import _TreeClassifier
from ..elements.hotswap import HotswapError, SwapReport, install, resolve
from ..elements.routing import _IPRouteTable
from ..graph.diff import GraphDelta
from ..lang.lexer import split_config_args

__all__ = ["ControlPlane", "ControlPlaneError"]


class ControlPlaneError(RuntimeError):
    """An update was rejected before anything was applied; the live
    router is untouched and still serving."""


def _patch_kind(element):
    """How a live element accepts new configuration data in place:
    ``"routes"`` (IP route tables), ``"rules"`` (tree classifiers whose
    matcher rides in a patchable cell), or None (not patchable — the
    update replaces the element).  Generated fast classifiers bake their
    tree at class level, so a rule change on one is structural."""
    if isinstance(element, _IPRouteTable):
        return "routes"
    if type(element).push is _TreeClassifier.push:
        return "rules"
    return None


class ControlPlane:
    """Incremental updates on one live router.

    Every update changes the wrapped router in place, so ``plane.router``
    is the router it was built with.  ``apply`` accepts a
    :class:`~repro.graph.diff.GraphDelta`, a configuration graph, or
    configuration text, and returns the
    :class:`~repro.elements.hotswap.SwapReport` describing what was
    done.
    """

    def __init__(self, router, history=256):
        self.router = router
        self.history = deque(maxlen=history)

    # -- update entry points -----------------------------------------------

    def apply(self, update, validate=True):
        """Install one update.  ``update`` is a
        :class:`~repro.graph.diff.GraphDelta`, a configuration graph,
        or configuration text; the delta is computed against the live
        graph when a full configuration is given, and what is installed
        is that delta applied to the live graph.  Pure-data deltas patch
        tables in place; anything structural (or touching a
        non-patchable element) changes the router's elements and wiring
        in place (:func:`~repro.elements.hotswap.install`).  Returns the
        :class:`SwapReport`; raises :class:`ControlPlaneError` (nothing
        applied) on a bad update."""
        router = self.router
        started = time.perf_counter()
        delta = resolve(router.graph, update)
        diff_seconds = time.perf_counter() - started

        if delta.empty:
            report = SwapReport("no-op", profile=router.profile.label)
            report.delta = delta.summary()
            report.phases["diff"] = diff_seconds
            self.history.append(report)
            return report

        if not delta.structural:
            report = self._try_patch(delta, diff_seconds)
            if report is not None:
                self.history.append(report)
                return report

        report = SwapReport("scoped-swap", profile=router.profile.label, delta=delta.summary())
        report.phases["diff"] = diff_seconds
        try:
            install(router, delta, report, validate=validate)
        except HotswapError as exc:
            raise ControlPlaneError("structural update failed: %s" % exc) from exc
        self.history.append(report)
        return report

    def apply_batch(self, updates, validate=True):
        """Apply a sequence of updates in order; returns their reports.
        Each update sees the state left by the previous one (a batch is
        a burst of control-plane traffic, not a transaction)."""
        return [self.apply(update, validate=validate) for update in updates]

    def update_routes(self, name, routes):
        """Convenience: replace element ``name``'s route table with the
        given route strings, in place when possible."""
        return self.apply(self._config_delta(name, routes))

    def update_rules(self, name, rules):
        """Convenience: replace element ``name``'s classifier rules
        with the given pattern strings, in place when possible."""
        return self.apply(self._config_delta(name, rules))

    # -- internals ---------------------------------------------------------

    def _config_delta(self, name, args):
        from ..graph.diff import ElementChange

        graph = self.router.graph
        decl = graph.elements.get(name)
        if decl is None:
            raise ControlPlaneError("no element named %r in the live router" % name)
        new_config = ", ".join(args)
        return GraphDelta(
            changed=[
                ElementChange(
                    name, decl.class_name, decl.class_name, decl.config, new_config
                )
            ]
        )

    def stage_patch(self, delta):
        """Phase one of the in-place path: parse and validate every
        changed element's new data without mutating anything.  Returns
        the staged batch for :meth:`commit_patch`, or None when some
        element is not data-patchable (the update is structural).
        Raises :class:`ControlPlaneError` — live router untouched — on
        a rejected table.  Split out of the old monolithic patch so a
        multi-shard commit can stage on *every* shard before any shard
        commits."""
        router = self.router
        staged = []
        for change in delta.changed:
            element = router.elements.get(change.name)
            if element is None:
                return None
            kind = _patch_kind(element)
            if kind is None:
                return None
            args = split_config_args(change.new_config)
            try:
                if kind == "routes":
                    prepared = element.check_routes(args)
                else:
                    prepared = element.check_rules(args)
            except Exception as exc:
                raise ControlPlaneError(
                    "update for %r rejected; nothing applied: %s: %s"
                    % (change.name, type(exc).__name__, exc)
                ) from exc
            staged.append((element, kind, prepared, change))
        return staged

    def commit_patch(self, staged, delta):
        """Phase two: install a batch staged by :meth:`stage_patch` —
        commit the prepared tables, sync config strings and the live
        graph, and deopt adaptive chains that speculated on the old
        data.  Returns the ``"in-place"`` :class:`SwapReport`."""
        router = self.router
        started = time.perf_counter()
        graph = router.graph
        rebuilt = []  # fast paths the engine rewrote for this batch
        for element, kind, prepared, change in staged:
            if kind == "routes":
                element.commit_routes(prepared)
            else:
                element.commit_rules(prepared)
            element.config_string = change.new_config
            decl = graph.elements.get(change.name)
            if decl is not None:
                decl.config = change.new_config
            if router.engine is not None:
                # Compiled chains may have baked in the old table
                # (hot-route constants, guarded classifier arms, FDD
                # diagrams); the engine demotes or rewrites exactly the
                # chains that can reach this element.
                rebuilt.extend(router.engine.on_table_patch(change.name, kind))

        report = SwapReport("in-place", profile=router.profile.label)
        report.delta = delta.summary()
        report.phases["patch"] = time.perf_counter() - started
        report.elements_patched = len(staged)
        report.count_chains(rebuilt)
        return report

    def _try_patch(self, delta, diff_seconds):
        """The in-place path: stage every changed element's new data,
        then commit the whole batch.  Returns the report, or None when
        the update is not patchable in place."""
        started = time.perf_counter()
        staged = self.stage_patch(delta)
        if staged is None:
            return None
        stage_seconds = time.perf_counter() - started
        report = self.commit_patch(staged, delta)
        report.phases["diff"] = diff_seconds
        report.phases["stage"] = stage_seconds
        report.phases.move_to_end("patch")
        return report
