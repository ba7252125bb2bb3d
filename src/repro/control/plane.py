"""ControlPlane: route each configuration update by its shape.

A delta that only rewrites the configuration strings of data-table
elements (route tables, live classifier rules) never changes the graph
the fast-path compiler saw — the generated chains bind the *containers*
(the route memo, the one-slot matcher cell), so new tables can be
patched under them in place, with only the adaptive engine's
speculations deoptimized for the touched elements.  Anything that adds,
removes, rewires, or re-classes elements goes through the transactional
hot-swap, scoped by the same delta so untouched chains are spliced from
the old compile instead of regenerated.

Every update returns the shared :class:`~repro.elements.hotswap.SwapReport`
(kind, phase timings, chains recompiled vs reused, elements patched),
and ``apply`` keeps a bounded history of them for the churn benchmark.
"""

from __future__ import annotations

import time
from collections import deque

from ..elements.classifiers import _TreeClassifier
from ..elements.hotswap import SwapReport, chain_totals, hotswap
from ..elements.routing import _IPRouteTable
from ..graph.diff import GraphDelta, diff_graphs
from ..lang.lexer import split_config_args

__all__ = ["ControlPlane", "ControlPlaneError"]


class ControlPlaneError(RuntimeError):
    """An update was rejected before anything was applied; the live
    router is untouched and still serving."""


def _patch_kind(element):
    """How a live element accepts new configuration data in place:
    ``"routes"`` (IP route tables), ``"rules"`` (tree classifiers whose
    matcher rides in a patchable cell), or None (not patchable — the
    update needs a hot-swap).  Generated fast classifiers bake their
    tree at class level, so a rule change on one is structural."""
    if isinstance(element, _IPRouteTable):
        return "routes"
    if type(element).push is _TreeClassifier.push:
        return "rules"
    return None


class ControlPlane:
    """Incremental updates on one live router.

    The wrapped router's *identity* changes across structural updates
    (hot-swap builds a new Router); ``plane.router`` always names the
    live one.  ``apply`` accepts a :class:`~repro.graph.diff.GraphDelta`,
    a configuration graph, or configuration text, and returns the
    :class:`~repro.elements.hotswap.SwapReport` describing what was
    done.
    """

    def __init__(self, router, history=256):
        self._router = router
        self.history = deque(maxlen=history)

    @property
    def router(self):
        """The live router (changes identity across structural swaps)."""
        return self._router

    # -- update entry points -----------------------------------------------

    def apply(self, update, validate=True):
        """Install one update.  ``update`` is a
        :class:`~repro.graph.diff.GraphDelta`, a configuration graph,
        or configuration text; the delta is computed against the live
        graph when a full configuration is given.  Pure-data deltas
        patch tables in place; anything structural (or touching a
        non-patchable element) runs a delta-scoped hot-swap.  Returns
        the :class:`SwapReport`; raises :class:`ControlPlaneError`
        (nothing applied) on a bad update."""
        started = time.perf_counter()
        delta, new_graph = self._resolve(update)
        diff_seconds = time.perf_counter() - started

        if delta.empty:
            report = SwapReport("no-op", profile=self._router.profile.label)
            report.delta = delta.summary()
            report.phases["diff"] = diff_seconds
            self.history.append(report)
            return report

        if not delta.structural:
            report = self._try_patch(delta, diff_seconds)
            if report is not None:
                self.history.append(report)
                return report

        report = self._swap(delta, new_graph, diff_seconds, validate)
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

        graph = self._router.graph
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

    def _resolve(self, update):
        """``(delta, new_graph_or_None)`` for any accepted update form.
        ``new_graph`` stays None for delta inputs until a structural
        path needs it (then it is materialized via ``apply_to``)."""
        graph = getattr(self._router, "graph", None)
        if graph is None:
            raise ControlPlaneError("the live router carries no graph to diff against")
        if isinstance(update, GraphDelta):
            return update, None
        if isinstance(update, str):
            from ..core.toolchain import load_config

            update = load_config(update, "<update>")
        if update.element_classes:
            from ..core.flatten import flatten

            update = flatten(update)
        return diff_graphs(graph, update), update

    def stage_patch(self, delta):
        """Phase one of the in-place path: parse and validate every
        changed element's new data without mutating anything.  Returns
        the staged batch for :meth:`commit_patch`, or None when some
        element is not data-patchable (the update needs a hot-swap).
        Raises :class:`ControlPlaneError` — live router untouched — on
        a rejected table.  Split out of the old monolithic patch so a
        multi-shard commit can stage on *every* shard before any shard
        commits."""
        router = self._router
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
        router = self._router
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
        report.chains_recompiled, report.chains_relinked, report.chains_reused = chain_totals(rebuilt)
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

    def _swap(self, delta, new_graph, diff_seconds, validate):
        """The structural path: a transactional hot-swap scoped by the
        delta (untouched chains splice from the old compile)."""
        if new_graph is None:
            new_graph = delta.apply_to(self._router.graph)
        try:
            result = hotswap(self._router, new_graph, validate=validate, delta=delta)
        except Exception as exc:
            raise ControlPlaneError(
                "structural update failed; old router still serving: %s: %s"
                % (type(exc).__name__, exc)
            ) from exc
        self._router = result.router
        report = result.report
        report.phases["diff"] = diff_seconds
        report.phases.move_to_end("diff", last=False)
        return report
