"""ControlPlane: install each configuration update in the live router.

A delta that only rewrites the configuration strings of data-table
elements (route tables, live classifier rules) never changes the graph
the fast-path compiler saw — the generated chains bind the *containers*
(the route memo, the one-slot matcher cell), so new tables can be
patched under them in place: only the chains that inlined a patched
classifier's decision diagram are rewritten, and the engine's
speculations on the old data deoptimized.  Anything that adds,
removes, rewires, or re-classes elements — or reconfigures one that
cannot be patched — goes through the hot-swap's two-phase install
(:func:`repro.elements.hotswap.install`), which renews only the elements
the delta adds, re-classes or reconfigures, where a hot-swap renews
them all.  Both are one protocol: stage all that can fail while the
router serves on, then commit with nothing left that can fail.  The
router, its engine, its supervisor and their totals survive every
update.

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
        tables in place, and are a ``no-op`` where every new table is
        equivalent to the live one; anything structural (or touching a
        non-patchable element) changes the router's elements and wiring
        in place (:func:`~repro.elements.hotswap.install`).  Returns the
        :class:`SwapReport`; raises :class:`ControlPlaneError` (nothing
        applied) on a bad update."""
        router = self.router
        started = time.perf_counter()
        delta = resolve(router.graph, update)
        diff_seconds = time.perf_counter() - started

        if not delta.structural:
            started = time.perf_counter()
            staged = self.stage_patch(delta)
            if staged is not None:
                stage_seconds = time.perf_counter() - started
                if staged[0]:
                    report = self.commit_patch(staged, delta)
                else:  # nothing changed, or only to equivalent tables
                    report = SwapReport("no-op", profile=router.profile.label, delta=delta.summary())
                report.phases.update(diff=diff_seconds, stage=stage_seconds)
                if "patch" in report.phases:
                    report.phases.move_to_end("patch")
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
        """Phase one of the in-place path, all that can fail, mutating
        nothing: check every changed element's new data
        (``check_routes`` / ``check_rules``), then stage the engine's
        half (:meth:`~repro.runtime.adaptive.AdaptiveEngine.stage_update`:
        plans built from the prepared trees, the stale live chains
        emitted and given their code).  A rules change whose table is
        equivalent to the live one (``check_rules`` returns None) is
        left out of the batch: the live tree, its chains and the text
        it was built from stay.  Returns the batch for
        :meth:`commit_patch` — empty when nothing is left to change —
        or None when some element is not data-patchable (the update is
        structural).  Raises :class:`ControlPlaneError`, the router
        untouched, on a rejected table or a rewrite that fails.  A
        sharded plane stages on *every* shard before any shard
        commits."""
        router, staged, trees, name = self.router, [], {}, None
        try:
            for change in delta.changed:
                element = router.elements.get(change.name)
                kind = _patch_kind(element) if element is not None else None
                if kind is None:
                    return None
                name = change.name
                prepared = getattr(element, "check_" + kind)(split_config_args(change.new_config))
                if prepared is None:
                    continue
                if kind == "rules":
                    trees[name] = prepared[0]
                staged.append((element, kind, prepared, change))
            name = None
            rewrite = router.engine.stage_update((), trees) if staged and router.engine is not None else []
        except Exception as exc:
            raise ControlPlaneError(
                "%s rejected; nothing applied: %s: %s"
                % ("update for %r" % name if name else "chain rewrite", type(exc).__name__, exc)
            ) from exc
        return staged, rewrite

    def commit_patch(self, staged, delta):
        """Phase two, which raises nothing, emits nothing and compiles
        nothing: commit a batch staged by :meth:`stage_patch` — the
        prepared tables, config strings and the live graph, then the
        engine's staged rewrite
        (:meth:`~repro.runtime.adaptive.AdaptiveEngine.commit_update`),
        which deopts the chains that speculated on the old data.
        Returns the ``"in-place"`` :class:`SwapReport`."""
        router = self.router
        started = time.perf_counter()
        batch, rewrite = staged
        for element, kind, prepared, change in batch:
            getattr(element, "commit_" + kind)(prepared)
            element.config_string = change.new_config
            decl = router.graph.elements.get(change.name)
            if decl is not None:
                decl.config = change.new_config
        rebuilt = []
        if router.engine is not None:
            names = [change.name for _element, _kind, _prepared, change in batch]
            scope = names[0] if len(names) == 1 and not rewrite else None
            rebuilt = router.engine.commit_update(rewrite, "control-plane patch of %s" % ", ".join(names), scope)

        report = SwapReport("in-place", profile=router.profile.label)
        report.delta = delta.summary()
        report.phases["patch"] = time.perf_counter() - started
        report.elements_patched = len(batch)
        report.count_chains(rebuilt)
        return report
