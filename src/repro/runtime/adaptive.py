"""The execution engine: one class runs every compiled mode, and
profile-guided adaptive recompilation is what it does when tiering is on.

Emitted and compiled on their first entry, the chains
(:mod:`repro.runtime.fastpath`) emit branch arms in port order and
speculate nothing; ``fast`` mode is :class:`AdaptiveEngine` doing just
that.  Morpheus's observation — and the rest of this module's job — is
that the *traffic* decides which code should be fast:
with runtime profiles, classifier and route dispatch can put the
hottest arm on the fall-through path, single-entry route and ARP
results can be inlined as guarded constants, and cold specializations
can be pruned.

Three tiers:

- **tier 0** — the reference interpreter (always available through
  ``router.configure(ExecutionProfile.reference())``): the semantic
  oracle.
- **tier 1** — the statically compiled chains, entered through a cheap
  *sampling dispatcher*: 1 packet in each run of ``sample``, at an
  offset drawn from a fixed-seed stream, runs the profiled
  flavor of the same chain (identical code plus per-classifier
  ``note(out)`` and per-route ``note(dst)`` hooks).  The other
  ``sample - 1`` packets pay one counter increment and one extra call
  frame — and once a chain is promoted or settled the dispatcher is
  removed entirely, so steady-state overhead is zero.
- **tier 2** — after ``threshold`` packets on a chain, the engine
  builds one profile-guided :class:`FastPath` for the router (shared
  by every promoted chain) and swaps each hot entry port's ``push``
  slot to the recompiled function.

Every speculation is guarded and every guard fails *safe*: the cold
side of each guard is the full generic code, so a wrong guess costs
time, never correctness.  Guard misses increment engine-owned counters;
sustained pressure (:data:`GUARD_MISS_LIMIT` misses on one site) means the
traffic changed shape, and the engine *deoptimizes* the chains that
reach the offending element back to tier 1, resets the profile, and
lets them climb again against fresh counters.  A control-plane patch
deoptimizes only what it falsifies: a route patch whose committed
tables still answer every hot destination tier 2 baked in the same
way keeps tier 2, the profile and every chain's tier; a rules patch or
a structural update drops tier 2, which inlined the old trees.

A tier 2 emits only the chains promoted onto it, each on its first
entry, and the recompile is emission alone where the text is known: the
chain store maps each chain's text to its template code, so a router
re-learning a previously seen traffic shape — a route patch changes
tables, not that text — finds them stored and pays no ``compile``
again (:mod:`repro.runtime.codegen_cache`).

What a tier is specialized on is data, not a class: the engine
assembles one :class:`~repro.runtime.fastpath.ChainPolicy` per flavor
from the profile store (profiled), a :class:`Decisions` bucket (tier 2)
and, under ``fdd``, the plans of the diagram pass
(:func:`repro.runtime.fdd.diagram_pass`) for the plain flavor and
tier 2.  The profiled flavor takes none: it only records what each
classifier answered, and asks the element's live tree, so a
control-plane *rules* patch emits again only the plain flavor's chains
that reach the patched classifier, and swaps their new code under the
functions already installed.  Every update, a table patch or a
structural one, is one stage/commit pair: :meth:`AdaptiveEngine.stage_update`
does all that can fail before anything is live, and
:meth:`AdaptiveEngine.commit_update` raises nothing.
"""

from __future__ import annotations

import hashlib
import random
from functools import partial

from .codegen_cache import default_cache
from .fastpath import ChainPolicy, FastOutputPort, FastPath
from .fdd import DEFAULT_NODE_BUDGET, _loc_for, build_diagram, classifier_hot_path, diagram_pass, router_trees

__all__ = [
    "AdaptiveConfig",
    "AdaptiveEngine",
    "Decisions",
    "ProfileReport",
    "ProfileStore",
    "build_decisions",
]


#: Misses on one guard site that deoptimize the chains reaching it.
GUARD_MISS_LIMIT = 8192
#: How dominant an arm or a route must be before it is guarded.
HOT_FRACTION = 0.5
#: Tier-2 builds one engine may make.
MAX_RECOMPILES = 16
#: Seed of each engine's stream of sampling offsets: a fixed seed keeps
#: the profile, and so the code built from it, the same run to run.
_SAMPLE_SEED = 0x5EED


class AdaptiveConfig:
    """Tuning knobs for the tiered engine.

    ``sample`` is the run of packets that profiles one, a power of
    two; ``threshold`` is the per-chain packet count that triggers
    promotion; ``min_samples`` is the least profile weight a decision
    may rest on.
    """

    __slots__ = ("threshold", "sample", "min_samples")

    def __init__(self, threshold=512, sample=16, min_samples=32):
        if sample < 1 or (sample & (sample - 1)):
            raise ValueError("sample must be a power of two, not %r" % (sample,))
        if threshold < 1:
            raise ValueError("threshold must be positive")
        if min_samples < 1:
            raise ValueError("min_samples must be positive, not %r" % (min_samples,))
        self.threshold = threshold
        self.sample = sample
        self.min_samples = min_samples

    def as_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __eq__(self, other):
        return type(other) is type(self) and self.as_dict() == other.as_dict()

    def __hash__(self):
        return hash(tuple(self.as_dict().items()))


class ProfileStore:
    """Per-router hit counters, filled by the profiled tier-1 chains.

    ``classifier[name]`` maps matcher output -> packets; ``route[name]``
    maps raw destination value -> packets.  The note closures mutate
    the inner dicts in place, and :meth:`reset` clears them in place
    too — the profiled chains keep their bound references across
    deoptimization, so a reset must not replace the dicts.
    """

    def __init__(self):
        self.classifier = {}
        self.route = {}
        # First data sample seen per (classifier, output): the guard
        # builder walks the decision tree along this exemplar's actual
        # path, so the speculated conditions describe the traffic that
        # was profiled — not just any leaf with the same output.
        self.classifier_exemplar = {}

    def classifier_note(self, name):
        counts = self.classifier.setdefault(name, {})
        exemplars = self.classifier_exemplar.setdefault(name, {})

        def note(out, data, _c=counts, _e=exemplars):
            _c[out] = _c.get(out, 0) + 1
            if out not in _e:
                _e[out] = bytes(data)

        return note

    def route_note(self, name):
        counts = self.route.setdefault(name, {})

        def note(raw, _c=counts):
            _c[raw] = _c.get(raw, 0) + 1

        return note

    def reset(self):
        for counts in self.classifier.values():
            counts.clear()
        for counts in self.route.values():
            counts.clear()
        for exemplars in self.classifier_exemplar.values():
            exemplars.clear()

    def snapshot(self):
        return {
            "classifier": {name: dict(c) for name, c in self.classifier.items()},
            "route": {name: dict(c) for name, c in self.route.items()},
        }


# -- profile -> emission decisions ----------------------------------------------


def _guard_conds(tree, hot_out, exemplar=None):
    """Guard conditions whose conjunction implies ``tree`` classifies to
    ``hot_out``, with implied negative tests eliminated — or None.

    With an ``exemplar`` (a data sample from the profiled hot flow) the
    path is the one the exemplar actually takes — several leaves can
    share an output, and guarding the wrong one means the hot traffic
    never hits the guard.  Without one, fall back to the shortest
    root-to-leaf path ending in the hot output.

    A ``("len", n)`` condition covering every tested word is prepended:
    the tree's interpreted traversal zero-pads short data, so the guard
    must only claim a match when the slices it compares are exact.  A
    packet short enough to have matched via padding simply misses the
    guard and takes the compiled matcher, which pads identically.
    """
    from collections import deque

    from ..classifier.tree import is_leaf, leaf_output

    if tree is None or not tree.exprs:
        return None
    walk = ((tree.exprs[pos - 1], taken) for pos, taken in classifier_hot_path(tree, hot_out, exemplar))
    found = tuple((expr.offset, expr.mask, expr.value, taken) for expr, taken in walk) or None
    if found is None:
        queue = deque([(1, ())])
        seen = {1}
        while queue and found is None:
            pos, path = queue.popleft()
            expr = tree.exprs[pos - 1]
            for taken, target in ((True, expr.yes), (False, expr.no)):
                step = (expr.offset, expr.mask, expr.value, taken)
                if is_leaf(target):
                    if leaf_output(target) == hot_out:
                        found = path + (step,)
                        break
                elif target not in seen:
                    seen.add(target)
                    queue.append((target, path + (step,)))
    if found is None:
        return None
    # Implied-test elimination: a positive (mask m, value v) at the same
    # offset settles any negative (m2, v2) with m2 ⊆ m and (v & m2) != v2.
    positives = [s for s in found if s[3]]
    kept = []
    for step in found:
        offset, mask, value, taken = step
        if not taken:
            implied = any(
                p[0] == offset and (mask & p[1]) == mask and (p[2] & mask) != value
                for p in positives
            )
            if implied:
                continue
        if step not in kept:
            kept.append(step)
    conds = [("len", max(s[0] for s in kept) + 4)] if kept else []
    for offset, mask, value, taken in sorted(kept, key=lambda s: (s[0], not s[3])):
        # the diagram's choice of load: a bytes slice, else the masked word
        loc, cond = _loc_for(offset, mask, value)
        if loc[0] == "slice":
            conds.append(("slice", loc[1], loc[2], cond[1], taken))
        else:
            conds.append(("masked", offset, 4, mask, value, taken))
    return tuple(conds) if conds else None


def _classifier_decision(element, counts, config, exemplars=None):
    total = sum(counts.values())
    if total < config.min_samples:
        return None
    nports = len(element._output_ports)
    port_counts = {i: counts.get(i, 0) for i in range(nports)}
    order = sorted(range(nports), key=lambda i: (-port_counts[i], i))
    hot_out = order[0]
    guard = None
    if port_counts[hot_out] >= HOT_FRACTION * total:
        conds = _guard_conds(
            getattr(element, "tree", None),
            hot_out,
            (exemplars or {}).get(hot_out),
        )
        if conds:
            guard = (conds, hot_out)
    prune = frozenset(i for i in range(nports) if port_counts[i] == 0)
    if order == list(range(nports)) and guard is None and not prune:
        return None
    return {"order": tuple(order), "hot": guard, "prune": prune, "total": total}


def _route_decision(element, counts, config):
    total = sum(counts.values())
    if total < config.min_samples:
        return None
    nports = len(element._output_ports)
    top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:64]
    port_counts = {}
    routes = {}
    for raw, count in top:
        result = element.lookup_route(raw)
        if result is None:
            continue
        routes[raw] = result
        port_counts[result[1]] = port_counts.get(result[1], 0) + count
    order = sorted(range(nports), key=lambda i: (-port_counts.get(i, 0), i))
    constant = None
    hot_raw, hot_count = top[0]
    if hot_count >= HOT_FRACTION * total and hot_raw in routes:
        gateway, port = routes[hot_raw]
        if 0 <= port < nports:
            constant = (
                hot_raw,
                gateway.value if gateway is not None else None,
                port,
            )
    prune = frozenset(i for i in range(nports) if not port_counts.get(i, 0))
    if order == list(range(nports)) and constant is None and not prune:
        return None
    return {"order": tuple(order), "hot": constant, "prune": prune, "total": total}


def _arp_downstream(element, port_index):
    """The ARPQuerier a route arm feeds (following output 0 through the
    linear run after the route table), or None."""
    from ..elements.arp import ARPQuerier

    ports = element._output_ports
    if not 0 <= port_index < len(ports):
        return None
    current = ports[port_index].target
    for _ in range(16):
        if current is None:
            return None
        if isinstance(current, ARPQuerier):
            return current
        if not current._output_ports:
            return None
        current = current._output_ports[0].target
    return None


def _arp_entry(element, raw):
    """The ``(raw, header, epoch)`` constant for speculating ``raw``
    through ``element``, from its live table — or None when the next
    hop is unresolved.  Reads only; the lazy header fill stays the
    generic path's business."""
    from ..net.headers import ETHERTYPE_IP, make_ether_header

    header = element._headers.get(raw)
    if header is None:
        ether = element.table.get(raw)
        if ether is None:
            return None
        header = make_ether_header(ether, element.my_ether, ETHERTYPE_IP)
    return (raw, bytes(header), element._arp_epoch)


class Decisions:
    """One profile bucket: everything the optimized policy bakes in."""

    __slots__ = ("classifier", "route", "arp", "check_ip_hot", "digest")

    def __init__(self, classifier, route, arp, check_ip_hot):
        self.classifier = classifier
        self.route = route
        self.arp = arp
        self.check_ip_hot = check_ip_hot
        canonical = (
            sorted(
                (name, d["order"], d["hot"], tuple(sorted(d["prune"])))
                for name, d in classifier.items()
            ),
            sorted(
                (name, d["order"], d["hot"], tuple(sorted(d["prune"])))
                for name, d in route.items()
            ),
            sorted(arp.items()),
            check_ip_hot,
        )
        self.digest = hashlib.sha256(repr(canonical).encode("utf-8")).hexdigest()[:16]

    def empty(self):
        return not (self.classifier or self.route or self.arp)

    def as_dict(self):
        return {
            "digest": self.digest,
            "classifier": {
                name: {
                    "order": list(d["order"]),
                    "guard_out": d["hot"][1] if d["hot"] else None,
                    "pruned": sorted(d["prune"]),
                    "total": d["total"],
                }
                for name, d in self.classifier.items()
            },
            "route": {
                name: {
                    "order": list(d["order"]),
                    "constant": list(d["hot"]) if d["hot"] else None,
                    "pruned": sorted(d["prune"]),
                    "total": d["total"],
                }
                for name, d in self.route.items()
            },
            "arp": {
                name: {"raw": entry[0], "epoch": entry[2]}
                for name, entry in self.arp.items()
            },
            "check_ip_hot": self.check_ip_hot,
        }


def build_decisions(router, store, config):
    """Turn the profile store's counters into a :class:`Decisions`
    bucket against the router's *live* state (route tables, ARP caches
    — read at decision time, guarded in the generated code)."""
    classifier = {}
    for name, counts in store.classifier.items():
        element = router.elements.get(name)
        if element is None or not counts:
            continue
        decision = _classifier_decision(
            element, counts, config, store.classifier_exemplar.get(name)
        )
        if decision is not None:
            classifier[name] = decision
    route = {}
    busiest = (0, None)
    for name, counts in store.route.items():
        element = router.elements.get(name)
        if element is None or not counts:
            continue
        decision = _route_decision(element, counts, config)
        if decision is not None:
            route[name] = decision
            if decision["hot"] is not None and decision["total"] > busiest[0]:
                busiest = (decision["total"], decision["hot"][0])
    arp = {}
    for name, decision in route.items():
        constant = decision["hot"]
        if constant is None:
            continue
        raw, gateway_value, port = constant
        querier = _arp_downstream(router.elements[name], port)
        if querier is None:
            continue
        entry = _arp_entry(querier, gateway_value if gateway_value is not None else raw)
        if entry is not None:
            arp[querier.name] = entry
    return Decisions(classifier, route, arp, busiest[1])


class _GuardCounter:
    """An engine-owned miss counter emitted on the cold side of one
    speculation site.  Hitting the limit reports sustained pressure —
    the traffic no longer matches the profile the code was built for."""

    __slots__ = ("engine", "element", "site", "limit", "count")

    def __init__(self, engine, element, site, limit):
        self.engine = engine
        self.element = element
        self.site = site
        self.limit = limit
        self.count = 0

    def __call__(self):
        count = self.count + 1
        self.count = count
        if count >= self.limit:
            self.count = 0
            self.engine._on_guard_pressure(self)


class _ChainState:
    """Per-entry-chain tier state.  ``tier`` is 1 while the sampling
    dispatcher runs, 2 once promoted, 0 once settled back to the plain
    static chain (nothing worth speculating).  ``decisions`` is what
    the chain's tier-2 code baked in, while ``tier`` is 2: a scoped
    deopt can leave a chain on a tier 2 the engine has dropped."""

    __slots__ = ("key", "port", "plain", "prof", "seen", "tier", "decisions")

    def __init__(self, key, port):
        self.key = key
        self.port = port
        self.plain = None
        self.prof = None
        self.seen = 0
        self.tier = 1
        self.decisions = None


class ProfileReport:
    """Observability snapshot: per-chain tiers and counters, recompile
    and deopt history, and the chain store's hit rate."""

    def __init__(self, engine):
        self.mode = engine.mode
        self.config = engine.config.as_dict()
        self.chains = {
            "%s %s[%d]" % key: {"tier": state.tier, "seen": state.seen}
            for key, state in sorted(engine.states.items())
        }
        self.counters = engine.store.snapshot()
        self.recompiles = engine.recompiles
        self.deopts = list(engine.deopts)
        self.guard_misses = {
            "%s/%s" % (c.element, c.site): c.count for c in engine._guard_counters
        }
        self.decisions = (
            engine.tier2_fp.policy.decisions.as_dict()
            if engine.tier2_fp is not None
            else None
        )
        self.tier2_report = (
            engine.tier2_fp.report.as_dict() if engine.tier2_fp is not None else None
        )
        self.cache = default_cache().stats()

    def as_dict(self):
        return {
            "mode": self.mode,
            "config": self.config,
            "chains": self.chains,
            "counters": {
                "classifier": self.counters.get("classifier", {}),
                "route": {
                    name: {"%d.%d.%d.%d" % tuple((raw >> s) & 0xFF for s in (24, 16, 8, 0)): n
                           for raw, n in counts.items()}
                    for name, counts in self.counters.get("route", {}).items()
                },
            },
            "recompiles": self.recompiles,
            "deopts": self.deopts,
            "guard_misses": self.guard_misses,
            "decisions": self.decisions,
            "tier2": self.tier2_report,
            "codegen_cache": self.cache,
        }

    def to_json(self):
        import json

        return json.dumps(self.as_dict(), indent=2, sort_keys=True, default=str)

    def format(self):
        tiers = {}
        for info in self.chains.values():
            tiers[info["tier"]] = tiers.get(info["tier"], 0) + 1
        lines = [
            "adaptive: %d chains (%d promoted to tier 2, %d profiling, %d settled)"
            % (
                len(self.chains),
                tiers.get(2, 0),
                tiers.get(1, 0),
                tiers.get(0, 0),
            ),
            "  recompiles: %d, deopts: %d%s"
            % (
                self.recompiles,
                len(self.deopts),
                " (%s)" % "; ".join(self.deopts) if self.deopts else "",
            ),
            "  codegen cache: %(entries)d entries, %(hits)d hits, %(misses)d misses"
            % self.cache,
        ]
        if self.decisions:
            lines.append("  profile bucket: %s" % self.decisions["digest"])
        for key, info in self.chains.items():
            lines.append("  %-40s tier %d after %d packets" % (key, info["tier"], info["seen"]))
        return "\n".join(lines)


class AdaptiveEngine:
    """The execution engine over one router.  Every compiled mode is
    this class; the :class:`~repro.runtime.profile.ExecutionProfile` it
    is built from says which passes run:

    - ``fast``: tier 1 only — the static chains, installed and left
      alone (no profiled flavor, no dispatcher, ``states`` empty),
      batched or not.
    - ``fdd``: tiering on, with the diagram pass
      (:func:`repro.runtime.fdd.diagram_pass`) in the plain flavor and
      tier 2.  Construction builds tier 1 twice (plain + profiled
      flavor, each chain emitted on first entry) and :meth:`install`
      wraps every compiled push entry in a sampling dispatcher; matured
      chains promote to a profile-guided tier 2.  The profiled flavor
      is generic dispatch that walks each classifier's live tree
      (``element.tree.match``) and calls no matcher: it bakes no tree
      in, so it outlives every rules patch, and a patch compiles no
      matcher for it.

    A metered router builds no engine: it runs the reference
    interpreter under any profile.
    """

    @staticmethod
    def fields(profile):
        """What an engine is built from — ``(mode, batch, adaptive
        config)`` — so a profile that changes none of them keeps the
        engine.  Supervised, a batch profile runs the scalar
        units: a batch unit pops its whole burst before the chain runs,
        so an error in the chain would cost the burst's tail."""
        return profile.mode, profile.batch and not profile.supervised, profile.adaptive

    def __init__(self, router, profile):
        self.router = router
        self.mode, self.batch, config = self.fields(profile)
        self.config = config if config is not None else AdaptiveConfig()
        self.tiering = self.mode == "fdd"
        self._offset = partial(random.Random(_SAMPLE_SEED).randrange, self.config.sample)
        self.store = ProfileStore()
        self.tier2_fp = None
        self.states = {}
        self.recompiles = 0
        self.deopts = []
        self.diagram_rebuilds = 0
        self._guard_counters = []
        self._decisions_cache = None
        self._reach_cache = {}
        self.pins = {}  # task -> (level, [(port list, index, engine's port)], task unit taken off)
        self.installed = False
        self.tier1 = self._compile(self._diagram_fields())
        self.profiled = self._compile({}, store=self.store) if self.tiering else None

    def _diagram_fields(self, decisions=None):
        """The diagram pass over the router as it stands: the policy
        fields one build's flavors share (none without tiering)."""
        if not self.tiering:
            return {}
        return diagram_pass(
            self.router, DEFAULT_NODE_BUDGET, decisions, self.store.classifier_exemplar
        )

    def _policy(self, fields, store=None, decisions=None):
        """The :class:`ChainPolicy` of one flavor — plain (neither
        keyword), profiled (``store``) or tier 2 (``decisions``): the
        one place a tier's facts are assembled into one."""
        return ChainPolicy(store=store, decisions=decisions, engine=self, **fields)

    def _compile(self, fields, store=None, decisions=None):
        """One flavor of the router's chains, none emitted yet: each is
        emitted on its first entry and compiled through the chain store."""
        policy = self._policy(fields, store=store, decisions=decisions)
        return FastPath(self.router, batch=self.batch, policy=policy)

    def flavors(self):
        """Every compiled :class:`FastPath` the engine holds."""
        return [
            path for path in (self.tier1, self.profiled, self.tier2_fp) if path is not None
        ]

    # -- installation ------------------------------------------------------

    def install(self):
        if self.installed:
            return
        self.tier1.install()
        self.installed = True
        if not self.tiering:
            return
        for name, element in self.router.elements.items():
            for port_index, port in enumerate(element._output_ports):
                if not isinstance(port, FastOutputPort):
                    continue
                key = ("push", name, port_index)
                prof = self.profiled.function_for(key)
                if prof is None:
                    continue
                state = _ChainState(key, port)
                state.plain = port.push
                state.prof = prof
                self.states[key] = state
                self._arm(state)

    def uninstall(self):
        if not self.installed:
            return
        # tier1 saved the reference ports; restoring them discards every
        # dispatcher/promotion slot mutation along with the fast ports.
        self.tier1.uninstall()
        self.installed = False
        # A dispatcher holds its state and the state its port: unhooked,
        # both (and the flavors' functions they hold) go by refcount.
        for state in self.states.values():
            state.port.push = None
        self.states = {}
        self.pins = {}  # the pinned ports went with the port lists

    # -- supervisor pins ---------------------------------------------------

    @property
    def tiers(self):
        """The tier stack a supervised task walks down, best first; a
        :meth:`pin` level indexes it."""
        return (self.mode, "fast", "reference") if self.tiering else ("fast", "reference")

    def pin(self, task, level):
        """Run ``task``'s entries — its task unit and the chains its own
        ports enter — at tier ``self.tiers[level]``, for the supervisor.
        Level 0 hands them back to the engine; ``fast`` pins the plain
        static chains, ``reference`` the interpreter (the element's own
        ``run_task`` and the saved ports, via
        :meth:`FastPath._reference_entries`).  A pinned port is a copy
        standing in the element's port list, so the dispatcher,
        promotion and :meth:`deopt`, which write the engine's own port
        objects, leave a pinned entry alone."""
        _level, swapped, unit = self.pins.pop(task, (0, (), None))
        for ports, index, port in swapped:
            ports[index] = port
        if unit is not None:
            task.run_task = unit
        if not level:
            return
        tier1, swapped, unit = self.tier1, [], None
        reference = self.tiers[level] == "reference"
        if reference:
            unit = tier1.function_for(("task", task.name, 0))
            if unit is not None and vars(task).get("run_task") is unit:
                del task.run_task
            else:
                unit = None
        for ports, kind in ((task._output_ports, "push"), (task._input_ports, "pull")):
            for index, port in enumerate(ports):
                key = (kind, task.name, index)
                entry = tier1.function_for(key)
                if entry is None:
                    continue
                if reference:
                    entry = tier1._reference_entries(key)[0]
                swapped.append((ports, index, port))
                ports[index] = type(port)(port, entry)
        self.pins[task] = (level, swapped, unit)

    def unpin(self):
        """Hand every pinned task back to the engine."""
        for task in list(self.pins):
            self.pin(task, 0)

    # -- tier transitions --------------------------------------------------

    def _arm(self, state):
        """(Re)install the tier-1 sampling dispatcher on a chain — past
        the recompile budget, the plain chain: sampling could never pay.
        Each run of ``sample`` packets profiles one, at an offset drawn
        from the engine's fixed-seed stream: a fixed stride would see
        traffic whose period divides it from one phase only, and one
        sample per run keeps the profile as heavy, after any number of
        packets, as a fixed stride makes it."""
        if self._budget_spent():
            self._settle(state)
            return
        state.tier = 1
        state.decisions = None
        offset, sample = self._offset, self.config.sample
        due = state.seen + 1 + offset()
        threshold = self.config.threshold
        consider = self._consider

        def push(packet, _s=state):
            nonlocal due
            n = _s.seen + 1
            _s.seen = n
            if n != due:
                _s.plain(packet)
            else:
                due = n - (n - 1) % sample + sample + offset()
                _s.prof(packet)
            if n >= threshold:
                consider(_s)

        state.port.push = push

    def _consider(self, state):
        if state.tier == 1:
            self._promote(state)

    def _promote(self, state):
        """Move one matured chain to tier 2 — or settle it on the plain
        static chain when the profile offers nothing to speculate or
        the recompile budget is spent."""
        tier2 = self._ensure_tier2()
        if tier2 is None and self._decisions_cache is None and not self._budget_spent():
            # The profile is still too thin to decide anything (the
            # sampling rate can make a chain cross its packet threshold
            # well before min_samples profiled events accumulate).
            # Keep the chain sampling and revisit a threshold from now.
            state.seen = 0
            self._arm(state)
            return
        fn = tier2.function_for(state.key) if tier2 is not None else None
        if fn is None:
            self._settle(state)
            return
        state.tier = 2
        state.decisions = tier2.policy.decisions
        state.port.push = fn

    def _settle(self, state):
        """Run a chain on the plain static chain (tier 0): no sampling
        dispatcher, no instrumented flavor."""
        state.tier = 0
        state.decisions = None
        state.port.push = state.plain

    def _budget_spent(self):
        """No further tier 2 can be built, so a profile buys nothing."""
        return self.recompiles >= MAX_RECOMPILES

    def _profile_weight(self):
        """The fattest single profile site — the maturity test for
        declaring a workload unspeculatable.  Per-site, not summed:
        every decision builder thresholds its own site's total, so only
        a site that crossed min_samples and still yielded nothing is
        evidence the traffic has no exploitable skew."""
        best = 0
        for counts in self.store.classifier.values():
            best = max(best, sum(counts.values()))
        for counts in self.store.route.values():
            best = max(best, sum(counts.values()))
        return best

    def _ensure_tier2(self):
        if self.tier2_fp is not None:
            return self.tier2_fp
        if self._budget_spent():
            return None
        if self._decisions_cache is None:
            decisions = build_decisions(self.router, self.store, self.config)
            if decisions.empty() and self._profile_weight() < self.config.min_samples:
                # Not a verdict yet — too few profiled events to tell a
                # skewed workload from an unprofiled one.  Leave the
                # cache unset so the next promotion attempt rebuilds
                # from a fatter profile.
                return None
            self._decisions_cache = decisions
        decisions = self._decisions_cache
        if decisions.empty():
            return None
        self.tier2_fp = self._compile(self._diagram_fields(decisions), decisions=decisions)
        self.recompiles += 1
        return self.tier2_fp

    def on_idle(self):
        """Housekeeping between bursts: promote chains whose profiles
        matured without crossing the in-band threshold."""
        minimum = self.config.min_samples
        for state in self.states.values():
            if state.tier == 1 and state.seen >= minimum:
                self._promote(state)

    # -- deoptimization ----------------------------------------------------

    def guard_counter_for(self, token):
        counter = _GuardCounter(self, token[1], token[2], GUARD_MISS_LIMIT)
        self._guard_counters.append(counter)
        return counter

    def _on_guard_pressure(self, counter):
        self.deopt(
            "guard pressure at %s/%s" % (counter.element, counter.site),
            element_name=counter.element,
        )

    def _reaches(self, entry_name, element_name):
        """Can the push chain entered at ``entry_name`` reach
        ``element_name``?  (BFS over the live wiring, memoized.)"""
        reach = self._reach_cache.get(entry_name)
        if reach is None:
            reach = {entry_name}
            queue = [self.router.elements[entry_name]]
            while queue:
                element = queue.pop()
                for port in element._output_ports:
                    target = port.target
                    if target is not None and target.name not in reach:
                        reach.add(target.name)
                        queue.append(target)
            self._reach_cache[entry_name] = reach
        return element_name in reach

    def deopt(self, reason, element_name=None):
        """Send chains back to tier 1 and reprofile.  With
        ``element_name`` only the chains that can reach the offending
        element demote (their guards are the ones missing); without it
        (a forced deopt, or a rules patch) every chain demotes, and
        every guard-miss counter goes with the tier 2 that bound it.
        Returns whether there was anything to demote (the engine tiers
        and is installed)."""
        if not self.tiering or not self.installed:
            return False
        self.deopts.append(reason)
        self.store.reset()
        self._decisions_cache = None
        self.tier2_fp = None
        self._guard_counters = [
            c for c in self._guard_counters if element_name is not None and c.element != element_name
        ]
        for state in self.states.values():
            if element_name is not None and not self._reaches(
                state.key[1], element_name
            ):
                continue
            state.seen = 0
            self._arm(state)
        return True

    def _replanned(self, names, trees=None):
        """The plain tier 1's policy with the plans of the classifiers
        named in ``names`` built again from their trees — a table
        patch's prepared ``trees`` where given, not yet live, else the
        live ones — every other plan kept (the same object), and the
        plans of elements gone dropped.  A tier-1 plan carries no hot
        path, so it is a function of the tree and the node budget: where
        a named classifier's tree has the plan's ``signature`` (a
        hot-swap renews the element, not its rules), the plan is kept
        too."""
        policy, elements, trees = self.tier1.policy, self.router.elements, trees or {}
        if policy.plans is None:
            return self._policy({})
        plans = {name: plan for name, plan in policy.plans.items() if name in elements and name not in names}
        for name, tree in router_trees(self.router, names).items():
            tree = trees.get(name, tree)
            plan = policy.plans.get(name)
            if plan is None or plan.signature != tree.signature():
                plan = build_diagram(tree, node_budget=policy.node_budget)
            if plan is not None:  # over budget: the generic emission
                plans[name] = plan
        return self._policy({"plans": plans, "node_budget": policy.node_budget, "hot_paths": {}})

    def stage_update(self, changed, trees=None):
        """Phase one of every update, all that can fail; nothing a holder
        of the engine sees changes, so a failure leaves nothing to take
        back.  ``changed`` names the elements a structural update
        renewed, rewired or removed (the router as rewired, the engine
        uninstalled); ``trees`` maps each classifier a table patch
        changes to its prepared tree, not yet live.  The plain tier 1
        stages its rewrite (:meth:`FastPath.stage_rewrite`) under plans
        built again from those trees (:meth:`_replanned`): every stale
        chain that was forwarding is emitted and given its code here.
        The profiled flavor walks the live trees, so only a structural
        update rewrites it.  A route patch, or a rules patch on a
        classifier that neither had nor gets a plan, stages nothing.
        Returns the staging for :meth:`commit_update`."""
        staged, changed, trees = [], frozenset(changed), trees or {}
        if changed or trees:
            policy = self._replanned(changed.union(trees), trees)
            planned = (self.tier1.policy.plans or {}).keys() | (policy.plans or {}).keys()
            if changed or not planned.isdisjoint(trees):
                staged.append((self.tier1, self.tier1.stage_rewrite(policy, changed)))
        if changed and self.profiled is not None:
            staged.append((self.profiled, self.profiled.stage_rewrite(self.profiled.policy, changed)))
        return staged

    def _falsified(self, names):
        """What the committed route tables ``names`` falsify of tier 2:
        for each table with a hot ``(raw, gateway, port)`` constant baked
        into the engine's tier 2, or into the code a promoted chain still
        runs, whose ``lookup_route(raw)`` now answers otherwise, the
        table's name -> ``"raw → port p via gw"`` (the new answer).
        Branch order and pruned arms still dispatch through the jump
        table, and ARP headers sit behind their epoch guard, so the hot
        constant is all a route table bakes.  A lookup on an int emits,
        compiles and raises nothing."""
        from ..net.addresses import IPAddress

        baked = {state.decisions for state in self.states.values() if state.tier == 2}
        if self.tier2_fp is not None:
            baked.add(self.tier2_fp.policy.decisions)
        moved = {}
        for decisions in baked:
            for name in names:
                decision = decisions.route.get(name)
                if decision is None or decision["hot"] is None or name in moved:
                    continue
                raw, gateway, port = decision["hot"]
                answer = self.router.elements[name].lookup_route(raw)
                if answer is None:
                    moved[name] = "%s → no route" % IPAddress(raw)
                    continue
                via, out = answer
                if (via.value if via is not None else None, out) != (gateway, port):
                    moved[name] = "%s → port %d%s" % (IPAddress(raw), out, " via %s" % via if via is not None else "")
        return moved

    def commit_update(self, staged, patched=None):
        """Phase two, which raises nothing: commit the staged rewrites
        (:meth:`FastPath.commit_rewrite` emits and compiles nothing),
        count the plans built again, install the engine again after a
        structural update, and deoptimize what the update falsified.
        ``patched`` maps each element a table patch changed to its kind
        (``"routes"`` or ``"rules"``); None is a structural update.

        - A route patch deoptimizes only where the committed tables
          answer a hot destination tier 2 baked otherwise
          (:meth:`_falsified`): :meth:`deopt` then demotes the chains
          that reach the one moved table (every chain for several).
          Otherwise tier 2, its guard counters, the profile and every
          chain's tier and count stay.
        - A rules patch or a structural update drops tier 2 and
          restarts the profile, as tier 2 inlined the old trees and
          guard conditions: a rules patch of one classifier that
          staged no rewrite demotes the chains that reach it, any
          other every chain, since tier 2 is dropped whole and a chain
          left running on it would keep it from being released.

        An update lands between bursts, never from inside a chain (a
        guard miss does), so the dropped tier 2 is released once no
        chain runs on it.  Returns the fast paths rewritten."""
        before = self.tier1.policy.plans or {}
        for path, stage in staged:
            path.commit_rewrite(stage)
        after = self.tier1.policy.plans or {}
        self.diagram_rebuilds += sum(plan is not before.get(name) for name, plan in after.items())
        if not self.installed:  # a structural update: the wiring is new
            self._reach_cache = {}
            self.install()
        rewritten = [path for path, _stage in staged]
        if patched is None:
            reason, scope = "structural update", None
        elif set(patched.values()) == {"routes"}:
            moved = self._falsified(patched)
            if not moved:
                return rewritten
            reason = "control-plane patch of %s" % "; ".join("%s: %s" % item for item in moved.items())
            scope = next(iter(moved)) if len(moved) == 1 else None
        else:
            reason = "control-plane patch of %s" % ", ".join(patched)
            scope = next(iter(patched)) if len(patched) == 1 and not staged else None
        dropped = self.tier2_fp
        if self.deopt(reason, scope) and dropped is not None:
            if not any(state.tier == 2 for state in self.states.values()):
                dropped.release()
        return rewritten

    # -- observability -----------------------------------------------------

    def profile_report(self):
        return ProfileReport(self)

    def diagram_report(self):
        """JSON-safe snapshot of the compiled diagrams: per-classifier
        node/path/gate counts, fused-test savings from the compile
        reports, rebuild history, and the chain store's hit rate.
        Zero totals on an engine that runs no diagram pass."""
        plans = self.tier1.policy.plans or {}
        diagrams = {}
        totals = {"diagrams": 0, "nodes": 0, "paths": 0, "loads_saved": 0}
        for name, plan in sorted(plans.items()):
            diagrams[name] = plan.as_dict()
            totals["diagrams"] += 1
            totals["nodes"] += plan.nodes
            totals["paths"] += plan.paths
            totals["loads_saved"] += plan.loads_saved
        fallbacks = sorted(set(router_trees(self.router)) - set(plans)) if self.tiering else []

        def flavor(fastpath):
            return {
                "fdd_diagrams": fastpath.report.fdd_diagrams,
                "fdd_nodes": fastpath.report.fdd_nodes,
                "fdd_paths": fastpath.report.fdd_paths,
                "fdd_tests_saved": fastpath.report.fdd_tests_saved,
            }

        report = {
            "mode": self.mode,
            "node_budget": DEFAULT_NODE_BUDGET,
            "diagrams": diagrams,
            "totals": totals,
            "budget_fallbacks": fallbacks,
            "rebuilds": self.diagram_rebuilds,
            "tier1": flavor(self.tier1),
            "tier2": None,
            "codegen_cache": default_cache().stats(),
        }
        if self.tier2_fp is not None:
            hot_paths = self.tier2_fp.policy.hot_paths or {}
            report["tier2"] = flavor(self.tier2_fp)
            report["tier2"]["hot_paths"] = {
                name: len(path) for name, path in sorted(hot_paths.items())
            }
        return report
