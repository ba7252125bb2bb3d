"""A content-addressed cache for compiled fast-path modules.

``FastPath._compile`` pays emission per router build, and ``compile``
per chain entered, even when the configuration is identical — the
common case in benchmarks, test suites, and hot-swap, where the same
graph is instantiated over and over.  This module caches the
*generated artifact* (the per-chain records —
:class:`~repro.runtime.fastpath.ChainInfo`, shared by reference with
the fast path that built them, so a chain any sharer has entered
carries its code object for all — plus the module text and the replay
recipes for every bound runtime object) keyed by

    (graph fingerprint, element-class identity, batch flag, policy key)

so a repeat build skips generation entirely: the entry re-binds each
``_bN`` slot against the fresh router from its recipe and re-executes
the code objects compiled so far in a fresh namespace.
The cache is an in-memory LRU and nothing else: a process that did not
compile a configuration compiles it.

Recipes (recorded by :meth:`FastPath._bind`) are small tuples:

``("elem", name)``
    the element itself
``("attr", name, (a, b, ...))``
    a ``getattr`` chain off the element (bound methods, deques, sets)
``("value", v)``
    an immutable literal (or a module's sentinel) carried in the recipe
``("const", key)``
    a module-level singleton (the dest-IP intern cache probe)
``("cell", name)``
    the element's one-slot matcher cell (``matcher_cell()``) — bound
    for live-patchable classifiers so a control-plane rule update swaps
    the function under cached code
``("ip", raw)``
    the interned :class:`IPAddress` for a raw destination value
``("table", index)``
    the ``index``-th terminal jump table, refilled after exec
``("policy", token)``
    ``policy.resolve(token, router)`` — profiling counters and guard
    callbacks, resolved against the *new* policy instance so cached
    profiled code gets fresh counters

A compile that binds anything without a recipe marks itself
uncacheable and is simply never stored.  A router carrying
fault-injection wrappers (``router._fault_uncacheable``, see
:mod:`repro.sim.faults`) bypasses keying entirely — a clean specialized
entry must never replay onto a faulted router, nor a faulted compile be
stored for clean ones.

Corruption is survivable by design: a replay that raises for any reason
makes :class:`~repro.runtime.fastpath.FastPath` evict the entry and
fall back to a fresh compile (``corrupt`` counts them).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from ..net.packet import _DEST_IP_CACHE, _intern_dest_ip

__all__ = ["CacheEntry", "CodegenCache", "default_cache"]


def _resolve_spec(spec, fastpath, tables):
    router = fastpath.router
    kind = spec[0]
    if kind == "elem":
        return router.elements[spec[1]]
    if kind == "attr":
        value = router.elements[spec[1]]
        for attr in spec[2]:
            value = getattr(value, attr)
        return value
    if kind == "value":
        return spec[1]
    if kind == "const":
        if spec[1] == "DEST_IP_GET":
            return _DEST_IP_CACHE.get
        raise KeyError("unknown const recipe %r" % (spec[1],))
    if kind == "cell":
        return router.elements[spec[1]].matcher_cell()
    if kind == "ip":
        return _intern_dest_ip(spec[1])
    if kind == "table":
        return tables[spec[1]][0]
    if kind == "policy":
        return fastpath.policy.resolve(spec[1], router)
    raise KeyError("unknown bind recipe %r" % (spec,))


class CacheEntry:
    """One cached compile: the chain records (what replay execs, and
    what lets a replayed fast path serve as a scoped rebuild's reuse
    donor just like a fresh compile — entries of successive patches
    share the records of the chains spliced between them) and the
    module-level remainder needed to rebuild a live :class:`FastPath`
    against a fresh router without regenerating or recompiling source."""

    __slots__ = ("chains", "source", "specs", "jump_specs", "next_index", "bind_counter")

    def __init__(self, fastpath):
        self.chains = dict(fastpath.chains)
        self.source = fastpath.source
        self.specs = dict(fastpath._bind_specs)
        self.jump_specs = [
            (element.name, mode) for (_table, element, mode) in fastpath._jump_tables
        ]
        self.next_index = fastpath._next_index
        self.bind_counter = fastpath._bind_counter

    def replay(self, fastpath):
        """Rebuild ``fastpath`` from this entry: adopt the records,
        resolve every bind recipe against its router and link the
        chains, compiled or not yet (:meth:`FastPath._link`); the fast path
        folds its report from the records as after any build."""
        router = fastpath.router
        tables = [([], router.elements[name], mode) for name, mode in self.jump_specs]
        fastpath._jump_tables = tables
        namespace = fastpath._namespace
        for name, spec in self.specs.items():
            namespace[name] = _resolve_spec(spec, fastpath, tables)
        fastpath.chains = dict(self.chains)
        fastpath.source = self.source
        fastpath._bind_specs = dict(self.specs)
        fastpath._next_index = self.next_index
        fastpath._bind_counter = self.bind_counter
        fastpath._link()


class CodegenCache:
    """An in-memory LRU of :class:`CacheEntry` keyed by configuration
    content."""

    def __init__(self, capacity=64):
        self.capacity = capacity
        self._entries = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.invalidations = 0
        # The default cache is process-wide and the sharded data plane's
        # thread backend compiles (and adaptive engines recompile) on
        # worker threads: every structural operation serializes here.
        self._lock = threading.RLock()

    def key_for(self, router, batch, policy):
        """The cache key for compiling ``router`` under ``policy``, or
        None when the build is not addressable (no graph attached, a
        policy that declines caching, or a fault-wrapped router).
        Element-class identities are part of the key: the same
        configuration text instantiated with different class overlays
        generates different specializations, and task units are
        compiled against the rings their elements' devices declare."""
        graph = getattr(router, "graph", None)
        if graph is None:
            return None
        if getattr(router, "_fault_uncacheable", False):
            return None
        policy_key = policy.cache_key()
        if policy_key is None:
            return None
        class_sig = tuple(
            (name, id(type(element)), id(type(getattr(element, "device", None))))
            for name, element in router.elements.items()
        )
        return (graph.fingerprint(), class_sig, bool(batch), policy_key)

    def lookup(self, key):
        if key is None:
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry
            self.misses += 1
            return None

    def twin(self, key, source):
        """An entry under ``key``'s batch flag and policy whose
        generated module text is ``source``, or None: what a compile
        that missed by key can still share (:meth:`FastPath._compile`)."""
        with self._lock:
            for other, entry in self._entries.items():
                if other[2:] == key[2:] and entry.source == source:
                    return entry
        return None

    def store(self, key, fastpath):
        if key is None or not fastpath.chains:
            return
        with self._lock:
            self._entries[key] = CacheEntry(fastpath)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def evict(self, key):
        """Drop one corrupt entry (after a failed replay): the bad
        artifact must not be offered again."""
        if key is None:
            return
        with self._lock:
            if self._entries.pop(key, None) is not None:
                self.corrupt += 1

    def invalidate(self):
        """Drop every entry but keep the hit/miss/corruption history
        (unlike :meth:`clear`) — the fault injector's cache fault."""
        with self._lock:
            self._entries.clear()
            self.invalidations += 1

    def corrupt_entries(self):
        """Deterministically mangle every cached entry's bind recipes
        (the fault injector's ``cache_corrupt`` fault): the next replay
        raises, exercising the evict-and-recompile fallback."""
        with self._lock:
            for entry in self._entries.values():
                entry.specs = dict.fromkeys(entry.specs, ("injected-corruption",))
            return len(self._entries)

    def clear(self):
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.corrupt = 0
            self.invalidations = 0

    def __len__(self):
        return len(self._entries)

    def stats(self):
        # Sorted keys: these land verbatim in serialized reports, and a
        # stable order keeps FDD cache-key diffs comparable across runs.
        return {
            "corrupt": self.corrupt,
            "entries": len(self._entries),
            "hits": self.hits,
            "invalidations": self.invalidations,
            "misses": self.misses,
        }


_DEFAULT = CodegenCache()


def default_cache():
    """The process-wide cache every :class:`~repro.runtime.adaptive.AdaptiveEngine`
    compiles through."""
    return _DEFAULT
