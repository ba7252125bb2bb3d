"""A store of compiled fast-path modules, keyed by the text compiled.

``FastPath._compile`` emits every chain per build and ``compile`` runs
per chain entered.  Builds that emit the same module text — the same
configuration again, or an engine's tier 2 rebuilt after a route patch,
which changes tables, not text — need one set of code objects.  The
store maps a donor-less compile's text to its chain records
(:class:`~repro.runtime.fastpath.ChainInfo`, shared by reference, so a
chain any sharer has entered carries its code object for all); a
later compile that emits the same text adopts every record that
describes the same unit.  A code object is a function of the text
alone and each fast path binds its own router's objects into its own
namespace, so nothing else needs to match.  The store is an in-memory
LRU: a process that did not compile a text compiles it.

A hot-swap's scoped rebuild shares its donor's records instead and is
not stored (:meth:`FastPath._reuse_plan`), nor is a rules patch
(:meth:`FastPath.rewrite`).  The donor is the old router's, so each
spliced ``_bN`` slot is bound again from the recipe
:meth:`FastPath._bind` recorded:

- ``("elem", name)``: the element itself;
- ``("attr", name, (a, b, ...))``: a ``getattr`` chain off the element
  (bound methods, deques, sets);
- ``("value", v)``: an immutable literal (or a module's sentinel);
- ``("const", key)``: a module-level singleton (the dest-IP intern
  cache probe);
- ``("cell", name)``: the element's one-slot matcher cell;
- ``("ip", raw)``: the interned :class:`IPAddress` for a raw
  destination value;
- ``("table", index)``: the ``index``-th terminal jump table, refilled
  after exec;
- ``("policy", token)``: ``policy.resolve(token, router)``, counters
  and guard callbacks of the *new* policy instance.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from ..net.packet import _DEST_IP_CACHE, _intern_dest_ip

__all__ = ["CodegenCache", "default_cache"]


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


class CodegenCache:
    """An in-memory LRU from module text to the chain records compiled
    from it."""

    def __init__(self, capacity=64):
        self.capacity = capacity
        self._entries = OrderedDict()  # module text -> (that text, {chain key: ChainInfo})
        self.hits = 0
        self.misses = 0
        # Process-wide, and the sharded plane's thread backend compiles
        # on worker threads: every operation serializes here.
        self._lock = threading.RLock()

    def intern(self, source, chains):
        """``(text, records)`` stored for ``source``, or None after
        storing ``chains`` under it."""
        with self._lock:
            entry = self._entries.get(source)
            if entry is not None:
                self._entries.move_to_end(source)
                self.hits += 1
                return entry
            self.misses += 1
            self._entries[source] = (source, dict(chains))
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
            return None

    def clear(self):
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self):
        return len(self._entries)

    def stats(self):
        return {"entries": len(self._entries), "hits": self.hits, "misses": self.misses}


_DEFAULT = CodegenCache()


def default_cache():
    """The process-wide cache every :class:`~repro.runtime.adaptive.AdaptiveEngine`
    compiles through."""
    return _DEFAULT
