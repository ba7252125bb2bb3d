"""A store of compiled fast-path modules, keyed by the text compiled.

``FastPath._compile`` emits every chain per build and ``compile`` runs
per chain entered.  Builds that emit the same module text — the same
configuration again (a whole-text hot-swap), or an engine's tier 2
rebuilt after a route patch, which changes tables, not text — need one
set of code objects.  The store maps a compile's text to its chain
records (:class:`~repro.runtime.fastpath.ChainInfo`, shared by
reference, so a chain any sharer has entered carries its code object
for all); a later compile that emits the same text adopts every record
that describes the same unit.  A code object is a function of the text
alone and each fast path binds its own router's objects into its own
namespace, so nothing else needs to match.  The store is an in-memory
LRU: a process that did not compile a text compiles it.  An update in
place (:meth:`FastPath.rewrite`) stores nothing.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

__all__ = ["CodegenCache", "default_cache"]


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
