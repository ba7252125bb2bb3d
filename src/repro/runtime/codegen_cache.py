"""The chain store: one process-wide map from a chain's template text to
its template code.

A chain's text (:attr:`~repro.runtime.fastpath.ChainInfo.template`) is
a function of the chain alone: its bound objects are its function's
defaults, set when it is linked, and its locals are numbered from 0 in
each chain, so no counter that runs across chains or builds reaches
it.  The code ``compile()`` makes of that text is a function of the
text alone, so every fast path that emits the text — the same
configuration built again, a hot-swap of it, another flavor whose
chain holds no specialization, a tier 2 rebuilt after a route patch —
runs that one code object, filled in with its own literals and linked
over its own router's objects.  This is how click-fastclassifier gives
classifiers with identical trees one generated class: the code is
shared by what it is, each instance's data bound apart from it.

A build emits nothing: a chain is emitted on its first entry, which
looks its text up and stores it after a miss; an update in place
(:meth:`FastPath.stage_rewrite`) only looks it up.  The store is an in-memory LRU of
:data:`CAPACITY` chains: a process that did not compile a text
compiles it.  ``hits`` and ``misses`` count lookups, one a chain.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

__all__ = ["CodegenCache", "default_cache"]

#: Chains the store holds.  CI's first ``click-fuzz`` step (40 seeded
#: configurations, every execution mode) compiles 384 distinct chain
#: texts, which hold 2.3 MB of code objects beside 2.3 MB of text, so
#: the step never evicts.  A ``bench/run.py`` workload holds at most 17
#: between the clears of its cold set-ups.  A full store is about 6 MB,
#: a fraction of a run's peak (``peak_rss_mb``: 33-45 MB on the
#: single-plane workloads).
CAPACITY = 512


class CodegenCache:
    """An in-memory LRU from a chain's template text to its template
    code."""

    def __init__(self):
        self._entries = OrderedDict()
        self.hits = 0
        self.misses = 0
        # Process-wide, and the sharded plane's thread backend compiles
        # on worker threads: every operation serializes here.
        self._lock = threading.Lock()

    def get(self, text):
        """The template code stored for ``text``, or None (a miss)."""
        with self._lock:
            code = self._entries.get(text)
            if code is None:
                self.misses += 1
            else:
                self._entries.move_to_end(text)
                self.hits += 1
            return code

    def put(self, text, code):
        """Store ``code`` for ``text``, evicting the least recently used
        chain past :data:`CAPACITY`."""
        with self._lock:
            self._entries[text] = code
            if len(self._entries) > CAPACITY:
                self._entries.popitem(last=False)

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
    """The process-wide store every :class:`~repro.runtime.fastpath.FastPath`
    compiles its chains through."""
    return _DEFAULT
