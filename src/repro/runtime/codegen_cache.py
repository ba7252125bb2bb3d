"""A content-addressed cache for compiled fast-path modules.

``FastPath._compile`` pays ``compile``/``exec`` per router build even
when the configuration is identical — the common case in benchmarks,
test suites, and hot-swap, where the same graph is instantiated over
and over.  This module caches the *generated artifact* (source + one
code object per chain + the replay recipes for every bound runtime
object) keyed by

    (graph fingerprint, element-class identity, batch flag, policy key)

so a repeat build skips generation and compilation entirely: the entry
re-binds each ``_bN`` slot against the fresh router from its recipe and
re-executes the already-compiled code objects in a fresh namespace.

Recipes (recorded by :meth:`FastPath._bind`) are small tuples:

``("elem", name)``
    the element itself
``("attr", name, (a, b, ...))``
    a ``getattr`` chain off the element (bound methods, deques, sets)
``("value", v)``
    an immutable literal carried in the recipe
``("const", key)``
    a module-level singleton (the route-miss sentinel, the dest-IP
    intern cache probe)
``("matcher", name)``
    the compiled classifier match function for the element's tree
    (generated fast-classifier classes, whose tree is class-baked)
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
uncacheable and is simply never stored.  Metered compiles bypass the
cache at the :class:`FastPath` level, and a router carrying
fault-injection wrappers (``router._fault_uncacheable``, see
:mod:`repro.sim.faults`) bypasses keying entirely — a clean specialized
entry must never replay onto a faulted router, nor a faulted compile be
stored for clean ones.

Corruption is survivable by design: a replay that raises for any reason
makes :class:`~repro.runtime.fastpath.FastPath` evict the entry and
fall back to a fresh compile (``corrupt`` counts them).  The same
contract covers the optional disk layer: :meth:`CodegenCache.save`
writes entries (source + recipes, *not* code objects) under
process-stable keys — element classes identified by qualified name
instead of ``id()`` — and :meth:`CodegenCache.load` validates each
record individually, skipping truncated or mangled ones instead of
raising.
"""

from __future__ import annotations

import pickle
import threading
from collections import OrderedDict

from ..net.packet import _DEST_IP_CACHE
from .fastpath import _HEADER, _MISS, _classifier_matcher, _intern_dest_ip, compile_chain

__all__ = ["CacheEntry", "CodegenCache", "default_cache"]

_DISK_MAGIC = "repro-codegen-cache-v2"
_ENTRY_FIELDS = (
    "source",
    "names",
    "specs",
    "chains",
    "jump_specs",
    "report_fields",
    "inlined_elements",
    "chain_lines",
    "chain_sources",
    "chain_binds",
    "chain_tables",
    "next_index",
    "bind_counter",
)


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
        if spec[1] == "MISS":
            return _MISS
        if spec[1] == "DEST_IP_GET":
            return _DEST_IP_CACHE.get
        raise KeyError("unknown const recipe %r" % (spec[1],))
    if kind == "matcher":
        return _classifier_matcher(router.elements[spec[1]])
    if kind == "cell":
        return router.elements[spec[1]].matcher_cell()
    if kind == "ip":
        return _intern_dest_ip(spec[1])
    if kind == "table":
        return tables[spec[1]][0]
    if kind == "policy":
        return fastpath.policy.resolve(spec[1], router)
    raise KeyError("unknown bind recipe %r" % (spec,))


_REPORT_FIELDS = (
    "push_chains",
    "pull_chains",
    "inlined_calls",
    "longest_chain",
    "branch_elements",
    "branch_ports",
    "specialized_terminals",
    "specialized_actions",
    "elided_elements",
    "source_lines",
    "guarded_branches",
    "pruned_arms",
    "fdd_diagrams",
    "fdd_nodes",
    "fdd_paths",
    "fdd_tests_saved",
    "opaque_dispatch",
)


class CacheEntry:
    """One cached compile: everything needed to rebuild a live
    :class:`FastPath` against a fresh router without regenerating or
    recompiling source."""

    __slots__ = (
        "source",
        "chain_code",
        "names",
        "specs",
        "chains",
        "jump_specs",
        "report_fields",
        "inlined_elements",
        "chain_lines",
        "chain_sources",
        "chain_binds",
        "chain_tables",
        "next_index",
        "bind_counter",
    )

    @classmethod
    def from_fastpath(cls, fastpath):
        entry = cls()
        entry.source = fastpath.source
        entry.names = dict(fastpath._names)
        entry.specs = dict(fastpath._bind_specs)
        entry.chains = dict(fastpath.chains)
        entry.jump_specs = [
            (element.name, mode) for (_table, element, mode) in fastpath._jump_tables
        ]
        report = fastpath.report
        entry.report_fields = {name: getattr(report, name) for name in _REPORT_FIELDS}
        entry.inlined_elements = set(report.inlined_elements)
        entry.chain_lines = dict(report.chain_lines)
        # The per-chain compile units: what replay execs, and what lets
        # a replayed fast path serve as a scoped rebuild's reuse donor
        # just like a fresh compile.  Entries of successive patches
        # share the code objects of the chains spliced between them.
        entry.chain_sources = dict(fastpath._chain_sources)
        entry.chain_code = dict(fastpath._chain_code)
        entry.chain_binds = dict(fastpath._chain_binds)
        entry.chain_tables = dict(fastpath._chain_tables)
        entry.next_index = fastpath._next_index
        entry.bind_counter = fastpath._bind_counter
        return entry

    def replay(self, fastpath):
        """Rebuild ``fastpath`` from this entry: resolve every bind
        recipe against its router, exec the cached chains' code objects
        (:meth:`FastPath._link`), and restore the compile report."""
        router = fastpath.router
        tables = [
            ([], router.elements[name], mode) for (name, mode) in self.jump_specs
        ]
        fastpath._jump_tables = tables
        namespace = fastpath._namespace
        for name, spec in self.specs.items():
            namespace[name] = _resolve_spec(spec, fastpath, tables)
        fastpath.source = self.source
        fastpath._names = dict(self.names)
        fastpath._bind_specs = dict(self.specs)
        fastpath.chains = dict(self.chains)
        fastpath._chain_sources = dict(self.chain_sources)
        fastpath._chain_code = dict(self.chain_code)
        fastpath._chain_binds = dict(self.chain_binds)
        fastpath._chain_tables = dict(self.chain_tables)
        fastpath._next_index = self.next_index
        fastpath._bind_counter = self.bind_counter
        fastpath._link()
        report = fastpath.report
        for name, value in self.report_fields.items():
            setattr(report, name, value)
        report.inlined_elements = set(self.inlined_elements)
        report.chain_lines = dict(self.chain_lines)


def _stable_class_sig(router):
    """The process-stable twin of the ``id(type)`` class signature:
    element classes identified by qualified name.  Safe as a disk key
    because the graph fingerprint already covers the archive sources
    that *define* generated classes — two routers agreeing on both can
    only disagree on class identity within one process (which the
    in-memory id-based key still distinguishes)."""
    return tuple(
        (name, "%s.%s" % (type(element).__module__, type(element).__qualname__))
        for name, element in router.elements.items()
    )


class CodegenCache:
    """An LRU of :class:`CacheEntry` keyed by configuration content,
    with an optional validated disk layer behind it."""

    def __init__(self, capacity=64):
        self.capacity = capacity
        self._entries = OrderedDict()
        self._disk = {}  # stable key -> CacheEntry (loaded, pre-validated)
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
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
        generates different specializations."""
        graph = getattr(router, "graph", None)
        if graph is None:
            return None
        if getattr(router, "_fault_uncacheable", False):
            return None
        policy_key = policy.cache_key()
        if policy_key is None:
            return None
        class_sig = tuple(
            (name, id(type(element))) for name, element in router.elements.items()
        )
        # The fast paths of one scoped rebuild (an engine's two flavors)
        # compile the same graph: the hint carries its fingerprint from
        # the first to the rest.
        hint = getattr(router, "_fastpath_reuse", None)
        fingerprint = hint.get("fingerprint") if hint else None
        if fingerprint is None:
            fingerprint = graph.fingerprint()
            if hint:
                hint["fingerprint"] = fingerprint
        return (
            fingerprint,
            class_sig,
            bool(batch),
            policy_key,
            _stable_class_sig(router),
        )

    @staticmethod
    def _disk_key(key):
        fingerprint, _class_sig, batch, policy_key, stable_sig = key
        return (fingerprint, stable_sig, batch, policy_key)

    def lookup(self, key):
        if key is None:
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry
            if self._disk:
                entry = self._disk.pop(self._disk_key(key), None)
                if entry is not None:
                    # Promote (moving, so an eviction counts it once): later
                    # lookups go through the ordinary in-memory path.
                    self._entries[key] = entry
                    self._entries.move_to_end(key)
                    self.hits += 1
                    self.disk_hits += 1
                    return entry
            self.misses += 1
            return None

    def twin(self, key, source):
        """An entry under ``key``'s batch flag and policy whose
        generated module text is ``source``, or None: what a compile
        that missed by key can still share (:meth:`FastPath._compile`)."""
        with self._lock:
            for other, entry in self._entries.items():
                if other[2:4] == key[2:4] and entry.source == source:
                    return entry
        return None

    def store(self, key, fastpath):
        if key is None or not fastpath._chain_code:
            return
        with self._lock:
            self._entries[key] = CacheEntry.from_fastpath(fastpath)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def evict(self, key):
        """Drop one corrupt entry (after a failed replay): the bad
        artifact must not be offered again, in memory or from disk."""
        if key is None:
            return
        with self._lock:
            if self._entries.pop(key, None) is not None:
                self.corrupt += 1
            if self._disk.pop(self._disk_key(key), None) is not None:
                self.corrupt += 1

    def invalidate(self):
        """Drop every entry but keep the hit/miss/corruption history
        (unlike :meth:`clear`) — the fault injector's cache fault."""
        with self._lock:
            self._entries.clear()
            self._disk.clear()
            self.invalidations += 1

    def corrupt_entries(self):
        """Deterministically mangle every cached entry's bind recipes
        (the fault injector's ``cache_corrupt`` fault): the next replay
        raises, exercising the evict-and-recompile fallback."""
        with self._lock:
            corrupted = 0
            for entry in list(self._entries.values()) + list(self._disk.values()):
                entry.specs = {
                    name: ("injected-corruption",) for name in entry.specs
                }
                corrupted += 1
            return corrupted

    def clear(self):
        with self._lock:
            self._entries.clear()
            self._disk.clear()
            self.hits = 0
            self.misses = 0
            self.disk_hits = 0
            self.corrupt = 0
            self.invalidations = 0

    def __len__(self):
        return len(self._entries)

    def stats(self):
        # Sorted keys: these land verbatim in serialized reports, and a
        # stable order keeps FDD cache-key diffs comparable across runs.
        return {
            "corrupt": self.corrupt,
            "disk_entries": len(self._disk),
            "disk_hits": self.disk_hits,
            "entries": len(self._entries),
            "hits": self.hits,
            "invalidations": self.invalidations,
            "misses": self.misses,
        }

    # -- disk layer --------------------------------------------------------

    def save(self, path, keys=None):
        """Persist every in-memory entry — with ``keys``, only the ones
        stored under those keys — under its process-stable key.  Code
        objects are not written — :meth:`load` recompiles from source,
        which is what lets it validate entries one by one (and why a
        reader pays for every record in the file)."""
        with self._lock:
            records = []
            for key, entry in self._entries.items():
                if keys is not None and key not in keys:
                    continue
                record = {"key": self._disk_key(key)}
                for field in _ENTRY_FIELDS:
                    record[field] = getattr(entry, field)
                records.append(record)
        with open(path, "wb") as handle:
            pickle.dump({"magic": _DISK_MAGIC, "records": records}, handle)
        return len(records)

    def load(self, path):
        """Load a cache file, validating each record independently: a
        truncated file, a wrong-format file, or any individually
        mangled record is counted in ``corrupt`` and skipped — never
        raised.  Returns the number of entries loaded."""
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except Exception:  # noqa: BLE001 - any unreadable file is "corrupt"
            self.corrupt += 1
            return 0
        if not isinstance(payload, dict) or payload.get("magic") != _DISK_MAGIC:
            self.corrupt += 1
            return 0
        loaded = 0
        with self._lock:
            for record in payload.get("records", ()):
                entry = self._validate_record(record)
                if entry is None:
                    self.corrupt += 1
                    continue
                self._disk[record["key"]] = entry
                loaded += 1
        return loaded

    @staticmethod
    def _validate_record(record):
        """A CacheEntry from one disk record, or None if the record is
        structurally bad, a chain of it no longer compiles, or its
        chains do not add up to its source."""
        if not isinstance(record, dict):
            return None
        if any(field not in record for field in _ENTRY_FIELDS) or "key" not in record:
            return None
        if not isinstance(record["source"], str) or not isinstance(record["key"], tuple):
            return None
        lines = list(_HEADER)
        chain_code = {}
        try:
            for chain_key, chain in record["chain_sources"].items():
                offset = len(lines) + 1
                chain_code[chain_key] = (
                    compile_chain(chain[1:], offset, "<codegen-cache>"),
                    offset,
                )
                lines.extend(chain)
            if "\n".join(lines) + "\n" != record["source"]:
                return None
        except Exception:  # noqa: BLE001 - a record of any shape may be on disk
            return None
        entry = CacheEntry()
        entry.chain_code = chain_code
        for field in _ENTRY_FIELDS:
            setattr(entry, field, record[field])
        return entry


_DEFAULT = CodegenCache()


def default_cache():
    """The process-wide cache :meth:`Router.compile_fastpath` uses."""
    return _DEFAULT
