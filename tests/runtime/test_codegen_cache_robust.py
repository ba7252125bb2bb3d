"""Tests for codegen-cache robustness: corrupt-entry replay fallback
and fault-injection interactions (repro.runtime.codegen_cache)."""

from repro.elements import Router
from repro.elements.devices import LoopbackDevice
from repro.lang.build import parse_graph
from repro.net.packet import Packet
from repro.runtime.codegen_cache import CodegenCache
from repro.runtime.fastpath import FastPath

PIPE = (
    "src :: PollDevice(eth0); c :: Counter; q :: Queue(8); "
    "dst :: ToDevice(eth1); src -> c -> q -> dst;"
)


def fresh_router():
    devices = {
        "eth0": LoopbackDevice("eth0"),
        "eth1": LoopbackDevice("eth1", tx_capacity=1 << 20),
    }
    return Router(parse_graph(PIPE), devices=devices), devices


class TestCorruptReplay:
    def test_corrupt_entry_falls_back_to_fresh_compile(self):
        cache = CodegenCache()
        router, _devices = fresh_router()
        FastPath(router, cache=cache)
        assert cache.stats()["misses"] == 1 and len(cache) == 1

        assert cache.corrupt_entries() == 1
        victim, devices = fresh_router()
        fastpath = FastPath(victim, cache=cache)
        # The poisoned replay was evicted and a clean compile stored.
        stats = cache.stats()
        assert stats["corrupt"] >= 1
        assert len(cache) == 1
        # The fallback compile actually works end to end.
        fastpath.install()
        devices["eth0"].receive_frame(b"payload")
        victim.run_tasks(2)
        assert devices["eth1"].transmitted == [b"payload"]

    def test_recompiled_entry_is_reusable(self):
        cache = CodegenCache()
        router, _devices = fresh_router()
        FastPath(router, cache=cache)
        cache.corrupt_entries()
        second, _devices = fresh_router()
        FastPath(second, cache=cache)  # evict + recompile + store
        third, _devices = fresh_router()
        FastPath(third, cache=cache)
        assert cache.stats()["hits"] >= 1

    def test_fault_wrapped_router_bypasses_cache(self):
        cache = CodegenCache()
        clean, _devices = fresh_router()
        FastPath(clean, cache=cache)
        faulted, _devices = fresh_router()
        faulted._fault_uncacheable = True
        FastPath(faulted, cache=cache)
        # Neither a hit against the clean entry nor a second store.
        assert cache.stats()["hits"] == 0
        assert len(cache) == 1

    def test_invalidate_clears_but_keeps_history(self):
        cache = CodegenCache()
        router, _devices = fresh_router()
        FastPath(router, cache=cache)
        cache.invalidate()
        stats = cache.stats()
        assert stats["entries"] == 0
        assert stats["misses"] == 1  # history survives, unlike clear()
        assert stats["invalidations"] == 1
