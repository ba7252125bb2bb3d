"""Tests for the transactional (two-phase-commit) hot-swap in the live
router: the execution profile kept, rollback on every failure path, the
stateful edge cases (queue shrink under a compiled mode, ARP pending
transfer under churn), and the SwapReport surface."""

import pytest

from repro.elements import HotswapError, Router, SwapReport, hotswap_router
from repro.elements.infrastructure import Counter
from repro.lang.build import parse_graph
from repro.net.headers import build_arp_reply
from repro.net.packet import Packet
from repro.runtime import ExecutionProfile
from repro.runtime.adaptive import AdaptiveConfig

BASE = (
    "f :: Idle; c :: Counter; q :: Queue(8); u :: Unqueue; d :: Discard;"
    "f -> c -> q -> u -> d;"
)
EXTENDED = (
    "f :: Idle; c :: Counter; extra :: Paint(1); q :: Queue(8); u :: Unqueue;"
    "d :: Discard; f -> c -> extra -> q -> u -> d;"
)
ARP = (
    "ip :: Idle; resp :: Idle; arpq :: ARPQuerier(1.0.0.1, 00:00:c0:ae:67:ef);"
    "q :: Queue(8); u :: Unqueue; d :: Discard;"
    "ip -> arpq; resp -> [1] arpq; arpq -> q -> u -> d;"
)


class TestProfileCarry:
    def test_fast_mode_carried_and_recompiled(self):
        router = Router(parse_graph(BASE), profile=ExecutionProfile.fast())
        router.push_packet("c", 0, Packet(b"a"))
        old_counter = router["c"]
        hotswap_router(router, parse_graph(EXTENDED))
        assert router.mode == "fast"
        assert router.fastpath is not None and router.fastpath.installed
        assert router["c"] is not old_counter
        # The regression this guards: the swapped router must run the
        # kept mode over the transferred state, not fall back to the
        # interpreter.
        router.push_packet("c", 0, Packet(b"b"))
        assert router["c"].count == 2
        assert len(router["q"]) == 2

    def test_batch_flavor_carried(self):
        router = Router(parse_graph(BASE), profile=ExecutionProfile.fast(batch=True))
        hotswap_router(router, parse_graph(EXTENDED))
        assert router.mode == "fast"
        assert router.profile == ExecutionProfile.fast(batch=True)
        assert router.fastpath.batch is True

    def test_adaptive_mode_and_config_carried(self):
        config = AdaptiveConfig(threshold=48, sample=4, min_samples=12)
        router = Router(parse_graph(BASE), profile=ExecutionProfile.tiered(config=config))
        hotswap_router(router, parse_graph(EXTENDED))
        assert router.mode == "adaptive"
        assert router.adaptive is not None
        assert router.profile.adaptive is config

    def test_supervision_carried(self):
        router = Router(
            parse_graph(BASE), profile=ExecutionProfile.fast().with_supervision()
        )
        supervisor = router.supervisor
        hotswap_router(router, parse_graph(EXTENDED))
        assert router.supervisor is supervisor
        assert supervisor.guards["u"].task is router["u"]

    def test_explicit_profile_override(self):
        """Another profile after a swap is ``configure``'s to apply."""
        router = Router(parse_graph(BASE), profile=ExecutionProfile.fast())
        hotswap_router(router, parse_graph(EXTENDED))
        router.configure(ExecutionProfile.reference())
        assert router.mode == "reference" and router.engine is None
        router.push_packet("c", 0, Packet(b"a"))
        assert router["c"].count == 1 and len(router["q"]) == 1

    def test_a_swapped_router_keeps_its_identity(self):
        """The swap installs in the live router: its engine and
        supervisor are the same objects after it, and it keeps
        scheduling."""
        router = Router(parse_graph(BASE), profile=ExecutionProfile.fast().with_supervision())
        engine, supervisor = router.engine, router.supervisor
        router.push_packet("c", 0, Packet(b"a"))
        hotswap_router(router, parse_graph(EXTENDED))
        assert router.engine is engine and router.supervisor is supervisor
        assert router.run_tasks(4) > 0
        assert router["d"].count == 1


class TestSwapReportSurface:
    def test_the_report_describes_the_swap(self):
        router = Router(parse_graph(BASE), profile=ExecutionProfile.fast())
        router.push_packet("c", 0, Packet(b"a"))
        report = hotswap_router(router, parse_graph(EXTENDED))
        assert isinstance(report, SwapReport)
        assert router.mode == "fast"
        # Same graph modulo one inserted element: the report names the delta.
        assert report.kind == "scoped-swap"
        assert report.profile == "fast"
        assert "c" in report.transferred
        assert list(report.phases) == ["diff", "validate", "build", "transfer", "compile", "commit"]
        assert report.total_seconds == pytest.approx(sum(report.phases.values()))
        payload = report.as_dict()
        assert payload["kind"] == "scoped-swap"
        assert payload["chains_emitted"] == report.chains_emitted
        assert "scoped-swap" in report.format()

    def test_an_identity_swap_of_an_unentered_router_compiles_nothing(self, monkeypatch):
        """Every chain of a router nothing has entered waits without a
        record: an identity swap emits and compiles none of them, and
        leaves each to its first packet."""
        from repro.runtime import fastpath

        router = Router(parse_graph(BASE), profile=ExecutionProfile.fast())
        chains = len(router.fastpath._compiled)
        assert chains and not router.fastpath.chains

        def failing(*args, **kwargs):
            raise AssertionError("compiled")

        monkeypatch.setattr(fastpath, "compile_chain", failing)
        report = hotswap_router(router, parse_graph(BASE))
        assert (report.kind, report.delta) == ("scoped-swap", "no changes")
        assert report.chains_emitted == report.chains_reused == 0
        assert report.chains_deferred == chains
        assert router.fastpath.report.emitted_units == 0
        router.push_packet("c", 0, Packet(b"a"))
        assert router["c"].count == 1


class TestRollback:
    def _serving(self, router):
        """The old router still forwards after a failed swap."""
        before = router["c"].count
        router.push_packet("c", 0, Packet(b"probe"))
        assert router["c"].count == before + 1

    def test_failed_check_leaves_old_serving(self):
        old = Router(parse_graph(BASE), profile=ExecutionProfile.fast())
        old.push_packet("c", 0, Packet(b"x"))
        bad = parse_graph("f :: Idle; c :: Counter; f -> c;")  # unconnected output
        with pytest.raises(HotswapError, match="failed check"):
            hotswap_router(old, bad)
        assert "q" in old.elements and len(old["q"]) == 1  # queue untouched
        self._serving(old)

    def test_validate_false_skips_check(self):
        old = Router(parse_graph(BASE))
        bad = parse_graph("f :: Idle; c :: Counter; f -> c;")
        # Without validation the failure surfaces later (build), still
        # as HotswapError with the old router serving.
        with pytest.raises(HotswapError, match="has 0 output"):
            hotswap_router(old, bad, validate=False)
        assert "q" in old.elements
        self._serving(old)

    def test_failed_state_transfer_rolls_back(self, monkeypatch):
        old = Router(parse_graph(BASE), profile=ExecutionProfile.fast())
        for tag in (b"a", b"b"):
            old.push_packet("c", 0, Packet(tag))
        # A carried field the live Counter never had: the generic
        # transfer fails reading it, after the new router is built.
        poisoned = dict(Counter.STATE, missing=("carry", "sum"))
        monkeypatch.setattr(Counter, "STATE", poisoned)
        with pytest.raises(HotswapError, match="state transfer for 'c'.*missing"):
            hotswap_router(old, parse_graph(EXTENDED))
        monkeypatch.undo()
        assert old.mode == "fast" and "extra" not in old.elements
        assert [p.data for p in list(old["q"]._deque)] == [b"a", b"b"]
        self._serving(old)

    def test_a_live_chain_that_fails_to_compile_rolls_back(self, monkeypatch):
        """The swap compiles inside itself every chain that was
        forwarding, so a ``compile()`` that raises there aborts the swap,
        and the router keeps serving as it was.  (The chain store starts
        empty: a text another test compiled needs no ``compile()``.)"""
        from repro.runtime import fastpath
        from repro.runtime.codegen_cache import default_cache

        default_cache().clear()
        old = Router(parse_graph(BASE), profile=ExecutionProfile.fast())
        self._serving(old)  # the entry chain is live now

        def failing(*args, **kwargs):
            raise SyntaxError("injected compile failure")

        monkeypatch.setattr(fastpath, "compile_chain", failing)
        with pytest.raises(HotswapError, match="injected compile failure"):
            hotswap_router(old, parse_graph(EXTENDED))
        monkeypatch.undo()
        assert "extra" not in old.elements
        self._serving(old)


class TestStatefulEdgeCases:
    def test_queue_shrink_drop_accounting_under_fast_mode(self):
        new = Router(parse_graph(BASE), profile=ExecutionProfile.fast())
        for index in range(6):
            new.push_packet("c", 0, Packet(bytes([index])))
        small = BASE.replace("Queue(8)", "Queue(4)")
        hotswap_router(new, parse_graph(small))
        assert new.mode == "fast"
        assert len(new["q"]) == 4
        assert new["q"].drops == 2
        # The survivors drain in order through the compiled pull chain.
        new.run_tasks(8)
        assert new["d"].count == 4

    def test_arp_pending_transferred_and_flushed_under_churn(self):
        router = Router(parse_graph(ARP), profile=ExecutionProfile.fast())
        held = Packet(b"ip-payload")
        held.set_dest_ip_anno("1.0.0.99")
        router.push_packet("arpq", 0, held)  # unresolved: held + query emitted
        assert router["arpq"].pending
        assert len(router["q"]) == 1  # the broadcast query
        # Churn on the old table right before the swap.
        router["arpq"].insert("1.0.0.50", "02:00:00:00:00:50")
        replaced = router["arpq"]

        report = hotswap_router(router, parse_graph(ARP))
        assert "arpq" in report.transferred
        assert router["arpq"] is not replaced
        assert router["arpq"].table == replaced.table
        held_lists = list(router["arpq"].pending.values())
        assert held_lists and held_lists[0][0].data == b"ip-payload"
        # The copies are independent: churn on the replaced element's
        # state must not leak into the live one.
        replaced.pending.clear()
        assert router["arpq"].pending

        # The ARP reply arriving after the swap flushes the held packet
        # through the rewritten compiled chain.
        reply = build_arp_reply(
            "02:aa:bb:cc:dd:ee", "1.0.0.99", "00:00:c0:ae:67:ef", "1.0.0.1"
        )
        router.push_packet("arpq", 1, Packet(reply))
        assert not router["arpq"].pending
        assert len(router["q"]) == 2  # query + the flushed, encapsulated packet
        router.run_tasks(8)
        assert router["d"].count == 2

    def test_chained_swaps(self):
        """Swap twice (the optimize-then-extend workflow): state and
        mode survive both hops."""
        third = Router(parse_graph(BASE), profile=ExecutionProfile.fast())
        for tag in (b"a", b"b", b"c"):
            third.push_packet("c", 0, Packet(tag))
        hotswap_router(third, parse_graph(EXTENDED))
        hotswap_router(third, parse_graph(BASE))
        assert "extra" not in third.elements
        assert third.mode == "fast"
        assert third["c"].count == 3
        assert [p.data for p in list(third["q"]._deque)] == [b"a", b"b", b"c"]
