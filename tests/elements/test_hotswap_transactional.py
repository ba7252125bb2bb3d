"""Tests for the transactional (two-phase-commit) hot-swap: execution
profile carry, rollback on every failure path, the stateful edge cases
(queue shrink under a compiled mode, ARP pending transfer under churn),
and the SwapResult/SwapReport surface."""

import pytest

from repro.elements import HotswapError, Router, SwapReport, SwapResult, hotswap_router
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
        old = Router(parse_graph(BASE), profile=ExecutionProfile.fast())
        old.push_packet("c", 0, Packet(b"a"))
        new = hotswap_router(old, parse_graph(EXTENDED)).router
        assert new.mode == "fast"
        assert new.fastpath is not None and new.fastpath.installed
        assert old.retired
        # The regression this guards: the swapped-in router must run the
        # carried mode over the transferred state, not fall back to the
        # interpreter.
        new.push_packet("c", 0, Packet(b"b"))
        assert new["c"].count == 2
        assert len(new["q"]) == 2

    def test_batch_flavor_carried(self):
        old = Router(parse_graph(BASE), profile=ExecutionProfile.fast(batch=True))
        new = hotswap_router(old, parse_graph(EXTENDED)).router
        assert new.mode == "fast"
        assert new.profile == ExecutionProfile.fast(batch=True)
        assert new.fastpath.batch is True

    def test_adaptive_mode_and_config_carried(self):
        config = AdaptiveConfig(threshold=48, sample=4, min_samples=12)
        old = Router(parse_graph(BASE), profile=ExecutionProfile.tiered(config=config))
        new = hotswap_router(old, parse_graph(EXTENDED)).router
        assert new.mode == "adaptive"
        assert new.adaptive is not None
        assert new.profile.adaptive is config

    def test_supervision_carried(self):
        old = Router(
            parse_graph(BASE), profile=ExecutionProfile.fast().with_supervision()
        )
        config = old.supervisor.config
        new = hotswap_router(old, parse_graph(EXTENDED)).router
        assert new.supervisor is not None
        assert new.supervisor.config is config
        assert old.supervisor is None  # retire() detached the old one

    def test_explicit_profile_override(self):
        old = Router(parse_graph(BASE), profile=ExecutionProfile.fast())
        new = hotswap_router(
            old, parse_graph(EXTENDED), profile=ExecutionProfile.reference()
        ).router
        assert new.mode == "reference"

    def test_retired_router_is_inert(self):
        old = Router(parse_graph(BASE), profile=ExecutionProfile.fast())
        hotswap_router(old, parse_graph(EXTENDED))
        assert old.run_tasks(4) == 0


class TestSwapResultSurface:
    def test_result_carries_router_and_report(self):
        old = Router(parse_graph(BASE), profile=ExecutionProfile.fast())
        old.push_packet("c", 0, Packet(b"a"))
        result = hotswap_router(old, parse_graph(EXTENDED))
        assert isinstance(result, SwapResult)
        assert isinstance(result.report, SwapReport)
        assert result.router.mode == "fast"
        report = result.report
        # Same graph modulo one inserted element: the report names the delta.
        assert report.kind == "scoped-swap"
        assert report.profile == "fast"
        assert "c" in report.transferred
        assert set(report.phases) == {
            "validate",
            "build",
            "transfer",
            "compile",
            "commit",
        }
        assert report.total_seconds == pytest.approx(sum(report.phases.values()))
        payload = report.as_dict()
        assert payload["kind"] == "scoped-swap"
        assert payload["chains_recompiled"] == report.chains_recompiled
        assert "scoped-swap" in report.format()

    def test_identical_swap_reuses_chains(self):
        old = Router(parse_graph(BASE), profile=ExecutionProfile.fast())
        result = hotswap_router(old, parse_graph(BASE))
        report = result.report
        assert report.chains_reused > 0


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
        assert not old.retired
        assert len(old["q"]) == 1  # queue untouched
        self._serving(old)

    def test_validate_false_skips_check(self):
        old = Router(parse_graph(BASE))
        bad = parse_graph("f :: Idle; c :: Counter; f -> c;")
        # Without validation the failure surfaces later (build), still
        # as HotswapError with the old router serving.
        try:
            hotswap_router(old, bad, validate=False)
        except HotswapError:
            pass
        assert not old.retired
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
        assert not old.retired
        assert old.mode == "fast"
        assert [p.data for p in list(old["q"]._deque)] == [b"a", b"b"]
        self._serving(old)

    def test_unusable_profile_rolls_back(self):
        old = Router(parse_graph(BASE))
        old.push_packet("c", 0, Packet(b"x"))
        sharded = ExecutionProfile.fast().with_workers(2)  # not a single router's
        with pytest.raises(HotswapError, match="profile=fast"):
            hotswap_router(old, parse_graph(EXTENDED), profile=sharded)
        assert not old.retired
        self._serving(old)

    def test_a_live_chain_that_fails_to_compile_rolls_back(self, monkeypatch):
        """The new router compiles inside the swap every chain that was
        forwarding in the old one, so a ``compile()`` that raises there
        aborts the swap, and the old router keeps serving.  (The codegen
        cache starts empty: a text another test compiled needs no
        ``compile()``.)"""
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
        assert not old.retired
        self._serving(old)


class TestStatefulEdgeCases:
    def test_queue_shrink_drop_accounting_under_fast_mode(self):
        old = Router(parse_graph(BASE), profile=ExecutionProfile.fast())
        for index in range(6):
            old.push_packet("c", 0, Packet(bytes([index])))
        small = BASE.replace("Queue(8)", "Queue(4)")
        new = hotswap_router(old, parse_graph(small)).router
        assert new.mode == "fast"
        assert len(new["q"]) == 4
        assert new["q"].drops == 2
        # The survivors drain in order through the compiled pull chain.
        new.run_tasks(8)
        assert new["d"].count == 4

    def test_arp_pending_transferred_and_flushed_under_churn(self):
        old = Router(parse_graph(ARP), profile=ExecutionProfile.fast())
        held = Packet(b"ip-payload")
        held.set_dest_ip_anno("1.0.0.99")
        old.push_packet("arpq", 0, held)  # unresolved: held + query emitted
        assert old["arpq"].pending
        assert len(old["q"]) == 1  # the broadcast query
        # Churn on the old table right before the swap.
        old["arpq"].insert("1.0.0.50", "02:00:00:00:00:50")

        new = hotswap_router(old, parse_graph(ARP)).router
        assert "arpq" in new.hotswap_transferred
        assert new["arpq"].table == old["arpq"].table
        held_lists = list(new["arpq"].pending.values())
        assert held_lists and held_lists[0][0].data == b"ip-payload"
        # The copies are independent: churn on the retired router's
        # state must not leak into the live one.
        old["arpq"].pending.clear()
        assert new["arpq"].pending

        # The ARP reply arriving on the *new* router flushes the held
        # packet through the new compiled chain.
        reply = build_arp_reply(
            "02:aa:bb:cc:dd:ee", "1.0.0.99", "00:00:c0:ae:67:ef", "1.0.0.1"
        )
        new.push_packet("arpq", 1, Packet(reply))
        assert not new["arpq"].pending
        assert len(new["q"]) == 2  # query + the flushed, encapsulated packet
        new.run_tasks(8)
        assert new["d"].count == 2

    def test_chained_swaps(self):
        """Swap twice (the optimize-then-extend workflow): state and
        mode survive both hops."""
        first = Router(parse_graph(BASE), profile=ExecutionProfile.fast())
        for tag in (b"a", b"b", b"c"):
            first.push_packet("c", 0, Packet(tag))
        second = hotswap_router(first, parse_graph(EXTENDED)).router
        third = hotswap_router(second, parse_graph(BASE)).router
        assert second.retired and not third.retired
        assert third.mode == "fast"
        assert third["c"].count == 3
        assert [p.data for p in list(third["q"]._deque)] == [b"a", b"b", b"c"]
