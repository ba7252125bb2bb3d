"""Unit and equivalence tests for the sharded data plane
(repro.runtime.shard): SPSC handoff, profile plumbing, dispatch,
transactional control fan-out, crash replay, and meter reconciliation."""

import json
import multiprocessing
import os
import subprocess
import sys
import threading
from dataclasses import replace
from types import SimpleNamespace

import pytest

import repro
from repro.control import ControlPlaneError
from repro.core.toolchain import load_config, save_config
from repro.elements.devices import LoopbackDevice
from repro.elements.runtime import Router, build_router
from repro.errors import ClickSemanticError
from repro.events import apply
from repro.lang.build import parse_graph
from repro.runtime import ExecutionProfile, ShardedRouter, SPSCQueue
from repro.runtime.codegen_cache import default_cache
from repro.runtime.shard import ShardReport
from repro.sim.cpu import CycleMeter
from repro.sim.testbed import HOST_ETHERS, Testbed, host_ip
from repro.verify.oracle import sharded_transmit_difference


def sharded_testbed(
    workers,
    backend="thread",
    meter=None,
    journal=None,
    variant="base",
    recovery=None,
    divide_capacity=False,
):
    """A live iprouter plane: ShardedRouter above 1 worker, seeded ARP,
    self-healing under the ``recovery`` config when one is given."""
    testbed = Testbed(2)
    graph = testbed.variant_graph(variant)
    devices = {
        interface.device: LoopbackDevice(interface.device, tx_capacity=1 << 30)
        for interface in testbed.interfaces
    }
    profile = ExecutionProfile.fast(batch=True)
    if workers > 1:
        profile = profile.with_workers(workers, backend, divide_capacity=divide_capacity)
    if recovery is not None:
        profile = profile.with_recovery(config=recovery)
    router = build_router(graph, meter=meter, devices=devices, profile=profile)
    if journal is not None and workers > 1:
        router._journal_flag = journal
    for index in range(2):
        router.find("arpq%d" % index).insert(host_ip(index), HOST_ETHERS[index])
    return testbed, router, devices


def drive(testbed, router, devices, packets, offset=0):
    frames = testbed.evaluation_frames(packets + offset)[offset:]
    for name, frame in frames:
        devices[name].receive_frame(frame)
    router.run_tasks(packets // 8 + 16)


def transmitted_hex(devices):
    return {
        name: [bytes(f).hex() for f in device.transmitted]
        for name, device in sorted(devices.items())
    }


class TestSPSCQueue:
    def test_fifo_order(self):
        queue = SPSCQueue(capacity=8)
        for i in range(5):
            queue.put(i)
        assert [queue.get() for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_high_water_tracks_peak(self):
        queue = SPSCQueue(capacity=8)
        for i in range(6):
            queue.put(i)
        for _ in range(6):
            queue.get()
        assert queue.high_water == 6
        assert len(queue) == 0

    def test_bounded_put_blocks_until_get(self):
        queue = SPSCQueue(capacity=2)
        queue.put("a")
        queue.put("b")
        done = threading.Event()

        def producer():
            queue.put("c")  # must block until the consumer drains one
            done.set()

        thread = threading.Thread(target=producer)
        thread.start()
        assert not done.wait(0.05)
        assert queue.get() == "a"
        assert done.wait(2.0)
        thread.join()


class TestProfilePlumbing:
    def test_plain_router_refuses_workers(self):
        graph = parse_graph(
            "f :: Idle; c :: Counter; q :: Queue(8); u :: Unqueue; d :: Discard;"
            " f -> c -> q -> u -> d;"
        )
        with pytest.raises(ValueError, match="ShardedRouter"):
            Router(graph).configure(ExecutionProfile.fast().with_workers(2))

    def test_build_router_dispatches_on_workers(self):
        testbed, router, devices = sharded_testbed(2)
        try:
            assert router.is_sharded and isinstance(router, ShardedRouter)
            assert router.workers == 2 and router.backend == "thread"
        finally:
            router.close()

    def test_profile_round_trip(self):
        testbed, router, devices = sharded_testbed(2)
        try:
            drive(testbed, router, devices, 16)
            profile = router.profile
            assert profile.workers == 2
            assert profile.mode == "fast" and profile.batch
        finally:
            router.close()

    def test_resharding_live_plane_raises(self):
        testbed, router, devices = sharded_testbed(2)
        try:
            drive(testbed, router, devices, 16)
            with pytest.raises(ValueError, match="reshard"):
                router.configure(ExecutionProfile.fast().with_workers(4))
        finally:
            router.close()

    def test_unflattened_graph_rejected(self):
        graph = parse_graph(
            "elementclass Box { input -> Counter -> output; }"
            " f :: Idle; b :: Box; d :: Discard; f -> b -> d;"
        )
        with pytest.raises(ClickSemanticError, match="flatten"):
            ShardedRouter(graph)


class TestDispatchAndEquivalence:
    def test_dispatch_counts_cover_all_frames(self):
        testbed, router, devices = sharded_testbed(3)
        try:
            drive(testbed, router, devices, 120)
            report = router.report()
            assert sum(report.dispatched) == 120
            assert len(report.dispatched) == 3
            # The evaluation workload has enough flows for every shard.
            assert all(count > 0 for count in report.dispatched)
        finally:
            router.close()

    def test_thread_plane_matches_single_shard(self):
        testbed, single, single_devices = sharded_testbed(1)
        drive(testbed, single, single_devices, 200)
        for workers in (2, 4):
            testbed2, router, devices = sharded_testbed(workers)
            try:
                drive(testbed2, router, devices, 200)
                diff = sharded_transmit_difference(
                    transmitted_hex(single_devices), transmitted_hex(devices)
                )
                assert diff is None, "%d workers: %s" % (workers, diff)
            finally:
                router.close()

    def test_fanout_insert_reaches_every_shard(self):
        # Without the fan-out, shards missing the ARP entry would send
        # ARP queries instead of forwarding — caught by equivalence
        # above, pinpointed here: all data packets must be forwarded.
        testbed, router, devices = sharded_testbed(4)
        try:
            drive(testbed, router, devices, 160)
            total = sum(len(d.transmitted) for d in devices.values())
            assert total == 160
        finally:
            router.close()

    def test_find_unknown_element_is_none(self):
        testbed, router, devices = sharded_testbed(2)
        try:
            assert router.find("nope") is None
            assert router.find("arpq0") is not None
        finally:
            router.close()


class TestControlFanout:
    """Coordinator behaviour, so it rides on both transports: this
    class hosts the workers on threads, the subclass below in forked
    processes."""

    backend = "thread"

    def test_update_inplace_commits_on_all_shards(self):
        testbed, router, devices = sharded_testbed(2, self.backend)
        try:
            drive(testbed, router, devices, 64)
            text = save_config(router.graph)
            old = router.graph.elements["rt"].config
            new = text.replace(
                old, "1.0.0.1/32 0, 2.0.0.1/32 0, 2.0.0.0/8 2, 1.0.0.0/8 1"
            )
            report = router.apply_update(new)
            assert report.kind == "in-place"
            # A shard's real report, not a fabricated one: it says what
            # was patched and where the time went.
            assert report.elements_patched == 1 and report.delta == "1 changed"
            assert list(report.phases) == ["diff", "stage", "patch"]
            assert report.total_seconds > 0
            drive(testbed, router, devices, 64, offset=64)
            total = sum(len(d.transmitted) for d in devices.values())
            assert total == 128
            assert router.report().updates == 1
        finally:
            router.close()

    def test_inplace_update_advances_the_plane_graph(self):
        testbed, router, devices = sharded_testbed(2, self.backend)
        try:
            drive(testbed, router, devices, 16)
            old = router.graph.elements["rt"].config
            new = old + ", 3.0.0.0/8 2"
            report = router.apply_update(save_config(router.graph).replace(old, new))
            assert report.kind == "in-place"
            assert router.graph.elements["rt"].config == new
        finally:
            router.close()

    def test_rejected_update_leaves_all_shards_intact(self):
        testbed, router, devices = sharded_testbed(2, self.backend)
        try:
            drive(testbed, router, devices, 64)
            text = save_config(router.graph)
            old = router.graph.elements["rt"].config
            bad = text.replace(old, "999.999.0.1/24 0")
            with pytest.raises(ControlPlaneError):
                router.apply_update(bad)
            # Every shard still runs the old table.
            drive(testbed, router, devices, 64, offset=64)
            total = sum(len(d.transmitted) for d in devices.values())
            assert total == 128
        finally:
            router.close()

    def test_hotswap_all_preserves_service(self):
        testbed, router, devices = sharded_testbed(2, self.backend)
        try:
            drive(testbed, router, devices, 64)
            router.hotswap_all(save_config(router.graph))
            drive(testbed, router, devices, 64, offset=64)
            total = sum(len(d.transmitted) for d in devices.values())
            assert total == 128
        finally:
            router.close()

    def test_rejected_hotswap_is_transactional(self):
        """A swap the shards reject raises at the call (not as a parked
        error at the next run), and neither the plane's graph nor the
        journal ever names the rejected configuration: traffic keeps
        forwarding and a respawned shard replays to the old one."""
        from repro.elements.hotswap import HotswapError

        testbed, router, devices = sharded_testbed(2, self.backend, journal=True)
        try:
            drive(testbed, router, devices, 64)
            graph = router.graph
            bad = save_config(graph).replace(graph.elements["rt"].config, "999.999.0.1/24 0")
            with pytest.raises(HotswapError):
                router.hotswap_all(bad)
            assert router.graph is graph
            drive(testbed, router, devices, 64, offset=64)
            assert sum(len(d.transmitted) for d in devices.values()) == 128
            before = transmitted_hex(devices)
            router.crash_worker(0)
            assert transmitted_hex(devices) == before
            drive(testbed, router, devices, 64, offset=128)
            assert sum(len(d.transmitted) for d in devices.values()) == 192
        finally:
            router.close()

    def test_structural_update_returns_the_swap_report(self):
        testbed, router, devices = sharded_testbed(2, self.backend)
        try:
            drive(testbed, router, devices, 64)
            text = save_config(router.graph)
            report = router.apply_update(text.replace("rt ::", "spare :: Idle; rt ::", 1))
            assert report.kind == "scoped-swap"
            assert "compile" in report.phases and "spare" in router.graph.elements
            drive(testbed, router, devices, 64, offset=64)
            assert sum(len(d.transmitted) for d in devices.values()) == 128
        finally:
            router.close()


    def test_rejected_structural_update_swaps_back_by_inverse_delta(self):
        """A structural update one shard rejects: the shard that swapped
        applies the inverse delta, so every shard serves the last
        committed tables, the plane's graph stays the committed one,
        and the journal never names the rejected update."""
        self.check_one_shard_rejects(ShardedRouter.apply_update, ControlPlaneError)

    def test_rejected_hotswap_swaps_back_by_inverse_delta(self):
        """The same for a hot-swap: it reaches the shards as a delta, and
        the shard that swapped is swapped back by the inverse delta."""
        from repro.elements.hotswap import HotswapError

        self.check_one_shard_rejects(ShardedRouter.hotswap_all, HotswapError)

    def check_one_shard_rejects(self, install, expected):
        testbed, router, devices = sharded_testbed(
            2, self.backend, journal=True, divide_capacity=True
        )
        try:
            drive(testbed, router, devices, 64)
            routes = "1.0.0.1/32 0, 2.0.0.1/32 0, 2.0.0.0/8 2, 1.0.0.0/8 1"
            first = router.graph.copy()
            first.elements["rt"].config = routes
            assert router.apply_update(save_config(first)).kind == "in-place"
            committed = router.graph
            # Queue(7) divides into 4 and 3, and PickyQueue refuses an
            # odd capacity: shard 0 swaps, shard 1 rejects.
            picky = committed.copy()
            picky.elements["out0"].class_name = "PickyQueue"
            picky.elements["out0"].config = "7"
            picky.elements["rt"].config = "2.0.0.0/8 2, 1.0.0.0/8 1"
            picky.archive["picky.py"] = PICKY_QUEUE
            with pytest.raises(expected, match="odd capacity 3"):
                install(router, save_config(picky))
            assert router.graph is committed
            replies = router._ask(router._live_shards(), ("counters",))
            assert [(reply[1]["rt.config"], reply[1]["out0.config"]) for _s, reply in replies] == [
                (routes, "32"),
                (routes, "32"),
            ]
            assert [cmd[0] for cmd in router._journals[0]].count("update") == 1
            assert [cmd[0] for cmd in router._journals[0]].count("hotswap") == 0
            drive(testbed, router, devices, 64, offset=64)
            assert sum(len(d.transmitted) for d in devices.values()) == 128
            before = transmitted_hex(devices)
            router.crash_worker(0)
            assert transmitted_hex(devices) == before
        finally:
            router.close()

    def test_identity_hotswap_is_still_a_swap(self):
        """A hot-swap to the committed configuration ships an empty
        delta, and every shard still swaps: every element is renewed
        with its state carried, every chain that was live is emitted
        again, none is kept, and the four chain counts add up to the
        chain edges — counted on a router replaying shard 0's journal
        up to the swap."""
        from repro.classifier.compile import is_pending
        from repro.graph.diff import GraphDelta
        from repro.verify.oracle import device_names

        default_cache().clear()
        testbed, router, devices = sharded_testbed(2, self.backend, journal=True)
        try:
            drive(testbed, router, devices, 64)
            report = router.hotswap_all(save_config(router.graph))
            assert (report.kind, report.delta) == ("scoped-swap", "no changes")
            ((_kind, delta),) = [cmd for cmd in router._journals[1] if cmd[0] == "hotswap"]
            assert isinstance(delta, GraphDelta) and delta.empty
            case = router.export_case(0)
            drive(testbed, router, devices, 64, offset=64)
            assert sum(len(d.transmitted) for d in devices.values()) == 128
        finally:
            router.close()
        events = case["events"][: [event[0] for event in case["events"]].index("hotswap")]
        default_cache().clear()
        replica_devices = {name: LoopbackDevice(name, tx_capacity=1 << 30) for name in device_names(case["config"])}
        replica = build_router(
            load_config(case["config"], "<replay>"), devices=replica_devices, profile=ExecutionProfile.fast(batch=True)
        )
        for event in events:
            apply(replica, event, replica_devices)
        live = sum(not is_pending(entry) for entry, _batch in replica.fastpath._compiled.values())
        counts = (report.chains_emitted, report.chains_relinked, report.chains_reused, report.chains_deferred)
        assert counts[:3] == (live, 0, 0) and live > 0
        assert sum(counts) == len(replica.fastpath._chain_edges())
        carrying = {
            name
            for name, element in replica.elements.items()
            if any(swap == "carry" for swap, _merge in element.STATE.values())
        }
        assert set(report.transferred) == carrying

    def test_divide_capacity_divides_an_update(self):
        """Under ``divide_capacity`` a queue capacity an update rewrites
        (a structural delta: a queue is not patched in place) reaches
        each shard as its share, and replaying the journaled delta on a
        fresh worker gives the same share."""
        from repro.graph.diff import GraphDelta

        testbed, router, devices = sharded_testbed(
            2, self.backend, journal=True, divide_capacity=True
        )
        try:
            drive(testbed, router, devices, 64)
            graph = router.graph.copy()
            graph.elements["out0"].config = "129"
            assert router.apply_update(save_config(graph)).kind == "scoped-swap"

            def shares():
                replies = router._ask(router._live_shards(), ("counters",))
                return [reply[1]["out0.config"] for _shard, reply in replies]

            assert shares() == ["65", "64"]
            updates = [cmd[1] for cmd in router._journals[1] if cmd[0] == "update"]
            assert len(updates) == 1 and isinstance(updates[0], GraphDelta)
            router.crash_worker(0)
            router.crash_worker(1)
            assert shares() == ["65", "64"]
            drive(testbed, router, devices, 64, offset=64)
            assert sum(len(d.transmitted) for d in devices.values()) == 128
        finally:
            router.close()


    @pytest.mark.parametrize("kind", ["hotswap", "update"])
    def test_a_task_added_mid_text_runs_where_the_text_declares_it(self, kind):
        """A delta puts an added element at its place in the new text,
        so a task a hot-swap or a structural update adds mid-text runs
        in the order a single plane's install gives it.  Declarations
        both texts hold keep their live order, on one plane as on
        shards: a text that only reorders them installs nothing new,
        and one that also inserts a task puts it after its predecessor
        in the text."""
        for text in (POLLS_TWO, POLLS_ONE_REORDERED, POLLS_TWO_REORDERED):
            single, devices = polls_plane(POLLS_ONE)
            apply(single, [kind, text], devices)
            expected = polled(single, devices)
            order = list(single.graph.elements)
            if text is POLLS_TWO:
                assert order == list(parse_graph(POLLS_TWO).elements)
            elif text is POLLS_ONE_REORDERED:
                assert order == list(parse_graph(POLLS_ONE).elements)
            plane, devices = polls_plane(POLLS_ONE, self.backend, journal=True)
            try:
                apply(plane, [kind, text], devices)
                assert sharded_transmit_difference(expected, polled(plane, devices)) is None
                assert list(plane.graph.elements) == order
                for index in range(plane.workers):
                    events = plane.export_case(index)["events"]
                    for _kind, exported in [event for event in events if event[0] == kind]:
                        assert list(load_config(exported, "<export>").elements) == order
            finally:
                plane.close()

    def test_rejected_hotswap_restores_a_removed_task_in_place(self):
        """Swapping back by the inverse delta puts a task the rejected
        swap removed back at its old place, so the shard that swapped
        polls as before."""
        from repro.elements.hotswap import HotswapError

        single, devices = polls_plane(POLLS_TWO)
        expected = polled(single, devices)
        picky = parse_graph(
            POLLS_TWO.replace("qb :: Queue(64); ub :: Unqueue; ", "d :: Discard; ")
            .replace("c [0] -> qb -> ub -> out;", "c [0] -> d;")
            .replace("out :: Queue(64)", "out :: PickyQueue(7)")
        )
        picky.archive["picky.py"] = PICKY_QUEUE
        plane, devices = polls_plane(POLLS_TWO, self.backend, divide_capacity=True)
        try:
            # PickyQueue(7) divides into 4 and 3: shard 0 swaps, shard 1
            # rejects, and shard 0 is swapped back.
            with pytest.raises(HotswapError, match="odd capacity 3"):
                plane.hotswap_all(save_config(picky))
            assert sharded_transmit_difference(expected, polled(plane, devices)) is None
        finally:
            plane.close()


#: Two configurations whose output order is their task order: the
#: classifier sends a flow's ``b`` frames to ``qb`` and the rest to
#: ``qa``, and the Unqueue task that runs first in a pass is the one
#: whose frame leaves first.  ``POLLS_TWO`` declares ``ub`` mid-text,
#: ahead of ``ua``, so a flow's ``b`` frame goes out first.
POLLS_ONE = (
    "p :: PollDevice(eth0); c :: Classifier(42/62, -); out :: Queue(64); "
    "td :: ToDevice(eth1); ua :: Unqueue; qa :: Queue(64); d :: Discard; "
    "p -> c; c [0] -> d; c [1] -> qa -> ua -> out -> td;"
)
POLLS_TWO = (
    "p :: PollDevice(eth0); c :: Classifier(42/62, -); out :: Queue(64); "
    "td :: ToDevice(eth1); qb :: Queue(64); ub :: Unqueue; ua :: Unqueue; qa :: Queue(64); "
    "p -> c; c [0] -> qb -> ub -> out; c [1] -> qa -> ua -> out -> td;"
)

#: ``POLLS_ONE`` with ``ua`` declared first: the same graph, reordered.
POLLS_ONE_REORDERED = POLLS_ONE.replace("ua :: Unqueue; ", "").replace("p :: PollDevice", "ua :: Unqueue; p :: PollDevice")
#: ``POLLS_TWO`` with ``ua`` declared first: the insert, and a reorder.
POLLS_TWO_REORDERED = POLLS_TWO.replace("ua :: Unqueue; ", "").replace("p :: PollDevice", "ua :: Unqueue; p :: PollDevice")


def polls_plane(text, backend=None, journal=None, divide_capacity=False):
    """``text`` on one plane, or on two shards over ``backend``."""
    devices = {name: LoopbackDevice(name, tx_capacity=1 << 30) for name in ("eth0", "eth1")}
    options = {"profile": ExecutionProfile.fast(batch=True)}
    if backend is not None:
        options["profile"] = options["profile"].with_workers(
            2, backend, divide_capacity=divide_capacity
        )
        options["journal"] = journal
    return build_router(parse_graph(text), devices=devices, **options), devices


def udp_frame(flow, tag):
    """A UDP frame of flow ``flow`` whose payload starts with ``tag``."""
    ether = bytes.fromhex("000000000002" "000000000001" "0800")
    ip = bytes.fromhex("4500002a00004000401100000a0000010a000002")
    udp = (1000 + flow).to_bytes(2, "big") + bytes.fromhex("0035001a0000")
    return ether + ip + udp + tag.ljust(18)


def polled(router, devices):
    """Eight flows (both shards get some) send an ``a`` and then a ``b``
    frame on eth0; returns what eth1 transmits."""
    for flow in range(8):
        for tag in (b"a", b"b"):
            devices["eth0"].receive_frame(udp_frame(flow, tag))
    router.run_tasks(32)
    return {"eth1": [bytes(frame).hex() for frame in devices["eth1"].transmitted]}


#: A generated element class (an archive member, so it reaches process
#: workers with the update): a Queue that refuses an odd capacity.
PICKY_QUEUE = """from repro.elements.infrastructure import Queue


class PickyQueue(Queue):
    class_name = "PickyQueue"

    def configure(self, args):
        super().configure(args)
        if self.capacity % 2:
            raise ValueError("odd capacity %d" % self.capacity)


ELEMENT_EXPORTS = [PickyQueue]
"""


class TestControlFanoutOverProcess(TestControlFanout):
    backend = "process"


@pytest.mark.parametrize(
    "profile, deopts",
    [
        (ExecutionProfile.fast(), False),
        (ExecutionProfile.fast(batch=True), False),
        (ExecutionProfile.fdd(), True),
    ],
    ids=["fast", "batch", "fdd"],
)
def test_force_deopt_mirrors_the_single_router(profile, deopts):
    """True whenever a tiered engine exists (under fdd)."""
    testbed = Testbed(2)
    single, _devices = testbed.build_router(testbed.base_graph(), profile=profile)
    sharded, _devices = testbed.build_router(
        testbed.base_graph(), profile=profile.with_workers(2)
    )
    try:
        assert sharded.force_deopt() is single.force_deopt() is deopts
    finally:
        sharded.close()


class TestCrashReplay:
    def test_replay_rebuilds_identical_state(self):
        testbed, router, devices = sharded_testbed(2, journal=True)
        try:
            drive(testbed, router, devices, 100)
            before = transmitted_hex(devices)
            router.crash_worker(1)
            router.run_tasks(4)
            assert transmitted_hex(devices) == before
            drive(testbed, router, devices, 60, offset=100)
            total = sum(len(d.transmitted) for d in devices.values())
            assert total == 160
            report = router.report()
            assert report.crashes == 1 and report.replays == 1
        finally:
            router.close()

    def test_singly_replay_names_the_poison_frames_position(self):
        """Frame-granular replay attributes a killer frame to its
        ``(command, frame)`` position in the journal's
        ``("frames", device, [frame, ...])`` commands, and quarantine's
        strip removes exactly that frame."""
        from repro.runtime.recovery import ReplayFrameError

        testbed, router, devices = sharded_testbed(2, journal=True)
        try:
            drive(testbed, router, devices, 40)
            fresh = testbed.evaluation_frames(120)[40:]
            home = 1
            homed = [(n, f) for n, f in fresh if n == "eth0" and router.hasher(f) == home][:5]
            poison = homed[2][1]  # mid-command: two frames before it, two after
            router.arm_poison(poison)
            for name, frame in homed:
                devices[name].receive_frame(frame)
            with pytest.raises(RuntimeError, match="shard worker 1"):
                router.run_tasks(4)  # no recovery policy: the death is fatal
            journal = router._journals[home]
            expected = max(i for i, cmd in enumerate(journal) if cmd[0] == "frames")
            assert journal[expected] == ("frames", "eth0", [f for _n, f in homed])
            with pytest.raises(ReplayFrameError) as caught:
                router._revive_shard(home, singly=True)
            assert caught.value.position == (expected, 2)
            assert (caught.value.device, caught.value.frame) == ("eth0", poison)
            before = list(journal)
            router._strip_journal_frame(home, caught.value.position)
            assert journal[expected] == ("frames", "eth0", [f for _n, f in homed if f != poison])
            assert journal[:expected] + journal[expected + 1 :] == (
                before[:expected] + before[expected + 1 :]
            )
            router._revive_shard(home, singly=True)  # clean now
            router.run_tasks(4)
            assert sum(len(d.transmitted) for d in devices.values()) == 44
            # A command emptied by the strip goes with its frame.
            router._journals[home].append(("frames", "eth1", [poison]))
            router._strip_journal_frame(home, (len(journal) - 1, 0))
            assert journal[-1][0] != "frames"
        finally:
            router.close()

    def test_crash_without_journal_raises(self):
        testbed, router, devices = sharded_testbed(2, journal=False)
        try:
            drive(testbed, router, devices, 16)
            with pytest.raises(RuntimeError, match="journal"):
                router.crash_worker(0)
        finally:
            router.close()


WINDOW = 64  # frames per window in the bounded and retention tests


def feed_window(router, devices, frames):
    for name, frame in frames:
        devices[name].receive_frame(frame)
    router.run_tasks(WINDOW // 8 + 16)


class TestBoundedRing:
    RING = 48
    WINDOWS = 10

    def run_windows(self, backend, crash_at=None):
        """Ten windows into 48-frame rings the test drains only after
        odd windows (and, at the end, until the shards hold no backlog).
        Returns each device's output, in delivery order, and how often a
        shard sent exactly its mirrored room — blocked on the ring."""
        testbed, router, devices = sharded_testbed(2, backend=backend, journal=True)
        for device in devices.values():
            device.tx_capacity = self.RING
        frames = testbed.evaluation_frames(WINDOW * self.WINDOWS)
        out = {name: [] for name in devices}

        def drain():
            for name, device in devices.items():
                out[name] += device.transmitted
                device.transmitted.clear()

        blocked = 0
        try:
            for window in range(self.WINDOWS + 4):
                if window == crash_at:
                    router.crash_worker(1)
                room = {name: max(0, device.tx_room()) for name, device in devices.items()}
                before = [dict(shard.flushed) for shard in router._shards]
                feed_window(router, devices, frames[window * WINDOW : (window + 1) * WINDOW])
                for shard, was in zip(router._shards, before):
                    for name in devices:
                        sent = shard.flushed[name] - was[name]
                        assert sent <= room[name]  # the mirror gives each shard the real room
                        blocked += 0 < sent == room[name]
                if window % 2 or window >= self.WINDOWS:
                    drain()
        finally:
            router.close()
        return out, blocked

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_crash_under_a_full_ring_matches_the_uncrashed_run(self, backend):
        """A worker killed after a window in which it blocked on the
        ring, with a backlog in its queues, comes back through journal
        replay — every transmit mirror re-applied against what the new
        worker holds, and the room it drops output from unchanged — and
        the plane delivers exactly what the uncrashed plane does, each
        frame once."""
        expected, blocked = self.run_windows(backend)
        assert blocked > 0
        got, _blocked = self.run_windows(backend, crash_at=6)
        assert got == expected
        for frames in got.values():
            assert len(set(frames)) == len(frames)
        assert sum(len(frames) for frames in got.values()) == WINDOW * self.WINDOWS


@pytest.fixture
def shard_spy(monkeypatch):
    """Wraps ``_build_shard`` (thread transport: the worker runs in this
    process): ``spy.devices[i]`` is shard ``i``'s current shard-local
    devices, ``spy.peak[i]`` the most frames they held after a run."""
    from repro.runtime import shard as shard_module

    build = shard_module._build_shard
    spy = SimpleNamespace(devices={}, peak={})

    def spied(config, profile, device_names, metered, shard_index, extra_classes=None):
        router, devices, divider = build(
            config, profile, device_names, metered, shard_index, extra_classes
        )
        spy.devices[shard_index] = devices
        spy.peak[shard_index] = 0
        run_tasks = router.run_tasks

        def run(iterations=1):
            worked = run_tasks(iterations)
            held = sum(len(device.transmitted) for device in devices.values())
            spy.peak[shard_index] = max(spy.peak[shard_index], held)
            return worked

        router.run_tasks = run
        return router, devices, divider

    monkeypatch.setattr(shard_module, "_build_shard", spied)
    return spy


class TestWorkerRetention:
    def test_a_worker_keeps_nothing_it_has_delivered(self, shard_spy):
        """Live, a shard-local device is empty after every scheduler
        batch; under replay of ~50 windows the revived worker drops
        what the coordinator already consumed after every run, so it
        never holds more than one window's frames."""
        testbed, router, devices = sharded_testbed(2, journal=True)
        frames = testbed.evaluation_frames(WINDOW * 52)
        try:
            for window in range(50):
                feed_window(router, devices, frames[window * WINDOW : (window + 1) * WINDOW])
                for shard_devices in shard_spy.devices.values():
                    assert all(not device.transmitted for device in shard_devices.values())
            router.crash_worker(1)
            assert shard_spy.peak[1] <= WINDOW
            assert all(not device.transmitted for device in shard_spy.devices[1].values())
            for window in (50, 51):
                feed_window(router, devices, frames[window * WINDOW : (window + 1) * WINDOW])
            assert sum(len(d.transmitted) for d in devices.values()) == WINDOW * 52
            assert len({bytes(f) for d in devices.values() for f in d.transmitted}) == WINDOW * 52
        finally:
            router.close()

    #: tracemalloc growth allowed between windows 50 and 300: a worker
    #: that kept every delivered frame grows ~100 B per frame, ~1.6 MB
    #: over these 16 000 frames; a trimmed one grows well under 1 KB.
    GROWTH_BOUND = 64 * 1024

    def test_memory_is_flat_over_uptime(self):
        """A thread plane with no journal forwards 300 windows with the
        test draining the real devices: what Python holds after window
        300 is within a constant of what it held after window 50."""
        import gc
        import tracemalloc

        testbed, router, devices = sharded_testbed(2, journal=False)
        frames = testbed.evaluation_frames(WINDOW)
        held = {}
        try:
            for window in range(301):
                if window == 20:  # past compilation and first-use caches
                    tracemalloc.start()
                feed_window(router, devices, frames)
                for device in devices.values():
                    device.transmitted.clear()
                if window in (50, 300):
                    gc.collect()
                    held[window] = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            router.close()
        assert held[300] - held[50] < self.GROWTH_BOUND


class TestReconciliation:
    def test_meter_summary_absorb_is_associative(self):
        meters = []
        for packets in (40, 80):
            testbed = Testbed(2)
            meter = CycleMeter()
            router, devices = testbed.build_router(
                testbed.variant_graph("base"), meter=meter
            )
            drive(testbed, router, devices, packets)
            meters.append(meter.summary())
        a, b = meters
        left = CycleMeter().absorb(a).absorb(b).summary()
        right = CycleMeter().absorb(b).absorb(a).summary()
        assert left == right
        assert left["packets_seen"] == a["packets_seen"] + b["packets_seen"]

    def test_parent_meter_absorbs_shard_work(self):
        meter = CycleMeter()
        testbed, router, devices = sharded_testbed(2, meter=meter)
        try:
            drive(testbed, router, devices, 80)
        finally:
            router.close()
        summary = meter.summary()
        assert summary["packets_seen"] >= 80
        assert summary["forwarding"] > 0

    def test_merged_counters_sum_numeric(self):
        testbed, router, devices = sharded_testbed(2)
        try:
            drive(testbed, router, devices, 100)
            counters = router.merged_counters()
        finally:
            router.close()
        received = sum(
            value
            for key, value in counters.items()
            if key.endswith(".received") and isinstance(value, int)
        )
        assert received == 100

    def test_merged_highwater_is_the_largest_shards(self):
        """Each counter merges by the rule its class declares: a
        queue's ``highwater`` by max, its ``drops`` by sum."""
        testbed, router, devices = sharded_testbed(2)
        try:
            drive(testbed, router, devices, 100)
            merged = router.merged_counters()
            shards = [reply[1] for _shard, reply in router._ask(router._live_shards(), ("counters",))]
        finally:
            router.close()
        for queue in ("out0", "out1"):
            marks = [shard[queue + ".highwater"] for shard in shards]
            assert min(marks) > 0  # both shards queued, so a sum would differ
            assert merged[queue + ".highwater"] == max(marks)
            assert merged[queue + ".drops"] == sum(shard[queue + ".drops"] for shard in shards)

    def test_report_survives_close(self):
        testbed, router, devices = sharded_testbed(2)
        drive(testbed, router, devices, 40)
        router.close()
        report = router.report()
        assert isinstance(report, ShardReport)
        assert report.flushed == 40
        payload = report.as_dict()
        assert payload["workers"] == 2 and payload["backend"] == "thread"
        assert "shard" in report.format()

    def test_close_is_idempotent(self):
        testbed, router, devices = sharded_testbed(2)
        drive(testbed, router, devices, 8)
        router.close()
        router.close()
        assert router.run_tasks(1) == 0  # scheduling a retired plane is a no-op
        with pytest.raises(RuntimeError, match="retired"):
            router.bump_arp_epochs()  # control ops are not


class TestProcessBackend:
    def test_process_plane_matches_single_shard(self):
        testbed, single, single_devices = sharded_testbed(1)
        drive(testbed, single, single_devices, 120)
        testbed2, router, devices = sharded_testbed(2, backend="process")
        try:
            assert router.backend == "process"
            drive(testbed2, router, devices, 120)
            diff = sharded_transmit_difference(
                transmitted_hex(single_devices), transmitted_hex(devices)
            )
            assert diff is None, diff
            report = router.report()
            assert report.backend == "process"
            assert sum(report.dispatched) == 120
        finally:
            router.close()

    def test_process_crash_replay(self):
        testbed, router, devices = sharded_testbed(2, backend="process", journal=True)
        try:
            drive(testbed, router, devices, 80)
            before = transmitted_hex(devices)
            router.crash_worker(0)
            router.run_tasks(4)
            assert transmitted_hex(devices) == before
            drive(testbed, router, devices, 40, offset=80)
            total = sum(len(d.transmitted) for d in devices.values())
            assert total == 120
        finally:
            router.close()


#: The directory holding the ``repro`` package.
_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Run as a script with no PYTHONPATH: it reaches ``src`` only through
#: the ``sys.path`` insert, as ``bench/run.py`` does.
_FORKSERVER_PROBE = """
import json, os, sys
sys.path.insert(0, %(src)r)
from repro.classifier import compile as classifier_compile
from repro.runtime import ExecutionProfile, shard
from repro.runtime.codegen_cache import default_cache
from repro.sim.testbed import Testbed


def parent_pid(pid):
    with open("/proc/%%d/status" %% pid) as status:
        return next(int(line.split()[1]) for line in status if line.startswith("PPid:"))


def probe(conn):
    conn.send({
        "imported_by": shard._IMPORTED_BY,
        "pid": os.getpid(),
        "parent": os.getppid(),
        "codegen_cache": len(default_cache()),
        "function_cache": len(classifier_compile._FUNCTION_CACHE),
    })
    conn.close()


if __name__ == "__main__":
    testbed = Testbed(2)
    # Compiled state in the coordinator, for a child to not inherit: a
    # chain is emitted and compiled on its first entry, so frames flow.
    single, devices = testbed.build_router(testbed.variant_graph("base"), profile=ExecutionProfile.fast())
    for name, frame in testbed.evaluation_frames(8):
        devices[name].receive_frame(frame)
    single.run_tasks(8)
    warm = [len(default_cache()), len(classifier_compile._FUNCTION_CACHE)]
    before = dict(os.environ)
    plane, _ = testbed.build_router(
        testbed.variant_graph("base"),
        profile=ExecutionProfile.fast().with_workers(2, "process"),
    )
    plane.run_tasks(1)
    after = dict(os.environ)
    workers = [parent_pid(s.transport._process.pid) for s in plane._shards]
    ctx = shard._process_context()
    mine, theirs = ctx.Pipe()
    child = ctx.Process(target=probe, args=(theirs,))
    child.start()
    theirs.close()
    seen = mine.recv()
    child.join()
    plane.close()
    print(json.dumps({
        "coordinator": os.getpid(), "warm": warm, "env_kept": before == after,
        "worker_parents": workers, "child": seen,
    }))
"""


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def _parent_pid(pid):
    with open("/proc/%d/status" % pid) as status:
        return next(int(line.split()[1]) for line in status if line.startswith("PPid:"))


class TestForkServer:
    """Process workers are forked from one server per coordinator that
    has already imported the runtime and has compiled nothing."""

    def test_preloaded_server_forks_cold_workers(self, tmp_path):
        script = tmp_path / "probe.py"
        script.write_text(_FORKSERVER_PROBE % {"src": _SRC})
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        result = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True, text=True, env=env, cwd=str(tmp_path), timeout=120,
        )
        assert result.returncode == 0, result.stderr
        seen = json.loads(result.stdout.strip().splitlines()[-1])
        child = seen["child"]
        server = child["parent"]
        # The server imported the shard module before it forked the
        # child: the child never imported it itself.
        assert child["imported_by"] == server != child["pid"]
        assert server != seen["coordinator"]
        # The plane's workers are children of the same server.
        assert seen["worker_parents"] == [server, server]
        # The coordinator's caches were warm; the child's are empty.
        assert min(seen["warm"]) > 0
        assert child["codegen_cache"] == child["function_cache"] == 0
        assert seen["env_kept"]

    def test_a_long_tmpdir_still_starts_the_server(self, tmp_path):
        """The server's socket lives under multiprocessing's temp dir,
        and a socket path holds 107 bytes."""
        tmpdir = tmp_path / ("t" * max(1, 110 - len(str(tmp_path))))
        tmpdir.mkdir()
        script = (
            "import sys; sys.path.insert(0, %r)\n"
            "from repro.runtime import ExecutionProfile\n"
            "from repro.sim.testbed import Testbed\n"
            "testbed = Testbed(2)\n"
            "plane, _ = testbed.build_router(testbed.variant_graph('base'),"
            " profile=ExecutionProfile.fast().with_workers(2, 'process'))\n"
            "plane.run_tasks(1)\n"
            "plane.close()\n" % _SRC
        )
        env = dict(os.environ, TMPDIR=str(tmpdir))
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert result.returncode == 0, result.stderr

    def test_planes_leak_no_child_or_fd(self):
        """Twenty process planes, each with one worker SIGKILLed and
        revived under the buffer policy, then closed: no child process
        and no file descriptor outlives them, and one server forked
        every worker."""
        from repro.runtime import RecoveryConfig
        from repro.runtime.shard import _process_context

        _process_context()  # the server and the resource tracker hold fds for good
        baseline = _open_fds()
        parents = set()
        for _ in range(20):
            testbed, router, devices = sharded_testbed(
                2, backend="process", recovery=RecoveryConfig(policy="buffer", jitter=0)
            )
            try:
                drive(testbed, router, devices, 16)
                router.kill_worker(1)
                drive(testbed, router, devices, 16, offset=16)
                router.run_tasks(4)
                assert router._recovery.report().restarts >= 1
                assert sum(len(d.transmitted) for d in devices.values()) == 32
                parents.update(
                    _parent_pid(shard.transport._process.pid) for shard in router._shards
                )
            finally:
                router.close()
        assert multiprocessing.active_children() == []
        assert _open_fds() == baseline
        assert len(parents) == 1 and os.getpid() not in parents


class TestStreamedRounds:
    CHUNK = 16

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_rounds_deliver_the_one_shot_partition(self, backend):
        """Whatever the window's size against the round's, every shard
        receives, per device and in arrival order, exactly the frames a
        whole-window partition gives it — and a window above one round
        crosses in several ``("frames", device, [frame, ...])`` commands."""
        chunk = self.CHUNK
        testbed, router, devices = sharded_testbed(2, backend=backend, journal=True)
        router.chunk_frames = chunk
        try:
            offset = 0
            for size in (0, 1, chunk - 1, chunk, chunk + 1, 5 * chunk + 3):
                frames = testbed.evaluation_frames(offset + size)[offset:]
                offset += size
                marks = [len(journal) for journal in router._journals]
                for name, frame in frames:
                    devices[name].receive_frame(frame)
                router.run_tasks(size // 8 + 16)
                for index, journal in enumerate(router._journals):
                    commands = [cmd for cmd in journal[marks[index] :] if cmd[0] == "frames"]
                    assert all(0 < len(cmd[2]) <= chunk for cmd in commands)
                    for device in devices:
                        streamed = [
                            frame for cmd in commands if cmd[1] == device for frame in cmd[2]
                        ]
                        assert streamed == [
                            frame
                            for name, frame in frames
                            if name == device and router.hasher(frame) == index
                        ]
                    if size > 2 * len(devices) * chunk:  # some device holds over a round
                        assert len(commands) > len(devices)
            assert sum(router.report().dispatched) == offset
            assert sum(len(d.transmitted) for d in devices.values()) == offset
        finally:
            router.close()


class TestQueueCapacityKnob:
    @staticmethod
    def stalled_high_water(packets):
        """Shard 0's handoff-queue high water after one pipelined batch
        dispatched while its worker sleeps: more commands than the
        capacity, so the bounded queue fills to exactly its capacity and
        the dispatcher blocks there (backpressure) until the worker
        wakes."""
        testbed = Testbed(2)
        devices = {
            interface.device: LoopbackDevice(interface.device, tx_capacity=1 << 30)
            for interface in testbed.interfaces
        }
        profile = (
            replace(ExecutionProfile.fast(batch=True), chunk_frames=16)
            .with_workers(2)
            .with_recovery("buffer")  # hang_worker needs a policy
        )
        router = build_router(testbed.variant_graph("base"), devices=devices, profile=profile)
        try:
            for index in range(2):
                router.find("arpq%d" % index).insert(host_ip(index), HOST_ETHERS[index])
            router.hang_worker(0, seconds=0.3)
            drive(testbed, router, devices, packets)
            assert sum(len(d.transmitted) for d in devices.values()) == packets
            return router.report().queue_high_water[0]
        finally:
            router.close()

    def test_default_capacity_is_validated_default(self):
        from repro.runtime.shard import DEFAULT_QUEUE_CAPACITY

        assert DEFAULT_QUEUE_CAPACITY == 256
        assert self.stalled_high_water(2600) == DEFAULT_QUEUE_CAPACITY

    def test_live_capacity_change_raises(self):
        testbed, router, devices = sharded_testbed(2)
        try:
            drive(testbed, router, devices, 16)
            divided = router.profile.with_workers(2, divide_capacity=True)
            with pytest.raises(ValueError, match="construction-time"):
                router.configure(divided)
        finally:
            router.close()


class TestDivideQueueCapacities:
    from repro.runtime.shard import divide_queue_capacities

    divide = staticmethod(divide_queue_capacities)
    GRAPH = (
        "src :: PollDevice(eth0); ctr :: Counter; q :: Queue(5); "
        "dst :: ToDevice(eth1); src -> ctr -> q -> dst;"
    )

    def test_floor_share_remainder_to_low_indices(self):
        graph = parse_graph(self.GRAPH, "<divide>")
        shard0 = self.divide(graph, 0, 2)
        shard1 = self.divide(graph, 1, 2)
        assert shard0.elements["q"].config.strip() == "3"
        assert shard1.elements["q"].config.strip() == "2"
        # The caller's graph stays the undivided source of truth.
        assert graph.elements["q"].config.strip() == "5"

    def test_non_queue_elements_untouched(self):
        graph = parse_graph(self.GRAPH, "<divide>")
        shard0 = self.divide(graph, 0, 2)
        assert (shard0.elements["ctr"].config or "").strip() == (
            graph.elements["ctr"].config or ""
        ).strip()
        assert shard0.elements["src"].config.strip() == "eth0"

    def test_single_worker_is_identity(self):
        graph = parse_graph(self.GRAPH, "<divide>")
        assert self.divide(graph, 0, 1) is graph

    def test_capacity_below_workers_raises(self):
        graph = parse_graph(
            "src :: PollDevice(eth0); q :: Queue(1); dst :: ToDevice(eth1); "
            "src -> q -> dst;",
            "<divide>",
        )
        with pytest.raises(ClickSemanticError, match="divide_capacity"):
            self.divide(graph, 0, 2)

    def test_front_drop_queue_divides_too(self):
        graph = parse_graph(
            "src :: PollDevice(eth0); q :: FrontDropQueue(4); "
            "dst :: ToDevice(eth1); src -> q -> dst;",
            "<divide>",
        )
        shard0 = self.divide(graph, 0, 2)
        shard1 = self.divide(graph, 1, 2)
        assert shard0.elements["q"].config.strip() == "2"
        assert shard1.elements["q"].config.strip() == "2"


def test_bump_arp_epochs_counts_renamed_queriers():
    """The optimizers rename classes (``Devirtualize@@arpq0`` is an
    ARPQuerier), so the sharded plane reports what a shard bumped — the
    same number the single router does — not what declarations say."""
    from repro.core import load_config, named_pipeline, save_config

    testbed = Testbed(2)
    result = named_pipeline("paper").run(testbed.base_graph())
    text = save_config(result.graph)
    assert "ARPQuerier" not in {decl.class_name for decl in load_config(text).elements.values()}
    single, _devices = testbed.build_router(load_config(text), profile=ExecutionProfile.fdd())
    sharded, _devices = testbed.build_router(
        load_config(text), profile=ExecutionProfile.fdd().with_workers(2, "thread")
    )
    try:
        assert sharded.bump_arp_epochs() == single.bump_arp_epochs() == 2
    finally:
        sharded.close()


def check_divide_capacity_divides_renamed_queues(backend):
    """``Devirtualize@@…`` queues are Queues: on the ``paper``-pipeline
    router over 2 workers, ``divide_capacity`` keeps the plane's
    aggregate queue capacity at the single plane's, and the device
    scan finds the renamed device elements."""
    from repro.core import load_config, named_pipeline, save_config
    from repro.elements.infrastructure import Queue
    from repro.runtime.shard import device_names_of

    testbed = Testbed(2)
    text = save_config(named_pipeline("paper").run(testbed.base_graph()).graph)
    graph = load_config(text)
    assert "Queue" not in {decl.class_name for decl in graph.elements.values()}
    assert sorted(device_names_of(graph)) == ["eth0", "eth1"]

    single, _devices = testbed.build_router(load_config(text), profile=ExecutionProfile.fast())
    capacities = {
        name: element.capacity
        for name, element in single.elements.items()
        if isinstance(element, Queue)
    }
    sharded, _devices = testbed.build_router(
        load_config(text),
        profile=ExecutionProfile.fast().with_workers(2, backend, divide_capacity=True),
    )
    try:
        sharded.run_tasks(1)
        # Each worker's own answer (a queue's ``config`` handler reads
        # back the capacity its shard was built with), over the transport.
        shards = [
            reply[1] for _shard, reply in sharded._ask(sharded._live_shards(), ("counters",))
        ]
        assert capacities and len(shards) == 2
        for name, capacity in capacities.items():
            assert sum(int(shard["%s.config" % name]) for shard in shards) == capacity
    finally:
        sharded.close()


def test_divide_capacity_divides_renamed_queues():
    check_divide_capacity_divides_renamed_queues("thread")


def test_divide_capacity_divides_renamed_queues_over_process():
    check_divide_capacity_divides_renamed_queues("process")


def test_an_equivalent_rules_patch_commits_on_no_shard(monkeypatch):
    """Two ``fdd`` firewall shards on threads, warmed: a rules patch
    that reverses the ``allow`` run gives every packet its verdict, so
    every worker stages nothing and answers ``"empty"``.  The plane
    commits nothing and journals nothing, its graph stays the one the
    workers hold, every shard keeps its tree, and both forward on."""
    from repro.configs.firewall import firewall_graph, firewall_rule_strings
    from repro.runtime import shard as shard_module

    from .test_fastpath_lowering import firewall_frame

    routers, verdicts, controls = {}, [], []
    build, ask, control = shard_module._build_shard, ShardedRouter._ask, ShardedRouter._control

    def spied(config, profile, device_names, metered, shard_index, extra_classes=None):
        built = build(config, profile, device_names, metered, shard_index, extra_classes)
        routers[shard_index] = built[0]
        return built

    def asked(self, shards, cmd, *args, **kwargs):
        answers = ask(self, shards, cmd, *args, **kwargs)
        if cmd[0] == "update_stage":
            verdicts.extend(answer for _shard, answer in answers)
        return answers

    def controlled(self, cmd, *args, **kwargs):
        controls.append(cmd[0])
        return control(self, cmd, *args, **kwargs)

    monkeypatch.setattr(shard_module, "_build_shard", spied)
    monkeypatch.setattr(ShardedRouter, "_ask", asked)
    monkeypatch.setattr(ShardedRouter, "_control", controlled)
    router, devices = Testbed(2).build_router(firewall_graph(), profile=ExecutionProfile.fdd().with_workers(2, "thread"))
    try:
        for _ in range(64):
            devices["eth0"].receive_frame(firewall_frame())
        router.run_tasks(32)
        text, graph = save_config(router.graph), router.graph
        trees = {index: shard.find("fw").tree for index, shard in routers.items()}
        rules = firewall_rule_strings()
        permuted = load_config(text, "<permuted>")
        permuted.elements["fw"].config = ", ".join(rules[:2] + rules[-2:1:-1] + rules[-1:])
        del controls[:]
        report = router.apply_update(save_config(permuted))
        assert report.kind == "no-op" and verdicts == [("staged", "empty")] * 2 and not controls
        assert router.graph is graph and save_config(graph) == text
        for index, shard in routers.items():
            assert shard.find("fw").tree is trees[index]
            assert shard.graph.elements["fw"].config == router.graph.elements["fw"].config
        for _ in range(64):
            devices["eth0"].receive_frame(firewall_frame())
        router.run_tasks(32)
        assert len(devices["eth1"].transmitted) == 128
    finally:
        router.close()


def test_a_rewrite_that_fails_on_one_shard_commits_on_no_shard(monkeypatch):
    """Two ``fdd`` shards on threads, warmed: a ``c0`` rules patch that
    changes its diagram's shape stages the chain rewrite on every shard
    before any commits.  An emission that fails on shard 1 alone rejects
    the update on both: :class:`ControlPlaneError`, the plane's graph and
    every shard's ``c0`` rules and tree as they were, and both shards
    forward on."""
    from repro.lang.lexer import split_config_args
    from repro.runtime import shard as shard_module
    from repro.runtime.fastpath import FastPath

    routers = {}
    build = shard_module._build_shard

    def spied(config, profile, device_names, metered, shard_index, extra_classes=None):
        built = build(config, profile, device_names, metered, shard_index, extra_classes)
        routers[shard_index] = built[0]
        return built

    monkeypatch.setattr(shard_module, "_build_shard", spied)
    testbed = Testbed(2)
    router, devices = testbed.build_router(
        testbed.variant_graph("base"), profile=ExecutionProfile.fdd().with_workers(2, "thread")
    )
    try:
        drive(testbed, router, devices, 256)
        before = {index: (shard.find("c0").tree, shard.graph.elements["c0"].config) for index, shard in routers.items()}
        real = FastPath._emit_chain

        def emit_chain(self, key, element):
            if self.router is routers[1]:
                raise RuntimeError("injected emitter bug on shard 1")
            return real(self, key, element)

        monkeypatch.setattr(FastPath, "_emit_chain", emit_chain)
        graph = router.graph
        rules = split_config_args(graph.elements["c0"].config)
        rules[0] = "12/0806 20/0001 28/0a000001"
        with pytest.raises(ControlPlaneError, match="injected emitter bug"):
            router.apply_update(save_config(graph).replace(graph.elements["c0"].config, ", ".join(rules)))
        monkeypatch.setattr(FastPath, "_emit_chain", real)
        assert router.graph is graph and len(routers) == 2
        for index, shard in routers.items():
            assert (shard.find("c0").tree, shard.graph.elements["c0"].config) == before[index]
        drive(testbed, router, devices, 256, offset=256)
        assert sum(len(device.transmitted) for device in devices.values()) == 512
    finally:
        router.close()
