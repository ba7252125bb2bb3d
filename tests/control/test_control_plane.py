"""Tests for the control plane (repro.control): update routing by
delta shape, all-or-nothing staging, structural updates in place, and
the click-update CLI."""

import json

import pytest

from repro.control import ControlPlane, ControlPlaneError
from repro.core.toolchain import save_config
from repro.elements.hotswap import HotswapError, SwapReport, hotswap
from repro.elements.infrastructure import Counter
from repro.elements.runtime import wiring_of
from repro.events import read_counters
from repro.lang.lexer import split_config_args
from repro.net.addresses import IPAddress
from repro.runtime import AdaptiveConfig, ExecutionProfile
from repro.runtime import fastpath
from repro.runtime.codegen_cache import default_cache
from repro.runtime.fastpath import FastPath
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.testbed import Testbed


def build_plane(profile=None):
    testbed = Testbed(2)
    router, devices = testbed.build_router(
        testbed.variant_graph("base"), profile=profile or ExecutionProfile.fast()
    )
    return testbed, ControlPlane(router), devices


def drive(testbed, plane, devices, count=64, start=0):
    frames = testbed.evaluation_frames(count + start)[start:]
    for device_name, frame in frames:
        devices[device_name].receive_frame(frame)
    plane.router.run_tasks(count)
    return sum(len(device.transmitted) for device in devices.values())


def routes_of(plane, name="rt"):
    return split_config_args(plane.router.graph.elements[name].config)


EAGER = dict(threshold=48, sample=4, min_samples=12)
#: Each host of the base IP router -> the host behind the other
#: interface, and ``rt``'s output to that interface.
HOSTS = {"1.0.0.2": ("2.0.0.2", 2), "2.0.0.2": ("1.0.0.2", 1)}


def hot_host(engine):
    """The destination tier 2 baked into ``rt``'s dispatch."""
    raw, _gateway, _port = engine.tier2_fp.policy.decisions.route["rt"]["hot"]
    return str(IPAddress(raw))


def sent_elsewhere(plane, host):
    """``rt``'s routes with ``host`` sent out of the other interface,
    via the host there, whose Ethernet address the testbed seeded."""
    other, port = HOSTS[host]
    return ["%s/32 %s %d" % (host, other, port)] + routes_of(plane)


def wire(devices):
    return {name: list(device.transmitted) for name, device in devices.items()}


class TestInPlace:
    def test_route_patch_kind_and_identity(self):
        testbed, plane, devices = build_plane()
        router = plane.router
        report = plane.update_routes("rt", routes_of(plane))
        assert isinstance(report, SwapReport)
        assert report.kind == "in-place"
        assert report.elements_patched == 1
        assert set(report.phases) == {"diff", "stage", "patch"}
        assert plane.router is router  # no new router generation
        assert drive(testbed, plane, devices) > 0

    def test_route_patch_changes_forwarding(self):
        """Swapping the two network routes re-aims the traffic: packets
        for network 2 now leave via interface 0's queue and vice versa —
        the patched table is really live under the compiled fast path."""
        testbed, plane, devices = build_plane()
        before = drive(testbed, plane, devices, 32)
        assert before > 0
        per_device_before = {
            name: len(device.transmitted) for name, device in devices.items()
        }
        routes = routes_of(plane)
        swapped = []
        for route in routes:
            parts = route.split()
            if parts[-1] == "1":
                parts[-1] = "2"
            elif parts[-1] == "2":
                parts[-1] = "1"
            swapped.append(" ".join(parts))
        report = plane.update_routes("rt", swapped)
        assert report.kind == "in-place"
        drive(testbed, plane, devices, 32, start=32)
        per_device_after = {
            name: len(device.transmitted) for name, device in devices.items()
        }
        deltas = {
            name: per_device_after[name] - per_device_before[name]
            for name in per_device_after
        }
        # Forwarding continued, but the output interfaces flipped: the
        # device that was quiet before the patch now transmits.
        assert sum(deltas.values()) > 0
        assert plane.router.graph.elements["rt"].config == ", ".join(swapped)

    def test_classifier_patch_in_place(self):
        testbed, plane, devices = build_plane()
        rules = split_config_args(plane.router.graph.elements["c0"].config)
        rules[0], rules[1] = rules[1], rules[0]  # the ARP arms: positional, so a new table
        report = plane.update_rules("c0", rules)
        assert report.kind == "in-place"
        assert drive(testbed, plane, devices) > 0

    def test_patch_deopts_adaptive_chains(self):
        """A route patch that sends tier 2's hot destination out of the
        other interface falsifies the constant tier 2 baked: it deopts,
        the reason names the constant's new answer, and the chains climb
        again onto a tier 2 that bakes the patched table's answers."""
        testbed, plane, devices = build_plane(profile=ExecutionProfile.fdd(config=AdaptiveConfig(**EAGER)))
        drive(testbed, plane, devices, 256)  # promote hot chains to tier 2
        engine = plane.router.adaptive
        assert any(state.tier == 2 for state in engine.states.values())
        host = hot_host(engine)
        other, port = HOSTS[host]
        plane.update_routes("rt", sent_elsewhere(plane, host))
        assert engine.deopts == ["control-plane patch of rt: %s → port %d via %s" % (host, port, other)]
        assert engine.tier2_fp is None and not any(state.tier == 2 for state in engine.states.values())
        drive(testbed, plane, devices, 256, start=256)
        assert any(state.tier == 2 for state in engine.states.values())
        raw, gateway, port = engine.tier2_fp.policy.decisions.route["rt"]["hot"]
        answer = plane.router.elements["rt"].lookup_route(raw)
        assert (answer[0] and answer[0].value, answer[1]) == (gateway, port)

    def test_a_route_patch_that_keeps_every_answer_keeps_tier_2(self):
        """Routes reordered and one no frame matches: the committed
        table answers the hot destination as before, so tier 2, every
        entry's function and the profile stay, and the wire is the
        reference twin's."""
        live = build_plane(profile=ExecutionProfile.fdd(config=AdaptiveConfig(**EAGER)))
        twin = build_plane(profile=ExecutionProfile.reference())
        for testbed, plane, devices in (live, twin):
            drive(testbed, plane, devices, 256)
        engine = live[1].router.adaptive
        tier2, counts = engine.tier2_fp, engine.store.snapshot()
        pushes = {key: state.port.push for key, state in engine.states.items()}
        assert tier2 is not None and any(state.tier == 2 for state in engine.states.values())
        routes = routes_of(live[1])[::-1] + ["203.0.9.0/24 1"]
        for testbed, plane, devices in (live, twin):
            assert plane.update_routes("rt", routes).kind == "in-place"
        assert engine.tier2_fp is tier2 and engine.store.snapshot() == counts and engine.deopts == []
        assert {key: state.port.push for key, state in engine.states.items()} == pushes
        for testbed, plane, devices in (live, twin):
            drive(testbed, plane, devices, 256, start=256)
        assert engine.tier2_fp is tier2 and engine.deopts == []
        assert wire(live[2]) == wire(twin[2])

    def test_moving_a_destination_tier_2_did_not_bake_keeps_tier_2(self):
        """The host tier 2 did not speculate on, sent out of the other
        interface: tier 2 stays, that host's frames leave by the new
        port, and the wire is the reference twin's."""
        live = build_plane(profile=ExecutionProfile.fdd(config=AdaptiveConfig(**EAGER)))
        twin = build_plane(profile=ExecutionProfile.reference())
        for testbed, plane, devices in (live, twin):
            drive(testbed, plane, devices, 256)
        engine = live[1].router.adaptive
        tier2 = engine.tier2_fp
        assert tier2 is not None
        cold = next(host for host in HOSTS if host != hot_host(engine))
        routes = sent_elsewhere(live[1], cold)
        before = wire(live[2])
        for testbed, plane, devices in (live, twin):
            assert plane.update_routes("rt", routes).kind == "in-place"
            drive(testbed, plane, devices, 256, start=256)
        assert engine.tier2_fp is tier2 and engine.deopts == []
        assert any(state.tier == 2 for state in engine.states.values())
        device = "eth%d" % (HOSTS[cold][1] - 1)
        moved = [frame for frame in wire(live[2])[device][len(before[device]):] if frame[30:34] == IPAddress(cold).packed()]
        assert moved
        assert wire(live[2]) == wire(twin[2])

    def test_noop_update(self):
        _, plane, _ = build_plane()
        report = plane.apply(plane.router.graph.copy())
        assert report.kind == "no-op"
        assert report.total_seconds >= 0


class TestRejection:
    def test_bad_route_rejected_nothing_applied(self):
        testbed, plane, devices = build_plane()
        before = plane.router.graph.elements["rt"].config
        with pytest.raises(ControlPlaneError, match="rejected; nothing applied"):
            plane.update_routes("rt", ["999.999.0.0/16 0"])
        assert plane.router.graph.elements["rt"].config == before
        assert drive(testbed, plane, devices) > 0

    def test_out_of_range_port_rejected(self):
        _, plane, _ = build_plane()
        with pytest.raises(ControlPlaneError, match="hot-swap"):
            plane.update_routes("rt", routes_of(plane)[:-1] + ["9.0.0.0/8 7"])

    def test_batch_staging_is_all_or_nothing(self):
        """One bad element in a multi-element delta: the good one must
        not be half-applied."""
        _, plane, _ = build_plane()
        from repro.graph.diff import ElementChange, GraphDelta

        graph = plane.router.graph
        good = ElementChange(
            "rt", "LookupIPRoute", "LookupIPRoute",
            graph.elements["rt"].config, graph.elements["rt"].config,
        )
        bad = ElementChange(
            "c0", "Classifier", "Classifier",
            graph.elements["c0"].config, "totally/bogus rules",
        )
        before_routes = plane.router.elements["rt"].routes
        with pytest.raises(ControlPlaneError):
            plane.apply(GraphDelta(changed=[good, bad]))
        assert plane.router.elements["rt"].routes == before_routes

    def test_unknown_element_rejected(self):
        _, plane, _ = build_plane()
        with pytest.raises(ControlPlaneError, match="no element named"):
            plane.update_routes("nope", ["1.0.0.0/8 1"])


class TestStructural:
    def spliced_graph(self, plane):
        graph = plane.router.graph.copy()
        graph.add_element("xcount", "Counter", None)
        # Splice onto a forwarding output (port 0 is the host path,
        # which the evaluation traffic never takes).
        conn = next(
            c for c in graph.connections if c.from_element == "rt" and c.from_port == 1
        )
        graph.remove_connection(conn)
        graph.add_connection(conn.from_element, conn.from_port, "xcount", 0)
        graph.add_connection("xcount", 0, conn.to_element, conn.to_port)
        return graph

    def test_structural_update_scoped_swap(self):
        """A structural update changes the live router in place: the
        same router, its untouched elements the same objects with their
        state, the chains that held the rewired ``rt`` emitted again,
        the others kept, and traffic runs through the new element."""
        testbed, plane, devices = build_plane()
        old = plane.router
        drive(testbed, plane, devices, 32)
        elements = dict(old.elements)
        table = dict(old["arpq0"].table)
        report = plane.apply(self.spliced_graph(plane))
        assert report.kind == "scoped-swap"
        assert report.chains_reused > 0
        assert report.chains_emitted > 0
        assert list(report.phases) == ["diff", "validate", "build", "transfer", "compile", "commit"]
        assert plane.router is old
        assert "xcount" in plane.router.elements
        assert all(plane.router.elements[name] is element for name, element in elements.items())
        assert not report.transferred  # nothing was replaced
        assert old["arpq0"].table == table and table
        assert drive(testbed, plane, devices, 32, start=32) > 0
        assert plane.router["xcount"].count > 0

    def test_history_and_batch(self):
        _, plane, _ = build_plane()
        reports = plane.apply_batch(
            [plane.router.graph.copy(), self.spliced_graph(plane)]
        )
        assert [report.kind for report in reports] == ["no-op", "scoped-swap"]
        assert [report.kind for report in plane.history] == ["no-op", "scoped-swap"]

    def test_failed_swap_keeps_old_router(self):
        _, plane, _ = build_plane()
        old = plane.router
        graph = plane.router.graph.copy()
        graph.add_element("dangling", "Counter", None)  # unconnected ports
        with pytest.raises(ControlPlaneError, match="old router still serving"):
            plane.apply(graph)
        assert plane.router is old and "dangling" not in old.elements


#: The stock IP router with one named Counter inserted before ``dt0``.
PROBE_EDIT = ("gio0 -> FixIPSrc@8 -> dt0;", "gio0 -> FixIPSrc@8 -> cnt0 :: Counter -> dt0;")


def probe_text(router):
    text = save_config(router.graph)
    assert PROBE_EDIT[0] in text
    return text.replace(*PROBE_EDIT)


def chain_state(router):
    """Every compiled flavor's chain records and code objects, by key."""
    engine = router.engine
    if engine is None:
        return {}
    return {
        (flavor.policy.tag, key): (chain, chain.code)
        for flavor in (engine.tier1, engine.profiled)
        if flavor is not None
        for key, chain in flavor.chains.items()
    }


def transmitted(devices):
    return {name: [bytes(frame) for frame in device.transmitted] for name, device in devices.items()}


def assert_chains_add_up(report, router):
    """Recompiled, re-linked, reused and deferred chains add up to the
    compiled flavors' chain edges after the update."""
    flavors = router.engine.flavors()
    counts = (report.chains_emitted, report.chains_relinked, report.chains_reused, report.chains_deferred)
    assert sum(counts) == sum(len(flavor._chain_edges()) for flavor in flavors), counts
    assert report.as_dict()["chains_deferred"] == report.chains_deferred
    assert "%d reused, %d deferred" % counts[2:] in report.format()


class TestStructuralInPlace:
    def warmed(self, profile, frames=2000):
        testbed = Testbed(2)
        router, devices = testbed.build_router(testbed.variant_graph("base"), profile=profile)
        plane = ControlPlane(router)
        drive(testbed, plane, devices, frames)
        return testbed, plane, devices

    def test_the_probe_update_re_emits_only_stale_chains(self):
        """A warmed ``fdd`` router with ``cnt0 :: Counter`` inserted
        before ``dt0``: only the chains whose records hold an element the
        edit rewired (``FixIPSrc@8``, whose output moved, and the new
        ``cnt0``) are emitted again; every other chain keeps its record
        and code object, by identity.  A whole new router built from the
        same text emitted 82 of the flavors' 120 chains."""
        testbed, plane, devices = self.warmed(ExecutionProfile.fdd())
        router = plane.router
        before = chain_state(router)
        edges = sum(len(flavor._compiled) for flavor in (router.engine.tier1, router.engine.profiled))
        report = plane.apply(probe_text(router))
        assert plane.router is router and report.kind == "scoped-swap"
        assert 0 < report.chains_emitted < 82
        after = chain_state(router)
        rewired = {"FixIPSrc@8", "cnt0"}
        kept = 0
        for key, (chain, code) in before.items():
            if chain.elements & rewired:
                assert after.get(key, (None,))[0] is not chain, key
            else:
                assert after[key][0] is chain and after[key][1] is code, key
                kept += 1
        assert kept == report.chains_reused
        emitted = [key for key, (chain, _code) in after.items() if before.get(key, (None,))[0] is not chain]
        assert len(emitted) == report.chains_emitted
        assert all(before[key][0].elements & rewired for key in emitted)
        # The chains nothing had entered, and cnt0's new edges, wait
        # for their first packet.
        assert report.chains_deferred == edges - kept - len(emitted) + 2
        assert_chains_add_up(report, router)
        sent = sum(len(device.transmitted) for device in devices.values())
        assert drive(testbed, plane, devices, 64, start=2000) > sent
        assert router["cnt0"].count > 0

    @pytest.mark.parametrize(
        "mode, failure, install",
        [
            (mode, failure, install)
            for install in ("update", "hotswap")
            for mode, failure in [
                ("reference", "configure"),
                ("fast", "configure"),
                ("fdd", "configure"),
                ("fast", "emission"),
                ("fdd", "emission"),
            ]
        ]
        + [("fdd", "emission", "rules-patch"), ("fdd", "compile", "rules-patch")],
    )
    def test_a_failed_update_leaves_the_router_as_its_twin(self, mode, failure, install, monkeypatch):
        """An update, a hot-swap or a rules patch that fails — a new
        element whose ``configure`` raises, or a stale live chain whose
        emission or ``compile()`` raises (in ``reference`` mode nothing
        is emitted) — raises :class:`ControlPlaneError`
        (:class:`HotswapError` from ``hotswap``) and leaves the router as
        a twin that never saw it: the same elements and wiring, the same
        chain records and code objects, and after more traffic the same
        bytes on the wire and the same read handlers.  The rules patch
        narrows ``c0``, so its diagram changes shape and the live chain
        that inlines it is emitted and compiled in the stage, before the
        new tree is live."""
        profile = getattr(ExecutionProfile, mode)()
        testbed, plane, devices = self.warmed(profile, 512)
        _testbed, twin_plane, twin_devices = self.warmed(profile, 512)
        router = plane.router
        elements, graph = dict(router.elements), router.graph
        wiring = {name: wiring_of(element) for name, element in elements.items()}
        records = chain_state(router)
        text = probe_text(router)
        trees = {name: element.tree for name, element in elements.items() if hasattr(element, "tree")}
        if install == "rules-patch":
            rules = split_config_args(graph.elements["c0"].config)
            rules[0] = "12/0806 20/0001 28/0a000001"
            text = save_config(graph).replace(graph.elements["c0"].config, ", ".join(rules))
        if failure == "configure":
            def configure(self, args):
                raise ValueError("injected configure failure")

            monkeypatch.setattr(Counter, "configure", configure)
        elif failure == "compile":
            default_cache().clear()

            def compile_chain(lines):
                raise IndentationError("injected: too many levels of indentation")

            monkeypatch.setattr(fastpath, "compile_chain", compile_chain)
        else:
            assert records
            real = FastPath._emit_chain

            def emit_chain(self, key, *args):
                if self.router is not router or self.installed and install != "rules-patch":
                    return real(self, key, *args)
                raise RuntimeError("injected emitter bug")

            monkeypatch.setattr(FastPath, "_emit_chain", emit_chain)
        if install != "hotswap":
            with pytest.raises(ControlPlaneError, match="injected"):
                plane.apply(text)
        else:
            with pytest.raises(HotswapError, match="injected"):
                hotswap(router, text)
        monkeypatch.undo()
        assert plane.router is router and router.graph is graph and router.elements == elements
        assert {name: wiring_of(element) for name, element in router.elements.items()} == wiring
        assert {name: wiring_of(element) for name, element in twin_plane.router.elements.items()} == wiring
        after = chain_state(router)
        assert after.keys() == records.keys()
        assert all(after[key][0] is chain and after[key][1] is code for key, (chain, code) in records.items())
        assert all(router.elements[name].tree is tree for name, tree in trees.items())
        drive(testbed, plane, devices, 256, start=512)
        drive(testbed, twin_plane, twin_devices, 256, start=512)
        assert transmitted(devices) == transmitted(twin_devices)
        assert read_counters(router) == read_counters(twin_plane.router)

    @pytest.mark.parametrize("install", ["update", "hotswap"])
    def test_a_structural_update_keeps_the_runtime_totals(self, install):
        """A supervised ``fdd`` router that has promoted, deoptimized,
        rebuilt a diagram and contained a chain error keeps all of it
        across a structural update, and across a hot-swap that renews
        every element: ``plane.router`` is the same object, so are its
        engine and supervisor, the engine's ``recompiles`` reads what it
        did, ``diagram_rebuilds`` stands — a hot-swap renews the
        classifiers but not their rules, so each plan is kept, the same
        object — its deopt log gains the install's one reason, and the
        supervisor's ``chain_errors`` stands."""
        testbed = Testbed(2)
        router, devices = testbed.build_router(testbed.variant_graph("base"), profile=ExecutionProfile.reference())
        injector = FaultInjector(FaultPlan([{"kind": "element_error", "element": "dt0", "after": 40}]))
        injector.prepare_router(router)
        eager = AdaptiveConfig(threshold=64, min_samples=8, sample=4)
        router.configure(ExecutionProfile.fdd(config=eager).with_supervision())
        plane = ControlPlane(router)
        drive(testbed, plane, devices, 1024)
        router.force_deopt()
        plane.update_rules("c0", split_config_args(router.graph.elements["c0"].config)[::-1])
        drive(testbed, plane, devices, 1024, start=1024)
        engine, supervisor = router.engine, router.supervisor
        totals = (engine.recompiles, engine.diagram_rebuilds, list(engine.deopts))
        errors = supervisor.report().totals["chain_errors"]
        assert totals[0] > 0 and totals[1] > 0 and len(totals[2]) >= 2 and errors == 1

        elements, plans = dict(router.elements), dict(engine.tier1.policy.plans)
        if install == "update":
            report = plane.apply(probe_text(router))
        else:
            report = hotswap(router, probe_text(router))
            assert not any(router.elements[name] is element for name, element in elements.items())
            assert set(report.transferred) >= {"c0", "rt", "arpq0", "out0"}
            assert report.chains_emitted > 0 and report.chains_reused == report.chains_relinked == 0
        assert report.kind == "scoped-swap" and plane.router is router
        assert router.engine is engine and router.supervisor is supervisor
        assert_chains_add_up(report, router)
        assert (engine.recompiles, engine.diagram_rebuilds) == totals[:2]
        assert engine.tier1.policy.plans == plans and all(
            engine.tier1.policy.plans[name] is plan for name, plan in plans.items()
        )
        assert engine.deopts == totals[2] + ["structural update"]
        assert supervisor.report().totals["chain_errors"] == errors
        drive(testbed, plane, devices, 256, start=2048)
        assert router["cnt0"].count > 0


@pytest.mark.parametrize("mode", ["fast", "fdd"])
def test_a_commit_emits_and_compiles_nothing(mode, monkeypatch):
    """A commit raises nothing, so it runs nothing that can: with
    ``FastPath._emit_chain``, ``compile()`` and the matcher memo
    (``compiled_function_for``, which generates a tree's source) made
    to raise while ``ControlPlane.commit_patch`` and
    ``AdaptiveEngine.commit_update`` run, a rules patch that narrows
    ``c0`` (its matcher's successor, under ``fdd`` its diagram's live
    chain) and a structural insert both commit, from a cold chain
    store: their stages did all of it."""
    import builtins

    from repro.elements import classifiers
    from repro.runtime.adaptive import AdaptiveEngine

    testbed, plane, devices = build_plane(getattr(ExecutionProfile, mode)())
    drive(testbed, plane, devices, 512)
    router = plane.router

    def refuse(*args, **kwargs):
        raise AssertionError("emitted or compiled inside a commit")

    def refusing(commit):
        def wrapped(*args, **kwargs):
            with pytest.MonkeyPatch.context() as inside:
                inside.setattr(FastPath, "_emit_chain", refuse)
                inside.setattr(builtins, "compile", refuse)
                inside.setattr(classifiers, "compiled_function_for", refuse)
                return commit(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(ControlPlane, "commit_patch", refusing(ControlPlane.commit_patch))
    monkeypatch.setattr(AdaptiveEngine, "commit_update", refusing(AdaptiveEngine.commit_update))
    default_cache().clear()
    rules = split_config_args(router.graph.elements["c0"].config)
    rules[0] = "12/0806 20/0001 28/0a000001"
    report = plane.update_rules("c0", rules)
    assert report.kind == "in-place" and report.chains_emitted == (mode == "fdd")
    report = plane.apply(probe_text(router))
    assert report.kind == "scoped-swap" and report.chains_emitted > 0
    monkeypatch.undo()
    sent = sum(len(device.transmitted) for device in devices.values())
    assert drive(testbed, plane, devices, 64, start=512) > sent


#: Structural edits of the stock IP router text: ``(old, new)`` pairs.
EDITS = {
    "pull-path insert": [("-> [0] arpq0 -> out0 -> td0;", "-> [0] arpq0 -> out0 -> pc :: Counter -> td0;")],
    "queue capacity": [("out1 :: Queue(64);", "out1 :: Queue(8);")],
    "task renamed": [("PollDevice(eth0) -> c0;", "pd0 :: PollDevice(eth0) -> c0;")],
    "classifier output added": [
        ("12/0806 20/0002, 12/0800, -);", "12/0806 20/0002, 12/0800, 12/86dd, -);"),
        ("c0 [3] -> Discard;", "c0 [3] -> Discard; c0 [4] -> Discard;"),
    ],
    "routes and an insert": [
        ("1.0.0.0/8 1, 2.0.0.0/8 2);", "2.0.0.0/8 2, 1.0.0.0/8 1);"),
        ("-> dt1 :: DecIPTTL", "-> xc :: Counter -> dt1 :: DecIPTTL"),
    ],
}


@pytest.mark.parametrize("edit", list(EDITS))
def test_an_edit_in_place_shows_what_a_hot_swap_shows(edit):
    """A structural edit installed in place, a third of the way into
    the stock trace, and undone two thirds in, transmits and counts what
    the same two configurations installed as whole-text hot-swaps do, in
    the reference interpreter and under ``fdd``: an edit on the pull
    side, a replaced queue, a replaced task, a classifier that gains an
    output, and a rules change beside an insert."""
    from repro.verify.genconfig import stock_cases
    from repro.verify.oracle import run_case

    base = stock_cases(events_count=96)[0]
    text = base["config"]
    for old, new in EDITS[edit]:
        assert old in text
        text = text.replace(old, new, 1)
    sent = {}
    for kind in ("update", "hotswap"):
        events = list(base["events"])
        events.insert(2 * len(events) // 3, [kind, base["config"]])
        events.insert(len(events) // 3, [kind, text])
        for mode in ("reference", "fdd"):
            status, observed = run_case(dict(base, events=events), mode)
            assert status == "ok", observed
            sent[kind, mode] = observed
    assert all(seen == sent["update", "reference"] for seen in sent.values())
    assert sum(map(len, sent["update", "reference"]["transmitted"].values())) > 0


class TestCli:
    def write_config(self, tmp_path):
        from repro.core.toolchain import save_config

        testbed = Testbed(2)
        path = tmp_path / "router.click"
        path.write_text(save_config(testbed.variant_graph("base")))
        return path

    def test_routes_patch_and_json(self, tmp_path, capsys):
        from repro.control.cli import main

        path = self.write_config(tmp_path)
        config = path.read_text()
        rt_config = next(
            line for line in config.splitlines() if line.startswith("rt ::")
        )
        table = rt_config[rt_config.index("(") + 1 : rt_config.rindex(")")]
        status = main([str(path), "--routes", "rt=%s" % table, "--json"])
        assert status == 0
        [entry] = json.loads(capsys.readouterr().out)
        assert entry["kind"] == "in-place"
        assert entry["update"] == "routes rt"

    def test_diff_only(self, tmp_path, capsys):
        from repro.control.cli import main

        path = self.write_config(tmp_path)
        update = tmp_path / "update.click"
        update.write_text(path.read_text().replace("Queue(64)", "Queue(32)"))
        status = main([str(path), "--update", str(update), "--diff-only"])
        assert status == 0
        assert "pure-data" in capsys.readouterr().out

    def test_rejected_update_exits_nonzero(self, tmp_path, capsys):
        from repro.control.cli import main

        path = self.write_config(tmp_path)
        status = main([str(path), "--routes", "rt=999.999.0.0/16 0"])
        assert status == 1
        assert "REJECTED" in capsys.readouterr().out

    def test_console_script_entry(self):
        from repro.core.cli import update_main

        with pytest.raises(SystemExit):
            update_main(["--help"])
