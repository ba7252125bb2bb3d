"""FDD mode (repro.runtime.fdd): diagram construction from classifier
trees, plan emission, profile-ordered tests, the engine's tier
lifecycle, control-plane repatching, and supervised demotion."""

import pytest

from repro.classifier.language import compile_patterns
from repro.classifier.optimize import optimize
from repro.runtime import ExecutionProfile
from repro.runtime.adaptive import AdaptiveConfig, AdaptiveEngine
from repro.runtime.fastpath import FastOutputPort
from repro.runtime.fdd import (
    DEFAULT_NODE_BUDGET,
    build_diagram,
    classifier_hot_path,
    diagram_pass,
)
from repro.sim.testbed import Testbed

EAGER = dict(threshold=48, sample=4, min_samples=12)


def _tree(patterns):
    return optimize(compile_patterns(patterns))


def _matcher(plan):
    """Compile a plan into a callable the way the chain compiler does,
    with leaves returning their output (None = drop)."""

    def leaf(leaf_id, out, pad):
        return [pad + "return %r" % (out,)]

    lines = ["def match(data):"]
    lines += plan.emit("data", "    ", leaf)
    namespace = {}
    exec("\n".join(lines), namespace)  # noqa: S102 - test harness
    return namespace["match"]


# -- ExecutionProfile.fdd (satellite: profile surface) -----------------------


def test_profile_fdd_constructor_and_label():
    profile = ExecutionProfile.fdd()
    assert profile.mode == "fdd"
    assert profile.label == "fdd"
    assert ExecutionProfile.fdd().with_supervision().label == "fdd+supervised"


def test_profile_fdd_round_trips_as_dict():
    profile = ExecutionProfile.fdd(config=AdaptiveConfig(**EAGER))
    summary = profile.as_dict()
    assert summary["mode"] == "fdd"
    assert summary["batch"] is False
    assert summary["adaptive"] is True
    rebuilt = ExecutionProfile(mode=summary["mode"], batch=summary["batch"])
    assert rebuilt.label == profile.label


def test_profile_rejects_unknown_mode():
    with pytest.raises(ValueError):
        ExecutionProfile(mode="fdd-turbo")


# -- build_diagram -----------------------------------------------------------


def test_constant_tree_is_single_leaf():
    plan = build_diagram(_tree(["-"]))
    assert plan.nodes == 0
    assert plan.paths == 1
    assert plan.gate == 0
    assert plan.leaves() == [(0, 0)]


def test_none_tree_has_no_plan():
    assert build_diagram(None) is None


def test_budget_fallback_returns_none():
    tree = _tree(["12/0800", "12/0806", "-"])
    assert build_diagram(tree, node_budget=0) is None
    assert build_diagram(tree) is not None


def test_gate_covers_every_load():
    tree = _tree(["12/0800", "12/0806", "-"])
    plan = build_diagram(tree)
    # The widest read ends at byte 14; shorter packets must take the
    # zero-padding matcher instead.
    assert plan.gate == 14


def test_shared_location_loads_once():
    # Three full-word rules on the same word: the second and third tests
    # reuse the first's local.
    plan = build_diagram(_tree(["0/00000000", "0/00000001", "-"]))
    assert plan.loads_saved >= 1
    lines = plan.emit("data", "", lambda leaf_id, out, pad: [pad + "pass"])
    loads = [line for line in lines if "= data[0:4]" in line]
    assert len(loads) == 1


def test_diagram_matches_tree_on_random_frames():
    import random

    rng = random.Random(7)
    patterns = ["12/0800 23/11", "12/0800 23/06", "12/0806", "-"]
    tree = _tree(patterns)
    plan = build_diagram(tree)
    match = _matcher(plan)
    for _ in range(200):
        length = rng.randrange(plan.gate, 40)
        data = bytes(rng.randrange(256) for _ in range(length))
        assert match(data) == tree.match(data)
    # ...and on frames crafted to hit each rule.
    ip = b"\x00" * 12 + b"\x08\x00" + b"\x00" * 9 + b"\x11" + b"\x00" * 10
    arp = b"\x00" * 12 + b"\x08\x06" + b"\x00" * 20
    assert match(ip) == tree.match(ip) == 0
    assert match(arp) == tree.match(arp) == 2


def test_hot_path_orients_the_fall_through():
    tree = _tree(["12/0800", "12/0806", "-"])
    arp = b"\x00" * 12 + b"\x08\x06" + b"\x00" * 6
    hot_out = tree.match(arp)
    path = classifier_hot_path(tree, hot_out, arp)
    assert path  # the exemplar really reaches its output
    plan = build_diagram(tree, hot_path=dict(path))
    # The first leaf in emission order is the hot flow's: every test on
    # the hot path emits with that side as the fall-through.
    assert plan.leaves()[0][1] == hot_out
    # Orientation never changes semantics.
    match = _matcher(plan)
    straight = _matcher(build_diagram(tree))
    for data in (arp, b"\x00" * 12 + b"\x08\x00" + b"\x00" * 6, b"\xff" * 20):
        assert match(data) == straight(data) == tree.match(data)


def test_hot_path_rejects_wrong_output():
    tree = _tree(["12/0800", "12/0806", "-"])
    arp = b"\x00" * 12 + b"\x08\x06" + b"\x00" * 6
    assert classifier_hot_path(tree, 0, arp) == ()
    assert classifier_hot_path(tree, 2, None) == ()


# -- engine lifecycle --------------------------------------------------------


def _fdd_testbed(packets=512, config=None, supervised=False):
    testbed = Testbed(2)
    profile = ExecutionProfile.fdd(config=config or AdaptiveConfig(**EAGER))
    if supervised:
        profile = profile.with_supervision()
    router, devices = testbed.build_router(testbed.variant_graph("base"), profile=profile)
    for device_name, frame in testbed.evaluation_frames(packets):
        devices[device_name].receive_frame(frame)
    router.run_tasks(packets)
    return testbed, router, devices


def test_fdd_engine_compiles_diagrams_and_promotes():
    _, router, _ = _fdd_testbed()
    engine = router.adaptive
    report = engine.diagram_report()
    assert report["mode"] == "fdd"
    assert report["node_budget"] == DEFAULT_NODE_BUDGET
    assert report["totals"]["diagrams"] == 2  # c0 and c1
    assert report["budget_fallbacks"] == []
    assert report["tier1"]["fdd_diagrams"] > 0
    # The eager thresholds promote the hot chains; tier 2 re-emits the
    # diagrams with profile-ordered tests.
    chains = engine.profile_report().as_dict()["chains"]
    assert any(chain["tier"] == 2 for chain in chains.values())
    assert report["tier2"] is not None
    assert report["tier2"]["fdd_diagrams"] > 0


def test_one_diagram_pass_per_build(monkeypatch):
    """A tier-1 build runs the pass once, for the plain flavor; tier 2
    runs its own, ordered by the profile.  A rules repatch runs no pass:
    it builds the patched classifier's plan alone and keeps every other
    plan, the same object — and that one too where its rules come out
    as the tree the plan was built from.  The profiled flavor has no plans to rebuild:
    one object from construction on, whatever is patched."""
    from repro.control import ControlPlane
    from repro.runtime import adaptive

    passes, built = [], []

    def counting(router, node_budget, decisions=None, exemplars=None):
        passes.append("tier 1" if decisions is None else "tier 2")
        return diagram_pass(router, node_budget, decisions, exemplars)

    def building(tree, **kwargs):
        built.append(tree)
        return build_diagram(tree, **kwargs)

    monkeypatch.setattr(adaptive, "diagram_pass", counting)
    monkeypatch.setattr(adaptive, "build_diagram", building)
    _, router, _ = _fdd_testbed()
    engine = router.adaptive
    profiled = engine.profiled
    assert engine.tier2_fp is not None
    assert passes == ["tier 1", "tier 2"]
    plans = engine.tier1.policy.plans
    assert set(plans) == {"c0", "c1"} and profiled.policy.plans is None
    rules = _rules_of(router, "c0")
    ControlPlane(router).update_rules("c0", rules)
    # the same rules again: the live tree has the plan's signature
    assert passes == ["tier 1", "tier 2"] and not built and engine.tier1.policy.plans["c0"] is plans["c0"]
    ControlPlane(router).update_rules("c0", rules[::-1])
    assert passes == ["tier 1", "tier 2"] and built == [router.find("c0").tree]
    assert set(engine.tier1.policy.plans) == {"c0", "c1"} and engine.profiled is profiled
    assert engine.tier1.policy.plans["c1"] is plans["c1"]
    assert not profiled.report.fdd_diagrams


@pytest.mark.parametrize("mode, batch", [("fast", False), ("fast", True), ("fdd", False)])
def test_every_compiled_mode_is_the_one_engine(mode, batch):
    """A mode is a profile handed to the one engine class, not a class
    of its own: ``fast`` is tier 1 installed and left alone, the
    diagram pass runs under ``fdd`` only."""
    testbed = Testbed(2)
    profile = ExecutionProfile(mode=mode, batch=batch)
    router, _ = testbed.build_router(testbed.variant_graph("base"), profile=profile)
    engine = router.engine
    assert type(engine) is AdaptiveEngine
    assert engine.profile_report().mode == mode
    totals = engine.diagram_report()["totals"]
    assert totals["diagrams"] == (2 if mode == "fdd" else 0)
    if mode != "fdd":
        assert not any(totals.values())
    if mode == "fast":
        assert engine.profiled is None and engine.states == {}
        ports = [
            (("push", name, index), port)
            for name, element in router.elements.items()
            for index, port in enumerate(element._output_ports)
            if isinstance(port, FastOutputPort)
        ]
        assert ports
        for key, port in ports:  # no dispatcher hop
            assert port.push is engine.tier1.function_for(key)
        assert engine.commit_update(engine.stage_update(()), {"rt": "routes"}) == []
    else:
        assert engine.profiled is not None and engine.states
    # Supervising an equal profile keeps the engine (a batch one compiles
    # the scalar task units); the top of every task's tier ladder is
    # named after the mode.
    router.configure(profile.with_supervision())
    assert (router.engine is engine) == (not batch)
    assert {guard.tiers[0] for guard in router.supervisor.guards.values()} == {mode}


def test_fdd_forwards_identically_to_reference():
    testbed = Testbed(2)
    router, devices = testbed.build_router(testbed.variant_graph("base"))
    for device_name, frame in testbed.evaluation_frames(512):
        devices[device_name].receive_frame(frame)
    router.run_tasks(512)
    reference = {name: list(d.transmitted) for name, d in devices.items()}
    _, _, devices = _fdd_testbed(512)
    assert {name: list(d.transmitted) for name, d in devices.items()} == reference


def test_profile_report_labels_fdd_mode():
    _, router, _ = _fdd_testbed(64)
    assert router.adaptive.profile_report().as_dict()["mode"] == "fdd"


# -- control-plane patching --------------------------------------------------


def _rules_of(router, name):
    from repro.lang.lexer import split_config_args

    return split_config_args(router.graph.elements[name].config)


def test_rules_patch_repatches_in_place():
    from repro.control import ControlPlane

    testbed, router, devices = _fdd_testbed()
    plane = ControlPlane(router)
    engine = router.adaptive
    before = sum(len(d.transmitted) for d in devices.values())
    respaced = _rules_of(router, "c0")
    respaced[0] = respaced[0].replace(" ", "  ")  # another text of the same tree
    report = plane.update_rules("c0", respaced)
    assert report.kind == "in-place"
    assert plane.router is router  # no new router generation
    assert engine.diagram_rebuilds == 0  # the same tree: c0's plan is kept
    assert "control-plane patch of c0" in engine.profile_report().as_dict()["deopts"]
    narrowed = _rules_of(router, "c0")
    narrowed[0] = "12/0806 20/0001 28/0a000001"
    assert plane.update_rules("c0", narrowed).kind == "in-place"
    assert engine.diagram_rebuilds == 1
    # The rebuilt diagrams keep forwarding.
    for device_name, frame in testbed.evaluation_frames(128):
        devices[device_name].receive_frame(frame)
    router.run_tasks(128)
    assert sum(len(d.transmitted) for d in devices.values()) > before


def test_rules_patch_changes_live_dispatch():
    """Narrowing c0 to ARP-only really drops the IP flow: the patched
    tree is live inside the rebuilt diagrams, not just in the graph."""
    from repro.control import ControlPlane

    testbed, router, devices = _fdd_testbed()
    plane = ControlPlane(router)
    rules = _rules_of(router, "c0")
    # Stock order: ARP request, ARP reply, IP, catch-all.  Point the IP
    # arm at the catch-all pattern so IP traffic from eth0 is discarded.
    narrowed = list(rules)
    narrowed[2] = "12/0805"
    report = plane.update_rules("c0", narrowed)
    assert report.kind == "in-place"
    before = sum(len(d.transmitted) for d in devices.values())
    for device_name, frame in testbed.evaluation_frames(128):
        devices[device_name].receive_frame(frame)
    router.run_tasks(128)
    # eth0's IP flow (even sequence numbers) no longer forwards; eth1's
    # does — some but not all of the traffic gets through.
    delta = sum(len(d.transmitted) for d in devices.values()) - before
    assert 0 < delta < 128


def test_route_patch_still_deopts():
    """A route patch that sends the hot destination through a gateway
    falsifies the constant tier 2 baked from ``rt``: it deopts, and the
    chains climb again onto a tier 2 that bakes the gateway.  No plan
    is built again: compiled lookups read the live table."""
    from repro.control import ControlPlane
    from repro.lang.lexer import split_config_args
    from repro.net.addresses import IPAddress

    testbed, router, devices = _fdd_testbed()
    engine, plane = router.adaptive, ControlPlane(router)
    raw, gateway, port = engine.tier2_fp.policy.decisions.route["rt"]["hot"]
    assert gateway is None
    host = IPAddress(raw)
    via = IPAddress((raw & 0xFF000000) | 9)
    routes = split_config_args(router.graph.elements["rt"].config)
    plane.update_routes("rt", ["%s/32 %s %d" % (host, via, port)] + routes)
    assert engine.diagram_rebuilds == 0
    assert engine.deopts == ["control-plane patch of rt: %s → port %d via %s" % (host, port, via)]
    assert engine.tier2_fp is None
    for device_name, frame in testbed.evaluation_frames(1024)[512:]:
        devices[device_name].receive_frame(frame)
    router.run_tasks(512)
    assert any(state.tier == 2 for state in engine.states.values())
    assert engine.tier2_fp.policy.decisions.route["rt"]["hot"] == (raw, via.value, port)


def test_repatch_survives_supervision():
    """A rules patch swaps new code under the functions a supervisor pin
    holds, so the pins stand: with eth0's poll task pinned to ``fast``
    and eth1's to ``reference``, a ``c0`` patch that drops eth0's IP
    traffic leaves both pinned, the ``fast`` pin runs the patched chain,
    and the wire carries what the reference interpreter sends for the
    same traffic and patch."""
    from repro.control import ControlPlane
    from repro.runtime.supervisor import SupervisorConfig

    testbed = Testbed(2)
    traffic = testbed.evaluation_frames(512)
    # No clean streak climbs a pinned task back within the run.
    calm = SupervisorConfig(backoff=1 << 20, backoff_limit=1 << 20)
    profiles = {
        "reference": ExecutionProfile.reference(),
        "fdd": ExecutionProfile.fdd(config=AdaptiveConfig(**EAGER)).with_supervision(calm),
    }
    wires = {}
    for label, profile in profiles.items():
        router, devices = testbed.build_router(testbed.variant_graph("base"), profile=profile)
        for device_name, frame in traffic[:256]:
            devices[device_name].receive_frame(frame)
        router.run_tasks(256)
        if label == "fdd":
            engine, guards = router.adaptive, router.supervisor.guards
            polls = {task._output_ports[0].target.name: task for task in router.tasks if task.name in guards
                     and task._output_ports and task._output_ports[0].target.name in ("c0", "c1")}
            for failures, task in ((1, polls["c0"]), (2, polls["c1"])):
                for _ in range(failures):
                    guards[task.name].fail(RuntimeError("pinned by the test"))
            key = ("push", polls["c0"].name, 0)
            pinned = polls["c0"]._output_ports[0].push
            assert pinned is engine.tier1.function_for(key)
            code = pinned.__code__
        narrowed = _rules_of(router, "c0")
        narrowed[2] = "12/0805"  # eth0's IP arm now matches nothing it is sent
        assert ControlPlane(router).update_rules("c0", narrowed).kind == "in-place"
        if label == "fdd":
            assert {task.name: engine.pins[task][0] for task in polls.values()} == {
                polls["c0"].name: 1, polls["c1"].name: 2,
            }
            assert polls["c0"]._output_ports[0].push is pinned and pinned.__code__ is not code
            assert pinned.__code__.co_name == engine.tier1.chains[key].function_name
        for device_name, frame in traffic[256:]:
            devices[device_name].receive_frame(frame)
        router.run_tasks(256)
        wires[label] = {name: list(device.transmitted) for name, device in devices.items()}
    assert wires["fdd"] == wires["reference"]
    assert 256 < sum(len(frames) for frames in wires["fdd"].values()) < 512


# -- supervised demotion -----------------------------------------------------


def test_supervised_fdd_tier_ladder():
    """Under supervision the dynamic tier is labelled fdd: a faulting
    element demotes fdd -> fast -> reference, and the wire stays
    byte-identical to an unsupervised reference run."""
    from repro.elements import Router
    from repro.elements.devices import LoopbackDevice
    from repro.lang.build import parse_graph
    from repro.sim.faults import FaultInjector, FaultPlan

    pipe = (
        "src :: PollDevice(eth0); c :: Counter; q :: Queue(8); "
        "dst :: ToDevice(eth1); src -> c -> q -> dst;"
    )

    def build(mode, faults=None):
        devices = {
            "eth0": LoopbackDevice("eth0"),
            "eth1": LoopbackDevice("eth1", tx_capacity=1 << 20),
        }
        injector = None
        if faults:
            injector = FaultInjector(FaultPlan(faults=faults))
            devices = injector.wrap_devices(devices)
        router = Router(parse_graph(pipe), devices=devices)
        if injector is not None:
            injector.prepare_router(router)
        router.configure(ExecutionProfile(mode=mode).with_supervision())
        return router, devices

    faults = [{"kind": "element_error", "element": "c", "after": 0, "count": 2}]
    router, devices = build("fdd", faults=faults)
    guard = router.supervisor.guards["src"]
    assert list(guard.tiers) == ["fdd", "fast", "reference"]
    for index in range(4):
        devices["eth0"].receive_frame(b"frame-%02d" % index)
    router.run_tasks(4)
    assert guard.errors == 2
    assert guard.demotions == 2
    assert guard.tier == "reference"
    # The two faulted packets drop at the boundary; 3 and 4 forward.
    assert len(devices["eth1"].transmitted) == 2


# -- diagrams deeper than Python can compile ---------------------------------


def _filter_text(rules):
    return "PollDevice(eth0) -> Strip(14) -> fw :: IPFilter(%s) -> Unstrip(14) -> Queue(64) -> ToDevice(eth1);" % (
        ", ".join(rules)
    )


def _denying(count):
    """``count`` rules: deny ``10.0.0.1`` and up, then allow the rest."""
    return ["deny src host 10.0.%d.%d" % divmod(i + 1, 250) for i in range(count - 1)] + ["allow all"]


def _filter_router(rules, profile):
    from repro.core.toolchain import load_config
    from repro.elements.devices import LoopbackDevice
    from repro.elements.runtime import build_router

    devices = {name: LoopbackDevice(name, tx_capacity=1 << 30) for name in ("eth0", "eth1")}
    return build_router(load_config(_filter_text(rules), "<filter>"), devices=devices, profile=profile), devices


def _from(router, devices, source, count=64):
    """How many of ``count`` frames from ``source`` the filter forwards."""
    from repro.net.headers import build_ether_udp_packet

    before = len(devices["eth1"].transmitted)
    for sequence in range(count):
        frame = build_ether_udp_packet(
            "00:00:00:00:00:01", "00:00:00:00:00:02", source, "192.168.1.5", 1000 + sequence % 7, 53, b"x" * 20
        )
        devices["eth0"].receive_frame(frame)
    router.run_tasks(count)
    return len(devices["eth1"].transmitted) - before


def test_a_diagram_deeper_than_python_compiles_keeps_the_matcher():
    """A 120-rule filter's deepest path tests every rule: past the depth
    ``compile()`` accepts (95 rules compiled, 100 did not), so the
    filter has no plan and keeps the generic matcher emission, which
    spills deep subtrees into helpers.  A fresh ``fdd`` build enters
    every chain without a failure and forwards what the reference
    interpreter does."""
    from repro.classifier.ipfilter import compile_filter_rules

    assert build_diagram(optimize(compile_filter_rules(_denying(120)))) is None
    assert build_diagram(optimize(compile_filter_rules(_denying(20)))) is not None
    sent = {}
    for mode in ("reference", "fdd"):
        router, devices = _filter_router(_denying(120), getattr(ExecutionProfile, mode)())
        sent[mode] = [_from(router, devices, source) for source in ("10.0.0.1", "10.0.0.119", "10.0.0.200")]
        if router.engine is not None:
            assert not router.engine.tier1.report.failed_entries
            assert "fw" not in router.engine.tier1.policy.plans
    assert sent["fdd"] == sent["reference"] == [0, 0, 64]


def test_a_rewrite_that_fails_to_compile_rejects_the_patch(monkeypatch):
    """The deep-filter probe, its failure injected: a warmed 20-rule
    ``fdd`` filter patched to 120 rules whose live chain fails to
    compile — as the inlined 120-test diagram did, with a bare
    ``IndentationError`` after the new rules were live — raises
    :class:`ControlPlaneError`, and the router forwards from
    ``10.0.0.1`` as its twin, never patched, does.  Uninjected, the same
    patch commits and drops that host as the reference does."""
    from repro.control import ControlPlane, ControlPlaneError
    from repro.runtime import fastpath
    from repro.runtime.codegen_cache import default_cache

    routers = [_filter_router(_denying(20)[1:], ExecutionProfile.fdd()) for _ in range(2)]
    for router, devices in routers:
        assert _from(router, devices, "10.0.0.1", 256) == 256
    (router, devices), (twin, twin_devices) = routers
    tree = router.find("fw").tree
    default_cache().clear()

    def compile_chain(lines):
        raise IndentationError("too many levels of indentation")

    monkeypatch.setattr(fastpath, "compile_chain", compile_chain)
    with pytest.raises(ControlPlaneError, match="IndentationError"):
        ControlPlane(router).update_rules("fw", _denying(120))
    monkeypatch.undo()
    assert router.find("fw").tree is tree
    assert _from(router, devices, "10.0.0.1") == _from(twin, twin_devices, "10.0.0.1") == 64
    assert ControlPlane(router).update_rules("fw", _denying(120)).kind == "in-place"
    assert _from(router, devices, "10.0.0.1") == 0


def test_a_filter_that_gains_a_plan_rewrites_the_chains_that_read_it():
    """Patched back under the depth bound, a filter gains a plan, so the
    live chain that called its matcher is stale too: it is emitted again
    with the diagram inlined, as a fresh build of the patched text
    emits it (:mod:`tests.chains`), and forwards what the new rules say."""
    from repro.control import ControlPlane

    from ..chains import chain_differences

    router, devices = _filter_router(_denying(120), ExecutionProfile.fdd())
    assert _from(router, devices, "10.0.0.200") == 64 and "fw" not in router.engine.tier1.policy.plans
    report = ControlPlane(router).update_rules("fw", _denying(20)[1:])
    assert "fw" in router.engine.tier1.policy.plans and report.chains_emitted == 1
    assert chain_differences(router) == []
    assert _from(router, devices, "10.0.0.1") == 64 and _from(router, devices, "10.0.0.2") == 0
