"""The fast path compiles what click-optimize emits: combination
elements lower into the general-purpose segments, ``Align`` is inline,
generated subclasses specialize like their bases — and none of it
perturbs the code generated for configurations that contain none of
them.  Behavioural equivalence lives in
tests/integration/test_fastpath_equivalence.py; this file is about the
shape and cost of the generated code.
"""

import hashlib
import sys
from dataclasses import replace

import pytest

from repro.configs.firewall import dns5_packet, firewall_graph
from repro.core import fastclassifier, load_config, named_pipeline, save_config
from repro.elements.align import Align
from repro.elements.arp import ARPQuerier
from repro.elements.classifiers import Classifier, FastClassifierBase, IPFilter
from repro.elements.combos import IPOutputCombo
from repro.elements.devices import LoopbackDevice
from repro.elements.ethernet import EtherEncap
from repro.elements.infrastructure import Queue, Strip, Unstrip
from repro.elements.ip import (
    CheckIPHeader,
    DecIPTTL,
    DropBroadcasts,
    FixIPSrc,
    GetIPAddress,
    IPFragmenter,
    IPGWOptions,
    Paint,
    PaintTee,
)
from repro.elements.routing import LookupIPRoute, RadixIPLookup
from repro.elements.runtime import Router
from repro.lang.build import parse_graph
from repro.net.headers import build_ether_udp_packet
from repro.net.packet import Packet
from repro.runtime import ExecutionProfile
from repro.runtime import fastpath as fastpath_module
from repro.runtime.adaptive import AdaptiveConfig
from repro.runtime.codegen_cache import default_cache
from repro.runtime.fastpath import ChainPolicy, FastPath, _lowering
from repro.runtime.fdd import DEFAULT_NODE_BUDGET, diagram_pass
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.testbed import HOST_ETHERS, Testbed, host_ip
from tests.integration.test_fastpath_equivalence import (
    COMPILED_PROFILES,
    hostile_traffic,
    observe,
    variant_graph,
)

EAGER = dict(threshold=48, sample=4, min_samples=12)


def build(variant, profile):
    testbed = Testbed(2)
    if variant == "paper":
        result = named_pipeline("paper").run(testbed.base_graph())
        graph = load_config(save_config(result.graph), "<paper>")
    else:
        graph = testbed.variant_graph(variant)
    router, devices = testbed.build_router(graph, profile=profile)
    return testbed, router, devices


def firewall_frame():
    return b"\x00\x50\x56\x00\x00\x01" + b"\x00\x50\x56\x00\x00\x02" + b"\x08\x00" + dns5_packet()


def skewed_frames(testbed, count):
    """90 % eth0 -> eth1, every tenth frame the other way."""
    frames = []
    for sequence in range(count):
        rx = 1 if sequence % 10 == 9 else 0
        frames.append(
            (
                testbed.interfaces[rx].device,
                build_ether_udp_packet(
                    HOST_ETHERS[rx],
                    testbed.interfaces[rx].ether,
                    host_ip(rx),
                    host_ip(1 - rx),
                    src_port=1000 + sequence % 7,
                    dst_port=2000,
                    payload=b"\x00" * 14,
                    identification=sequence & 0xFFFF,
                ),
            )
        )
    return frames


def forward(router, devices, frames):
    for name, frame in frames:
        devices[name].receive_frame(frame)
    router.run_tasks(len(frames) // 8 + 16)


def bound_calls(fastpath, key):
    """``(element, attribute path)`` of every callable the chain compiled
    for ``key`` binds that an element holds: one of its methods, a
    callable in one of its attributes, or a method of an object in one."""
    calls = set()
    for value in fastpath.chain_for(*key).defaults:
        if not callable(value):
            continue
        owner, method = getattr(value, "__self__", None), getattr(value, "__name__", None)
        for element in fastpath.router.elements.values():
            if owner is element:
                calls.add((element.name, (method,)))
            for attr, held in vars(element).items():
                if held is value:
                    calls.add((element.name, (attr,)))
                elif owner is not None and held is owner:
                    calls.add((element.name, (attr, method)))
    return calls


def emitted(fastpath):
    """``fastpath`` with every chain's record emitted, as inspection
    emits them: nothing is compiled or linked."""
    fastpath.records()
    return fastpath


# -- structure ---------------------------------------------------------------


@pytest.mark.parametrize("profile", [ExecutionProfile.fast(), ExecutionProfile.fdd()])
def test_entry_chains_inline_combos_and_align(profile):
    _testbed, router, _devices = build("paper", profile)
    fastpath = router.fastpath
    combos = [n for n, e in router.elements.items() if isinstance(e, IPOutputCombo)]
    combos += [n for n in router.elements if n.startswith("IPInputCombo")]
    aligns = [n for n in router.elements if n.startswith("Align@")]
    assert len(combos) == 4 and len(aligns) == 2
    for poll in ("PollDevice@2", "PollDevice@13"):
        calls = bound_calls(fastpath, ("push", poll, 0))
        assert not {(name, ("push",)) for name in combos} & calls
        assert not {(name, ("simple_action",)) for name in aligns} & calls
        # The combos are there all the same: through their cold paths.
        assert {(name, ("_expire",)) for name in combos[:2]} <= calls
        assert ".copies += 1" in "\n".join(fastpath.chain_for("push", poll, 0).source)


def test_reentry_chains_share_one_entry_per_combo():
    """Only a task's chain fuses a lowered combo into its dispatch
    sites; the ICMP error chains re-enter through the route table's
    jump table, so the optimized router's module stays a fraction of
    the plain router's."""
    _testbed, router, _devices = build("paper", ExecutionProfile.fast())
    fastpath = emitted(router.fastpath)
    entry = fastpath.report.chain_lines["push PollDevice@2[0]"]
    shared = fastpath.report.chain_lines["push rt[1]"]
    for label, lines in fastpath.report.chain_lines.items():
        if label.startswith("push ICMPError@") or label.startswith("push oc@xf"):
            if label not in ("push oc@xf[0]", "push oc@xf@1[0]"):
                assert lines < shared < entry, label
    assert len(fastpath.source) <= 80_000
    _testbed, plain, _devices = build("base", ExecutionProfile.fast())
    assert len(fastpath.source) * 3 < len(plain.fastpath.source)


def test_lowering_declined_for_overridden_or_wrapped_push():
    _testbed, router, _devices = build("paper", ExecutionProfile.reference())
    combo = router.find("oc@xf")
    assert [owner.__name__ for owner, _cold in _lowering(combo)] == [
        "DropBroadcasts", "PaintTee", "IPGWOptions", "FixIPSrc", "DecIPTTL", "IPFragmenter",
    ]

    class Overridden(type(combo)):
        def push(self, port, packet):
            super().push(port, packet)

    assert _lowering(Overridden("x", "1, 1.0.0.1")) is None
    original = combo.push
    combo.push = lambda port, packet: original(port, packet)
    assert _lowering(combo) is None
    # ... and the chain into it goes back to the bound call.
    fastpath = FastPath(router)
    assert ("oc@xf", ("push",)) in bound_calls(fastpath, ("push", "rt", 1))
    assert fastpath.report.opaque_dispatch["push rt[1]"] == ["oc@xf"]


@pytest.mark.parametrize("variant", ["dv", "fc"])
def test_generated_subclasses_specialize_like_their_bases(variant):
    """``Devirtualize@@*`` and ``FastClassifier@@*`` classes inherit
    their handlers, and the emitter tests handlers, not classes."""
    reports = []
    for name in ("base", variant):
        _testbed, router, _devices = build(name, ExecutionProfile.fast())
        reports.append(emitted(router.fastpath).report)
    base, generated = reports
    assert generated.elided_elements == base.elided_elements > 0
    assert generated.specialized_actions == base.specialized_actions
    assert generated.specialized_terminals == base.specialized_terminals


# Every element that declares a segment, the handler a subclass may
# override, how a one-chain pipeline declares it (as ``x``), and the
# configuration that carries it: an IP router variant, the firewall, or
# the IP router with a RadixIPLookup route table.
TWO_WAY = "x :: Classifier(12/0800, -); x [1] -> Discard; x"
SEGMENT_OWNERS = [
    (Classifier, "push", TWO_WAY, "base"),
    (IPFilter, "push", "x :: IPFilter(allow udp)", "firewall"),
    (FastClassifierBase, "push", TWO_WAY, "fc"),
    (LookupIPRoute, "push", "x :: LookupIPRoute(0.0.0.0/0 0)", "base"),
    (LookupIPRoute, "lookup_route", "x :: LookupIPRoute(0.0.0.0/0 0)", "base"),
    (RadixIPLookup, "push", "x :: RadixIPLookup(0.0.0.0/0 0)", "radix"),
    (Paint, "simple_action", "x :: Paint(1)", "base"),
    (Strip, "simple_action", "x :: Strip(14)", "base"),
    (Unstrip, "simple_action", "x :: Unstrip(14)", "firewall"),
    (CheckIPHeader, "_check", "x :: CheckIPHeader", "base"),
    (GetIPAddress, "simple_action", "CheckIPHeader -> x :: GetIPAddress(16)", "base"),
    (DropBroadcasts, "simple_action", "x :: DropBroadcasts", "base"),
    (PaintTee, "_tee", "x :: PaintTee(1)", "base"),
    (IPGWOptions, "_process", "x :: IPGWOptions(1.0.0.1)", "base"),
    (FixIPSrc, "simple_action", "x :: FixIPSrc(1.0.0.1)", "base"),
    (DecIPTTL, "_decrement", "x :: DecIPTTL", "base"),
    (IPFragmenter, "_maybe_fragment", "x :: IPFragmenter(576)", "base"),
    (ARPQuerier, "_handle_ip", "x :: ARPQuerier(1.0.0.1, 00:00:c0:00:00:01); Idle -> [1] x", "base"),
    (EtherEncap, "simple_action", "x :: EtherEncap(0x0800, 00:00:c0:00:00:01, 00:00:c0:00:00:02)", "mr"),
    (Align, "simple_action", "x :: Align(4, 0)", "paper"),
    (Queue, "push", None, "base"),
    (Queue, "pull", None, "base"),
]


def override(router, owner, handler):
    """Give every ``owner`` in ``router`` a subclass whose ``handler``
    is its own: the same behaviour, through a method the declaration
    was not written for."""
    for element in router.elements.values():
        if isinstance(element, owner):
            base = type(element)

            def method(self, *args, _base=getattr(base, handler)):
                return _base(self, *args)

            method.__name__ = handler  # bound methods are replayed by name
            element.__class__ = type("Overriding" + base.__name__, (base,), {handler: method})


@pytest.mark.parametrize(
    "owner, handler, declaration, variant", SEGMENT_OWNERS,
    ids=["%s.%s" % (owner.__name__, handler) for owner, handler, _d, _v in SEGMENT_OWNERS],
)
def test_an_overridden_handler_gets_no_segment(owner, handler, declaration, variant):
    if owner is Queue:
        text, counter = "i :: Idle -> x :: Queue(8) -> u :: Unqueue -> Discard;", "specialized_terminals"
    else:
        text = "i :: Idle -> %s -> q :: Queue(8) -> u :: Unqueue -> Discard;" % declaration
        counter = (
            "elided_elements" if owner is GetIPAddress
            else "specialized_terminals" if handler == "push"
            else "specialized_actions"
        )
    key = ("pull", "u", 0) if handler == "pull" else ("push", "i", 0)
    graphs = [parse_graph(text), parse_graph(text)]
    if owner is FastClassifierBase:
        graphs = [fastclassifier(graph) for graph in graphs]
    plain, overridden = Router(graphs[0]), Router(graphs[1])
    override(overridden, owner, handler)
    fastpaths = [emitted(FastPath(plain)), emitted(FastPath(overridden))]
    if handler == "lookup_route":
        # The dispatch stays declared; the memo probe it stood for goes.
        lost = bound_calls(fastpaths[0], key) - bound_calls(fastpaths[1], key)
        assert lost == {("x", ("_memo", "get"))}
    else:
        counts = [getattr(fastpath.report, counter) for fastpath in fastpaths]
        assert counts[0] - counts[1] == 1, counts
    assert ("x", (handler,)) in bound_calls(fastpaths[1], key)
    # ... and it forwards what the reference interpreter forwards.
    expected = drive_frames(*carrier(variant))
    for profile in (ExecutionProfile.fast(), profile_for("fdd", False)):
        router, devices, frames = carrier(variant)
        override(router, owner, handler)
        router.configure(profile)
        assert drive_frames(router, devices, frames) == expected, profile


def carrier(variant):
    """A reference-mode router of the configuration named ``variant``,
    its devices, and a corpus of frames for it."""
    testbed = Testbed(2)
    frames = hostile_traffic(testbed)
    if variant == "firewall":
        devices = {name: LoopbackDevice(name, tx_capacity=1 << 30) for name in ("eth0", "eth1")}
        frames = [("eth0", frame) for _name, frame in frames] + [("eth0", firewall_frame())] * 8
        return Router(firewall_graph(), devices=devices), devices, frames
    graph = variant_graph(testbed, "base" if variant == "radix" else variant)
    if variant == "radix":
        graph.set_class("rt", "RadixIPLookup", graph.elements["rt"].config)
    return (*testbed.build_router(graph, profile=ExecutionProfile.reference()), frames)


def test_the_compiler_reads_no_element_behaviour():
    """The chain compiler emits what elements declare: fastpath.py,
    fdd.py and codegen_cache.py import no element module, and none picks
    code by the identity of an element handler (``x.push is ...``)."""
    import ast
    import inspect

    from repro.elements.registry import ELEMENT_CLASSES
    from repro.runtime import codegen_cache, fastpath, fdd

    handlers = {
        name
        for cls in ELEMENT_CLASSES.values()
        for klass in cls.__mro__
        for name, value in vars(klass).items()
        if inspect.isfunction(value)
    }
    for module in (fastpath, fdd, codegen_cache):
        with open(module.__file__) as fh:
            tree = ast.parse(fh.read())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                package = "repro.runtime".rsplit(".", node.level - 1)[0] if node.level else ""
                base = ".".join(part for part in (package, node.module) if part)
                imported.update(base + "." + alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        assert not [name for name in imported if name.startswith("repro.elements")], module.__name__
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
                for operand in [node.left, *node.comparators]:
                    assert not (isinstance(operand, ast.Attribute) and operand.attr in handlers), (
                        module.__name__, node.lineno,
                    )


def drive_frames(router, devices, frames):
    for name, frame in frames:
        devices[name].receive_frame(frame)
    router.run_tasks(len(frames))
    return observe(router, devices)


# -- task units ----------------------------------------------------------------

PIPE = "src :: PollDevice(eth0) -> c :: Counter -> q :: Queue(64) -> dst :: ToDevice(eth1);"


def pipe(profile, devices=None, meter=None, prepare=None):
    if devices is None:
        devices = {name: LoopbackDevice(name) for name in ("eth0", "eth1")}
    router = Router(parse_graph(PIPE), devices=devices, meter=meter)
    if prepare is not None:
        prepare(router)
    return router.configure(profile), devices


def runs_units(router):
    """Which tasks run a compiled unit, by name."""
    units = set()
    for task in router.tasks:
        unit = router.fastpath.function_for(("task", task.name, 0))
        if unit is not None and vars(task).get("run_task") is unit:
            units.add(task.name)
    return units


@pytest.mark.parametrize("profile", COMPILED_PROFILES, ids=str)
def test_task_units_run_on_declared_devices(profile):
    """A plain ``LoopbackDevice`` under every compiled profile — batch
    or not, supervised or not — runs one unit per task element, and
    the module, the report and the chain store hold it like any chain."""
    default_cache().clear()
    router, devices = pipe(profile)
    assert runs_units(router) == {"src", "dst"}
    fastpath = router.fastpath
    for name in ("src", "dst"):
        chain = fastpath.chain_for("task", name, 0)
        assert chain.batch_name is None and "# %s" % chain.describe() in fastpath.source
    assert fastpath.report.task_units == 2
    assert fastpath.report.chain_lines["task src[0]"] > fastpath.report.chain_lines["task dst[0]"] > 0
    for index in range(20):
        devices["eth0"].receive_frame(b"\x00\x01\x02\x03\x04\x05 frame %02d" % index)
    router.run_tasks(8)
    assert len(devices["eth1"].transmitted) == 20 and router["c"].count == 20
    assert (router["src"].received, router["dst"].sent) == (20, 20)
    shared, _devices = pipe(profile)
    assert runs_units(shared) == {"src", "dst"}
    shared.run_tasks(1)  # each unit is entered, and its text found in the store
    assert shared.fastpath.report.compiled_units == 0
    for name in ("src", "dst"):
        chain = shared.fastpath.chain_for("task", name, 0)
        assert chain is not fastpath.chain_for("task", name, 0)
        assert chain.code is fastpath.chain_for("task", name, 0).code


class OverridingDevice(LoopbackDevice):
    def rx_dequeue(self):
        return super().rx_dequeue()


def _faulty_devices():
    devices = {name: LoopbackDevice(name) for name in ("eth0", "eth1")}
    plan = FaultPlan(faults=[{"kind": "device_flap", "device": name, "at": 99, "ticks": 1} for name in devices])
    return FaultInjector(plan).wrap_devices(devices)


def _inject_element_fault(router):
    plan = FaultPlan(faults=[{"kind": "element_error", "element": "src", "after": 99}])
    FaultInjector(plan).prepare_router(router)


@pytest.mark.parametrize("mode, batch", [("fast", False), ("fast", True), ("fdd", False)])
def test_ineligible_tasks_run_the_element_loop(mode, batch):
    """Eligibility is declared, never inferred: a device proxy (which
    forwards ``rx`` and ``transmitted`` but declares no rings), a device
    subclass overriding one of the three calls, a fault-wrapped element,
    a hand-wrapped ``run_task`` and the reference interpreter — which a
    metered router runs — all run ``run_task`` as written."""
    from repro.sim.cpu import CycleMeter

    profile = replace(profile_for(mode, batch), adaptive=None)
    default_cache().clear()
    assert runs_units(pipe(profile)[0]) == {"src", "dst"}  # what the cache now holds
    assert pipe(profile, meter=CycleMeter())[0].engine is None
    faulty = _faulty_devices()
    assert type(faulty["eth0"]).__name__ == "FaultyDevice" and faulty["eth0"].rx is not None
    assert runs_units(pipe(profile, devices=faulty)[0]) == set()
    devices = {"eth0": OverridingDevice("eth0"), "eth1": LoopbackDevice("eth1")}
    assert runs_units(pipe(profile, devices=devices)[0]) == {"dst"}
    assert runs_units(pipe(profile, prepare=_inject_element_fault)[0]) == {"dst"}

    def wrap_by_hand(router):
        original = router["dst"].run_task
        router["dst"].run_task = lambda: original()

    router, devices = pipe(profile, prepare=wrap_by_hand)
    assert runs_units(router) == {"src"}
    router.configure(ExecutionProfile.reference())
    assert "run_task" in vars(router["dst"])  # the wrapper is not the fast path's to remove
    assert pipe(ExecutionProfile.reference())[0].fastpath is None


@pytest.mark.parametrize("profile", [ExecutionProfile.fast(), ExecutionProfile.fdd().with_supervision()], ids=str)
def test_nothing_is_left_on_the_tasks_of_a_router_that_stops_compiling(profile):
    """``uninstall()``, a reference profile and a hot-swap each take the
    units off with the ports: a hot-swap off the tasks it replaces, and
    its own units go on the new ones."""
    from repro.elements.hotswap import hotswap

    def tasks_are_clean(router):
        return not any("run_task" in vars(task) for task in router.tasks)

    router, _devices = pipe(profile)
    router.engine.uninstall()
    assert tasks_are_clean(router)
    router.engine.install()
    assert runs_units(router) == {"src", "dst"}
    router.configure(ExecutionProfile.reference())
    assert tasks_are_clean(router)
    router, _devices = pipe(profile)
    replaced = router.tasks
    graph = router.graph.copy()
    graph.add_element("idle", "Idle", None)
    graph.add_element("sink", "Discard", None)
    graph.add_connection("idle", 0, "sink", 0)
    hotswap(router, graph)
    assert not any("run_task" in vars(task) for task in replaced)
    assert not set(map(id, replaced)) & set(map(id, router.tasks))
    assert runs_units(router) == {"src", "dst"}


# -- the report ----------------------------------------------------------------


def test_report_names_what_each_chain_dispatches_opaquely():
    default_cache().clear()
    _testbed, router, _devices = build("paper", ExecutionProfile.fast())
    report = emitted(router.fastpath).report
    opaque = report.opaque_dispatch
    # The forwarding path: device -> classifier -> Align -> input combo
    # -> route table -> output combo -> ARP querier -> queue.
    for label in ("push PollDevice@2[0]", "push c0[2]", "push rt[1]", "push rt[2]",
                  "push oc@xf[0]", "pull td0[0]"):
        assert label in report.chain_lines and label not in opaque
    # What is left is named: the ARP responder rides simple_action, the
    # querier's reply port and Discard are entered through push.
    assert opaque["push c0[0]"] == ["arpr0"]
    assert opaque["push c0[1]"] == ["arpq0"]
    assert opaque["push rt[0]"] == ["Discard@1"]
    assert list(report.as_dict()["opaque_dispatch"]) == sorted(opaque)
    assert "  opaque: push rt[0] calls Discard@1" in report.format()
    # A second build of the same text reports the same.
    reports = [emitted(build("xf", ExecutionProfile.fast())[1].fastpath).report for _ in range(2)]
    assert reports[1].opaque_dispatch == reports[0].opaque_dispatch != {}


# -- cost ------------------------------------------------------------------------


def bytecodes(function):
    """Bytecode instructions ``function()`` executes in Python frames."""
    count = 0

    def trace(frame, event, _argument):
        nonlocal count
        if event == "call":
            frame.f_trace_opcodes = True
        elif event == "opcode":
            count += 1
        return trace

    sys.settrace(trace)
    try:
        function()
    finally:
        sys.settrace(None)
    return count


def test_optimized_router_executes_no_more_bytecodes_than_plain():
    """The paper's claim, as a count: once both are warm under fdd, the
    optimizer's output forwards 256 skewed frames in no more bytecode
    instructions than the configuration it was given."""
    counts = {}
    for variant in ("base", "paper"):
        testbed, router, devices = build(variant, ExecutionProfile.fdd())
        forward(router, devices, skewed_frames(testbed, 4096))
        assert router.adaptive.tier2_fp is not None
        for device in devices.values():
            device.transmitted.clear()
        frames = skewed_frames(testbed, 256)
        for name, frame in frames:
            devices[name].receive_frame(frame)
        counts[variant] = bytecodes(lambda: router.run_tasks(256 // 8 + 16))
        assert sum(len(device.transmitted) for device in devices.values()) == 256
    assert counts["paper"] <= counts["base"], counts


def calls(function):
    """Function calls ``function()`` makes, Python and builtin, as
    cProfile counts them."""
    count = 0

    def profile(_frame, event, _argument):
        nonlocal count
        if event in ("call", "c_call"):
            count += 1

    sys.setprofile(profile)
    try:
        function()
    finally:
        sys.setprofile(None)
    return count


@pytest.mark.parametrize("config, bound", [("iprouter", 18), ("firewall", 17)])
def test_calls_per_forwarded_packet(config, bound):
    """The count gate on the device boundary: one warm 2000-frame block
    under fdd forwards in at most ``bound`` calls a packet (27.6 and
    26.8 while the tasks ran the hand-written loops, 14.4 compiled).  A
    change that puts a per-packet device call back — ``rx_dequeue``,
    ``charge``, ``Packet()``, ``tx_room``, ``tx_enqueue`` — lands here."""
    if config == "iprouter":
        testbed, router, devices = build("base", ExecutionProfile.fdd())
        warm, block = skewed_frames(testbed, 4096), skewed_frames(testbed, 2000)
    else:
        devices = {name: LoopbackDevice(name, tx_capacity=1 << 30) for name in ("eth0", "eth1")}
        router = Router(firewall_graph(), devices=devices, profile=ExecutionProfile.fdd())
        warm, block = [("eth0", firewall_frame())] * 4096, [("eth0", firewall_frame())] * 2000
    forward(router, devices, warm)
    assert router.adaptive.tier2_fp is not None
    for device in devices.values():
        device.transmitted.clear()
    for name, frame in block:
        devices[name].receive_frame(frame)
    count = calls(lambda: router.run_tasks(len(block) // 8 + 8))
    assert sum(len(device.transmitted) for device in devices.values()) == len(block)
    assert count / len(block) <= bound, count / len(block)


def test_batch_entry_points_only_where_a_task_calls_them():
    """``fast(batch=True)`` on the plain IP router: four ``_batch``
    functions, one per task port (55 while every chain had a twin)."""
    _testbed, router, _devices = build("base", ExecutionProfile.fast(batch=True))
    fastpath = emitted(router.fastpath)
    batched = {key for key, chain in fastpath.chains.items() if chain.batch_name}
    assert batched == {
        ("push", "PollDevice@2", 0), ("push", "PollDevice@13", 0), ("pull", "td0", 0), ("pull", "td1", 0),
    }
    assert sum(line.startswith("def ") and "_batch(" in line for line in fastpath.source.split("\n")) == 4
    for key in fastpath.chains:
        assert (fastpath.function_for(key, batch=True) is not None) == (key in batched)


# -- Align, inline ----------------------------------------------------------------


@pytest.mark.parametrize("fused", [False, True])
@pytest.mark.parametrize("modulus, offset", [(2, 0), (2, 1), (4, 0), (4, 1), (4, 2), (4, 3)])
def test_inline_align_is_the_reference_align(modulus, offset, fused):
    """Same buffer, offset, alignment, contents and ``copies`` as
    ``Align.simple_action`` for every accepted configuration and every
    starting layout, under the static policy and with the diagram pass
    (either way an already aligned packet leaves through the edge's own
    chain: the layout fact is threaded on every chain)."""
    text = (
        "i :: Idle -> p :: Paint(0) -> a :: Align(%d, %d) -> q :: Queue(64); "
        "q -> u :: Unqueue -> Discard;" % (modulus, offset)
    )
    reference = Router(parse_graph(text))
    inline = Router(parse_graph(text))
    policy = ChainPolicy(**diagram_pass(inline, DEFAULT_NODE_BUDGET)) if fused else None
    fastpath = FastPath(inline, policy=policy)
    assert ("a", ("simple_action",)) not in bound_calls(fastpath, ("push", "p", 0))
    push = fastpath.function_for(("push", "p", 0))
    for buffer_alignment in range(4):
        for strip in range(4):
            packets = []
            for _ in range(2):
                packet = Packet(bytes(range(40)), buffer_alignment=buffer_alignment)
                packet.strip(strip)
                packets.append(packet)
            reference.find("a").simple_action(packets[0])
            push(packets[1])
            assert inline.find("q")._deque.pop() is packets[1]
            for attribute in ("_buf", "_data_offset", "buffer_alignment", "data"):
                assert getattr(packets[1], attribute) == getattr(packets[0], attribute)
            assert packets[1].data_alignment() % modulus == offset
    assert inline.find("a").copies == reference.find("a").copies > 0


# -- what must not move -------------------------------------------------------------

# sha256[:16] of the generated module, per configuration/policy[/batch].
# These configurations contain no combo, no Align and no generated class,
# so the emitter must keep producing the same text — codegen-cache keys
# included.  All 24 were pinned again by the change that compiled the
# task loops, and what moved is checked rather than trusted:
#
# - every module gained the task units (four on the IP router, two on
#   the firewall), emitted after the last chain so that no chain's name
#   or bind slot moved, and the reworded header;
# - a batch module lost the ``_batch`` twin of every chain that does not
#   leave a task element (nothing could call them);
# - nothing else: an unbatched module with the task units' lines taken
#   out and the parent's header put back hashes to the parent's digest
#   (``PARENT_DIGESTS``, the twelve unbatched rows as they stood).
#
# Twenty rows stand, unchanged: the four of ``fdd``'s own profiled
# flavor went with it, and ``fdd``'s profiled module is now read against
# the ``profiling`` row ``adaptive``'s is.
#
# The ten firewall rows (and their five ``PARENT_DIGESTS``) were pinned
# again when Unstrip gained a segment.  With the ``_xN``/``_bN`` numbers
# masked, each module's diff is exactly that stage in every chain that
# runs it: ``packet = _xK(packet)`` and its drop test became the inline
# headroom test, offset move and ``_data_cache`` drop, and the chain's
# def lost the bound ``simple_action`` it passed in.
#
# The six ``*/profiling*`` rows here and in ``PARENT_DIGESTS`` were
# pinned again when the profiling flavor stopped calling the matcher
# cell: each module's diff is exactly its classifier dispatch lines,
# ``out = _x0[0](data)`` become ``out = _x0.tree.match(data)`` (``_x0``
# binds the element where it bound its cell).  The paper rows hold
# generated classifier classes, whose dispatch did not change.
#
# The four ``iprouter/fdd*`` rows here, the four ``paper/fdd*`` rows of
# ``PAPER_DIGESTS`` and the two ``iprouter/fdd*`` rows of
# ``PARENT_DIGESTS`` were pinned again when ``_Emission.fresh()`` began
# numbering its ``_dN`` locals from 0 in each chain, not across the
# module (so a chain's template depends on that chain alone).  With
# ``_d\d+`` masked, each of those modules is the parent's, character for
# character; the other twenty rows did not move.
#
# All thirty rows, and the ten ``PARENT_DIGESTS``, were pinned again when
# a chain's text became a function of the chain alone (the chain store is
# keyed by it): every push/pull/task function is now named ``_push`` /
# ``_pull`` / ``_task`` (``_batch`` suffixed), not numbered across the
# module, and its bound objects are set as its defaults, not read from
# ``_bN`` module globals.  With ``_(push|pull|task)_\d+`` renamed that way
# and every ``=_b\d+`` default taken out of the def lines, each module of
# the parent is this one, character for character.
#
# Since a chain is emitted on its first entry, ``source`` lays a warmed
# router's chains out in first-entry order; every row here, and in
# ``PAPER_DIGESTS`` and ``PARENT_DIGESTS``, stands for the module laid
# out in edge order (:func:`in_edge_order`), the order a build laid out
# when it emitted every chain at once.
#
# The rows of flavors no preset builds were deleted when ``adaptive``
# left the modes and batch dispatch became ``fast``'s alone: every
# ``*/optimized*`` row (tier 2 without plans), every ``fdd*/batch`` row
# and every ``profiling/batch`` row, here and in the three tables
# below.  Every other row stands as it was.
PLAIN_DIGESTS = {
    "firewall/fdd": "65d90fd95d9e1c6e",
    "firewall/fdd-optimized": "1fb06278b3881961",
    "firewall/profiling": "66663326e86a57d5",
    "firewall/static": "819b7ebb53c4431f",
    "firewall/static/batch": "963a72e9c75829c6",
    "iprouter/fdd": "93990d246622ddbd",
    "iprouter/fdd-optimized": "ff510a391a8b2177",
    "iprouter/profiling": "633babff3fbee2d0",
    "iprouter/static": "9266b9c3c657ab82",
    "iprouter/static/batch": "ee59f890a2c6e271",
}

# The paper pipeline's output, round-tripped through text: the only
# configuration whose chains lower the combos, inline Align and carry
# the data-offset layout fact.  Pinned before the segments moved from
# the compiler onto their elements; that move left every row as it was.
PAPER_DIGESTS = {
    "paper/fdd": "aff65fa0dfd9de9b",
    "paper/fdd-optimized": "d569358c4ef372e0",
    "paper/profiling": "d115f74693be80cc",
    "paper/static": "4a45dae5b703a281",
    "paper/static/batch": "8ad066d87b31ed06",
}


PARENT_HEADER = (
    '"""Generated by repro.runtime.fastpath: one function per wired',
    "push/pull edge of the router.  Do not edit; regenerate with",
    'Router.compile_fastpath().  Dump via router.fastpath.source."""',
)
PARENT_DIGESTS = {
    "firewall/fdd": "8ecbc99759e2778b",
    "firewall/fdd-optimized": "51eeed0ae2660897",
    "firewall/profiling": "a87e9918877d33de",
    "firewall/static": "280de77b50559282",
    "iprouter/fdd": "be07254d86e3f9f4",
    "iprouter/fdd-optimized": "f4a22809ab234f0b",
    "iprouter/profiling": "ce8d96306f5e5bab",
    "iprouter/static": "e3e9e1ae9d9ab7c7",
}


#: sha256[:16] of every chain's template, in key order, once the flavor
#: is materialized: computed on the build that emitted every chain at
#: once, and equal on this one, which emits each on its first entry.
TEMPLATE_DIGESTS = {
    "firewall/fdd": "d045a0c29bef8a8c",
    "firewall/fdd-optimized": "f9a32ba62e95bf7b",
    "firewall/profiling": "f8deb8801e88daad",
    "firewall/static": "633cd40dba1559a5",
    "firewall/static/batch": "9f080f3dd3c75f31",
    "iprouter/fdd": "b22fb9838a6af764",
    "iprouter/fdd-optimized": "9226236de64f5f9e",
    "iprouter/profiling": "f373c85107357a45",
    "iprouter/static": "dd1f66cb114878af",
    "iprouter/static/batch": "a37126aa93ceb604",
    "paper/fdd": "877b44070464189d",
    "paper/fdd-optimized": "7148e8dfac67bf90",
    "paper/profiling": "e3254d8480928ad2",
    "paper/static": "0639c57f724ddfe5",
    "paper/static/batch": "e3f35800abef40be",
}


def in_edge_order(fastpath, header=fastpath_module._HEADER, kinds=("push", "pull", "task")):
    """The module with every chain (of ``kinds``) emitted and laid out in
    edge order under ``header``."""
    lines = list(header)
    for key in fastpath._compiled:
        if key[0] in kinds:
            lines.extend(fastpath.chain_for(*key).source)
    return "\n".join(lines) + "\n"


def source_at_the_parent(fastpath):
    """The module less the lines of its task units, under the header the
    parent wrote."""
    return in_edge_order(fastpath, PARENT_HEADER, ("push", "pull"))


def profile_for(mode, batch):
    if mode == "fast":
        return ExecutionProfile.fast(batch=batch)
    return ExecutionProfile.fdd(config=AdaptiveConfig(**EAGER))


def warm_iprouter(profile, variant="base"):
    testbed, router, devices = build(variant, profile)
    for name, frame in testbed.evaluation_frames(256):
        devices[name].receive_frame(frame)
    router.run_tasks(256)
    return router


def warm_firewall(profile):
    devices = {name: LoopbackDevice(name, tx_capacity=1 << 30) for name in ("eth0", "eth1")}
    router = Router(firewall_graph(), devices=devices, profile=profile)
    for _ in range(256):
        devices["eth0"].receive_frame(firewall_frame())
    router.run_tasks(256)
    return router


@pytest.mark.parametrize("mode, batch", [("fast", False), ("fast", True), ("fdd", False)])
@pytest.mark.parametrize("config", ["iprouter", "firewall", "paper"])
def test_plain_configurations_generate_the_stored_source(config, mode, batch):
    default_cache().clear()
    profile = profile_for(mode, batch)
    if config == "firewall":
        router = warm_firewall(profile)
    else:
        router = warm_iprouter(profile, "base" if config == "iprouter" else "paper")
    engine = router.adaptive
    modules = [router.fastpath] if engine is None else [engine.tier1, engine.profiled, engine.tier2_fp]
    assert None not in modules
    digests = PAPER_DIGESTS if config == "paper" else PLAIN_DIGESTS
    for fastpath in modules:
        key = "%s/%s%s" % (config, fastpath.policy.tag, "/batch" if batch else "")
        ordered = in_edge_order(fastpath)
        # the same lines, the chains entered first laid out first
        assert sorted(fastpath.source.split("\n")) == sorted(ordered.split("\n")), key
        assert hashlib.sha256(ordered.encode()).hexdigest()[:16] == digests[key], key
        assert not fastpath.report.opaque_dispatch.get("push PollDevice@2[0]")
        if not batch and config != "paper":
            parent = hashlib.sha256(source_at_the_parent(fastpath).encode()).hexdigest()[:16]
            assert parent == PARENT_DIGESTS[key], key
        fastpath.materialize()
        templates = "\n".join("\n".join(fastpath.chains[k].template) for k in sorted(fastpath.chains))
        assert hashlib.sha256(templates.encode()).hexdigest()[:16] == TEMPLATE_DIGESTS[key], key


@pytest.mark.parametrize("config", ["iprouter", "firewall"])
def test_flavor_keys_are_derived_from_the_facts_a_policy_carries(config):
    """Four tags, one class: the tag tells every flavor apart, and with
    the batch setting an equal tag means equal source on a fresh router
    that forwarded the same traffic."""
    warm = warm_iprouter if config == "iprouter" else warm_firewall
    cache = default_cache()
    sources = {}
    for mode, batch in (("fast", False), ("fast", True), ("fdd", False)):
        for fresh in (True, False):
            cache.clear()
            router = warm(profile_for(mode, batch))
            flavors = router.engine.flavors()
            assert len(flavors) == (3 if mode == "fdd" else 1)
            for fastpath in flavors:
                policy = fastpath.policy
                key = (batch, policy.tag)
                assert policy.plans is None or not policy.profiling
                if fresh:
                    assert key not in sources, policy.tag
                    sources[key] = fastpath.source
                else:
                    assert sources[key] == fastpath.source, policy.tag
    assert len(sources) == 5
    assert {tag for _, tag in sources} == {"static", "profiling", "fdd", "fdd-optimized"}
    with pytest.raises(ValueError):
        ChainPolicy(plans={}, store=router.engine.store)
