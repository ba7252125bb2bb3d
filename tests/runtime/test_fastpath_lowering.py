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

import pytest

from repro.configs.firewall import dns5_packet, firewall_graph
from repro.core import load_config, named_pipeline, save_config
from repro.elements.combos import IPOutputCombo
from repro.elements.devices import LoopbackDevice
from repro.elements.runtime import Router
from repro.lang.build import parse_graph
from repro.net.headers import build_ether_udp_packet
from repro.net.packet import Packet
from repro.runtime import ExecutionProfile
from repro.runtime.adaptive import AdaptiveConfig
from repro.runtime.codegen_cache import default_cache
from repro.runtime.fastpath import ChainPolicy, FastPath, _lowering
from repro.runtime.fdd import DEFAULT_NODE_BUDGET, diagram_pass
from repro.sim.testbed import HOST_ETHERS, Testbed, host_ip

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
    """``(element, attribute path)`` of every element method the chain
    compiled for ``key`` binds."""
    specs = (fastpath._bind_specs[name] for name in fastpath.chains[key].binds)
    return {(spec[1], spec[2]) for spec in specs if spec and spec[0] == "attr"}


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
        assert ".copies += 1" in "\n".join(fastpath.chains[("push", poll, 0)].source)


def test_reentry_chains_share_one_entry_per_combo():
    """Only a task's chain fuses a lowered combo into its dispatch
    sites; the ICMP error chains re-enter through the route table's
    jump table, so the optimized router's module stays a fraction of
    the plain router's."""
    _testbed, router, _devices = build("paper", ExecutionProfile.fast())
    fastpath = router.fastpath
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
    assert [handler.__name__ for handler, _cold in _lowering(combo)] == [
        "simple_action", "_tee", "_process", "simple_action", "_decrement", "_maybe_fragment",
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


def test_metered_chains_do_not_lower():
    from repro.sim.cpu import CycleMeter

    testbed = Testbed(2)
    result = named_pipeline("paper").run(testbed.base_graph())
    graph = load_config(save_config(result.graph), "<paper>")
    router, _devices = testbed.build_router(graph, meter=CycleMeter(), mode="fast")
    assert router.fastpath.chain_for("push", "rt", 1).terminal == "oc@xf"


@pytest.mark.parametrize("variant", ["dv", "fc"])
def test_generated_subclasses_specialize_like_their_bases(variant):
    """``Devirtualize@@*`` and ``FastClassifier@@*`` classes inherit
    their handlers, and the emitter tests handlers, not classes."""
    reports = []
    for name in ("base", variant):
        _testbed, router, _devices = build(name, ExecutionProfile.fast())
        reports.append(router.fastpath.report)
    base, generated = reports
    assert generated.elided_elements == base.elided_elements > 0
    assert generated.specialized_actions == base.specialized_actions
    assert generated.specialized_terminals == base.specialized_terminals


# -- the report ----------------------------------------------------------------


def test_report_names_what_each_chain_dispatches_opaquely():
    default_cache().clear()
    _testbed, router, _devices = build("paper", ExecutionProfile.fast())
    report = router.fastpath.report
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
    # A replay from the codegen cache reports the same (xform's output
    # has no per-load generated classes, so the second build hits).
    reports = [build("xf", ExecutionProfile.fast())[1].fastpath.report for _ in range(2)]
    assert reports[1].cache_hit and not reports[0].cache_hit
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
# included.  Pinned at the parent of the change that introduced lowering,
# except the six iprouter static/profiling/optimized rows: they were
# pinned again when fact threading stopped being an fdd-only lane.
# Those flavors now emit what the fdd ones always did around the route
# table — CheckIPHeader's split lane for the 0x45 header, the lookup
# keyed on the live raw destination ``d`` with no annotation load or
# None test, IPGWOptions testing the live header length ``hl`` — and
# nothing else moved.  The firewall has no fact-producing element, so
# its rows stand, as do all twelve fdd ones.
PLAIN_DIGESTS = {
    "firewall/fdd": "da1f6c3e21e2b743",
    "firewall/fdd-optimized": "c2793ec10d79eaa1",
    "firewall/fdd-optimized/batch": "ce3d56f25f49e192",
    "firewall/fdd-profiling": "8d069f5ae8531608",
    "firewall/fdd-profiling/batch": "78faae9b9533d288",
    "firewall/fdd/batch": "29af057eb74b52e9",
    "firewall/optimized": "8cd0abc00b4479fd",
    "firewall/optimized/batch": "99be2b9c69fcc1cf",
    "firewall/profiling": "477a14225ec8e871",
    "firewall/profiling/batch": "1cbd5a4966d5f052",
    "firewall/static": "63816c5ed3eae32b",
    "firewall/static/batch": "724c0caa92741b38",
    "iprouter/fdd": "7b6f52b67893262a",
    "iprouter/fdd-optimized": "d69353ea38b0618e",
    "iprouter/fdd-optimized/batch": "9f3bb7aa7dd53085",
    "iprouter/fdd-profiling": "10d1f58d1df5d111",
    "iprouter/fdd-profiling/batch": "fe346f15633c149e",
    "iprouter/fdd/batch": "2bbaeeda3766ca6b",
    "iprouter/optimized": "c11263bcbfad052c",
    "iprouter/optimized/batch": "0c1ff42cce91e4bd",
    "iprouter/profiling": "e6bf399d4bfe4558",
    "iprouter/profiling/batch": "51ca89418e335a81",
    "iprouter/static": "080d93eba29a5314",
    "iprouter/static/batch": "f48f8c92c838ddd9",
}


def profile_for(mode, batch):
    if mode == "fast":
        return ExecutionProfile.fast(batch=batch)
    config = AdaptiveConfig(**EAGER)
    if mode == "adaptive":
        return ExecutionProfile.tiered(config=config, batch=batch)
    return ExecutionProfile.fdd(config=config, batch=batch)


def warm_iprouter(profile):
    testbed, router, devices = build("base", profile)
    for name, frame in testbed.evaluation_frames(256):
        devices[name].receive_frame(frame)
    router.run_tasks(256)
    return router


def warm_firewall(profile):
    devices = {name: LoopbackDevice(name, tx_capacity=1 << 30) for name in ("eth0", "eth1")}
    router = Router(firewall_graph(), devices=devices, profile=profile)
    frame = (
        b"\x00\x50\x56\x00\x00\x01" + b"\x00\x50\x56\x00\x00\x02" + b"\x08\x00" + dns5_packet()
    )
    for _ in range(256):
        devices["eth0"].receive_frame(frame)
    router.run_tasks(256)
    return router


@pytest.mark.parametrize("batch", [False, True])
@pytest.mark.parametrize("mode", ["fast", "adaptive", "fdd"])
@pytest.mark.parametrize("config", ["iprouter", "firewall"])
def test_plain_configurations_generate_the_stored_source(config, mode, batch):
    default_cache().clear()
    router = (warm_iprouter if config == "iprouter" else warm_firewall)(profile_for(mode, batch))
    engine = router.adaptive
    modules = [router.fastpath] if engine is None else [engine.tier1, engine.profiled, engine.tier2_fp]
    assert None not in modules
    for fastpath in modules:
        key = "%s/%s%s" % (config, fastpath.policy.tag, "/batch" if batch else "")
        digest = hashlib.sha256(fastpath.source.encode()).hexdigest()[:16]
        assert digest == PLAIN_DIGESTS[key], key
        assert not fastpath.report.opaque_dispatch.get("push PollDevice@2[0]")


@pytest.mark.parametrize("config", ["iprouter", "firewall"])
def test_flavor_keys_are_derived_from_the_facts_a_policy_carries(config):
    """Six tags, one class: cache keys tell every flavor and batch
    setting apart, equal keys mean equal source on a fresh router, and
    the reuse key is the cache key minus the content digest."""
    warm = warm_iprouter if config == "iprouter" else warm_firewall
    cache = default_cache()
    sources = {}
    for batch in (False, True):
        for mode in ("adaptive", "fdd"):
            for fresh in (True, False):
                cache.clear()
                router = warm(profile_for(mode, batch))
                flavors = router.engine.flavors()
                assert len(flavors) == 3
                for fastpath in flavors:
                    policy = fastpath.policy
                    key = cache.key_for(router, batch, policy)
                    if fresh:
                        assert key not in sources, policy.tag
                        sources[key] = fastpath.source
                    else:
                        assert sources[key] == fastpath.source, policy.tag
                    content = policy.digest if policy.plans is not None else None
                    assert content is None or policy.cache_key().count(content) == 1
                    assert policy.reuse_key() == tuple(
                        part for part in policy.cache_key() if part != content
                    )
    assert len(sources) == 12
    assert {policy_key[0] for _, _, _, policy_key in sources} == {
        "static", "profiling", "optimized", "fdd", "fdd-profiling", "fdd-optimized",
    }
