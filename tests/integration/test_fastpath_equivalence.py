"""The fast path's contract: behaviourally indistinguishable from the
reference interpreter.

Every tool-chain variant of the Figure 9 IP router — and ``paper``,
click-optimize's paper pipeline round-tripped through text, which is
what the benchmark runs — plus the shipped example configurations, is
driven with the same traffic in reference mode, fast mode, fast+batched
mode and fdd mode; the transmitted bytes, every element's read
handlers and plain counters, and (for the metered runs) the cycle
meter's per-category report must match exactly.
"""

import struct
from dataclasses import replace

import pytest

from repro.configs.firewall import dns5_packet, firewall_graph, firewall_rule_strings
from repro.core import load_config, named_pipeline, save_config
from repro.elements.devices import LoopbackDevice
from repro.elements.runtime import Router
from repro.net.addresses import IPAddress
from repro.net.checksum import internet_checksum
from repro.net.headers import ETHERTYPE_IP, make_ether_header
from repro.runtime import ExecutionProfile, SupervisorConfig
from repro.runtime.adaptive import AdaptiveConfig
from repro.runtime.fastpath import FastPath, FastPathError
from repro.sim.cpu import CycleMeter
from repro.sim.testbed import HOST_ETHERS, VARIANTS, Testbed, host_ip
from repro.verify.gentraffic import GROWN_RULES

MODES = [
    ("reference", False),
    ("fast", False),
    ("fast", True),
    ("fdd", False),
]
# Counters that are state but not read handlers.
COUNTERS = ("fragments_made", "copies", "expired", "problems", "df_drops")

# Eager promotion: the 256-packet equivalence traffic must cross the
# tier-1 -> tier-2 transition, not just exercise tier 1.
EAGER = dict(threshold=48, sample=4, min_samples=12)


def mode_label(mode, batch):
    return "%s_batched" % mode if batch else mode


def observe(router, devices):
    """Everything externally visible: transmitted frames, every
    element's read handlers, and the counters elements keep beside
    them (combo ``fragments_made``, ``Align.copies``, ...)."""
    handlers = {}
    for name, element in router.elements.items():
        for handler_name, fn in sorted(element.read_handlers().items()):
            handlers[(name, handler_name)] = fn()
        for counter in COUNTERS:
            if hasattr(element, counter):
                handlers[(name, counter)] = getattr(element, counter)
    return (
        {name: list(device.transmitted) for name, device in devices.items()},
        handlers,
    )


def variant_graph(testbed, variant):
    if variant != "paper":
        return testbed.variant_graph(variant)
    result = named_pipeline("paper").run(testbed.base_graph())
    return load_config(save_config(result.graph), "<paper>")


def drive_testbed(variant, mode, batch, frames, deopt_after=None, meter=None):
    testbed = Testbed(2)
    adaptive_config = AdaptiveConfig(**EAGER) if mode == "fdd" else None
    router, devices = testbed.build_router(
        variant_graph(testbed, variant),
        meter=meter,
        mode=mode,
        batch=batch,
        adaptive_config=adaptive_config,
    )
    traffic = frames(testbed)
    if deopt_after is None:
        batches = [traffic]
    else:
        batches = [traffic[:deopt_after], traffic[deopt_after:]]
    for index, chunk in enumerate(batches):
        if index and router.adaptive is not None:
            router.adaptive.deopt("forced")
        for device_name, frame in chunk:
            devices[device_name].receive_frame(frame)
        router.run_tasks(len(chunk))
    return observe(router, devices)


def evaluation_traffic(testbed, count=256):
    return testbed.evaluation_frames(count)


def ip_frame(testbed, rx, dst_ip, ttl=64, flags=0, options=b"", payload=14):
    """A UDP-less IP frame from the host on interface ``rx``, with the
    header fields the output path branches on under the caller's
    control; the checksum is valid."""
    header_length = 20 + len(options)
    header = bytearray(
        struct.pack(
            "!BBHHHBBH4s4s",
            (4 << 4) | (header_length // 4),
            0,
            header_length + payload,
            7,
            flags << 13,
            ttl,
            17,
            0,
            IPAddress(host_ip(rx)).packed(),
            IPAddress(dst_ip).packed(),
        )
        + options
    )
    header[10:12] = struct.pack("!H", internet_checksum(header))
    ether = make_ether_header(testbed.interfaces[rx].ether, HOST_ETHERS[rx], ETHERTYPE_IP)
    return testbed.interfaces[rx].device, ether + bytes(header) + bytes(payload)


def output_path_traffic(testbed):
    """One frame per rare branch of the output path, each with a valid
    header so it gets that far: TTL expiry, well-formed and malformed
    options, oversize with and without DF, and a packet routed back out
    the interface it came in on."""
    there = host_ip(1)
    return [
        ip_frame(testbed, 0, there, ttl=1),
        ip_frame(testbed, 0, there, options=b"\x01\x01\x01\x00"),
        ip_frame(testbed, 0, there, options=b"\x07\x09\x04\x00"),
        ip_frame(testbed, 0, there, flags=0x2, payload=1600),
        ip_frame(testbed, 0, there, payload=1600),
        ip_frame(testbed, 0, "1.0.0.9"),
    ]


def hostile_traffic(testbed, count=96):
    """Error paths: every kind of packet the checks must reject and
    every rare branch past them, mixed with good traffic so the drops
    land mid-burst."""
    frames = []
    rare = output_path_traffic(testbed)
    for index, (device_name, frame) in enumerate(testbed.evaluation_frames(count)):
        if index % 8 == 7:
            frames.append(rare[index // 8 % len(rare)])
        frame = bytearray(frame)
        kind = index % 6
        if kind == 1:  # corrupt IP checksum
            frame[14 + 10] ^= 0xFF
        elif kind == 2:  # TTL about to expire
            frame[14 + 8] = 1
            frame[14 + 10] ^= 0  # checksum now wrong too: both paths drop
        elif kind == 3:  # not IPv4
            frame[14] = (6 << 4) | (frame[14] & 0x0F)
        elif kind == 4:  # truncated mid-header
            frame = frame[: 14 + 12]
        elif kind == 5:  # bad source (broadcast)
            frame[14 + 12 : 14 + 16] = b"\xff\xff\xff\xff"
        frames.append((device_name, bytes(frame)))
    return frames


@pytest.mark.parametrize("variant", VARIANTS + ["paper"])
def test_variant_equivalence(variant):
    reference = drive_testbed(variant, "reference", False, evaluation_traffic)
    for mode, batch in MODES[1:]:
        output, handlers = drive_testbed(variant, mode, batch, evaluation_traffic)
        label = "%s/%s" % (variant, mode_label(mode, batch))
        assert output == reference[0], "%s: transmitted frames differ" % label
        assert handlers == reference[1], "%s: handler values differ" % label


@pytest.mark.parametrize("variant", ["base", "all", "paper", "simple"])
def test_error_path_equivalence(variant):
    reference = drive_testbed(variant, "reference", False, hostile_traffic)
    # The hostile mix must actually exercise drop paths somewhere.
    assert any(
        value for (_, handler), value in reference[1].items() if handler == "drops"
    ) or variant == "simple"
    if variant == "paper":
        # ... and, on the optimizer's output, the combos' own counters
        # and each of their side outputs: the four rare frames that have
        # one (sent twice) come back to the sender as ICMP errors.
        values = reference[1]
        assert values[("IPInputCombo@1@xf@1", "drops")] and values[("Align@2", "copies")]
        assert values[("oc@xf@1", "fragments_made")] == 4
        assert sum(1 for frame in reference[0]["eth0"] if frame[14 + 9] == 1) == 8
    for mode, batch in MODES[1:]:
        output, handlers = drive_testbed(variant, mode, batch, hostile_traffic)
        label = "%s/%s" % (variant, mode_label(mode, batch))
        assert output == reference[0], "%s: transmitted frames differ" % label
        assert handlers == reference[1], "%s: handler values differ" % label


def drive_firewall(mode, batch, count=256):
    devices = {
        "eth0": LoopbackDevice("eth0", tx_capacity=1 << 30),
        "eth1": LoopbackDevice("eth1", tx_capacity=1 << 30),
    }
    router = Router(
        firewall_graph(),
        devices=devices,
        profile=ExecutionProfile(mode=mode, batch=batch),
    )
    frame = (
        b"\x00\x50\x56\x00\x00\x01"
        + b"\x00\x50\x56\x00\x00\x02"
        + b"\x08\x00"
        + dns5_packet()
    )
    for _ in range(count):
        devices["eth0"].receive_frame(frame)
    router.run_tasks(count)
    return observe(router, devices)


def test_firewall_equivalence():
    reference = drive_firewall("reference", False)
    assert any(reference[0].values()), "firewall forwarded nothing"
    for mode, batch in MODES[1:]:
        output, handlers = drive_firewall(mode, batch)
        label = "firewall/%s" % mode_label(mode, batch)
        assert output == reference[0], "%s: transmitted frames differ" % label
        assert handlers == reference[1], "%s: handler values differ" % label


def test_adaptive_promotion_reaches_tier2():
    """With eager thresholds the evaluation traffic must carry the hot
    source chains through profiling into a tier-2 recompile."""
    testbed = Testbed(2)
    router, devices = testbed.build_router(
        testbed.variant_graph("base"),
        mode="fdd",
        adaptive_config=AdaptiveConfig(**EAGER),
    )
    for device_name, frame in testbed.evaluation_frames(256):
        devices[device_name].receive_frame(frame)
    router.run_tasks(256)
    report = router.adaptive.profile_report().as_dict()
    assert report["recompiles"] >= 1
    assert any(chain["tier"] == 2 for chain in report["chains"].values())


@pytest.mark.parametrize("variant", ["base", "all", "paper"])
def test_adaptive_forced_deopt_equivalence(variant):
    """A forced mid-run deoptimization (tier 2 -> tier 1, profiles
    reset) must not change a single transmitted byte or handler."""
    reference = drive_testbed(variant, "reference", False, evaluation_traffic)
    output, handlers = drive_testbed(
        variant, "fdd", False, evaluation_traffic, deopt_after=128
    )
    assert output == reference[0], "%s: transmitted frames differ" % variant
    assert handlers == reference[1], "%s: handler values differ" % variant


def grown_firewall_graph():
    """The firewall with its filter grown to ``GROWN_RULES`` rules,
    denials of ``10.200.0.0/16`` hosts first, as ``click-fuzz
    --updates`` grows one: a tree deeper than a diagram may go."""
    graph = firewall_graph()
    rules = firewall_rule_strings()
    grown = ["deny src host 10.200.%d.%d" % divmod(i + 1, 250) for i in range(GROWN_RULES - len(rules))]
    graph.elements["fw"].config = ", ".join(grown + rules)
    return graph


def test_fdd_speculates_on_a_filter_past_the_depth_bound():
    """Tier 2 speculates on a classifier's generic dispatch (its arm
    order and a guarded hot arm) only where the classifier has no
    diagram plan.  The grown filter's chain promotes with a hot arm on
    the filter, a forced deopt sends it back to tier 1, and the wire
    and every handler read as the reference interpreter's."""
    ether = b"\x00\x50\x56\x00\x00\x01" + b"\x00\x50\x56\x00\x00\x02" + b"\x08\x00"
    allowed = dns5_packet()
    denied = allowed[:12] + IPAddress("10.200.0.7").packed() + allowed[16:]
    # one frame in five denied: the profile samples one in four
    frames = [ether + (denied if index % 5 == 4 else allowed) for index in range(384)]
    runs = []
    for profile in (ExecutionProfile.reference(), ExecutionProfile.fdd(config=AdaptiveConfig(**EAGER))):
        devices = {name: LoopbackDevice(name, tx_capacity=1 << 30) for name in ("eth0", "eth1")}
        router = Router(grown_firewall_graph(), devices=devices, profile=profile)
        engine = router.adaptive
        for index, chunk in enumerate((frames[:192], frames[192:])):
            if index and engine is not None:
                (state,) = [state for key, state in engine.states.items() if key[1] == router.tasks[0].name]
                decision = engine.tier2_fp.policy.decisions.classifier["fw"]
                assert "fw" not in engine.tier1.policy.plans and decision["hot"] is not None
                assert state.tier == 2 and router.force_deopt("forced") and state.tier == 1
            for frame in chunk:
                devices["eth0"].receive_frame(frame)
            router.run_tasks(len(chunk))
        runs.append(observe(router, devices))
    assert runs[0] == runs[1] and runs[0][1][("fw", "drops")] == 76


def test_a_period_that_divides_the_sample_rate_is_profiled_from_every_phase():
    """Every fourth frame denied, with the eager ``sample`` of four: a
    dispatcher profiling every fourth packet would see only denials and
    prune the allow arm that carries three frames in four.  Drawn at
    seeded random gaps, the profile sees both, and tier 2 guards the
    allow arm instead; the wire and every handler read as the
    reference interpreter's."""
    ether = b"\x00\x50\x56\x00\x00\x01" + b"\x00\x50\x56\x00\x00\x02" + b"\x08\x00"
    allowed = dns5_packet()
    denied = allowed[:12] + IPAddress("10.200.0.7").packed() + allowed[16:]
    frames = [ether + (denied if index % 4 == 3 else allowed) for index in range(384)]
    runs = []
    for profile in (ExecutionProfile.reference(), ExecutionProfile.fdd(config=AdaptiveConfig(**EAGER))):
        devices = {name: LoopbackDevice(name, tx_capacity=1 << 30) for name in ("eth0", "eth1")}
        router = Router(grown_firewall_graph(), devices=devices, profile=profile)
        for frame in frames:
            devices["eth0"].receive_frame(frame)
        router.run_tasks(len(frames))
        if router.adaptive is not None:
            decision = router.adaptive.tier2_fp.policy.decisions.classifier["fw"]
            assert 0 not in decision["prune"] and decision["hot"][1] == 0
        runs.append(observe(router, devices))
    assert runs[0] == runs[1] and runs[0][1][("fw", "drops")] == 96


def drive_rules_patches(mode, batch):
    """Traffic, then three in-place classifier patches with traffic
    after each: ``c0``'s IP arm pointed at nothing (eth0's flow is
    discarded), the same on ``c1``, then ``c0`` restored.  Under fdd
    every patch rewrites the plain tier 1 the previous one left."""
    from repro.control import ControlPlane
    from repro.lang.lexer import split_config_args

    testbed = Testbed(2)
    router, devices = testbed.build_router(
        testbed.variant_graph("base"),
        mode=mode,
        batch=batch,
        adaptive_config=AdaptiveConfig(**EAGER) if mode == "fdd" else None,
    )
    plane = ControlPlane(router)
    stock = split_config_args(router.graph.elements["c0"].config)
    narrowed = stock[:2] + ["12/0805"] + stock[3:]
    patches = [None, ("c0", narrowed), ("c1", narrowed), ("c0", stock)]
    traffic = evaluation_traffic(testbed, 128 * len(patches))
    for index, patch in enumerate(patches):
        if patch is not None:
            assert plane.update_rules(*patch).kind == "in-place"
        for device_name, frame in traffic[128 * index : 128 * (index + 1)]:
            devices[device_name].receive_frame(frame)
        plane.router.run_tasks(128)
    assert plane.router is router
    return observe(router, devices)


def test_rules_patch_sequence_equivalence():
    """Rules patch -> traffic -> rules patch, each rewriting what the
    last left: not a transmitted byte or handler differs from the
    reference interpreter patched the same way."""
    reference = drive_rules_patches("reference", False)
    sent = sum(len(frames) for frames in reference[0].values())
    assert 0 < sent < 512, "the narrowed arms did not drop a flow"
    for mode, batch in (("fdd", False), ("fast", True)):
        output, handlers = drive_rules_patches(mode, batch)
        label = mode_label(mode, batch)
        assert output == reference[0], "%s: transmitted frames differ" % label
        assert handlers == reference[1], "%s: handler values differ" % label


@pytest.mark.parametrize("variant", ["base", "all"])
def test_meter_reports_identical(variant):
    """Under the cycle meter every compiled mode, batch included,
    charges exactly what the reference interpreter charges: same
    categories, same totals, same predictor counts."""
    runs = []
    for mode, batch in MODES:
        meter = CycleMeter()
        observed = drive_testbed(variant, mode, batch, evaluation_traffic, meter=meter)
        runs.append((meter.summary(), observed))
    assert all(run == runs[0] for run in runs[1:])


@pytest.mark.parametrize("frames", [evaluation_traffic, hostile_traffic])
def test_paper_meter_reports_identical(frames):
    """The same, on the paper pipeline's output and on hostile traffic,
    whose combos and side outputs are charged at their reference sites."""
    summaries = []
    for mode in ("reference", "fast"):
        meter = CycleMeter()
        observed = drive_testbed("paper", mode, False, frames, meter=meter)
        summaries.append((meter.summary(), observed))
    assert summaries[0] == summaries[1]


COMPILED_PROFILES = [
    replace(profile, supervisor=SupervisorConfig() if supervised else None)
    for profile in (ExecutionProfile.fast(), ExecutionProfile.fast(batch=True), ExecutionProfile.fdd())
    for supervised in (False, True)
]


class CallMeter:
    """A meter with only the hooks the reference interpreter calls."""

    def __init__(self):
        self.calls = 0

    def on_transfer(self, _port):
        self.calls += 1

    on_element_work = on_task = on_transfer

    def on_dynamic_work(self, _element, _kind, _amount):
        self.calls += 1


def run_metered(profile, meter, count=128):
    """``(router, transmitted frames per device)`` after ``count``
    evaluation frames through the base IP router built with ``meter``."""
    testbed = Testbed(2)
    router, devices = testbed.build_router(testbed.variant_graph("base"), meter=meter, profile=profile)
    for device_name, frame in evaluation_traffic(testbed, count):
        devices[device_name].receive_frame(frame)
    router.run_tasks(count)
    if profile.workers > 1:
        router.close()
    return router, {name: list(device.transmitted) for name, device in devices.items()}


@pytest.mark.parametrize(
    "profile",
    COMPILED_PROFILES + [ExecutionProfile.fast(batch=True).with_workers(2, "thread")],
    ids=str,
)
def test_metered_router_runs_the_reference(profile):
    """A router carrying a meter runs the reference interpreter under
    any profile — a sharded plane's metered shards too — so its charges
    are the reference's by construction.  Compiling it is refused:
    compiled chains would run past the call sites the meter charges."""
    reference_meter, meter = CycleMeter(), CycleMeter()
    _router, reference = run_metered(profile.with_mode("reference"), reference_meter)
    router, transmitted = run_metered(profile, meter)
    assert transmitted == reference and any(reference.values())
    assert meter.summary() == reference_meter.summary()
    if profile.workers == 1:
        assert (router.mode, router.engine, router.profile) == ("reference", None, profile.with_mode("reference"))
        with pytest.raises(FastPathError):
            FastPath(router)
        # Any object with the reference interpreter's hooks is a meter.
        router, transmitted = run_metered(profile, CallMeter())
        assert transmitted == reference and router.meter.calls > 0
