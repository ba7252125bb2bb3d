"""The adaptive engine's machinery, piece by piece: configuration
validation, the profile store, guard-condition construction, decision
building, the tier lifecycle (profile -> promote -> deopt -> reprofile),
and the chain store keyed by each chain's text."""

import pytest

from repro.classifier.language import compile_patterns
from repro.classifier.optimize import optimize
from repro.elements.runtime import Router
from repro.lang.build import parse_graph
from repro.runtime.adaptive import (
    AdaptiveConfig,
    ProfileStore,
    _guard_conds,
    build_decisions,
)
from repro.runtime import codegen_cache
from repro.runtime.codegen_cache import default_cache
from repro.runtime.fastpath import ChainPolicy, FastPath
from repro.sim.testbed import Testbed

EAGER = dict(threshold=48, sample=4, min_samples=12)


# -- configuration -----------------------------------------------------------


def test_config_rejects_non_power_of_two_sample():
    with pytest.raises(ValueError):
        AdaptiveConfig(sample=3)


def test_config_rejects_non_positive_threshold():
    with pytest.raises(ValueError):
        AdaptiveConfig(threshold=0)


def test_config_rejects_non_positive_min_samples():
    with pytest.raises(ValueError):
        AdaptiveConfig(min_samples=0)


def test_config_rejects_non_positive_guard_miss_limit():
    with pytest.raises(ValueError):
        AdaptiveConfig(guard_miss_limit=0)


def test_config_rejects_non_positive_max_recompiles():
    with pytest.raises(ValueError):
        AdaptiveConfig(max_recompiles=-1)


def test_config_round_trips_as_dict():
    config = AdaptiveConfig(threshold=100, sample=8)
    assert config.as_dict()["threshold"] == 100
    assert config.as_dict()["sample"] == 8


# -- profile store -----------------------------------------------------------


def test_profile_store_counts_and_exemplars():
    store = ProfileStore()
    note = store.classifier_note("c0")
    note(1, b"\x45\x00")
    note(1, b"\x45\x11")
    note(0, b"\x60\x00")
    assert store.classifier["c0"] == {1: 2, 0: 1}
    # The exemplar is the first sample per output, not the last.
    assert store.classifier_exemplar["c0"] == {1: b"\x45\x00", 0: b"\x60\x00"}


def test_profile_store_reset_clears_in_place():
    """Profiled chains close over the inner dicts; reset must clear
    those same objects, not swap in fresh ones."""
    store = ProfileStore()
    note = store.classifier_note("c0")
    inner = store.classifier["c0"]
    note(0, b"")
    store.reset()
    assert inner == {} and store.classifier["c0"] is inner
    note(2, b"x")
    assert store.classifier["c0"] == {2: 1}


# -- guard conditions --------------------------------------------------------


def _ip_tree():
    return optimize(compile_patterns(["12/0800", "12/0806", "-"]))


def test_guard_conds_imply_the_hot_output():
    tree = _ip_tree()
    ip_frame = b"\x00" * 12 + b"\x08\x00" + b"\x00" * 6
    assert tree.match(ip_frame) == 0
    conds = _guard_conds(tree, 0, exemplar=ip_frame)
    assert conds is not None
    assert conds[0][0] == "len"
    # The conjunction must accept the exemplar's own class...
    assert _eval_conds(conds, ip_frame)
    # ...and reject traffic the tree classifies elsewhere.
    arp_frame = b"\x00" * 12 + b"\x08\x06" + b"\x00" * 6
    assert tree.match(arp_frame) != 0
    assert not _eval_conds(conds, arp_frame)


def test_guard_conds_follow_the_exemplar_path():
    """Several leaves can share an output; the guard must describe the
    profiled flow's leaf, so the exemplar itself always passes."""
    rules = ["12/0800 23/11", "12/0800 23/06", "12/0806", "-"]
    tree = optimize(compile_patterns(rules))
    tcp_like = b"\x00" * 12 + b"\x08\x00" + b"\x00" * 9 + b"\x06" + b"\x00" * 4
    out = tree.match(tcp_like)
    conds = _guard_conds(tree, out, exemplar=tcp_like)
    if conds is not None:
        assert _eval_conds(conds, tcp_like)


def test_guard_conds_short_data_fails_len():
    tree = _ip_tree()
    conds = _guard_conds(tree, 0, exemplar=b"\x00" * 12 + b"\x08\x00" + b"\x00" * 6)
    min_len = max(c[1] for c in conds if c[0] == "len")
    assert not _eval_conds(conds, b"\x00" * (min_len - 1))


def _eval_conds(conds, data):
    for cond in conds:
        if cond[0] == "len":
            if len(data) < cond[1]:
                return False
        elif cond[0] == "slice":
            _, start, end, expected, equal = cond
            if (data[start:end] == expected) != equal:
                return False
        else:
            _, offset, width, mask, value, equal = cond
            word = int.from_bytes(data[offset : offset + width], "big")
            if ((word & mask) == value) != equal:
                return False
    return True


# -- decisions ---------------------------------------------------------------


def _profiled_testbed(packets=256, config=None):
    testbed = Testbed(2)
    router, devices = testbed.build_router(
        testbed.variant_graph("base"),
        mode="adaptive",
        adaptive_config=config or AdaptiveConfig(**EAGER),
    )
    for device_name, frame in testbed.evaluation_frames(packets):
        devices[device_name].receive_frame(frame)
    router.run_tasks(packets)
    return testbed, router, devices


def test_build_decisions_from_live_profile():
    _, router, _ = _profiled_testbed()
    engine = router.adaptive
    decisions = build_decisions(router, engine.store, engine.config)
    assert not decisions.empty()
    # The route table saw both destinations; its decision records them.
    assert decisions.route or decisions.classifier
    assert len(decisions.digest) == 16


def test_decisions_digest_is_stable():
    _, router, _ = _profiled_testbed()
    engine = router.adaptive
    first = build_decisions(router, engine.store, engine.config)
    second = build_decisions(router, engine.store, engine.config)
    assert first.digest == second.digest


# -- tier lifecycle ----------------------------------------------------------


def test_lifecycle_promote_deopt_reprofile():
    _, router, devices = _profiled_testbed()
    engine = router.adaptive
    report = engine.profile_report().as_dict()
    promoted = [k for k, c in report["chains"].items() if c["tier"] == 2]
    assert promoted, "no chain promoted under eager thresholds"

    engine.deopt("unit-test")
    report = engine.profile_report().as_dict()
    assert all(c["tier"] != 2 for c in report["chains"].values())
    assert "unit-test" in report["deopts"]

    # Fresh traffic re-profiles and re-promotes through a new recompile.
    testbed = Testbed(2)
    for device_name, frame in testbed.evaluation_frames(256):
        devices[device_name].receive_frame(frame)
    router.run_tasks(256)
    report = engine.profile_report().as_dict()
    assert any(c["tier"] == 2 for c in report["chains"].values())
    assert report["recompiles"] >= 2


def test_a_promotion_compiles_the_promoted_chains_and_a_deopt_releases_them():
    """Tier 2 emits and compiles only the promoted chains, each on its
    first entry; a chain's tier-1 functions are the same objects before and after
    their first entry; a control-plane patch (which lands between
    bursts) frees the tier 2 it drops without the collector, a deopt
    that may come from inside a running tier-2 chain leaves it alone."""
    import gc
    import weakref

    from repro.classifier.compile import is_pending
    from repro.runtime.codegen_cache import default_cache

    default_cache().clear()
    testbed = Testbed(2)
    router, devices = testbed.build_router(
        testbed.variant_graph("base"), mode="adaptive", adaptive_config=AdaptiveConfig(**EAGER)
    )
    engine = router.adaptive
    held = {key: (state.plain, state.prof) for key, state in engine.states.items()}
    assert all(is_pending(fn) for pair in held.values() for fn in pair)
    for device_name, frame in testbed.evaluation_frames(256):
        devices[device_name].receive_frame(frame)
    router.run_tasks(256)
    promoted = [key for key, state in engine.states.items() if state.tier == 2]
    tier2 = engine.tier2_fp
    assert promoted and tier2.report.emitted_units == len(tier2.chains) == len(promoted)
    assert set(tier2.chains) == set(promoted) and all(chain.code is not None for chain in tier2.chains.values())
    for key in promoted:
        state = engine.states[key]
        assert state.port.push is tier2.function_for(key) and not is_pending(state.port.push)
        assert (state.plain, state.prof) == held[key]
        assert not is_pending(state.plain) and not is_pending(state.prof)

    gc.collect()
    gc.disable()
    try:
        dropped = weakref.ref(tier2)
        running = tier2.function_for(promoted[0])
        engine._on_guard_pressure(engine._guard_counters[0])
        assert engine.tier2_fp is None and tier2._compiled and not is_pending(running)
        engine.tier2_fp = tier2  # as if promoted again
        del tier2, running
        assert engine.commit_update(engine.stage_update(()), "control-plane patch of rt", "rt") == []
        assert dropped() is None
    finally:
        gc.enable()


def test_thin_profile_does_not_settle():
    """A chain crossing its packet threshold before min_samples profiled
    events must keep profiling, not settle on tier 1 forever."""
    config = AdaptiveConfig(threshold=32, sample=16, min_samples=24)
    _, router, _ = _profiled_testbed(packets=1024, config=config)
    report = router.adaptive.profile_report().as_dict()
    assert any(c["tier"] == 2 for c in report["chains"].values())


def test_spent_recompile_budget_settles_chains():
    """Past ``max_recompiles`` no tier 2 can be built, so a profile
    buys nothing: demoted chains settle on the plain chain instead of
    sampling forever with no promotion possible."""
    config = AdaptiveConfig(max_recompiles=1, **EAGER)
    testbed, router, devices = _profiled_testbed(config=config)
    engine = router.adaptive
    assert engine.recompiles == 1
    assert any(state.tier == 2 for state in engine.states.values())

    engine.deopt("unit-test")
    assert all(state.tier == 0 for state in engine.states.values())
    prof_calls = []
    for state in engine.states.values():
        state.prof = state.prof_batch = lambda *args: prof_calls.append(args)
    before = sum(len(device.transmitted) for device in devices.values())
    for device_name, frame in testbed.evaluation_frames(256):
        devices[device_name].receive_frame(frame)
    router.run_tasks(256)
    assert sum(len(device.transmitted) for device in devices.values()) > before
    assert not prof_calls
    assert engine.recompiles == 1 and engine.tier2_fp is None

    # A chain still sampling when the budget ran out settles at its
    # next promotion attempt (it used to restart its count forever).
    state = next(iter(engine.states.values()))
    state.tier, state.seen = 1, config.threshold
    engine._promote(state)
    assert state.tier == 0 and state.port.push is state.plain


class _DeoptAt:
    """Element classes whose Nth packet forces a deopt from inside the
    chain — that is, in the middle of a compiled burst."""

    @staticmethod
    def classes(at):
        from repro.elements.element import Element

        class DeoptAt(Element):
            class_name = "DeoptAt"
            processing = "a/a"
            port_counts = "1/1"

            def configure(self, args):
                self.seen = 0
                self.fired = None

            def simple_action(self, packet):
                self.seen += 1
                if self.seen == at:
                    self.fired = self.router.force_deopt("mid-burst")
                return packet

        return {"DeoptAt": DeoptAt}


MID_BURST = (
    "src :: PollDevice(eth0) -> c :: Classifier(12/0800, -); c [1] -> Discard; "
    "c [0] -> trig :: DeoptAt -> q :: Queue(4096) -> dst :: ToDevice(eth1);"
)


@pytest.mark.parametrize("batch", [False, True])
def test_tier_swaps_mid_burst_take_effect_by_the_next_burst(batch):
    """The compiled poll loop reads its hand-off once per burst, so a
    promotion or a forced deopt that lands inside a burst finishes that
    burst on the function it started with and runs the next one on the
    new tier — with the reference interpreter's output either way."""
    from repro.elements.devices import LoopbackDevice
    from repro.runtime import ExecutionProfile

    frames = [
        b"\x00" * 12 + (b"\x08\x00" if index % 5 else b"\x08\x06") + b"frame %03d" % index
        for index in range(160)
    ]
    config = AdaptiveConfig(threshold=44, sample=4, min_samples=8)  # 44: inside the sixth burst
    outputs = []
    for profile in (ExecutionProfile.reference(), ExecutionProfile.tiered(config=config, batch=batch)):
        devices = {"eth0": LoopbackDevice("eth0"), "eth1": LoopbackDevice("eth1", tx_capacity=1 << 20)}
        router = Router(
            parse_graph(MID_BURST), extra_classes=_DeoptAt.classes(at=100), devices=devices, profile=profile
        )
        for frame in frames:
            devices["eth0"].receive_frame(frame)
        engine = router.adaptive
        if engine is not None:
            assert "run_task" in vars(router["src"])
            state = engine.states[("push", "src", 0)]
            port = router["src"]._output_ports[0]
            assert state.port is port and state.tier == 1
            router.run_tasks(5)
            assert state.tier == 1 and state.seen == 40
            router.run_tasks(1)  # crosses the threshold at its fourth packet
            assert state.tier == 2 and state.seen >= 44
            promoted = engine.tier2_fp.function_for(state.key, batch=batch)
            assert (port.push_batch if batch else port.push) is promoted
            seen = state.seen
            router.run_tasks(1)  # ... and this burst runs the promoted chain
            assert state.seen == seen and router["src"].received == 56
            # 100 frames of which every fifth is ARP: the trigger's 100th
            # packet is frame 124, the fifth of the sixteenth burst.
            router.run_tasks(9)
            assert router["trig"].fired is True and router["trig"].seen >= 100
            assert state.tier == 1 and engine.tier2_fp is None and state.seen == 0
            assert (port.push_batch if batch else port.push) is not promoted
            router.run_tasks(1)
            assert state.seen == 8  # the next burst is profiled again
        router.run_tasks(len(frames))
        assert router["src"].received == len(frames)
        outputs.append((list(devices["eth1"].transmitted), router["dst"].sent, router["q"].drops))
    assert outputs[0] == outputs[1]
    assert len(outputs[0][0]) == sum(1 for index in range(160) if index % 5)


# -- the chain store -----------------------------------------------------------

# The classifier gives the profiling flavor a note hook to emit, so
# its text differs from the static flavor's.
SIMPLE = """
src :: PollDevice(eth0) -> c :: Classifier(12/0800, -);
c[0] -> ctr :: Counter -> q :: Queue(8) -> sink :: ToDevice(eth0);
c[1] -> Discard;
"""


def _simple_router():
    from repro.elements.devices import LoopbackDevice

    devices = {"eth0": LoopbackDevice("eth0")}
    return Router(parse_graph(SIMPLE, "<cache-test>"), devices=devices), devices


def test_codegen_cache_distinguishes_policies():
    """One lookup a chain: the profiled flavor's chains differ from the
    static ones where a classifier dispatches (the note hook), and the
    rest are the static chains' texts, which it finds; a third router's
    static chains find every text and compile nothing."""
    cache = default_cache()
    cache.clear()
    static = FastPath(_simple_router()[0])
    static.materialize()
    chains = len(static.chains)
    assert cache.stats() == {"entries": chains, "hits": 0, "misses": chains}
    profiling = FastPath(_simple_router()[0], policy=ChainPolicy(store=ProfileStore()))
    profiling.materialize()
    noted = {key for key, chain in profiling.chains.items() if chain.template != static.chains[key].template}
    assert noted and all(key[0] == "push" and key[1] == "src" for key in noted)
    assert cache.stats() == {"entries": chains + len(noted), "hits": chains - len(noted), "misses": chains + len(noted)}
    again = FastPath(_simple_router()[0])
    again.materialize()
    assert again.report.compiled_units == 0 and cache.hits == 2 * chains - len(noted)
    assert all(chain.code is static.chains[key].code for key, chain in again.chains.items())


def test_codegen_cache_capacity_evicts(monkeypatch):
    """Past its capacity the store evicts the chain it was asked for
    least recently, and a fast path that enters that chain compiles it
    again."""
    monkeypatch.setattr(codegen_cache, "CAPACITY", 1)
    cache = default_cache()
    cache.clear()
    static = FastPath(_simple_router()[0])
    keys = list(static._compiled)
    static.materialize(keys[:2])
    assert len(cache) == 1
    again = FastPath(_simple_router()[0])
    again.materialize(keys[:2])  # the first chain was evicted by the second
    assert again.report.compiled_units == 2 and len(cache) == 1


BRANCHES = """
src :: PollDevice(eth0) -> c :: Classifier(12/0800, 12/0806, -);
c[0] -> q :: Queue(64) -> ToDevice(eth1);
c[1] -> arp :: Counter -> q;
c[2] -> Discard;
"""


@pytest.mark.parametrize("mode", ["adaptive", "fdd"])
def test_profiling_notes_what_the_patched_tree_answers(mode):
    """A rules patch that moves a frame to another output: the next
    sampled note counts the output the new tree gives it, and the
    exemplar it keeps walks the new tree to that output — the profiled
    flavor reads the live tree, not code compiled for the old one."""
    from repro.control import ControlPlane
    from repro.elements.devices import LoopbackDevice
    from repro.runtime import ExecutionProfile
    from repro.runtime.fdd import classifier_hot_path

    config = AdaptiveConfig(threshold=1 << 20, sample=1, min_samples=1 << 20)
    profile = ExecutionProfile.fdd(config=config) if mode == "fdd" else ExecutionProfile.tiered(config=config)
    devices = {name: LoopbackDevice(name) for name in ("eth0", "eth1")}
    router = Router(parse_graph(BRANCHES, "<branches>"), devices=devices, profile=profile)
    store = router.adaptive.store
    ip = bytes(12) + b"\x08\x00" + bytes(50)
    devices["eth0"].receive_frame(ip)
    router.run_tasks(1)
    assert store.classifier["c"] == {0: 1} and store.classifier_exemplar["c"] == {0: ip}
    report = ControlPlane(router).update_rules("c", ["12/0806", "12/0800", "-"])
    assert report.kind == "in-place" and store.classifier["c"] == {}
    devices["eth0"].receive_frame(ip)
    router.run_tasks(1)
    assert store.classifier["c"] == {1: 1}
    (exemplar,) = store.classifier_exemplar["c"].values()
    tree = router.find("c").tree
    assert exemplar == ip and tree.match(exemplar) == 1
    assert classifier_hot_path(tree, 1, exemplar) and not classifier_hot_path(tree, 0, exemplar)
    assert len(devices["eth1"].transmitted) == 2 and router.find("arp").count == 1
