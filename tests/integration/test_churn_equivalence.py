"""Property test for control-plane churn: a random ``GraphDelta``
installed incrementally (``ControlPlane.apply`` — in-place patch or
delta-scoped swap) must be observably identical to installing it as a
full transactional hot-swap, in every execution mode, supervised or
not, judged by the click-fuzz oracle.

Two layers of strictness:

- within one installation path, the whole mode matrix must agree on
  transmitted bytes *and* every element read handler (the oracle's
  standard contract);
- across the two installation paths, the transmitted bytes and every
  read handler must be identical: an in-place patch keeps each live
  element, and a swap carries every field its class declares ``carry``.
"""

import random

import pytest

from repro.configs.firewall import firewall_config
from repro.configs.iprouter import default_interfaces, ip_router_config
from repro.core.toolchain import load_config, save_config
from repro.lang.lexer import split_config_args
from repro.runtime import AdaptiveConfig, ExecutionProfile
from repro.runtime.adaptive import ProfileStore
from repro.verify import gentraffic
from repro.verify.chaos import compare_chaos, seeded_plan
from repro.verify.genconfig import stock_cases
from repro.verify.gentraffic import rules_update_text
from repro.verify.oracle import MODES, first_transmit_difference, run_case

from ..chains import assert_chains_as_fresh

SEEDS = range(5)


@pytest.fixture(autouse=True)
def chains_as_fresh(monkeypatch):
    """After every control event a trace installs — an update or a
    hot-swap — every chain record of the live router is what a fresh
    build of its configuration text emits (:mod:`tests.chains`).  A
    sharded plane's shards, and a router under injected faults (whose
    fault wrappers a fresh build lacks), are not compared."""
    import repro.events
    from repro.verify import oracle

    apply = repro.events.apply

    def checked(router, event, devices=None):
        report = apply(router, event, devices)
        if event[0] in ("hotswap", "update") and not getattr(router, "is_sharded", False) and router.fault_injector is None:
            assert_chains_as_fresh(router)
        return report

    monkeypatch.setattr(repro.events, "apply", checked)
    monkeypatch.setattr(oracle, "apply", checked)


def stock_iprouter(events=48):
    cases = {case["name"]: case for case in stock_cases(events_count=events)}
    return cases["iprouter-mtu1500"]


def random_update_text(config_text, rng):
    """A randomly mutated configuration: pure-data mutations (route
    shuffles/additions, classifier rule rotation) and, half the time, a
    structural one (a Counter spliced onto a random edge).  Returns the
    new text and whether the delta is structural."""
    graph = load_config(config_text, "<churn>")
    structural = rng.random() < 0.5

    # Pure-data: perturb the route table (order and an extra route to an
    # already-used output port).
    rt = graph.elements.get("rt")
    if rt is not None:
        routes = split_config_args(rt.config)
        ports = sorted({route.split()[-1] for route in routes})
        rng.shuffle(routes)
        if rng.random() < 0.7:
            routes.append(
                "203.0.%d.0/24 %s" % (rng.randrange(1, 250), rng.choice(ports))
            )
        rt.config = ", ".join(routes)

    # Pure-data: rotate a classifier's rules (port meanings change —
    # the two installation paths must still agree exactly).
    if rng.random() < 0.4:
        cls = graph.elements.get("c0")
        if cls is not None:
            rules = split_config_args(cls.config)
            rotation = rng.randrange(len(rules))
            cls.config = ", ".join(rules[rotation:] + rules[:rotation])

    if structural:
        conns = [c for c in graph.connections]
        conn = conns[rng.randrange(len(conns))]
        name = "churn%d" % rng.randrange(1 << 16)
        graph.remove_connection(conn)
        graph.add_element(name, "Counter", None)
        graph.add_connection(conn.from_element, conn.from_port, name, 0)
        graph.add_connection(name, 0, conn.to_element, conn.to_port)

    return save_config(graph), structural


def with_event(case, event, name):
    events = list(case["events"])
    events.insert(len(events) // 2, event)
    return dict(case, events=events, name=name)


@pytest.mark.parametrize("seed", SEEDS)
def test_incremental_update_matches_full_hotswap(seed):
    rng = random.Random(seed)
    case = stock_iprouter()
    update_text, structural = random_update_text(case["config"], rng)

    observations = {}
    for path, event in (
        ("update", ["update", update_text]),
        ("hotswap", ["hotswap", update_text]),
    ):
        runs = {}
        for mode in MODES:
            for supervised in (False, True):
                label = "%s%s" % (mode, "+supervised" if supervised else "")
                result = run_case(
                    with_event(case, event, "churn-%s-%d" % (path, seed)),
                    mode,
                    supervised=supervised,
                )
                assert result[0] == "ok", "%s/%s failed: %s" % (path, label, result)
                runs[label] = result[1]
        # Within one installation path the full matrix must agree on
        # bytes and counters, like any oracle case.
        reference = runs["reference"]
        for label, observed in runs.items():
            diff = first_transmit_difference(
                reference["transmitted"], observed["transmitted"]
            )
            assert diff is None, "%s/%s transmitted: %s" % (path, label, diff)
            assert observed["counters"] == reference["counters"], (
                "%s/%s counters diverged" % (path, label)
            )
        observations[path] = reference

    # Across the two installation paths: byte-identical wire output and
    # the same read handlers.
    diff = first_transmit_difference(
        observations["update"]["transmitted"], observations["hotswap"]["transmitted"]
    )
    assert diff is None, "update vs hotswap (structural=%s): %s" % (structural, diff)
    assert observations["update"]["counters"] == observations["hotswap"]["counters"], (
        "update vs hotswap (structural=%s) counters diverged" % structural
    )
    # Both paths actually forwarded traffic — the property is not vacuous.
    assert any(observations["update"]["transmitted"].values())


def with_rules_patches(case, rng, changing=False):
    """``case`` with two rules rotations installed a third and two
    thirds of the way through, the second a rotation of the first.
    ``changing`` draws each again until the reference interpreter
    transmits something else for it: the stock firewall's traffic
    matches one rule in seventeen, so most rotations of it decide
    every packet as before, and a run that changes no verdict would
    pass on a stale matcher."""
    text = case["config"]
    for position in (1, 2):
        transmitted = run_case(case, "reference")[1]["transmitted"]
        for _attempt in range(256):
            text_after = rules_update_text(text, rng)
            events = list(case["events"])
            events.insert(position * len(events) // 3, ["update", text_after])
            patched = dict(case, events=events)
            if not changing or run_case(patched, "reference")[1]["transmitted"] != transmitted:
                break
        else:
            raise AssertionError("no rotation of %s changes what it forwards" % case["name"])
        case, text = patched, text_after
    return case


def long_stock_cases(seed, frames=512):
    """Both stock configurations under ``frames`` frames of their
    fuzzing traffic (``stock_cases`` stops the firewall's at 64)."""
    interfaces = default_interfaces(2)
    return [
        {
            "name": "iprouter-%d" % seed,
            "config": ip_router_config(interfaces),
            "events": gentraffic.iprouter_events(random.Random(seed), interfaces, count=frames),
        },
        {
            "name": "firewall-%d" % seed,
            "config": firewall_config(),
            "events": gentraffic.firewall_events(random.Random(seed), count=frames),
        },
    ]


#: The diagram rebuilds of a trace with two rules patches and one bare
#: hot-swap: one per patch, and none for the swap, which renews every
#: classifier but not its rules (each plan is kept).
REBUILDS_BY_TWO_PATCHES = 2


#: Every packet through the profiled flavor: sampled one in one, and
#: never enough for a promotion.
PROFILED_ONLY = AdaptiveConfig(sample=1, threshold=1 << 30, min_samples=1 << 30)


@pytest.mark.parametrize("seed", SEEDS)
def test_rules_patch_sequence_matches_reference(seed):
    """Rules patch -> traffic -> rules patch under ``fdd`` and
    ``fdd``+batch: the second patch rewrites what the first left, and
    the oracle must see what the reference interpreter shows — on the
    short stock trace at the oracle's eager thresholds, and on both
    stock configurations under 512 frames and verdict-changing
    rotations with every packet sampled (the profiled flavor is not
    rebuilt by a patch: stale, it would show here), promoting as the
    profile matures and never promoting at all.  Each trace keeps its
    bare hot-swap: the engine and its totals outlive it."""
    from dataclasses import replace

    from repro.verify.oracle import mode_profile

    rng = random.Random(seed)
    eager = mode_profile("fdd").adaptive
    runs = [(with_rules_patches(stock_iprouter(events=96), rng), eager)]
    for case in long_stock_cases(seed):
        patched = with_rules_patches(case, rng, changing=True)
        runs += [(patched, AdaptiveConfig(sample=1)), (patched, PROFILED_ONLY)]
    for case, config in runs:
        result = run_case(case, "reference")
        assert result[0] == "ok", result
        reference = result[1]
        assert any(reference["transmitted"].values())
        for batch in (False, True):
            label = "%s/fdd%s/sample=%d" % (case["name"], "+batch" if batch else "", config.sample)
            engines = []
            result = run_case(
                case,
                "fdd",
                profile=ExecutionProfile.fdd(config=config, batch=batch),
                collect=lambda router: engines.append(router.adaptive),
            )
            assert result[0] == "ok", "%s failed: %s" % (label, result)
            (engine,) = engines
            assert engine.diagram_rebuilds == REBUILDS_BY_TWO_PATCHES, (
                "%s did not rebuild its diagrams in place" % label
            )
            if config is PROFILED_ONLY:
                assert engine.recompiles == 0 and {s.tier for s in engine.states.values()} == {1}
            diff = first_transmit_difference(reference["transmitted"], result[1]["transmitted"])
            assert diff is None, "%s transmitted: %s" % (label, diff)
            assert result[1]["counters"] == reference["counters"], "%s counters diverged" % label


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_every_profile_note_is_the_live_trees_answer(seed, monkeypatch):
    """What the profiled flavor records is what the classifier's
    *current* tree says of that very packet — before, between and after
    two rules patches, though no patch rebuilds the flavor."""
    from repro.elements.devices import LoopbackDevice
    from repro.elements.runtime import build_router
    from repro.events import apply
    from repro.verify.oracle import device_names

    noted = []
    live = []
    make_note = ProfileStore.classifier_note

    def checking_note(store, name):
        note = make_note(store, name)

        def checked(out, data):
            assert out == live[-1].find(name).tree.match(data), name
            noted.append(name)
            note(out, data)

        return checked

    monkeypatch.setattr(ProfileStore, "classifier_note", checking_note)
    rng = random.Random(seed)
    for case in long_stock_cases(seed, frames=192):
        events = with_rules_patches(case, rng)["events"]
        first, second = (index for index, event in enumerate(events) if event[0] == "update")
        devices = {name: LoopbackDevice(name, tx_capacity=1 << 30) for name in device_names(case["config"])}
        router = build_router(
            load_config(case["config"], case["name"]),
            devices=devices,
            profile=ExecutionProfile.fdd(config=PROFILED_ONLY),
        )
        live.append(router)
        profiled = router.engine.profiled
        for phase in (events[:first], events[first:second], events[second:]):
            del noted[:]
            for event in phase:
                apply(router, event, devices)
            assert len(noted) > 16, case["name"]
        assert router.engine.profiled is profiled
        assert router.engine.diagram_rebuilds == REBUILDS_BY_TWO_PATCHES


def test_churn_under_seeded_faults_agrees_across_the_supervised_matrix():
    """Churn under chaos: a rules rotation (every output port changes
    meaning) and a route perturbation installed incrementally mid-trace
    while a seeded fault plan fires — every supervised mode must agree
    with the reference on the wire and none may crash."""
    rng = random.Random(7)
    case = stock_iprouter(events=32)
    first = rules_update_text(case["config"], rng)
    second, _structural = random_update_text(first, rng)
    events = list(case["events"])
    events.insert(2 * len(events) // 3, ["update", second])
    events.insert(len(events) // 3, ["update", first])
    case = dict(case, events=events, name="churn-chaos")
    result = compare_chaos(case, seeded_plan(case, 7))
    assert result["status"] == "ok", result["failures"]
    assert set(result["reports"]) == set(MODES)
