"""Property test for control-plane churn: a random ``GraphDelta``
installed incrementally (``ControlPlane.apply`` — in-place patch or
delta-scoped swap) must be observably identical to installing it as a
full transactional hot-swap, in every execution mode, supervised or
not, judged by the click-fuzz oracle.

Two layers of strictness:

- within one installation path, the whole mode matrix must agree on
  transmitted bytes *and* every element read handler (the oracle's
  standard contract);
- across the two installation paths, the transmitted bytes must be
  identical.  (Handler sets legitimately differ across paths: a full
  swap resets counters on elements without ``take_state`` handlers,
  while an in-place patch preserves every live counter.)
"""

import random

import pytest

from repro.core.toolchain import load_config, save_config
from repro.lang.lexer import split_config_args
from repro.verify.chaos import compare_chaos, seeded_plan
from repro.verify.genconfig import stock_cases
from repro.verify.oracle import MODES, first_transmit_difference, run_case

SEEDS = range(5)


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

    # Across the two installation paths: byte-identical wire output.
    diff = first_transmit_difference(
        observations["update"]["transmitted"], observations["hotswap"]["transmitted"]
    )
    assert diff is None, "update vs hotswap (structural=%s): %s" % (structural, diff)
    # Both paths actually forwarded traffic — the property is not vacuous.
    assert any(observations["update"]["transmitted"].values())


def rules_update_text(config_text, rng):
    """The configuration with one ethernet classifier's rules rotated:
    a pure-data delta that changes what every output port means."""
    graph = load_config(config_text, "<churn>")
    decl = graph.elements[rng.choice(["c0", "c1"])]
    rules = split_config_args(decl.config)
    rotation = rng.randrange(1, len(rules))
    decl.config = ", ".join(rules[rotation:] + rules[:rotation])
    return save_config(graph)


@pytest.mark.parametrize("seed", SEEDS)
def test_rules_patch_sequence_matches_reference(seed):
    """Rules patch -> traffic -> rules patch under ``fdd`` and
    ``fdd``+batch: the second rebuild's donor is itself spliced, and
    the oracle must see what the reference interpreter shows."""
    from dataclasses import replace

    from repro.verify.oracle import mode_profile

    rng = random.Random(seed)
    case = stock_iprouter(events=96)
    first = rules_update_text(case["config"], rng)
    second = rules_update_text(first, rng)
    events = list(case["events"])
    events.insert(2 * len(events) // 3, ["update", second])
    events.insert(len(events) // 3, ["update", first])
    case = dict(case, events=events, name="rules-sequence-%d" % seed)

    result = run_case(case, "reference")
    assert result[0] == "ok", result
    reference = result[1]
    assert any(reference["transmitted"].values())
    for label, profile in (
        ("fdd", mode_profile("fdd")),
        ("fdd+batch", replace(mode_profile("fdd"), batch=True)),
    ):
        rebuilds = []
        result = run_case(
            case,
            "fdd",
            profile=profile,
            collect=lambda router: rebuilds.append(router.adaptive.diagram_rebuilds),
        )
        assert result[0] == "ok", "%s failed: %s" % (label, result)
        assert rebuilds == [2], "%s did not rebuild its diagrams in place" % label
        diff = first_transmit_difference(reference["transmitted"], result[1]["transmitted"])
        assert diff is None, "%s transmitted: %s" % (label, diff)
        assert result[1]["counters"] == reference["counters"], "%s counters diverged" % label


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
