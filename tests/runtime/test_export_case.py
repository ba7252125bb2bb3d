"""A shard's replay journal is an oracle case:
``ShardedRouter.export_case`` writes one shard's birth configuration and
journal in the event vocabulary of ``repro.events``, and the reference
interpreter replays it to exactly the bytes that shard delivered."""

import json
import random

import pytest

from repro.core.toolchain import load_config, save_config
from repro.elements.devices import LoopbackDevice
from repro.elements.runtime import build_router
from repro.events import apply
from repro.runtime.shard import ShardedRouter
from repro.verify import chaos
from repro.verify.chaos import compare_recovery
from repro.verify.genconfig import generate_case, stock_cases
from repro.verify.gentraffic import with_rules_update
from repro.verify.oracle import compare_case, device_names, mode_profile, run_case
from repro.verify.shrink import load_repro, write_repro

CASES = stock_cases() + [generate_case(20261017, index, events_count=48) for index in range(6)]


@pytest.fixture
def delivered(monkeypatch):
    """``delivered[(plane, index)][device]``: the hex frames shard
    ``index`` of ``plane`` handed its coordinator, in delivery order."""
    output = {}
    take = ShardedRouter._take

    def spied(plane, shard, collected, absorb=True):
        for name, frames in collected[1].items():
            got = output.setdefault((id(plane), shard.index), {}).setdefault(name, [])
            got.extend(bytes(frame).hex() for frame in frames)
        return take(plane, shard, collected, absorb)

    monkeypatch.setattr(ShardedRouter, "_take", spied)
    return lambda plane, index: {
        name: frames for name, frames in output.get((id(plane), index), {}).items() if frames
    }


def replayed(case):
    """What the reference interpreter transmits on ``case``."""
    status, observation = run_case(case, "reference")
    assert status == "ok", observation
    return {name: frames for name, frames in observation["transmitted"].items() if frames}


def journaled_run(case, mode, tx_capacity=1 << 30, divide_capacity=False):
    """Play ``case`` on a journaling sharded plane; returns it closed."""
    devices = {
        name: LoopbackDevice(name, tx_capacity=tx_capacity)
        for name in device_names(case["config"])
    }
    profile = mode_profile(mode)
    if divide_capacity:
        profile = profile.with_workers(profile.workers, divide_capacity=True)
    plane = build_router(
        load_config(case["config"], case["name"]), devices=devices, profile=profile, journal=True
    )
    try:
        for event in case["events"]:
            apply(plane, event, devices)
    finally:
        plane.close()
    return plane


@pytest.mark.parametrize("update", [False, True], ids=["plain", "rules-update"])
@pytest.mark.parametrize("mode", ["shard-fast", "shard-fdd"])
@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_export_replays_to_what_the_shard_delivered(case, mode, update, delivered):
    if update:
        case = with_rules_update(case, random.Random(case["name"]))
    plane = journaled_run(case, mode)
    for index in range(plane.workers):
        exported = plane.export_case(index)
        assert replayed(exported) == delivered(plane, index), index
        assert compare_case(exported)["status"] == "ok"


def test_export_divides_the_configuration(delivered):
    """Under ``divide_capacity`` the case holds the shard's share of
    every queue, in the birth text and in a folded update."""
    case = CASES[0]
    graph = load_config(case["config"])
    queues = sorted(name for name, decl in graph.elements.items() if decl.class_name == "Queue")
    assert {graph.elements[name].config for name in queues} == {"64"}
    graph.elements[queues[0]].config = "129"
    events = list(case["events"])
    events.insert(len(events) // 2, ["update", save_config(graph)])
    plane = journaled_run(dict(case, events=events), "shard-fast", divide_capacity=True)
    for index in range(plane.workers):
        exported = plane.export_case(index)
        (update,) = [event[1] for event in exported["events"] if event[0] == "update"]
        for text, first in ((exported["config"], "32"), (update, ("65", "64")[index])):
            elements = load_config(text).elements
            assert [elements[name].config for name in queues] == [first, "32"]
        assert replayed(exported) == delivered(plane, index)


def test_a_bounded_ring_rides_in_as_mirror_events(delivered):
    """A real transmit ring that fills (nobody drains it) blocks the
    shards; the journal's transmit mirrors carry that into the case, so
    the replay blocks where the shard did."""
    case = CASES[0]
    plane = journaled_run(case, "shard-fast", tx_capacity=8)
    for index in range(plane.workers):
        exported = plane.export_case(index)
        assert any(event[0] == "mirror" for event in exported["events"])
        assert replayed(exported) == delivered(plane, index)
        unbounded = [event for event in exported["events"] if event[0] != "mirror"]
        assert replayed(dict(exported, events=unbounded)) != delivered(plane, index)


def test_repro_file_round_trip_is_the_identity(tmp_path):
    plane = journaled_run(with_rules_update(CASES[2], random.Random(2)), "shard-fast")
    exported = plane.export_case(1)
    path = write_repro(str(tmp_path / "shard.repro.json"), exported, result={"status": "ok"})
    assert load_repro(path) == exported


def test_export_needs_the_journal():
    case = CASES[0]
    devices = {name: LoopbackDevice(name) for name in device_names(case["config"])}
    plane = build_router(
        load_config(case["config"]), devices=devices, profile=mode_profile("shard-fast")
    )
    try:
        plane.run_tasks(1)
        with pytest.raises(RuntimeError, match="journal"):
            plane.export_case(0)
    finally:
        plane.close()


RECOVERY_CASES = [CASES[0], CASES[2]]  # iprouter-mtu1500 and firewall


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("policy", ["buffer", "resteer"])
@pytest.mark.parametrize("kind", ["crash-storm", "crash-loop"])
@pytest.mark.parametrize("case", RECOVERY_CASES, ids=[case["name"] for case in RECOVERY_CASES])
def test_a_healed_shard_exports_what_it_delivered(case, kind, policy, backend, delivered):
    """Kills, a mid-commit kill with its rollback and retry, and a
    quarantined poison frame: each shard's journal still replays to
    exactly what the shard delivered across all its lives."""
    planes = []
    result = compare_recovery(case, kind, policy, backend, seed=7, collect=planes.append)
    assert result["status"] == "ok", result["failures"]
    assert "cases" not in result
    (plane,) = planes
    for index in range(plane.workers):
        assert replayed(plane.export_case(index)) == delivered(plane, index), index


def test_a_recovery_failure_carries_every_shards_case(monkeypatch):
    monkeypatch.setattr(chaos, "_recovery_shortfall", lambda kind, checks: "forced")
    result = compare_recovery(CASES[0], "crash-storm", seed=7)
    assert result["status"] == "divergence"
    cases = result["cases"]
    assert len(cases) == chaos.RECOVERY_WORKERS
    json.dumps(result)  # the report stays JSON
    assert compare_case(cases[1], modes=["reference", "fast"])["status"] == "ok"
