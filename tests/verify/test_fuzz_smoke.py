"""Smoke tests for the fuzzing subsystem: generators produce legal
cases, traces are deterministic, repro files round-trip, a non-default
``AdaptiveConfig`` leaves the oracle's wire output alone, and the
``click-fuzz`` CLI runs the full matrix clean on a fixed seed.
"""

import json
import random
from dataclasses import replace

import pytest

from repro.core.check import check
from repro.core.toolchain import load_config
from repro.elements.devices import LoopbackDevice
from repro.elements.runtime import Router
from repro.events import apply
from repro.lang.lexer import split_config_args
from repro.runtime.adaptive import AdaptiveConfig
from repro.verify import cli
from repro.verify.genconfig import generate_case, random_pipeline, stock_cases
from repro.verify.gentraffic import iprouter_events, with_rules_update
from repro.verify.oracle import MODES, compare_case, mode_profile, run_case
from repro.verify.shrink import load_repro, write_repro


class TestGenerators:
    def test_random_pipelines_are_legal(self):
        rng = random.Random(42)
        for _ in range(12):
            graph = random_pipeline(rng)
            collector = check(graph)
            assert not collector.errors, collector.format()

    def test_generated_cases_parse_and_check(self):
        for index in range(8):
            case = generate_case(3, index)
            graph = load_config(case["config"], case["name"])
            assert graph.elements
            assert case["events"]

    def test_traces_are_deterministic(self):
        from repro.configs.iprouter import default_interfaces

        interfaces = default_interfaces(2)
        a = iprouter_events(random.Random(9), interfaces, count=24)
        b = iprouter_events(random.Random(9), interfaces, count=24)
        assert a == b

    def test_same_seed_same_cases(self):
        assert generate_case(5, 2) == generate_case(5, 2)

    def test_a_grown_filter_update_goes_past_a_hundred_rules(self):
        """``--updates`` grows the firewall's filter past a hundred
        rules, seven eighths in, from the text in force there; a case
        without an ``IPFilter`` is left alone."""
        from repro.verify.gentraffic import with_grown_filter

        iprouter, _mtu576, firewall = stock_cases(events_count=16)
        assert with_grown_filter(iprouter) == iprouter
        rotated = with_rules_update(firewall, random.Random(5))
        grown = with_grown_filter(rotated)
        added = [event for event in grown["events"] if event not in rotated["events"]]
        (update,) = added
        at = grown["events"].index(update)
        assert at == 7 * len(rotated["events"]) // 8
        before = load_config([e for e in rotated["events"][:at] if e[0] == "update"][-1][1])
        after = load_config(update[1])
        rules = split_config_args(after.elements["fw"].config)
        assert len(rules) == 104
        assert rules[-17:] == split_config_args(before.elements["fw"].config)
        assert before.connections == after.connections

    def test_a_permuted_filter_update_keeps_every_verdict(self):
        """``--updates`` reorders the first ``IPFilter``'s rules five
        sixths in, from the text in force there, inside runs of one
        verdict: a new text of the same table, which every mode takes
        as a no-op — the graph keeps the text it had.  A case without
        an ``IPFilter`` is left alone."""
        from repro.classifier.ipfilter import filter_rules_key
        from repro.verify.gentraffic import with_permuted_filter

        iprouter, _mtu576, firewall = stock_cases(events_count=16)
        assert with_permuted_filter(iprouter, random.Random(5)) == iprouter
        rotated = with_rules_update(firewall, random.Random(5))
        permuted = with_permuted_filter(rotated, random.Random(5))
        assert permuted == with_permuted_filter(rotated, random.Random(5))
        (update,) = [event for event in permuted["events"] if event not in rotated["events"]]
        at = permuted["events"].index(update)
        assert at == 5 * len(rotated["events"]) // 6
        before = load_config([e for e in rotated["events"][:at] if e[0] == "update"][-1][1])
        after = load_config(update[1])
        old, new = (split_config_args(graph.elements["fw"].config) for graph in (before, after))
        assert old != new and sorted(old) == sorted(new)
        assert filter_rules_key(old) == filter_rules_key(new)
        assert before.connections == after.connections
        for mode in ("reference", "fdd"):
            devices = {name: LoopbackDevice(name) for name in ("eth0", "eth1")}
            router = Router(load_config(firewall["config"]), devices=devices, profile=mode_profile(mode))
            reports = [apply(router, event, devices) for event in permuted["events"][: at + 1]]
            assert reports[-1].kind == "no-op"
            assert router.graph.elements["fw"].config == before.elements["fw"].config

    def test_rules_updates_are_seeded_and_only_where_a_classifier_is(self):
        cases = stock_cases(events_count=16) + [generate_case(11, index, 16) for index in range(12)]
        updated = [with_rules_update(case, random.Random(5)) for case in cases]
        assert updated == [with_rules_update(case, random.Random(5)) for case in cases]
        rotated = 0
        for case, after in zip(cases, updated):
            texts = [event[1] for event in after["events"] if event[0] == "update"]
            if "Classifier(" in case["config"] or "IPFilter(" in case["config"]:
                # the rotation mid-trace, then a value edit of the same
                # classifier three quarters in
                text, edit = texts
                assert text != case["config"] and len(after["events"]) == len(case["events"]) + 2
                before, patched = load_config(case["config"]), load_config(text)
                assert list(before.elements) == list(patched.elements)
                changed = [n for n, d in patched.elements.items() if d.config != before.elements[n].config]
                assert len(changed) == 1 and before.connections == patched.connections
                edited = load_config(edit)
                assert [n for n, d in edited.elements.items() if d.config != patched.elements[n].config] == changed
                assert edited.connections == patched.connections
                old_rules, new_rules = (split_config_args(g.elements[changed[0]].config) for g in (patched, edited))
                (pair,) = [(a, b) for a, b in zip(old_rules, new_rules) if a != b]
                assert len(old_rules) == len(new_rules)
                assert sum(a != b for a, b in zip(*(rule.split() for rule in pair))) == 1
                assert len(after["events"]) // 2 < after["events"].index(["update", edit])
                rotated += 1
            else:
                assert after is case and not texts
        assert 3 < rotated < len(cases)

    def test_stock_cases_cover_both_mtus_and_firewall(self):
        names = [case["name"] for case in stock_cases(events_count=16)]
        assert names == ["iprouter-mtu1500", "iprouter-mtu576", "firewall"]


class TestReproFiles:
    def test_round_trip(self, tmp_path):
        case = generate_case(11, 0, events_count=8)
        path = tmp_path / "case.repro.json"
        write_repro(str(path), case, result={"status": "ok", "divergences": []}, seed=11)
        loaded = load_repro(str(path))
        assert loaded["config"] == case["config"]
        assert loaded["events"] == [list(event) for event in case["events"]]
        assert loaded["optimize"] == case["optimize"]


class TestAdaptiveConfigIdentity:
    """An ``AdaptiveConfig`` may change *when* the runtime compiles,
    promotes or recompiles, never *what* leaves the wire: every stock
    case, every oracle mode, byte-identical transmits against the
    mode's own profile."""

    #: Far from the defaults in every knob (a searched assignment).
    SLOW = AdaptiveConfig(
        threshold=4505,
        sample=4,
        min_samples=148,
        guard_miss_limit=37261,
        hot_fraction=0.9,
        max_recompiles=57,
    )
    #: The same, made eager so short traces cross tier transitions.
    EAGER = AdaptiveConfig(**dict(SLOW.as_dict(), threshold=48, sample=4, min_samples=12))

    @staticmethod
    def transmits(case, mode, profile=None):
        status, observation = run_case(case, mode, profile=profile)
        assert status == "ok", observation
        return observation["transmitted"]

    @pytest.mark.parametrize("mode", list(MODES))
    def test_config_is_wire_identical(self, mode):
        profile = replace(mode_profile(mode), adaptive=self.SLOW)
        for case in stock_cases(events_count=48):
            assert self.transmits(case, mode, profile) == self.transmits(case, mode), case["name"]

    def test_eager_config_crosses_tier_transitions(self):
        profile = replace(mode_profile("adaptive"), adaptive=self.EAGER)
        for case in stock_cases(events_count=64):
            assert self.transmits(case, "adaptive", profile) == self.transmits(case, "adaptive")


class TestCli:
    def test_clean_fuzz_run_exits_zero(self, tmp_path):
        report = tmp_path / "report.json"
        status = cli.main(
            [
                "--seed", "3",
                "--budget", "4",
                "--events", "24",
                "--repro-dir", str(tmp_path / "repros"),
                "--report", str(report),
            ]
        )
        assert status == 0
        payload = json.loads(report.read_text())
        assert payload["summary"]["cases"] == 4
        assert payload["summary"]["divergence"] == 0
        assert payload["mode_matrix"] == list(MODES)

    def test_clean_run_with_rules_updates_exits_zero(self, tmp_path):
        """CI's FDD line at a small budget: every case with a
        classifier has its rules rotated mid-trace."""
        report = tmp_path / "report.json"
        status = cli.main(
            [
                "--seed", "11",
                "--budget", "6",
                "--events", "24",
                "--modes", "reference,fast,adaptive,fdd",
                "--updates",
                "--repro-dir", str(tmp_path / "repros"),
                "--report", str(report),
            ]
        )
        assert status == 0
        summary = json.loads(report.read_text())["summary"]
        assert summary["cases"] == summary["ok"] == 6

    def test_replay_of_clean_repro_exits_zero(self, tmp_path):
        case = stock_cases(events_count=16)[2]  # the firewall: fastest
        path = tmp_path / "firewall.repro.json"
        write_repro(str(path), case, result=compare_case(case), seed=0)
        status = cli.main(["--repro", str(path), "--report", str(tmp_path / "r.json")])
        assert status == 0

    def test_unknown_mode_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["--modes", "reference,warp"])
