"""The noise-aware verdicts and the manifest the code must match."""

import json
import os

from routerbench import compare, drive, layers, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_verdicts():
    steady = [100, 101, 99, 100]
    assert compare.verdict(steady, [102, 103, 101, 102], "lower", 0.05)[0] == "within bound"
    assert compare.verdict(steady, [110, 111, 109, 110], "lower", 0.05)[0] == "worse"
    assert compare.verdict(steady, [90, 91, 89, 90], "lower", 0.05)[0] == "better"
    assert compare.verdict(steady, [90, 91, 89, 90], "higher", 0.05)[0] == "worse"
    noisy = [100, 120, 80, 100]
    assert compare.verdict(noisy, [104, 124, 84, 104], "lower", 0.05)[0] == "unresolved"
    # wider than the bound, yet every run of the change beats every run of the base
    assert compare.verdict(noisy, [60, 70, 50, 60], "lower", 0.05)[0] == "better"
    assert compare.verdict([100], [104], "lower", 0.05)[0] == "within bound"


def test_agreement_flags_a_spread_over_its_bound(capsys):
    benchmark = {
        "workloads": [{"name": "w"}],
        "end_to_end": [
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1},
            {"name": "m", "unit": "ns", "better": "lower", "bound": 0.1},
        ],
    }

    def one(setup, value):
        metrics = {"setup_s": {"value": setup, "unit": "s"}, "m": {"value": value, "unit": "ns"}}
        return {"workloads": {"w": {"failed": 0, "attempted": 1, "metrics": metrics}}}

    assert compare.agreement(benchmark, [one(1.0, 100.0), one(2.0, 104.0)]) == 0
    assert compare.agreement(benchmark, [one(1.0, 100.0), one(1.0, 120.0)]) == 1
    assert "OVER" in capsys.readouterr().out


def test_manifest_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    assert sorted(manifest) == ["command", "end_to_end", "paths", "per_layer",
                                "run_seconds", "workloads"]
    assert manifest["workloads"] == [
        {"name": workload.name, "why": workload.why} for workload in workloads.WORKLOADS]
    assert manifest["end_to_end"] == [
        {"name": name, "unit": unit, "better": better, "bound": bound}
        for name, unit, better, bound in drive.END_TO_END]
    assert manifest["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better in layers.PER_LAYER]
    assert len(manifest["per_layer"]) <= 128 and len(manifest["end_to_end"]) <= 16
    assert all(len(workload["why"]) <= 200 for workload in manifest["workloads"])
