"""End-to-end smoke: the driver's command line on every workload."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    MANIFEST = json.load(_handle)


def run(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120)
    assert done.returncode == 0
    return json.loads(done.stdout.strip().splitlines()[-1])


def check(result, section):
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {metric["name"]: metric["unit"] for metric in MANIFEST[section]}
    assert sorted(result["metrics"]) == sorted(wanted)  # each name exactly once
    for name, value in result["metrics"].items():
        assert value["unit"] == wanted[name]
        assert isinstance(value["value"], (int, float))
    return result["metrics"]


@pytest.mark.parametrize("workload", [entry["name"] for entry in MANIFEST["workloads"]])
def test_every_end_to_end_metric_is_printed_once_and_is_never_zero(workload):
    metrics = check(run(workload, 0), "end_to_end")
    assert all(value["value"] > 0 for value in metrics.values())


def test_traced_run_prints_every_layer_metric_and_heals_every_kill():
    metrics = check(run("iprouter_shard2", 1), "per_layer")
    assert metrics["runtime.recovery.recover_ms"]["value"] > 0
    assert metrics["runtime.shard.dispatched.0"]["value"] > 0
    assert metrics["proc.trace_self_share"]["value"] >= 0.95
    stages = [metrics["runtime.fastpath.stage_ns.%s" % stage]["value"]
              for stage in ("poll", "classify", "route", "body", "queue", "transmit")]
    assert sum(stages) > 0
    with open(os.path.join(ROOT, "bench", "out", "trace-iprouter_shard2.json")) as handle:
        trace = json.load(handle)
    names = {span["name"] for span in trace["spans"]}
    assert {"workload", "lang.parse", "shard.start", "shard.kill_heal", "shard.close",
            "feed", "run_tasks", "control.update_routes"} <= names


def test_unknown_workload_and_missing_program_fail_without_a_result(tmp_path):
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", "nope"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert done.returncode != 0 and done.stdout == ""
