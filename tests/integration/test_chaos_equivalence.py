"""Chaos equivalence: under any seeded fault plan the supervised
router must neither crash nor diverge on the wire in any execution
mode, and a mid-trace transactional hot-swap must be observably
invisible — even while faults are firing."""

import pytest

from repro.sim.faults import FaultPlan
from repro.verify.chaos import compare_chaos, element_candidates, seeded_plan
from repro.verify.genconfig import stock_cases
from repro.verify.oracle import MODES, device_names, run_case


def stock(name, events=64):
    cases = {case["name"]: case for case in stock_cases(events_count=events)}
    return cases[name]


def with_hotswap(case, name):
    """The same case with a transactional hot-swap spliced mid-trace."""
    events = list(case["events"])
    events.insert(len(events) // 2, ["hotswap"])
    return dict(case, events=events, name=name)


class TestSeededChaos:
    @pytest.mark.parametrize("seed", [3, 11, 29])
    @pytest.mark.parametrize("config", ["iprouter-mtu1500", "firewall"])
    def test_stock_cases_resilient(self, config, seed):
        case = stock(config)
        plan = seeded_plan(case, seed)
        result = compare_chaos(case, plan)
        assert result["status"] == "ok", result["failures"]
        # Every mode ran supervised and produced a report.
        assert set(result["reports"]) == set(MODES)
        for report in result["reports"].values():
            assert report["faults"] is not None

    def test_faults_actually_fired(self):
        """The harness is not vacuous: an aggressive plan records real
        injections and real boundary catches, and still holds the
        contract."""
        case = stock("iprouter-mtu1500")
        assert ["hotswap"] in case["events"]  # the supervisor's totals outlive it
        plan = FaultPlan(
            faults=[
                {"kind": "device_flap", "device": "eth0", "at": 1, "ticks": 2},
                {
                    "kind": "corrupt_frame",
                    "device": "eth0",
                    "after": 2,
                    "count": 3,
                    "offset": 14,
                    "xor": 0x5A,
                },
                {"kind": "element_error", "element": "CheckIPHeader@6", "after": 2, "count": 3},
            ]
        )
        result = compare_chaos(case, plan)
        assert result["status"] == "ok", result["failures"]
        for mode, report in result["reports"].items():
            faults = report["faults"]
            assert faults["elements"]["CheckIPHeader@6"]["errors_fired"] >= 1, mode
            assert faults["devices"]["eth0"]["down_polls"] >= 1, mode
        # Compiled modes demoted at least one chain over the element
        # faults; the reference mode contained them at its task ports.
        assert result["reports"]["fast"]["totals"]["chain_errors"] >= 1
        assert result["reports"]["reference"]["totals"]["chain_errors"] >= 1

    def test_element_fault_names_come_from_flattened_graph(self):
        case = stock("iprouter-mtu1500")
        candidates = element_candidates(case["config"])
        assert candidates
        assert not any(name in device_names(case["config"]) for name in candidates)
        plan = seeded_plan(case, 7)
        assert set(plan.element_names()) <= set(candidates)


class TestSwapUnderLoad:
    @pytest.mark.parametrize("mode", list(MODES))
    def test_hotswap_mid_trace_is_invisible(self, mode):
        """Transactional hot-swap to the same configuration mid-trace:
        byte-identical to never swapping, in every mode (the repro.verify
        oracle is the equivalence judge)."""
        case = stock("iprouter-mtu1500")
        baseline = run_case(case, mode)
        assert baseline[0] == "ok", baseline
        swapped = run_case(with_hotswap(case, "iprouter-swap"), mode)
        assert swapped[0] == "ok", swapped
        assert swapped[1]["transmitted"] == baseline[1]["transmitted"]

    def test_hotswap_under_device_faults_resilient(self):
        """Swap while devices flap and frames corrupt: still crash-free
        and byte-identical across the matrix.  (Element faults are
        carried across the swap by the injector; device faults live on
        the shared wrapped devices.)"""
        case = stock("firewall")
        swap_case = with_hotswap(case, "firewall-swap")
        plan = FaultPlan(
            faults=[
                {
                    "kind": "device_flap",
                    "device": device_names(case["config"])[0],
                    "at": 2,
                    "ticks": 2,
                },
                {
                    "kind": "corrupt_frame",
                    "device": device_names(case["config"])[0],
                    "after": 3,
                    "count": 2,
                },
            ]
        )
        result = compare_chaos(swap_case, plan)
        assert result["status"] == "ok", result["failures"]

    def test_element_faults_survive_swap(self):
        """An element-fault window that opens after the swap point still
        fires (injector counters continue across prepare_router) and the
        matrix still agrees."""
        case = stock("iprouter-mtu1500")
        swap_case = with_hotswap(case, "iprouter-swap-late-fault")
        plan = FaultPlan(
            faults=[{"kind": "element_error", "element": "CheckIPHeader@6", "after": 20, "count": 2}]
        )
        result = compare_chaos(swap_case, plan)
        assert result["status"] == "ok", result["failures"]
        fired = [
            report["faults"]["elements"]["CheckIPHeader@6"]["errors_fired"]
            for report in result["reports"].values()
        ]
        assert all(count == fired[0] for count in fired)


class TestHarness:
    def test_compare_chaos_detects_crash(self):
        """A deliberately unsupervisable case (exception outside any
        boundary, unsupervised path) registers as a crash, proving the
        harness would catch a real escape."""
        case = {
            "name": "crash-probe",
            "config": stock("firewall")["config"],
            "events": [["explode"]],
            "optimize": False,
        }
        result = compare_chaos(case, FaultPlan(), modes=["fast"])
        assert result["status"] == "crash"
        assert all(f["kind"] == "crash" for f in result["failures"])

    def test_cli_smoke(self, tmp_path, capsys):
        from repro.verify.chaos import main

        plan_path = tmp_path / "plan.json"
        report_path = tmp_path / "report.json"
        status = main(
            [
                "--seed",
                "7",
                "--config",
                "firewall",
                "--events",
                "48",
                "--plan-out",
                str(plan_path),
                "--report",
                str(report_path),
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "resilient" in out
        # The emitted plan replays to the same verdict.
        status = main(
            ["--config", "firewall", "--events", "48", "--plan", str(plan_path)]
        )
        assert status == 0
        import json

        report = json.loads(report_path.read_text())
        assert report["summary"]["ok"] == 1
        assert report["cases"][0]["reports"]["adaptive"]["totals"]["chains"] > 0
