"""The identity relation of hot-swap: a trace with a bare mid-trace
``["hotswap"]`` (it installs the live configuration again) equals the
same trace without it, on the wire and on every field an element class
declares ``carry``; right after the swap, every ``reset`` field reads
what a fresh element of the same configuration holds.

The traces ``gentraffic`` builds carry that swap already, so the cases
below are the fuzzer's own: every stock case and a seeded run of
generated ones.
"""

import pytest

from repro.core.toolchain import load_config
from repro.elements.devices import LoopbackDevice
from repro.elements.runtime import build_router
from repro.verify.genconfig import generate_case, stock_cases
from repro.verify.oracle import MODES, device_names, run_case

from ..elements.test_declared_state import settled

CASES = stock_cases() + [generate_case(4099, index) for index in range(24)]


def without_swaps(case):
    return dict(case, events=[event for event in case["events"] if event != ["hotswap"]])


def fields(router, swap):
    """``{(element, field): value}`` of every field declared ``swap``."""
    return {
        (name, field): settled(getattr(element, field))
        for name, element in router.elements.items()
        for field, (kind, _merge) in element.STATE.items()
        if kind == swap
    }


def observe(case, mode):
    routers = []
    status, observation = run_case(case, mode, collect=routers.append)
    assert status == "ok", observation
    return observation, fields(routers[0], "carry")


def test_the_cases_hold_a_bare_swap_and_the_stateful_elements():
    assert all(["hotswap"] in case["events"] for case in CASES)
    configs = "".join(case["config"] for case in CASES)
    for class_name in ("RED(", "UDPIPEncap(", "Shaper("):
        assert class_name in configs


@pytest.mark.parametrize("mode", list(MODES))
def test_an_identity_swap_changes_nothing(mode):
    for case in CASES:
        swapped, carried = observe(case, mode)
        plain, unswapped = observe(without_swaps(case), mode)
        assert swapped == plain, case["name"]
        assert carried == unswapped, case["name"]


def test_reset_fields_read_their_initial_value_right_after_the_swap():
    checked = 0
    for case in CASES:
        events = case["events"]
        prefix = dict(case, events=events[: events.index(["hotswap"]) + 1])
        routers = []
        assert run_case(prefix, "reference", collect=routers.append)[0] == "ok"
        devices = {name: LoopbackDevice(name) for name in device_names(case["config"])}
        fresh = build_router(load_config(case["config"], "<fresh>"), devices=devices)
        reset = fields(routers[0], "reset")
        assert reset == fields(fresh, "reset"), case["name"]
        checked += len(reset)
    assert checked
