"""The generator: determinism, workload shape, valid configurations."""

import collections

import pytest

from repro import core
from repro.configs import firewall as fw
from repro.elements.devices import LoopbackDevice
from repro.elements.runtime import build_router
from routerbench import drive, gen, spans, workloads


@pytest.mark.parametrize("workload", workloads.WORKLOADS, ids=lambda w: w.name)
def test_same_seed_same_inputs(workload):
    first, again, other = workload.traffic(5), workload.traffic(5), workload.traffic(6)
    assert first == again
    assert first != other
    assert all(len(block) == gen.BLOCK_FRAMES for block in first)
    for index in range(8):
        assert workload.update_at(5, index) == workload.update_at(5, index)
        assert workload.update_at(5, index) != workload.update_at(6, index)
        assert workload.update_at(5, index) != workload.update_at(5, index + 8)


def test_skew_is_exactly_ten_percent_of_64_byte_frames():
    for block in gen.skew_blocks(2):
        devices = collections.Counter(device for device, _frame in block)
        assert devices == {"eth0": 1800, "eth1": 200}
        assert {len(frame) for _device, frame in block} == {64}


def test_churn_schedule_is_three_routes_to_one_rule():
    churn = workloads.BY_NAME["iprouter_churn"]
    kinds = [churn.update_at(1, index)[1] for index in range(40)]
    assert kinds.count("routes") == 30 and kinds.count("rules") == 10
    assert {churn.update_at(1, index)[0] for index in range(3, 40, 4)} == {"c0", "c1"}


def test_every_rule_is_hot_once_and_the_hot_rule_moves_with_the_seed():
    rules = len(gen.FIREWALL_TEMPLATES)
    for seed in (1, 2):
        hot = [gen.firewall_ranking(seed, block)[0] for block in range(rules)]
        assert sorted(hot) == list(range(rules))
    assert gen.firewall_ranking(1, 0) != gen.firewall_ranking(2, 0)
    blocks = gen.zipf_blocks(1)
    assert len(blocks) == rules
    sizes = collections.Counter(len(frame) for block in blocks for _device, frame in block)
    assert set(sizes) == set(gen.FIREWALL_SIZES)
    assert sizes[64] > sizes[576] > sizes[1500]
    flows = collections.Counter(frame[23:24] + frame[26:38] for _device, frame in blocks[0])
    assert flows.most_common(1)[0][1] > gen.BLOCK_FRAMES // 4  # the top rank has a third


def _verdict(rules, frame):
    """Does a firewall with these rules forward the frame?"""
    devices = {name: LoopbackDevice(name, tx_capacity=1 << 20) for name in ("eth0", "eth1")}
    router = build_router(core.load_config(gen.firewall_text(rules)), devices=devices)
    devices["eth0"].receive_frame(frame)
    router.run_tasks(4)
    return bool(devices["eth1"].transmitted)


def test_each_firewall_template_matches_its_own_rule_and_none_before():
    names = [name for name, _rule in fw.FIREWALL_RULES]
    rules = fw.firewall_rule_strings()
    for index, rule in enumerate(rules[:-1]):
        expression = rule.split(None, 1)[1]
        for size in (64, 1500):
            frame = gen.firewall_frame(index, size)
            assert len(frame) == size
            assert _verdict(["allow " + expression, "deny all"], frame), names[index]
            for earlier in range(index):
                before = rules[earlier].split(None, 1)[1]
                assert not _verdict(["allow " + before, "deny all"], frame), (
                    "%s also matches %s" % (names[index], names[earlier]))
    # the default-deny template matches no rule above it
    assert not _verdict(rules, gen.firewall_frame(len(rules) - 1, 64))


@pytest.mark.parametrize("workload", workloads.WORKLOADS[:3], ids=lambda w: w.name)
def test_ladder_configurations_pass_click_check_and_end_in_the_workload(workload):
    ladder = workload.ladder()
    assert [stage for stage, _text in ladder] == list(gen.STAGES)
    assert ladder[-1][1] == workload.text()
    tracer = spans.Tracer("t", enabled=False)
    for _stage, text in ladder:
        if text is not None:
            graph, _report = drive.load_graph(workload, tracer, text=text)
            core.click_check(graph)


def test_updates_are_distinct_text_the_router_accepts():
    text = gen.iprouter_text(routes=gen.route_update(1, 0))
    assert text != gen.iprouter_text()
    assert "203.0." in text
    core.click_check(core.load_config(text))
    changed = gen.firewall_text(gen.firewall_update(1, 0))
    assert changed != gen.firewall_text()
    core.click_check(core.load_config(changed))
