"""Integration tests of the full optimizer tool chain on the IP router.

The paper's pipeline — ``click-fastclassifier | click-xform |
click-devirtualize`` — must: preserve forwarding behaviour exactly,
produce configurations click-check accepts, survive textual round trips
at every stage, and be idempotent where re-running makes sense.
"""

import pytest

from repro.configs.firewall import firewall_graph
from repro.configs.iprouter import ip_router_graph
from repro.core import (
    check,
    devirtualize,
    fastclassifier,
    load_config,
    named_pipeline,
    save_config,
    undead,
    xform,
)
from repro.core.patterns import STANDARD_PATTERNS
from repro.elements.devices import PollDevice
from repro.sim.testbed import Testbed


@pytest.fixture(scope="module")
def testbed():
    return Testbed(2)


def forward_all(testbed, graph, count=48):
    router, devices = testbed.build_router(graph)
    frames = testbed.evaluation_frames(count)
    for device, frame in frames:
        devices[device].receive_frame(frame)
    router.run_tasks(count // PollDevice.BURST + 16)
    return {name: tuple(d.transmitted) for name, d in devices.items()}


class TestChainStages:
    def test_every_stage_passes_click_check(self, testbed):
        graph = testbed.base_graph()
        stages = [graph]
        stages.append(fastclassifier(stages[-1]))
        stages.append(xform(stages[-1], patterns=STANDARD_PATTERNS))
        stages.append(devirtualize(stages[-1]))
        for index, stage in enumerate(stages):
            collector = check(stage)
            assert collector.ok, (index, collector.format())

    def test_every_stage_round_trips_through_text(self, testbed):
        graph = testbed.base_graph()
        reference = forward_all(testbed, graph)
        stage = graph
        for tool in (
            fastclassifier,
            lambda g: xform(g, patterns=STANDARD_PATTERNS),
            devirtualize,
        ):
            stage = load_config(save_config(tool(stage)))
            assert forward_all(testbed, stage) == reference

    def test_chain_order_variants_agree_behaviourally(self, testbed):
        """FC+XF+DV in the canonical order equals XF+FC+DV: the tools
        compose (like compiler passes, §5.4)."""
        graph = testbed.base_graph()
        reference = forward_all(testbed, graph)
        canonical = devirtualize(xform(fastclassifier(graph), patterns=STANDARD_PATTERNS))
        swapped = devirtualize(fastclassifier(xform(graph, patterns=STANDARD_PATTERNS)))
        assert forward_all(testbed, canonical) == reference
        assert forward_all(testbed, swapped) == reference

    def test_undead_is_identity_on_live_router(self, testbed):
        """§6.3: none of the IP router's elements are dead code."""
        graph = testbed.base_graph()
        assert set(undead(graph).elements) == set(graph.elements)

    def test_undead_resolves_devirtualized_classes(self):
        """``Devirtualize@@PollDevice@2`` is still a packet source: undead
        resolves classes the way the router build does."""
        graph = ip_router_graph()
        assert set(undead(devirtualize(graph)).elements) == set(undead(graph).elements) == set(graph.elements)

    def test_devirtualize_leaves_its_own_output_alone(self, testbed):
        once = devirtualize(testbed.base_graph())
        twice = devirtualize(once)
        assert twice.archive == once.archive
        assert {n: d.class_name for n, d in twice.elements.items()} == {
            n: d.class_name for n, d in once.elements.items()
        }
        reloaded = load_config(save_config(twice))
        assert forward_all(testbed, reloaded) == forward_all(testbed, testbed.base_graph())

    @pytest.mark.parametrize("config", ["iprouter", "firewall"])
    def test_the_paper_pipeline_is_a_fixpoint_on_its_own_output(self, testbed, config):
        graph = testbed.variant_graph("base") if config == "iprouter" else firewall_graph()
        once = save_config(named_pipeline("paper").run(graph).graph)
        twice = save_config(named_pipeline("paper").run(load_config(once)).graph)
        assert twice == once
        assert len(load_config(once).elements) == (31 if config == "iprouter" else 6)

    def test_xform_is_idempotent(self, testbed):
        once = xform(testbed.base_graph(), patterns=STANDARD_PATTERNS)
        twice = xform(once, patterns=STANDARD_PATTERNS)
        assert {d.class_name for d in twice.elements.values()} == {
            d.class_name for d in once.elements.values()
        }
        assert len(twice.elements) == len(once.elements)

    def test_fastclassifier_idempotent_on_output(self, testbed):
        """Running fastclassifier again finds nothing to compile (the
        generated classes aren't classifier elements)."""
        once = fastclassifier(testbed.base_graph())
        twice = fastclassifier(once)
        fast = [d for d in twice.elements.values() if "FastClassifier" in d.class_name]
        assert len(fast) == 2  # one per interface, unchanged
        # Only one generated-code member (the second run added nothing).
        code_members = [m for m in twice.archive if m.endswith(".py")]
        assert len(code_members) == 1


class TestGeneratedCodeHygiene:
    def test_generated_members_are_valid_python(self, testbed):
        import ast

        graph = devirtualize(fastclassifier(testbed.base_graph()))
        for name, source in graph.archive.items():
            if name.endswith(".py"):
                ast.parse(source)  # raises on syntax errors

    def test_generated_classes_report_generated_flag(self, testbed):
        from repro.elements.runtime import compile_archive_classes

        graph = devirtualize(fastclassifier(testbed.base_graph()))
        for cls in compile_archive_classes(graph.archive).values():
            assert cls.generated

    def test_requirements_record_the_chain(self, testbed):
        graph = devirtualize(fastclassifier(testbed.base_graph()))
        assert "fastclassifier" in graph.requirements
        assert "devirtualize" in graph.requirements


class TestTulipDeviceIntegration:
    def test_router_runs_over_simulated_tulips(self, testbed):
        """The sim's TulipNIC satisfies the device protocol, so the real
        element graph can run over simulated hardware end to end."""
        from repro.net.headers import build_ether_udp_packet
        from repro.sim.nic import TulipNIC
        from repro.sim.pci import PCIBus
        from repro.sim.testbed import HOST_ETHERS, host_ip

        pci = PCIBus(99e6)
        devices = {
            "eth0": TulipNIC("eth0", pci, line_rate_pps=148_800.0),
            "eth1": TulipNIC("eth1", pci, line_rate_pps=148_800.0),
        }
        from repro.elements.runtime import Router

        router = Router(testbed.variant_graph("base"), devices=devices)
        router["arpq1"].insert(host_ip(1), HOST_ETHERS[1])
        frame = build_ether_udp_packet(
            HOST_ETHERS[0], testbed.interfaces[0].ether, host_ip(0), host_ip(1),
            payload=b"\x00" * 14,
        )
        for _ in range(5):
            devices["eth0"].receive_frame(frame)
        for _ in range(30):
            pci.refill(1e-4)
            for nic in devices.values():
                nic.advance(1e-4)
            router.run_tasks(1)
        assert devices["eth1"].transmitted == 5
