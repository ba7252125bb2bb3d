"""Tests for the evaluation testbed's configuration and workload
machinery (the parts calibration doesn't already cover)."""

import pytest

from repro.net.headers import ETHER_HEADER_LEN, EtherHeader, IPHeader
from repro.sim import fluid
from repro.sim.platforms import P0, P2, P3
from repro.sim.testbed import DISPATCH_NS, HOST_ETHERS, Testbed, VARIANTS, host_ip


@pytest.fixture(scope="module")
def testbed():
    return Testbed(2)


class TestVariantGraphs:
    def test_all_variants_build(self, testbed):
        for variant in VARIANTS:
            graph = testbed.variant_graph(variant)
            assert graph.elements, variant

    def test_variants_pass_click_check(self, testbed):
        from repro.core.check import check

        for variant in VARIANTS:
            collector = check(testbed.variant_graph(variant))
            assert collector.ok, (variant, collector.format())

    def test_fc_variant_has_fast_classifiers(self, testbed):
        graph = testbed.variant_graph("fc")
        fast = [d for d in graph.elements.values() if "FastClassifier" in d.class_name]
        assert len(fast) == 2

    def test_xf_variant_has_combos(self, testbed):
        graph = testbed.variant_graph("xf")
        assert len(graph.elements_of_class("IPInputCombo")) == 2
        assert len(graph.elements_of_class("IPOutputCombo")) == 2

    def test_all_variant_is_devirtualized(self, testbed):
        graph = testbed.variant_graph("all")
        devirtualized = [
            d for d in graph.elements.values() if d.class_name.startswith("Devirtualize@@")
        ]
        assert len(devirtualized) > len(graph.elements) // 2

    def test_mr_variant_replaces_arp_queriers(self, testbed):
        graph = testbed.variant_graph("mr")
        assert not graph.elements_of_class("ARPQuerier")
        assert len(graph.elements_of_class("EtherEncap")) == 2

    def test_mr_encaps_address_the_hosts(self, testbed):
        graph = testbed.variant_graph("mr")
        configs = [d.config for d in graph.elements_of_class("EtherEncap")]
        assert any(HOST_ETHERS[0] in c for c in configs)
        assert any(HOST_ETHERS[1] in c for c in configs)

    def test_simple_variant_is_minimal(self, testbed):
        graph = testbed.variant_graph("simple")
        assert len(graph.elements) == 6  # 2 x (device, queue, device)

    def test_unknown_variant_rejected(self, testbed):
        with pytest.raises(ValueError):
            testbed.variant_graph("bogus")


class TestWorkload:
    def test_frames_alternate_interfaces(self, testbed):
        frames = testbed.evaluation_frames(8)
        devices = [device for device, _ in frames]
        assert devices == ["eth0", "eth1"] * 4

    def test_frames_are_64_byte_equivalents(self, testbed):
        for _, frame in testbed.evaluation_frames(4):
            assert len(frame) == 56  # 64 on the wire with the 4-byte CRC + padding

    def test_frames_are_routable(self, testbed):
        _, frame = testbed.evaluation_frames(1)[0]
        ether = EtherHeader.unpack(frame)
        assert ether.dst == testbed.interfaces[0].ether
        ip = IPHeader.unpack(frame[ETHER_HEADER_LEN:])
        assert str(ip.dst) == host_ip(1)

    def test_measurement_is_deterministic(self, testbed):
        first = testbed.measure_cpu("base", packets=200)
        second = testbed.measure_cpu("base", packets=200)
        assert first.forwarding_ns == pytest.approx(second.forwarding_ns, rel=1e-9)


class TestPlatformScaling:
    def test_cpu_cost_scales_with_clock(self):
        slow = Testbed(2, platform=P0).measure_cpu("base", packets=200)
        fast = Testbed(2, platform=P3).measure_cpu("base", packets=200)
        ratio = slow.forwarding_ns / fast.forwarding_ns
        assert ratio == pytest.approx(P3.clock_mhz / P0.clock_mhz, rel=0.01)

    def test_pio_overhead_added_to_true_cost(self):
        p0 = Testbed(2, platform=P0)
        base_cost = p0.true_cpu_ns("base", packets=200)
        p3 = Testbed(2, platform=P3)
        p3_cost = p3.true_cpu_ns("base", packets=200)
        expected = base_cost * P0.clock_mhz / P3.clock_mhz + P3.pio_overhead_ns
        assert p3_cost == pytest.approx(expected, rel=0.01)


class TestShardedSaturation:
    """The modeled shard gate, through ``Testbed.sharded_mlffr`` itself:
    shards divide the CPU cost until the dispatcher (P2) or the bus
    (P0) is what binds."""

    @staticmethod
    def speedups(platform, **kwargs):
        testbed = Testbed(2, platform=platform)
        base = testbed.mlffr("base", packets=200)
        return base, [
            testbed.sharded_mlffr("base", workers, packets=200, **kwargs) / base
            for workers in (1, 2, 4, 8)
        ]

    def test_p2_scales_until_the_dispatcher_binds(self):
        base, curve = self.speedups(P2)
        assert curve[0] == pytest.approx(1.0)
        assert curve[2] >= 2.0
        assert curve == sorted(curve)
        # Every frame crosses the one dispatcher: no worker count buys
        # more than a CPU that costs DISPATCH_NS per packet would.
        cap = fluid.mlffr(DISPATCH_NS, P2) / base
        assert curve[2] < curve[3] == pytest.approx(cap)
        _, slow_dispatch = self.speedups(P2, dispatch_ns=2000.0)
        assert slow_dispatch[1] == slow_dispatch[3] < curve[1]

    def test_p0_is_flat_at_the_bus_limit(self):
        _, curve = self.speedups(P0)
        assert curve[0] == pytest.approx(1.0)
        assert 1.0 < curve[1] == curve[2] == curve[3] < 1.5

    def test_rejects_no_workers(self, testbed):
        with pytest.raises(ValueError, match="workers"):
            testbed.sharded_mlffr("base", 0)
