"""The evaluation testbed (§8.1): configurations, workloads, and
measurement drivers for every figure in the paper.

``Testbed`` builds the eight configurations of Figure 9 — Base, FC, DV,
XF, All, MR, MR+All, and Simple — through the *real tool chain* (each
optimized variant is the output of the corresponding optimizers run on
the Base configuration text), measures per-packet CPU cost by pushing
the evaluation workload through the runtime router under a
:class:`~repro.sim.cpu.CycleMeter`, and feeds those costs to the fluid
model for forwarding-rate curves and MLFFR searches.
"""

from __future__ import annotations

from collections import OrderedDict

from ..configs.iprouter import default_interfaces, ip_router_config
from ..configs.simple import crossed_pairs, simple_config
from ..core.devirtualize import devirtualize
from ..core.fastclassifier import fastclassifier
from ..core.patterns import STANDARD_PATTERNS
from ..core.pipeline import Pipeline
from ..core.toolchain import load_config, save_config
from ..core.xform import PatternPair, xform
from ..elements.devices import LoopbackDevice
from ..elements.runtime import build_router as build_runtime_router
from ..runtime.profile import ExecutionProfile
from ..net.headers import build_ether_udp_packet
from . import fluid
from .cpu import CycleMeter
from .platforms import P0

# The hosts attached to each interface in the evaluation network.
HOST_ETHERS = ["00:20:6F:00:00:%02X" % i for i in range(8)]

#: What the sharded plane's dispatcher costs per frame (flow key + crc32
#: + shard pick), in ns, as ``sharded_mlffr`` models it.
#: ``bench/run.py`` reports it as
#: ``sim.dispatch_model_ns`` beside the measured
#: ``runtime.flowhash.hash_ns_per_frame`` (481-705 ns on the host this
#: was set on; see EXPERIMENTS.md).
DISPATCH_NS = 650.0

VARIANTS = ["base", "fc", "dv", "xf", "all", "mr", "mr_all", "simple"]
VARIANT_LABELS = {
    "base": "Base",
    "fc": "FC",
    "dv": "DV",
    "xf": "XF",
    "all": "All",
    "mr": "MR",
    "mr_all": "MR+All",
    "simple": "Simple",
}


def host_ip(interface_index):
    """The host on network (i+1): (i+1).0.0.2."""
    return "%d.0.0.2" % (interface_index + 1)


def arp_elimination_patterns_for_hosts(interfaces):
    """The MR optimization for the evaluation network: every router
    link is point-to-point to a single host whose hardware address the
    combined configuration exposes, so each interface's ARPQuerier
    collapses to a static EtherEncap (§7.2).  The pattern anchors on the
    interface's ToDevice."""
    pairs = []
    for index, interface in enumerate(interfaces):
        peer = HOST_ETHERS[index]
        pattern = """
        input -> arpq :: ARPQuerier($ip, $eth)
              -> q :: Queue($capacity)
              -> td :: ToDevice(%(dev)s) -> output;
        input [1] -> [1] arpq;
        input [2] -> q;
        """ % {"dev": interface.device}
        replacement = """
        input -> EtherEncap(0x0800, $eth, %(peer)s)
              -> q :: Queue($capacity)
              -> td :: ToDevice(%(dev)s) -> output;
        input [1] -> Discard;
        input [2] -> q;
        """ % {"peer": peer, "dev": interface.device}
        pairs.append(
            PatternPair.from_texts(pattern, replacement, name="ARPElim-%s" % interface.device)
        )
    return pairs


class Testbed:
    """One evaluation setup: a set of interfaces on a platform."""

    __test__ = False  # not a pytest test class

    def __init__(self, interface_count=2, platform=P0):
        self.platform = platform
        self.interfaces = default_interfaces(interface_count)
        self.last_report = None  # PipelineReport of the latest variant build

    # -- configurations ----------------------------------------------------------

    def base_graph(self):
        return load_config(ip_router_config(self.interfaces), "<base>")

    def simple_graph(self):
        pairs = crossed_pairs(len(self.interfaces))
        return load_config(simple_config(pairs), "<simple>")

    def variant_passes(self, variant):
        """The optimizer passes behind a Figure 9 variant, in tool-chain
        order (devirtualize last, §6.1)."""
        if variant not in VARIANTS:
            raise ValueError("unknown variant %r" % variant)
        passes = []
        if variant in ("mr", "mr_all"):
            passes.append(
                xform.as_pass(
                    patterns=arp_elimination_patterns_for_hosts(self.interfaces)
                )
            )
        if variant in ("fc", "all", "mr_all"):
            passes.append(fastclassifier.as_pass())
        if variant in ("xf", "all", "mr_all"):
            passes.append(xform.as_pass(patterns=STANDARD_PATTERNS))
        if variant in ("dv", "all", "mr_all"):
            passes.append(devirtualize.as_pass())
        return passes

    def variant_graph(self, variant):
        """Build a Figure 9 configuration through the tool chain; the
        run's per-pass PipelineReport lands in ``self.last_report``."""
        if variant == "simple":
            self.last_report = None
            return self.simple_graph()
        pipeline = Pipeline(self.variant_passes(variant), name=variant)
        result = pipeline.run(self.base_graph())
        self.last_report = result.report
        # Round-trip through text: the variant is exactly what the tool
        # chain would emit on stdout.
        return load_config(save_config(result.graph), "<%s>" % variant)

    # -- workload -----------------------------------------------------------------

    def evaluation_frames(self, count):
        """§8.1's workload: each source host sends an even flow of
        64-byte UDP packets to a corresponding destination.  Sources on
        even interfaces send to hosts on the next interface (round
        robin), so flows alternate across interfaces — the pattern that
        stresses shared branch-predictor sites (Figure 2)."""
        n = len(self.interfaces)
        frames = []
        for sequence in range(count):
            rx = sequence % n
            tx = (rx + 1) % n
            frames.append(
                (
                    self.interfaces[rx].device,
                    build_ether_udp_packet(
                        HOST_ETHERS[rx],
                        self.interfaces[rx].ether,
                        host_ip(rx),
                        host_ip(tx),
                        src_port=1000 + sequence % 7,
                        dst_port=2000,
                        payload=b"\x00" * 14,
                        identification=sequence & 0xFFFF,
                    ),
                )
            )
        return frames

    # -- CPU measurement (Figures 8 and 9) ------------------------------------------

    def build_router(
        self,
        graph,
        meter=None,
        profile=None,
        mode="reference",
        batch=False,
        adaptive_config=None,
    ):
        if profile is None:
            if mode == "adaptive":
                profile = ExecutionProfile.tiered(config=adaptive_config, batch=batch)
            elif mode == "fdd":
                profile = ExecutionProfile.fdd(config=adaptive_config, batch=batch)
            else:
                profile = ExecutionProfile(mode=mode, batch=batch)
        devices = {
            interface.device: LoopbackDevice(interface.device, tx_capacity=1 << 30)
            for interface in self.interfaces
        }
        # The dispatcher: a profile carrying workers > 1 builds a
        # ShardedRouter (whose find() fans the ARP seeding out to every
        # shard); otherwise a plain Router.
        router = build_runtime_router(graph, meter=meter, devices=devices, profile=profile)
        self._seed_arp(router)
        return router, devices

    def _seed_arp(self, router):
        for index in range(len(self.interfaces)):
            arpq = router.find("arpq%d" % index)
            if arpq is not None and hasattr(arpq, "insert"):
                arpq.insert(host_ip(index), HOST_ETHERS[index])

    def measure_cpu(self, variant, packets=2000, warmup=64):
        """Run the evaluation workload through the real router under the
        cycle meter (the reference interpreter, which a metered router
        runs under any profile); returns a CPUReport of ns/packet by
        category."""
        graph = self.variant_graph(variant)
        meter = CycleMeter()
        router, devices = self.build_router(graph, meter=meter)

        # Warm the caches/predictors outside the measurement, as the
        # paper's 10-second runs amortize cold starts.
        for device_name, frame in self.evaluation_frames(warmup):
            devices[device_name].receive_frame(frame)
        router.run_tasks(warmup)
        meter.__init__()  # reset counters after warmup
        already_sent = sum(len(d.transmitted) for d in devices.values())

        for device_name, frame in self.evaluation_frames(packets):
            devices[device_name].receive_frame(frame)
        # The paper measures at load: tasks run roughly once per burst,
        # so idle polls are a negligible share of the per-packet cost.
        from ..elements.devices import PollDevice

        iterations = packets // PollDevice.BURST + 16
        router.run_tasks(iterations)

        forwarded = sum(len(d.transmitted) for d in devices.values()) - already_sent
        if forwarded < packets:
            raise RuntimeError(
                "measurement run lost packets: %d of %d forwarded" % (forwarded, packets)
            )
        return meter.report(forwarded, clock_mhz=self.platform.clock_mhz)

    def true_cpu_ns(self, variant, packets=2000):
        """Meter-corrected per-packet cost plus platform PIO overhead —
        the number the rate model consumes."""
        report = self.measure_cpu(variant, packets)
        return report.true_total_ns + self.platform.pio_overhead_ns

    # -- rate experiments (Figures 10-13) ---------------------------------------------

    def forwarding_curve(self, variant, input_rates, packets=2000):
        cpu_ns = self.true_cpu_ns(variant, packets)
        return fluid.forwarding_curve(input_rates, cpu_ns, self.platform)

    def outcome_curve(self, variant, input_rates, packets=2000):
        cpu_ns = self.true_cpu_ns(variant, packets)
        return fluid.outcome_curve(input_rates, cpu_ns, self.platform)

    def mlffr(self, variant, packets=2000):
        cpu_ns = self.true_cpu_ns(variant, packets)
        return fluid.mlffr(cpu_ns, self.platform)

    def sharded_mlffr(self, variant, workers, dispatch_ns=DISPATCH_NS, packets=2000):
        """The fluid-model saturation rate of a sharded data plane:
        ``workers`` shards divide the per-packet forwarding cost, but
        every frame still crosses the single-threaded flow-hash
        dispatcher — so the effective service time is
        ``max(dispatch_ns, cpu_ns / workers)`` and the curve flattens
        once the dispatcher, not the shards, is the bottleneck (the
        shape ``tests/sim/test_testbed.py::TestShardedSaturation`` pins)."""
        if workers < 1:
            raise ValueError("workers must be >= 1, not %r" % (workers,))
        cpu_ns = self.true_cpu_ns(variant, packets)
        effective_ns = max(float(dispatch_ns), cpu_ns / workers) if workers > 1 else cpu_ns
        return fluid.mlffr(effective_ns, self.platform)


def figure9_reports(interface_count=2, packets=2000, variants=None):
    """CPU cost reports for every Figure 9 bar."""
    testbed = Testbed(interface_count)
    results = OrderedDict()
    for variant in variants or VARIANTS:
        results[variant] = testbed.measure_cpu(variant, packets)
    return results
