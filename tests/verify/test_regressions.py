"""Regression tests for divergences the differential fuzzer found.

Each test replays the *shrunken* repro the fuzzer's delta-debugger
produced, through the same oracle that caught it — so the repro stays
honest: if the bug comes back, `compare_case` reports exactly the
divergence the fuzzer originally saw.
"""

from repro.net.headers import build_ether_udp_packet
from repro.sim.testbed import HOST_ETHERS, host_ip
from repro.verify.oracle import compare_case, optimize_config, run_case

# --- Divergence 1: Unstrip left the packet's cached data view stale. ---
#
# The fast path's Strip segment keeps the data cache warm; Unstrip
# adjusted the offset without invalidating the cache, so any config
# where nothing reads .data between Strip and Unstrip transmitted the
# *stripped* bytes in fast/batch/adaptive but the full frame under the
# reference interpreter.  Shrunk by click-fuzz to five elements.
UNSTRIP_REPRO_CONFIG = """\
src :: PollDevice(eth0);
strip :: Strip(14);
unstrip :: Unstrip(14);
q :: Queue(16);
dst :: ToDevice(eth1);

src -> strip -> unstrip -> q -> dst;
"""


def unstrip_repro_case():
    frame = build_ether_udp_packet(
        HOST_ETHERS[0],
        HOST_ETHERS[1],
        host_ip(0),
        host_ip(1),
        payload=b"\xa5" * 14,
        identification=1,
    )
    return {
        "name": "unstrip-stale-cache",
        "config": UNSTRIP_REPRO_CONFIG,
        "events": [["frame", "eth0", frame.hex()], ["run", 8]],
        "optimize": False,
    }


class TestUnstripStaleCache:
    def test_matrix_agrees(self):
        result = compare_case(unstrip_repro_case())
        assert result["status"] == "ok", result

    def test_full_frame_retransmitted(self):
        """The frame must leave whole (56 bytes: 14 ether + 20 IP +
        8 UDP + 14 payload), not stripped of its Ethernet header."""
        case = unstrip_repro_case()
        for mode in ("reference", "fast", "batch", "fdd"):
            status, observation = run_case(case, mode)
            assert status == "ok"
            frames = observation["transmitted"]["eth1"]
            assert [len(f) // 2 for f in frames] == [56], mode


# --- Divergence 2: IPOutputCombo dropped what IPFragmenter fragments. -
#
# The paper pipeline's IP_OUTPUT_COMBO pattern absorbs IPFragmenter,
# but the combo's MTU branch dropped fragmentable oversize datagrams
# where the element it replaced emits real fragments — so optimized and
# unoptimized routers disagreed on every oversize non-DF packet.
def oversize_case(mtu=576):
    from repro.configs.iprouter import default_interfaces, ip_router_config

    interfaces = default_interfaces(2)
    frame = build_ether_udp_packet(
        HOST_ETHERS[0],
        interfaces[0].ether,
        host_ip(0),
        host_ip(1),
        payload=b"\x5a" * 900,  # > MTU, DF clear: must fragment
        identification=7,
    )
    events = [
        ["insert", "arpq0", host_ip(0), HOST_ETHERS[0]],
        ["insert", "arpq1", host_ip(1), HOST_ETHERS[1]],
        ["frame", "eth0", frame.hex()],
        ["run", 16],
    ]
    return {
        "name": "combo-fragmentation",
        "config": ip_router_config(interfaces, mtu=mtu),
        "events": events,
        "optimize": True,
    }


class TestComboFragmentation:
    def test_optimized_graph_uses_the_combo(self):
        case = oversize_case()
        optimized = optimize_config(case["config"])
        assert "IPOutputCombo" in optimized
        assert "IPFragmenter" not in optimized

    def test_matrix_agrees_including_optimized_axis(self):
        result = compare_case(oversize_case())
        assert result["status"] == "ok", result

    def test_fragments_are_emitted_not_dropped(self):
        case = oversize_case()
        status, plain = run_case(case, "reference")
        assert status == "ok"
        status, optimized = run_case(
            case, "reference", config_text=optimize_config(case["config"])
        )
        assert status == "ok"
        sizes = [len(f) // 2 for f in plain["transmitted"]["eth1"]]
        assert len(sizes) == 2 and all(size <= 576 + 14 for size in sizes)
        assert optimized["transmitted"] == plain["transmitted"]
