"""Tests for hot-swap state transfer (§5.1) and the pcap trace elements."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.elements import Router, hotswap_router
from repro.lang.build import parse_graph
from repro.net.packet import Packet
from repro.net.pcap import PcapError, read_pcap, write_pcap


class TestHotswap:
    BASE = (
        "f :: Idle; c :: Counter; q :: Queue(8); u :: Unqueue; d :: Discard;"
        "f -> c -> q -> u -> d;"
    )
    EXTENDED = (
        "f :: Idle; c :: Counter; extra :: Paint(1); q :: Queue(8); u :: Unqueue;"
        "d :: Discard; f -> c -> extra -> q -> u -> d;"
    )

    def test_queue_contents_survive(self):
        router = Router(parse_graph(self.BASE))
        for tag in (b"a", b"b", b"c"):
            router.push_packet("c", 0, Packet(tag))
        report = hotswap_router(router, parse_graph(self.EXTENDED))
        assert [router["q"].pull(0).data for _ in range(3)] == [b"a", b"b", b"c"]
        assert "q" in report.transferred

    def test_counter_state_survives(self):
        router = Router(parse_graph(self.BASE))
        for _ in range(5):
            router.push_packet("c", 0, Packet(b"x"))
        hotswap_router(router, parse_graph(self.EXTENDED))
        assert router["c"].count == 5

    def test_excess_queue_contents_dropped_into_drop_counter(self):
        router = Router(parse_graph(self.BASE))
        for index in range(6):
            router.push_packet("c", 0, Packet(bytes([index])))
        small = self.BASE.replace("Queue(8)", "Queue(4)")
        hotswap_router(router, parse_graph(small))
        assert len(router["q"]) == 4
        assert router["q"].drops == 2

    def test_arp_table_survives_optimization(self):
        """Optimize a live router: the devirtualized ARPQuerier keeps
        the old ARP table (generated classes are state-compatible)."""
        from repro.core.devirtualize import devirtualize
        from repro.core.toolchain import load_config, save_config
        from repro.sim.testbed import Testbed

        testbed = Testbed(2)
        router, devices = testbed.build_router(testbed.base_graph())
        router["arpq0"].insert("1.0.0.77", "00:11:22:33:44:55")
        optimized = load_config(save_config(devirtualize(testbed.base_graph())))
        hotswap_router(router, optimized)
        assert router["arpq0"].table[0x0100004D] == "00:11:22:33:44:55"
        assert router["arpq0"].devirtualized

    def test_unmatched_names_start_fresh(self):
        router = Router(parse_graph(self.BASE))
        router.push_packet("c", 0, Packet(b"x"))
        renamed = self.BASE.replace("c :: Counter", "c2 :: Counter").replace("f -> c ", "f -> c2 ")
        hotswap_router(router, parse_graph(renamed))
        assert router["c2"].count == 0

    def test_incompatible_classes_not_transferred(self):
        router = Router(parse_graph("f :: Idle; c :: Counter; f -> c -> Discard;"))
        router.push_packet("c", 0, Packet(b"x"))
        new_graph = parse_graph("f :: Idle; c :: Paint(1); f -> c -> Discard;")
        report = hotswap_router(router, new_graph)
        assert "c" not in report.transferred


class TestPcap:
    def test_round_trip(self):
        packets = [(1.5, b"\x00" * 60), (2.25, bytes(range(64)))]
        blob = write_pcap(packets)
        parsed = read_pcap(blob)
        assert len(parsed) == 2
        assert parsed[0][1] == b"\x00" * 60
        assert parsed[1][1] == bytes(range(64))
        assert parsed[0][0] == pytest.approx(1.5, abs=1e-6)

    def test_bare_bytes_get_synthetic_timestamps(self):
        parsed = read_pcap(write_pcap([b"aa", b"bb"]))
        assert parsed[0][0] < parsed[1][0]

    @settings(max_examples=30)
    @given(st.lists(st.binary(min_size=1, max_size=128), max_size=8))
    def test_round_trip_property(self, frames):
        parsed = read_pcap(write_pcap(frames))
        assert [data for _, data in parsed] == frames

    def test_snaplen_truncates(self):
        parsed = read_pcap(write_pcap([bytes(100)], snaplen=60))
        assert len(parsed[0][1]) == 60

    @pytest.mark.parametrize(
        "blob", [b"", b"\x00" * 10, b"\xff" * 24, write_pcap([b"x"])[:-1]]
    )
    def test_malformed_rejected(self, blob):
        with pytest.raises(PcapError):
            read_pcap(blob)


class TestDumpElements:
    def test_replay_and_record(self, tmp_path):
        capture = write_pcap([b"frame-one" + bytes(51), b"frame-two" + bytes(51)])
        path = tmp_path / "in.pcap"
        path.write_bytes(capture)
        router = Router(
            parse_graph(
                'src :: FromDump(%s); rec :: ToDump(%s);'
                "src -> rec;" % (path, tmp_path / "out.pcap")
            )
        )
        router.run_tasks(4)
        assert router["src"].emitted == 2
        recorded = read_pcap(router["rec"].capture_bytes())
        assert recorded[0][1].startswith(b"frame-one")

    def test_todump_passthrough(self, tmp_path):
        router = Router(
            parse_graph(
                "f :: Idle; rec :: ToDump(%s); d :: Discard; f -> rec -> d;"
                % (tmp_path / "out.pcap")
            )
        )
        router.push_packet("rec", 0, Packet(b"payload"))
        assert router["d"].count == 1
        assert len(router["rec"].recorded) == 1

    def test_flush_writes_file(self, tmp_path):
        out = tmp_path / "out.pcap"
        router = Router(
            parse_graph("f :: Idle; rec :: ToDump(%s); f -> rec;" % out)
        )
        router.push_packet("rec", 0, Packet(b"data"))
        router["rec"].flush()
        assert read_pcap(out.read_bytes())[0][1] == b"data"

    def test_fromdump_loop(self, tmp_path):
        path = tmp_path / "in.pcap"
        path.write_bytes(write_pcap([b"x" * 60]))
        router = Router(
            parse_graph("src :: FromDump(%s, true); d :: Discard; src -> d;" % path)
        )
        router.run_tasks(3)
        assert router["d"].count > 3  # looped
