"""Unit tests for ARP, routing, ICMP, Ethernet, classifier, RED, and
alignment elements."""

import pytest

from repro.elements import ConfigError, Router
from repro.lang.build import parse_graph
from repro.net.addresses import EtherAddress
from repro.net.headers import (
    ETHER_HEADER_LEN,
    ETHERTYPE_ARP,
    ETHERTYPE_IP,
    ArpHeader,
    EtherHeader,
    IPHeader,
    build_arp_reply,
    build_arp_request,
    build_udp_packet,
)
from repro.net.packet import Packet


def capture_router(element_decl, noutputs=1, ninputs=1, extra=""):
    parts = ["first :: %s;" % element_decl, extra]
    for port in range(ninputs):
        parts.append("feeder%d :: Idle; feeder%d -> [%d] first;" % (port, port, port))
    for port in range(noutputs):
        parts.append("q%d :: Queue(16); u%d :: Unqueue; d%d :: Discard;" % (port, port, port))
        parts.append("first [%d] -> q%d; q%d -> u%d -> d%d;" % (port, port, port, port, port))
    return Router(parse_graph(" ".join(parts)))


def ip_packet_with_anno(dst_anno, src="1.0.0.2", dst="2.0.0.2"):
    packet = Packet(build_udp_packet(src, dst, payload=b"\x00" * 14))
    packet.set_dest_ip_anno(dst_anno)
    return packet


class TestARPQuerier:
    DECL = "ARPQuerier(1.0.0.1, 00:20:6F:14:54:C2)"

    def test_known_address_encapsulates(self):
        router = capture_router(self.DECL, ninputs=2)
        router["first"].insert("1.0.0.2", "00:00:C0:AE:67:EF")
        router.push_packet("first", 0, ip_packet_with_anno("1.0.0.2"))
        frame = router["q0"].pull(0)
        header = EtherHeader.unpack(frame.data)
        assert header.ether_type == ETHERTYPE_IP
        assert header.dst == "00:00:C0:AE:67:EF"
        assert header.src == "00:20:6F:14:54:C2"
        # Payload is the untouched IP packet.
        assert IPHeader.unpack(frame.data[ETHER_HEADER_LEN:]).dst == "2.0.0.2"

    def test_unknown_address_queries_and_holds(self):
        router = capture_router(self.DECL, ninputs=2)
        router.push_packet("first", 0, ip_packet_with_anno("1.0.0.2"))
        query = router["q0"].pull(0)
        header = EtherHeader.unpack(query.data)
        assert header.ether_type == ETHERTYPE_ARP
        assert header.dst.is_broadcast()
        arp = ArpHeader.unpack(query.data[ETHER_HEADER_LEN:])
        assert str(arp.target_ip) == "1.0.0.2"
        assert router["first"].queries_sent == 1

    def test_reply_releases_held_packets(self):
        router = capture_router(self.DECL, ninputs=2)
        router.push_packet("first", 0, ip_packet_with_anno("1.0.0.2"))
        router["q0"].pull(0)  # the query
        reply = build_arp_reply(
            "00:00:C0:AE:67:EF", "1.0.0.2", "00:20:6F:14:54:C2", "1.0.0.1"
        )
        router.push_packet("first", 1, Packet(reply))
        released = router["q0"].pull(0)
        assert released is not None
        assert EtherHeader.unpack(released.data).dst == "00:00:C0:AE:67:EF"
        # Subsequent packets go straight through.
        router.push_packet("first", 0, ip_packet_with_anno("1.0.0.2"))
        assert EtherHeader.unpack(router["q0"].pull(0).data).ether_type == ETHERTYPE_IP

    def test_hold_queue_bounded(self):
        router = capture_router(self.DECL, ninputs=2)
        for _ in range(7):
            router.push_packet("first", 0, ip_packet_with_anno("1.0.0.2"))
        element = router["first"]
        assert len(element.pending[0x01000002]) == element.HOLD_LIMIT
        assert element.drops == 7 - element.HOLD_LIMIT

    def test_packet_without_annotation_dropped(self):
        router = capture_router(self.DECL, ninputs=2)
        router.push_packet("first", 0, Packet(build_udp_packet("1.0.0.2", "2.0.0.2")))
        assert len(router["q0"]) == 0
        assert router["first"].drops == 1


class TestARPResponder:
    def test_answers_matching_query(self):
        router = capture_router("ARPResponder(1.0.0.1 00:20:6F:14:54:C2)")
        query = build_arp_request("00:00:C0:AE:67:EF", "1.0.0.2", "1.0.0.1")
        router.push_packet("first", 0, Packet(query))
        reply = router["q0"].pull(0)
        arp = ArpHeader.unpack(reply.data[ETHER_HEADER_LEN:])
        assert arp.sender_ether == "00:20:6F:14:54:C2"
        assert str(arp.sender_ip) == "1.0.0.1"
        assert str(arp.target_ip) == "1.0.0.2"

    def test_ignores_other_addresses(self):
        router = capture_router("ARPResponder(1.0.0.1 00:20:6F:14:54:C2)")
        query = build_arp_request("00:00:C0:AE:67:EF", "1.0.0.2", "9.9.9.9")
        router.push_packet("first", 0, Packet(query))
        assert len(router["q0"]) == 0

    def test_prefix_entries(self):
        router = capture_router("ARPResponder(1.0.0.0/24 00:20:6F:14:54:C2)")
        assert router["first"].lookup("1.0.0.77") == EtherAddress("00:20:6F:14:54:C2")
        assert router["first"].lookup("1.0.1.77") is None


class TestLookupIPRoute:
    DECL = (
        "LookupIPRoute(1.0.0.1/32 0, 2.0.0.1/32 0, 1.0.0.0/8 1, "
        "2.0.0.0/8 2, 0.0.0.0/0 18.26.4.1 3)"
    )

    def test_longest_prefix_wins(self):
        router = capture_router(self.DECL, noutputs=4)
        router.push_packet("first", 0, ip_packet_with_anno("1.0.0.1"))
        assert len(router["q0"]) == 1  # host route, not net route
        router.push_packet("first", 0, ip_packet_with_anno("1.2.3.4"))
        assert len(router["q1"]) == 1

    def test_default_route_sets_gateway_annotation(self):
        router = capture_router(self.DECL, noutputs=4)
        router.push_packet("first", 0, ip_packet_with_anno("99.1.2.3"))
        out = router["q3"].pull(0)
        assert str(out.dest_ip_anno) == "18.26.4.1"

    def test_direct_route_keeps_destination_annotation(self):
        router = capture_router(self.DECL, noutputs=4)
        router.push_packet("first", 0, ip_packet_with_anno("2.0.0.9"))
        assert str(router["q2"].pull(0).dest_ip_anno) == "2.0.0.9"

    def test_radix_agrees_with_linear(self):
        from repro.elements.routing import LookupIPRoute, RadixIPLookup

        routes = "1.0.0.1/32 0, 1.0.0.0/8 1, 1.0.0.0/16 7.7.7.7 2, 0.0.0.0/0 3"
        linear = LookupIPRoute("lin", routes)
        radix = RadixIPLookup("rad", routes)
        for addr in ["1.0.0.1", "1.0.5.5", "1.9.9.9", "200.1.1.1", "0.0.0.0", "255.255.255.255"]:
            assert linear.lookup_route(addr) == radix.lookup_route(addr), addr

    def test_route_parsing_errors(self):
        with pytest.raises(ConfigError):
            capture_router("LookupIPRoute(1.0.0.1/32)")


class TestICMPError:
    def test_generates_time_exceeded(self):
        router = capture_router("ICMPError(1.0.0.1, timeexceeded, transit)")
        original = Packet(build_udp_packet("5.6.7.8", "2.0.0.2", payload=b"\x00" * 14, ttl=1))
        router.push_packet("first", 0, original)
        error = router["q0"].pull(0)
        header = IPHeader.unpack(error.data)
        assert str(header.dst) == "5.6.7.8"
        assert header.protocol == 1
        assert error.data[20] == 11  # ICMP time exceeded
        assert error.fix_ip_src_anno
        assert str(error.dest_ip_anno) == "5.6.7.8"

    def test_no_error_about_icmp_errors(self):
        router = capture_router("ICMPError(1.0.0.1, unreachable, net)")
        inner = Packet(build_udp_packet("5.6.7.8", "2.0.0.2"))
        # First produce a legitimate error...
        router.push_packet("first", 0, inner)
        first_error = router["q0"].pull(0)
        # ...then feed that error back in: no error-about-error.
        router.push_packet("first", 0, first_error)
        assert len(router["q0"]) == 0


class TestEtherEncap:
    def test_prepends_header(self):
        router = capture_router("EtherEncap(0x0800, 00:20:6F:14:54:C2, 00:00:C0:AE:67:EF)")
        router.push_packet("first", 0, Packet(build_udp_packet("1.0.0.2", "2.0.0.2")))
        frame = router["q0"].pull(0)
        header = EtherHeader.unpack(frame.data)
        assert header.ether_type == 0x0800
        assert header.src == "00:20:6F:14:54:C2"


class TestClassifierElements:
    def test_classifier_dispatch(self):
        router = capture_router(
            "Classifier(12/0806 20/0001, 12/0806 20/0002, 12/0800, -)", noutputs=4
        )
        router.push_packet(
            "first", 0, Packet(build_arp_request("00:20:6F:14:54:C2", "1.0.0.1", "1.0.0.2"))
        )
        assert len(router["q0"]) == 1
        ip_frame = bytes(12) + b"\x08\x00" + bytes(46)
        router.push_packet("first", 0, Packet(ip_frame))
        assert len(router["q2"]) == 1
        router.push_packet("first", 0, Packet(bytes(60)))
        assert len(router["q3"]) == 1

    def test_ipclassifier_dispatch(self):
        router = capture_router("IPClassifier(icmp, udp, -)", noutputs=3)
        router.push_packet("first", 0, Packet(build_udp_packet("1.0.0.2", "2.0.0.2")))
        assert len(router["q1"]) == 1

    def test_ipfilter_drops_denied(self):
        router = capture_router("IPFilter(allow udp dst port 53, deny all)")
        router.push_packet("first", 0, Packet(build_udp_packet("1.0.0.2", "2.0.0.2", dst_port=53)))
        router.push_packet("first", 0, Packet(build_udp_packet("1.0.0.2", "2.0.0.2", dst_port=54)))
        assert len(router["q0"]) == 1
        assert router["first"].drops == 1

    def test_bad_pattern_is_config_error(self):
        with pytest.raises(ConfigError):
            capture_router("Classifier(nonsense)")


class TestRED:
    def test_red_finds_downstream_queue_and_drops_when_full(self):
        router = Router(
            parse_graph(
                "feeder :: Idle; feeder -> red :: RED(2, 4, 1.0) -> q :: Queue(100);"
                "q -> u :: Unqueue -> Discard;"
            )
        )
        red = router["red"]
        assert [q.name for q in red._queues] == ["q"]
        for _ in range(50):
            router.push_packet("red", 0, Packet(b"x"))
        assert red.drops > 0
        assert len(router["q"]) < 50

    def test_red_forwards_below_min_threshold(self):
        router = Router(
            parse_graph(
                "feeder :: Idle; feeder -> red :: RED(5, 10, 1.0) -> q :: Queue(100);"
                "q -> u :: Unqueue -> Discard;"
            )
        )
        router.push_packet("red", 0, Packet(b"x"))
        assert router["red"].drops == 0
        assert len(router["q"]) == 1


class TestAlign:
    def test_align_copies_when_misaligned(self):
        router = capture_router("Align(4, 0)")
        packet = Packet(bytes(40))
        packet.strip(14)  # now misaligned by 2
        before = packet.data
        router.push_packet("first", 0, packet)
        out = router["q0"].pull(0)
        assert out.data_alignment() == 0
        assert out.data == before
        assert router["first"].copies == 1

    def test_align_skips_aligned_packets(self):
        router = capture_router("Align(4, 2)")
        packet = Packet(bytes(40))
        packet.strip(14)
        router.push_packet("first", 0, packet)
        assert router["first"].copies == 0

    @pytest.mark.parametrize("config", ["8, 4", "8, 0", "1, 0", "4, 4"])
    def test_align_rejects_what_packets_cannot_track(self, config):
        # Packets track their data pointer modulo 4: Align(8, 4) would
        # copy every packet forever and still never be satisfied.
        with pytest.raises(ConfigError):
            capture_router("Align(%s)" % config)

    def test_realign_leaves_the_alignment_align_asked_for(self):
        from repro.net.packet import DEFAULT_HEADROOM, realigned_buffer_alignment

        for modulus, offset in [(2, 0), (2, 1), (4, 0), (4, 1), (4, 2), (4, 3)]:
            packet = Packet(bytes(40)).realign(modulus, offset)
            assert packet.buffer_alignment == realigned_buffer_alignment(modulus, offset)
            assert packet.headroom == DEFAULT_HEADROOM
            assert packet.data_alignment() % modulus == offset

    def test_alignment_info_is_passive(self):
        router = Router(
            parse_graph(
                "AlignmentInfo(c 4 2); feeder :: Idle; c :: Counter; d :: Discard;"
                "feeder -> c -> d;"
            )
        )
        assert router.elements_of_class("AlignmentInfo")


class TestHostEtherFilter:
    def test_marks_packet_types(self):
        from repro.net.headers import make_ether_header

        router = capture_router("HostEtherFilter(00:20:6F:14:54:C2)", noutputs=2)
        mine = make_ether_header("00:20:6F:14:54:C2", "00:00:C0:AE:67:EF", 0x0800) + bytes(46)
        router.push_packet("first", 0, Packet(mine))
        assert router["q0"].pull(0).user_annos["packet_type"] == "host"
        broadcast = make_ether_header("ff:ff:ff:ff:ff:ff", "00:00:C0:AE:67:EF", 0x0806) + bytes(46)
        router.push_packet("first", 0, Packet(broadcast))
        assert router["q0"].pull(0).user_annos["packet_type"] == "broadcast"
        other = make_ether_header("00:11:22:33:44:55", "00:00:C0:AE:67:EF", 0x0800) + bytes(46)
        router.push_packet("first", 0, Packet(other))
        assert len(router["q0"]) == 0
        assert len(router["q1"]) == 1
