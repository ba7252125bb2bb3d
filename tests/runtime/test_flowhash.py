"""Property tests for the RSS-style flow hasher (repro.runtime.flowhash):
cross-process stability, fragment co-sharding, shard balance, and the
oracle's output grouping key."""

import os
import random
import subprocess
import sys
import zlib

import pytest

from repro.net.headers import build_ether_udp_packet
from repro.runtime.flowhash import (
    DEFAULT_SEED,
    FlowHasher,
    _general_flow_key,
    flow_key,
    output_flow_key,
    shard_of,
)

SRC_ETH = "00:20:6F:00:00:01"
DST_ETH = "00:A0:C9:00:00:02"


def udp_frame(src_ip="1.0.0.2", dst_ip="2.0.0.2", sport=1000, dport=2000, ident=7):
    return build_ether_udp_packet(
        SRC_ETH,
        DST_ETH,
        src_ip,
        dst_ip,
        src_port=sport,
        dst_port=dport,
        payload=b"\x00" * 14,
        identification=ident,
    )


def as_fragment(frame, offset_units=0, more_fragments=True):
    """Mark an IPv4 frame as one fragment of its datagram (the hasher
    never validates checksums, so patching flag/offset bytes is enough)."""
    data = bytearray(frame)
    data[20] = ((0x20 if more_fragments else 0) | (offset_units >> 8)) & 0xFF
    data[21] = offset_units & 0xFF
    return bytes(data)


class TestFlowKey:
    def test_ports_in_key_for_udp(self):
        a = flow_key(udp_frame(sport=1000))
        b = flow_key(udp_frame(sport=1001))
        assert a != b

    def test_fragments_drop_ports(self):
        whole = udp_frame()
        first = as_fragment(whole, 0, more_fragments=True)
        later = as_fragment(whole, 64, more_fragments=False)
        assert flow_key(first) == flow_key(later)
        # Both exclude the port pair, so two datagrams between the same
        # hosts on different ports still co-shard their fragments.
        other_ports = as_fragment(udp_frame(sport=4242, dport=4243), 64)
        assert flow_key(later) == flow_key(other_ports)

    def test_df_bit_is_not_a_fragment(self):
        frame = bytearray(udp_frame())
        frame[20] = 0x40  # DF only
        assert flow_key(bytes(frame)) == flow_key(udp_frame())

    def test_non_ip_uses_ethernet_header(self):
        arp = bytes.fromhex("ffffffffffff00206f000001") + b"\x08\x06" + b"\x00" * 28
        assert flow_key(arp) == arp[:14]

    def test_short_frame_safe(self):
        assert flow_key(b"\x00" * 10) == b"\x00" * 10


def fast_key_corpus(seed=20260929, count=4000):
    """Seeded frames on both sides of every condition of the fast key:
    IPv4 or not, IHL 5 through 15 (and the invalid 0-4), whole / MF /
    offset fragments with DF and the reserved bit set or clear, TCP /
    UDP / ICMP / other protocols, and every length from empty through
    the first byte at which ports exist — including IP-with-options
    frames cut short of theirs."""
    rng = random.Random(seed)
    corpus = [bytes(length) for length in range(40)]
    for _ in range(count):
        frame = bytearray(udp_frame(sport=rng.randrange(1 << 16), dport=rng.randrange(1 << 16)))
        frame += bytes(rng.randrange(256) for _ in range(48))  # room for IP options
        if rng.random() < 0.15:
            frame[12:14] = rng.choice([b"\x08\x06", b"\x86\xdd", b"\x08\x01", b"\x00\x08"])
        if rng.random() < 0.5:
            frame[14] = (rng.choice([4, 4, 4, 6, 0]) << 4) | rng.randrange(16)
        frame[23] = rng.choice([6, 17, 17, 1, 47, rng.randrange(256)])
        if rng.random() < 0.4:
            frame[20] = rng.choice([0x00, 0x20, 0x40, 0x60, 0x80, 0x1F, 0x01, rng.randrange(256)])
            frame[21] = rng.choice([0, 0, 1, rng.randrange(256)])
        if rng.random() < 0.4:
            del frame[rng.randrange(len(frame) + 1) :]
        corpus.append(bytes(frame))
    return corpus


class TestFastKey:
    """The common-frame fast path inside ``flow_key`` yields the general
    rules' bytes — hence the same placement — for every frame."""

    @pytest.mark.parametrize("view", [bytes, bytearray, memoryview])
    def test_equals_the_general_rules_on_a_seeded_corpus(self, view):
        fast = general_only = 0
        for frame in fast_key_corpus():
            expected = _general_flow_key(frame)
            key = flow_key(view(frame))
            assert type(key) is bytes
            assert key == expected, frame.hex()
            if len(key) == 14 and key[:1] == b"\x04" and frame[14:15] == b"\x45":
                fast += 1
            else:
                general_only += 1
        # The corpus is on both sides of the fast path.
        assert fast > 200 and general_only > 200

    def test_workload_frames_take_the_same_placement(self):
        for sport in range(64):
            frame = udp_frame(sport=1000 + sport)
            assert shard_of(frame, 4) == zlib.crc32(_general_flow_key(frame), DEFAULT_SEED) % 4


class TestStability:
    def test_shard_choice_is_not_python_hash(self):
        """The same frames map to the same shards in subprocesses with
        different PYTHONHASHSEED values — the property that keeps the
        multiprocessing backend deterministic."""
        script = (
            "import sys; sys.path.insert(0, %r)\n"
            "from repro.runtime.flowhash import shard_of\n"
            "from tests.runtime.test_flowhash import udp_frame\n"
            "print([shard_of(udp_frame(sport=1000 + i), 4) for i in range(32)])"
        ) % os.path.join(os.path.dirname(__file__), "..", "..", "src")
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hash_seed
            env["PYTHONPATH"] = os.pathsep.join(
                [
                    os.path.join(os.path.dirname(__file__), "..", ".."),
                    os.path.join(os.path.dirname(__file__), "..", "..", "src"),
                ]
            )
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.append(result.stdout.strip())
        assert outputs[0] == outputs[1]
        local = str([shard_of(udp_frame(sport=1000 + i), 4) for i in range(32)])
        assert outputs[0] == local

    def test_seed_changes_placement(self):
        frames = [udp_frame(sport=1000 + i) for i in range(64)]
        default = [shard_of(f, 4) for f in frames]
        reseeded = [shard_of(f, 4, seed=0x1234) for f in frames]
        assert default != reseeded

    def test_hasher_matches_module_function(self):
        hasher = FlowHasher(4)
        frame = udp_frame()
        assert hasher(frame) == shard_of(frame, 4, seed=DEFAULT_SEED)
        assert hasher.key(frame) == flow_key(frame)

    def test_single_shard_short_circuits(self):
        assert FlowHasher(1)(udp_frame()) == 0

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            FlowHasher(0)


class TestBalance:
    def test_chi_square_over_random_flows(self):
        """4000 random flows over 4 shards: the chi-square statistic
        (df=3) stays under 16.27, the p=0.001 critical value — the
        hash does not systematically favor a shard."""
        rng = random.Random(0xBA1A4CE)
        shards = 4
        counts = [0] * shards
        for _ in range(4000):
            frame = udp_frame(
                src_ip="%d.%d.%d.%d" % tuple(rng.randrange(1, 255) for _ in range(4)),
                dst_ip="%d.%d.%d.%d" % tuple(rng.randrange(1, 255) for _ in range(4)),
                sport=rng.randrange(1024, 65535),
                dport=rng.randrange(1024, 65535),
            )
            counts[shard_of(frame, shards)] += 1
        expected = sum(counts) / shards
        chi_square = sum((c - expected) ** 2 / expected for c in counts)
        assert chi_square < 16.27, "imbalanced: %r (chi2=%.2f)" % (counts, chi_square)

    def test_small_flow_population_covers_all_shards(self):
        placements = {shard_of(udp_frame(sport=1000 + i), 4) for i in range(64)}
        assert placements == {0, 1, 2, 3}


class TestOutputFlowKey:
    def test_refines_dispatch_key(self):
        """Every output group maps into exactly one dispatch flow: two
        frames with equal output keys have equal dispatch keys."""
        rng = random.Random(1)
        frames = []
        for _ in range(200):
            frame = udp_frame(
                sport=rng.randrange(1024, 2048),
                dport=rng.randrange(1024, 2048),
                ident=rng.randrange(65536),
            )
            if rng.random() < 0.3:
                frame = as_fragment(frame, rng.randrange(0, 128))
            frames.append(frame)
        by_output = {}
        for frame in frames:
            by_output.setdefault(output_flow_key(frame), set()).add(flow_key(frame))
        for group, dispatch_keys in by_output.items():
            assert len(dispatch_keys) == 1, group

    def test_fragment_trains_group_by_ip_id(self):
        a = as_fragment(udp_frame(ident=1), 0)
        b = as_fragment(udp_frame(ident=1), 64, more_fragments=False)
        c = as_fragment(udp_frame(ident=2), 0)
        assert output_flow_key(a) == output_flow_key(b)
        assert output_flow_key(a) != output_flow_key(c)

    def test_icmp_error_groups_by_inner_flow(self):
        from repro.net.headers import IPHeader, make_ether_header, make_icmp_error

        frames = []
        for sport in (1111, 2222):
            inner = udp_frame(sport=sport)[14:]
            body = make_icmp_error(11, 0, inner)  # time exceeded
            header = IPHeader(
                "9.0.0.1", "1.0.0.2", protocol=1, total_length=20 + len(body)
            )
            frames.append(
                make_ether_header(DST_ETH, SRC_ETH, 0x0800) + header.pack() + body
            )
        key_a, key_b = (output_flow_key(f) for f in frames)
        assert key_a[0] == "icmperr"
        assert key_a != key_b

    def test_non_ip_groups_by_full_bytes(self):
        arp = bytes.fromhex("ffffffffffff00206f000001") + b"\x08\x06" + b"\x00" * 28
        assert output_flow_key(arp) == ("raw", arp)
