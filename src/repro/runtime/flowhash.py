"""RSS-style flow hashing: stable, seedable shard selection by flow key.

The sharded data plane (:mod:`repro.runtime.shard`) partitions ingress
frames across N worker shards the way receive-side scaling partitions
them across NIC queues: a hash of the flow identity — IPv4 source and
destination address, protocol, and (for TCP/UDP) the port pair — picks
the shard, so every packet of one flow always lands on the same worker
and per-flow ordering survives the fan-out.

Two properties are load-bearing and tested:

- **Process stability.**  The hash is ``zlib.crc32`` over the raw key
  bytes with an explicit seed — *never* Python's builtin ``hash()``,
  whose per-process randomization (PYTHONHASHSEED) would scatter one
  flow across different shards in different processes and silently
  break the multiprocessing backend's determinism.
- **Fragment co-sharding.**  IPv4 fragments carry no transport ports
  (only the first fragment does), so for any fragment — and, for
  consistency, for the whole datagram train — the key degrades to
  (proto, src, dst): every fragment of one datagram reaches the same
  shard, where reassembly-order-sensitive elements see them in arrival
  order.

Non-IP frames (ARP and friends) hash over the 14-byte Ethernet header,
which keeps e.g. all ARP traffic between one pair of stations on one
shard.

:func:`output_flow_key` is the *comparison* key the differential oracle
groups transmitted frames by — a refinement of the dispatch key (so one
output group is always produced by exactly one shard, hence internally
ordered) that additionally separates fragment trains by IP
identification and keys ICMP error messages by the *embedded* datagram
that provoked them.
"""

from __future__ import annotations

from zlib import crc32

__all__ = [
    "DEFAULT_SEED",
    "FlowHasher",
    "flow_key",
    "output_flow_key",
    "rendezvous_shard",
    "shard_of",
]

#: The default hash seed — an arbitrary odd constant, fixed so every
#: process (and every run) agrees on flow placement unless a caller
#: deliberately re-seeds.
DEFAULT_SEED = 0x5EED5EED

_ETHERTYPE_IP = 0x0800
_TCP = 6
_UDP = 17
#: ICMP types that embed the offending datagram (RFC 792): destination
#: unreachable, source quench, redirect, time exceeded, parameter
#: problem.  Their flow identity is the *inner* packet's.
_ICMP_ERROR_TYPES = (3, 4, 5, 11, 12)
#: How the key of a frame with ports starts: b"\x04" + protocol.
_PORTS_PREFIX = {_TCP: b"\x04\x06", _UDP: b"\x04\x11"}


def flow_key(frame):
    """The dispatch key for one Ethernet frame, as bytes.

    - IPv4 TCP/UDP, not a fragment: proto + src + dst + sport + dport
    - IPv4 fragment (MF set or offset non-zero), or no ports:
      proto + src + dst
    - anything else (ARP, short, non-IP): the 14-byte Ethernet header
    """
    # The common frame — IPv4 without options, whole, TCP or UDP, ports
    # present — in two slices; everything else takes the general rules
    # below, which yield the same bytes for these frames too.
    if (
        frame[12:15] == b"\x08\x00\x45"
        and len(frame) >= 38
        and not (frame[20] & 0x3F or frame[21])
    ):
        prefix = _PORTS_PREFIX.get(frame[23])
        if prefix is not None:
            return prefix + frame[26:38]
    return _general_flow_key(frame)


def _general_flow_key(frame):
    """:func:`flow_key`'s rules applied field by field to any frame —
    the definition its fast path is tested against."""
    if (
        len(frame) >= 34
        and frame[12] == 0x08
        and frame[13] == 0x00
        and frame[14] >> 4 == 4
    ):
        ihl = frame[14] & 0x0F
        proto = frame[23]
        addrs = frame[26:34]
        # Byte 20 carries the MF bit (0x20) and the offset's high bits
        # (0x1F); byte 21 the low offset bits.  DF (0x40) is not a
        # fragment indicator.
        if frame[20] & 0x3F or frame[21]:
            return b"\x04" + bytes((proto,)) + addrs
        if proto in (_TCP, _UDP):
            transport = 14 + ihl * 4
            if len(frame) >= transport + 4:
                return (
                    b"\x04" + bytes((proto,)) + addrs + frame[transport : transport + 4]
                )
        return b"\x04" + bytes((proto,)) + addrs
    return bytes(frame[:14])


def shard_of(frame, shards, seed=DEFAULT_SEED):
    """Which of ``shards`` workers owns this frame's flow."""
    if shards <= 1:
        return 0
    return crc32(flow_key(frame), seed) % shards


def rendezvous_shard(key, candidates, seed=DEFAULT_SEED):
    """Highest-random-weight (rendezvous) shard selection among an
    arbitrary *subset* of shards.

    The degraded-mode overlay: while shard ``i`` is down, its flows are
    re-homed onto the surviving ``candidates`` by scoring every
    (flow key, candidate) pair and taking the maximum.  Rendezvous
    hashing gives the two properties modular re-steering needs:

    - **Stability.** A flow's re-home target depends only on the flow
      key and the candidate set — not on arrival order or on which
      parent process computes it — so re-steered traffic stays per-flow
      sticky for as long as the candidate set holds.
    - **Minimal disruption.** When a second shard dies (or one
      recovers), only the flows scored onto the changed candidate move;
      flows homed elsewhere keep their placement, unlike a modulo over
      a shrunken count which reshuffles nearly everything.

    ``candidates`` is any non-empty iterable of shard indices; ties on
    the crc32 score break deterministically toward the lowest index.
    """
    best = None
    best_score = -1
    salted = crc32(bytes(key), seed)
    for index in sorted(candidates):
        score = crc32(index.to_bytes(4, "big"), salted)
        if score > best_score:
            best = index
            best_score = score
    if best is None:
        raise ValueError("rendezvous_shard needs at least one candidate shard")
    return best


class FlowHasher:
    """A seeded dispatcher: ``hasher(frame)`` -> shard index.

    Carrying the seed and shard count in one object keeps the hot
    dispatch loop free of default-argument plumbing, and lets the
    sharded router report exactly how traffic was partitioned.
    """

    __slots__ = ("shards", "seed")

    def __init__(self, shards, seed=DEFAULT_SEED):
        if shards < 1:
            raise ValueError("shards must be >= 1, not %r" % (shards,))
        self.shards = int(shards)
        self.seed = int(seed)

    def __call__(self, frame):
        if self.shards == 1:
            return 0
        return crc32(flow_key(frame), self.seed) % self.shards

    def key(self, frame):
        return flow_key(frame)

    def __repr__(self):
        return "FlowHasher(shards=%d, seed=0x%X)" % (self.shards, self.seed)


def _inner_flow(frame, offset, limit):
    """The flow tuple of an IP datagram embedded at ``offset`` (an ICMP
    error payload): (proto, src, dst, ports-or-b"").  None if it does
    not parse as IPv4."""
    if limit < offset + 20 or frame[offset] >> 4 != 4:
        return None
    ihl = frame[offset] & 0x0F
    proto = frame[offset + 9]
    addrs = bytes(frame[offset + 12 : offset + 20])
    ports = b""
    if proto in (_TCP, _UDP) and not (frame[offset + 6] & 0x1F or frame[offset + 7]):
        transport = offset + ihl * 4
        if limit >= transport + 4:
            ports = bytes(frame[transport : transport + 4])
    return (proto, addrs, ports)


def output_flow_key(frame):
    """The key the oracle groups *transmitted* frames by when comparing
    a sharded run against the single-shard reference.

    It refines :func:`flow_key` — every group maps into exactly one
    dispatch flow, so it is produced by one shard and its internal
    order is deterministic — while keeping groups fine enough that
    cross-flow interleaving never lands two shards' output in one
    group:

    - IPv4 fragments group per datagram: (src, dst, proto, IP id) —
      ports are absent from non-first fragments, and distinct datagrams
      (distinct ids) may interleave across runs of the fragmenter.
    - ICMP error messages group by the *embedded* datagram's flow —
      errors provoked by different flows (hence possibly different
      shards) share source/destination but must not share a group.
    - Non-IP frames (ARP) group by their full bytes: equal frames are
      interchangeable, so a group's sequence comparison degenerates to
      a count comparison, which the multiset check already covers.
    """
    if (
        len(frame) >= 34
        and frame[12] == 0x08
        and frame[13] == 0x00
        and frame[14] >> 4 == 4
    ):
        ihl = frame[14] & 0x0F
        proto = frame[23]
        addrs = bytes(frame[26:34])
        if frame[20] & 0x3F or frame[21]:
            return ("frag", addrs, proto, bytes(frame[18:20]))
        transport = 14 + ihl * 4
        if proto == 1 and len(frame) >= transport + 2:
            icmp_type = frame[transport]
            if icmp_type in _ICMP_ERROR_TYPES:
                inner = _inner_flow(frame, transport + 8, len(frame))
                if inner is not None:
                    return ("icmperr", inner)
        if proto in (_TCP, _UDP) and len(frame) >= transport + 4:
            return ("ip", proto, addrs, bytes(frame[transport : transport + 4]))
        return ("ip", proto, addrs)
    return ("raw", bytes(frame))
