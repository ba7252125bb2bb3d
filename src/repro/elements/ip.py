"""IP-path elements: the per-packet work of Figure 1's forwarding path.

Every element here corresponds to one box on the IP router's forwarding
path: Paint, CheckIPHeader, GetIPAddress, DropBroadcasts, CheckPaint,
IPGWOptions, FixIPSrc, DecIPTTL, IPFragmenter.  Their semantics follow
Click's element documentation; errors leave on secondary outputs (wired
to ICMPError elements in the IP router) when those outputs exist.
"""

from __future__ import annotations

import struct

from ..net.addresses import IPAddress
from ..net.checksum import update_checksum_u16
from ..net.packet import _DEST_IP_CACHE
from ..net.headers import IP_HEADER_LEN, IPHeader
from .element import ConfigError, Element
from .registry import register

PACKET_TYPE_HOST = "host"
PACKET_TYPE_BROADCAST = "broadcast"
PACKET_TYPE_MULTICAST = "multicast"
PACKET_TYPE_OTHERHOST = "otherhost"


@register
class Paint(Element):
    """Sets the paint annotation; the IP router paints each packet with
    its input interface number to detect same-interface forwarding."""

    class_name = "Paint"
    processing = "a/a"
    port_counts = "1/1"

    def configure(self, args):
        if len(args) != 1:
            raise ConfigError("Paint needs a color")
        try:
            self.color = int(args[0])
        except ValueError:
            raise ConfigError("bad Paint color %r" % args[0]) from None

    def simple_action(self, packet):
        packet.paint = self.color
        return packet

    def segment(self, cold, cx):
        """Produces ``paint``: the annotation is a compile-time constant
        for the rest of the chain (nothing else writes it)."""
        color = self.color
        if cx.facts is not None:
            cx.facts["paint"] = color
        return lambda var, pad, exitstmt: [pad + "%s.paint = %d" % (var, color)]


@register
class PaintTee(Element):
    """Sends packets whose paint matches the configured color out both
    output 0 (a copy) and output 1; everything else goes to output 0
    only.  Figure 1 labels this box CheckPaint."""

    class_name = "PaintTee"
    processing = "a/ah"
    port_counts = "1/1-2"
    fast_action = "_tee"

    def configure(self, args):
        if len(args) != 1:
            raise ConfigError("PaintTee needs a color")
        self.color = int(args[0])

    def _tee(self, packet):
        if packet.paint == self.color and self.noutputs > 1:
            self.output(1).push(packet.clone())
        return packet

    def segment(self, cold, cx):
        """Consumes ``paint``: an upstream Paint in this same chain
        proves the tee never fires (the per-packet test disappears) or
        always does (the copy is unconditional); otherwise the test is
        in line and a match takes ``cold``."""
        color, facts = self.color, cx.facts
        known = facts is not None and "paint" in facts
        if known and facts["paint"] != color:
            cx.count("elided_elements")
            return lambda var, pad, exitstmt: []
        a = cx.method(cold)

        def seg(var, pad, exitstmt):
            if known:
                return cx.call(a, var, pad, exitstmt)
            return [pad + "if %s.paint == %d:" % (var, color)] + cx.call(a, var, pad + "    ", exitstmt)

        return seg

    def push(self, port, packet):
        result = self._tee(packet)
        if result is not None:
            self.output(0).push(result)

    def pull(self, port):
        packet = self.input(0).pull()
        if packet is None:
            return None
        return self._tee(packet)


@register
class CheckPaint(PaintTee):
    """Alias matching Figure 1's label for the paint check."""

    class_name = "CheckPaint"


@register
class CheckIPHeader(Element):
    """Validates the IP header: version, header length, total length,
    checksum, and source address sanity; sets the destination-IP
    annotation.  Bad packets go to output 1 if it exists, else are
    dropped.  (On strict-alignment architectures it also requires
    word-aligned packet data — the constraint click-align enforces.)"""

    class_name = "CheckIPHeader"
    processing = "a/ah"
    port_counts = "1/1-2"
    fast_action = "_check"
    # The alignment click-align must guarantee at our input (modulus 4,
    # offset 0: a word-aligned IP header).
    required_alignment = (4, 0)
    STATE = {"drops": ("carry", "sum")}

    def configure(self, args):
        self.bad_src = set()
        self.offset = 0
        self.strict_alignment = False
        for arg in args:
            arg = arg.strip()
            if not arg:
                continue
            if arg.upper().startswith("OFFSET"):
                self.offset = int(arg.split()[1])
            else:
                for addr in arg.split():
                    self.bad_src.add(IPAddress(addr).value)

    def _fail(self, port_packet):
        self.drops += 1
        if self.noutputs > 1:
            self.output(1).push(port_packet)
        return None

    def push(self, port, packet):
        result = self._check(packet)
        if result is not None:
            self.output(0).push(result)

    def pull(self, port):
        packet = self.input(0).pull()
        if packet is None:
            return None
        return self._check(packet)

    def _check(self, packet):
        data = packet._data_cache
        if data is None:
            data = packet.data
        if self.offset:
            data = data[self.offset:]
        if self.strict_alignment and (packet.data_alignment() + self.offset) % 4 != 0:
            raise RuntimeError(
                "CheckIPHeader %s: unaligned packet data (alignment %d) — "
                "on ARM this is a crash; run click-align"
                % (self.name, packet.data_alignment())
            )
        length = len(data)
        if length < IP_HEADER_LEN:
            return self._fail(packet)
        version_ihl = data[0]
        if version_ihl >> 4 != 4:
            return self._fail(packet)
        header_length = (version_ihl & 0xF) * 4
        if header_length < IP_HEADER_LEN or length < header_length:
            return self._fail(packet)
        # One big-int conversion serves every remaining test: RFC 1071
        # verification (the header is valid iff its one's-complement sum
        # folds to 0xFFFF, i.e. the big-endian value is a nonzero
        # multiple of 0xFFFF — the all-zero header cannot reach here, it
        # fails the version test), and the length/source/destination
        # fields, extracted by shifting instead of re-slicing the bytes.
        header = int.from_bytes(data[:header_length], "big")
        shift = header_length * 8
        total_length = (header >> (shift - 32)) & 0xFFFF
        if total_length < header_length or total_length > length:
            return self._fail(packet)
        if header % 0xFFFF:
            return self._fail(packet)
        src = (header >> (shift - 128)) & 0xFFFFFFFF
        if src == 0xFFFFFFFF or src in self.bad_src:
            return self._fail(packet)
        packet.ip_header_offset = self.offset
        dst = (header >> (shift - 160)) & 0xFFFFFFFF
        anno = _DEST_IP_CACHE.get(dst)
        if anno is None:
            packet.set_dest_ip_anno(dst)
        else:
            packet.dest_ip_anno = anno
        return packet

    def segment(self, cold, cx):
        """The whole header check in line, with the configuration
        (offset 0, no strict alignment, the bad-source set) baked in.
        Any failure funnels through the bound ``_fail``, which counts
        the drop and feeds the error output.  The set and the intern
        cache are bound directly; neither is ever reassigned after
        configuration.

        Consumes the contents local ``data``; produces ``dst_raw`` and
        ``ip_hl`` (the locals ``d`` and ``hl``; the contents facts
        survive, only annotations and ip_header_offset change) and, for
        the next stage, ``dst_anno``: the annotation is contents[16:20],
        which at least 20 bytes of contents back."""
        if self.offset:
            return None
        cx.proved["dst_anno"] = 16
        if self.strict_alignment:
            return None
        f = cx.attr(self, "_fail")
        bs = cx.attr(self, "bad_src") if self.bad_src else None
        dc = cx.bind(_DEST_IP_CACHE.get)
        src_test = "s != 0xFFFFFFFF" + (" and s not in %s" % bs if bs else "")
        facts = cx.facts
        cvar = facts.get("data") if facts else None
        hot_raw = cx.policy.check_ip_hot(self)
        hot_ip = cx.ip(hot_raw) if hot_raw is not None else None
        if facts is not None:
            facts["dst_raw"], facts["ip_hl"] = "d", "hl"

        def seg(var, pad, exitstmt):
            # A guard may have loaded the contents into a local already.
            lines = [pad + "c = %s" % cvar] if cvar else cx.contents(var, pad)
            lines += [
                pad + "good = False",
                pad + "ln = len(c)",
                pad + "if ln >= 20:",
                pad + "    vi = c[0]",
                # Split lane for the dominant no-options header
                # (version/ihl byte 0x45): every field offset is a
                # compile-time constant, so the extraction shifts
                # constant-fold and the destination is a plain mask.
                # Options-bearing headers take the generic lane.
                pad + "    if vi == 69:",
                pad + "        hl = 20",
                pad + "        hdr = int.from_bytes(c[:20], 'big')",
                pad + "        if 20 <= (hdr >> 128) & 0xFFFF <= ln and not hdr % 0xFFFF:",
                pad + "            s = (hdr >> 32) & 0xFFFFFFFF",
                pad + "            if %s:" % src_test,
                pad + "                good = True",
                pad + "                d = hdr & 0xFFFFFFFF",
                pad + "    else:",
                pad + "        hl = (vi & 15) * 4",
                pad + "        if vi >> 4 == 4 and hl >= 20 and ln >= hl:",
                pad + "            hdr = int.from_bytes(c[:hl], 'big')",
                pad + "            sh = hl * 8",
                pad + "            if hl <= (hdr >> (sh - 32)) & 0xFFFF <= ln and not hdr % 0xFFFF:",
                pad + "                s = (hdr >> (sh - 128)) & 0xFFFFFFFF",
                pad + "                if %s:" % src_test,
                pad + "                    good = True",
                pad + "                    d = (hdr >> (sh - 160)) & 0xFFFFFFFF",
                pad + "if not good:",
                pad + "    %s(%s)" % (f, var),
                pad + "    " + exitstmt,
                pad + "%s.ip_header_offset = 0" % var,
            ]
            inner = pad
            if hot_ip is not None:
                # The profiled hot destination skips the intern-cache
                # probe: an equal raw value gets the same interned
                # object the cache would have produced, so downstream
                # identity guards behave identically.
                lines += [
                    pad + "if d == %d:" % hot_raw,
                    pad + "    %s.dest_ip_anno = %s" % (var, hot_ip),
                    pad + "else:",
                ]
                inner = pad + "    "
            return lines + [
                inner + "anno = %s(d)" % dc,
                inner + "if anno is None:",
                inner + "    %s.set_dest_ip_anno(d)" % var,
                inner + "else:",
                inner + "    %s.dest_ip_anno = anno" % var,
            ]

        return seg


@register
class SetIPChecksum(Element):
    """Recomputes the IP header checksum from scratch (used after
    header-rewriting elements that don't update incrementally)."""

    class_name = "SetIPChecksum"
    processing = "a/a"
    port_counts = "1/1"

    def simple_action(self, packet):
        from ..net.checksum import internet_checksum

        data = packet.data
        if len(data) < IP_HEADER_LEN:
            return None
        header_length = (data[0] & 0xF) * 4
        if header_length < IP_HEADER_LEN or len(data) < header_length:
            return None
        header = bytearray(data[:header_length])
        header[10:12] = b"\x00\x00"
        packet.replace(10, struct.pack("!H", internet_checksum(header)))
        return packet


@register
class StripToNetworkHeader(Element):
    """Strips everything before the network header (per the annotation
    CheckIPHeader/IPInputCombo set)."""

    class_name = "StripToNetworkHeader"
    processing = "a/a"
    port_counts = "1/1"

    def simple_action(self, packet):
        offset = packet.ip_header_offset
        if offset is None or offset <= 0:
            return packet
        packet.strip(offset)
        packet.ip_header_offset = 0
        return packet


@register
class GetIPAddress(Element):
    """Copies 4 bytes at the configured offset into the destination-IP
    annotation (offset 16 = the IP destination field)."""

    class_name = "GetIPAddress"
    processing = "a/a"
    port_counts = "1/1"

    def configure(self, args):
        if len(args) != 1:
            raise ConfigError("GetIPAddress needs an offset")
        self.offset = int(args[0])

    def simple_action(self, packet):
        data = packet.data
        if len(data) < self.offset + 4:
            return None
        packet.set_dest_ip_anno(struct.unpack_from("!I", data, self.offset)[0])
        return packet

    def segment(self, cold, cx):
        """Consumes ``dst_anno``: right after a stage that set the
        annotation from these same bytes and proved them in bounds, this
        element cannot observe anything different — classic redundant-
        code elimination, safe only because the chain compiler sees both
        elements at once.  Otherwise no segment."""
        return cx.elide() if cx.prior.get("dst_anno") == self.offset else None


@register
class DropBroadcasts(Element):
    """Drops packets the device layer marked as link-level broadcasts
    (routers must not forward those)."""

    class_name = "DropBroadcasts"
    processing = "a/a"
    port_counts = "1/1"
    STATE = {"drops": ("carry", "sum")}

    def simple_action(self, packet):
        if packet.user_annos.get("packet_type") == PACKET_TYPE_BROADCAST:
            self.drops += 1
            return None
        return packet

    def segment(self, cold, cx):
        """The annotation test in line; a drop counts on this element."""
        e = cx.element(self)
        return lambda var, pad, exitstmt: [
            pad + "if %s.user_annos.get('packet_type') == %r:" % (var, PACKET_TYPE_BROADCAST),
            pad + "    %s.drops += 1" % e,
            pad + "    " + exitstmt,
        ]


@register
class IPGWOptions(Element):
    """Processes IP options a gateway must handle.  Headers without
    options (IHL == 5) pass untouched — the common case the combo
    elements exploit.  Packets with broken options exit output 1."""

    class_name = "IPGWOptions"
    processing = "a/ah"
    port_counts = "1/1-2"
    fast_action = "_process"
    STATE = {"problems": ("carry", "sum")}

    def configure(self, args):
        if len(args) > 1:
            raise ConfigError("IPGWOptions takes at most the router address")
        self.my_ip = IPAddress(args[0]) if args and args[0] else None

    def push(self, port, packet):
        result = self._process(packet)
        if result is not None:
            self.output(0).push(result)

    def pull(self, port):
        packet = self.input(0).pull()
        if packet is None:
            return None
        return self._process(packet)

    def _process(self, packet):
        data = packet.data
        header_length = (data[0] & 0xF) * 4
        if header_length <= IP_HEADER_LEN:
            return packet
        # Walk the options; we understand EOL, NOP, and (by validating
        # lengths) pass RR/TS through.  Anything malformed is a
        # parameter problem.
        cursor = IP_HEADER_LEN
        while cursor < header_length:
            option = data[cursor]
            if option == 0:  # end of options
                break
            if option == 1:  # no-op
                cursor += 1
                continue
            if cursor + 1 >= header_length:
                return self._problem(packet)
            opt_len = data[cursor + 1]
            if opt_len < 2 or cursor + opt_len > header_length:
                return self._problem(packet)
            cursor += opt_len
        return packet

    def segment(self, cold, cx):
        """Only a header with options takes ``cold``.  ``_process`` never
        mutates the packet (it only walks the option bytes or diverts to
        output 1), so every fact survives; consumes ``ip_hl``, the header
        length an upstream CheckIPHeader left live (options iff != 20)."""
        hl = cx.facts.get("ip_hl") if cx.facts else None
        a = cx.method(cold)

        def seg(var, pad, exitstmt):
            if hl is not None:
                test = [pad + "if %s != 20:" % hl]
            else:
                test = [
                    pad + "c = %s._data_cache" % var,
                    pad + "if ((c[0] if c is not None else %s.data[0]) & 15) != 5:" % var,
                ]
            return test + cx.call(a, var, pad + "    ", exitstmt)

        return seg

    def _problem(self, packet):
        self.problems += 1
        if self.noutputs > 1:
            self.output(1).push(packet)
        return None


@register
class FixIPSrc(Element):
    """If the Fix-IP-Source annotation is set (by ICMPError for locally
    generated errors), rewrite the IP source to this router's address on
    the outgoing interface and repair the checksum."""

    class_name = "FixIPSrc"
    processing = "a/a"
    port_counts = "1/1"

    def configure(self, args):
        if len(args) != 1:
            raise ConfigError("FixIPSrc needs the interface IP address")
        self.my_ip = IPAddress(args[0])

    def simple_action(self, packet):
        if not packet.fix_ip_src_anno:
            return packet
        data = packet.data
        old_checksum = struct.unpack_from("!H", data, 10)[0]
        checksum = old_checksum
        new_src = self.my_ip.packed()
        for word_index in range(2):
            offset = 12 + word_index * 2
            old_word = struct.unpack_from("!H", data, offset)[0]
            new_word = struct.unpack_from("!H", new_src, word_index * 2)[0]
            checksum = update_checksum_u16(checksum, old_word, new_word)
        packet.replace(12, new_src)
        packet.replace(10, struct.pack("!H", checksum))
        packet.fix_ip_src_anno = False
        return packet

    def segment(self, cold, cx):
        """Only an annotated packet takes ``cold``.  Rewriting the source
        address keeps length, destination and header shape intact, so
        with a live contents local every fact survives (the rare rewrite
        re-syncs the local); without one, the facts are cleared."""
        facts = cx.facts
        data = facts.get("data") if facts else None
        if facts and data is None:
            facts.clear()
        a = cx.method(cold)

        def seg(var, pad, exitstmt):
            lines = [pad + "if %s.fix_ip_src_anno:" % var] + cx.call(a, var, pad + "    ", exitstmt)
            return lines + cx.contents(var, pad + "    ", data) if data is not None else lines

        return seg


@register
class DecIPTTL(Element):
    """Decrements the IP TTL with an incremental checksum update; packets
    whose TTL has expired leave on output 1 (to an ICMPError in the IP
    router)."""

    class_name = "DecIPTTL"
    processing = "a/ah"
    port_counts = "1/1-2"
    fast_action = "_decrement"
    STATE = {"expired": ("carry", "sum")}

    def push(self, port, packet):
        result = self._decrement(packet)
        if result is not None:
            self.output(0).push(result)

    def pull(self, port):
        packet = self.input(0).pull()
        if packet is None:
            return None
        return self._decrement(packet)

    def _decrement(self, packet):
        data = packet.data
        ttl = data[8]
        if ttl <= 1:
            self.expired += 1
            if self.noutputs > 1:
                self.output(1).push(packet)
            return None
        old_word = (ttl << 8) | data[9]
        old_checksum = (data[10] << 8) | data[11]
        # RFC 1624 incremental update, inlined: HC' = ~(~HC + ~m + m')
        # where m' = m - 0x0100 (the TTL byte dropping by one).
        total = ((~old_checksum) & 0xFFFF) + ((~old_word) & 0xFFFF) + (old_word - 0x0100)
        while total > 0xFFFF:
            total = (total & 0xFFFF) + (total >> 16)
        new_checksum = (~total) & 0xFFFF
        # Poke the three changed bytes directly; reading data[11] above
        # already guaranteed they are inside the buffer.
        buf = packet._buf
        base = packet._data_offset + 8
        buf[base] = ttl - 1
        buf[base + 2] = new_checksum >> 8
        buf[base + 3] = new_checksum & 0xFF
        packet._data_cache = None
        return packet

    def segment(self, cold, cx):
        """The live-TTL case fully in line: read the header words from
        the cached contents, fold the RFC 1624 update twice (the
        three-term sum fits in 18 bits, so two folds always suffice),
        and poke the changed bytes.  TTL <= 1 takes ``cold``, which
        counts, pushes the error output, and returns None.

        Consumes ``data`` and ``off`` (the pokes fold to constants).
        The pokes leave the contents local stale, so ``data`` goes;
        lengths, destination and paint survive, unless there was no
        contents local, in which case every fact goes."""
        facts = cx.facts
        off = facts.get("off") if facts else None
        data = facts.get("data") if facts else None
        if facts:
            if data is not None:
                del facts["data"]
            else:
                facts.clear()
        a = cx.method(cold)

        def seg(var, pad, exitstmt):
            if data is not None:
                head = [] if data == "c" else [pad + "c = %s" % data]
            else:
                head = cx.contents(var, pad)
            p = pad + "    "
            if off is None:
                at, poke = ("base", "base + 2", "base + 3"), [p + "base = %s._data_offset + 8" % var]
            else:
                at, poke = (off + 8, off + 10, off + 11), []
            return head + [
                pad + "ttl = c[8]",
                pad + "if ttl <= 1:",
                *cx.call(a, var, p, exitstmt),
                pad + "else:",
                p + "w = (ttl << 8) | c[9]",
                p + "t = (((c[10] << 8) | c[11]) ^ 0xFFFF) + (w ^ 0xFFFF) + (w - 0x100)",
                p + "t = (t & 0xFFFF) + (t >> 16)",
                p + "t = ((t & 0xFFFF) + (t >> 16)) ^ 0xFFFF",
                *poke,
                p + "buf = %s._buf" % var,
                p + "buf[%s] = ttl - 1" % at[0],
                p + "buf[%s] = t >> 8" % at[1],
                p + "buf[%s] = t & 0xFF" % at[2],
                p + "%s._data_cache = None" % var,
            ]

        return seg


@register
class IPFragmenter(Element):
    """Fragments IP packets larger than the configured MTU.  Packets
    with DF set that would need fragmenting leave on output 1 (the
    ICMP "fragmentation needed" path)."""

    class_name = "IPFragmenter"
    processing = "h/h"
    port_counts = "1/1-2"
    # The common case (packet fits the MTU) returns the packet untouched;
    # fragments and DF rejects are pushed from inside the method, so the
    # fast path can inline the MTU test into its chains.
    fast_action = "_maybe_fragment"
    STATE = {"fragments_made": ("carry", "sum"), "df_drops": ("carry", "sum")}

    def configure(self, args):
        if not args or len(args) > 1:
            raise ConfigError("IPFragmenter needs an MTU")
        self.mtu = int(args[0])
        if self.mtu < 68:
            raise ConfigError("MTU must be at least 68")

    def push(self, port, packet):
        packet = self._maybe_fragment(packet)
        if packet is not None:
            self.output(0).push(packet)

    def _maybe_fragment(self, packet):
        if len(packet) <= self.mtu:
            return packet
        header = IPHeader.unpack(packet.data)
        if header.dont_fragment:
            self.df_drops += 1
            if self.noutputs > 1:
                self.output(1).push(packet)
            return None
        for fragment in self._fragment(packet, header):
            self.output(0).push(fragment)
        return None

    def segment(self, cold, cx):
        """Only an oversize packet takes ``cold``.  One that gets past
        the test is untouched, so ``off`` (consumed: the length test
        folds to the buffer's) outlives the clear."""
        facts = cx.facts
        off = facts.get("off") if facts else None
        if facts:
            facts.clear()
        a = cx.method(cold)
        mtu = self.mtu
        if off is not None:
            facts["off"] = off

        def seg(var, pad, exitstmt):
            if off is None:
                test = pad + "if len(%s._buf) - %s._data_offset > %d:" % (var, var, mtu)
            else:
                test = pad + "if len(%s._buf) > %d:" % (var, mtu + off)
            return [test] + cx.call(a, var, pad + "    ", exitstmt)

        return seg

    def _fragment(self, packet, header):
        fragments = fragment_ip_packet(packet, header, self.mtu)
        self.fragments_made += len(fragments)
        return fragments


def fragment_ip_packet(packet, header, mtu):
    """Split ``packet`` into MTU-sized IP fragments, preserving header
    options; shared by IPFragmenter and the IPOutputCombo pattern so the
    optimized and unoptimized graphs emit identical bytes."""
    from ..net.checksum import internet_checksum

    data = packet.data
    header_bytes = data[: header.header_length]
    payload = data[header.header_length: header.total_length]
    max_payload = ((mtu - header.header_length) // 8) * 8
    fragments = []
    cursor = 0
    while cursor < len(payload):
        chunk = payload[cursor:cursor + max_payload]
        more = (cursor + len(chunk)) < len(payload)
        # Patch the original header bytes (preserving any options)
        # rather than rebuilding, as Click does.
        frag_header = bytearray(header_bytes)
        struct.pack_into("!H", frag_header, 2, header.header_length + len(chunk))
        flags = header.flags | 0x1 if more else header.flags
        offset_units = header.fragment_offset + cursor // 8
        struct.pack_into("!H", frag_header, 6, (flags << 13) | offset_units)
        frag_header[10:12] = b"\x00\x00"
        struct.pack_into("!H", frag_header, 10, internet_checksum(frag_header))
        fragment = packet.clone()
        fragment.set_data(bytes(frag_header) + chunk)
        fragments.append(fragment)
        cursor += len(chunk)
    return fragments
