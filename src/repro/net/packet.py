"""The packet abstraction.

Click's ``Packet`` is a thin veneer over the Linux ``sk_buff``: a data
buffer with headroom/tailroom, a movable data pointer, and a set of
annotations (paint, destination-IP, network-header offset, timestamps)
that elements use to communicate out of band.  This class reproduces that
model, including the *alignment* of the data pointer, which the
``click-align`` tool reasons about and the ``Align`` element fixes.
"""

from __future__ import annotations

from .addresses import IPAddress

DEFAULT_HEADROOM = 28
"""Default headroom, chosen (as in Click) so that a 14-byte Ethernet
header leaves the IP header word-aligned when the buffer is word-aligned
plus two."""


class PacketError(RuntimeError):
    """Raised on misuse of the packet buffer (e.g. stripping past the end)."""


_DEST_IP_CACHE = {}
"""Interned IPAddress annotations, keyed by the raw value handed to
:meth:`Packet.set_dest_ip_anno` (bounded; see there)."""


def _intern_dest_ip(raw):
    """The one IPAddress for a raw value: IPAddress is immutable, and
    forwarding traffic reuses few destinations, so annotations are
    interned instead of constructed per packet.  Compiled segments bind
    the same objects, which is what lets an identity guard on the
    annotation hit."""
    cached = _DEST_IP_CACHE.get(raw)
    if cached is None:
        cached = IPAddress(raw)
        if len(_DEST_IP_CACHE) < 65536:
            _DEST_IP_CACHE[raw] = cached
    return cached


class Packet:
    """A network packet: bytes plus annotations.

    ``data`` is the current packet contents (after any ``strip``/``push``
    adjustments).  ``buffer_alignment`` records the alignment of the
    *buffer start* modulo 4 — the data pointer's alignment is then
    ``(buffer_alignment + headroom) % 4``, which is what alignment-
    sensitive elements (``CheckIPHeader`` on non-x86) care about.
    """

    __slots__ = (
        "_buf",
        "_data_offset",
        "_data_cache",
        "buffer_alignment",
        "paint",
        "dest_ip_anno",
        "ip_header_offset",
        "device_anno",
        "timestamp",
        "fix_ip_src_anno",
        "user_annos",
    )

    def __init__(self, data=b"", headroom=DEFAULT_HEADROOM, buffer_alignment=0):
        buf = bytearray(headroom + len(data))
        buf[headroom:] = data
        self._buf = buf
        self._data_offset = headroom
        # The constructor argument IS the initial contents: seed the
        # cache with it and the first .data read costs nothing.
        self._data_cache = data if type(data) is bytes else None
        self.buffer_alignment = buffer_alignment % 4
        self.paint = 0
        self.dest_ip_anno = None
        self.ip_header_offset = None
        self.device_anno = None
        self.timestamp = None
        self.fix_ip_src_anno = False
        self.user_annos = {}

    # -- data access --------------------------------------------------------

    @property
    def data(self):
        """The packet contents as ``bytes`` (copy-free views are not worth
        the aliasing hazards at this scale).  The copy is cached until the
        next mutation — a forwarding path reads ``data`` many times per
        hop, so this turns O(hops) buffer copies into one per rewrite."""
        cached = self._data_cache
        if cached is None:
            cached = self._data_cache = bytes(self._buf[self._data_offset:])
        return cached

    def __len__(self):
        return len(self._buf) - self._data_offset

    def __bytes__(self):
        """``bytes(packet)`` is the packet contents — the same bytes
        ``data`` returns, through the same cache discipline."""
        return self.data

    @property
    def headroom(self):
        return self._data_offset

    def data_alignment(self):
        """(offset mod 4) of the data pointer, given the buffer alignment."""
        return (self.buffer_alignment + self._data_offset) % 4

    def strip(self, nbytes):
        """Remove ``nbytes`` from the front (e.g. ``Strip(14)`` removes the
        Ethernet header)."""
        if nbytes < 0 or nbytes > len(self):
            raise PacketError("cannot strip %d bytes from %d-byte packet" % (nbytes, len(self)))
        self._data_offset += nbytes
        self._data_cache = None

    def push(self, data):
        """Prepend ``data``, using headroom when available (cheap) and
        reallocating when not (expensive, like skb reallocation)."""
        if type(data) is not bytes:
            data = bytes(data)
        if len(data) <= self._data_offset:
            start = self._data_offset - len(data)
            self._buf[start:self._data_offset] = data
            self._data_offset = start
        else:
            # Reallocate with fresh headroom; buffer alignment resets.
            contents = data + self.data
            self._buf = bytearray(DEFAULT_HEADROOM) + bytearray(contents)
            self._data_offset = DEFAULT_HEADROOM
            self.buffer_alignment = 0
        self._data_cache = None

    def pull(self, nbytes):
        """Alias for :meth:`strip` (Click calls this ``pull``)."""
        self.strip(nbytes)

    def take(self, nbytes):
        """Remove ``nbytes`` from the tail."""
        if nbytes < 0 or nbytes > len(self):
            raise PacketError("cannot take %d bytes from %d-byte packet" % (nbytes, len(self)))
        del self._buf[len(self._buf) - nbytes:]
        self._data_cache = None

    def put(self, data):
        """Append ``data`` at the tail."""
        self._buf += bytes(data)
        self._data_cache = None

    def replace(self, offset, data):
        """Overwrite packet bytes at ``offset`` (relative to the data
        pointer) with ``data``."""
        if type(data) is not bytes:
            data = bytes(data)
        start = self._data_offset + offset
        end = start + len(data)
        if offset < 0 or end > len(self._buf):
            raise PacketError(
                "replace [%d:%d) outside %d-byte packet"
                % (offset, offset + len(data), len(self))
            )
        self._buf[start:end] = data
        self._data_cache = None

    def set_data(self, data):
        """Replace the whole contents, keeping annotations and headroom."""
        self._buf = self._buf[: self._data_offset] + bytearray(data)
        self._data_cache = None

    # -- annotations ---------------------------------------------------------

    def set_dest_ip_anno(self, addr):
        if addr is None:
            self.dest_ip_anno = None
        elif type(addr) is IPAddress:
            self.dest_ip_anno = addr
        else:
            try:
                self.dest_ip_anno = _intern_dest_ip(addr)
            except TypeError:  # unhashable (e.g. bytearray)
                self.dest_ip_anno = IPAddress(addr)

    def copy_annotations_from(self, other):
        self.paint = other.paint
        self.dest_ip_anno = other.dest_ip_anno
        self.ip_header_offset = other.ip_header_offset
        self.device_anno = other.device_anno
        self.timestamp = other.timestamp
        self.fix_ip_src_anno = other.fix_ip_src_anno
        self.user_annos = dict(other.user_annos)

    def clone(self):
        """A full copy (data and annotations), like Click's
        ``Packet::clone()`` + ``uniqueify()``."""
        dup = Packet.__new__(Packet)
        dup._buf = bytearray(self._buf)
        dup._data_offset = self._data_offset
        dup._data_cache = self._data_cache
        dup.buffer_alignment = self.buffer_alignment
        dup.copy_annotations_from(self)
        return dup

    def realign(self, modulus, offset):
        """Copy the data into a buffer whose data pointer satisfies
        ``data_alignment % modulus == offset`` (the ``Align`` element's
        job).  Returns self for chaining."""
        contents = self.data
        self._buf = bytearray(DEFAULT_HEADROOM) + bytearray(contents)
        self._data_offset = DEFAULT_HEADROOM
        self._data_cache = None
        self.buffer_alignment = realigned_buffer_alignment(modulus, offset)
        return self

    def __repr__(self):
        return "Packet(%d bytes, paint=%r, dst=%s)" % (
            len(self),
            self.paint,
            self.dest_ip_anno,
        )


def realigned_buffer_alignment(modulus, offset):
    """The buffer alignment that puts a data pointer ``DEFAULT_HEADROOM``
    bytes into the buffer at ``offset`` modulo ``modulus`` — what
    :meth:`Packet.realign` leaves behind, and what the fast path's
    inline Align segment bakes in as a constant."""
    return (offset - DEFAULT_HEADROOM) % modulus % 4


def make_packet(data, **annotations):
    """Convenience constructor used heavily in tests."""
    packet = Packet(data)
    for name, value in annotations.items():
        if name == "dest_ip_anno":
            packet.set_dest_ip_anno(value)
        elif hasattr(packet, name):
            setattr(packet, name, value)
        else:
            packet.user_annos[name] = value
    return packet
