"""IP and Ethernet address value types.

Click configuration strings name addresses textually ("1.0.0.1",
"00:20:6F:14:54:C2"); elements and the simulator work with compact
integer/bytes forms.  These small immutable classes provide parsing,
formatting, and arithmetic used throughout the element library.
"""

from __future__ import annotations

import re
import struct

_IP_RE = re.compile(r"^(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})$")
_ETHER_RE = re.compile(r"^([0-9A-Fa-f]{1,2})(?::([0-9A-Fa-f]{1,2})){5}$")


class AddressError(ValueError):
    """Raised when an address string cannot be parsed."""


class IPAddress:
    """An IPv4 address, stored as a 32-bit unsigned integer.

    >>> IPAddress("1.0.0.1").value
    16777217
    >>> str(IPAddress(16777217))
    '1.0.0.1'
    """

    __slots__ = ("value",)

    def __init__(self, addr):
        if isinstance(addr, IPAddress):
            self.value = addr.value
        elif isinstance(addr, int):
            if not 0 <= addr <= 0xFFFFFFFF:
                raise AddressError("IP address out of range: %r" % addr)
            self.value = addr
        elif isinstance(addr, (bytes, bytearray)):
            if len(addr) != 4:
                raise AddressError("IP address needs 4 bytes, got %d" % len(addr))
            self.value = struct.unpack("!I", bytes(addr))[0]
        elif isinstance(addr, str):
            self.value = self._parse(addr)
        else:
            raise AddressError("cannot make IPAddress from %r" % (addr,))

    @staticmethod
    def _parse(text):
        match = _IP_RE.match(text.strip())
        if not match:
            raise AddressError("bad IP address %r" % text)
        a, b, c, d = map(int, match.groups())
        if a > 255 or b > 255 or c > 255 or d > 255:
            raise AddressError("bad IP address %r" % text)
        return (a << 24) | (b << 16) | (c << 8) | d

    def packed(self):
        """The address as 4 network-order bytes."""
        return struct.pack("!I", self.value)

    def matches_prefix(self, network, mask):
        """True if this address is inside ``network/mask``."""
        return (self.value & IPAddress(mask).value) == (
            IPAddress(network).value & IPAddress(mask).value
        )

    def is_broadcast(self):
        return self.value == 0xFFFFFFFF

    def is_multicast(self):
        return (self.value >> 28) == 0xE

    def __str__(self):
        v = self.value
        return "%d.%d.%d.%d" % ((v >> 24) & 0xFF, (v >> 16) & 0xFF, (v >> 8) & 0xFF, v & 0xFF)

    def __repr__(self):
        return "IPAddress(%r)" % str(self)

    def __eq__(self, other):
        if isinstance(other, (IPAddress, int, str, bytes)):
            try:
                return self.value == IPAddress(other).value
            except AddressError:
                return NotImplemented
        return NotImplemented

    def __hash__(self):
        return hash(("IPAddress", self.value))


def ip_mask_from_prefix_len(prefix_len):
    """Netmask integer for a CIDR prefix length (0..32)."""
    if not 0 <= prefix_len <= 32:
        raise AddressError("bad prefix length %r" % prefix_len)
    if prefix_len == 0:
        return 0
    return (0xFFFFFFFF << (32 - prefix_len)) & 0xFFFFFFFF


def parse_ip_prefix(text):
    """Parse ``"addr/len"`` or ``"addr/mask"`` into (IPAddress, mask_int).

    A bare address means a /32 host prefix.
    """
    value, mask = _parse_prefix(text)
    return IPAddress(value), mask


def _parse_prefix(text):
    """:func:`parse_ip_prefix` as two ints, ``(address value, mask)``,
    with the same errors and no :class:`IPAddress` made."""
    text = text.strip()
    addr_part, slash, mask_part = text.partition("/")
    value = IPAddress._parse(addr_part)
    if not slash:
        return value, 0xFFFFFFFF
    mask_part = mask_part.strip()
    if _IP_RE.match(mask_part):
        return value, IPAddress._parse(mask_part)
    try:
        return value, ip_mask_from_prefix_len(int(mask_part))
    except ValueError as exc:
        raise AddressError("bad prefix %r" % text) from exc


class EtherAddress:
    """A 48-bit Ethernet MAC address.

    >>> str(EtherAddress("0:20:6f:14:54:c2"))
    '00:20:6F:14:54:C2'
    """

    __slots__ = ("value",)

    BROADCAST_VALUE = 0xFFFFFFFFFFFF

    def __init__(self, addr):
        if isinstance(addr, EtherAddress):
            self.value = addr.value
        elif isinstance(addr, int):
            if not 0 <= addr <= 0xFFFFFFFFFFFF:
                raise AddressError("Ethernet address out of range: %r" % addr)
            self.value = addr
        elif isinstance(addr, (bytes, bytearray)):
            if len(addr) != 6:
                raise AddressError("Ethernet address needs 6 bytes")
            self.value = int.from_bytes(bytes(addr), "big")
        elif isinstance(addr, str):
            self.value = self._parse(addr)
        else:
            raise AddressError("cannot make EtherAddress from %r" % (addr,))

    @staticmethod
    def _parse(text):
        parts = text.strip().split(":")
        if len(parts) != 6:
            raise AddressError("bad Ethernet address %r" % text)
        value = 0
        for part in parts:
            if not part or len(part) > 2:
                raise AddressError("bad Ethernet address %r" % text)
            try:
                byte = int(part, 16)
            except ValueError as exc:
                raise AddressError("bad Ethernet address %r" % text) from exc
            value = (value << 8) | byte
        return value

    @classmethod
    def broadcast(cls):
        return cls(cls.BROADCAST_VALUE)

    def packed(self):
        """The address as 6 network-order bytes."""
        return self.value.to_bytes(6, "big")

    def is_broadcast(self):
        return self.value == self.BROADCAST_VALUE

    def is_group(self):
        """True for multicast/broadcast (low bit of first octet set)."""
        return bool((self.value >> 40) & 0x01)

    def __str__(self):
        packed = self.packed()
        return ":".join("%02X" % b for b in packed)

    def __repr__(self):
        return "EtherAddress(%r)" % str(self)

    def __eq__(self, other):
        if isinstance(other, (EtherAddress, int, str, bytes)):
            try:
                return self.value == EtherAddress(other).value
            except AddressError:
                return NotImplemented
        return NotImplemented

    def __hash__(self):
        return hash(("EtherAddress", self.value))
