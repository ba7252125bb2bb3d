"""The *IPFilter* / *IPClassifier* expression language.

These elements accept tcpdump-flavoured boolean expressions over IP
packets ("``src 10.0.0.2 && tcp src port 25``" — the paper's §3 example)
and compile them to the same decision-tree form as *Classifier*.  The
packet data is assumed to begin at the IP header, which is how the IP
router uses these elements (after ``Strip(14)``).

Supported primaries (each optionally negated / combined with ``&&``,
``||``, ``and``, ``or``, ``not``, ``!``, parentheses):

    ``tcp`` ``udp`` ``icmp``             protocol tests
    ``ip proto N``
    ``[src|dst] host A.B.C.D``           (bare addresses also accepted)
    ``[src|dst] net A.B.C.D/len``
    ``[tcp|udp] [src|dst] port N|name``
    ``icmp type N|name``
    ``tcp opt syn|ack|fin|rst|psh|urg``
    ``ip frag`` / ``ip unfrag``
    ``ip vers N`` / ``ip hl N``
    ``true|any|all`` / ``false|none``

Without a ``src``/``dst`` qualifier, host/net/port tests match either
direction, as in Click and tcpdump.  Port and TCP-option tests imply the
protocol test, a first-fragment guard, and an IHL == 5 guard (the
decision tree compares at fixed offsets; CheckIPHeader upstream has
already validated the header).
"""

from __future__ import annotations

import re
from itertools import groupby
from operator import itemgetter

from ..net.addresses import parse_ip_prefix
from .tree import FAILURE, TreeBuilder, make_leaf

PORT_NAMES = {
    "ftp-data": 20, "ftp": 21, "ssh": 22, "telnet": 23, "smtp": 25,
    "dns": 53, "domain": 53, "bootps": 67, "bootpc": 68, "tftp": 69,
    "finger": 79, "www": 80, "http": 80, "pop3": 110, "auth": 113,
    "ident": 113, "nntp": 119, "ntp": 123, "imap": 143, "snmp": 161,
    "snmp-trap": 162, "bgp": 179, "irc": 194, "https": 443, "rip": 520,
}

ICMP_TYPE_NAMES = {
    "echo-reply": 0, "unreachable": 3, "dest-unreachable": 3,
    "sourcequench": 4, "redirect": 5, "echo": 8, "routeradvert": 9,
    "routersolicit": 10, "time-exceeded": 11, "parameterproblem": 12,
    "parameter-problem": 12, "timestamp": 13, "timestamp-reply": 14,
}

IP_PROTO_NAMES = {"icmp": 1, "igmp": 2, "tcp": 6, "udp": 17, "gre": 47}

TCP_FLAG_BITS = {"fin": 0x01, "syn": 0x02, "rst": 0x04, "psh": 0x08, "ack": 0x10, "urg": 0x20}


class FilterError(ValueError):
    """Raised for malformed filter expressions."""


# ---------------------------------------------------------------------------
# Expression AST


class _Node:
    __slots__ = ()


class Test(_Node):
    """(data[offset:offset+4] & mask) == value, word-aligned."""

    __slots__ = ("offset", "mask", "value")

    def __init__(self, offset, mask, value):
        self.offset = offset
        self.mask = mask & 0xFFFFFFFF
        self.value = value & 0xFFFFFFFF


class And(_Node):
    """Both children must match."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


class Or(_Node):
    """Either child may match."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


class Not(_Node):
    """The child must not match."""

    __slots__ = ("child",)

    def __init__(self, child):
        self.child = child


class Const(_Node):
    """Always/never matches (``true`` / ``false``)."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = bool(value)


def _and_all(nodes):
    result = None
    for node in nodes:
        result = node if result is None else And(result, node)
    return result if result is not None else Const(True)


# -- field test helpers (offsets relative to the IP header) -----------------


def _byte_test(byte_offset, byte_mask, byte_value):
    word = (byte_offset // 4) * 4
    shift = (3 - byte_offset % 4) * 8
    return Test(word, byte_mask << shift, byte_value << shift)


def _u16_test(byte_offset, mask, value):
    if byte_offset % 4 == 0:
        return Test(byte_offset, mask << 16, value << 16)
    if byte_offset % 4 == 2:
        return Test(byte_offset - 2, mask, value)
    raise FilterError("unaligned 16-bit field at %d" % byte_offset)


def _range_blocks(low, high, bits=16):
    """Cover the integer range [low, high] with maximal aligned
    power-of-two blocks — each a (value, mask) pair for one masked
    compare.  The standard prefix decomposition: a range over a 16-bit
    field needs at most 30 blocks."""
    if low > high:
        raise FilterError("empty range %d-%d" % (low, high))
    blocks = []
    field_max = (1 << bits) - 1
    cursor = low
    while cursor <= high:
        # Largest aligned block starting at cursor that fits.
        size = 1
        while (
            cursor % (size * 2) == 0
            and cursor + size * 2 - 1 <= high
            and size * 2 <= field_max + 1
        ):
            size *= 2
        mask = (field_max & ~(size - 1)) & field_max
        blocks.append((cursor, mask))
        cursor += size
    return blocks


def _u16_range_test(byte_offset, low, high):
    """An Or-tree of masked compares matching field in [low, high]."""
    tests = [
        _u16_test(byte_offset, mask, value) for value, mask in _range_blocks(low, high)
    ]
    result = tests[0]
    for test in tests[1:]:
        result = Or(result, test)
    return result


def _u32_test(byte_offset, mask, value):
    if byte_offset % 4:
        raise FilterError("unaligned 32-bit field at %d" % byte_offset)
    return Test(byte_offset, mask, value)


def _proto_test(proto):
    return _byte_test(9, 0xFF, proto)


def _first_fragment():
    # Fragment-offset bits all zero (MF may be set: the first fragment
    # still carries the transport header).
    return _u16_test(6, 0x1FFF, 0)


def _is_fragment():
    # MF set or fragment offset nonzero.
    return Not(_u16_test(6, 0x3FFF, 0))


def _standard_header():
    return _byte_test(0, 0xFF, 0x45)  # version 4, IHL 5


def _transport_guard(proto):
    return _and_all([_standard_header(), _first_fragment(), _proto_test(proto)])


# ---------------------------------------------------------------------------
# Tokenizer / parser

_TOKEN_RE = re.compile(
    r"\s*(&&|\|\||!|\(|\)|[A-Za-z][A-Za-z0-9._\-]*"
    r"|\d+\.\d+\.\d+\.\d+(?:/\d+)?|\d+-\d+|\d+(?:/\d+)?)"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match:
            raise FilterError("bad filter syntax at %r" % text[pos:])
        tokens.append(match.group(1))
        pos = match.end()
    return tokens


_IP_RE = re.compile(r"^\d+\.\d+\.\d+\.\d+(/\d+)?$")


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        token = self.peek()
        if token is None:
            raise FilterError("unexpected end of filter expression")
        self.pos += 1
        return token

    def expect(self, token):
        found = self.next()
        if found != token:
            raise FilterError("expected %r, found %r" % (token, found))

    # expr := and_expr (('||'|'or') and_expr)*
    def parse(self):
        node = self.parse_expr()
        if self.peek() is not None:
            raise FilterError("trailing tokens: %r" % self.tokens[self.pos:])
        return node

    def parse_expr(self):
        node = self.parse_and()
        while self.peek() in ("||", "or"):
            self.next()
            node = Or(node, self.parse_and())
        return node

    def parse_and(self):
        node = self.parse_unary()
        while True:
            token = self.peek()
            if token in ("&&", "and"):
                self.next()
                node = And(node, self.parse_unary())
            elif token is not None and token not in ("||", "or", ")"):
                # Juxtaposition is conjunction ("src 1.2.3.4 tcp").
                node = And(node, self.parse_unary())
            else:
                return node

    def parse_unary(self):
        token = self.peek()
        if token in ("!", "not"):
            self.next()
            return Not(self.parse_unary())
        if token == "(":
            self.next()
            node = self.parse_expr()
            self.expect(")")
            return node
        return self.parse_primary()

    # -- primaries ------------------------------------------------------------

    def parse_primary(self):
        token = self.next()
        lower = token.lower()

        if lower in ("true", "any", "all"):
            return Const(True)
        if lower in ("false", "none"):
            return Const(False)

        direction = None
        if lower in ("src", "dst"):
            direction = lower
            token = self.next()
            lower = token.lower()
            if lower == "and" and self.peek() and self.peek().lower() == "dst":
                # "src and dst host X"
                self.next()
                direction = "both"
                token = self.next()
                lower = token.lower()
            elif lower == "or" and self.peek() and self.peek().lower() == "dst":
                self.next()
                direction = None  # src-or-dst is the default meaning
                token = self.next()
                lower = token.lower()

        if lower == "host":
            return self._host(direction, self.next())
        if _IP_RE.match(token):
            if "/" in token:
                return self._net(direction, token)
            return self._host(direction, token)
        if lower == "net":
            return self._net(direction, self.next())
        if lower == "port":
            return self._port(direction, None, self.next())

        if lower in ("tcp", "udp"):
            proto = IP_PROTO_NAMES[lower]
            follow = self.peek()
            follow_lower = follow.lower() if follow else None
            if follow_lower in ("src", "dst"):
                # "tcp src port 25" — look ahead for the port keyword.
                save = self.pos
                sub_direction = self.next().lower()
                if self.peek() and self.peek().lower() == "port":
                    self.next()
                    return self._port(sub_direction, proto, self.next())
                self.pos = save
                return _proto_test(proto)
            if follow_lower == "port":
                self.next()
                return self._port(None, proto, self.next())
            if lower == "tcp" and follow_lower == "opt":
                self.next()
                return self._tcp_opt(self.next())
            return _proto_test(proto)

        if lower == "icmp":
            if self.peek() and self.peek().lower() == "type":
                self.next()
                return self._icmp_type(self.next())
            return _proto_test(1)

        if lower == "ip":
            keyword = self.next().lower()
            if keyword == "proto":
                value = self.next().lower()
                proto = IP_PROTO_NAMES.get(value)
                if proto is None:
                    proto = self._int(value, "IP protocol")
                return _proto_test(proto)
            if keyword == "frag":
                return _is_fragment()
            if keyword == "unfrag":
                return Not(_is_fragment())
            if keyword == "vers":
                return _byte_test(0, 0xF0, self._int(self.next(), "IP version") << 4)
            if keyword == "hl":
                return _byte_test(0, 0x0F, self._int(self.next(), "IP header length") // 4)
            if keyword == "tos":
                return _byte_test(1, 0xFF, self._int(self.next(), "IP TOS"))
            if keyword == "dscp":
                return _byte_test(1, 0xFC, self._int(self.next(), "IP DSCP") << 2)
            if keyword == "ttl":
                return _byte_test(8, 0xFF, self._int(self.next(), "IP TTL"))
            raise FilterError("unknown 'ip' test %r" % keyword)

        raise FilterError("unknown filter primary %r" % token)

    @staticmethod
    def _int(text, what):
        try:
            return int(text)
        except ValueError:
            raise FilterError("bad %s %r" % (what, text)) from None

    def _host(self, direction, addr_text):
        addr, mask = parse_ip_prefix(addr_text)
        return self._addr_node(direction, addr.value, mask)

    def _net(self, direction, net_text):
        if self.peek() and self.peek().lower() == "mask":
            # "net 18.26.4.0 mask 255.255.255.0"
            self.next()
            net_text = "%s/%s" % (net_text, self.next())
        addr, mask = parse_ip_prefix(net_text)
        return self._addr_node(direction, addr.value & mask, mask)

    @staticmethod
    def _addr_node(direction, value, mask):
        src = _u32_test(12, mask, value & mask)
        dst = _u32_test(16, mask, value & mask)
        if direction == "src":
            return src
        if direction == "dst":
            return dst
        if direction == "both":
            return And(src, dst)
        return Or(src, dst)

    def _port(self, direction, proto, port_text):
        if "-" in port_text and not port_text[0].isalpha():
            # A port range: "port 1024-65535".
            low_text, _, high_text = port_text.partition("-")
            low = self._int(low_text, "port")
            high = self._int(high_text, "port")
            src = _u16_range_test(20, low, high)
            dst = _u16_range_test(22, low, high)
            return self._port_node(direction, proto, src, dst)
        port = PORT_NAMES.get(port_text.lower())
        if port is None:
            port = self._int(port_text, "port")
        src = _u16_test(20, 0xFFFF, port)
        dst = _u16_test(22, 0xFFFF, port)
        return self._port_node(direction, proto, src, dst)

    def _port_node(self, direction, proto, src, dst):
        if direction == "src":
            port_node = src
        elif direction == "dst":
            port_node = dst
        else:
            port_node = Or(src, dst)
        if proto is None:
            proto_node = Or(_proto_test(6), _proto_test(17))
        else:
            proto_node = _proto_test(proto)
        return _and_all([_standard_header(), _first_fragment(), proto_node, port_node])

    @staticmethod
    def _tcp_opt(flag_text):
        bit = TCP_FLAG_BITS.get(flag_text.lower())
        if bit is None:
            raise FilterError("unknown TCP flag %r" % flag_text)
        return And(_transport_guard(6), _byte_test(33, bit, bit))

    def _icmp_type(self, type_text):
        icmp_type = ICMP_TYPE_NAMES.get(type_text.lower())
        if icmp_type is None:
            icmp_type = self._int(type_text, "ICMP type")
        return And(_transport_guard(1), _byte_test(20, 0xFF, icmp_type))


def parse_expression(text):
    """Parse a filter expression into its AST."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Compilation to decision trees


def _compile_node(builder, node, succ, fail):
    """Continuation-passing compilation: returns the entry target."""
    if isinstance(node, Const):
        return succ if node.value else fail
    if isinstance(node, Not):
        return _compile_node(builder, node.child, fail, succ)
    if isinstance(node, And):
        right_entry = _compile_node(builder, node.right, succ, fail)
        return _compile_node(builder, node.left, right_entry, fail)
    if isinstance(node, Or):
        right_entry = _compile_node(builder, node.right, succ, fail)
        return _compile_node(builder, node.left, succ, right_entry)
    if isinstance(node, Test):
        return builder.node(node.offset, node.mask, node.value, succ, fail)
    raise FilterError("cannot compile %r" % node)


def compile_expressions(expressions):
    """Compile IPClassifier-style patterns (one per output, first match
    wins, ``-`` is catch-all) into a decision tree."""
    if not expressions:
        raise FilterError("IPClassifier needs at least one pattern")
    builder = TreeBuilder()
    entry = FAILURE
    for output in range(len(expressions) - 1, -1, -1):
        text = expressions[output].strip()
        success = make_leaf(output)
        if text == "-":
            entry = success
            continue
        node = parse_expression(text)
        entry = _compile_node(builder, node, success, entry)
    return builder.finish(entry, noutputs=len(expressions))


def parse_filter_rule(rule):
    """``(allowed, expression)`` of one IPFilter rule: ``allow`` is
    True, ``deny`` and ``drop`` are both False, and a rule without an
    expression reads ``all``."""
    parts = rule.strip().split(None, 1)
    if not parts:
        raise FilterError("empty IPFilter rule")
    action = parts[0].lower()
    if action == "allow":
        allowed = True
    elif action in ("deny", "drop"):
        allowed = False
    else:
        raise FilterError("unknown IPFilter action %r" % action)
    return allowed, parts[1] if len(parts) > 1 else "all"


def compile_filter_rules(rules):
    """Compile IPFilter-style rules (``allow EXPR`` / ``deny EXPR`` /
    ``drop EXPR``) into a decision tree with one output (0 = allowed);
    denied packets are dropped.  A trailing implicit ``deny all`` applies,
    as in Click."""
    if not rules:
        raise FilterError("IPFilter needs at least one rule")
    builder = TreeBuilder()
    entry = FAILURE  # implicit final deny
    for rule in reversed(rules):
        allowed, expr_text = parse_filter_rule(rule)
        node = parse_expression(expr_text)
        entry = _compile_node(builder, node, make_leaf(0) if allowed else FAILURE, entry)
    return builder.finish(entry, noutputs=1)


def filter_rules_key(rules):
    """A key two rule lists share only if they give every packet the
    same verdict: the maximal runs of rules with one verdict, in order,
    each the set of its whitespace-collapsed expressions.  Inside a run
    the rules commute — whichever of them a packet matches first, the
    run's verdict is the answer — so reordering them, repeating one, or
    writing ``drop`` for ``deny`` keeps the key."""
    return tuple(
        (allowed, frozenset(" ".join(expression.split()) for _allowed, expression in run))
        for allowed, run in groupby(map(parse_filter_rule, rules), key=itemgetter(0))
    )
