"""Seeded input generation: configuration text, traffic, update
schedules and the stage-ladder configurations.

The program under test sees only what is made here — configuration
*text* and frames — so a later change to ``repro.tune.workloads`` or
``benchmarks/`` cannot move the load.  Frames are built with the
public ``repro.net`` builders (whose cost the traced run reports as
``net.build_frame_ns``); everything random comes from
``random.Random`` seeded by strings, which does not depend on
``PYTHONHASHSEED``."""

import random
import re

from repro import configs
from repro.configs import firewall as fw
from repro.lang.lexer import split_config_args
from repro.net.headers import (
    ETHERTYPE_IP,
    IP_PROTO_TCP,
    IP_PROTO_UDP,
    TCP_ACK,
    TCP_SYN,
    IPHeader,
    TCPHeader,
    UDPHeader,
    build_ether_udp_packet,
    make_ether_header,
)
from repro.sim.testbed import HOST_ETHERS, host_ip

BLOCK_FRAMES = 2000  # frames per steady window
CHURN_FRAMES = 256  # frames forwarded between consecutive updates
BLOCKS = 4  # distinct blocks of IP router traffic, replayed cyclically

#: The evaluation network of §8.1: one host per interface (their
#: addresses are ``repro.sim.testbed``'s ``host_ip`` and ``HOST_ETHERS``).
INTERFACES = configs.iprouter.default_interfaces(2)
_IPROUTER_TEXT = configs.ip_router_config()


def stream(seed, purpose):
    """An independent random stream for one purpose of one seed."""
    return random.Random("%d:%s" % (seed, purpose))


# -- configuration text ------------------------------------------------------

_ROUTE_LINE = re.compile(r"^rt :: LookupIPRoute\((.*)\);$", re.MULTILINE)


def iprouter_text(routes=None):
    """Figure 1's two-interface IP router as Click text, optionally
    with its route table replaced (how ``click-update`` is fed)."""
    if routes is None:
        return _IPROUTER_TEXT
    replaced, count = _ROUTE_LINE.subn(
        lambda _match: "rt :: LookupIPRoute(%s);" % ", ".join(routes), _IPROUTER_TEXT
    )
    if count != 1:
        raise RuntimeError("the IP router text has no single route-table line")
    return replaced


def iprouter_routes():
    """The route strings of the stock IP router text."""
    return split_config_args(_ROUTE_LINE.search(_IPROUTER_TEXT).group(1))


def firewall_text(rules=None):
    """The 17-rule firewall of §4 as Click text, optionally with its
    rules replaced."""
    text = fw.firewall_config()
    if rules is None:
        return text
    stock = ",\n    ".join(fw.firewall_rule_strings())
    if text.count(stock) != 1:
        raise RuntimeError("the firewall text has no single rule list")
    return text.replace(stock, ",\n    ".join(rules))


# -- stage ladder ------------------------------------------------------------

STAGES = ("poll", "classify", "route", "body", "queue", "transmit")

_CHECK = "CheckIPHeader(18.26.4.255 2.255.255.255)"
CLASSIFIER_PATTERNS = "12/0806 20/0001, 12/0806 20/0002, 12/0800, -"
_CLASSIFIER = "Classifier(%s)" % CLASSIFIER_PATTERNS


def iprouter_ladder():
    """Six configurations, each a prefix of the IP router's forwarding
    path ending in ``Discard``, built from the router's own element
    strings: poll; + classify/Paint/Strip/CheckIPHeader; +
    GetIPAddress/LookupIPRoute; + the chain body through ARPQuerier;
    + Queue; + ToDevice (the full router itself).  Returns
    ``[(stage, text)]``."""
    routes = ", ".join(iprouter_routes())
    ladder = []
    for depth, stage in enumerate(STAGES, start=1):
        if stage == "transmit":
            ladder.append((stage, iprouter_text()))
            break
        lines = []
        if depth >= 3:
            lines += ["rt :: LookupIPRoute(%s);" % routes, "rt [0] -> Discard;"]
        for index, interface in enumerate(INTERFACES):
            i, color, ip = index, index + 1, interface.ip
            if depth == 1:
                lines.append("PollDevice(%s) -> Discard;" % interface.device)
                continue
            lines += [
                "c%d :: %s;" % (i, _CLASSIFIER),
                "PollDevice(%s) -> c%d;" % (interface.device, i),
                "c%d [3] -> Discard;" % i,
            ]
            head = "c%d [2] -> Paint(%d) -> Strip(14) -> %s" % (i, color, _CHECK)
            if depth == 2:
                lines += [head + " -> Discard;", "c%d [0] -> Discard;" % i,
                          "c%d [1] -> Discard;" % i]
                continue
            lines.append(head + " -> GetIPAddress(16) -> rt;")
            if depth == 3:
                lines += ["rt [%d] -> Discard;" % (i + 1), "c%d [0] -> Discard;" % i,
                          "c%d [1] -> Discard;" % i]
                continue
            lines += [
                "arpq%d :: ARPQuerier(%s, %s);" % (i, ip, interface.ether),
                "c%d [1] -> [1] arpq%d;" % (i, i),
                "rt [%d] -> DropBroadcasts -> cp%d :: CheckPaint(%d)" % (i + 1, i, color),
                "    -> gio%d :: IPGWOptions(%s) -> FixIPSrc(%s)" % (i, ip, ip),
                "    -> dt%d :: DecIPTTL -> fr%d :: IPFragmenter(1500) -> [0] arpq%d;" % (i, i, i),
                "cp%d [1] -> ICMPError(%s, redirect, host-redirect) -> rt;" % (i, ip),
                "gio%d [1] -> ICMPError(%s, parameterproblem, 0) -> rt;" % (i, ip),
                "dt%d [1] -> ICMPError(%s, timeexceeded, transit) -> rt;" % (i, ip),
                "fr%d [1] -> ICMPError(%s, unreachable, needfrag) -> rt;" % (i, ip),
            ]
            if depth == 4:
                lines += ["arpq%d -> Discard;" % i, "c%d [0] -> Discard;" % i]
                continue
            lines += [
                "arpr%d :: ARPResponder(%s %s);" % (i, ip, interface.ether),
                "out%d :: Queue(64);" % i,
                "c%d [0] -> arpr%d -> out%d;" % (i, i, i),
                "arpq%d -> out%d -> Unqueue(8) -> Discard;" % (i, i),
            ]
        ladder.append((stage, "\n".join(lines) + "\n"))
    return ladder


def firewall_ladder():
    """The firewall's prefixes.  It has no routing stage, so ``route``
    repeats the ``classify`` prefix and its stage cost is zero by
    definition."""
    rules = ",\n    ".join(fw.firewall_rule_strings())
    classify = "PollDevice(eth0) -> Strip(14) -> fw :: IPFilter(\n    %s)\n" % rules
    return [
        ("poll", "PollDevice(eth0) -> Discard;\n"),
        ("classify", classify + " -> Discard;\n"),
        ("route", None),
        ("body", classify + " -> Unstrip(14) -> Discard;\n"),
        ("queue", classify + " -> Unstrip(14) -> Queue(64) -> Unqueue(8) -> Discard;\n"),
        ("transmit", firewall_text()),
    ]


# -- traffic -----------------------------------------------------------------


def udp_frame(rx, src_port, sequence):
    tx = 1 - rx
    return (
        INTERFACES[rx].device,
        build_ether_udp_packet(
            HOST_ETHERS[rx],
            INTERFACES[rx].ether,
            host_ip(rx),
            host_ip(tx),
            src_port=src_port,
            dst_port=2000,
            payload=b"\x00" * 22,  # 14 + 20 + 8 + 22 = 64 bytes, the smallest size
            identification=sequence & 0xFFFF,
        ),
    )


def skew_blocks(seed):
    """64-byte UDP frames, 7 source ports, exactly 10 % of every block
    flowing in the reverse direction at seeded positions: one hot route
    arm and one hot ARP entry."""
    rng = stream(seed, "skew")
    blocks = []
    sequence = 0
    for _ in range(BLOCKS):
        reverse = set(rng.sample(range(BLOCK_FRAMES), BLOCK_FRAMES // 10))
        block = []
        for position in range(BLOCK_FRAMES):
            rx = 1 if position in reverse else 0
            block.append(udp_frame(rx, 1000 + rng.randrange(7), sequence))
            sequence += 1
        blocks.append(block)
    return blocks


def even_blocks(seed, flows):
    """§8.1's workload: the two hosts alternate, each sending an even
    flow of 64-byte UDP frames to the other; ``flows`` source ports
    drawn from the seed."""
    rng = stream(seed, "even")
    blocks = []
    sequence = 0
    for _ in range(BLOCKS):
        block = []
        for _position in range(BLOCK_FRAMES):
            block.append(udp_frame(sequence % 2, 1000 + rng.randrange(flows), sequence))
            sequence += 1
        blocks.append(block)
    return blocks


_EXTERNAL = "10.0.0.99"
_T, _U = IP_PROTO_TCP, IP_PROTO_UDP

#: One frame template per firewall rule, in rule order: (protocol, src,
#: dst, src port, dst port, TCP flags).  Each matches its own rule and
#: none before it (checked by the harness self-tests).
FIREWALL_TEMPLATES = (
    (_T, "172.16.5.5", _EXTERNAL, 1111, 2222, TCP_SYN),  # Spoof-1 (deny)
    (_U, "127.0.0.1", _EXTERNAL, 1111, 2222, 0),  # Spoof-2 (deny)
    (_T, _EXTERNAL, fw.MAIL_SERVER, 3456, 25, TCP_SYN),  # SMTP-1
    (_T, fw.MAIL_SERVER, _EXTERNAL, 25, 3456, TCP_ACK),  # SMTP-2
    (_T, fw.MAIL_SERVER, _EXTERNAL, 3456, 25, TCP_SYN),  # SMTP-3
    (_T, _EXTERNAL, fw.MAIL_SERVER, 25, 3456, TCP_ACK),  # SMTP-4
    (_T, fw.NEWS_FEED, fw.NEWS_SERVER, 3456, 119, TCP_SYN),  # NNTP-1
    (_T, fw.NEWS_SERVER, fw.NEWS_FEED, 119, 3456, TCP_ACK),  # NNTP-2
    (_T, fw.NEWS_SERVER, fw.NEWS_FEED, 3456, 119, TCP_SYN),  # NNTP-3
    (_T, _EXTERNAL, fw.WEB_SERVER, 3456, 80, TCP_SYN),  # HTTP-1
    (_T, fw.WEB_SERVER, _EXTERNAL, 80, 3456, TCP_ACK),  # HTTP-2
    (_U, _EXTERNAL, fw.DNS_SERVER, 3456, 53, 0),  # DNS-1
    (_U, fw.DNS_SERVER, _EXTERNAL, 53, 3456, 0),  # DNS-2
    (_T, _EXTERNAL, fw.DNS_SERVER, 3456, 53, TCP_SYN),  # DNS-3
    (_U, _EXTERNAL, fw.DNS_SERVER, 53, 3456, 0),  # DNS-4
    (_T, fw.DNS_SERVER, _EXTERNAL, 53, 3456, TCP_ACK),  # DNS-5
    (_T, _EXTERNAL, "10.9.9.9", 3456, 7, TCP_SYN),  # Default (deny)
)

_FIREWALL_ETHER = make_ether_header("00:50:56:00:00:01", "00:50:56:00:00:02", ETHERTYPE_IP)
FIREWALL_SIZES = (64, 576, 1500)
_SIZE_WEIGHTS = (7, 4, 1)
ZIPF_EXPONENT = 1.1


def firewall_frame(rule, size):
    """The template frame of firewall rule ``rule`` padded to ``size``
    bytes on the wire."""
    protocol, src, dst, src_port, dst_port, flags = FIREWALL_TEMPLATES[rule]
    transport = 20 if protocol == _T else 8
    padding = size - 14 - 20 - transport
    if protocol == _T:
        l4 = TCPHeader(src_port, dst_port, flags=flags).pack()
    else:
        l4 = UDPHeader(src_port, dst_port, length=8 + padding).pack()
    ip = IPHeader(src=src, dst=dst, protocol=protocol, total_length=size - 14)
    return _FIREWALL_ETHER + ip.pack() + l4 + bytes(padding)


def firewall_ranking(seed, block):
    """Rule at each Zipf rank in block ``block``: a seeded permutation
    of the rules rotated by the block number.  Over the 17 blocks every
    rule takes every rank once, so the hot rule moves through all of
    them within a run and the mix as a whole is the same for every
    seed; the seed fixes the order and the draws."""
    order = list(range(len(FIREWALL_TEMPLATES)))
    stream(seed, "zipf-permutation").shuffle(order)
    return order[block:] + order[:block]


def zipf_blocks(seed):
    """One template frame per rule, drawn i.i.d. Zipf(s = 1.1) over the
    block's ranking, sizes 64/576/1500 B at 7:4:1; one block per
    rotation of the ranking."""
    rng = stream(seed, "zipf")
    rules = range(len(FIREWALL_TEMPLATES))
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in rules]
    pool = {
        (rule, size): firewall_frame(rule, size) for rule in rules for size in FIREWALL_SIZES
    }
    blocks = []
    for block in rules:
        ranking = firewall_ranking(seed, block)
        ranks = rng.choices(rules, weights, k=BLOCK_FRAMES)
        sizes = rng.choices(FIREWALL_SIZES, _SIZE_WEIGHTS, k=BLOCK_FRAMES)
        blocks.append(
            [("eth0", pool[(ranking[rank], size)]) for rank, size in zip(ranks, sizes)]
        )
    return blocks


# -- update schedules --------------------------------------------------------
#
# Every update preserves behaviour for the workload's traffic by
# construction, which is what lets the reference run with the same
# schedule serve as the wire oracle.  Updates are all distinct (no
# content-addressed cache can short-cut a repeat) and are a function of
# (seed, index) alone, so the reference run regenerates them exactly.


def route_update(seed, index):
    """The stock routes shuffled, plus one never-matching /24."""
    rng = stream(seed, "routes-%d" % index)
    table = iprouter_routes()
    rng.shuffle(table)
    table.append("203.0.%d.0/24 %d" % (rng.randrange(1, 250), rng.randrange(1, 3)))
    return table


def classifier_update(seed, index):
    """The ethernet classifier's two ARP arms, swapped or not and
    narrowed to a seeded sender address.  The workloads carry no ARP,
    so the IP arm's behaviour is unchanged."""
    rng = stream(seed, "rules-%d" % index)
    arms = [
        "12/0806 20/0001 28/%08x" % rng.getrandbits(32),
        "12/0806 20/0002 28/%08x" % rng.getrandbits(32),
    ]
    if rng.random() < 0.5:
        arms.reverse()
    return arms + ["12/0800", "-"]


def firewall_update(seed, index):
    """The fourteen ``allow`` rules in a seeded order between the two
    anti-spoofing denies and the default deny: any match among them
    allows, so their order never changes a verdict."""
    rules = fw.firewall_rule_strings()
    allows = rules[2:-1]
    stream(seed, "firewall-%d" % index).shuffle(allows)
    return rules[:2] + allows + rules[-1:]
