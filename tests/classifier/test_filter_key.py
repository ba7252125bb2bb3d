"""The IPFilter rules key is sound: two rule lists with one key give
every packet the same verdict.

The key (:func:`repro.classifier.ipfilter.filter_rules_key`) is the
maximal runs of one verdict, each the set of its whitespace-collapsed
expressions.  Rule lists come from the stock firewall and the filter
``click-fuzz --updates`` grows past a hundred rules; each is
transformed the ways the key forgives — rules permuted inside their
run, ``deny`` written ``drop`` and back, a rule repeated inside its
run, whitespace and the action's case varied — and the transformed
list must have the key and, optimized, the verdicts of the original:
on one template frame per stock rule and on frames drawn from the
rules' own addresses, ports and flags.  A rule moved across a run
boundary changes the key.
"""

import random
from itertools import groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classifier.ipfilter import compile_filter_rules, filter_rules_key
from repro.classifier.optimize import optimize
from repro.configs.firewall import (
    DNS_SERVER,
    MAIL_SERVER,
    NEWS_FEED,
    NEWS_SERVER,
    WEB_SERVER,
    firewall_rule_strings,
)
from repro.net.headers import IP_PROTO_ICMP, IP_PROTO_TCP, IP_PROTO_UDP, IPHeader, TCPHeader, UDPHeader
from repro.verify.gentraffic import GROWN_RULES

EXTERNAL = "10.0.0.99"
TCP, UDP, ACK, SYN = IP_PROTO_TCP, IP_PROTO_UDP, 0x10, 0x02

#: One template per stock firewall rule, in rule order: (protocol, src,
#: dst, src port, dst port, TCP flags), each matching its rule.
TEMPLATES = (
    (TCP, "172.16.5.5", EXTERNAL, 1111, 2222, SYN),
    (UDP, "127.0.0.1", EXTERNAL, 1111, 2222, 0),
    (TCP, EXTERNAL, MAIL_SERVER, 3456, 25, SYN),
    (TCP, MAIL_SERVER, EXTERNAL, 25, 3456, ACK),
    (TCP, MAIL_SERVER, EXTERNAL, 3456, 25, SYN),
    (TCP, EXTERNAL, MAIL_SERVER, 25, 3456, ACK),
    (TCP, NEWS_FEED, NEWS_SERVER, 3456, 119, SYN),
    (TCP, NEWS_SERVER, NEWS_FEED, 119, 3456, ACK),
    (TCP, NEWS_SERVER, NEWS_FEED, 3456, 119, SYN),
    (TCP, EXTERNAL, WEB_SERVER, 3456, 80, SYN),
    (TCP, WEB_SERVER, EXTERNAL, 80, 3456, ACK),
    (UDP, EXTERNAL, DNS_SERVER, 3456, 53, 0),
    (UDP, DNS_SERVER, EXTERNAL, 53, 3456, 0),
    (TCP, EXTERNAL, DNS_SERVER, 3456, 53, SYN),
    (UDP, EXTERNAL, DNS_SERVER, 53, 3456, 0),
    (TCP, DNS_SERVER, EXTERNAL, 53, 3456, ACK),
    (TCP, EXTERNAL, "10.9.9.9", 3456, 7, SYN),
)
ADDRESSES = sorted({address for template in TEMPLATES for address in template[1:3]}) + [
    "10.200.0.1", "10.200.0.77", "172.16.0.1", "127.9.9.9",
]
PORTS = sorted({port for template in TEMPLATES for port in template[3:5]})


def packet(protocol, src, dst, sport, dport, flags, fragment=0):
    """An IP packet (the filter's input: after ``Strip(14)``)."""
    if protocol == TCP:
        l4 = TCPHeader(sport, dport, flags=flags).pack()
    elif protocol == UDP:
        l4 = UDPHeader(sport, dport).pack()
    else:
        l4 = bytes([8, 0]) + bytes(6)
    ip = IPHeader(src=src, dst=dst, protocol=protocol, total_length=20 + len(l4), fragment_offset=fragment)
    return ip.pack() + l4


def grown_rules():
    """The firewall as ``click-fuzz --updates`` grows it: denials of
    ``10.200.0.0/16`` hosts first (gentraffic's ``with_grown_filter``)."""
    rules = firewall_rule_strings()
    return ["deny src host 10.200.%d.%d" % divmod(i + 1, 250) for i in range(GROWN_RULES - len(rules))] + rules


RULE_LISTS = {"firewall": firewall_rule_strings(), "grown": grown_rules()}


def runs(rules):
    """``rules`` as its maximal runs of one verdict, lists of rules."""
    return [list(run) for _allowed, run in groupby(rules, key=lambda rule: rule.split()[0] == "allow")]


def respaced(rule, rng):
    """``rule`` with every space a run of spaces and tabs, the action's
    case varied, and whitespace around it."""
    action, _space, rest = rule.partition(" ")
    action = "".join(c.upper() if rng.random() < 0.5 else c for c in action)
    words = [action] + rest.split(" ")
    return rng.choice(["", " ", "\t"]) + "".join(
        word + rng.choice([" ", "  ", "\t", " \t "]) for word in words[:-1]
    ) + words[-1] + rng.choice(["", " ", "\n"])


def transformed(rules, rng):
    """``rules`` transformed every way the key forgives."""
    out = []
    for members in runs(rules):
        members = list(members)
        rng.shuffle(members)
        if rng.random() < 0.5:
            members.insert(rng.randrange(len(members) + 1), rng.choice(members))
        for member in members:
            action, _space, rest = member.partition(" ")
            if action in ("deny", "drop") and rng.random() < 0.5:
                action = "drop" if action == "deny" else "deny"
            out.append(respaced(action + " " + rest, rng))
    return out


def verdicts(rules, frames):
    tree = optimize(compile_filter_rules(rules))
    return [tree.match(frame) for frame in frames]


TEMPLATE_FRAMES = [packet(*template) for template in TEMPLATES]

frames = st.builds(
    packet,
    st.sampled_from([TCP, TCP, UDP, IP_PROTO_ICMP]),
    st.sampled_from(ADDRESSES),
    st.sampled_from(ADDRESSES),
    st.sampled_from(PORTS) | st.integers(0, 0xFFFF),
    st.sampled_from(PORTS) | st.integers(0, 0xFFFF),
    st.sampled_from([0, SYN, ACK, SYN | ACK]),
    st.sampled_from([0, 0, 0, 3]),
)


@pytest.mark.parametrize("name", sorted(RULE_LISTS))
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), drawn=st.lists(frames, min_size=1, max_size=24))
def test_a_transformed_list_keeps_its_key_and_its_verdicts(name, seed, drawn):
    rules = RULE_LISTS[name]
    other = transformed(rules, random.Random(seed))
    assert filter_rules_key(other) == filter_rules_key(rules)
    sample = TEMPLATE_FRAMES + drawn
    assert verdicts(other, sample) == verdicts(rules, sample)


@pytest.mark.parametrize("name", sorted(RULE_LISTS))
def test_a_rule_moved_across_a_run_boundary_changes_the_key(name):
    rules = RULE_LISTS[name]
    key = filter_rules_key(rules)
    bounds = [len(members) for members in runs(rules)]
    edges = [sum(bounds[: index + 1]) for index in range(len(bounds) - 1)]
    assert edges
    for edge in edges:
        # the last rule of one run swapped with the first of the next
        across = rules[: edge - 1] + [rules[edge], rules[edge - 1]] + rules[edge + 1 :]
        assert filter_rules_key(across) != key


def test_the_template_frames_tell_the_stock_verdicts_apart():
    """A moved ``allow`` changes a template frame's verdict: the frames
    can see what the key keeps apart."""
    rules = firewall_rule_strings()
    moved = rules[2:3] + rules[:2] + rules[3:]
    spoofed = packet(TCP, "172.16.5.5", MAIL_SERVER, 3456, 25, SYN)
    assert verdicts(moved, [spoofed]) != verdicts(rules, [spoofed])
    assert verdicts(rules, TEMPLATE_FRAMES) == [None, None] + [0] * 14 + [None]
