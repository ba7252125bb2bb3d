"""Adversarial traffic generation for the differential oracle.

Extends the equivalence tests' hostile corpus (corrupt checksums, TTL
edges, wrong IP versions, truncations, broadcast sources) with the cases
the fuzzer exists to catch: oversize datagrams with and without DF (the
fragmentation paths), runt frames shorter than an Ethernet header, ARP
requests, traffic addressed to the router itself, and deterministic
mid-run control events — ARP-table churn (epoch bumps), baked-guard
invalidation, forced adaptive deoptimization, a hot-swap that installs
the live configuration again (every element's declared ``carry`` state
must cross it unchanged), a control-plane rules update that changes
what a classifier's outputs mean, a structural update that inserts a
counter into a live push connection and later deletes it, a rules
update that only reorders a filter's rules where no verdict can
change, and a rules update that grows a filter past a hundred rules.

Everything is driven by a seeded ``random.Random``; the same seed always
produces the same event list, so every case is replayable.
"""

from __future__ import annotations

import re
import struct
from itertools import groupby

from ..classifier.ipfilter import parse_filter_rule
from ..core.toolchain import load_config, save_config
from ..elements.classifiers import CLASSIFIER_CLASS_NAMES
from ..lang.lexer import split_config_args
from ..net.checksum import internet_checksum
from ..net.headers import build_arp_request, build_ether_udp_packet
from ..sim.testbed import HOST_ETHERS, host_ip

# A deterministic "moved host": re-inserting an ARP entry with this
# address mid-run forces an epoch bump while traffic is in flight.
MOVED_ETHER = "00:20:6F:00:00:77"


def set_dont_fragment(frame):
    """Set DF in the IP header of an Ethernet/IP frame and fix the
    header checksum (full recompute over the patched header)."""
    frame = bytearray(frame)
    header_length = (frame[14] & 0xF) * 4
    flags_field = struct.unpack_from("!H", frame, 14 + 6)[0]
    struct.pack_into("!H", frame, 14 + 6, flags_field | (0x2 << 13))
    frame[14 + 10: 14 + 12] = b"\x00\x00"
    checksum = internet_checksum(frame[14: 14 + header_length])
    struct.pack_into("!H", frame, 14 + 10, checksum)
    return bytes(frame)


def _hostile_frame(rng, frame, kind):
    """One mutation from the equivalence tests' hostile mix."""
    frame = bytearray(frame)
    if kind == 1:  # corrupt IP checksum
        frame[14 + 10] ^= 0xFF
    elif kind == 2:  # wrong IP version
        frame[14] = (6 << 4) | (frame[14] & 0x0F)
    elif kind == 3:  # truncated mid-header
        frame = frame[: 14 + 12]
    elif kind == 4:  # broadcast source address
        frame[14 + 12: 14 + 16] = b"\xff\xff\xff\xff"
    elif kind == 5:  # runt: shorter than an Ethernet header
        frame = frame[: rng.randrange(0, 14)]
    return bytes(frame)


def iprouter_events(rng, interfaces, count=96, mtu=1500):
    """The event trace for an IP-router-shaped configuration: seeded ARP
    tables, good and hostile traffic on every interface, fragmentation
    triggers sized against ``mtu``, and mid-run churn."""
    events = []
    n = len(interfaces)
    for index in range(n):
        events.append(["insert", "arpq%d" % index, host_ip(index), HOST_ETHERS[index]])

    pending = 0
    for sequence in range(count):
        rx = sequence % n
        tx = (rx + 1) % n
        device = interfaces[rx].device
        kind = rng.randrange(12)
        ttl = 1 if kind == 6 else 64
        payload_length = 14
        if kind in (7, 8):  # oversize: forces the fragmentation paths
            payload_length = mtu - 28 + rng.choice([8, 200, 701])
        frame = build_ether_udp_packet(
            HOST_ETHERS[rx],
            interfaces[rx].ether,
            host_ip(rx),
            # kind 9 targets the router itself (the host path).
            interfaces[rx].ip if kind == 9 else host_ip(tx),
            src_port=1000 + sequence % 7,
            dst_port=2000,
            payload=b"\xa5" * payload_length,
            ttl=ttl,
            identification=sequence & 0xFFFF,
        )
        if kind in (1, 2, 3, 4, 5):
            frame = _hostile_frame(rng, frame, kind)
        elif kind == 8:  # oversize with DF: ICMP "fragmentation needed"
            frame = set_dont_fragment(frame)
        elif kind == 10:  # ARP request for the router's address
            frame = build_arp_request(HOST_ETHERS[rx], host_ip(rx), interfaces[rx].ip)
        events.append(["frame", device, bytes(frame).hex()])
        pending += 1
        if pending >= 8:
            events.append(["run", 4])
            pending = 0
        if sequence == count // 3:
            events.append(["deopt"])
        if sequence == count // 2:
            # The host behind interface 0 "moves": same IP, new Ethernet
            # address.  insert() bumps the querier's epoch, so any baked
            # tier-2 header guard must fail safe into the generic probe.
            events.append(["insert", "arpq0", host_ip(0), MOVED_ETHER])
            events.append(["bump_epochs"])
        if sequence == 2 * count // 3:
            events.append(["hotswap"])
    events.append(["run", 64])
    events.append(["run", 64])
    return events


def firewall_events(rng, count=64):
    """Traffic for the stock firewall: the DNS exemplar plus mutations
    that walk other IPFilter rules and the hostile corpus."""
    from ..configs.firewall import dns5_packet

    base = (
        b"\x00\x50\x56\x00\x00\x01"
        + b"\x00\x50\x56\x00\x00\x02"
        + b"\x08\x00"
        + dns5_packet()
    )
    events = []
    pending = 0
    for sequence in range(count):
        kind = rng.randrange(8)
        frame = bytearray(base)
        if kind in (1, 2, 3, 4, 5):
            frame = bytearray(_hostile_frame(rng, frame, kind))
        elif kind == 6:  # different ports: other filter rules fire
            struct.pack_into("!H", frame, 14 + 20, rng.choice([25, 53, 80, 6000]))
            struct.pack_into("!H", frame, 14 + 22, rng.choice([53, 123, 2049, 8080]))
            # The UDP checksum is not verified by the firewall path, but
            # the IP header is untouched, so no fixup is needed.
        events.append(["frame", "eth0", bytes(frame).hex()])
        pending += 1
        if pending >= 8:
            events.append(["run", 4])
            pending = 0
        if sequence == count // 2:
            events.append(["deopt"])
        if sequence == 3 * count // 4:
            events.append(["hotswap"])
    events.append(["run", 48])
    return events


def pipeline_events(rng, input_devices, count=64):
    """Traffic for generated pipeline configurations: valid UDP frames
    of varied sizes, foreign ethertypes, broadcasts, and runts."""
    ethers = ["00:20:6F:00:00:%02X" % i for i in range(4)] + ["ff:ff:ff:ff:ff:ff"]
    events = []
    pending = 0
    for sequence in range(count):
        device = input_devices[sequence % len(input_devices)]
        kind = rng.randrange(8)
        frame = build_ether_udp_packet(
            rng.choice(ethers[:-1]),
            rng.choice(ethers),
            "10.0.0.%d" % rng.randrange(1, 255),
            "10.0.1.%d" % rng.randrange(1, 255),
            src_port=rng.randrange(1024, 65535),
            dst_port=rng.choice([53, 80, 2000]),
            payload=bytes(rng.randrange(256) for _ in range(rng.choice([0, 14, 64, 400]))),
            identification=sequence & 0xFFFF,
        )
        if kind == 1:  # foreign ethertype
            frame = bytearray(frame)
            struct.pack_into("!H", frame, 12, rng.choice([0x0806, 0x86DD, 0x9999]))
            frame = bytes(frame)
        elif kind == 2:  # runt
            frame = frame[: rng.randrange(0, 14)]
        elif kind == 3:  # truncated payload
            frame = frame[: 14 + rng.randrange(0, 28)]
        events.append(["frame", device, bytes(frame).hex()])
        pending += 1
        if pending >= 8:
            events.append(["run", 4])
            pending = 0
        if sequence == count // 2:
            events.append(["deopt"])
            events.append(["bump_epochs"])
        if sequence == 3 * count // 4:
            events.append(["hotswap"])
    events.append(["run", 48])
    return events


def rules_update_text(config_text, rng):
    """The configuration with one classifier's rules rotated: a
    pure-data delta that changes what every output port means (under
    an ``IPFilter``, which rules are shadowed).  None when no
    classifier has two rules to rotate."""
    rotated = _rotation(config_text, rng)
    return rotated[1] if rotated else None


def _rotation(config_text, rng):
    """``(classifier name, text)`` of :func:`rules_update_text`, or None."""
    graph = load_config(config_text, "<churn>")
    rotatable = [
        decl
        for decl in graph.elements.values()
        if decl.class_name in CLASSIFIER_CLASS_NAMES
        and len(split_config_args(decl.config)) > 1
    ]
    if not rotatable:
        return None
    decl = rng.choice(rotatable)
    rules = split_config_args(decl.config)
    rotation = rng.randrange(1, len(rules))
    decl.config = ", ".join(rules[rotation:] + rules[:rotation])
    return decl.name, save_config(graph)


#: The constants :func:`value_edit_text` may replace: a ``Classifier``
#: clause's hex value, an IP rule's host address or port.
_HEX_VALUE = re.compile(r"(?<=/)[0-9a-fA-F?]+")
_IP_VALUE = re.compile(r"(?<=host )\d+(?:\.\d+){3}|(?<=port )\d+")


def value_edit_text(config_text, name, rng):
    """The configuration with one constant in one of classifier
    ``name``'s rules replaced by a seeded value of the same width (as
    many hex digits, keeping ``?`` wildcards; an address; a 16-bit
    port): a delta of values alone, which leaves the classifier's
    decision diagram its shape wherever the new value does not merge
    or split a test.  None when no rule holds such a constant, or the
    edited rule would not parse."""
    from ..classifier.language import PatternError, parse_pattern

    graph = load_config(config_text, "<churn>")
    decl = graph.elements[name]
    rules = split_config_args(decl.config)
    hexadecimal = decl.class_name == "Classifier"
    constants = [
        (index, match)
        for index, rule in enumerate(rules)
        for match in (_HEX_VALUE if hexadecimal else _IP_VALUE).finditer(rule)
    ]
    if not constants:
        return None
    index, match = rng.choice(constants)
    old = match.group()
    if hexadecimal:
        new = "".join(digit if digit == "?" else "%x" % rng.randrange(16) for digit in old)
    elif "." in old:
        new = ".".join(str(rng.randrange(256)) for _ in range(4))
    else:
        new = str(rng.randrange(1, 1 << 16))
    rule = rules[index] = rules[index][: match.start()] + new + rules[index][match.end() :]
    if hexadecimal:
        try:
            parse_pattern(rule)
        except PatternError:  # two clauses now contradict on a byte
            return None
    decl.config = ", ".join(rules)
    return save_config(graph)


def with_rules_update(case, rng):
    """``case`` with one ``["update", CONFIG]`` event mid-trace that
    installs :func:`rules_update_text` of its configuration, and a
    second, three quarters in, that edits one value of the rotated
    classifier (:func:`value_edit_text`): where traffic entered the
    chains between the two, the first patch compiles them and the
    second re-links them.  The case itself when nothing rotates."""
    rotated = _rotation(case["config"], rng)
    if rotated is None:
        return case
    name, text = rotated
    events = list(case["events"])
    events.insert(len(events) // 2, ["update", text])
    edited = value_edit_text(text, name, rng)
    if edited is not None:
        events.insert(3 * len(events) // 4, ["update", edited])
    return dict(case, events=events)


def _first_filter(case, at):
    """``(graph, decl)``: the text in force ``at`` events into
    ``case``, parsed, and its first ``IPFilter``'s declaration; None
    without one."""
    events, text = case["events"], case["config"]
    text = ([event[1] for event in events[:at] if event[0] in ("hotswap", "update") and len(event) > 1] or [text])[-1]
    graph = load_config(text, "<filter>")
    decl = next((decl for decl in graph.elements.values() if decl.class_name == "IPFilter"), None)
    return (graph, decl) if decl is not None else None


def with_grown_filter(case):
    """``case`` with an ``["update", CONFIG]`` event seven eighths in
    that grows the first ``IPFilter`` of the text in force there to
    :data:`GROWN_RULES` rules, denials of ``10.200.0.0/16`` hosts
    first: a path deeper than a decision diagram may go.  The case
    itself without one."""
    at = 7 * len(case["events"]) // 8
    found = _first_filter(case, at)
    if found is None:
        return case
    graph, decl = found
    rules = split_config_args(decl.config)
    decl.config = ", ".join(["deny src host 10.200.%d.%d" % divmod(i + 1, 250) for i in range(GROWN_RULES - len(rules))] + rules)
    events = list(case["events"])
    events.insert(at, ["update", save_config(graph)])
    return dict(case, events=events)


def with_permuted_filter(case, rng):
    """``case`` with an ``["update", CONFIG]`` event five sixths in
    that shuffles each run of same-verdict rules of the first
    ``IPFilter`` of the text in force there: every packet keeps its
    verdict, so a live ``IPFilter`` takes it as a no-op and keeps the
    text it had (on the optimized axis, whose filter is a generated
    class, it installs as any rules update does there).  The case
    itself without a filter or a run to shuffle."""
    at = 5 * len(case["events"]) // 6
    found = _first_filter(case, at)
    if found is None:
        return case
    graph, decl = found
    rules, permuted = split_config_args(decl.config), []
    for _allowed, run in groupby(rules, key=lambda rule: parse_filter_rule(rule)[0]):
        run = list(run)
        rng.shuffle(run)
        permuted += run
    if permuted == rules:
        return case
    decl.config = ", ".join(permuted)
    events = list(case["events"])
    events.insert(at, ["update", save_config(graph)])
    return dict(case, events=events)


#: The element :func:`with_structural_update` inserts: named, so no
#: anonymous element's positional name moves with the edit.
INSERTED = "fuzzcount"
#: How many rules :func:`with_grown_filter` gives the filter it grows.
GROWN_RULES = 104


def with_structural_update(case, rng):
    """``case`` with two structural ``["update", CONFIG]`` events before
    its first other update: one inserts a ``Counter`` named
    :data:`INSERTED` into a seeded push connection, a later one deletes
    it again.  Every mode installs both in place.  The case itself when
    it has no push connection."""
    from ..elements.registry import default_specs
    from ..elements.runtime import declared_classes
    from ..graph.ports import PUSH, resolve_processing

    graph = load_config(case["config"], "<structural>")
    specs = default_specs(extra_classes=[cls for _decl, cls in declared_classes(graph)])
    resolved = resolve_processing(graph, specs)
    pushes = [conn for conn in graph.connections if resolved[conn.from_element][1][conn.from_port] == PUSH]
    if not pushes or INSERTED in graph.elements:
        return case
    conn = rng.choice(pushes)
    graph.remove_connection(conn)
    graph.add_element(INSERTED, "Counter", None)
    graph.add_connection(conn.from_element, conn.from_port, INSERTED, 0)
    graph.add_connection(INSERTED, 0, conn.to_element, conn.to_port)
    events = list(case["events"])
    end = next((index for index, event in enumerate(events) if event[0] == "update"), len(events))
    events.insert(2 * end // 3, ["update", case["config"]])
    events.insert(end // 3, ["update", save_config(graph)])
    return dict(case, events=events)
