"""IP routing-table elements.

``LookupIPRoute`` (Click's StaticIPLookup) is the routing step in
Figure 1: longest-prefix match on the destination-IP annotation, which
selects an output port and optionally rewrites the annotation to the
gateway address for ARPQuerier.  ``RadixIPLookup`` provides the same
interface over a binary trie, for large tables.
"""

from __future__ import annotations

from ..net.addresses import IPAddress, _parse_prefix
from .element import ConfigError, Element
from .registry import register

_MISS = object()
"""Sentinel distinguishing a route-memo miss from a memoized no-route."""


def _parse_route(arg):
    """``"addr/mask [gw] port"`` → (network, mask, gateway|None, port)."""
    fields = arg.split()
    if len(fields) == 2:
        prefix_text, port_text = fields
        gateway = None
    elif len(fields) == 3:
        prefix_text, gw_text, port_text = fields
        gateway = IPAddress(gw_text)
        if gateway.value == 0:
            gateway = None
    else:
        raise ConfigError("bad route %r (want 'addr/mask [gw] port')" % arg)
    addr, mask = _parse_prefix(prefix_text)
    try:
        port = int(port_text)
    except ValueError:
        raise ConfigError("bad route port %r" % port_text) from None
    return (addr & mask, mask, gateway, port)


class _IPRouteTable(Element):
    """Shared behaviour: route parsing, annotation handling, dispatch."""

    processing = "h/h"
    port_counts = "1/-"
    STATE = {"no_route_drops": ("carry", "sum")}

    def configure(self, args):
        if not args:
            raise ConfigError("%s needs at least one route" % self.class_name)
        self.routes = [_parse_route(arg) for arg in args]
        self._build()

    def check_routes(self, args):
        """Parse and validate a replacement route table without touching
        the live one: the control plane's dry-run half.  The new table
        must fit the existing wiring (no route may select an unwired
        output — a wiring change needs a hot-swap); a bad table raises
        :class:`ConfigError`.  Returns the parsed routes for
        :meth:`commit_routes`."""
        if not args:
            raise ConfigError("%s needs at least one route" % self.class_name)
        routes = [_parse_route(arg) for arg in args]
        noutputs = len(getattr(self, "_output_ports", ()))
        if noutputs:
            for arg, route in zip(args, routes):
                if not 0 <= route[3] < noutputs:
                    raise ConfigError(
                        "route %r selects output %d; element %s has %d "
                        "output(s) (a wiring change needs a hot-swap)"
                        % (arg, route[3], self.name, noutputs)
                    )
        return routes

    def commit_routes(self, routes):
        """Install routes prepared by :meth:`check_routes`.  Cannot
        fail: the staged-batch commit half."""
        self.routes = routes
        self._build()

    def _build(self):
        raise NotImplementedError

    def lookup_route(self, addr):
        """(gateway|None, port) for ``addr``, or None when unrouteable."""
        raise NotImplementedError

    def push(self, port, packet):
        if packet.dest_ip_anno is None:
            self.no_route_drops += 1
            return
        result = self.lookup_route(packet.dest_ip_anno)
        if result is None:
            self.no_route_drops += 1
            return
        gateway, out_port = result
        if gateway is not None:
            packet.set_dest_ip_anno(gateway)
        self.checked_push(out_port, packet)

    def segment(self, cold, cx):
        """``push`` declared to the chain compiler (``cx.dispatch``):
        ``lookup_route`` on the destination, a drop for none or no
        route, the gateway into the annotation, and a checked jump table
        (``checked_push`` discards an unwired port silently).

        Consumes ``dst_raw``: with CheckIPHeader's raw destination live
        in a local, the lookup and any speculation read the integer and
        skip the annotation and its None test.  The arms keep the other
        facts (the lookup reads annotations only) but not ``dst_raw``,
        which a gateway makes stale.  LookupIPRoute's memo dict is
        created once and cleared in place, so while ``lookup_route`` is
        LookupIPRoute's its ``get`` is bound: the common case is one
        dict probe, and only a miss takes the memoizing lookup."""
        facts = cx.facts
        raw = facts.get("dst_raw") if facts else None
        key, arg = (raw, raw) if raw else ("dst.value", "dst")
        lk, e = cx.attr(self, "lookup_route"), cx.element(self)
        jt = cx.jump_table(self, "checked")
        probe = None
        if type(self).lookup_route is LookupIPRoute.lookup_route:
            probe = cx.attr(self, "_memo", "get"), cx.bind(_MISS)
        drop = "%s.no_route_drops += 1" % e
        arm_facts = {k: v for k, v in facts.items() if k != "dst_raw"} if facts else None

        def select(var, pad, note):
            lines = [pad + "%s(%s)" % (note, key)] if note else []
            if probe:
                get, miss = probe
                lines += [
                    pad + "route = %s(%s, %s)" % (get, key, miss),
                    pad + "if route is %s:" % miss,
                    pad + "    route = %s(%s)" % (lk, arg),
                ]
            else:
                lines.append(pad + "route = %s(%s)" % (lk, arg))
            return lines + [
                pad + "if route is None:",
                pad + "    " + drop,
                pad + "else:",
                pad + "    gateway = route[0]",
                pad + "    if gateway is not None:",
                pad + "        %s.set_dest_ip_anno(gateway)" % var,
                pad + "    out = route[1]",
            ], pad + "    "

        def speculate(constant, arm):
            # Without the raw local the destination is compared by
            # identity: CheckIPHeader interns annotations, so the hot
            # flow's packets all carry this object, and any other object
            # simply takes the lookup — never wrong, only slow.
            hot_raw, gateway, port = constant
            body = arm(port, arm_facts)
            if body is None or not 0 <= port < len(self._output_ports):
                return None
            test = "%s == %d" % (raw, hot_raw) if raw else "dst is %s" % cx.ip(hot_raw)
            if gateway is None:
                return test, body
            gw = cx.ip(gateway)
            return test, lambda var, pad, exitstmt: (
                [pad + "%s.dest_ip_anno = %s" % (var, gw)] + body(var, pad, exitstmt)
            )

        return cx.dispatch(
            self, "route", select, drop, jt, "checked", speculate,
            load=None if raw else lambda var, pad: [pad + "dst = %s.dest_ip_anno" % var],
            unset=None if raw else "dst is None", facts=arm_facts,
        )


@register
class LookupIPRoute(_IPRouteTable):
    """Linear longest-prefix-match table (Click's StaticIPLookup), ample
    for the handful of routes in the evaluation's IP router."""

    class_name = "LookupIPRoute"

    def _build(self):
        # Sort by decreasing prefix specificity so the first hit is the
        # longest match.
        self._ordered = sorted(self.routes, key=lambda r: bin(r[1]).count("1"), reverse=True)
        # Results are memoized per destination (bounded; traffic reuses
        # few).  The dict's *identity* must survive rebuilds: the fast
        # path binds self._memo.get straight into generated code, so a
        # control-plane route patch clears in place instead of
        # reassigning.
        memo = getattr(self, "_memo", None)
        if memo is None:
            self._memo = {}
        else:
            memo.clear()

    def lookup_route(self, addr):
        value = addr.value if type(addr) is IPAddress else IPAddress(addr).value
        try:
            return self._memo[value]
        except KeyError:
            pass
        result = None
        for network, mask, gateway, port in self._ordered:
            if (value & mask) == network:
                result = (gateway, port)
                break
        if len(self._memo) < 65536:
            self._memo[value] = result
        return result


@register
class StaticIPLookup(LookupIPRoute):
    """Click's name for the same element."""

    class_name = "StaticIPLookup"


@register
class RadixIPLookup(_IPRouteTable):
    """Binary-trie longest-prefix match for large tables."""

    class_name = "RadixIPLookup"

    def _build(self):
        self._root = {}
        for network, mask, gateway, port in self.routes:
            prefix_len = bin(mask).count("1")
            node = self._root
            for bit_index in range(prefix_len):
                bit = (network >> (31 - bit_index)) & 1
                node = node.setdefault(bit, {})
            node["route"] = (gateway, port)

    def lookup_route(self, addr):
        value = IPAddress(addr).value
        node = self._root
        best = node.get("route")
        for bit_index in range(32):
            bit = (value >> (31 - bit_index)) & 1
            node = node.get(bit)
            if node is None:
                break
            if "route" in node:
                best = node["route"]
        return best
