"""Scheduling elements: packet schedulers, metadata carriers, and the
multi-router linking element."""

from __future__ import annotations

from .element import ConfigError, Element
from .registry import register


@register
class RoundRobinSched(Element):
    """Pull scheduler: responds to pulls by pulling from its inputs in
    round-robin order, skipping empty ones."""

    class_name = "RoundRobinSched"
    processing = "l/l"
    flow_code = "x/x"
    port_counts = "1-/1"
    STATE = {"_next": ("carry", "first")}

    def pull(self, port):
        for offset in range(self.ninputs):
            index = (self._next + offset) % self.ninputs
            packet = self.input(index).pull()
            if packet is not None:
                self._next = (index + 1) % self.ninputs
                return packet
        return None


@register
class PrioSched(Element):
    """Pull scheduler with strict priority: input 0 is always drained
    before input 1, and so on."""

    class_name = "PrioSched"
    processing = "l/l"
    flow_code = "x/x"
    port_counts = "1-/1"

    def pull(self, port):
        for index in range(self.ninputs):
            packet = self.input(index).pull()
            if packet is not None:
                return packet
        return None


@register
class ScheduleInfo(Element):
    """Task-scheduling priority hints: ``ScheduleInfo(elt weight, ...)``.
    A pure specification carrier, like Click's."""

    class_name = "ScheduleInfo"
    processing = "a/a"
    port_counts = "0/0"

    def configure(self, args):
        self.weights = {}
        for arg in args:
            fields = arg.split()
            if len(fields) != 2:
                raise ConfigError("bad ScheduleInfo entry %r" % arg)
            self.weights[fields[0]] = float(fields[1])


@register
class RouterLink(Element):
    """A link between two routers inside a click-combine configuration
    (§7.2, Figure 7).  Stands in for the wire: a scheduled pull-to-push
    conduit (it pulls from the sending router's output queue and pushes
    into the receiving router's classifier), so combined configurations
    are runnable for analysis.  Its configuration records the original
    device bindings, which click-uncombine uses to split the
    configuration apart again."""

    class_name = "RouterLink"
    processing = "l/h"
    port_counts = "1/1"
    BURST = 8
    STATE = {"carried": ("carry", "sum")}

    def configure(self, args):
        if len(args) != 2:
            raise ConfigError("RouterLink(FROM-DEVICE-SPEC, TO-DEVICE-SPEC)")
        self.from_spec = args[0]
        self.to_spec = args[1]

    def is_task(self):
        return True

    def run_task(self):
        moved = False
        for _ in range(self.BURST):
            packet = self.input(0).pull()
            if packet is None:
                break
            self.carried += 1
            moved = True
            self.output(0).push(packet)
        return moved
