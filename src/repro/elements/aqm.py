"""Active queue management: RED.

RED is the paper's §6.1 example: "assume instead that every RED element
was immediately followed by a Queue" — the devirtualizer's motivating
case.  Like Click's RED, the element locates its downstream Queues at
initialization time by walking the configuration graph and drops
probabilistically based on their average occupancy.
"""

from __future__ import annotations

import random

from .element import ConfigError, Element
from .infrastructure import Queue
from .registry import register


@register
class RED(Element):
    """Random Early Detection: ``RED(MIN_THRESH, MAX_THRESH, MAX_P)``."""

    class_name = "RED"
    processing = "a/a"
    port_counts = "1/1"
    EWMA_WEIGHT = 0.5
    STATE = {
        "drops": ("carry", "sum"),
        "forwarded": ("carry", "sum"),
        "_avg": ("carry", "first"),
        "rng": ("carry", "first"),
    }

    def configure(self, args):
        if len(args) != 3:
            raise ConfigError("RED(MIN_THRESH, MAX_THRESH, MAX_P)")
        self.min_thresh = int(args[0])
        self.max_thresh = int(args[1])
        self.max_p = float(args[2])
        if not 0 <= self.min_thresh <= self.max_thresh:
            raise ConfigError("need 0 <= MIN_THRESH <= MAX_THRESH")
        if not 0.0 < self.max_p <= 1.0:
            raise ConfigError("MAX_P must be in (0, 1]")
        self._queues = []
        self.rng = random.Random(0xBEEF)

    def initialize(self):
        self._queues = self._find_downstream_queues()

    def _find_downstream_queues(self):
        """Follow connections downstream until Queues are found (Click's
        RED does the same wiring-time discovery)."""
        found = []
        seen = set()
        frontier = [self.output(p).target for p in range(self.noutputs)]
        while frontier:
            element = frontier.pop()
            if element is None or element.name in seen:
                continue
            seen.add(element.name)
            if isinstance(element, Queue):
                found.append(element)
                continue
            frontier.extend(
                element.output(p).target for p in range(element.noutputs)
            )
        return found

    def queue_length(self):
        return sum(len(q) for q in self._queues)

    def _should_drop(self):
        self._avg = (
            self.EWMA_WEIGHT * self.queue_length() + (1 - self.EWMA_WEIGHT) * self._avg
        )
        if self._avg < self.min_thresh:
            return False
        if self._avg >= self.max_thresh:
            return True
        fraction = (self._avg - self.min_thresh) / max(1, self.max_thresh - self.min_thresh)
        return self.rng.random() < fraction * self.max_p

    def simple_action(self, packet):
        if self._should_drop():
            self.drops += 1
            return None
        self.forwarded += 1
        return packet
