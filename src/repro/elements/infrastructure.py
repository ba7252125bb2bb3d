"""Infrastructure elements: queues, fan-out, switches, sources, sinks.

These are the general-purpose plumbing elements of Figure 1 and of the
"Simple" configuration (device → Queue → device) used throughout the
evaluation.
"""

from __future__ import annotations

import random
from collections import deque

from ..net.packet import Packet
from .element import ConfigError, Element
from .registry import register


@register
class Queue(Element):
    """A FIFO packet queue: push input, pull output — the push/pull
    boundary of every forwarding path.  Drops arriving packets when full
    (the "Queue drop" outcome of §8.4)."""

    class_name = "Queue"
    processing = "h/l"
    port_counts = "1/1"
    DEFAULT_CAPACITY = 1000
    STATE = {"drops": ("carry", "sum"), "highwater": ("carry", "max"), "_deque": ("carry", "first")}

    def configure(self, args):
        if len(args) > 1:
            raise ConfigError("Queue takes at most one argument (capacity)")
        self.capacity = self.DEFAULT_CAPACITY
        if args and args[0]:
            try:
                self.capacity = int(args[0])
            except ValueError:
                raise ConfigError("bad Queue capacity %r" % args[0]) from None
            if self.capacity < 1:
                raise ConfigError("Queue capacity must be positive")
        self._deque = deque()

    def __len__(self):
        return len(self._deque)

    def push(self, port, packet):
        if len(self._deque) >= self.capacity:
            self.drops += 1
            self.charge("queue_drop")
            return
        self._deque.append(packet)
        if len(self._deque) > self.highwater:
            self.highwater = len(self._deque)

    def pull(self, port):
        if not self._deque:
            return None
        return self._deque.popleft()

    def segment(self, cold, cx):
        """The chain terminal in place of ``cold``: ``push`` becomes a
        bounds-checked append, ``pull`` a popleft.  The deque is bound
        directly: Queue never reassigns it (hot-swap state transfer
        mutates it in place for exactly this reason).  A full queue's
        ``charge("queue_drop")`` is a no-op without a meter, and a
        metered router is never compiled."""
        if cold.__name__ == "pull":
            dq, pop = cx.attr(self, "_deque"), cx.attr(self, "_deque", "popleft")
            return lambda var, pad, exitstmt: [
                pad + "if not %s:" % dq,
                pad + "    " + exitstmt,
                pad + "%s = %s()" % (var, pop),
            ]
        q, dq, cap = cx.element(self), cx.attr(self, "_deque"), self.capacity
        return lambda var, pad, exitstmt: [
            pad + "qlen = len(%s)" % dq,
            pad + "if qlen >= %d:" % cap,
            pad + "    %s.drops += 1" % q,
            pad + "else:",
            pad + "    %s.append(%s)" % (dq, var),
            pad + "    qlen += 1",
            pad + "    if qlen > %s.highwater:" % q,
            pad + "        %s.highwater = qlen" % q,
        ]


@register
class FrontDropQueue(Queue):
    """A Queue that makes room for new packets by dropping the *oldest*
    instead of the arrival — better for feedback-based protocols, since
    the surviving packets carry fresher information."""

    class_name = "FrontDropQueue"

    def push(self, port, packet):
        if len(self._deque) >= self.capacity:
            self._deque.popleft()
            self.drops += 1
        self._deque.append(packet)
        if len(self._deque) > self.highwater:
            self.highwater = len(self._deque)


@register
class Shaper(Element):
    """A pull rate limiter: passes at most RATE packets per simulated
    second of scheduler time (one millisecond per task pass downstream,
    matching RatedSource's clock)."""

    class_name = "Shaper"
    processing = "l/l"
    port_counts = "1/1"
    TICK_SECONDS = 1e-3
    STATE = {"passed": ("carry", "sum"), "_credit": ("carry", "first")}

    def configure(self, args):
        if len(args) != 1:
            raise ConfigError("Shaper(RATE)")
        self.rate = float(args[0])

    def tick(self):
        """Advance the shaper's clock one scheduler pass."""
        self._credit = min(self._credit + self.rate * self.TICK_SECONDS, self.rate)

    def is_task(self):
        return True

    def run_task(self):
        self.tick()
        return False  # the tick is bookkeeping, not useful work

    def pull(self, port):
        if self._credit < 1.0:
            return None
        packet = self.input(0).pull()
        if packet is None:
            return None
        self._credit -= 1.0
        self.passed += 1
        return packet


@register
class TimedSource(Element):
    """Emits one configured packet every INTERVAL simulated seconds
    (scheduler passes model milliseconds, as for RatedSource)."""

    class_name = "TimedSource"
    processing = "h/h"
    port_counts = "0/1"
    TICK_SECONDS = 1e-3
    STATE = {"emitted": ("carry", "sum"), "_elapsed": ("carry", "first")}

    def configure(self, args):
        if len(args) > 2:
            raise ConfigError("TimedSource(INTERVAL, DATA)")
        self.interval = float(args[0]) if args and args[0] else 0.5
        data = args[1] if len(args) > 1 and args[1] else "Timed data."
        if data.startswith('"') and data.endswith('"'):
            data = data[1:-1]
        self.data = data.encode("utf-8", "surrogateescape")

    def is_task(self):
        return True

    def run_task(self):
        self._elapsed += self.TICK_SECONDS
        if self._elapsed < self.interval:
            return False
        self._elapsed -= self.interval
        self.emitted += 1
        self.output(0).push(Packet(self.data))
        return True


@register
class Discard(Element):
    """Sinks every packet.  Dead ends like this are what let
    click-devirtualize share code between whole upstream paths (§6.1)."""

    class_name = "Discard"
    processing = "h/h"
    flow_code = "x/-"
    port_counts = "1/0"
    STATE = {"count": ("carry", "sum")}

    def push(self, port, packet):
        self.count += 1


@register
class Counter(Element):
    """Counts passing packets and bytes; otherwise transparent."""

    class_name = "Counter"
    processing = "a/a"
    port_counts = "1/1"
    STATE = {"count": ("carry", "sum"), "byte_count": ("carry", "sum")}

    def simple_action(self, packet):
        self.count += 1
        self.byte_count += len(packet)
        return packet


@register
class Tee(Element):
    """Copies each input packet to every output (push)."""

    class_name = "Tee"
    processing = "h/h"
    port_counts = "1/1-"

    def configure(self, args):
        if len(args) > 1:
            raise ConfigError("Tee takes at most one argument")
        self.declared_outputs = int(args[0]) if args and args[0] else None

    def push(self, port, packet):
        for out in range(self.noutputs - 1):
            self.output(out).push(packet.clone())
        self.output(self.noutputs - 1).push(packet)


@register
class StaticSwitch(Element):
    """Routes every packet to one fixed output chosen at configuration
    time; the canonical source of dead branches click-undead removes
    (§6.3).  ``StaticSwitch(-1)`` drops everything."""

    class_name = "StaticSwitch"
    processing = "h/h"
    port_counts = "1/-"

    def configure(self, args):
        if len(args) != 1:
            raise ConfigError("StaticSwitch needs exactly one argument (output)")
        try:
            self.active_output = int(args[0])
        except ValueError:
            raise ConfigError("bad StaticSwitch output %r" % args[0]) from None

    def push(self, port, packet):
        self.checked_push(self.active_output, packet)


@register
class Switch(StaticSwitch):
    """Like StaticSwitch but writable at run time (so *not* subject to
    dead-branch elimination)."""

    class_name = "Switch"
    STATE = {"active_output": ("reset", "first")}

    def set_output(self, output):
        self.active_output = output

    def read_handlers(self):
        handlers = super().read_handlers()
        handlers["switch"] = lambda: self.active_output
        return handlers

    def write_handlers(self):
        return {"switch": lambda value: self.set_output(int(value))}


@register
class Null(Element):
    """Forwards every packet unchanged — the canonical do-nothing
    conduit (useful as a placeholder in pattern replacements)."""

    class_name = "Null"
    processing = "a/a"
    port_counts = "1/1"


@register
class Idle(Element):
    """Connects to anything, does nothing: discards pushed packets,
    returns None for pulls.  Used to cap unused ports."""

    class_name = "Idle"
    processing = "a/a"
    port_counts = "-/-"

    def configure(self, args):
        pass

    def push(self, port, packet):
        pass

    def pull(self, port):
        return None


@register
class InfiniteSource(Element):
    """A scheduled source: emits ``burst`` copies of a configured packet
    per task invocation, up to ``limit`` total (-1 = unlimited)."""

    class_name = "InfiniteSource"
    processing = "h/h"
    port_counts = "0/1"
    STATE = {"emitted": ("carry", "sum")}

    def configure(self, args):
        if len(args) > 3:
            raise ConfigError("InfiniteSource(DATA, LIMIT, BURST)")
        data = args[0] if len(args) > 0 and args[0] else "Random bulk data."
        if data.startswith('"') and data.endswith('"'):
            data = data[1:-1]
        self.data = data.encode("utf-8", "surrogateescape")
        self.limit = int(args[1]) if len(args) > 1 and args[1] else -1
        self.burst = int(args[2]) if len(args) > 2 and args[2] else 1

    def is_task(self):
        return True

    def run_task(self):
        if self.limit >= 0 and self.emitted >= self.limit:
            return False
        count = self.burst
        if self.limit >= 0:
            count = min(count, self.limit - self.emitted)
        for _ in range(count):
            self.emitted += 1
            self.output(0).push(Packet(self.data))
        return count > 0


@register
class Unqueue(Element):
    """A scheduled pull-to-push conduit: each task invocation pulls up to
    ``burst`` packets upstream and pushes them downstream."""

    class_name = "Unqueue"
    processing = "l/h"
    port_counts = "1/1"
    STATE = {"count": ("carry", "sum")}

    def configure(self, args):
        if len(args) > 1:
            raise ConfigError("Unqueue takes at most one argument (burst)")
        self.burst = int(args[0]) if args and args[0] else 1

    def is_task(self):
        return True

    def run_task(self):
        moved = False
        for _ in range(self.burst):
            packet = self.input(0).pull()
            if packet is None:
                break
            self.count += 1
            moved = True
            self.output(0).push(packet)
        return moved


@register
class RandomSample(Element):
    """Forwards each packet with the configured probability, dropping
    (or diverting to output 1) the rest."""

    class_name = "RandomSample"
    processing = "a/ah"
    port_counts = "1/1-2"
    STATE = {"drops": ("carry", "sum"), "rng": ("carry", "first")}

    def configure(self, args):
        if len(args) != 1:
            raise ConfigError("RandomSample needs a probability")
        self.probability = float(args[0])
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigError("probability must be in [0, 1]")
        self.rng = random.Random(0x5EED)

    def push(self, port, packet):
        if self.rng.random() < self.probability:
            self.output(0).push(packet)
        else:
            self.drops += 1
            if self.noutputs > 1:
                self.output(1).push(packet)

    def pull(self, port):
        packet = self.input(0).pull()
        if packet is None:
            return None
        if self.rng.random() < self.probability:
            return packet
        self.drops += 1
        return None


@register
class Strip(Element):
    """Removes a fixed number of bytes from the front of each packet —
    ``Strip(14)`` removes the Ethernet header in Figure 1."""

    class_name = "Strip"
    processing = "a/a"
    port_counts = "1/1"

    def configure(self, args):
        if len(args) != 1:
            raise ConfigError("Strip needs a byte count")
        try:
            self.nbytes = int(args[0])
        except ValueError:
            raise ConfigError("bad Strip count %r" % args[0]) from None
        if self.nbytes < 0:
            raise ConfigError("Strip count must be non-negative")

    def simple_action(self, packet):
        if len(packet) < self.nbytes:
            return None
        packet.strip(self.nbytes)
        return packet

    def segment(self, cold, cx):
        """Consumes ``data``/``min_len``: when they prove the strip in
        bounds, the contents local is sliced into a fresh one and the
        invariant goes on (``off`` moves with it; ``ip_hl``, measured
        from the old origin, goes).  Otherwise every fact goes, and a
        cached contents is sliced rather than dropped.  Strip proper
        drops a short packet silently; a lowered stage counts it
        through ``cold``, the combo's."""
        n, facts = self.nbytes, cx.facts
        if facts and facts.get("data") and facts.get("min_len", 0) >= n:
            src, dst = facts["data"], cx.fresh()
            facts["data"] = dst
            facts["min_len"] -= n
            facts.pop("ip_hl", None)
            move = "%%s._data_offset += %d" % n
            if "off" in facts:
                facts["off"] += n
                move = "%%s._data_offset = %d" % facts["off"]
            return lambda var, pad, exitstmt: [
                pad + move % var,
                pad + "%s = %s[%d:]" % (dst, src, n),
                pad + "%s._data_cache = %s" % (var, dst),
            ]
        if facts:
            facts.clear()
        silent = getattr(cold, "__func__", None) is Strip.simple_action
        short = [] if silent else ["    %s(%%s)" % cx.method(cold)]
        return lambda var, pad, exitstmt: [
            pad + "if len(%s._buf) - %s._data_offset < %d:" % (var, var, n),
            *[pad + line % var for line in short],
            pad + "    " + exitstmt,
            pad + "%s._data_offset += %d" % (var, n),
            pad + "c = %s._data_cache" % var,
            pad + "%s._data_cache = c[%d:] if c is not None else None" % (var, n),
        ]


@register
class RatedSource(Element):
    """A scheduled source that emits at a bounded average rate: at most
    ``rate`` packets per ``run_task`` invocation-second, implemented as
    a token bucket refilled by the scheduler's notion of time (one tick
    per task invocation)."""

    class_name = "RatedSource"
    processing = "h/h"
    port_counts = "0/1"
    TICK_SECONDS = 1e-3  # one scheduler pass models a millisecond
    STATE = {"emitted": ("carry", "sum"), "_credit": ("carry", "first")}

    def configure(self, args):
        if len(args) > 3:
            raise ConfigError("RatedSource(DATA, RATE, LIMIT)")
        data = args[0] if len(args) > 0 and args[0] else "Rated data."
        if data.startswith('"') and data.endswith('"'):
            data = data[1:-1]
        self.data = data.encode("utf-8", "surrogateescape")
        self.rate = float(args[1]) if len(args) > 1 and args[1] else 10.0
        self.limit = int(args[2]) if len(args) > 2 and args[2] else -1

    def is_task(self):
        return True

    def run_task(self):
        if self.limit >= 0 and self.emitted >= self.limit:
            return False
        self._credit = min(self._credit + self.rate * self.TICK_SECONDS, self.rate)
        sent = 0
        while self._credit >= 1.0:
            if self.limit >= 0 and self.emitted >= self.limit:
                break
            self.emitted += 1
            self._credit -= 1.0
            sent += 1
            self.output(0).push(Packet(self.data))
        return sent > 0


@register
class PaintSwitch(Element):
    """Routes each packet to the output numbered by its paint
    annotation; out-of-range paints are dropped."""

    class_name = "PaintSwitch"
    processing = "h/h"
    port_counts = "1/-"
    STATE = {"drops": ("carry", "sum")}

    def push(self, port, packet):
        if 0 <= packet.paint < self.noutputs:
            self.output(packet.paint).push(packet)
        else:
            self.drops += 1


@register
class CheckLength(Element):
    """Packets longer than the configured maximum leave on output 1 (or
    are dropped when it doesn't exist)."""

    class_name = "CheckLength"
    processing = "a/ah"
    port_counts = "1/1-2"
    STATE = {"drops": ("carry", "sum")}

    def configure(self, args):
        if len(args) != 1:
            raise ConfigError("CheckLength(MAX)")
        self.max_length = int(args[0])

    def push(self, port, packet):
        if len(packet) <= self.max_length:
            self.output(0).push(packet)
        elif self.noutputs > 1:
            self.output(1).push(packet)
        else:
            self.drops += 1

    def pull(self, port):
        packet = self.input(0).pull()
        if packet is None:
            return None
        if len(packet) <= self.max_length:
            return packet
        if self.noutputs > 1:
            self.output(1).push(packet)
        else:
            self.drops += 1
        return None


@register
class Unstrip(Element):
    """Restores bytes at the front of the packet (from headroom)."""

    class_name = "Unstrip"
    processing = "a/a"
    port_counts = "1/1"

    def configure(self, args):
        if len(args) != 1:
            raise ConfigError("Unstrip needs a byte count")
        self.nbytes = int(args[0])

    def simple_action(self, packet):
        if packet.headroom < self.nbytes:
            return None
        # Expose previously-stripped bytes without rewriting them.  The
        # cached data view (if any) reflects the old offset and must be
        # dropped, or downstream readers see the stripped payload.
        packet._data_offset -= self.nbytes
        packet._data_cache = None
        return packet

    def segment(self, cold, cx):
        """The headroom test, the offset move and the cached contents'
        drop in line.  The contents grow at the front, so ``data`` and
        ``min_len`` go, and ``ip_hl`` (measured from the old origin)
        with them.  A known ``off`` at least ``nbytes`` folds the test
        away and moves back with the data; a packet without the
        headroom is dropped silently, as Unstrip proper does."""
        n, facts = self.nbytes, cx.facts
        off = facts.pop("off", None) if facts else None
        if facts:
            for fact in ("data", "min_len", "ip_hl"):
                facts.pop(fact, None)
        if off is not None and off >= n:
            facts["off"] = off - n
            return lambda var, pad, exitstmt: [
                pad + "%s._data_offset = %d" % (var, off - n),
                pad + "%s._data_cache = None" % var,
            ]
        return lambda var, pad, exitstmt: [
            pad + "if %s._data_offset < %d:" % (var, n),
            pad + "    " + exitstmt,
            pad + "%s._data_offset -= %d" % (var, n),
            pad + "%s._data_cache = None" % var,
        ]
