"""Harness-side spans: name, start, end, parent, workload.

Spans are recorded around the calls *into* each layer, from outside the
program, kept in memory and written out when the run ends.  A span's
self time is its duration minus the part of that interval its children
cover (children may overlap each other; the covered part is their
union, clipped to the parent)."""

import json
import time
from contextlib import contextmanager


class Tracer:
    """An in-memory span recorder.  When ``enabled`` is false,
    :meth:`span` costs one attribute test and records nothing."""

    def __init__(self, workload, enabled=True, clock=time.perf_counter):
        self.workload = workload
        self.enabled = enabled
        self.spans = []  # [name, start, end, parent index or None]
        self._stack = []
        self._clock = clock

    @contextmanager
    def span(self, name):
        if not self.enabled:
            yield None
            return
        index = len(self.spans)
        record = [name, self._clock(), None, self._stack[-1] if self._stack else None]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield index
        finally:
            record[2] = self._clock()
            self._stack.pop()

    def add(self, name, start, end, parent=None):
        """Record a span measured elsewhere (a pass time taken from a
        report) under ``parent`` (default: the currently open span)."""
        if not self.enabled:
            return None
        if parent is None and self._stack:
            parent = self._stack[-1]
        self.spans.append([name, start, end, parent])
        return len(self.spans) - 1

    def self_times(self):
        """Self time of every closed span, by span index."""
        children = {}
        for index, (_, start, end, parent) in enumerate(self.spans):
            if parent is not None and end is not None:
                children.setdefault(parent, []).append((start, end))
        result = {}
        for index, (_, start, end, _parent) in enumerate(self.spans):
            if end is None:
                continue
            covered = _covered(children.get(index, ()), start, end)
            result[index] = (end - start) - covered
        return result

    def self_time_by_name(self):
        totals = {}
        for index, seconds in self.self_times().items():
            name = self.spans[index][0]
            totals[name] = totals.get(name, 0.0) + seconds
        return totals

    def duration_by_name(self):
        totals = {}
        for name, start, end, _parent in self.spans:
            if end is not None:
                totals[name] = totals.get(name, 0.0) + (end - start)
        return totals

    def as_dict(self):
        return {
            "workload": self.workload,
            "spans": [
                {"id": index, "name": name, "start": start, "end": end,
                 "parent": parent, "workload": self.workload}
                for index, (name, start, end, parent) in enumerate(self.spans)
            ],
            "self_seconds_by_name": dict(sorted(self.self_time_by_name().items())),
        }

    def write(self, path):
        with open(path, "w") as handle:
            json.dump(self.as_dict(), handle, indent=1)
            handle.write("\n")


def _covered(intervals, low, high):
    """Length of the union of ``intervals`` clipped to [low, high]."""
    total = 0.0
    reach = low
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total
