"""Span self time with nested and overlapping children."""

import pytest

from routerbench.spans import Tracer


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_nested_self_time():
    clock = Clock()
    tracer = Tracer("w", clock=clock)
    with tracer.span("root"):
        clock.now = 1.0
        with tracer.span("child"):
            clock.now = 3.0
            with tracer.span("grandchild"):
                clock.now = 4.0
            clock.now = 5.0
        clock.now = 10.0
    by_name = tracer.self_time_by_name()
    assert by_name == {"root": 6.0, "child": 3.0, "grandchild": 1.0}
    assert sum(by_name.values()) == 10.0
    assert [span[3] for span in tracer.spans] == [None, 0, 1]


def test_overlapping_children_are_counted_once_and_clipped():
    tracer = Tracer("w", clock=Clock())
    root = tracer.add("root", 0.0, 10.0)
    tracer.add("a", 1.0, 5.0, root)
    tracer.add("b", 4.0, 7.0, root)  # overlaps a by one
    tracer.add("c", 9.0, 12.0, root)  # sticks out of the parent by two
    assert tracer.self_times()[root] == pytest.approx(10.0 - (6.0 + 1.0))


def test_disabled_tracer_records_nothing():
    tracer = Tracer("w", enabled=False)
    with tracer.span("root") as index:
        assert index is None
    assert tracer.add("x", 0, 1) is None
    assert tracer.spans == []


def test_trace_file_round_trips(tmp_path):
    import json

    clock = Clock()
    tracer = Tracer("w", clock=clock)
    with tracer.span("root"):
        clock.now = 2.0
    path = tmp_path / "trace.json"
    tracer.write(str(path))
    data = json.loads(path.read_text())
    assert data["spans"] == [
        {"id": 0, "name": "root", "start": 0.0, "end": 2.0, "parent": None, "workload": "w"}
    ]
    assert data["self_seconds_by_name"] == {"root": 2.0}
