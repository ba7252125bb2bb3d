"""The sharded coordinator resolves every update once, into a GraphDelta:
text by re-parsing only the statements an edit touched
(repro.lang.region) when the edit can only rewrite configuration
strings, by the full parse otherwise.  The full parse is the semantics,
so the short cut must agree with it on every edit it takes, and must
never swallow an error the full parse raises."""

import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.configs.firewall import firewall_config
from repro.configs.iprouter import ip_router_config
from repro.core.toolchain import load_config, save_config
from repro.elements.devices import LoopbackDevice
from repro.graph.diff import diff_graphs
from repro.lang.region import parse_with_ends, reparse_edit
from repro.runtime import ExecutionProfile, ShardedRouter
from repro.runtime.shard import device_names_of
from repro.verify.genconfig import generate_case

#: Characters and tokens that change how the text around them lexes,
#: plus a few that only change a configuration string.
FRAGMENTS = [
    "(", ")", '"', "\\", "//", "/*", "*/", ";", "::", "->", "[0]", "\n",
    "elementclass", " ", ",", "1", "x", "Counter", "q :: Queue(3);",
]

TEXTS = {
    "iprouter": ip_router_config(),
    "firewall": firewall_config(),
    "genconfig-0": generate_case(5, 0)["config"],
    "genconfig-1": generate_case(5, 1)["config"],
    "genconfig-2": generate_case(5, 2)["config"],
    # Statements that share a line, so a "//" can swallow the next.
    "iprouter-one-line": save_config(load_config(ip_router_config())).replace("\n", " "),
}

#: Where edits are drawn near, besides anywhere: the start of each
#: declared configuration string (where the region re-parse applies)
#: and each statement's closing ``;`` (where an edit can swallow it).
ANCHORS = {
    name: {
        "config": [m.end() for m in re.finditer(r"::\s*[A-Za-z_@][\w@/]*\(", text)],
        "end": parse_with_ends(text)[1],
    }
    for name, text in TEXTS.items()
}

_PLANES = {}


def plane_for(name):
    """A started 2-worker thread plane born from ``TEXTS[name]``, its
    committed text that very text (so the region re-parse applies)."""
    plane = _PLANES.get(name)
    if plane is None:
        text = TEXTS[name]
        graph = load_config(text)
        devices = {device: LoopbackDevice(device) for device in device_names_of(graph)}
        plane = ShardedRouter(
            graph,
            devices=devices,
            profile=ExecutionProfile.fast().with_workers(2, "thread"),
            journal=True,
        )
        plane.run_tasks(1)
        plane._commit(plane._resolve(text))
        assert plane._ends is not None
        _PLANES[name] = plane
    return plane


@pytest.fixture(scope="module", autouse=True)
def _close_planes():
    yield
    for plane in _PLANES.values():
        plane.close()
    _PLANES.clear()


@st.composite
def edits(draw):
    """``(base name, old text, new text)``: one insertion, deletion or
    replacement at a drawn position."""
    name = draw(st.sampled_from(sorted(TEXTS)))
    old = TEXTS[name]
    near = draw(st.sampled_from(["anywhere", "config", "end"]))
    if near == "anywhere":
        position = draw(st.integers(min_value=0, max_value=len(old)))
    elif near == "config":
        anchor = draw(st.sampled_from(ANCHORS[name]["config"]))
        position = min(len(old), anchor + draw(st.integers(min_value=0, max_value=24)))
    else:
        anchor = draw(st.sampled_from(ANCHORS[name]["end"]))
        position = max(0, anchor - draw(st.integers(min_value=0, max_value=2)))
    kind = draw(st.sampled_from(["insert", "delete", "replace"]))
    removed = 0 if kind == "insert" else draw(st.integers(min_value=1, max_value=12))
    inserted = ""
    if kind != "delete":
        inserted = "".join(draw(st.lists(st.sampled_from(FRAGMENTS), min_size=1, max_size=3)))
    return name, old, old[:position] + inserted + old[position + removed :]


def full_parse(text):
    """``(delta against the base, None)`` or ``(None, exception)``."""
    try:
        return load_config(text, "<update>"), None
    except Exception as exc:  # noqa: BLE001 - the canonical error
        return None, exc


def check_agrees(name, old, new):
    """The coordinator's resolve of ``new`` either falls back, or gives
    the full parse's delta and statement ends."""
    resolved = plane_for(name)._edited(new)
    graph, error = full_parse(new)
    if error is not None:
        assert resolved is None
        return
    if resolved is not None:
        expected = diff_graphs(load_config(old), graph)
        assert resolved.delta.as_dict() == expected.as_dict()
        assert resolved.ends == parse_with_ends(new)[1]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(edits())
def test_region_reparse_agrees_with_the_full_parse(edit):
    check_agrees(*edit)


@pytest.mark.parametrize(
    "removed, inserted",
    [(0, "//"), (0, "/*"), (0, '"'), (0, "("), (0, "\\"), (0, " q :: Queue(3)"), (1, "")],
)
def test_an_edit_at_any_statement_end_agrees(removed, inserted):
    """At each ``;`` of a text whose statements share a line: a comment
    or string opened there swallows the next statement, a declaration
    joins the statement, a deleted ``;`` joins two."""
    name = "iprouter-one-line"
    old = TEXTS[name]
    for end in ANCHORS[name]["end"]:
        check_agrees(name, old, old[:end] + inserted + old[end + removed :])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(edits())
def test_a_rejected_text_touches_no_shard(edit):
    """Wherever the full parse raises, ``apply_update`` raises the same
    error before any command reaches a shard."""
    name, _old, new = edit
    _graph, error = full_parse(new)
    if error is None:
        return
    plane = plane_for(name)
    graph, journals = plane.graph, [list(journal) for journal in plane._journals]
    sent = []
    plane._send = lambda shard, cmd: sent.append(cmd)
    try:
        with pytest.raises(type(error)) as raised:
            plane.apply_update(new)
    finally:
        del plane._send
    assert str(raised.value) == str(error)
    assert sent == []
    assert plane.graph is graph
    assert [list(journal) for journal in plane._journals] == journals


class TestRegionReparse:
    OLD = "a :: Counter; b :: Queue(5); a -> b; c :: Discard; b -> c;"

    def ends(self, text):
        return parse_with_ends(text)[1]

    def test_a_configuration_edit_parses_one_statement(self):
        new = self.OLD.replace("Queue(5)", "Queue(7)")
        pairs, ends = reparse_edit(self.OLD, self.ends(self.OLD), new)
        assert [(old.config, new.config) for old, new in pairs] == [("5", "7")]
        assert ends == self.ends(new)

    def test_a_renamed_declaration_falls_back(self):
        new = self.OLD.replace("b :: Queue(5)", "d :: Queue(5)")
        assert reparse_edit(self.OLD, self.ends(self.OLD), new) is None

    def test_a_connection_in_the_region_falls_back(self):
        new = self.OLD.replace("a -> b;", "a -> c;")
        assert reparse_edit(self.OLD, self.ends(self.OLD), new) is None

    def test_a_comment_that_swallows_the_closing_semicolon_falls_back(self):
        # "//" before the ";" ends the line comment past the region.
        new = self.OLD.replace("Queue(5);", "Queue(5)//;")
        assert reparse_edit(self.OLD, self.ends(self.OLD), new) is None

    def test_an_unterminated_string_raises(self):
        new = self.OLD.replace("Queue(5)", 'Queue("5)')
        with pytest.raises(Exception):
            reparse_edit(self.OLD, self.ends(self.OLD), new)


class TestCoordinatorResolve:
    def test_route_updates_after_the_first_skip_the_full_parse(self, monkeypatch):
        """The first text update is parsed whole (the plane was born from
        a graph, so it has no text to compare with); every later route
        edit takes the region re-parse."""
        from repro.lang import region

        plane = plane_for("iprouter")
        text = plane._text
        old = plane.graph.elements["rt"].config
        calls = []
        full = region.parse_with_ends
        monkeypatch.setattr(
            region, "parse_with_ends", lambda *args: calls.append(args) or full(*args)
        )
        resolved = plane._resolve(text.replace(old, old + ", 3.0.0.0/8 1"))
        assert calls == []
        assert [change.name for change in resolved.delta.changed] == ["rt"]
        assert not resolved.delta.structural

    def test_a_structural_text_update_takes_the_full_parse(self):
        plane = plane_for("iprouter")
        resolved = plane._resolve(plane._text.replace("rt ::", "spare :: Idle; rt ::", 1))
        assert resolved.delta.added == [("spare", "Idle", None)]
        assert resolved.ends is not None


def test_workers_never_parse_an_update(monkeypatch):
    """Route updates, a structural update, a hot-swap and a rollback: no
    worker thread elaborates a configuration (every parse that builds a
    graph goes through ``build_graph``), whatever the coordinator does."""
    import threading

    from repro.lang import build, region
    from tests.runtime.test_shard import drive, sharded_testbed

    testbed, router, devices = sharded_testbed(2, "thread", journal=True)
    try:
        drive(testbed, router, devices, 32)
        elaborations = []
        elaborate = build.build_graph

        def recorded(*args, **kwargs):
            elaborations.append(threading.current_thread().name)
            return elaborate(*args, **kwargs)

        monkeypatch.setattr(build, "build_graph", recorded)
        monkeypatch.setattr(region, "build_graph", recorded)
        text = save_config(router.graph)
        routes = router.graph.elements["rt"].config
        for extra in ("3.0.0.0/8 1", "4.0.0.0/8 2"):
            assert router.apply_update(text.replace(routes, routes + ", " + extra)).kind == "in-place"
        structural = text.replace("rt ::", "spare :: Idle; rt ::", 1)
        assert router.apply_update(structural).kind == "scoped-swap"
        assert router.hotswap_all(text).kind == "scoped-swap"
        router.crash_worker(1)
        drive(testbed, router, devices, 32, offset=32)
        assert "spare" not in router.graph.elements
        # The coordinator parsed the first and the structural update and
        # the hot-swap whole.
        assert len(elaborations) == 3
        assert not [name for name in elaborations if name.startswith("shard-")]
    finally:
        router.close()
