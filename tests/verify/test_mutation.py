"""Mutation test: the fuzzer must *catch* bugs, not just pass clean runs.

Deliberately re-inject the Unstrip stale-cache emitter bug (divergence
1 in test_regressions) behind a monkeypatch, then check that the
differential fuzzer finds a divergent case within a few generated cases
and that the delta-debugger shrinks it to a repro of at most five
elements.

The bug goes where each mode runs Unstrip: into ``simple_action``, which
the reference interpreter calls, and into the ``segment`` the chain
compiler emits in its place.  The patched function must be *named*
``simple_action``: a scoped rebuild that splices chains onto another
router re-binds methods by name.
"""

import pytest

from repro.elements.infrastructure import Unstrip
from repro.verify.genconfig import generate_case
from repro.verify.oracle import compare_case
from repro.verify.shrink import element_count, shrink_case


def _buggy_simple_action(self, packet):
    if packet.headroom < self.nbytes:
        return None
    packet._data_offset -= self.nbytes  # bug: stale data cache survives
    return packet


_buggy_simple_action.__name__ = "simple_action"
_segment = Unstrip.segment


def _buggy_segment(self, cold, cx):
    emit = _segment(self, cold, cx)  # the same stage, less its cache drop
    return lambda var, pad, exitstmt: [
        line for line in emit(var, pad, exitstmt) if not line.endswith("._data_cache = None")
    ]


@pytest.fixture
def unstrip_bug(monkeypatch):
    monkeypatch.setattr(Unstrip, "simple_action", _buggy_simple_action)
    monkeypatch.setattr(Unstrip, "segment", _buggy_segment)
    yield
    monkeypatch.undo()


class TestFuzzerCatchesInjectedBug:
    def test_caught_and_shrunk_to_five_elements(self, unstrip_bug):
        caught = None
        for index in range(10):
            case = generate_case(7, index)
            result = compare_case(case)
            if result["status"] == "divergence":
                caught = (case, result)
                break
        assert caught is not None, "injected bug escaped 10 generated cases"
        case, result = caught
        kinds = {d["kind"] for d in result["divergences"]}
        assert "transmitted" in kinds, result

        shrunk = shrink_case(case)
        assert element_count(shrunk) <= 5, shrunk["config"]
        assert len(shrunk["events"]) <= len(case["events"])
        # The minimized case must still reproduce the divergence.
        assert compare_case(shrunk)["status"] == "divergence"

    def test_regression_repro_flags_the_bug(self, unstrip_bug):
        """The shrunken repro in test_regressions catches the re-injected
        bug directly — that is what makes it a regression test."""
        from .test_regressions import unstrip_repro_case

        result = compare_case(unstrip_repro_case())
        assert result["status"] == "divergence"
        assert {d["mode"] for d in result["divergences"]} >= {"fast", "batch"}
