"""Tests for the pass manager: the unified tool API, pipeline
ordering, inter-pass validation, per-pass observability, fixpoint
iteration, and the deprecation shims."""

import json
import warnings

import pytest

from repro.configs.iprouter import ip_router_config
from repro.core import (
    NAMED_PIPELINES,
    Pass,
    PassError,
    Pipeline,
    PipelineWarning,
    devirtualize,
    fastclassifier,
    named_pipeline,
    undead,
    xform,
)
from repro.core.patterns import STANDARD_PATTERNS
from repro.core.toolchain import load_config, save_config

SMALL = """
feeder :: Idle; feeder -> c;
c :: Classifier(12/0800, -);
c [0] -> Counter -> q :: Queue(64) -> u :: Unqueue -> Discard;
c [1] -> Discard;
"""


@pytest.fixture
def small_graph():
    return load_config(SMALL)


@pytest.fixture
def ip_graph():
    return load_config(ip_router_config(), "<fig4>")


class TestUnifiedToolAPI:
    def test_every_tool_carries_as_pass(self):
        from repro.core import align, flatten, mkmindriver

        for tool in (fastclassifier, devirtualize, xform, undead, align,
                     flatten, mkmindriver):
            pass_ = tool.as_pass()
            assert isinstance(pass_, Pass)
            assert pass_.name == tool.pass_name

    def test_as_pass_binds_options(self, small_graph):
        pass_ = devirtualize.as_pass(exclude=["c"])
        result = pass_(small_graph)
        assert result.elements["c"].class_name == "Classifier"
        assert result.elements["q"].class_name.startswith("Devirtualize@@")

    def test_keyword_form_does_not_warn(self, small_graph):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            devirtualize(small_graph, exclude=["c"])
            xform(small_graph, patterns=STANDARD_PATTERNS)
            fastclassifier(small_graph, combine=False)

    def test_too_many_positionals_raise(self, small_graph):
        with pytest.raises(TypeError):
            undead(small_graph, "extra")

    def test_duplicate_positional_and_keyword_raise(self, small_graph):
        with pytest.raises(TypeError), warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            devirtualize(small_graph, ["c"], exclude=["q"])

    def test_xform_defaults_to_standard_patterns(self, ip_graph):
        assert xform(ip_graph).elements_of_class("IPInputCombo")


class TestPipelineOrdering:
    def test_devirtualize_before_structural_pass_warns(self):
        with pytest.warns(PipelineWarning, match="devirtualize should be the last"):
            Pipeline([devirtualize.as_pass(), xform.as_pass()])

    def test_paper_order_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", PipelineWarning)
            named_pipeline("paper")

    def test_devirtualize_alone_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", PipelineWarning)
            Pipeline([devirtualize.as_pass()])


class TestValidation:
    def test_check_mode_catches_a_breaking_pass(self, small_graph):
        def breaker(graph):
            """Deliberately sever a connection, leaving ports dangling."""
            result = graph.copy()
            result.remove_connection(result.connections[0])
            return result

        pipeline = Pipeline(
            [xform.as_pass(), Pass(breaker, name="breaker"), undead.as_pass()],
            validate="check",
        )
        with pytest.raises(PassError, match="breaker") as excinfo:
            pipeline.run(small_graph)
        assert excinfo.value.pass_name == "breaker"

    def test_clean_pipeline_validates(self, small_graph):
        graph, report = named_pipeline("paper", validate="check").run(small_graph)
        assert len(report) == 5

    def test_crashing_pass_is_named(self, small_graph):
        def crasher(graph):
            """A tool that dies mid-pass."""
            raise RuntimeError("boom")

        with pytest.raises(PassError, match="crasher") as excinfo:
            Pipeline([Pass(crasher, name="crasher")]).run(small_graph)
        assert excinfo.value.pass_name == "crasher"

    def test_bad_validate_mode_rejected(self):
        with pytest.raises(ValueError):
            Pipeline([], validate="nonsense")


class TestReportCounts:
    """Per-pass counts on the Figure 4 IP router (two interfaces),
    checked against the transform arithmetic the paper gives."""

    @pytest.fixture(scope="class")
    def run(self):
        graph = load_config(ip_router_config(), "<fig4>")
        result = named_pipeline("paper").run(graph)
        return graph, result

    def test_pass_names_in_paper_order(self, run):
        _, result = run
        assert [r.name for r in result.report] == [
            "fastclassifier", "xform", "undead", "align", "devirtualize",
        ]

    def test_counts_chain_and_match_the_final_graph(self, run):
        base, result = run
        records = result.report.records
        assert records[0].elements_before == len(base.elements)
        assert records[0].connections_before == len(base.connections)
        for previous, record in zip(records, records[1:]):
            assert record.elements_before == previous.elements_after
            assert record.connections_before == previous.connections_after
        assert records[-1].elements_after == len(result.graph.elements)
        assert records[-1].connections_after == len(result.graph.connections)

    def test_fastclassifier_record(self, run):
        _, result = run
        record = result.report.record("fastclassifier")
        # Repoints the two Classifiers at one shared generated class —
        # no elements or connections appear or disappear.
        assert record.elements_delta == 0
        assert record.connections_delta == 0
        assert record.classes_removed == ("Classifier",)
        assert len(record.classes_added) == 1
        assert record.classes_added[0].startswith("FastClassifier@@")
        assert record.archive_members_added == ("fastclassifier.py",)
        assert record.requirements_added == ("fastclassifier",)

    def test_xform_record(self, run):
        _, result = run
        record = result.report.record("xform")
        # The combo patterns take each interface's forwarding chain from
        # ten elements to two (docs/TOOLS.md §6.2): -8 elements per
        # interface, two interfaces, and the 8 spliced-out elements each
        # take one connection with them.
        assert record.elements_delta == -16
        assert record.connections_delta == -16
        assert "IPInputCombo" in record.classes_added
        assert "IPOutputCombo" in record.classes_added

    def test_undead_record_is_identity(self, run):
        _, result = run
        record = result.report.record("undead")
        # §6.3: none of the IP router's elements are dead code.
        assert record.elements_delta == 0
        assert record.connections_delta == 0
        assert record.classes_added == ()
        assert record.classes_removed == ()

    def test_align_record(self, run):
        _, result = run
        record = result.report.record("align")
        # One Align per interface input path (the IPInputCombo wants
        # 4-aligned IP headers; Ethernet leaves them at 4/2) plus the
        # AlignmentInfo record: +3 elements.  Each Align splits one
        # connection into two (+1 each); AlignmentInfo is unconnected.
        assert record.elements_delta == 3
        assert record.connections_delta == 2
        assert set(record.classes_added) == {"Align", "AlignmentInfo"}

    def test_devirtualize_record(self, run):
        _, result = run
        record = result.report.record("devirtualize")
        # Pure repointing: every sharing class swaps to a generated
        # Devirtualize@@ class, structure untouched.
        assert record.elements_delta == 0
        assert record.connections_delta == 0
        assert record.archive_members_added == ("devirtualize.py",)
        assert all(name.startswith("Devirtualize@@") for name in record.classes_added)
        assert len(record.classes_added) == len(record.classes_removed)

    def test_timings_present(self, run):
        _, result = run
        assert all(record.seconds > 0 for record in result.report)
        assert result.report.total_seconds == pytest.approx(
            sum(r.seconds for r in result.report)
        )

    def test_report_serializes(self, run):
        _, result = run
        decoded = json.loads(result.report.to_json())
        assert decoded["pipeline"] == "paper"
        assert len(decoded["passes"]) == 5
        for entry in decoded["passes"]:
            assert entry["seconds"] > 0
            assert entry["elements_delta"] == (
                entry["elements_after"] - entry["elements_before"]
            )
        table = result.report.to_table()
        for name in ("fastclassifier", "xform", "undead", "align", "devirtualize"):
            assert name in table

    def test_pipeline_output_matches_chained_tools(self, run):
        """The pass manager is observability, not a different compiler:
        its output is byte-identical to running the tools by hand with
        a text round-trip between stages (the CLI-pipe convention)."""
        from repro.core import align, flatten, undead as undead_tool

        base, result = run
        stage = base
        for tool in (fastclassifier, xform, undead_tool, align, devirtualize):
            stage = load_config(save_config(tool(stage)))
        assert save_config(stage) == save_config(result.graph)


class TestFixpoint:
    def test_fixpoint_pass_converges_and_counts_iterations(self, small_graph):
        def shrink(graph):
            """Remove one Counter per application (a one-step-at-a-time
            rewrite the fixpoint driver must iterate)."""
            result = graph.copy()
            for decl in result.elements.values():
                if decl.class_name == "Counter":
                    result.splice_out(decl.name)
                    break
            return result

        pipeline = Pipeline([Pass(shrink, name="shrink", fixpoint=True)])
        graph, report = pipeline.run(small_graph)
        assert not graph.elements_of_class("Counter")
        # One removing application plus the final no-change application.
        assert report.record("shrink").iterations == 2

    def test_divergent_fixpoint_raises(self, small_graph):
        def grow(graph):
            """Never converges: adds a fresh element every time."""
            result = graph.copy()
            result.add_element(None, "Idle")
            return result

        pipeline = Pipeline(
            [Pass(grow, name="grow", fixpoint=True, max_iterations=5)]
        )
        with pytest.raises(PassError, match="fixpoint") as excinfo:
            pipeline.run(small_graph)
        assert excinfo.value.pass_name == "grow"


class TestNamedPipelines:
    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown pipeline"):
            named_pipeline("turbo")

    def test_registry_names(self):
        assert {"paper", "forwarding", "cleanup"} <= set(NAMED_PIPELINES)

    def test_pipeline_is_itself_a_tool(self, small_graph):
        pipeline = named_pipeline("forwarding")
        graph = pipeline(small_graph)
        assert graph.elements["c"].class_name.startswith("Devirtualize@@")
        assert pipeline.last_report is not None
        assert len(pipeline.last_report) == 3

    def test_passes_compose_in_chain(self, small_graph):
        from repro.core import chain

        composed = chain(fastclassifier.as_pass(), devirtualize.as_pass())
        graph = composed(small_graph)
        assert graph.elements["c"].class_name.startswith("Devirtualize@@")
