"""Tests for the command-line tool entry points — the Unix-filter
convention the paper's tools follow."""

import os

import pytest

from repro.core import cli
from repro.core.toolchain import load_config
from repro.lang.archive import is_archive

ROUTER = """
feeder :: Idle; feeder -> c;
c :: Classifier(12/0800, -);
c [0] -> Counter -> q :: Queue(64) -> u :: Unqueue -> Discard;
c [1] -> Discard;
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "router.click"
    path.write_text(ROUTER)
    return str(path)


def run_filter(main, config_file, tmp_path, extra=()):
    out_path = str(tmp_path / "out.click")
    code = main([config_file, "-o", out_path, *extra])
    assert code == 0
    with open(out_path) as handle:
        return handle.read()


class TestFilters:
    def test_fastclassifier_main(self, config_file, tmp_path):
        output = run_filter(cli.fastclassifier_main, config_file, tmp_path)
        assert is_archive(output)
        graph = load_config(output)
        assert graph.elements["c"].class_name == "FastClassifier@@c"

    def test_devirtualize_main(self, config_file, tmp_path):
        output = run_filter(cli.devirtualize_main, config_file, tmp_path)
        graph = load_config(output)
        assert graph.elements["c"].class_name.startswith("Devirtualize@@")

    def test_devirtualize_exclusion_flag(self, config_file, tmp_path):
        output = run_filter(
            cli.devirtualize_main, config_file, tmp_path, extra=["-n", "c"]
        )
        graph = load_config(output)
        assert graph.elements["c"].class_name == "Classifier"

    def test_xform_main_with_standard_patterns(self, tmp_path):
        from repro.configs.iprouter import ip_router_config

        path = tmp_path / "ip.click"
        path.write_text(ip_router_config())
        output = run_filter(cli.xform_main, str(path), tmp_path)
        graph = load_config(output)
        assert graph.elements_of_class("IPInputCombo")

    def test_xform_pattern_file(self, config_file, tmp_path):
        pattern_file = tmp_path / "patterns.click"
        pattern_file.write_text(
            "input -> c :: Counter -> output;\n%%\n"
            "input -> t :: Tee(1) -> output;\n"
        )
        output = run_filter(
            cli.xform_main, config_file, tmp_path, extra=["-p", str(pattern_file)]
        )
        graph = load_config(output)
        assert not graph.elements_of_class("Counter")
        assert graph.elements_of_class("Tee")

    def test_undead_main(self, tmp_path):
        path = tmp_path / "dead.click"
        path.write_text(
            "s :: InfiniteSource; sw :: StaticSwitch(0); live :: Counter; dead :: Counter;"
            "s -> sw; sw [0] -> live -> Discard; sw [1] -> dead -> Discard;"
        )
        output = run_filter(cli.undead_main, str(path), tmp_path)
        graph = load_config(output)
        assert "dead" not in graph.elements
        assert not graph.elements_of_class("StaticSwitch")

    def test_align_main(self, tmp_path):
        path = tmp_path / "align.click"
        path.write_text(
            "pd :: PollDevice(eth0) -> Strip(14) -> chk :: CheckIPHeader"
            " -> q :: Queue -> ToDevice(eth0);"
        )
        output = run_filter(cli.align_main, str(path), tmp_path)
        graph = load_config(output)
        assert graph.elements_of_class("Align")
        assert graph.elements_of_class("AlignmentInfo")

    def test_flatten_main(self, tmp_path):
        path = tmp_path / "compound.click"
        path.write_text(
            "elementclass W { input -> c :: Counter -> output; }"
            "f :: Idle; w :: W; f -> w -> Discard;"
        )
        output = run_filter(cli.flatten_main, str(path), tmp_path)
        graph = load_config(output)
        assert not graph.element_classes
        assert "w/c" in graph.elements

    def test_mkmindriver_main(self, config_file, tmp_path):
        output = run_filter(cli.mkmindriver_main, config_file, tmp_path)
        graph = load_config(output)
        assert "mindriver.manifest" in graph.archive

    def test_pretty_main(self, config_file, tmp_path):
        output = run_filter(cli.pretty_main, config_file, tmp_path)
        assert output.startswith("<!DOCTYPE html>")
        assert "Classifier" in output


class TestOptimizeMain:
    """click-optimize: one command for the whole pass pipeline."""

    def test_paper_pipeline_matches_chained_clis(self, tmp_path):
        """`click-optimize --pipeline paper` output is byte-identical to
        the four-stage shell pipe of the individual tools."""
        from repro.configs.iprouter import ip_router_config

        path = tmp_path / "ip.click"
        path.write_text(ip_router_config())
        stage = str(path)
        for index, main in enumerate(
            (cli.fastclassifier_main, cli.xform_main, cli.undead_main,
             cli.align_main, cli.devirtualize_main)
        ):
            out = str(tmp_path / ("stage%d.click" % index))
            assert main([stage, "-o", out]) == 0
            stage = out
        chained = open(stage).read()

        optimized_path = str(tmp_path / "optimized.click")
        assert cli.optimize_main(
            [str(path), "--pipeline", "paper", "-o", optimized_path]
        ) == 0
        assert open(optimized_path).read() == chained

    def test_devices_resolve_on_already_optimized_input(self, tmp_path):
        """The ``paper`` pipeline names device elements by generated
        classes (``Devirtualize@@...``), so its output as *input* has no
        declaration of class ``PollDevice`` or ``ToDevice``: every tool
        that lists a configuration's devices resolves classes the way
        the router build does (``repro.runtime.device_names_of``)."""
        import json

        from repro.configs.iprouter import ip_router_config
        from repro.core.driver import run_config
        from repro.verify.oracle import device_names

        source = tmp_path / "ip.click"
        source.write_text(ip_router_config())
        optimized = str(tmp_path / "optimized.click")
        assert cli.optimize_main([str(source), "-o", optimized]) == 0
        text = open(optimized).read()
        assert "Devirtualize@@" in text
        assert device_names(text) == device_names(ip_router_config()) == ["eth0", "eth1"]
        _router, devices = run_config(text, iterations=1)  # click-run
        assert sorted(devices) == ["eth0", "eth1"]
        report_path = str(tmp_path / "report.json")
        assert cli.optimize_main(
            [optimized, "--pipeline", "cleanup", "-o", os.devnull,
             "--fast", "--workers", "2", "--report", report_path]
        ) == 0
        shard = json.load(open(report_path))["fastpath"]["shard"]
        assert shard["workers"] == 2 and shard["runs"] == 1

    def test_report_json_covers_all_five_passes(self, tmp_path):
        import json

        from repro.configs.iprouter import ip_router_config

        path = tmp_path / "ip.click"
        path.write_text(ip_router_config())
        report_path = str(tmp_path / "report.json")
        code = cli.optimize_main(
            [str(path), "-o", str(tmp_path / "out.click"), "--report", report_path]
        )
        assert code == 0
        report = json.load(open(report_path))
        assert report["pipeline"] == "paper"
        assert [entry["name"] for entry in report["passes"]] == [
            "fastclassifier", "xform", "undead", "align", "devirtualize",
        ]
        for entry in report["passes"]:
            assert entry["seconds"] > 0
            assert entry["elements_delta"] == (
                entry["elements_after"] - entry["elements_before"]
            )

    def test_report_dash_goes_to_stderr(self, config_file, capsys):
        assert cli.optimize_main([config_file, "-o", os.devnull, "--report", "-"]) == 0
        captured = capsys.readouterr()
        assert '"pipeline": "paper"' in captured.err

    def test_validate_flag(self, config_file):
        assert cli.optimize_main([config_file, "-o", os.devnull, "--validate"]) == 0

    def test_list_pipelines(self, capsys):
        assert cli.optimize_main(["--list-pipelines"]) == 0
        out = capsys.readouterr().out
        assert "paper" in out and "fastclassifier -> xform" in out

    def test_unknown_pipeline_errors(self, config_file):
        import pytest as _pytest

        with _pytest.raises(ValueError, match="unknown pipeline"):
            cli.optimize_main([config_file, "--pipeline", "turbo"])

    def test_every_filter_accepts_report(self, config_file, tmp_path):
        """--report FILE works on the single-tool CLIs too."""
        import json

        for main, name in (
            (cli.fastclassifier_main, "fastclassifier"),
            (cli.devirtualize_main, "devirtualize"),
            (cli.xform_main, "xform"),
            (cli.undead_main, "undead"),
            (cli.align_main, "align"),
            (cli.flatten_main, "flatten"),
            (cli.mkmindriver_main, "mkmindriver"),
        ):
            report_path = str(tmp_path / (name + ".json"))
            code = main(
                [config_file, "-o", str(tmp_path / (name + ".click")),
                 "--report", report_path]
            )
            assert code == 0
            report = json.load(open(report_path))
            assert [entry["name"] for entry in report["passes"]] == [name]


class TestCheckMain:
    def test_clean_config_exits_zero(self, config_file):
        assert cli.check_main([config_file]) == 0

    def test_broken_config_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "bad.click"
        path.write_text("f :: Idle; x :: NoSuchClass; f -> x;")
        assert cli.check_main([str(path)]) == 1
        assert "NoSuchClass" in capsys.readouterr().err


class TestCombineMains:
    def test_combine_then_uncombine(self, tmp_path):
        from repro.configs.iprouter import two_router_network
        from repro.core.toolchain import save_config

        routers, _, _ = two_router_network()
        path_a = tmp_path / "a.click"
        path_b = tmp_path / "b.click"
        path_a.write_text(save_config(routers["A"]))
        path_b.write_text(save_config(routers["B"]))
        combined_path = str(tmp_path / "combined.click")
        code = cli.combine_main(
            [
                "-r", "A=%s" % path_a, "-r", "B=%s" % path_b,
                "-l", "A.eth1=B.eth0", "-l", "B.eth0=A.eth1",
                "-o", combined_path,
            ]
        )
        assert code == 0
        combined = load_config(open(combined_path).read())
        assert combined.elements_of_class("RouterLink")

        out_path = str(tmp_path / "a_back.click")
        assert cli.uncombine_main(["A", combined_path, "-o", out_path]) == 0
        extracted = load_config(open(out_path).read())
        assert sorted(d.config for d in extracted.elements_of_class("ToDevice")) == [
            "eth0", "eth1",
        ]

    def test_pipeline_of_filters(self, config_file, tmp_path):
        """fastclassifier | xform | devirtualize as file-to-file stages."""
        stage1 = run_filter(cli.fastclassifier_main, config_file, tmp_path)
        path1 = tmp_path / "s1.click"
        path1.write_text(stage1)
        stage2 = run_filter(cli.xform_main, str(path1), tmp_path)
        path2 = tmp_path / "s2.click"
        path2.write_text(stage2)
        final = run_filter(cli.devirtualize_main, str(path2), tmp_path)
        graph = load_config(final)
        assert graph.elements["c"].class_name.startswith("Devirtualize@@")
        # Both generated-code members are present, in chain order.
        members = list(graph.archive)
        assert any(m.startswith("fastclassifier") for m in members)
        assert any(m.startswith("devirtualize") for m in members)
