"""Unit tests for the compiled runtime fast path (repro.runtime.fastpath).

These cover the compiler's mechanics — chain generation, the compile
report, install/uninstall port swapping, source dumping, and the CLI
surface.  Behavioural equivalence against the reference interpreter
lives in tests/integration/test_fastpath_equivalence.py.
"""

import io

import pytest

from repro.runtime.codegen_cache import default_cache
from repro.runtime.fastpath import ChainInfo, FastInputPort, FastOutputPort, FastPath
from repro.sim.testbed import Testbed


def build(variant="base", mode="reference", batch=False):
    testbed = Testbed(2)
    graph = testbed.variant_graph(variant)
    return testbed, testbed.build_router(graph, mode=mode, batch=batch)


def compile_fastpath(router, batch=False):
    """Compile the router's static chains without installing them."""
    return FastPath(router, batch=batch, cache=default_cache())


class TestCompileReport:
    def test_chains_and_specialization_counted(self):
        _, (router, _) = build()
        fastpath = compile_fastpath(router)
        report = fastpath.report
        assert report.push_chains > 0
        assert report.pull_chains > 0
        assert report.inlined_calls > 0
        assert report.inlined_elements
        assert report.longest_chain >= 1
        # The IP router has classifiers and a route table: branch
        # dispatch and terminal specialization must both engage.
        assert report.branch_elements > 0
        assert report.branch_ports > report.branch_elements
        assert report.specialized_terminals > 0
        assert report.specialized_actions > 0
        assert report.metered is False

    def test_elision_counted_on_optimized_variant(self):
        # GetIPAddress(16) directly after CheckIPHeader is redundant —
        # the check already interns the destination annotation.
        _, (router, _) = build("base")
        report = compile_fastpath(router).report
        assert report.elided_elements > 0

    def test_report_formats(self):
        _, (router, _) = build("simple")
        report = compile_fastpath(router).report
        text = report.format()
        assert "push chains" in text
        as_dict = report.as_dict()
        assert as_dict["push_chains"] == report.push_chains
        assert "push_chains" in report.to_json()

    def test_batch_flag_recorded(self):
        _, (router, _) = build("simple")
        assert compile_fastpath(router, batch=True).report.batch is True

    def test_metered_compile_disables_specialization(self):
        from repro.sim.cpu import CycleMeter

        testbed = Testbed(2)
        router, _ = testbed.build_router(testbed.variant_graph("base"), meter=CycleMeter())
        report = compile_fastpath(router).report
        assert report.metered is True
        # Metered chains reconcile charges exactly, so no handler is
        # compiled away from the cost model's sight.
        assert report.specialized_actions == 0
        assert report.elided_elements == 0


class TestGeneratedSource:
    def test_source_is_dumpable_python(self):
        _, (router, _) = build()
        fastpath = compile_fastpath(router)
        assert "def _push_0" in fastpath.source
        assert fastpath.report.source_lines == len(fastpath.source.splitlines())
        sink = io.StringIO()
        fastpath.dump(sink)
        assert sink.getvalue() == fastpath.source
        compile(fastpath.source, "<fastpath>", "exec")

    def test_chain_at_a_time_compile_keeps_module_line_numbers(self):
        # The module is compiled one chain at a time (compile_chain: a
        # whole-module compile sets the process's memory high-water
        # mark); tracebacks must still point into fastpath.source.
        import traceback

        _, (router, _) = build()
        fastpath = compile_fastpath(router)
        lines = fastpath.source.split("\n")
        assert all(chain.code is not None for chain in fastpath.chains.values())
        report = fastpath.report
        # (the process-wide cache may hold the module, or its text)
        assert report.compiled_units in (0, len(fastpath.chains))
        for function, _batch in fastpath._compiled.values():
            first = lines[function.__code__.co_firstlineno - 1]
            assert first.startswith("def %s(" % function.__name__)
        with pytest.raises(AttributeError) as raised:
            fastpath.function_for(("push", "PollDevice@2", 0))(None)
        frame = traceback.extract_tb(raised.tb)[-1]
        assert lines[frame.lineno - 1].strip() == "data = packet._data_cache"

    def test_chain_for_describes_edges(self):
        _, (router, _) = build("simple")
        fastpath = compile_fastpath(router)
        (kind, name, port) = next(iter(fastpath.chains))
        info = fastpath.chain_for(kind, name, port)
        assert isinstance(info, ChainInfo)
        assert info.describe()
        assert fastpath.chain_for("push", "no-such-element", 0) is None


class TestInstallUninstall:
    def test_roundtrip_restores_reference_ports(self):
        _, (router, _) = build()
        before = {
            name: (list(el._output_ports), list(el._input_ports))
            for name, el in router.elements.items()
        }
        fastpath = compile_fastpath(router)
        fastpath.install()
        assert fastpath.installed
        assert any(
            isinstance(port, FastOutputPort)
            for el in router.elements.values()
            for port in el._output_ports
        )
        assert any(
            isinstance(port, FastInputPort)
            for el in router.elements.values()
            for port in el._input_ports
        )
        fastpath.uninstall()
        assert not fastpath.installed
        after = {
            name: (list(el._output_ports), list(el._input_ports))
            for name, el in router.elements.items()
        }
        for name in before:
            assert before[name][0] == after[name][0], name
            assert before[name][1] == after[name][1], name

    def test_install_is_idempotent(self):
        _, (router, _) = build("simple")
        fastpath = compile_fastpath(router)
        fastpath.install()
        ports = {name: el._output_ports for name, el in router.elements.items()}
        fastpath.install()
        for name, el in router.elements.items():
            assert el._output_ports is ports[name]
        fastpath.uninstall()
        fastpath.uninstall()

    def test_configure_switches_ports(self):
        from repro.runtime import ExecutionProfile

        _, (router, _) = build("simple")
        router.configure(ExecutionProfile.fast())
        fastpath = router.fastpath
        assert fastpath.installed
        router.configure(ExecutionProfile.reference())
        assert not fastpath.installed and router.fastpath is None
        assert not any(
            isinstance(port, FastOutputPort)
            for el in router.elements.values()
            for port in el._output_ports
        )


class TestConstruction:
    def test_router_mode_argument_compiles_at_build(self):
        _, (router, _) = build(mode="fast", batch=True)
        assert isinstance(router.fastpath, FastPath)
        assert router.fastpath.installed
        assert router.fastpath.batch is True

    def test_router_keeps_caller_devices_mapping(self):
        # Regression: an *empty* mapping (e.g. an auto-populating dict
        # subclass) must be kept, not replaced with a fresh {}.
        from repro.elements.runtime import Router
        from repro.graph.router import RouterGraph

        devices = {}
        router = Router(RouterGraph(), devices=devices)
        assert router.devices is devices


class TestOptimizeCliFast:
    def test_fast_flag_prints_compile_report(self, tmp_path, capsys):
        from repro.configs.iprouter import ip_router_config
        from repro.core.cli import optimize_main

        config = tmp_path / "ip.click"
        config.write_text(ip_router_config())
        out = tmp_path / "out.click"
        rc = optimize_main(["--pipeline", "paper", "--fast", str(config), "-o", str(out)])
        assert rc == 0
        assert out.read_text()
        captured = capsys.readouterr()
        assert "fast path:" in captured.err
        assert "push chains" in captured.err
