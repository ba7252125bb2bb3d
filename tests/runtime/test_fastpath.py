"""Unit tests for the compiled runtime fast path (repro.runtime.fastpath).

These cover the compiler's mechanics — chain generation, the compile
report, install/uninstall port swapping, source dumping, and the CLI
surface.  Behavioural equivalence against the reference interpreter
lives in tests/integration/test_fastpath_equivalence.py.
"""

import gc
import io
import weakref

import pytest

from repro.classifier.compile import is_pending
from repro.runtime import ExecutionProfile
from repro.runtime import fastpath as fastpath_module
from repro.runtime.codegen_cache import default_cache
from repro.runtime.fastpath import ChainInfo, FastInputPort, FastOutputPort, FastPath
from repro.sim.testbed import Testbed


def build(variant="base", mode="reference", batch=False):
    testbed = Testbed(2)
    graph = testbed.variant_graph(variant)
    return testbed, testbed.build_router(graph, mode=mode, batch=batch)


def compile_fastpath(router, batch=False):
    """Compile the router's static chains without installing them."""
    return FastPath(router, batch=batch)


class TestCompileReport:
    def test_chains_and_specialization_counted(self):
        _, (router, _) = build()
        fastpath = compile_fastpath(router)
        report = fastpath.report
        # a chain is counted when it is emitted: on its first entry
        assert report.push_chains == report.pull_chains == report.specialized_terminals == 0
        fastpath.materialize()
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

    def test_elision_counted_on_optimized_variant(self):
        # GetIPAddress(16) directly after CheckIPHeader is redundant —
        # the check already interns the destination annotation.
        _, (router, _) = build("base")
        fastpath = compile_fastpath(router)
        fastpath.materialize()
        assert fastpath.report.elided_elements > 0

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


class TestGeneratedSource:
    def test_source_is_dumpable_python(self):
        _, (router, _) = build()
        fastpath = compile_fastpath(router)
        assert "\ndef _push(packet" in fastpath.source
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

        default_cache().clear()
        _, (router, _) = build()
        fastpath = compile_fastpath(router)
        lines = fastpath.source.split("\n")
        key = ("push", "PollDevice@2", 0)
        entered_late = FastPath(router)  # its records are its own
        assert entered_late.source == fastpath.source  # inspection lays chains out alike
        assert entered_late.chains[key].code is None
        fastpath.materialize()
        default_cache().clear()  # so the call that raises compiles its chain
        assert all(chain.code is not None for chain in fastpath.chains.values())
        assert fastpath.report.compiled_units == len(fastpath.chains)
        for function, _batch in fastpath._compiled.values():
            first = lines[function.__code__.co_firstlineno - 1]
            assert first.startswith("def %s(" % function.__name__)
        # ... whether the chain was compiled by materialize() or by the
        # call that raises
        for path in (fastpath, entered_late):
            with pytest.raises(AttributeError) as raised:
                path.function_for(key)(None)
            frame = traceback.extract_tb(raised.tb)[-1]
            assert lines[frame.lineno - 1].strip() == "data = packet._data_cache"
        assert entered_late.chains[key].code is not None
        assert entered_late.report.compiled_units == 1

    def test_chain_for_describes_edges(self):
        _, (router, _) = build("simple")
        fastpath = compile_fastpath(router)
        (kind, name, port) = next(iter(fastpath._compiled))
        assert not fastpath.chains
        info = fastpath.chain_for(kind, name, port)
        assert isinstance(info, ChainInfo)
        assert info.describe()
        # inspection emits the record, and compiles and links nothing
        assert fastpath.chains == {(kind, name, port): info} and info.code is None
        assert is_pending(fastpath.function_for((kind, name, port)))
        assert fastpath.report.emitted_units == 1 and fastpath.report.compiled_units == 0
        assert fastpath.chain_for("push", "no-such-element", 0) is None


class TestCompileOnFirstEntry:
    """A chain is emitted and compiled when a packet first enters it;
    the function object every holder has becomes the real one, in
    place."""

    @pytest.mark.parametrize("batch", [False, True])
    def test_holders_keep_the_object_that_becomes_the_chain(self, batch):
        default_cache().clear()
        testbed, (router, devices) = build(mode="fast", batch=batch)
        fastpath = router.fastpath
        # entered by a task unit, by an element's own push, and (the
        # route arms are fused into their callers) by materialize()
        entry, inner, arm = ("push", "PollDevice@2", 0), ("push", "arpq0", 0), ("push", "rt", 1)
        port = router.find("PollDevice@2")._output_ports[0]
        assert not fastpath.chains and fastpath.source  # inspection emits every record
        tables = [table for chain in fastpath.chains.values() for table, element, _mode in chain.tables
                  if element.name == "rt"]
        before = fastpath._compiled[entry] + (fastpath.function_for(inner), tables[0][1])
        assert port.push is before[0] and port.push_batch is before[1]
        assert router.find("arpq0")._output_ports[0].push is before[2]
        assert all(table[1] is fastpath.function_for(arm) for table in tables)
        assert all(is_pending(fn) for fn in before if fn is not None)
        assert fastpath.report.compiled_units == 0
        for name, frame in testbed.evaluation_frames(64):
            devices[name].receive_frame(frame)
        router.run_tasks(64)
        assert sum(len(device.transmitted) for device in devices.values()) == 64
        assert is_pending(tables[0][1])
        fastpath.materialize([arm])
        after = (port.push, port.push_batch, router.find("arpq0")._output_ports[0].push, tables[-1][1])
        assert all(a is b for a, b in zip(after, before))
        assert not any(is_pending(fn) for fn in after if fn is not None)
        assert after[0].__name__ == fastpath.chains[entry].function_name
        assert after[0].__defaults__ is fastpath.chains[entry].defaults
        assert 0 < fastpath.report.compiled_units < len(fastpath.chains)
        assert fastpath.report.compile_seconds > 0

    def test_a_failed_entry_runs_the_reference_port(self, monkeypatch):
        default_cache().clear()
        testbed, (router, devices) = build(mode="fast")
        (reference, reference_devices) = build()[1]
        broken = "# push arpq0 [0] ->"
        real = fastpath_module.compile_chain

        def compile_chain(lines, *args):
            if lines[0].startswith(broken):
                raise SyntaxError("injected emitter bug")
            return real(lines, *args)

        monkeypatch.setattr(fastpath_module, "compile_chain", compile_chain)
        frames = testbed.evaluation_frames(64)
        for run, rx in ((router, devices), (reference, reference_devices)):
            for name, frame in frames:
                rx[name].receive_frame(frame)
            run.run_tasks(64)
        for name, device in devices.items():
            assert device.transmitted == reference_devices[name].transmitted
        assert sum(len(device.transmitted) for device in devices.values()) == 64
        report = router.fastpath.report
        assert report.failed_entries == {"push arpq0[0]": "SyntaxError: injected emitter bug"}
        assert "failed: push arpq0[0] runs its reference port" in report.format()
        assert router.fastpath.chains[("push", "arpq0", 0)].code is None
        with pytest.raises(SyntaxError):  # the eager build still says so
            FastPath(router).materialize()

    def test_a_failed_emission_runs_the_reference_port(self, monkeypatch):
        """A build emits nothing, so an emitter bug shows on a chain's
        first entry, where it is contained as a failed compile is: the
        chain has no record, the report lists it, its frames go through
        its reference port; ``materialize()``, the eager build, raises."""
        default_cache().clear()
        testbed, (router, devices) = build(mode="fast")
        (reference, reference_devices) = build()[1]
        key = ("push", "arpq0", 0)
        real = FastPath._emit_chain

        def emit_chain(self, emitting, *args):
            if emitting == key:
                raise RuntimeError("injected emitter bug")
            return real(self, emitting, *args)

        monkeypatch.setattr(FastPath, "_emit_chain", emit_chain)
        assert not router.fastpath.report.failed_entries  # configure() emitted nothing
        frames = testbed.evaluation_frames(64)
        for run, rx in ((router, devices), (reference, reference_devices)):
            for name, frame in frames:
                rx[name].receive_frame(frame)
            run.run_tasks(64)
        for name, device in devices.items():
            assert device.transmitted == reference_devices[name].transmitted
        assert sum(len(device.transmitted) for device in devices.values()) == 64
        report = router.fastpath.report
        assert report.failed_entries == {"push arpq0[0]": "RuntimeError: injected emitter bug"}
        assert key not in router.fastpath.chains and "push arpq0[0]" not in report.chain_lines
        with pytest.raises(RuntimeError, match="injected emitter bug"):
            FastPath(router).materialize()

    def test_chaos_is_green_when_no_chain_compiles(self, monkeypatch):
        from repro.verify.chaos import main

        def compile_chain(lines, *args):
            raise SyntaxError("injected emitter bug")

        monkeypatch.setattr(fastpath_module, "compile_chain", compile_chain)
        default_cache().clear()
        assert main(["--seed", "7", "--config", "both", "--modes", "fast,fdd"]) == 0

    def test_pending_entries_do_not_keep_a_fast_path_alive(self):
        _, (router, _) = build()
        gc.collect()
        gc.disable()
        try:
            fastpath = FastPath(router)
            fastpath.install()
            with pytest.raises(fastpath_module.FastPathError):
                fastpath.release()
            fastpath.uninstall()
            held = [weakref.ref(fastpath), weakref.ref(fastpath.function_for(("push", "rt", 1)))]
            fastpath.release()
            fastpath.release()  # idempotent
            del fastpath
            assert [ref() for ref in held] == [None, None]
        finally:
            gc.enable()


def _run_digest_configuration(config, profile, early):
    """Build one of the digest configurations (test_fastpath_lowering's
    ``PLAIN_DIGESTS``), materialize every flavor before the traffic
    (``early``) or after it, and return every chain function's bytecode
    and the wire."""
    from repro.configs.firewall import firewall_graph
    from repro.elements.devices import LoopbackDevice
    from repro.elements.runtime import Router

    from .test_fastpath_lowering import firewall_frame

    default_cache().clear()
    if config == "iprouter":
        testbed = Testbed(2)
        router, devices = testbed.build_router(testbed.variant_graph("base"), profile=profile)
        frames = testbed.evaluation_frames(256)
    else:
        devices = {name: LoopbackDevice(name, tx_capacity=1 << 30) for name in ("eth0", "eth1")}
        router = Router(firewall_graph(), devices=devices, profile=profile)
        frames = [("eth0", firewall_frame())] * 256
    engine = router.engine
    if early:
        for flavor in engine.flavors():
            flavor.materialize()
    for name, frame in frames:
        devices[name].receive_frame(frame)
    router.run_tasks(256)
    codes = {}
    for flavor in engine.flavors():
        flavor.materialize()
        # a chain compiled alone, whenever, is the chain compiled with the module
        module = compile(flavor.source, "<fastpath>", "exec")
        whole = {const.co_firstlineno: const for const in module.co_consts if hasattr(const, "co_code")}
        for key, pair in flavor._compiled.items():
            for function in filter(None, pair):
                code = function.__code__
                assert code.co_code == whole[code.co_firstlineno].co_code
                assert code.co_name == whole[code.co_firstlineno].co_name == function.__name__
                codes[flavor.policy.tag, key, function.__name__] = code.co_code
    return codes, {name: list(device.transmitted) for name, device in devices.items()}


@pytest.mark.parametrize("mode, batch", [("fast", False), ("fast", True), ("fdd", False)])
@pytest.mark.parametrize("config", ["iprouter", "firewall"])
def test_materialize_then_run_is_run_then_materialize(config, mode, batch):
    from .test_fastpath_lowering import profile_for

    early = _run_digest_configuration(config, profile_for(mode, batch), True)
    late = _run_digest_configuration(config, profile_for(mode, batch), False)
    assert early[0] and sum(map(len, early[1].values())) == 256
    assert early == late


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
