"""The one commit protocol, model-checked.

Every reconfiguration of a live router — a route or rules patch, a
structural update, a hot-swap — stages all that can fail, then commits
with nothing left that can fail, or rolls back to the router as it was.
A ``hypothesis`` state machine drives a supervised ``fast`` or ``fdd``
router through frames, scheduler runs, route patches, valid, rejected,
failing and equivalent rules patches (a filter grown past a hundred
rules among them, and one taken past the diagram depth bound and back
under it around traffic), a named insert and delete, and hot-swaps,
with a failure injected into a new element's ``configure``, a chain's
emission or its ``compile()``.  After every step:

- the wire bytes, read handlers and wiring equal a reference-mode twin
  fed only the events the live router committed, every port connects
  live elements, and the supervisor guards the live tasks;
- every chain record equals a fresh build's (:mod:`tests.chains`);
- an install's four chain counts add up (``assert_chains_add_up``).
"""

import random
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.configs.iprouter import default_interfaces, ip_router_config
from repro.control import ControlPlane, ControlPlaneError
from repro.core.toolchain import load_config, save_config
from repro.elements.hotswap import HotswapError, hotswap
from repro.elements.infrastructure import Counter
from repro.elements.runtime import wiring_of
from repro.events import read_counters
from repro.lang.lexer import split_config_args
from repro.runtime import ExecutionProfile
from repro.runtime import fastpath
from repro.sim.testbed import Testbed

from ..chains import assert_chains_as_fresh
from ..classifier.test_filter_key import transformed
from .test_control_plane import assert_chains_add_up

#: The stock IP router with a filter on interface 0's IP path, so rules
#: patches reach an ``IPFilter``, whose rule count is free.
CONFIG = ip_router_config(default_interfaces(2)).replace(
    "-> GetIPAddress(16) -> rt;", "-> GetIPAddress(16) -> fw :: IPFilter(allow all) -> rt;", 1
)
FRAMES = Testbed(2).evaluation_frames(128)

ROUTES = [
    ["1.0.0.1/32 0", "2.0.0.1/32 0", "1.0.0.0/8 2", "2.0.0.0/8 1"],
    ["2.0.0.0/8 2", "1.0.0.0/8 1", "2.0.0.1/32 0", "1.0.0.1/32 0", "2.0.0.2/32 0"],
    ["1.0.0.1/32 0", "2.0.0.1/32 0", "1.0.0.0/8 1", "2.0.0.0/8 2"],
]
FILTER_RULES = [
    "deny src port 1001",
    "deny src port 1003",
    "deny dst host 2.0.0.2 && src port 1005",
    "allow src port 1002",
    "deny udp && src port 1004",
]
#: Deeper than a diagram may be: the filter keeps its matcher.
DEEP_RULES = ["deny src host 10.0.%d.%d" % divmod(i, 250) for i in range(110)] + ["deny src port 1006", "allow all"]
CLASSIFIER_RULES = ["12/0806 20/0001", "12/0806 20/0002", "12/0800", "-"]
REJECTED = [("c0", ["12/0800", "-"]), ("fw", ["deny bogus"]), ("rt", ["1.0.0.0/8 7"])]
#: Where the named Counter goes in: a push output of a named element.
ANCHORS = [("c0", 2), ("db0", 0), ("dt0", 0), ("fw", 0), ("rt", 2), ("dt1", 0)]
INSERTED = "sm"


@contextmanager
def failing(point):
    """Make one stage point raise while the block runs: a new Counter's
    ``configure``, a chain's emission or its ``compile()``."""
    target, name = {
        None: (None, None),
        "configure": (Counter, "configure"),
        "emission": (fastpath.FastPath, "_emit_chain"),
        "compile": (fastpath, "compile_chain"),
    }[point]
    if target is None:
        yield
        return
    real = vars(target).get(name)

    def broken(*args, **kwargs):
        raise RuntimeError("injected %s failure" % point)

    setattr(target, name, broken)
    try:
        yield
    finally:
        if real is None:
            delattr(target, name)
        else:
            setattr(target, name, real)


class CommitProtocol(RuleBasedStateMachine):
    """A live router and its reference twin; see the module docstring."""

    mode = None

    @initialize()
    def build(self):
        testbed = Testbed(2)
        profile = getattr(ExecutionProfile, self.mode)().with_supervision()
        self.router, self.devices = testbed.build_router(load_config(CONFIG, "<live>"), profile=profile)
        self.twin, self.twin_devices = testbed.build_router(load_config(CONFIG, "<twin>"))
        self.text = save_config(self.router.graph)

    # -- traffic -------------------------------------------------------------

    @rule(count=st.integers(1, 48), start=st.integers(0, len(FRAMES) - 1), short=st.booleans())
    def frames(self, count, start, short):
        for index in range(start, start + count):
            device, frame = FRAMES[index % len(FRAMES)]
            frame = frame[:20] if short else frame
            self.devices[device].receive_frame(frame)
            self.twin_devices[device].receive_frame(frame)

    @rule(passes=st.integers(1, 24))
    def run(self, passes):
        self.router.run_tasks(passes)
        self.twin.run_tasks(passes)

    # -- updates -------------------------------------------------------------

    def update(self, text, failure=None, swap=False):
        """Install ``text`` on the live router under ``failure``: either
        it commits, and so does the twin, or it raises the install's own
        error and the live router is as it was."""
        install = hotswap if swap else lambda router, update: ControlPlane(router).apply(update)
        try:
            with failing(failure):
                report = install(self.router, text)
        except (ControlPlaneError, HotswapError):
            assert failure is not None
            assert save_config(self.router.graph) == self.text
            return None
        install(self.twin, text)
        self.text = save_config(self.router.graph)
        if report.kind == "scoped-swap":
            assert_chains_add_up(report, self.router)
        return report

    def edited(self, name, args):
        graph = load_config(self.text, "<edit>")
        graph.elements[name].config = ", ".join(args)
        return save_config(graph)

    @rule(routes=st.sampled_from(ROUTES), failure=st.sampled_from([None, "emission"]))
    def route_patch(self, routes, failure):
        report = self.update(self.edited("rt", routes), failure)
        assert report is None or report.kind in ("in-place", "no-op")

    @rule(
        rules=st.lists(st.sampled_from(FILTER_RULES), max_size=4) | st.just(DEEP_RULES[:-1]),
        last=st.sampled_from(["allow all", "deny all"]),
        failure=st.sampled_from([None, None, "emission", "compile"]),
    )
    def filter_patch(self, rules, last, failure):
        self.update(self.edited("fw", rules + [last]), failure)

    @rule(shallow=st.lists(st.sampled_from(FILTER_RULES), max_size=4), passes=st.integers(4, 24))
    def deep_and_back(self, shallow, passes):
        """The filter past the depth bound, traffic through the chain
        that calls its matcher, then the filter back under the bound:
        that chain gains the filter's plan."""
        self.update(self.edited("fw", DEEP_RULES))
        self.frames(48, 0, False)
        self.run(passes)
        self.update(self.edited("fw", shallow + ["allow all"]))

    @rule(seed=st.integers(0, 2**16))
    def equivalent_filter_patch(self, seed):
        """The filter's rules as another text of the same table: a
        no-op, and the live text stays."""
        rules = split_config_args(load_config(self.text, "<fw>").elements["fw"].config)
        before = self.text
        report = self.update(self.edited("fw", transformed(rules, random.Random(seed))))
        assert report.kind == "no-op" and self.text == before

    @rule(name=st.sampled_from(["c0", "c1"]), turn=st.integers(0, 3), failure=st.sampled_from([None, "emission"]))
    def classifier_patch(self, name, turn, failure):
        self.update(self.edited(name, CLASSIFIER_RULES[turn:] + CLASSIFIER_RULES[:turn]), failure)

    @rule(rejected=st.sampled_from(REJECTED))
    def rejected_patch(self, rejected):
        with pytest.raises(ControlPlaneError):
            ControlPlane(self.router).apply(self.edited(*rejected))
        assert save_config(self.router.graph) == self.text

    @precondition(lambda self: INSERTED not in self.router.elements)
    @rule(anchor=st.sampled_from(ANCHORS), failure=st.sampled_from([None, "configure", "emission", "compile"]))
    def insert(self, anchor, failure):
        graph = load_config(self.text, "<insert>")
        (conn,) = graph.connections_from(*anchor)
        graph.remove_connection(conn)
        graph.add_element(INSERTED, "Counter", None)
        graph.add_connection(conn.from_element, conn.from_port, INSERTED, 0)
        graph.add_connection(INSERTED, 0, conn.to_element, conn.to_port)
        report = self.update(save_config(graph), failure)
        assert report is not None or failure is not None

    @precondition(lambda self: INSERTED in self.router.elements)
    @rule(failure=st.sampled_from([None, "emission", "compile"]))
    def delete(self, failure):
        graph = load_config(self.text, "<delete>")
        graph.splice_out(INSERTED)
        self.update(save_config(graph), failure)

    @rule(failure=st.sampled_from([None, "configure", "emission", "compile"]))
    def swap(self, failure):
        self.update(self.text, failure, swap=True)

    # -- after every step ----------------------------------------------------

    @invariant()
    def as_the_twin(self):
        if not hasattr(self, "router"):
            return
        sent = {name: list(device.transmitted) for name, device in self.devices.items()}
        assert sent == {name: list(device.transmitted) for name, device in self.twin_devices.items()}
        assert read_counters(self.router) == read_counters(self.twin)
        elements = self.router.elements
        assert {name: wiring_of(element) for name, element in elements.items()} == {
            name: wiring_of(element) for name, element in self.twin.elements.items()
        }
        for element in elements.values():
            for port in element._output_ports:
                assert port.target is None or elements[port.target.name] is port.target
        guards = self.router.supervisor.guards
        assert all(elements.get(name) is guard.task for name, guard in guards.items())
        assert_chains_as_fresh(self.router)


PROTOCOL = settings(
    max_examples=12, stateful_step_count=30, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@PROTOCOL
class FddProtocol(CommitProtocol):
    mode = "fdd"


@PROTOCOL
class FastProtocol(CommitProtocol):
    mode = "fast"


TestFddProtocol = FddProtocol.TestCase
TestFastProtocol = FastProtocol.TestCase
