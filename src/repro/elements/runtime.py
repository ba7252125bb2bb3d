"""The runtime router: instantiate, wire, and drive a configuration.

A :class:`Router` is built from a *finished* RouterGraph.  §5.1 changes
a configuration by installing an entirely new one; here a hot-swap
(:func:`repro.elements.hotswap.hotswap`) and a structural update
(:mod:`repro.control`) both do that inside the live router, with
:func:`instantiate`, :func:`plan_wiring` and :func:`wire` — the steps
the build itself runs.  Compound elements must already be flattened
(:mod:`repro.core.flatten` does this, as the Click kernel parser does
automatically).

Archives may carry generated element code (from click-fastclassifier or
click-devirtualize).  Like Click, which "will first compile the source
code and dynamically link with the result" (§4), the router execs the
bundled Python source and adds the classes it exports to the
configuration's private class table before resolving class names.
"""

from __future__ import annotations

from collections import ChainMap
from dataclasses import replace

from ..errors import ClickSemanticError
from ..graph.ports import PULL, PUSH, resolve_processing
from .element import Element
from .registry import ELEMENT_CLASSES, default_specs

GENERATED_MEMBER_SUFFIX = ".py"
EXPORT_NAME = "ELEMENT_EXPORTS"


def compile_archive_classes(archive):
    """Exec every ``*.py`` archive member; collect the element classes
    each exports via an ``ELEMENT_EXPORTS`` list.

    Members are compiled in archive order, and each sees the classes
    earlier members exported (as ``GENERATED_CLASSES``) — so that, e.g.,
    click-devirtualize's generated code can specialize element classes
    click-fastclassifier generated earlier in the chain.
    """
    classes = {}
    for member_name, source in archive.items():
        if not member_name.endswith(GENERATED_MEMBER_SUFFIX):
            continue
        namespace = {"Element": Element, "GENERATED_CLASSES": dict(classes)}
        code = compile(source, "<archive:%s>" % member_name, "exec")
        exec(code, namespace)  # noqa: S102 - configuration-bundled code
        for cls in namespace.get(EXPORT_NAME, []):
            classes[cls.class_name] = cls
    return classes


def declared_classes(graph):
    """``(declaration, element class)`` for every declaration whose
    class resolves, generated classes included: the optimizers rename
    classes (``Devirtualize@@q`` is a Queue), so a declared class name
    says nothing until it is looked up the way the router build looks
    it up — the graph's archive first, then the registry."""
    generated = compile_archive_classes(graph.archive)
    for decl in graph.elements.values():
        cls = generated.get(decl.class_name) or ELEMENT_CLASSES.get(decl.class_name)
        if cls is not None:
            yield decl, cls


def instantiate(router, decl, classes):
    """The element ``decl`` declares, configured, resolving its class in
    ``classes``, and owned by ``router``."""
    cls = classes.get(decl.class_name)
    if cls is None:
        raise ClickSemanticError("unknown element class %r for element %r" % (decl.class_name, decl.name))
    element = cls(decl.name, decl.config)
    element.router = router
    return element


def plan_wiring(graph, elements, classes):
    """How ``graph`` wires ``elements`` (name -> instance), checked as
    the kernel installer checks it, without touching an element:
    ``{name: (ninputs, noutputs, targets, sources)}``, ``targets[i]``
    the ``(element, port)`` push output ``i`` connects to (None for a
    pull output), ``sources[i]`` likewise for pull input ``i``."""
    specs = default_specs(extra_classes=classes.values())
    resolved = resolve_processing(graph, specs)
    plan = {}
    for name, element in elements.items():
        ninputs = graph.input_count(name)
        noutputs = graph.output_count(name)
        cls = type(element)
        counts = specs[cls.class_name].port_counts
        if not counts.inputs_ok(ninputs):
            raise ClickSemanticError(
                "%s (%s) has %d input(s); %r allowed" % (name, cls.class_name, ninputs, counts.text)
            )
        if not counts.outputs_ok(noutputs):
            raise ClickSemanticError(
                "%s (%s) has %d output(s); %r allowed" % (name, cls.class_name, noutputs, counts.text)
            )
        plan[name] = (ninputs, noutputs)
    for name, (ninputs, noutputs) in plan.items():
        in_codes, out_codes = resolved[name]
        targets, sources = [], []
        for port, code in enumerate(out_codes):
            conns = graph.connections_from(name, port)
            if not conns:
                raise ClickSemanticError("%s output [%d] is unconnected" % (name, port))
            if code == PUSH and len(conns) > 1:
                raise ClickSemanticError(
                    "%s push output [%d] has %d connections; push outputs "
                    "connect to exactly one input" % (name, port, len(conns))
                )
            targets.append((conns[0].to_element, conns[0].to_port) if code == PUSH else None)
        for port, code in enumerate(in_codes):
            conns = graph.connections_to(name, port)
            if not conns:
                raise ClickSemanticError("%s input [%d] is unconnected" % (name, port))
            if code == PULL and len(conns) > 1:
                raise ClickSemanticError(
                    "%s pull input [%d] has %d connections; pull inputs "
                    "connect to exactly one output" % (name, port, len(conns))
                )
            sources.append((conns[0].from_element, conns[0].from_port) if code == PULL else None)
        plan[name] = (ninputs, noutputs, tuple(targets), tuple(sources))
    return plan


def wiring_of(element):
    """``element``'s live wiring, as :func:`plan_wiring` plans it."""
    return (
        len(element._input_ports),
        len(element._output_ports),
        tuple((p.target.name, p.target_port) if p.target is not None else None for p in element._output_ports),
        tuple((p.source.name, p.source_port) if p.source is not None else None for p in element._input_ports),
    )


def wire(elements, plan, names):
    """Give each element named in ``names`` new ports, connected as
    ``plan`` (:func:`plan_wiring`) says, to the elements it names."""
    for name in names:
        ninputs, noutputs, targets, sources = plan[name]
        element = elements[name]
        element.set_nports(ninputs, noutputs)
        for port, target in enumerate(targets):
            if target is not None:
                element.output(port).connect(elements[target[0]], target[1])
        for port, source in enumerate(sources):
            if source is not None:
                element.input(port).connect(elements[source[0]], source[1])


class Router:
    """A running router built from a configuration graph."""

    def __init__(self, graph, extra_classes=None, meter=None, devices=None, profile=None):
        from ..runtime.profile import ExecutionProfile

        self.graph = graph
        self.meter = meter
        #: The :class:`~repro.runtime.adaptive.AdaptiveEngine` running
        #: the compiled chains, or None in reference mode (and always
        #: with a meter, see :meth:`configure`).
        self.engine = None
        self._profile = ExecutionProfile()
        self.supervisor = None
        self.fault_injector = None
        # Keep the caller's mapping object (even when empty): device
        # lookups go through its .get, so callers may pass lazy or
        # auto-populating mappings.
        self.devices = {} if devices is None else devices
        # Layer per-configuration classes over the global registry
        # instead of copying it: building a router stops being
        # O(registry size), and the registry stays shared and read-only.
        overlay = dict(compile_archive_classes(graph.archive))
        if extra_classes:
            overlay.update(extra_classes)
        self._classes = ChainMap(overlay, ELEMENT_CLASSES)
        self.elements = {}
        self._tasks = []
        self._build()
        if profile is not None:
            self.configure(profile)

    # -- construction ---------------------------------------------------------

    def _build(self):
        graph = self.graph
        if graph.element_classes:
            raise ClickSemanticError(
                "runtime router requires a flattened configuration "
                "(compound classes remain: %s)" % ", ".join(graph.element_classes)
            )
        for decl in graph.elements.values():
            self.elements[decl.name] = instantiate(self, decl, self._classes)
        wire(self.elements, plan_wiring(graph, self.elements, self._classes), self.elements)
        # Initialize, collect tasks in declaration order.
        for element in self.elements.values():
            element.initialize()
        self._tasks = [element for element in self.elements.values() if element.is_task()]

    # -- execution mode --------------------------------------------------------

    @property
    def mode(self):
        """``"reference"`` (the interpreting oracle), ``"fast"`` (the
        static compiled chains) or ``"fdd"`` (classifier trees compiled
        into the chains as decision diagrams, under tiered
        profile-guided recompilation)."""
        return self._profile.mode

    @property
    def profile(self):
        """The :class:`~repro.runtime.profile.ExecutionProfile` this
        router currently runs under: the one last applied, with
        supervision read from live state — that very profile, not a
        copy, while the two agree."""
        supervisor, profile = self.supervisor, self._profile
        config = supervisor.config if supervisor is not None else None
        return profile if profile.supervisor is config else replace(profile, supervisor=config)

    @property
    def fastpath(self):
        """Read-only view: the tier-1
        :class:`~repro.runtime.fastpath.FastPath` packets enter, or
        None in reference mode."""
        return self.engine.tier1 if self.engine is not None else None

    @property
    def adaptive(self):
        """Read-only view: the engine while its mode tiers (``fdd``),
        else None."""
        engine = self.engine
        return engine if engine is not None and engine.tiering else None

    def configure(self, profile=None):
        """Apply an :class:`~repro.runtime.profile.ExecutionProfile`:
        the execution tier (compiling on first use), batch flavor,
        adaptive configuration, and supervision, as one declarative
        switch.  The engine is rebuilt exactly when a field it is built
        from changed.  ``None`` means the default reference profile.
        A router carrying a meter runs the reference interpreter under
        any profile: the meter charges the configuration's call sites,
        which the reference executes one for one.  Returns ``self``."""
        from ..runtime.adaptive import AdaptiveEngine
        from ..runtime.profile import ExecutionProfile
        from ..runtime.supervisor import Supervisor

        if profile is None:
            profile = ExecutionProfile()
        if profile.workers > 1:
            raise ValueError(
                "a plain Router is single-shard; profiles with workers > 1 "
                "need a ShardedRouter (use build_router, which dispatches)"
            )
        if self.meter is not None:
            profile = profile.with_mode("reference")
        if AdaptiveEngine.fields(profile) != AdaptiveEngine.fields(self._profile):
            self._drop_engine()
        if self.engine is None and profile.mode != "reference":
            engine = AdaptiveEngine(self, profile)
            engine.install()
            self.engine = engine
        self._profile = profile
        if self.engine is not None:
            self.engine.unpin()  # a new supervisor starts every task at the top tier
        self.supervisor = Supervisor(self, profile.supervisor) if profile.supervised else None
        return self

    def _drop_engine(self):
        """Back to the reference interpreter (and a profile that says
        so, should a rebuild that follows fail)."""
        if self.engine is not None:
            self.engine.uninstall()
            self.engine = None
        self._profile = self._profile.with_mode("reference")

    def force_deopt(self, reason="forced"):
        """Deterministic harness hook: force the tiering engine back to
        tier 1 (profiles reset, specialized code discarded).  A no-op in
        the other modes — which is what makes a forced deopt a valid
        differential-testing event: it must never change behaviour,
        only which tier executes it.  Returns True if a deopt happened."""
        return self.engine is not None and self.engine.deopt(reason)

    def bump_arp_epochs(self):
        """Deterministic harness hook: invalidate every ARPQuerier's
        baked-header guard (as a table change would) without altering
        table contents.  Returns the number of elements bumped."""
        bumped = 0
        for element in self.elements.values():
            if hasattr(element, "_arp_epoch"):
                element._arp_epoch += 1
                bumped += 1
        return bumped

    # -- access ------------------------------------------------------------------

    def __getitem__(self, name):
        return self.elements[name]

    def find(self, name):
        """The element named ``name``, or None."""
        return self.elements.get(name)

    def elements_of_class(self, class_name):
        """All element instances of the given class."""
        return [e for e in self.elements.values() if e.class_name == class_name]

    @property
    def tasks(self):
        return list(self._tasks)

    # -- driving --------------------------------------------------------------------

    def run_tasks(self, iterations=1):
        """Drive the polling scheduler: each iteration gives every task
        element one run_task call — its loop, or the unit compiled
        from it (Click's constantly-active kernel thread,
        round-robin).  Under supervision each task call is the error
        boundary (:meth:`_run_tasks_supervised`)."""
        if self.supervisor is not None:
            return self._run_tasks_supervised(iterations)
        useful = 0
        engine, meter, tasks = self.engine, self.meter, self._tasks
        for _ in range(iterations):
            worked = 0
            for task in tasks:
                if meter is not None:
                    meter.on_task(task)
                if task.run_task():
                    worked += 1
            useful += worked
            if engine is not None and not worked:
                # An idle scheduler pass is when Click would do
                # housekeeping; the engine uses it to promote chains
                # whose profiles matured off the packet path.
                engine.on_idle()
        return useful

    def _run_tasks_supervised(self, iterations):
        """The supervised scheduler loop, and the router's one error
        boundary: an exception out of ``run_task`` costs the packet in
        flight and ends that task's burst (the rest stays on its ring or
        queue), is charged to the task's guard, and counts the pass as
        worked — the task did consume input.  A task the watchdog
        benched sits its cooldown passes out."""
        useful = 0
        engine, meter, supervisor = self.engine, self.meter, self.supervisor
        guarded = [(task, supervisor.guard(task)) for task in self._tasks]
        for _ in range(iterations):
            worked = 0
            for task, guard in guarded:
                if guard.benched:
                    guard.benched -= 1
                    continue
                if meter is not None:
                    meter.on_task(task)
                try:
                    did = task.run_task()
                except Exception as exc:  # noqa: BLE001 - the supervised boundary
                    guard.fail(exc)
                    did = True
                else:
                    guard.note(did)
                if did:
                    worked += 1
            useful += worked
            if engine is not None and not worked:
                engine.on_idle()
        return useful

    def push_packet(self, element_name, port, packet):
        """Inject a packet into a push input (testing convenience)."""
        element = self.elements[element_name]
        if self.meter is not None:
            self.meter.on_element_work(element)
        element.push(port, packet)

    # -- handlers (Click's /click/<element>/<handler> interface) -----------

    def read_handler(self, path):
        """Read ``"element.handler"`` (or ``"element/handler"``)."""
        element_name, handler = self._split_handler_path(path)
        return self.elements[element_name].read_handler(handler)

    def write_handler(self, path, value):
        """Write ``value`` to ``"element.handler"``."""
        element_name, handler = self._split_handler_path(path)
        self.elements[element_name].write_handler(handler, value)

    @staticmethod
    def _split_handler_path(path):
        for separator in (".", "/"):
            if separator in path:
                element_name, _, handler = path.rpartition(separator)
                return element_name, handler
        raise KeyError("bad handler path %r (want element.handler)" % path)


def build_router(graph, **kwargs):
    """Flatten ``graph`` if needed and build a router from it: a plain
    :class:`Router`, or — when the profile carries ``workers > 1`` — a
    :class:`~repro.runtime.shard.ShardedRouter` fanning the profile out
    across hash-partitioned worker shards."""
    if graph.element_classes:
        from ..core.flatten import flatten

        graph = flatten(graph)
    profile = kwargs.get("profile")
    if profile is not None and getattr(profile, "workers", 1) > 1:
        from ..runtime.shard import ShardedRouter

        return ShardedRouter(graph, **kwargs)
    return Router(graph, **kwargs)
