"""The runtime fast path: precompiled push/pull chain dispatch.

The reference interpreter pays modular indirection on every hop: each
transfer crosses ``OutputPort.push`` → ``Element.receive_push`` →
``Element.push`` → ``simple_action``, five Python calls and several
attribute lookups per element.  The paper's whole argument is that a
compiler holding the *entire* configuration can collapse that
indirection into straight-line code (§6.1's devirtualization); this
module is the same move applied to the Python runtime itself.

:class:`FastPath` walks a wired :class:`~repro.elements.runtime.Router`
once, resolves every push and pull edge to a bound method, and emits
per-source *chains* on first entry: generated Python functions (``compile``/``exec``,
the mechanism :func:`~repro.elements.runtime.compile_archive_classes`
already uses for archive code) that

- inline linear runs of one-in/one-out elements as a sequence of bound
  ``simple_action`` calls (or a declared :attr:`Element.fast_action`
  equivalent) with early drop exits, and
- replace every branching element's :class:`OutputPort` with a
  :class:`FastOutputPort` whose ``push`` slot *is* the compiled chain
  for that edge — the list of fast ports is a precomputed jump table,
  so ``self.output(i).push(p)`` dispatches straight into generated code
  with no port logic, no meter test, and no ``receive_push`` hop.

The task elements' burst loops are compiled too: a device element
declares its device segment (``lowering()``), its device the rings
behind it (``ring``), and :meth:`FastPath._emit_task` emits one
zero-argument *task unit* per such element, which :meth:`install` sets
as its ``run_task``.  With ``batch=True`` the unit hands the whole
burst to the ``push_batch``/``pull_batch`` entry point of its chain,
whose generated body loops internally (Click's polling burst, applied
to dispatch); only chains leaving a task element have one.

A router carrying a cost meter is never compiled: it runs the
reference interpreter, whose call sites are the ones the meter charges
(:meth:`~repro.elements.runtime.Router.configure`), and
:class:`FastPath` refuses it.

One emitter serves every tier: what a compile is specialized on
(diagram plans, profiling hooks, profile-guided speculation) is the
data a :class:`ChainPolicy` carries, and facts one segment proves
(contents local, minimum length, paint, raw destination, layout) are
threaded to the segments and terminals after it on every push chain.

Debugging: the full generated module is ``router.fastpath.source``
(or ``FastPath.dump(fh)``); each chain is annotated with the edge it
compiles.
"""

from __future__ import annotations

import builtins
import copy
import dis
import itertools
import re
import time
import types

from ..classifier.compile import is_pending, pending_function
from ..net.packet import _intern_dest_ip
from .codegen_cache import default_cache

__all__ = [
    "ChainPolicy",
    "FastPath",
    "FastPathError",
    "FastPathReport",
    "FastOutputPort",
    "FastInputPort",
]


class FastPathError(RuntimeError):
    """Raised when a router cannot be compiled into a fast path."""


class ChainPolicy:
    """What one compile of the chains is specialized on, as data the
    emitter's decision hooks read.

    Every field defaults to None, and a policy with none set is the
    *static* tier: branches emit in port order, every fusable arm
    fuses, nothing is speculated.  Each field that is set turns one
    specialization on:

    - ``plans`` (``{classifier name: DiagramPlan}``, built by
      :func:`repro.runtime.fdd.diagram_pass`): classifier terminals
      with a plan emit as decision diagrams, ordered by ``hot_paths``,
      each under ``node_budget``.
    - ``store`` (a :class:`~repro.runtime.adaptive.ProfileStore`): the
      *profiling* flavor, the static code plus a note hook at every
      classifier and route dispatch.  It takes no ``plans``: a note
      records what the classifier answered, which the flavor asks the
      element's live tree, so it bakes no rules in and outlives a
      rules patch.
    - ``decisions`` (a :class:`~repro.runtime.adaptive.Decisions`):
      tier 2 — hottest arms first, cold arms pruned, hot route/ARP
      results behind guards whose miss counters ``engine`` owns.

    ``profiling`` and ``tag`` are derived from which fields are set.  A
    subclass may override any hook (tests substitute fakes this way).

    Policies hand the emitter *tokens* for any runtime object they want
    bound into generated code (counters, guard callbacks); the emitter
    binds ``policy.resolve(token, router)``.
    """

    def __init__(self, plans=None, store=None, decisions=None, engine=None,
                 node_budget=None, hot_paths=None):
        if plans is not None and store is not None:
            raise ValueError("the profiling flavor takes no diagram plans")
        self.plans = plans
        self.store = store
        self.decisions = decisions
        self.engine = engine
        self.node_budget = node_budget
        self.hot_paths = hot_paths

    @property
    def profiling(self):
        return self.store is not None

    @property
    def tag(self):
        """The flavor's name in reports."""
        flavor = (
            "profiling" if self.profiling
            else "optimized" if self.decisions is not None
            else "static"
        )
        if self.plans is None:
            return flavor
        return "fdd" if flavor == "static" else "fdd-" + flavor

    def _decision_for(self, element):
        if self.decisions is None:
            return None
        return self.decisions.classifier.get(element.name) or self.decisions.route.get(
            element.name
        )

    def branch_order(self, element, nports):
        """The order branch arms are emitted in (hottest first pays in
        the if/elif dispatch chain)."""
        decision = self._decision_for(element)
        if decision is None:
            return range(nports)
        order = [i for i in decision["order"] if 0 <= i < nports]
        order.extend(i for i in range(nports) if i not in order)
        return order

    def should_fuse(self, element, port_index):
        """False prunes this branch arm from dispatch fusion — it stays
        reachable through the jump table, the generated code shrinks."""
        decision = self._decision_for(element)
        return decision is None or port_index not in decision["prune"]

    def hot_arm(self, element, site):
        """What to speculate at a ``site`` dispatch (``"classifier"`` or
        ``"route"``, see :meth:`_Emission.dispatch`), for the element's
        declaration to guard, or None.  At a classifier, ``(conds,
        hot_out)``: ``conds`` are rendering tuples — ``("len", n)``,
        ``("slice", start, end, bytes, equal)`` or ``("masked", offset,
        width, mask, value, equal)`` — whose conjunction must *imply*
        the matcher returns ``hot_out``.  At a route table,
        ``(raw_dst, gateway_value_or_None, out_port)``: the hottest
        destination and what the lookup answers for it."""
        if self.decisions is None:
            return None
        decision = getattr(self.decisions, site).get(element.name)
        return decision["hot"] if decision else None

    def classifier_diagram(self, element):
        """A prebuilt :class:`repro.runtime.fdd.DiagramPlan` to emit in
        place of this classifier's matcher call + if/elif dispatch, or
        None for the generic emission.  The plan inlines the element's
        whole decision tree as nested byte tests (each field loaded at
        most once per root-to-leaf path), so every arm — not just a
        guarded hot one — dispatches without calling the matcher."""
        return self.plans.get(element.name) if self.plans else None

    def arp_constant(self, element):
        """``(raw_dst, header_bytes, epoch)`` to inline a resolved ARP
        encapsulation behind an epoch guard, or None."""
        if self.decisions is None:
            return None
        return self.decisions.arp.get(element.name)

    def check_ip_hot(self, element):
        """The hottest raw destination value, to skip the intern-cache
        probe in the CheckIPHeader segment, or None."""
        return self.decisions.check_ip_hot if self.decisions is not None else None

    def note(self, element, site):
        """Token for a per-packet profiling hook at a ``site`` dispatch,
        or None: ``note(out, data)`` at a classifier, ``note(raw_dst)``
        at a route table."""
        return (site, element.name) if self.profiling else None

    def guard_counter(self, element, site):
        """Token for a zero-argument guard-miss callback emitted on the
        cold side of a speculation, or None."""
        if self.decisions is None or self.engine is None:
            return None
        return ("guard", element.name, site)

    def resolve(self, token, router):
        """The live object behind a token this policy issued."""
        kind = token[0]
        if kind in ("classifier", "route") and self.profiling:
            return getattr(self.store, kind + "_note")(token[1])
        if kind == "guard" and self.engine is not None:
            return self.engine.guard_counter_for(token)
        raise KeyError(token)


class FastOutputPort:
    """A push port whose ``push`` slot is a compiled chain function.

    Keeps the reference :class:`~repro.elements.element.OutputPort`
    surface (``element``, ``port``, ``target``, ``target_port``,
    ``virtual``) so graph-walking code and handlers see no difference.
    ``push_batch`` is the batched entry point a task unit calls, or
    None: outside batch mode, and on every port no task pushes into.
    """

    __slots__ = ("element", "port", "target", "target_port", "virtual", "push", "push_batch")

    def __init__(self, original, push, push_batch=None):
        self.element = original.element
        self.port = original.port
        self.target = original.target
        self.target_port = original.target_port
        self.virtual = original.virtual
        self.push = push
        self.push_batch = push_batch


class FastInputPort:
    """A pull port whose ``pull`` slot is a compiled chain function."""

    __slots__ = ("element", "port", "source", "source_port", "virtual", "pull", "pull_batch")

    def __init__(self, original, pull, pull_batch=None):
        self.element = original.element
        self.port = original.port
        self.source = original.source
        self.source_port = original.source_port
        self.virtual = original.virtual
        self.pull = pull
        self.pull_batch = pull_batch


#: The FastPathReport fields that describe the build or update that
#: produced a fast path, not its chains; folding the chains keeps them.
_BUILD_FACTS = (
    "batch", "policy", "compile_seconds", "reused_chains", "compiled_units",
    "relinked_units", "emitted_units", "failed_entries",
)

#: The FastPathReport counters emitters bump while a chain is emitted;
#: the chain's record keeps what its own emission added.
_CHAIN_COUNTERS = (
    "specialized_terminals", "specialized_actions", "elided_elements",
    "guarded_branches", "pruned_arms",
    "fdd_diagrams", "fdd_nodes", "fdd_paths", "fdd_tests_saved",
)


class ChainInfo:
    """One chain, whole — the compile unit: its source edge, the
    elements inlined into straight-line code and the terminal dispatch,
    and everything emitting it produced.  Each record is its fast
    path's own, immutable once emitted *except* ``code``, written once:
    by the update that replaces a chain already forwarding, or by the
    first packet to enter it (:meth:`FastPath._enter`) — so ``code is
    not None`` says the chain is live.  ``template`` is ``source`` with
    every lifted literal a placeholder, and a function of the chain
    alone: what it binds is its functions' ``defaults``, its locals are
    numbered in the chain, so no counter that runs across chains or
    builds reaches it.  ``code`` is ``compile()`` of the template, the
    *template code*, which every fast path that emits that text shares
    through the chain store (:mod:`repro.runtime.codegen_cache`); the
    chain's functions run it filled in with ``literals`` and moved to
    its lines (:meth:`FastPath._link`).  A rules patch whose plans keep
    the shapes of those in ``diagrams`` gives the chain a record with
    their literals over the same template code (:meth:`refilled`).
    ``elements`` names every element the emission read — the edge's
    own, the inlined ones, the terminal and each fused dispatch arm's —
    so an update that changes one of them makes the chain stale, and
    replaces its record — or drops it, if nothing had entered it, until
    its first entry emits a new one (:meth:`FastPath.stage_rewrite`)."""

    __slots__ = (
        "kind", "element", "port", "inlined", "terminal", "terminal_port",
        "batch_name",  # the batch entry point, or None
        "source",  # [blank line, "# describe()", generated line, ...]
        "template",  # source, each lifted literal a placeholder (source itself when none is)
        "literals",  # the values the template's placeholders stand for, in order
        "diagrams",  # (classifier name, DiagramPlan) of each plan the emission inlined
        "elements",  # frozenset of the names of every element the emission read
        "code",  # the template code (compile_chain), or None until it is entered
        "offset",  # source[0] is line ``offset`` of FastPath.source
        "defaults",  # the objects the chain binds: its functions' defaults, in order
        "tables",  # (list, terminal element, dispatch mode) of each jump table it binds
        "opaque",  # own-run elements entered through their bound push / simple_action
        "counters",  # {_CHAIN_COUNTERS name: what emission added}, non-zero only
    )

    def __init__(self, kind, element, port, inlined, terminal, terminal_port):
        self.kind, self.element, self.port = kind, element, port
        self.inlined = inlined
        self.terminal, self.terminal_port = terminal, terminal_port
        self.batch_name = self.code = None

    @property
    def function_name(self):
        """The name its (scalar) entry point is defined under."""
        return "_" + self.kind

    @property
    def lines(self):
        """Generated lines, not counting the separator and the comment."""
        return len(self.source) - 2

    def describe(self):
        hops = [name for name in self.inlined] + ["%s.%s(%d)" % (self.terminal, self.kind, self.terminal_port)]
        return "%s %s [%d] -> %s" % (self.kind, self.element, self.port, " -> ".join(hops))

    def refilled(self, plans):
        """A new record of this chain with the literals ``plans`` give
        the diagrams it inlined, over the same template and template
        code, or None where a plan is gone or changed shape, or the new
        values share placeholders otherwise."""
        slots = {value: slot for slot, value in enumerate(self.literals)}
        literals, texts = [None] * len(self.literals), [None] * len(self.literals)
        for name, inlined in self.diagrams:
            written = plans[name].literals_for(inlined) if name in plans else None
            if written is None:
                return None
            for (old, _text), (value, text) in zip(inlined.filled()[1], written):
                slot = slots[old]
                if texts[slot] is None:
                    literals[slot], texts[slot] = value, text
                elif literals[slot] != value:
                    return None
        if len(set(literals)) < len(literals):
            return None
        chain = copy.copy(self)
        chain.literals, chain.source = tuple(literals), _fill(self.template, texts)
        chain.diagrams = tuple((name, plans[name]) for name, _plan in self.diagrams)
        return chain

    def fold_into(self, report, sign=1):
        """Add this chain to a :class:`FastPathReport` — the one way a
        chain is counted, whether just emitted or shared.
        ``sign=-1`` takes out a chain a rules patch replaces; the one
        replacing it runs over the same wiring, so ``inlined_elements``
        and ``longest_chain`` stand (a structural update refolds the
        whole report)."""
        label = "%s %s[%d]" % (self.kind, self.element, self.port)
        if sign > 0:
            report.chain_lines[label] = self.lines
            if self.opaque:
                report.opaque_dispatch[label] = self.opaque
            report.inlined_elements.update(self.inlined)
            # every inlined element is a stage, and so is the terminal
            report.longest_chain = max(report.longest_chain, len(self.inlined) + 1)
        else:
            del report.chain_lines[label]
            report.opaque_dispatch.pop(label, None)
        counter = "task_units" if self.kind == "task" else self.kind + "_chains"
        setattr(report, counter, getattr(report, counter) + sign)
        report.inlined_calls += sign * len(self.inlined)
        report.source_lines += sign * len(self.source)
        for name, added in self.counters.items():
            setattr(report, name, getattr(report, name) + sign * added)


class FastPathReport:
    """The compile report: what the fast path did to the configuration."""

    def __init__(self):
        self.push_chains = 0
        self.pull_chains = 0
        self.task_units = 0  # compiled burst loops, one per eligible task element
        self.inlined_calls = 0
        self.inlined_elements = set()
        self.longest_chain = 0
        self.branch_elements = 0
        self.branch_ports = 0
        self.specialized_terminals = 0
        self.specialized_actions = 0
        self.elided_elements = 0
        self.batch = False
        self.source_lines = 0
        self.policy = "static"
        self.compile_seconds = 0.0
        self.chain_lines = {}  # "push name[port]" chain label -> generated lines
        self.guarded_branches = 0
        self.pruned_arms = 0
        self.reused_chains = 0  # chains the last update left as they were
        self.compiled_units = 0  # compile() calls made for this fast path so far
        self.relinked_units = 0  # chains a rules patch filled into a live chain's template code
        self.emitted_units = 0  # chains emitted since the build or the last update
        self.edges = 0  # chain edges (wired ports, task loops), each with a record or waiting
        self.fdd_diagrams = 0  # classifier terminals emitted as decision diagrams
        self.fdd_nodes = 0  # expanded diagram nodes across those diagrams
        self.fdd_paths = 0  # root-to-leaf paths across those diagrams
        self.fdd_tests_saved = 0  # field loads the diagrams share along their paths
        # chain label -> elements of its own run the chain calls through
        # their bound push / simple_action (no segment, no fast_action)
        self.opaque_dispatch = {}
        self.failed_entries = {}  # chain label -> the error its first entry raised

    @property
    def waiting_units(self):
        """Edges without a record: their first entry emits them."""
        return self.edges - self.push_chains - self.pull_chains - self.task_units

    def as_dict(self):
        """Every field above, in that order (``emitted_units`` follows
        ``relinked_units``, ``failed_entries`` is last), JSON-safe."""
        fields = dict(vars(self))
        fields["inlined_elements"] = sorted(self.inlined_elements)
        fields["compile_seconds"] = round(self.compile_seconds, 6)
        fields["chain_lines"] = dict(sorted(self.chain_lines.items()))
        fields["opaque_dispatch"] = dict(sorted(self.opaque_dispatch.items()))
        return fields

    def to_json(self):
        import json

        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def format(self):
        """Human-readable summary (what ``click-optimize --fast`` prints)."""
        lines = [
            "fast path: %d push chains, %d pull chains, %d task units (%d generated lines%s)"
            % (
                self.push_chains,
                self.pull_chains,
                self.task_units,
                self.source_lines,
                ", batched" if self.batch else "",
            ),
            "  inlined: %d element handlers across %d elements (longest chain: %d)"
            % (self.inlined_calls, len(self.inlined_elements), self.longest_chain),
            "  branches: %d elements dispatch %d ports through the jump table"
            % (self.branch_elements, self.branch_ports),
            "  specialized: %d terminals and %d actions compiled in place, "
            "%d redundant elements elided"
            % (self.specialized_terminals, self.specialized_actions, self.elided_elements),
            "  compile: %.1f ms, compiled %d of %d chains, %d emitted%s%s%s (policy: %s%s)"
            % (
                self.compile_seconds * 1e3,
                self.compiled_units,
                self.push_chains + self.pull_chains + self.task_units,
                self.emitted_units,
                ", %d edges wait for a first entry" % self.waiting_units if self.waiting_units else "",
                ", %d re-linked" % self.relinked_units if self.relinked_units else "",
                ", %d chains reused" % self.reused_chains if self.reused_chains else "",
                self.policy,
                ", %d guarded branches, %d pruned arms"
                % (self.guarded_branches, self.pruned_arms)
                if self.guarded_branches or self.pruned_arms
                else "",
            ),
        ]
        if self.fdd_diagrams:
            lines.append(
                "  diagrams: %d classifiers compiled to decision diagrams "
                "(%d nodes, %d paths, %d shared loads)"
                % (self.fdd_diagrams, self.fdd_nodes, self.fdd_paths, self.fdd_tests_saved)
            )
        for label, names in sorted(self.opaque_dispatch.items()):
            lines.append("  opaque: %s calls %s" % (label, ", ".join(names)))
        for label, error in sorted(self.failed_entries.items()):
            lines.append("  failed: %s runs its reference port (%s)" % (label, error))
        if self.chain_lines:
            largest = sorted(
                self.chain_lines.items(), key=lambda item: -item[1]
            )[:4]
            lines.append(
                "  code size: %s"
                % ", ".join("%s=%d lines" % pair for pair in largest)
            )
        return "\n".join(lines)


def inline_action_name(cls):
    """The per-packet handler the fast path may inline for ``cls``, or
    None when the element must be dispatched through its own ``push`` /
    ``pull``.

    A class qualifies when it leaves the default ``Element.push`` and
    ``Element.pull`` in place (the ``simple_action`` sugar) or when it
    declares :attr:`Element.fast_action` — the name of a method
    ``f(packet) -> packet | None`` that its push/pull handlers wrap in
    exactly the simple_action pattern (side outputs, e.g. error ports,
    are pushed from inside the method and so keep working inlined).
    """
    name = getattr(cls, "fast_action", None)
    if name:
        return name
    return "simple_action" if cls.uses_simple_action() else None


def _declares(obj, name, handlers):
    """Does ``obj``'s class declare ``name`` for handlers it still
    runs — no subclass of the declaring class overrides one?"""
    kind = type(obj)
    for cls in kind.__mro__:
        if name in vars(cls):
            return all(getattr(kind, h, None) is vars(cls).get(h) for h in handlers)
    return False


def _segment_owner(element, handler):
    """The class whose ``segment()`` declaration stands for ``element``'s
    ``handler`` (see :class:`_Emission`), or None when the handler must
    be called: no segment declared for it, or a subclass of the
    declaring class overrides it, or the instance wraps it.  The wrap
    test reads the bound method, not ``vars(element)``: materializing an
    instance's ``__dict__`` slows every attribute load the compiled code
    then makes on it (CPython's inline-values specialization)."""
    cls = type(element)
    wrapped = getattr(getattr(element, handler), "__func__", None) is not getattr(cls, handler)
    if wrapped or not _declares(element, "segment", (handler,)):
        return None
    return cls


def _lowering(element):
    """The ``(owner class, bound cold path)`` stages a combination
    element declares it stands for (``lowering()``, see
    :mod:`repro.elements.combos`), or None when this instance must be
    entered through its own ``push``: nothing declared, or the handler
    the declaration describes is overridden or fault-wrapped."""
    if _declares(element, "lowering", ("push",)) and "push" not in vars(element):
        return element.lowering()
    return None


def _task_lowering(element):
    """``(device segment, ring facts)`` when a task element's burst
    loop compiles (:mod:`repro.elements.devices`), or None when it runs
    its own ``run_task``: no segment declared for that loop,
    fault-wrapped, or on a device that declares no rings for the three
    calls it runs (a proxy, an overriding subclass, a NIC model)."""
    device = getattr(element, "device", None)
    if (
        getattr(element, "_fault_wrapped", False)
        or not _declares(element, "lowering", ("run_task",))
        or not _declares(device, "ring", ("rx_dequeue", "tx_room", "tx_enqueue"))
    ):
        return None
    return element.lowering(), device.ring


#: A lifted literal's placeholder (:meth:`_Emission.literal`): an octal escape, which no ``repr`` writes.
_PLACEHOLDER = re.compile(r"'\\000(\d+)'")


def _fill(template, texts):
    """``template``'s lines with each placeholder the text of its literal."""
    return _PLACEHOLDER.sub(lambda match: texts[int(match.group(1))], "\n".join(template)).split("\n")


def _instantiate(template, literals, by):
    """``template`` (a compiled chain, see :func:`compile_chain`) with
    each placeholder constant — the string ``'\\x00<index>'``, a
    constant no chain holds otherwise — its literal, and its lines
    ``by`` further on: only constants and line numbers change.  A
    literal equal to another constant of its code object shares that
    constant's slot, as ``compile()`` gives equal constants one (the
    constant arguments renumbered), in a code object of at most 256
    constants, whose arguments take one byte; past that it keeps a slot
    of its own and loads an equal value (behind an ``EXTENDED_ARG``
    where ``compile()`` needs none).  Without literals it only moves a
    chain's lines."""
    consts, lifted = [], False
    for const in template.co_consts:
        if type(const) is types.CodeType:
            const = _instantiate(const, literals, by)
        elif type(const) is str and const[:1] == "\x00":
            const, lifted = literals[int(const[1:])], True
        consts.append(const)
    fields = {}
    if lifted:
        slots, remap = {}, []  # compile()'s key for a constant -> its slot
        for const in consts:
            key = id(const) if type(const) is types.CodeType else (type(const), const)
            remap.append(slots.setdefault(key, len(slots)))
        if len(slots) < len(consts) <= 256:
            kept = {}
            for slot, const in zip(remap, consts):
                kept.setdefault(slot, const)
            consts = list(kept.values())
            fields["co_code"] = _renumbered(template.co_code, bytes(remap) + bytes(range(len(remap), 256)))
    return template.replace(co_consts=tuple(consts), co_firstlineno=template.co_firstlineno + by, **fields)


#: A 256-byte table marking the opcodes whose argument is a constant's
#: index (LOAD_CONST, KW_NAMES) with 0xFF.
_CONST_OPS = bytes(0xFF if op in dis.hasconst else 0 for op in range(256))


def _renumbered(code, table):
    """Bytecode ``code`` with every constant index argument ``i`` made
    ``table[i]``: each 2-byte unit is (opcode, argument), and the
    arguments are chosen between their old and new bytes by a mask of
    the constant opcodes, whole-sequence, not unit by unit."""
    ops, args = code[::2], code[1::2]
    mask = int.from_bytes(ops.translate(_CONST_OPS), "big")
    new = int.from_bytes(args.translate(table), "big") & mask | int.from_bytes(args, "big") & ~mask
    renumbered = bytearray(len(code))
    renumbered[::2], renumbered[1::2] = ops, new.to_bytes(len(args), "big")
    return bytes(renumbered)


#: The globals of every chain function: a chain body reads builtins
#: only, everything else it uses is a default of its def.
_GLOBALS = {"__builtins__": builtins}

#: The generated module's first lines; chains follow, one blank line
#: before each, the task units last.
_HEADER = (
    '"""Generated by repro.runtime.fastpath: one function per wired',
    "push/pull edge of the router and per compiled task loop.  Do not edit;",
    'reconfigure the router to regenerate.  Dump via router.fastpath.source."""',
)

#: The task units' bodies.  A scalar unit runs the burst in
#: ``run_task``'s order (one frame to its Queue before the next) and
#: counts in a ``finally`` what ``run_task`` counts per packet, so an
#: exception mid-burst leaves its state; a batch unit collects the burst.
_RX_UNIT = """\
    if not _ring:
        return False
    pop, new = _ring.popleft, _P.__new__
    %(hand)s
    n = 0
    try:
        for _ in _burst:
            frame = pop()
            packet = new(_P)  # Packet(frame), slot for slot
            packet._buf = buf = bytearray(%(headroom)d)
            buf += frame
            packet._data_offset = %(headroom)d
            packet._data_cache = frame
            packet.buffer_alignment = packet.paint = 0
            packet.dest_ip_anno = packet.ip_header_offset = packet.timestamp = None
            packet.device_anno = _anno
            packet.fix_ip_src_anno = False
            if frame and not frame[0] & 0x01:
                packet.user_annos = {'packet_type': %(host)r}
            else:
                packet.user_annos = {}
                _cold(packet)
            n += 1
            push(packet)
            if not _ring:
                break
    finally:
        _e.%(count)s += n
    %(done)s"""
_TX_UNIT = """\
    room = _device.%(capacity)s - len(_ring)
    if room <= 0:
        _e.%(full)s += 1
        return False
    pull, append = _e._input_ports[0].pull, _ring.append
    n = 0
    try:
        for _ in _burst:
            if n == room:
                _e.%(full)s += 1
                break
            packet = pull()
            if packet is None:
                break
            data = packet._data_cache
            if data is None:  # Packet.data, without the call
                data = packet._data_cache = bytes(packet._buf[packet._data_offset:])
            append(data)
            n += 1
    finally:
        _e.%(count)s += n
    return n > 0"""
_TX_BATCH_UNIT = """\
    room = _device.%(capacity)s - len(_ring)
    if room > %(burst)d:
        room = %(burst)d
    if room <= 0:
        _e.%(full)s += 1
        return False
    packets = _e._input_ports[0].pull_batch(room)
    if not packets:
        return False
    _ring.extend([packet.data for packet in packets])
    _e.%(count)s += len(packets)
    if len(packets) == room < %(burst)d:  # run_task's next pull finds the ring full
        _e.%(full)s += 1
    return True"""


def compile_chain(lines):
    """One chain's template lines (:attr:`ChainInfo.template` less the
    separator) compiled: its *template code*, numbered from line 1,
    which the chain store keeps under that text
    (:mod:`repro.runtime.codegen_cache`) for every fast path that emits
    it.  A chain runs it filled in with its literals (:func:`_instantiate`)
    and moved to its lines of the whole generated module, so a traceback
    indexes ``FastPath.source``; each placeholder compiles to a constant
    of its own, so the filled code is ``compile()`` of the chain's
    ``source`` instruction for instruction (only the columns of a lifted
    literal's line can differ, by the placeholder's width).  A rules
    patch that changes only literals fills the live template code with
    the new ones and compiles nothing (:meth:`FastPath.stage_rewrite`).  The
    chain, not the module, is the unit of compilation: a chain is
    compiled when a packet first enters it and most never are, an update
    compiles only the live chains it replaces, and ``compile`` keeps
    about 3 kB of working memory per source line until it returns, so a
    module compiled whole would set the process's memory high-water mark
    (16 MB for the plain IP router's 5 200 lines; under 1 MB a chain at
    a time)."""
    return compile("\n".join(lines), "<fastpath>", "exec")


#: What :meth:`_Emission.elide` hands back: the stage is dropped.
_ELIDED = object()


class _Emission:
    """What one chain's code is emitted with: the ``cx`` an element's
    ``segment(self, cold, cx)`` declaration takes.  A segment returns an
    emitter ``emit(var, pad,
    exitstmt) -> lines`` for the packet in local ``var``, leaving on
    ``exitstmt`` when it drops it; ``cold`` is the bound method it
    calls for the rare cases.  It may return None (no inline code for
    this configuration: the chain calls ``cold``) or :meth:`elide`.

    - ``bind(value)`` makes a runtime object a parameter of the chain's
      def, the object its default (:attr:`ChainInfo.defaults`), and
      returns its local name; ``method``,
      ``element``, ``attr``, ``ip``, ``jump_table`` and ``bind_policy``
      bind what they name.
    - ``facts`` is what earlier segments proved for the rest of the
      chain, or None where none are threaded (pull chains): ``data`` and
      ``min_len`` (a local holding the contents and their least
      length), ``dst_raw`` and ``ip_hl`` (locals), ``paint`` and ``off``
      (constants).  A segment reads what it consumes, writes what it
      produces, and removes what it may break.
    - ``prior`` is what the stage just before proved for this one
      alone, whatever ``facts`` holds; a segment writes that into
      ``proved``.
    - ``policy`` is the compile's :class:`ChainPolicy`; ``fresh()``
      names a new local, numbered from 0 in each chain;
      ``literal(value, text)`` writes ``text``, a constant the chain
      compares against (a diagram test's value or mask), lifted out of
      its template, so that a rules patch may change it without changing
      the template;
      ``count(field)`` bumps a report counter.
    - A branching terminal's ``push`` segment returns :meth:`dispatch`:
      it declares how the output port is decided, and the compiler
      decides what becomes of the arms.
    """

    __slots__ = ("fastpath", "policy", "defaults", "facts", "prior", "proved", "fusion")

    def __init__(self, fastpath):
        self.fastpath, self.policy = fastpath, fastpath.policy
        self.defaults = []  # what parameter _xN of the def defaults to, for each N
        self.facts = None
        self.prior = self.proved = {}
        self.fusion = None  # (expanded terminal ids, depth) at the terminal being emitted

    def bind(self, value):
        self.defaults.append(value)
        return "_x%d" % (len(self.defaults) - 1)

    @property
    def params(self):
        """The def's bound parameters, in order."""
        return ["_x%d" % n for n in range(len(self.defaults))]

    method = element = bind

    def attr(self, element, *path):
        value = element
        for name in path:
            value = getattr(value, name)
        return self.bind(value)

    def ip(self, raw):
        """The interned annotation for a raw destination value."""
        return self.bind(_intern_dest_ip(raw))

    def jump_table(self, element, mode):
        """A fresh jump table into ``element``'s output chains, which
        the chain's record keeps (:attr:`ChainInfo.tables`), filled once
        the chain has a record (:meth:`FastPath._fill_table`)."""
        table = []
        self.fastpath._tables.append((table, element, mode))
        return self.bind(table)

    def bind_policy(self, token):
        """The live object behind a policy token."""
        return self.bind(self.policy.resolve(token, self.fastpath.router))

    def fresh(self):
        self.fastpath._ctx_counter += 1
        return "_d%d" % self.fastpath._ctx_counter

    def literal(self, value, text):
        """``text``, the literal for ``value``, lifted out of the chain's
        template: recorded among its literals and written as its
        placeholder, the string literal ``'\\000<index>'``
        (:func:`_instantiate`), until :meth:`FastPath._emit_chain` writes
        ``text`` in its place in the source.  Equal literals share a
        placeholder, as ``compile()`` gives equal constants one slot (a
        literal is bytes or an int, so its value is the key
        ``compile()`` gives it)."""
        literals = self.fastpath._literals
        index = literals.get(value)
        if index is None:
            index = literals[value] = len(literals)
            self.fastpath._literal_texts.append(text)
        return "'\\000%d'" % index

    def expand(self, element, plan, data_var, pad, leaf_render):
        """``plan``'s lines, recorded in :attr:`ChainInfo.diagrams`."""
        inlined = self.fastpath._diagrams
        if (element.name, plan) not in inlined:
            inlined.append((element.name, plan))
        return plan.emit(data_var, pad, leaf_render, self.literal)

    def count(self, field):
        report = self.fastpath.report
        setattr(report, field, getattr(report, field) + 1)

    def elide(self):
        """Drop the stage: the facts prove it does nothing."""
        self.count("elided_elements")
        return _ELIDED

    def dispatch(self, element, site, select, drop, table, mode, speculate, load=None,
                 unset=None, facts=None, tree=None, match=None):
        """The emitter for a branching terminal: ``element`` declares
        how its output port is decided, after binding what that reads.

        - ``site``: ``"classifier"`` or ``"route"``, the policy's name
          for the dispatch (its notes, speculations, miss counters).
        - ``load(var, pad)``: lines that run first, or None.
        - ``unset``: a test that sends the packet to ``drop`` before
          anything is selected, or None.
        - ``select(var, pad, note) -> (lines, pad)``: the lines that set
          ``out`` and the indentation the arms follow at; ``note`` is
          the bound profiling hook to call there, or None.
        - ``drop``: the statement that counts a dropped packet.
        - ``table``: what ``jump_table(element, mode)`` bound.  A
          ``"plain"`` dispatch drops an ``out`` that is None or past the
          outputs; a ``"checked"`` one calls only a wired output.
        - ``speculate(hot, arm) -> (test, body)`` or None: the guard for
          the policy's :meth:`~ChainPolicy.hot_arm`; ``arm(port,
          facts)`` is the fused body of that arm, or None.
        - ``facts``: what the arms may assume, or None.
        - ``tree`` and ``match(data)``: a classifier's decision tree and
          its matcher over a contents local (``load`` fills ``data``).

        The policy's transformations: **diagram expansion** (a tree
        with a plan inlines the plan's byte tests with the arms at its
        leaves, and ``match`` runs under the plan's length gate, whose
        zero-padding the in-bounds tests cannot reproduce), **branch
        order and arm pruning** (a pruned arm stays reachable through
        the table), **dispatch fusion** (an arm whose chain compiles in
        line is an ``if out == i:`` body, not a table call, so the
        forwarding path runs from device to Queue in one frame), the
        **hot-arm guard** (the speculated arm runs first, a miss counter
        on the cold side) and the **profiling note**."""
        fastpath, policy, incoming = self.fastpath, self.policy, self.facts
        stack, depth = self.fusion
        nports = len(element._output_ports)

        def arm(port, arm_facts):
            return fastpath._inline_push_body(
                element, port, self, stack, depth + 1, ctx=dict(arm_facts) if arm_facts else None
            )

        def tail(var, pad, kw):
            head = []
            if mode == "checked":
                call = ["hop = %s[out] if 0 <= out < %d else None" % (table, nports),
                        "if hop is not None:", "    hop(%s)" % var]
            else:
                head = [pad + "%s out is None or out >= %d:" % (kw, nports), pad + "    " + drop]
                kw, call = "elif", ["%s[out](%s)" % (table, var)]
            if kw == "elif":
                head.append(pad + "else:")
                pad += "    "
            return head + [pad + line for line in call]

        plan = policy.classifier_diagram(element) if tree is not None else None
        if plan is not None:
            data = incoming.get("data") if incoming else None
            least = int(incoming.get("min_len", 0)) if data else 0
            leaf_facts = dict(incoming) if data else {}
            leaf_facts["data"], leaf_facts["min_len"] = data or "data", max(least, plan.gate)
            # Leaf bodies are bounded per output, so a tree labelling
            # many leaves with one port does not replicate its chain.
            bodies, per_out, pruned = {}, {}, set()
            for leaf_id, out in plan.leaves():
                if out is None or not 0 <= out < nports:
                    continue
                if not policy.should_fuse(element, out):
                    if out not in pruned:
                        pruned.add(out)
                        self.count("pruned_arms")
                elif per_out.get(out, 0) < 2:
                    body = arm(out, leaf_facts)
                    if body is not None:
                        per_out[out] = per_out.get(out, 0) + 1
                        bodies[leaf_id] = body
            report = fastpath.report
            report.fdd_diagrams += 1
            report.fdd_nodes += plan.nodes
            report.fdd_paths += plan.paths
            report.fdd_tests_saved += plan.loads_saved
            dvar, gate = leaf_facts["data"], plan.gate

            def emit(var, pad, exitstmt):
                def leaf(leaf_id, out, lpad):
                    if out is None or out >= nports:
                        return [lpad + drop]
                    body = bodies.get(leaf_id)
                    return body(var, lpad, exitstmt) if body else [lpad + "%s[%d](%s)" % (table, out, var)]

                lines = load(var, pad) if data is None else []
                if gate and least < gate:
                    lines.append(pad + "if len(%s) >= %d:" % (dvar, gate))
                    lines += self.expand(element, plan, dvar, pad + "    ", leaf)
                    lines += [pad + "else:", pad + "    out = %s" % match(dvar)]
                    return lines + tail(var, pad + "    ", "if")
                return lines + self.expand(element, plan, dvar, pad, leaf)

            return emit
        order = list(policy.branch_order(element, nports))
        bodies = {}
        for i in order:
            if policy.should_fuse(element, i):
                bodies[i] = arm(i, facts)
            else:
                self.count("pruned_arms")
        hot = policy.hot_arm(element, site)
        if hot is not None:
            hot = speculate(hot, arm)
            if hot is not None:
                self.count("guarded_branches")
        note = policy.note(element, site)
        note = self.bind_policy(note) if note is not None else None
        miss = policy.guard_counter(element, site) if hot is not None else None
        miss = self.bind_policy(miss) if miss is not None else None

        def emit(var, pad, exitstmt):
            lines, kw = load(var, pad) if load else [], "if"
            if hot is not None:
                test, body = hot
                lines.append(pad + "if %s:" % test)
                lines += body(var, pad + "    ", exitstmt)
                kw = "elif"
            if unset is not None:
                lines += [pad + "%s %s:" % (kw, unset), pad + "    " + drop]
                kw = "elif"
            if kw == "elif":
                lines.append(pad + "else:")
                pad += "    "
            if miss is not None:
                lines.append(pad + "%s()" % miss)
            selected, pad = select(var, pad, note)
            lines += selected
            kw = "if"
            for i in order:
                if bodies.get(i) is not None:
                    lines.append(pad + "%s out == %d:" % (kw, i))
                    lines += bodies[i](var, pad + "    ", exitstmt)
                    kw = "elif"
            return lines + tail(var, pad, kw)

        return emit

    @staticmethod
    def call(name, var, pad, exitstmt):
        """``var = name(var)``, leaving when that drops the packet."""
        return [pad + "%s = %s(%s)" % (var, name, var), pad + "if %s is None:" % var, pad + "    " + exitstmt]

    @staticmethod
    def contents(var, pad, local="c"):
        """Packet.data into ``local``, without the call when cached."""
        return [
            pad + "%s = %s._data_cache" % (local, var),
            pad + "if %s is None:" % local,
            pad + "    %s = %s.data" % (local, var),
        ]

    @staticmethod
    def prepend(var, pad, header, length):
        """Packet.push(header) with the headroom test unrolled: in place
        when there is room, else the method (which reallocates)."""
        return [
            pad + "off = %s._data_offset" % var,
            pad + "if off >= %s:" % length,
            pad + "    off -= %s" % length,
            pad + "    %s._buf[off:off + %s] = %s" % (var, length, header),
            pad + "    %s._data_offset = off" % var,
            pad + "    %s._data_cache = None" % var,
            pad + "else:",
            pad + "    %s.push(%s)" % (var, header),
        ]


class FastPath:
    """A compiled fast path over one wired router.

    Construction emits nothing: :meth:`install` swaps the fast ports
    in, and a chain is emitted, its own record, and linked when it is
    first entered — compiled unless the chain store holds its text
    (:mod:`repro.runtime.codegen_cache`); :meth:`materialize` enters
    the rest, and inspection (:meth:`chain_for`) only emits records;
    :meth:`stage_rewrite` and :meth:`commit_rewrite` replace the live
    chains an update made stale under the installed functions and leave
    the others to be emitted on first entry; :meth:`uninstall` restores
    the reference interpreter.
    """

    def __init__(self, router, batch=False, policy=None):
        self.router = router
        self.batch = bool(batch)
        self.policy = policy if policy is not None else ChainPolicy()
        if router.meter is not None:
            # Compiled chains would run past the meter's call sites.
            raise FastPathError("a metered router runs the reference interpreter")
        self._saved_ports = None
        self.installed = False
        self._fuse_lowered = False  # is the chain being emitted a task's?
        # (kind, element_name, port) -> ChainInfo, in emission order: the
        # compile units, kept whole so an update can replace one alone.
        # A key an update left waiting for its first entry has none.
        self.chains = {}
        self._compiled = {}  # every key -> (fn, batch_fn_or_None), the objects holders keep
        self._failed = {}  # key of a chain whose entry failed -> what its functions call instead
        self._source = None  # the module text; None until read
        self._ctx_counter = 0  # _dN locals of the chain being emitted
        self._literals = {}  # value it lifted -> its placeholder's index (_Emission.literal)
        self._literal_texts = []  # the text each placeholder's value is written as
        self._diagrams = []  # what the chain being emitted inlined (ChainInfo.diagrams)
        self._held = set()  # what the chain being emitted read (ChainInfo.elements)
        self._tables = []  # the jump tables the chain being emitted binds (ChainInfo.tables)
        report = FastPathReport()
        report.batch = self.batch
        report.policy = self.policy.tag
        self.report = report
        started = time.perf_counter()
        for key, element in self._chain_edges().items():
            self._compiled[key] = self._pending(key, element)
        self._fold_report()
        report.compile_seconds = time.perf_counter() - started

    def function_for(self, key, batch=False):
        """The compiled chain entry point for one edge key
        ``(kind, element_name, port)`` — what the adaptive engine swaps
        into a port's ``push`` slot on tier promotion."""
        compiled = self._compiled.get(key)
        if compiled is None:
            return None
        return compiled[1] if batch else compiled[0]

    # -- tracing ---------------------------------------------------------------

    def _trace_push(self, element, port_index):
        """Follow the push edge out of ``element[port_index]`` through
        every inlineable one-in/one-out element; returns (inlined element
        names, their ``(element, bound cold path, owner)`` triples,
        terminal element, terminal input port).  ``owner`` is the class
        whose segment emits the stage (:func:`_segment_owner`), or None;
        for each stage of a lowered combination element it is the
        general-purpose class the stage stands for, and the cold path is
        the combo's."""
        port = element._output_ports[port_index]
        names, pairs = [], []
        seen = {id(element)}
        current, in_port = port.target, port.target_port
        while True:
            # Entering port 0 of an inlineable element always forwards on
            # output 0 (the simple_action/fast_action contract), whatever
            # its other input ports do — chains entering those ports are
            # compiled separately, so ninputs does not matter here.
            action = inline_action_name(type(current))
            lowered = _lowering(current) if action is None else None
            if (
                (action is None and lowered is None)
                or in_port != 0
                or id(current) in seen
                or not current._output_ports
            ):
                break
            next_port = current._output_ports[0]
            if next_port.target is None:
                break
            seen.add(id(current))
            names.append(current.name)
            if lowered is None:
                pairs.append((current, getattr(current, action), _segment_owner(current, action)))
            else:
                pairs.extend((current, cold, owner) for owner, cold in lowered)
            current, in_port = next_port.target, next_port.target_port
        self._held.update(names, (element.name, current.name))
        return names, pairs, current, in_port

    def _trace_pull(self, element, port_index):
        """Follow the pull edge into ``element[port_index]`` upstream
        through every inlineable element; returns (inlined element
        names, their ``(element, bound action, owner)`` triples, both in
        walk order, terminal element, terminal output port).  Actions
        apply to the pulled packet in *reverse* walk order (nearest the
        terminal first)."""
        port = element._input_ports[port_index]
        names, pairs = [], []
        seen = {id(element)}
        current, out_port = port.source, port.source_port
        while True:
            action = inline_action_name(type(current))
            if (
                action is None
                or out_port != 0
                or id(current) in seen
                or not current._input_ports
            ):
                break
            next_port = current._input_ports[0]
            if next_port.source is None:
                break
            seen.add(id(current))
            names.append(current.name)
            pairs.append((current, getattr(current, action), _segment_owner(current, action)))
            current, out_port = next_port.source, next_port.source_port
        self._held.update(names, (element.name, current.name))
        return names, pairs, current, out_port

    # -- code generation ---------------------------------------------------------

    def _terminal_segment(self, terminal, kind, cx):
        """The segment a chain ending at ``terminal`` runs in place of
        its bound ``push`` / ``pull`` (``kind``), or None.  Only an
        element without an inline action declares one for its push or
        pull: an inlineable element's segment stands for that action."""
        if getattr(terminal, "_fault_wrapped", False) or inline_action_name(type(terminal)):
            return None
        owner = _segment_owner(terminal, kind)
        return owner.segment(terminal, getattr(terminal, kind), cx) if owner else None

    def _push_terminal(self, terminal, terminal_port, cx, stack, depth, ctx):
        """``(emitter, specialized)`` for the push that ends a chain:
        the segment its element declares, else a call of the bound
        ``push``.  A declared push ignores its
        input-port argument, so any entry port may specialize.  ``ctx``
        is the facts established upstream; ``stack`` (expanded terminal
        ids) and ``depth`` bound the dispatch fusion below it (see
        :meth:`_Emission.dispatch`)."""
        cx.facts, cx.fusion = ctx, (stack, depth)
        emit = self._terminal_segment(terminal, "push", cx)
        if emit is not None:
            return emit, True
        t = cx.attr(terminal, "push")
        return (lambda var, pad, exitstmt: [pad + "%s(%d, %s)" % (t, terminal_port, var)]), False

    def _inline_push_body(self, element, port_index, cx, stack, depth, ctx=None):
        """Emitter for the full body of the push chain leaving
        ``element[port_index]``, for fusing into a dispatch site, or
        None when that chain must stay a function call (unwired port, a
        terminal cycle, past the depth limit, or a lowered combination
        element outside a task source's chain).

        The body is the same segments + terminal dispatch the chain's
        standalone function gets, so fusing only removes the call frame;
        bound objects (counters, deques, tables) are shared either way.

        ``ctx`` carries guard-established facts into the segments (a
        local already holding the packet contents and their minimum
        length), letting a guarded hot arm drop loads and bounds checks
        the generic body must keep.
        """
        if depth > 4 or stack is None:
            return None
        port = element._output_ports[port_index]
        if port.target is None:
            return None
        _names, pairs, terminal, terminal_port = self._trace_push(element, port_index)
        if id(terminal) in stack:
            return None
        if not self._fuse_lowered and any(
            inline_action_name(type(inlined)) is None for inlined, _cold, _owner in pairs
        ):
            # A lowered combination element's body is long.  Only the
            # chains packets enter the router on fuse it into their
            # dispatch sites; every other chain reaches it through the
            # jump table, i.e. through the one chain compiled for this
            # edge — a call on a cold path instead of a copy per site.
            return None
        segments = self._compose_segments(pairs, cx, ctx=ctx)
        emit_terminal, _specialized = self._push_terminal(
            terminal, terminal_port, cx, stack | {id(terminal)}, depth, ctx
        )

        def emit(var, pad, exitstmt):
            lines = []
            for seg in segments:
                lines.extend(seg(var, pad, exitstmt))
            lines.extend(emit_terminal(var, pad, exitstmt))
            return lines

        return emit

    def _compose_segments(self, pairs, cx, ctx=None, opaque=None):
        """The inline body of a chain: one code segment per
        traced (element, bound cold path, owner) triple — in the order
        the actions apply to the packet — each the owner's declared
        ``segment`` (:class:`_Emission`), or a call of the bound action
        for an element without one.  ``ctx`` (mutated in place) is the
        facts the segments thread; a bound call may break any of them
        and clears it.  ``opaque`` collects the elements left as bound
        ``simple_action`` calls (see :attr:`FastPathReport.opaque_dispatch`)."""
        segments = []
        cx.proved = {}
        for element, cold, owner in pairs:
            cx.facts, cx.prior, cx.proved = ctx, cx.proved, {}
            seg = owner.segment(element, cold, cx) if owner is not None else None
            if seg is _ELIDED:
                continue
            if seg is not None:
                self.report.specialized_actions += 1
            elif owner is not None and not isinstance(element, owner):
                raise FastPathError("%s lowers to %s, which has no segment" % (element.name, owner.__name__))
            else:
                if ctx:
                    ctx.clear()
                if opaque is not None and inline_action_name(type(element)) == "simple_action":
                    opaque.append(element.name)
                a = cx.method(cold)

                def seg(var, pad, exitstmt, _a=a):
                    return cx.call(_a, var, pad, exitstmt)

            segments.append(seg)
        return segments

    def _emit_push(self, lines, element, port_index):
        # Packets enter the router on a task's chain; see _inline_push_body.
        self._fuse_lowered = element.is_task()
        inlined, pairs, terminal, terminal_port = self._trace_push(element, port_index)
        info = ChainInfo("push", element.name, port_index, inlined, terminal.name, terminal_port)
        fn = info.function_name
        lines.append("")
        lines.append("# %s" % info.describe())
        batch_fn = None
        opaque = []
        cx = _Emission(self)
        ctx = {}
        segments = self._compose_segments(pairs, cx, ctx=ctx, opaque=opaque)
        emit_terminal, specialized = self._push_terminal(
            terminal, terminal_port, cx, frozenset({id(terminal)}), 0, ctx
        )
        if specialized:
            self.report.specialized_terminals += 1
        else:
            opaque.append(terminal.name)
        extra_args = cx.params
        lines.append("def %s(%s):" % (fn, ", ".join(["packet"] + extra_args)))
        for seg in segments:
            lines.extend(seg("packet", "    ", "return"))
        lines.extend(emit_terminal("packet", "    ", "return"))
        if self.batch and element.is_task():
            # Only a task unit ever calls a batch entry point.
            batch_fn = fn + "_batch"
            lines.append(
                "def %s(%s):" % (batch_fn, ", ".join(["packets"] + extra_args))
            )
            lines.append("    for packet in packets:")
            for seg in segments:
                lines.extend(seg("packet", "        ", "continue"))
            lines.extend(emit_terminal("packet", "        ", "continue"))
        info.batch_name = batch_fn
        info.opaque, info.defaults = opaque, tuple(cx.defaults)
        return info

    def _emit_pull(self, lines, element, port_index):
        inlined, pairs, terminal, terminal_port = self._trace_pull(element, port_index)
        info = ChainInfo("pull", element.name, port_index, inlined, terminal.name, terminal_port)
        fn = info.function_name
        # Applied nearest-the-terminal first: reverse of the walk order.
        pairs.reverse()
        lines.append("")
        lines.append("# %s" % info.describe())
        batch_fn = None
        opaque = []
        cx = _Emission(self)
        segments = self._compose_segments(pairs, cx, opaque=opaque)
        emit_terminal = self._terminal_segment(terminal, "pull", cx)
        if emit_terminal is not None:
            self.report.specialized_terminals += 1
        else:
            opaque.append(terminal.name)
            t = cx.attr(terminal, "pull")

            def emit_terminal(var, pad, exitstmt, _t=t, _p=terminal_port):
                return [
                    pad + "%s = %s(%d)" % (var, _t, _p),
                    pad + "if %s is None:" % var,
                    pad + "    " + exitstmt,
                ]

        extra_args = cx.params
        lines.append("def %s(%s):" % (fn, ", ".join(extra_args)))
        lines.extend(emit_terminal("packet", "    ", "return None"))
        for seg in segments:
            lines.extend(seg("packet", "    ", "return None"))
        lines.append("    return packet")
        if self.batch and element.is_task():
            # A pull that comes back None ends the burst (the
            # reference device loop breaks on None whether the
            # queue ran dry or an inlined action dropped).
            batch_fn = fn + "_batch"
            lines.append(
                "def %s(%s):" % (batch_fn, ", ".join(["limit"] + extra_args))
            )
            lines.append("    packets = []")
            lines.append("    append = packets.append")
            lines.append("    while limit > 0:")
            lines.append("        limit -= 1")
            lines.extend(emit_terminal("packet", "        ", "break"))
            for seg in segments:
                lines.extend(seg("packet", "        ", "break"))
            lines.append("        append(packet)")
            lines.append("    return packets")
        info.batch_name = batch_fn
        info.opaque, info.defaults = opaque, tuple(cx.defaults)
        return info

    def _emit_task(self, lines, element, _port):
        """One task element's burst loop as a zero-argument *task
        unit*, from the device segment its ``lowering()`` declares and
        the ring facts its device does.  Only the hand-off — ``push`` /
        ``pull`` / the batch entry of the element's live port 0 — is
        read per burst, so tier swaps and supervisor pins take effect
        by the next burst; the rest is bound once.  The unit counts a
        frame before it hands it on, as ``run_task`` does, so an
        exception from the chain costs that frame and ends the burst."""
        segment, ring = _task_lowering(element)
        name, kind = element.name, segment["ring"]
        info = ChainInfo("task", name, 0, [], kind, 0)
        binds = [("_e", element), ("_ring", getattr(element.device, ring[kind])), ("_burst", range(segment["burst"]))]
        fields = dict(segment, capacity=ring["capacity"])
        if kind == "rx":
            from ..net.packet import DEFAULT_HEADROOM, Packet

            (host, cold), anno = segment["packet_type"], segment["device_anno"]
            binds += [("_P", Packet), ("_cold", cold), ("_anno", getattr(element, anno))]
            hand, done = "push = _e._output_ports[0].push", "return True"
            if self.batch:  # collect, then one batch call
                hand = "packets = []\n    push = packets.append"
                done = "_e._output_ports[0].push_batch(packets)\n    " + done
            body = _RX_UNIT % dict(fields, headroom=DEFAULT_HEADROOM, host=host, hand=hand, done=done)
        else:
            binds.append(("_device", element.device))
            body = (_TX_BATCH_UNIT if self.batch else _TX_UNIT) % fields
        args = ", ".join(local for local, _value in binds)
        lines += ["", "# %s" % info.describe(), "def %s(%s):" % (info.function_name, args)]
        lines.extend(body.split("\n"))
        info.opaque, info.defaults = [], tuple(value for _local, value in binds)
        return info

    def _fold_report(self):
        """Derive the report's content from what this fast path holds:
        every chain record folded in (its lines under the module
        header's), plus what the router's wiring says; the facts of the
        build or update that produced it (:data:`_BUILD_FACTS`) stand.
        Runs at a build (no record yet) and after a structural update;
        a chain is folded in when emitted (:meth:`_install_record`)."""
        report = self.report
        facts = {name: getattr(report, name) for name in _BUILD_FACTS}
        FastPathReport.__init__(report)
        vars(report).update(facts)
        report.source_lines = len(_HEADER)
        report.edges = len(self._compiled)
        for chain in self.chains.values():
            chain.fold_into(report)
        for element in self.router.elements.values():
            wired_outputs = sum(1 for p in element._output_ports if p.target is not None)
            if wired_outputs > 1:
                report.branch_elements += 1
                report.branch_ports += wired_outputs

    def _chain_edges(self):
        """``{chain key: its element}`` for every wired edge, then every
        task element whose loop compiles, in emission order."""
        edges = {}
        for element in self.router.elements.values():
            for port_index, port in enumerate(element._output_ports):
                if port.target is not None:
                    edges["push", element.name, port_index] = element
            for port_index, port in enumerate(element._input_ports):
                if port.source is not None:
                    edges["pull", element.name, port_index] = element
        for element in self.router.tasks:
            if _task_lowering(element):
                edges["task", element.name, 0] = element
        return edges

    def _emit_chain(self, key, element):
        """Emit one chain as a compile unit: its record takes its lines
        (the caller places them in the module, ``offset``), the objects
        it binds and the jump tables among them, the elements it read,
        and what its emitters counted.  Emitters count on the report:
        the counters start from zero for the chain, which takes what its
        emission added, and the totals before it are put back — the
        chain is counted when it is folded in
        (:meth:`ChainInfo.fold_into`).  Its template holds the literals
        it lifted as placeholders, its lines their texts.  An emission
        that raises leaves nothing behind: what it bound is only its
        record's."""
        kind, _name, port_index = key
        lines = []
        self._ctx_counter, self._literals, self._literal_texts, self._diagrams = 0, {}, [], []
        self._held, self._tables = {element.name}, []
        report = self.report
        totals = [getattr(report, name) for name in _CHAIN_COUNTERS]
        for name in _CHAIN_COUNTERS:
            setattr(report, name, 0)
        try:
            chain = getattr(self, "_emit_" + kind)(lines, element, port_index)
            chain.counters = {
                name: getattr(report, name) for name in _CHAIN_COUNTERS if getattr(report, name)
            }
        finally:
            for name, total in zip(_CHAIN_COUNTERS, totals):
                setattr(report, name, total)
        chain.source = chain.template = lines
        chain.literals, chain.diagrams = tuple(self._literals), tuple(self._diagrams)
        chain.elements, chain.tables = frozenset(self._held), tuple(self._tables)
        if chain.literals:
            chain.source = _fill(chain.template, self._literal_texts)
        return chain

    def _batched(self, key, element):
        """Does ``key``'s chain take a batch entry (one a task calls)?"""
        return self.batch and key[0] != "task" and element.is_task()

    def _pending(self, key, element):
        """``key``'s two entry points, as functions that :meth:`_enter`
        its chain when first called (None for no batch entry)."""
        entry = "_" + key[0]
        names = (entry, entry + "_batch" if self._batched(key, element) else None)
        return tuple(
            pending_function(name, _GLOBALS, self._enter, key, slot, True) if name else None
            for slot, name in enumerate(names)
        )

    def _fill_table(self, table, element, mode):
        """Entry i of a terminal jump table is the chain for the
        terminal's output i.  "checked" tables (route tables) drop
        silently on unwired ports, like Element.checked_push; "plain"
        tables fall back to the reference port so misbehavior (pushing
        an unwired port) fails the same way it would have."""
        for port_index, port in enumerate(element._output_ports):
            compiled = self._compiled.get(("push", element.name, port_index))
            if compiled is not None:
                table.append(compiled[0])
            elif mode == "checked":
                table.append(None)
            else:
                table.append(port.push)

    def _code_for(self, chain, store=False):
        """Give ``chain`` its template code: the chain store's for its
        text, else ``compile_chain`` of it — stored there if ``store``
        (a first entry; an update only looks the store up).  Returns
        whether it compiled."""
        lines = chain.template[1:]  # [0] is the blank line that separates chains
        text = "\n".join(lines)
        cache = default_cache()
        chain.code = cache.get(text)
        if chain.code is not None:
            return False
        chain.code = compile_chain(lines)
        if store:
            cache.put(text, chain.code)
        return True

    @staticmethod
    def _link(chain, functions):
        """Make ``functions`` — the objects every holder of the edge
        has — run ``chain``: its template code filled in with its
        literals and moved to its lines (:func:`_instantiate`), and its
        bound objects as their defaults."""
        module = _instantiate(chain.code, chain.literals, chain.offset)
        codes = [const for const in module.co_consts if type(const) is types.CodeType]
        for function, code in zip(filter(None, functions), codes):
            function.__code__, function.__defaults__, function.__kwdefaults__ = code, chain.defaults, None

    def _enter(self, key, slot=0, live=False):
        """A chain's first entry: emit it unless inspection or an update
        did, give it its template code — the chain store's, else
        compiled and stored — and link it under the function objects
        every holder has.  ``live`` (a packet is waiting) contains a
        failure to emit or compile: the report lists it and the pending
        functions call the edge's reference port from then on."""
        functions = self._compiled[key]
        if key in self._failed:
            return self._failed[key][slot]
        started = time.perf_counter()
        try:
            chain = self.chains.get(key) or self._emit_waiting(key)
            if chain.code is None and self._code_for(chain, store=True):
                self.report.compiled_units += 1
            self._link(chain, functions)
        except Exception as exc:  # noqa: BLE001 - must cost the chain, not the router
            if not live:
                raise
            self.report.failed_entries["%s %s[%d]" % key] = "%s: %s" % (type(exc).__name__, exc)
            self._failed[key] = self._reference_entries(key)
            return self._failed[key][slot]
        self.report.compile_seconds += time.perf_counter() - started
        return functions[slot]

    def _emit_waiting(self, key):
        """Emit a chain that waits for its first entry under the live
        policy: placed where no other chain's lines move (after the last
        unless an update left a gap), folded into the report and its
        jump tables filled."""
        chain = self._emit_chain(key, self.router.elements[key[1]])
        taken = sorted((other.offset, other.offset + len(other.source)) for other in self.chains.values())
        chain.offset = self._place(taken, len(chain.source))
        self._install_record(key, chain)
        self.report.emitted_units += 1
        return chain

    def _install_record(self, key, chain):
        """Make ``chain`` the record of ``key``: folded into the report
        and its jump tables filled."""
        chain.fold_into(self.report)
        self.chains[key] = chain
        for table in chain.tables:
            self._fill_table(*table)
        self._source = None

    def _reference_entries(self, key):
        """What the reference interpreter runs for one edge, callable as
        the chain's ``(entry, batch entry)``."""
        kind, name, index = key
        element = self.router.elements[name]
        if kind == "task":
            return types.MethodType(type(element).run_task, element), None
        saved = self._saved_ports or getattr(self.router.fastpath, "_saved_ports", None) or {}
        ports = saved.get(name, (element._output_ports, element._input_ports))
        to = getattr(ports[kind == "pull"][index], kind)
        if kind == "pull":
            return to, lambda limit: list(itertools.islice(iter(to, None), limit))

        def push_each(packets):
            for packet in packets:
                to(packet)

        return to, push_each

    def materialize(self, keys=None):
        """Enter every chain (or just ``keys``) nothing has entered yet,
        emitting those without a record, compiling those whose text the
        chain store lacks and raising what emission or ``compile()``
        raises: the eager build, for tests of the generated code."""
        for key in self._compiled if keys is None else keys:
            if is_pending(self._compiled[key][0]):
                self._enter(key)

    def release(self):
        """Break this retired fast path's reference cycles (a pending
        function holds the fast path that enters it, and a jump table
        the functions whose defaults hold it), so it is freed by
        refcount, not by the collector.  Its chain records stand."""
        if self.installed:
            raise FastPathError("cannot release an installed fast path")
        self._compiled.clear()
        for chain in self.chains.values():
            for table, _element, _mode in chain.tables:
                del table[:]

    # -- updates -------------------------------------------------------------------

    def stage_rewrite(self, policy, changed=frozenset()):
        """Phase one of an update under ``policy``, over the router's
        wiring as it stands: what can fail, and nothing a holder of this
        fast path sees; :meth:`commit_rewrite` installs the result, and
        one that raises leaves nothing to take back.  A chain is stale
        when its record holds an element named in ``changed``
        (:attr:`ChainInfo.elements`) or a plan ``policy`` replaced
        (:attr:`ChainInfo.diagrams`), or a classifier that gains a plan
        under ``policy``: it called that matcher, and is emitted again
        to inline the plan, as one holding a changed element is.  Where only plans moved and keep
        their shapes, the update emits nothing: the chain gets a record
        with their literals (:meth:`ChainInfo.refilled`), keeping its
        bound objects, tables, lines and template code, and if it was
        forwarding its live template code is filled in with them
        (*re-linked*).  Otherwise a stale chain that was forwarding is
        emitted again and given its template code here — the chain
        store's, else compiled (and not stored) — and one nothing
        entered loses its record and waits for its first entry
        (:meth:`_enter`).  An edge the wiring lost is dropped; one it
        gained (or whose element gained or lost its batch entry) gets
        functions that emit its chain when first entered."""
        started = time.perf_counter()
        plans = policy.plans or {}
        gone, added = [], {}  # added: key -> its element
        if changed:
            edges, compiled = self._chain_edges(), self._compiled
            for key, element in edges.items():
                if key not in compiled or (compiled[key][1] is not None) != self._batched(key, element):
                    added[key] = element
            gone = [key for key in compiled if key not in edges or key in added]
        renew = changed | (plans.keys() - (self.policy.plans or {}).keys())
        stale = [key for key, chain in self.chains.items() if key not in gone and (
            chain.elements & renew or any(plans.get(name) is not plan for name, plan in chain.diagrams))]
        refilled, fresh, compiles = {}, {}, 0
        taken = sorted((c.offset, c.offset + len(c.source)) for k, c in self.chains.items() if k not in stale)
        old_policy, self.policy = self.policy, policy
        try:
            for key in stale:
                chain = None if self.chains[key].elements & renew else self.chains[key].refilled(plans)
                if chain is not None:
                    refilled[key] = chain
                elif not is_pending(self._compiled[key][0]):
                    chain = fresh[key] = self._emit_chain(key, self.router.elements[key[1]])
                    chain.offset = self._place(taken, len(chain.source))
                    compiles += self._code_for(chain)
        finally:
            self.policy = old_policy
        return policy, changed, gone, added, stale, refilled, fresh, compiles, started

    def commit_rewrite(self, staged):
        """Phase two: install what :meth:`stage_rewrite` staged, emitting
        and compiling nothing.  The function objects every holder has —
        ports, jump tables, dispatchers, supervisor pins — run each
        replaced chain's new code; every other chain keeps its record,
        functions and code.  No other chain's line numbers move
        (:meth:`_place`).  The report's build facts describe the update."""
        policy, changed, gone, added, stale, refilled, fresh, compiles, started = staged
        self.policy = policy
        report = self.report
        # Each chain the update touched gets another try, and so does one
        # whose emission failed (it has no record).
        retry = set(stale).union(gone, (key for key in self._failed if key not in self.chains or key[1] in changed))
        for key in retry:
            self._failed.pop(key, None)
            report.failed_entries.pop("%s %s[%d]" % key, None)
        for key in gone:
            del self._compiled[key]
        for key in gone + [key for key in stale if key not in refilled]:
            old = self.chains.pop(key, None)
            if old is not None:
                old.fold_into(report, -1)
        for key, element in added.items():
            self._compiled[key] = self._pending(key, element)
        for key, chain in fresh.items():
            self._install_record(key, chain)
            self._link(chain, self._compiled[key])
        for key, chain in refilled.items():
            self.chains[key] = chain
            if not is_pending(self._compiled[key][0]):
                self._link(chain, self._compiled[key])
        self._source = None
        if changed:
            self._fold_report()
        report.compiled_units, report.emitted_units = compiles, len(fresh)
        report.relinked_units = len(refilled)
        report.reused_chains = len(self.chains) - len(fresh) - len(refilled)
        report.compile_seconds = time.perf_counter() - started

    @staticmethod
    def _place(taken, size):
        """The first line of :attr:`source` a chain of ``size`` lines can
        start at without moving another: a run of blank lines between
        the ``(first, end)`` spans in ``taken`` (sorted), else past the
        last.  The span joins ``taken``."""
        start = len(_HEADER) + 1
        for first, end in taken:
            if first - start >= size:
                break
            start = max(start, end)
        taken.append((start, start + size))
        taken.sort()
        return start

    # -- installation -------------------------------------------------------------

    def install(self):
        """Swap in every compiled fast port, and every task unit as its
        element's ``run_task``.  The reference ports are kept aside for
        :meth:`uninstall`."""
        if self.installed:
            return
        saved = {}
        for name, element in self.router.elements.items():
            saved[name] = (element._output_ports, element._input_ports)
            new_outputs = []
            for port_index, port in enumerate(element._output_ports):
                compiled = self._compiled.get(("push", name, port_index))
                if compiled is None:
                    new_outputs.append(port)
                else:
                    new_outputs.append(FastOutputPort(port, *compiled))
            new_inputs = []
            for port_index, port in enumerate(element._input_ports):
                compiled = self._compiled.get(("pull", name, port_index))
                if compiled is None:
                    new_inputs.append(port)
                else:
                    new_inputs.append(FastInputPort(port, *compiled))
            element._output_ports = new_outputs
            element._input_ports = new_inputs
            unit = self._compiled.get(("task", name, 0))
            # Emission does not look at the instance's own run_task (a
            # tier-2 compile finds tier 1's unit there), so a unit may
            # meet an element whose loop was wrapped by hand.
            if unit and _task_lowering(element) and "run_task" not in vars(element):
                element.run_task = unit[0]
        self._saved_ports = saved
        self.installed = True

    def uninstall(self):
        """Restore the reference interpreter's ports and task loops."""
        if not self.installed:
            return
        for name, (outputs, inputs) in self._saved_ports.items():
            element = self.router.elements.get(name)
            if element is not None:
                element._output_ports = outputs
                element._input_ports = inputs
                unit = self._compiled.get(("task", name, 0))
                if unit is not None and vars(element).get("run_task") is unit[0]:
                    del element.run_task
        self._saved_ports = None
        self.installed = False

    # -- debugging ----------------------------------------------------------------

    @property
    def source(self):
        """The generated module of every record (:meth:`records`): each
        chain's lines at its offset, blank lines where a replaced
        chain's were, joined again when next read after an update."""
        if self._source is None:
            lines = list(_HEADER)
            self.records()
            for chain in sorted(self.chains.values(), key=lambda chain: chain.offset):
                lines.extend([""] * (chain.offset - 1 - len(lines)))
                lines.extend(chain.source)
            self._source = "\n".join(lines) + "\n"
        return self._source

    def dump(self, fh):
        """Write the generated module source to a file object."""
        fh.write(self.source)

    def records(self):
        """Every edge's chain record, those that wait emitted (:meth:`chain_for`)."""
        for key in self._compiled:
            self.chain_for(*key)
        return self.chains

    def chain_for(self, kind, element_name, port):
        """The ChainInfo of one edge, or None (debugging aid): emitted if
        it waits, but neither compiled nor linked."""
        key = (kind, element_name, port)
        if key in self._compiled and key not in self.chains and key not in self._failed:
            self._emit_waiting(key)
        return self.chains.get(key)
