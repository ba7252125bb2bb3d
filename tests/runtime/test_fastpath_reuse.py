"""What a build shares and an update keeps (the chains' records:
source, bound objects, jump tables, code objects or their lack, report
counters), counted in ``compile()`` calls: a build compiles nothing, a
chain is compiled when first entered unless the chain store holds its
text, a build that emits a stored text compiles none of it, and a
whole-text hot-swap carries nothing of the old router.  A rules patch
builds nothing: it emits again only the chains it dirtied — of the
plain flavor: the profiled one bakes no rules in and stands — compiles
those of them that were forwarding, and swaps the new code under the
function objects every holder already has; its report
reads as a cold compile's would, and repeated patches hold the fast
path's size where one patch left it.  A structural update rewrites the
live router's stale chains the same way."""

import dis
import gc
import random
import tracemalloc
import traceback
import types
import weakref
from collections import OrderedDict

import pytest

from repro.classifier import compile as matcher_module
from repro.classifier.compile import is_pending
from repro.configs.firewall import firewall_graph, firewall_rule_strings
from repro.control import ControlPlane
from repro.core.toolchain import load_config, save_config
from repro.elements.devices import LoopbackDevice
from repro.elements.hotswap import hotswap
from repro.elements.runtime import Router
from repro.lang.build import parse_graph
from repro.lang.lexer import split_config_args
from repro.runtime import AdaptiveConfig, ExecutionProfile
from repro.runtime import adaptive as adaptive_module
from repro.runtime import fastpath as fastpath_module
from repro.runtime.codegen_cache import default_cache
from repro.runtime.fastpath import FastPath
from repro.sim.testbed import Testbed

from .test_fastpath_lowering import emitted


@pytest.fixture
def compile_calls(monkeypatch):
    """The fast-path compiler's ``compile()`` calls, as a growing list
    of the source texts compiled."""
    calls = []

    def counting(source, *args, **kwargs):
        calls.append(source)
        return compile(source, *args, **kwargs)

    monkeypatch.setattr(fastpath_module, "compile", counting, raising=False)
    return calls


@pytest.fixture
def matcher_compiles(monkeypatch):
    """The classifier matchers' ``compile()`` calls, likewise, from an
    empty matcher memo (it is process-wide, keyed by tree content)."""
    calls = []
    monkeypatch.setattr(matcher_module, "_FUNCTION_CACHE", OrderedDict())

    def counting(source, *args, **kwargs):
        calls.append(source)
        return compile(source, *args, **kwargs)

    monkeypatch.setattr(matcher_module, "compile", counting, raising=False)
    return calls


@pytest.fixture
def rebuilds(monkeypatch):
    """Every ``FastPath`` built, as a growing list."""
    calls = []
    build = FastPath.__init__

    def counting_build(self, *args, **kwargs):
        calls.append(self)
        build(self, *args, **kwargs)

    monkeypatch.setattr(FastPath, "__init__", counting_build)
    return calls


def build(profile):
    """The plain IP router, cold (the default cache is process-wide)."""
    default_cache().clear()
    testbed = Testbed(2)
    router, devices = testbed.build_router(testbed.variant_graph("base"), profile=profile)
    return testbed, router, devices


#: An ``allow`` rule no test frame matches.
UNMATCHED_ALLOW = "allow udp && dst host 192.168.1.9 && dst port 9"


def reshuffled(rules):
    """The firewall's ``allow`` run reversed, with :data:`UNMATCHED_ALLOW`
    added to it: a new table.  The reversal alone gives every packet
    the verdict it had, and a patch to it changes nothing."""
    return rules[:2] + rules[-2:1:-1] + [UNMATCHED_ALLOW] + rules[-1:]


def rules_of(router, name):
    return split_config_args(router.graph.elements[name].config)


def reaching(fastpath, name):
    """The chains of ``fastpath`` that a patch of ``name``'s rules in
    place makes stale: the ones whose emission inlined its diagram."""
    return {key for key, chain in fastpath.chains.items() if any(inlined == name for inlined, _plan in chain.diagrams)}


def functions_of(fastpath):
    return {
        key: fn
        for key, pair in fastpath._compiled.items()
        for fn in pair
        if fn is not None
    }


def scrubbed(report):
    """A compile report less the facts of the build that produced it."""
    build_facts = ("compile_seconds", "reused_chains", "compiled_units", "relinked_units", "emitted_units")
    return {name: value for name, value in report.as_dict().items() if name not in build_facts}


def assert_reports_as_a_cold_compile(router, rebuild):
    """After a rules patch each tier-1 flavor — the plain one rewritten
    in place, the profiled one as it stood — reports what a cold build
    of the patched configuration reports, and what a second build of
    that text does, once every chain of each is emitted."""
    engine = router.engine
    patched = [scrubbed(emitted(flavor).report) for flavor in (engine.tier1, engine.profiled)]
    text = save_config(router.graph)
    default_cache().clear()
    for _build in range(2):
        other = rebuild(load_config(text, "<patched>")).engine
        for flavor, expected in zip((other.tier1, other.profiled), patched):
            assert scrubbed(emitted(flavor).report) == expected


@pytest.mark.parametrize("batch", [False, True], ids=["fdd", "fdd+batch"])
def test_rules_patch_compiles_only_dirty_chains(batch, compile_calls, rebuilds):
    """The count gate: a ``c0`` rules patch on the plain IP router
    whose every chain is forwarding emits and compiles the one chain
    that bakes ``c0``'s tree in — into the plain flavor, rewritten in
    place; the profiled flavor is the object it was — not the module's
    59; it builds no fast path, and says so in a report that otherwise
    reads as a cold compile's."""
    profile = ExecutionProfile.fdd(batch=batch)
    testbed, router, _devices = build(profile)
    engine = router.adaptive
    tier1, profiled = engine.tier1, engine.profiled
    assert not compile_calls  # configure() compiled nothing
    tier1.materialize()
    assert tier1.report.compiled_units == tier1.report.emitted_units == len(tier1.chains) == 59
    # The profiled flavor's chains are the plain ones where they hold
    # no classifier or route dispatch: it finds those texts stored.
    profiled.materialize()
    own = sum(chain.template != tier1.chains[key].template for key, chain in profiled.chains.items())
    assert profiled.report.compiled_units == own and 0 < own < 59 == profiled.report.emitted_units
    assert len(compile_calls) == 59 + own
    dirty = reaching(tier1, "c0")
    assert 1 <= len(dirty) <= 2 < len(tier1.chains)
    # The chains anchored at c0's own outputs start at the port's
    # target and bake in nothing of its tree.
    assert not any(key[1] == "c0" for key in dirty)

    narrowed = rules_of(router, "c0")
    narrowed[0] = "12/0806 20/0001 28/0a000001"
    del compile_calls[:], rebuilds[:]
    report = ControlPlane(router).update_rules("c0", narrowed)

    assert report.kind == "in-place" and not rebuilds
    assert engine.tier1 is tier1
    assert engine.profiled is profiled and profiled.policy.plans is None
    assert len(compile_calls) == len(dirty) and all(text.startswith("# ") for text in compile_calls)
    assert tier1.report.compiled_units == tier1.report.emitted_units == len(dirty)
    assert tier1.report.reused_chains == len(tier1.chains) - len(dirty)
    total = len(tier1.chains)
    assert report.chains_emitted == len(dirty)
    assert report.chains_reused == total - len(dirty)
    assert "%d chain(s) emitted" % len(dirty) in report.format()
    assert "compiled %d of %d chains, %d emitted" % (len(dirty), total, len(dirty)) in tier1.report.format()
    # The dispatchers sample into the flavor that stood.
    for key, state in engine.states.items():
        assert state.prof is profiled.function_for(key) and state.plain is tier1.function_for(key)
    assert_reports_as_a_cold_compile(
        router, lambda graph: testbed.build_router(graph, profile=profile)[0]
    )
    # Each classifier's diagram is emitted once here, so the engine's
    # diagram report must agree with itself.
    diagrams = engine.diagram_report()
    tier1_counts, totals = diagrams["tier1"], diagrams["totals"]
    assert tier1_counts["fdd_diagrams"] == totals["diagrams"] == 2
    assert tier1_counts["fdd_nodes"] == totals["nodes"]
    assert tier1_counts["fdd_paths"] == totals["paths"]


#: Two classifiers in series: ``a``'s jump table holds the chain of the
#: edge into ``b``, so a patch of ``b`` rewrites a chain a table holds.
SERIES = """
src :: PollDevice(eth0);
a :: Classifier(12/0800, -);
b :: Classifier(23/11, -);
q :: Queue(64);
src -> a;
a[0] -> cnt :: Counter -> b;
a[1] -> Discard;
b[0] -> q;
b[1] -> Discard;
q -> ToDevice(eth1);
"""


def codes_of(pair):
    return tuple(fn.__code__ if fn is not None else None for fn in pair)


@pytest.mark.parametrize("batch", [False, True], ids=["fdd", "fdd+batch"])
def test_a_rules_patch_swaps_its_code_under_every_holder(batch, rebuilds):
    """A rules patch on ``b`` rewrites the three chains that inlined its
    diagram — ``src``'s poll chain, ``a[0] -> cnt -> b`` and ``cnt[0] ->
    b`` — in place, re-linked when only the compared value moves
    (``23/11`` to ``23/06``), emitted again when the test's location
    does (to ``22/0006``): each function object stays the one the port
    (here a supervisor's ``fast`` pin), ``a``'s jump tables and the
    dispatcher's ``state.plain`` hold, and runs new code, which forwards
    what the new rules say.  Every other chain keeps its record,
    functions and code objects; nothing is built."""
    default_cache().clear()
    devices = {name: LoopbackDevice(name) for name in ("eth0", "eth1")}
    router = Router(parse_graph(SERIES), devices=devices, profile=ExecutionProfile.fdd(batch=batch))
    engine = router.adaptive
    tier1 = engine.tier1
    tier1.materialize()  # every chain live: each successor is compiled inside the patch
    src = router.find("src")
    poll, arm = ("push", "src", 0), ("push", "a", 0)
    tcp = bytes(12) + b"\x08\x00" + bytes(9) + b"\x06" + bytes(40)
    for sent, (rules, relinked) in enumerate(((["23/06", "-"], 3), (["22/0006", "-"], 0)), 1):
        engine.pin(src, engine.tiers.index("fast"))
        dirty = reaching(tier1, "b")
        assert dirty == {poll, arm, ("push", "cnt", 0)}
        functions, records = dict(tier1._compiled), dict(tier1.chains)
        codes = {key: codes_of(pair) for key, pair in functions.items()}
        tables = [(table, list(table)) for key, chain in records.items() if key not in dirty
                  for table, _element, _mode in chain.tables]
        del rebuilds[:]

        report = ControlPlane(router).update_rules("b", rules)

        assert report.kind == "in-place" and not rebuilds
        assert (report.chains_emitted, report.chains_relinked) == (3 - relinked, relinked)
        assert engine.tier1 is tier1
        for key, pair in tier1._compiled.items():
            assert pair is functions[key]
            chain = tier1.chains[key]
            if key in dirty:
                assert chain is not records[key]
                assert all(new is not old for new, old in zip(codes_of(pair), codes[key]) if old is not None)
                assert [code.co_name for code in codes_of(pair) if code] == [
                    name for name in (chain.function_name, chain.batch_name) if name
                ]
            else:
                assert chain is records[key]
                assert codes_of(pair) == codes[key] and all(
                    new is old for new, old in zip(codes_of(pair), codes[key])
                )
        assert engine.pins[src][0] == 1 and src._output_ports[0].push is functions[poll][0]
        for key in dirty:
            state = engine.states[key]
            assert state.plain is functions[key][0]
            assert state.plain_batch is (functions[key][1] if batch else None)
        # A kept chain keeps its tables, each entry the object it was.
        for table, entries in tables:
            assert len(table) == len(entries) and all(new is old for new, old in zip(table, entries))
        # Every table, kept or bound by a replaced chain, holds the functions.
        live_tables = [table for chain in tier1.chains.values() for table in chain.tables]
        for table, element, _mode in live_tables:
            for port, entry in enumerate(table):
                held = functions.get(("push", element.name, port))
                assert held is None or entry is held[0]
        assert any(element.name == "a" and table[0] is functions[arm][0] for table, element, _mode in live_tables)
        # The new rules run: TCP now leaves on eth1 — through the pin, or
        # (a supervised profile runs the scalar units, so nothing pins a
        # batch unit's port) through the dispatcher.
        if batch:
            engine.unpin()
        devices["eth0"].receive_frame(tcp)
        router.run_tasks(4)
        assert devices["eth1"].transmitted == [tcp] * sent


@pytest.mark.parametrize("batch", [False, True], ids=["fdd", "fdd+batch"])
def test_firewall_rules_patch_reports_as_a_cold_compile(batch):
    """The firewall's diagram is most of its module: the two chains a
    rules patch makes stale carry nearly every counter, the three it
    keeps the rest.  Nothing entered either stale chain, so the patch
    takes both records out of the report; once entered, each is emitted
    and folded back in, and the report reads as a cold compile's."""
    profile = ExecutionProfile.fdd(batch=batch)

    def firewall(graph):
        devices = {name: LoopbackDevice(name) for name in ("eth0", "eth1")}
        return Router(graph, devices=devices, profile=profile)

    default_cache().clear()
    router = firewall(firewall_graph())
    tier1 = emitted(router.engine.tier1)
    stale = reaching(tier1, "fw")
    labels = set(tier1.report.chain_lines)
    rules = firewall_rule_strings()
    report = ControlPlane(router).update_rules("fw", reshuffled(rules))
    assert report.kind == "in-place" and report.chains_reused > 0 and len(stale) == 2
    assert labels - set(tier1.report.chain_lines) == {"%s %s[%d]" % key for key in stale}
    assert tier1.report.fdd_diagrams == 0
    tier1.materialize()
    assert tier1.report.emitted_units == 2
    assert_reports_as_a_cold_compile(router, firewall)


def test_line_numbers_survive_a_dirty_chain_that_grew():
    """Line numbers stay whole-source: a chain whose replacement grew
    past its old lines is placed after the last chain, blank lines stand
    where it was, no other chain moves, and a traceback out of the
    replaced chain — or out of one below the blank lines — still
    indexes ``fastpath.source``."""
    _testbed, router, _devices = build(ExecutionProfile.fdd())
    fastpath = router.adaptive.tier1
    fastpath.materialize()
    before = dict(fastpath.chains)
    (key,) = reaching(fastpath, "c0")
    old = before[key]
    grown = rules_of(router, "c0")
    grown[0] = "12/0806 20/0001 28/0a000001 32/0002"
    ControlPlane(router).update_rules("c0", grown)

    chain = fastpath.chains[key]
    assert len(chain.source) > len(old.source)
    assert chain.offset > max(other.offset for other in before.values())
    assert all(fastpath.chains[other] is record for other, record in before.items() if other != key)
    lines = fastpath.source.split("\n")
    assert not any(lines[old.offset - 1 : old.offset - 1 + len(old.source)])
    assert lines[chain.offset - 1 : chain.offset - 1 + len(chain.source)] == chain.source
    for fn in functions_of(fastpath).values():
        assert lines[fn.__code__.co_firstlineno - 1].startswith("def %s(" % fn.__code__.co_name)
    # Both poll chains read the packet first thing: eth0's is the
    # replaced one, eth1's ends in c1's diagram below the blank lines.
    below = next(key for key, element in fastpath._chain_edges().items()
                 if key[0] == "push" and element._output_ports[key[2]].target.name == "c1")
    assert fastpath.chains[below].offset > old.offset
    for entry in (key, below):
        with pytest.raises(AttributeError) as raised:
            fastpath.function_for(entry)(None)
        frame = traceback.extract_tb(raised.tb)[-1]
        assert frame.name == fastpath.chains[entry].function_name
        assert lines[frame.lineno - 1].strip() == "data = packet._data_cache"


def test_repeated_rules_patches_stay_bounded():
    """300 ``c0`` patches on a router that has forwarded leave tier 1
    the size one patch left it — the objects its chains bind, their jump
    tables and its module text within one replaced chain's worth — and
    ``tracemalloc`` growth from patch 50 to patch 300, with the
    collector off, under 64 KiB.
    The patches cycle through eight rule sets and the plane keeps 16
    reports, so the matcher memo and the plane's history (each bounded
    on its own) are full by patch 50; the engine's deopt log still
    gains one reason a patch.  The matcher memo is process-wide, and
    earlier tests may have filled it to its bound: a hit there moves its
    entry in place, allocating nothing."""
    testbed, router, devices = build(ExecutionProfile.fdd())
    for name, frame in testbed.evaluation_frames(256):
        devices[name].receive_frame(frame)
    router.run_tasks(256)
    tier1 = router.adaptive.tier1
    plane = ControlPlane(router, history=16)
    rules = rules_of(router, "c0")
    (key,) = reaching(tier1, "c0")

    def patch(index):
        rules[0] = "12/0806 20/0001 28/0a0000%02x" % (index % 8 + 1)
        report = plane.update_rules("c0", rules)
        assert report.kind == "in-place"
        # the first narrows c0's ARP arm, the rest move its values
        assert (report.chains_emitted, report.chains_relinked) == ((1, 0) if index == 0 else (0, 1))

    def sizes():
        text = len(tier1.source)  # emits every record first
        chains = tier1.chains.values()
        return sum(len(c.defaults) for c in chains), sum(len(c.tables) for c in chains), text

    tracemalloc.start()
    try:
        patch(0)
        chain = tier1.chains[key]
        assert chain.code is not None  # the chain forwards: every patch re-links its successor
        first = sizes()
        worth = (len(chain.defaults), len(chain.tables), len("\n".join(chain.source)) + 1)
        for index in range(1, 50):
            patch(index)
        gc.collect()
        start = tracemalloc.get_traced_memory()[0]
        for index in range(50, 300):
            patch(index)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024, grown
    for now, then, bound in zip(sizes(), first, worth):
        assert abs(now - then) <= bound, (now, then, bound)


def test_a_compile_that_emits_a_cached_text_shares_it(compile_calls):
    """A route patch changes the graph but not the text compiled for
    it: a fast path built after one emits the same chains, and entering
    them compiles nothing — each record is its own, and runs the template
    code the first fast path compiled and stored, filled in and linked
    over its own bound objects.  Memory stays flat however many patches
    a run applies, and the two report alike."""
    _testbed, router, _devices = build(ExecutionProfile.reference())
    first = FastPath(router)
    assert not first.chains and first.report.emitted_units == first.report.compiled_units == 0
    first.materialize()
    count = len(first.chains)
    assert len(compile_calls) == count
    assert default_cache().stats() == {"entries": count, "hits": 0, "misses": count}
    routes = rules_of(router, "rt")
    ControlPlane(router).update_routes("rt", routes + ["10.9.0.0/16 1"])
    del compile_calls[:]
    second = FastPath(router)
    second.materialize()
    assert scrubbed(second.report) == scrubbed(first.report) and second.source == first.source

    assert second.report.compiled_units == 0 and not compile_calls
    assert default_cache().stats() == {"entries": count, "hits": count, "misses": count}
    first_functions = functions_of(first)
    for key, chain in second.chains.items():
        assert chain is not first.chains[key] and chain.code is first.chains[key].code
        assert not chain.defaults or chain.defaults is not first.chains[key].defaults
    for key, fn in functions_of(second).items():
        assert fn is not first_functions[key] and fn.__code__.co_code == first_functions[key].__code__.co_code


@pytest.mark.parametrize("config", ["iprouter", "firewall"])
def test_a_chain_body_reads_only_builtins(config):
    """A chain's text is a function of the chain alone: everything it
    binds is a default of its def, so its body reads no global but a
    builtin — in every flavor of both stock configurations."""
    from .test_fastpath_lowering import EAGER, warm_firewall, warm_iprouter

    default_cache().clear()
    profile = ExecutionProfile.fdd(config=AdaptiveConfig(**EAGER))
    router = warm_iprouter(profile) if config == "iprouter" else warm_firewall(profile)
    flavors = router.engine.flavors()
    assert len(flavors) == 3
    read = set()

    def globals_read(code):
        read.update(ins.argval for ins in dis.get_instructions(code) if ins.opname in ("LOAD_GLOBAL", "LOAD_NAME"))
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                globals_read(const)

    for flavor in flavors:
        flavor.materialize()
        for function in functions_of(flavor).values():
            assert function.__globals__ is fastpath_module._GLOBALS
            globals_read(function.__code__)
    assert read and read <= {"len", "bytes", "bytearray", "int"}


def warmed_iprouter(profile, frames=2000):
    """The plain IP router under ``profile``, after ``frames`` frames."""
    testbed = Testbed(2)
    router, devices = testbed.build_router(testbed.variant_graph("base"), profile=profile)
    for name, frame in testbed.evaluation_frames(frames):
        devices[name].receive_frame(frame)
    router.run_tasks(frames)
    return testbed, router, devices


def test_two_routers_of_one_text_patch_alike():
    """Records are their fast path's own: the stock ``fdd`` IP router
    built twice in one process, both warmed, takes the same ``c0``
    patch with the same counts, and every chain's inlined plans are its
    own router's — a record the second build shared with the first would
    hold the first router's plans, and a patch that compares plans by
    identity would refill it for nothing."""
    default_cache().clear()
    routers = [warmed_iprouter(ExecutionProfile.fdd())[1] for _ in range(2)]
    counts = []
    for router in routers:
        rules = rules_of(router, "c0")
        rules[0] = "12/0806 20/0001 28/0a000001"
        report = ControlPlane(router).update_rules("c0", rules)
        counts.append((report.chains_emitted, report.chains_relinked, report.chains_reused))
    assert counts[0] == counts[1] == (1, 0, 9)
    for router in routers:
        for flavor in router.engine.flavors():
            plans = flavor.policy.plans or {}
            for chain in flavor.chains.values():
                assert all(plans.get(name) is plan for name, plan in chain.diagrams)


def test_an_identity_hotswap_compiles_nothing_and_rebuilds_no_plan(compile_calls, monkeypatch):
    """A hot-swap of the warmed ``fdd`` IP router to its own
    configuration renews every element, so every chain that was
    forwarding is emitted again — and its text is the one the chain
    store holds since that chain's first entry: no ``compile()``.  Each
    classifier's live tree has its plan's signature, so no plan is built
    again: the plans are the objects they were.  The wire is what a twin
    that was never swapped transmits."""
    built = []
    monkeypatch.setattr(adaptive_module, "build_diagram", lambda *args, **kwargs: built.append(args))
    default_cache().clear()
    testbed, router, devices = warmed_iprouter(ExecutionProfile.fdd())
    _testbed, twin, twin_devices = warmed_iprouter(ExecutionProfile.fdd())
    engine = router.engine
    plans, rebuilds_before = dict(engine.tier1.policy.plans), engine.diagram_rebuilds
    del compile_calls[:]
    for _swap in range(3):
        report = hotswap(router, save_config(router.graph))
        assert report.kind == "scoped-swap" and report.delta == "no changes"
        assert report.chains_emitted > 0 and report.chains_reused == report.chains_relinked == 0
        assert not compile_calls and all(flavor.report.compiled_units == 0 for flavor in engine.flavors())
        assert "compiled 0 of " in engine.tier1.report.format()
    assert not built and engine.diagram_rebuilds == rebuilds_before
    assert all(engine.tier1.policy.plans[name] is plan for name, plan in plans.items())
    traffic = testbed.evaluation_frames(4000)[2000:]
    for plane, rx in ((router, devices), (twin, twin_devices)):
        for name, frame in traffic:
            rx[name].receive_frame(frame)
        plane.run_tasks(2000)
    assert {name: d.transmitted for name, d in devices.items()} == {
        name: d.transmitted for name, d in twin_devices.items()
    }


def test_rules_patches_do_not_grow_the_cache():
    """A rules patch rewrites the plain tier 1 in place and stores
    nothing: the cache holds what the warm router put there however
    many patches land."""
    testbed, router, devices = build(ExecutionProfile.fdd())
    for name, frame in testbed.evaluation_frames(256):
        devices[name].receive_frame(frame)
    router.run_tasks(256)
    held = len(default_cache())
    plane = ControlPlane(router)
    rules = rules_of(router, "c0")
    for host in range(1, 41):
        rules[0] = "12/0806 20/0001 28/0a0000%02x" % host
        assert plane.update_rules("c0", rules).kind == "in-place"
    assert len(default_cache()) == held


def reachable_from(roots):
    """Every object reachable from ``roots``, not descending into
    modules, classes and code (shared by every router)."""
    seen = {}
    frontier = list(roots)
    while frontier:
        obj = frontier.pop()
        if id(obj) in seen or isinstance(obj, (types.ModuleType, type, types.CodeType)):
            continue
        seen[id(obj)] = obj
        frontier.extend(gc.get_referents(obj))
    return seen


def test_scoped_hotswap_rebinds_onto_the_new_router(compile_calls):
    """A whole-text hot-swap renews every element in place: every bound
    object is a new element's, so no replaced element is reachable from
    any flavor's records or functions (in ``fast``, ``fdd`` and
    supervised batched ``fdd``); every chain was stale, so the chains
    that were forwarding are emitted again inside the swap — compiled
    where the edit changed their text (each that reaches ``rt``, whose
    dispatch fuses the edited arm), the rest found in the chain store —
    and the others wait for their first packet."""
    for profile in (ExecutionProfile.fast(), ExecutionProfile.fdd(), ExecutionProfile.fdd(batch=True).with_supervision()):
        _testbed, router, _devices = build(profile)
        flavors = router.engine.flavors()
        for flavor in flavors:
            flavor.materialize()
        graph = router.graph.copy()
        conn = next(c for c in graph.connections if c.from_element == "rt" and c.from_port == 1)
        graph.remove_connection(conn)
        graph.add_element("xcount", "Counter", None)
        graph.add_connection("rt", 1, "xcount", 0)
        graph.add_connection("xcount", 0, conn.to_element, conn.to_port)
        replaced = {id(element) for element in router.elements.values()}
        live = {id(flavor): set(flavor.chains) for flavor in flavors}

        del compile_calls[:]
        report = hotswap(router, graph)
        assert report.kind == "scoped-swap" and report.chains_reused == 0
        assert report.chains_emitted == sum(len(live[id(flavor)] & set(flavor.chains)) for flavor in flavors)
        assert len(compile_calls) == sum(flavor.report.compiled_units for flavor in flavors)
        assert 0 < len(compile_calls) < report.chains_emitted
        assert router.engine.flavors() == flavors
        for flavor in flavors:
            kept = live[id(flavor)] & set(flavor.chains)
            assert not any(is_pending(flavor.function_for(key)) for key in kept)
            reached = reachable_from([flavor.chains, functions_of(flavor)])
            assert id(router) in reached
            assert not set(reached) & replaced, profile


def churn_schedule(graph, count, rng):
    """``count`` pure-data updates ``(element, config_args)`` that leave
    the evaluation traffic's forwarding alone: even ones shuffle the
    route table and append a never-matching /24, odd ones swap (or
    restore) the two ARP arms of an ethernet classifier."""
    routes = split_config_args(graph.elements["rt"].config)
    ports = sorted({route.split()[-1] for route in routes})
    schedule = []
    for index in range(count):
        if index % 2 == 0:
            table = rng.sample(routes, len(routes))
            table.append("203.0.%d.0/24 %s" % (rng.randrange(1, 250), rng.choice(ports)))
            schedule.append(("rt", table))
        else:
            name = "c%d" % (index // 2 % 2)
            rules = split_config_args(graph.elements[name].config)
            if rng.random() < 0.5:
                rules[0], rules[1] = rules[1], rules[0]
            schedule.append((name, rules))
    return schedule


def test_in_place_churn_never_emits_where_hotswaps_do(compile_calls):
    """Why an incremental update beats a full swap, as a count: under
    ``fdd``, 16 seeded route/rule updates through ``ControlPlane`` are
    all patched in place without emitting a chain (a route patch changes
    a table, a rules patch that swaps two arms re-links, and one that
    gives the rules already live is a no-op); the same 16
    installed as whole-text hot-swaps emit again, inside each swap, every
    chain that was forwarding (a swap renews every element, so every
    chain is stale).  Neither compiles: a hot-swapped chain's text is the
    one the chain store holds since its first entry, so the run's only
    compiles are first entries — and both put the same bytes on the
    wire, none dropped by an install."""
    updates, burst = 16, 8
    compiles, emitted, entries, wires = {}, {}, {}, {}
    for path in ("in-place", "hotswap"):
        testbed, router, devices = build(ExecutionProfile.fdd())
        schedule = churn_schedule(router.graph, updates, random.Random(0xC1C0))
        traffic = testbed.evaluation_frames(burst * updates)
        flavors = (router.engine.tier1, router.engine.profiled)
        del compile_calls[:]
        compiles[path] = emitted[path] = 0
        for index, (name, args) in enumerate(schedule):
            for device, frame in traffic[burst * index : burst * (index + 1)]:
                devices[device].receive_frame(frame)
            router.run_tasks(5)
            before = len(compile_calls)
            if path == "in-place":
                plane = ControlPlane(router)
                update = plane.update_routes if name == "rt" else plane.update_rules
                unchanged = name != "rt" and args == rules_of(router, name)
                report = update(name, args)
                assert report.kind == ("no-op" if unchanged else "in-place")
                emitted[path] += report.chains_emitted
            else:
                graph = router.graph.copy()
                graph.elements[name].config = ", ".join(args)
                live = [{key for key, pair in f._compiled.items() if not is_pending(pair[0])} for f in flavors]
                report = hotswap(router, graph)
                assert report.chains_emitted == sum(len(keys) for keys in live)
                emitted[path] += report.chains_emitted
                for keys, flavor in zip(live, flavors):
                    assert not any(is_pending(flavor.function_for(key)) for key in keys)
            compiles[path] += len(compile_calls) - before
        router.run_tasks(64)
        entries[path] = len(compile_calls) - compiles[path]
        wires[path] = {name: [bytes(f) for f in d.transmitted] for name, d in devices.items()}
    assert compiles == {"in-place": 0, "hotswap": 0}
    assert emitted["in-place"] == 0 < emitted["hotswap"]
    assert 0 < entries["in-place"] < 59 and 0 < entries["hotswap"] < 59
    assert wires["in-place"] == wires["hotswap"]
    assert sum(len(frames) for frames in wires["hotswap"].values()) == burst * updates


# -- compile on first entry: the count gates -----------------------------------------


def test_configure_compiles_nothing_and_traffic_compiles_what_it_enters(compile_calls):
    """Plain IP router under ``fdd``: ``configure()`` emits and compiles
    none of its 3 x 59 chains — every flavor's ``chains`` is empty (a
    build emitted all 177 when it emitted every chain at once); a
    2000-frame block each way, promotions included, emits and compiles
    the chains it entered, and tier 2 only the chains promoted onto it;
    ``materialize()`` is the eager build.  Each distinct chain text is
    compiled once: a flavor's chain that holds no specialization of its
    own is another flavor's text, which the chain store holds."""
    testbed, router, devices = build(ExecutionProfile.fdd())
    engine = router.adaptive
    assert not compile_calls
    for flavor in engine.flavors():
        assert len(flavor._compiled) == 59 and not flavor.chains
        assert flavor.report.emitted_units == flavor.report.compiled_units == 0
        # The report says what waits: every edge, for its first entry.
        assert flavor.report.waiting_units == 59
        assert "compiled 0 of 0 chains, 0 emitted, 59 edges wait for a first entry" in flavor.report.format()
    for name, frame in testbed.evaluation_frames(4000):
        devices[name].receive_frame(frame)
    router.run_tasks(4000)
    tier2 = engine.tier2_fp
    assert tier2 is not None and sum(len(d.transmitted) for d in devices.values()) == 4000
    assert set(tier2.chains) == {key for key, state in engine.states.items() if state.tier == 2}
    for flavor in engine.flavors():  # a record is a chain that was entered
        assert flavor.report.emitted_units == len(flavor.chains) > 0
        assert flavor.report.waiting_units == len(flavor._compiled) - len(flavor.chains)
        assert all(chain.code is not None for chain in flavor.chains.values())
    assert sum(len(flavor.chains) for flavor in engine.flavors()) <= 20
    assert 0 < len(compile_calls) <= 20
    assert len(compile_calls) == sum(flavor.report.compiled_units for flavor in engine.flavors())
    for flavor in (engine.tier1, engine.profiled):
        flavor.materialize()
        assert len(flavor.chains) == 59 and all(chain.code is not None for chain in flavor.chains.values())
        assert flavor.report.waiting_units == 0 and "wait" not in flavor.report.format()
    texts = {tuple(chain.template) for flavor in engine.flavors() for chain in flavor.chains.values() if chain.code}
    assert len(compile_calls) == len(set(compile_calls)) == len(texts) < 59 + 59
    assert len(compile_calls) == sum(flavor.report.compiled_units for flavor in engine.flavors())


def test_route_patch_cycles_emit_only_the_chains_promoted_again(compile_calls):
    """Flat memory, as a count: a route patch drops tier 2 and sends
    every chain back to climb, and each re-promotion builds a tier 2
    that emits only the chains promoted onto it (a tier 2 emitted all
    59 when a build emitted every chain at once).  Over 12 cycles of
    route patch -> burst -> re-promotion on the warmed IP router, the
    chains emitted grow by at most the promoted chains a cycle, and the
    cycles compile nothing: the chain store holds every text they emit."""
    from .test_fastpath_lowering import EAGER

    testbed, router, devices = build(ExecutionProfile.fdd(config=AdaptiveConfig(**EAGER)))
    engine, plane = router.adaptive, ControlPlane(router)
    block = testbed.evaluation_frames(512)

    def burst():
        for name, frame in block:
            devices[name].receive_frame(frame)
        router.run_tasks(len(block))

    def emitted():
        return sum(flavor.report.emitted_units for flavor in (engine.tier1, engine.profiled)) + sum(
            tier2.report.emitted_units for tier2 in tiers2)

    burst()
    tiers2 = [engine.tier2_fp]
    assert tiers2[0] is not None
    routes = rules_of(router, "rt")
    del compile_calls[:]
    for cycle in range(12):
        before = emitted()
        report = plane.update_routes("rt", routes + ["203.0.%d.0/24 1" % cycle])
        assert report.kind == "in-place" and engine.tier2_fp is None
        burst()
        tier2 = engine.tier2_fp
        assert tier2 is not None and tier2 not in tiers2
        tiers2.append(tier2)
        promoted = {key for key, state in engine.states.items() if state.tier == 2}
        assert promoted and set(tier2.chains) <= promoted
        assert emitted() - before <= len(promoted), cycle
    assert not compile_calls


def firewall_router(profile):
    default_cache().clear()
    devices = {name: LoopbackDevice(name, tx_capacity=1 << 20) for name in ("eth0", "eth1")}
    return Router(firewall_graph(), devices=devices, profile=profile), devices


def test_a_live_chains_successor_is_compiled_inside_the_update(compile_calls, matcher_compiles, rebuilds):
    """The honesty test for compiling late: a firewall rules patch on a
    router that is forwarding emits and compiles, inside the update, the
    plain flavor's entry chain — real code on the port before the next
    packet — and nothing else.  The profiled flavor walks the live tree,
    so no packet entered ``fw``'s matcher and its successor stays
    pending; the unreachable ``Strip`` chain, which nothing entered,
    loses its record and is not emitted.  It builds no fast path, and
    the packets that follow compile nothing."""
    from .test_fastpath_lowering import firewall_frame

    rules = firewall_rule_strings()
    patched = reshuffled(rules)
    router, devices = firewall_router(ExecutionProfile.fdd())
    for _ in range(256):
        devices["eth0"].receive_frame(firewall_frame())
    router.run_tasks(256)
    assert len(devices["eth1"].transmitted) == 256
    engine = router.adaptive
    tier1, profiled = engine.tier1, engine.profiled
    strip = next(key for key in tier1._compiled if key[0] == "push" and key[1].startswith("Strip"))
    assert "# " + tier1.chain_for(*strip).describe() in tier1.source
    del compile_calls[:], matcher_compiles[:], rebuilds[:]
    report = ControlPlane(router).update_rules("fw", patched)
    assert report.kind == "in-place" and report.chains_emitted == 1 and not rebuilds
    assert tier1.report.emitted_units == tier1.report.compiled_units == 1
    assert tier1.report.relinked_units == 0  # a new rule and a permutation move the diagram's tests
    assert len(compile_calls) == 1 and not matcher_compiles
    assert engine.profiled is profiled
    entry = next(key for key in tier1.chains if key[0] == "push" and key[1].startswith("PollDevice"))
    for flavor in (tier1, profiled):
        assert not is_pending(flavor.function_for(entry)) and flavor.chains[entry].code is not None
    assert strip not in tier1.chains and is_pending(tier1.function_for(strip))
    assert "%s %s[%d]" % strip not in tier1.report.chain_lines
    assert is_pending(router.find("fw").matcher_cell()[0])
    assert engine.states[entry].plain is tier1.function_for(entry)
    assert engine.states[entry].prof is profiled.function_for(entry)
    for _ in range(256):
        devices["eth0"].receive_frame(firewall_frame())
    router.run_tasks(256)
    assert len(devices["eth1"].transmitted) == 512
    assert len(compile_calls) == 1 and not matcher_compiles


def test_a_chain_nothing_entered_is_emitted_by_its_first_packet(compile_calls, matcher_compiles, rebuilds):
    """On a firewall that has forwarded nothing, a rules patch emits and
    compiles nothing: both stale chains wait without a record.  The
    first frame emits the entry chain under the patched rules and
    compiles it, and what it forwards is what the patched rules say —
    a rule that now denies it drops it."""
    from .test_fastpath_lowering import firewall_frame

    router, devices = firewall_router(ExecutionProfile.fdd())
    tier1 = emitted(router.adaptive.tier1)
    entry = next(key for key in tier1.chains if key[0] == "push" and key[1].startswith("PollDevice"))
    lines = tier1.report.source_lines
    del compile_calls[:], matcher_compiles[:], rebuilds[:]
    rules = firewall_rule_strings()
    report = ControlPlane(router).update_rules("fw", reshuffled(rules))
    assert report.kind == "in-place" and report.chains_emitted == 0 and not rebuilds
    assert tier1.report.emitted_units == tier1.report.compiled_units == 0
    assert not compile_calls and not matcher_compiles
    assert entry not in tier1.chains and tier1.report.source_lines < lines
    devices["eth0"].receive_frame(firewall_frame())
    router.run_tasks(1)
    assert len(devices["eth1"].transmitted) == 1
    chain = tier1.chains[entry]
    assert chain.code is not None and not is_pending(tier1.function_for(entry))
    assert tier1.report.emitted_units == 1 and chain.describe() in tier1.source
    # the frame's other compiles are the chains and task units it entered
    # first; a chain compiles its template (its literals placeholders)
    assert [text for text in compile_calls if chain.describe() in text] == ["\n".join(chain.template[1:])]
    assert len(compile_calls) == tier1.report.compiled_units and not matcher_compiles
    # The frame is TCP from port 53: deny TCP first, and the next one drops.
    ControlPlane(router).update_rules("fw", ["deny tcp"] + rules)
    devices["eth0"].receive_frame(firewall_frame())
    router.run_tasks(1)
    assert len(devices["eth1"].transmitted) == 1



def test_a_waiting_chain_that_fails_to_emit_runs_its_reference_port(monkeypatch):
    """A chain a rules patch left waiting is emitted by its first
    packet; an emission that raises there costs the chain, not the
    router: what it bound was only its record's, so nothing of it is
    left (no record, no report lines), the frame is forwarded
    through the reference port — into the chain after it, which that
    emits — the report lists the chain, and the next rules patch lets a
    later packet emit it again."""
    from .test_fastpath_lowering import firewall_frame

    router, devices = firewall_router(ExecutionProfile.fdd())
    tier1 = router.adaptive.tier1
    entry = next(key for key in tier1._compiled if key[0] == "push" and key[1].startswith("PollDevice"))
    rules = firewall_rule_strings()
    ControlPlane(router).update_rules("fw", reshuffled(rules))
    assert entry not in tier1.chains
    real = FastPath._emit_chain

    def emit_chain(self, key, *args):
        chain = real(self, key, *args)
        if key == entry:
            raise RuntimeError("injected emitter bug")
        return chain

    monkeypatch.setattr(FastPath, "_emit_chain", emit_chain)
    devices["eth0"].receive_frame(firewall_frame())
    router.run_tasks(1)
    assert len(devices["eth1"].transmitted) == 1
    assert tier1.report.failed_entries == {"%s %s[%d]" % entry: "RuntimeError: injected emitter bug"}
    # The reference port pushes into Strip, whose waiting chain that
    # entry emits: its record is the only one the frame left.
    strip = ("push", tier1.router.find(entry[1])._output_ports[0].target.name, 0)
    assert entry not in tier1.chains and tier1.chains[strip].code is not None
    assert "%s %s[%d]" % entry not in tier1.report.chain_lines and "%s %s[%d]" % strip in tier1.report.chain_lines
    monkeypatch.setattr(FastPath, "_emit_chain", real)
    ControlPlane(router).update_rules("fw", rules)
    assert not tier1.report.failed_entries
    devices["eth0"].receive_frame(firewall_frame())
    router.run_tasks(1)
    assert len(devices["eth1"].transmitted) == 2 and tier1.chains[entry].code is not None

@pytest.mark.parametrize("mode", ["fast", "adaptive"])
def test_without_a_diagram_the_live_matchers_successor_is_compiled_inside_the_update(
    mode, compile_calls, matcher_compiles
):
    """Where the plain flavor dispatches through ``fw``'s matcher cell
    (``fast``, ``adaptive``), packets enter the matcher, so a rules patch
    compiles its successor inside the update, and no chain: none bakes
    the tree in.  The packets that follow compile nothing."""
    from .test_fastpath_lowering import firewall_frame

    profile = ExecutionProfile.fast() if mode == "fast" else ExecutionProfile.tiered()
    router, devices = firewall_router(profile)
    for _ in range(256):
        devices["eth0"].receive_frame(firewall_frame())
    router.run_tasks(256)
    del compile_calls[:], matcher_compiles[:]
    rules = firewall_rule_strings()
    report = ControlPlane(router).update_rules("fw", reshuffled(rules))
    assert report.kind == "in-place" and report.chains_emitted == 0
    assert not compile_calls and len(matcher_compiles) == 1
    assert not is_pending(router.find("fw").matcher_cell()[0])
    for _ in range(256):
        devices["eth0"].receive_frame(firewall_frame())
    router.run_tasks(256)
    assert len(devices["eth1"].transmitted) == 512
    assert not compile_calls and len(matcher_compiles) == 1


def equivalent(rules):
    """The firewall's rules as another text of the same table: the
    spoofing denies swapped, one written ``drop``, the ``allow`` run
    reversed, its first rule repeated at its end with other spacing."""
    return (
        [rules[1].replace("deny", "drop"), rules[0]]
        + rules[-2:1:-1]
        + [rules[2].replace(" && ", "  &&\t")]
        + rules[-1:]
    )


@pytest.mark.parametrize("mode", ["fast", "fdd"])
def test_an_equivalent_rules_patch_is_a_no_op(mode, compile_calls, matcher_compiles, monkeypatch):
    """A rules patch whose table gives every packet the verdict it had
    changes nothing on a warmed router: it emits no chain, compiles no
    chain and no matcher, and deopts nothing.  The tree and the matcher
    cell are the objects they were, the graph keeps the text the tree
    was built from, and every chain record is a fresh build's."""
    from ..chains import assert_chains_as_fresh
    from .test_fastpath_lowering import firewall_frame

    router, devices = firewall_router(ExecutionProfile.fast() if mode == "fast" else ExecutionProfile.fdd())
    for _ in range(256):
        devices["eth0"].receive_frame(firewall_frame())
    router.run_tasks(256)
    fw, engine, text = router.find("fw"), router.engine, save_config(router.graph)
    tree, cell, matcher, deopts = fw.tree, fw.matcher_cell(), fw.matcher_cell()[0], list(engine.deopts)
    emissions = []
    real = FastPath._emit_chain

    def emit_chain(self, key, *args):
        emissions.append(key)
        return real(self, key, *args)

    monkeypatch.setattr(FastPath, "_emit_chain", emit_chain)
    del compile_calls[:], matcher_compiles[:]
    report = ControlPlane(router).update_rules("fw", equivalent(firewall_rule_strings()))
    assert report.kind == "no-op" and report.elements_patched == 0
    assert not emissions and not compile_calls and not matcher_compiles
    assert engine.deopts == deopts
    assert fw.tree is tree and fw.matcher_cell() is cell and cell[0] is matcher
    assert save_config(router.graph) == text and fw.config_string in text
    monkeypatch.setattr(FastPath, "_emit_chain", real)
    assert_chains_as_fresh(router)
    for _ in range(256):
        devices["eth0"].receive_frame(firewall_frame())
    router.run_tasks(256)
    assert len(devices["eth1"].transmitted) == 512 and not compile_calls and not matcher_compiles


def test_a_rule_moved_across_a_verdict_is_a_new_table():
    """Moving an ``allow`` above the spoofing denies changes a verdict:
    the patch is in place, and a spoofed frame to the mail server that
    the denies dropped is forwarded afterwards, as the reference
    interpreter forwards it."""
    from repro.configs.firewall import MAIL_SERVER
    from repro.net.headers import TCP_SYN, build_tcp_packet

    rules = firewall_rule_strings()
    moved = rules[2:3] + rules[:2] + rules[3:]
    ether = b"\x00\x50\x56\x00\x00\x01\x00\x50\x56\x00\x00\x02\x08\x00"
    spoofed = ether + build_tcp_packet("172.16.0.9", MAIL_SERVER, 3456, 25, TCP_SYN)
    sent = []
    for profile in (ExecutionProfile.fdd(), ExecutionProfile.reference()):
        router, devices = firewall_router(profile)
        for patch in (None, moved):
            if patch is not None:
                assert ControlPlane(router).update_rules("fw", patch).kind == "in-place"
            for _ in range(8):
                devices["eth0"].receive_frame(spoofed)
            router.run_tasks(8)
        sent.append(devices["eth1"].transmitted)
    assert sent[0] == sent[1] and len(sent[0]) == 8


def test_an_ip_router_rules_patch_costs_one_chain_and_one_small_matcher(compile_calls, matcher_compiles):
    """The IP router's side of the same gates: a ``c0`` patch after
    traffic that swaps its two ARP arms changes only the values the
    diagram compares, so under ``fdd`` it emits nothing and compiles
    nothing: the one chain whose diagram bakes ``c0``'s tree in is
    re-linked, its live template code filled with the new literals —
    and no matcher, which only the profiled flavor's samples would have
    called.  Under ``adaptive`` it costs one small matcher, whose chains
    call ``c0``'s cell (a screenful, not the firewall's 179 lines), and
    no chain.  Either way the next 256 frames compile nothing."""
    for profile, chains, matchers in ((ExecutionProfile.fdd(), 1, 0), (ExecutionProfile.tiered(), 0, 1)):
        testbed, router, devices = build(profile)
        engine = router.adaptive
        traffic = testbed.evaluation_frames(512)
        for name, frame in traffic[:256]:
            devices[name].receive_frame(frame)
        router.run_tasks(256)
        swapped = rules_of(router, "c0")
        swapped[0], swapped[1] = swapped[1], swapped[0]
        del compile_calls[:], matcher_compiles[:]
        report = ControlPlane(router).update_rules("c0", swapped)
        assert report.kind == "in-place" and report.chains_emitted == 0
        assert report.chains_relinked == chains
        if chains:  # a rewrite's report describes the patch
            assert engine.tier1.report.relinked_units == chains
            assert engine.tier1.report.compiled_units == engine.tier1.report.emitted_units == 0
            assert "%d re-linked" % chains in engine.tier1.report.format()
        assert not compile_calls and len(matcher_compiles) == matchers
        assert all(source.count("\n") <= 20 for source in matcher_compiles)
        for name, frame in traffic[256:]:
            devices[name].receive_frame(frame)
        router.run_tasks(256)
        assert sum(len(d.transmitted) for d in devices.values()) == 512
        assert not compile_calls and len(matcher_compiles) == matchers


#: ``c0``'s first arm narrowed to two sender words, then patched: a
#: value moved (a re-link), a test's location moved with the length gate
#: standing (24 -> 16), and the gate moved with a location (28 -> 32).
NARROWED = "12/0806 20/0001 24/0a000001 28/0a000002"
VALUES_MOVED = "12/0806 20/0001 24/0b000001 28/0a000003"
LOCATION_MOVED = "12/0806 20/0001 16/0b000001 28/0a000003"
GATE_MOVED = "12/0806 20/0001 16/0b000001 32/0a000003"


def test_a_value_only_patch_relinks_and_compiles_nothing(compile_calls, matcher_compiles, rebuilds):
    """The count gate for re-linking: after 256 frames under ``fdd``, a
    ``c0`` patch that changes only the values its diagram compares
    emits nothing and compiles nothing: the one chain that bakes
    ``c0``'s tree in is re-linked — the live chain's template code,
    filled with the new literals — and the next 256 frames compile
    nothing on tier 1.  A patch that adds a test, moves a test's
    location or moves the length gate changes the plan's shape, and
    emits and compiles."""
    testbed, router, devices = build(ExecutionProfile.fdd())
    traffic = testbed.evaluation_frames(512)
    for name, frame in traffic[:256]:
        devices[name].receive_frame(frame)
    router.run_tasks(256)
    tier1 = router.engine.tier1
    (key,) = reaching(tier1, "c0")
    rules = rules_of(router, "c0")
    plane = ControlPlane(router)

    def patch(first, compiled):
        rules[0] = first
        gate = tier1.policy.plans["c0"].gate
        del compile_calls[:], rebuilds[:]
        report = plane.update_rules("c0", rules)
        assert report.kind == "in-place" and not rebuilds
        assert (report.chains_emitted, report.chains_relinked) == (compiled, 1 - compiled)
        assert tier1.report.emitted_units == tier1.report.compiled_units == compiled
        assert tier1.report.relinked_units == 1 - compiled and len(compile_calls) == compiled
        return tier1.chains[key], gate != tier1.policy.plans["c0"].gate

    narrowed, _gate_moved = patch(NARROWED, 1)
    relinked, gate_moved = patch(VALUES_MOVED, 0)
    assert not gate_moved and relinked.template is narrowed.template and relinked.code is narrowed.code
    consts = tier1.function_for(key).__code__.co_consts  # the live function runs the new literals
    assert all(value in consts for value in relinked.literals)
    assert relinked.literals != narrowed.literals and relinked.source != narrowed.source
    assert "1 re-linked" in tier1.report.format()
    for name, frame in traffic[256:]:
        devices[name].receive_frame(frame)
    router.run_tasks(256)
    assert sum(len(device.transmitted) for device in devices.values()) == 512
    assert not compile_calls and not matcher_compiles and tier1.report.compiled_units == 0
    located, gate_moved = patch(LOCATION_MOVED, 1)
    assert not gate_moved and located.template != relinked.template
    _gated, gate_moved = patch(GATE_MOVED, 1)
    assert gate_moved


@pytest.mark.parametrize("profile", [ExecutionProfile.fast(), ExecutionProfile.tiered()], ids=["fast", "adaptive"])
def test_without_a_diagram_a_value_only_patch_costs_what_it_did(profile, compile_calls, matcher_compiles):
    """Without a diagram no chain bakes ``c0``'s rules in: each patch,
    a value edit or not, re-links and compiles no chain, and costs one
    matcher."""
    testbed, router, devices = build(profile)
    traffic = testbed.evaluation_frames(768)
    rules = rules_of(router, "c0")
    for index, first in enumerate((NARROWED, VALUES_MOVED)):
        for name, frame in traffic[256 * index : 256 * (index + 1)]:
            devices[name].receive_frame(frame)
        router.run_tasks(256)
        del compile_calls[:], matcher_compiles[:]
        rules[0] = first
        report = ControlPlane(router).update_rules("c0", rules)
        assert report.kind == "in-place" and report.chains_emitted == 0
        flavors = [router.fastpath] if router.engine is None else router.engine.flavors()
        assert all(flavor.report.relinked_units == 0 for flavor in flavors if flavor is not None)
        assert not compile_calls and len(matcher_compiles) == 1


def test_a_rules_patch_frees_its_donors_without_the_collector():
    """A fast path is cyclic garbage (a pending function holds the fast
    path that enters it, and a jump table the functions whose defaults
    hold it): a rules patch releases the tier 2 it
    drops, and the replaced chain's functions take the new chain's
    defaults — so tier 2, its functions and what only the replaced
    chain bound go by refcount; the bench harness disables the
    collector around its windows.  Tier 1 and the profiled flavor are
    the objects they were."""
    testbed, router, devices = build(ExecutionProfile.fdd(config=AdaptiveConfig(threshold=64, min_samples=8, sample=4)))
    engine = router.adaptive
    for name, frame in testbed.evaluation_frames(512):
        devices[name].receive_frame(frame)
    router.run_tasks(512)
    tier1, profiled, tier2 = engine.tier1, engine.profiled, engine.tier2_fp
    assert tier2 is not None
    (key,) = reaching(tier1, "c0")
    gc.collect()
    gc.disable()
    try:
        retired = [weakref.ref(tier2)]
        # a function's globals is its fast path's namespace
        retired += [weakref.ref(tier2.function_for(entry)) for entry in list(tier2.chains)[:3]]
        # a bound method is made per bind, so the replaced chain's are its own
        bound = list(tier1.chains[key].defaults)
        retired += [weakref.ref(value) for value in bound if isinstance(value, types.MethodType)]
        assert len(retired) > 4
        del tier2, bound
        narrowed = rules_of(router, "c0")
        narrowed[0] = "12/0806 20/0001 28/0a000001"
        ControlPlane(router).update_rules("c0", narrowed)
        assert [ref() for ref in retired] == [None] * len(retired)
        assert engine.tier1 is tier1 and engine.profiled is profiled
    finally:
        gc.enable()
