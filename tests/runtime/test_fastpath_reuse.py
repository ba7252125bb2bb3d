"""What a scoped rebuild carries across a donor splice (the chains'
records: source, binds, jump tables, code objects, report counters),
counted in ``compile()`` calls: a rules patch compiles only the chains
it dirtied, whether the donor came from a fresh compile or a cache
replay, its report reads as a cold compile's would, and a splice onto
another router carries nothing of the old one."""

import gc
import random
import traceback
import types

import pytest

from repro.configs.firewall import firewall_graph, firewall_rule_strings
from repro.control import ControlPlane
from repro.core.toolchain import load_config, save_config
from repro.elements.devices import LoopbackDevice
from repro.elements.hotswap import hotswap
from repro.elements.runtime import Router
from repro.lang.lexer import split_config_args
from repro.runtime import ExecutionProfile
from repro.runtime import fastpath as fastpath_module
from repro.runtime.codegen_cache import CodegenCache, default_cache
from repro.runtime.fastpath import FastPath
from repro.sim.testbed import Testbed


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


def build(profile):
    """The plain IP router, cold (the default cache is process-wide)."""
    default_cache().clear()
    testbed = Testbed(2)
    router, devices = testbed.build_router(testbed.variant_graph("base"), profile=profile)
    return testbed, router, devices


def rules_of(router, name):
    return split_config_args(router.graph.elements[name].config)


def reaching(fastpath, name):
    """The chains of ``fastpath`` that are emitted again when ``name``
    is patched in place: the ones that can touch it from their port's
    far end on."""
    reach = fastpath._stale_reach({name})
    return {key for key, _anchor, far in fastpath._chain_edges() if far.name in reach[key[0]]}


def functions_of(fastpath):
    return {
        key: fn
        for key, pair in fastpath._compiled.items()
        for fn in pair
        if fn is not None
    }


def scrubbed(report):
    """A compile report less the facts of the build that produced it."""
    build_facts = ("cache_hit", "compile_seconds", "reused_chains", "compiled_units")
    return {name: value for name, value in report.as_dict().items() if name not in build_facts}


def assert_reports_as_a_cold_compile(router, rebuild):
    """After a splice each tier-1 flavor reports what a cold compile of
    the patched configuration reports, and what a cache replay of that
    one does."""
    engine = router.engine
    spliced = [scrubbed(flavor.report) for flavor in (engine.tier1, engine.profiled)]
    text = save_config(router.graph)
    default_cache().clear()
    for cache_hit in (False, True):
        other = rebuild(load_config(text, "<patched>")).engine
        for flavor, expected in zip((other.tier1, other.profiled), spliced):
            assert flavor.report.cache_hit is cache_hit
            assert scrubbed(flavor.report) == expected


def assert_spliced_from(donor, fastpath, dirty):
    """Every chain outside ``dirty`` runs the donor's code: the donor's
    own record where its line offset stood, a copy with the same
    bytecode where it was re-based."""
    donor_functions = functions_of(donor)
    spliced = 0
    for key, fn in functions_of(fastpath).items():
        if key in dirty:
            continue
        chain, donor_chain = fastpath.chains[key], donor.chains[key]
        offset, donor_offset = chain.offset, donor_chain.offset
        assert (chain.code is donor_chain.code) == (offset == donor_offset), key
        assert (chain is donor_chain) == (
            offset == donor_offset and chain.tables == donor_chain.tables
        ), key
        assert chain.source is donor_chain.source
        assert fn.__code__.co_code == donor_functions[key].__code__.co_code, key
        assert fn.__code__.co_firstlineno - donor_functions[key].__code__.co_firstlineno == (
            offset - donor_offset
        )
        spliced += 1
    assert spliced


@pytest.mark.parametrize("batch", [False, True], ids=["fdd", "fdd+batch"])
def test_rules_patch_compiles_only_dirty_chains(batch, compile_calls):
    """The count gate: a ``c0`` rules patch on the plain IP router
    compiles the one chain per flavor that bakes ``c0``'s tree in, not
    the module's 55 — and says so in a report that otherwise reads as
    a cold compile's."""
    profile = ExecutionProfile.fdd(batch=batch)
    testbed, router, _devices = build(profile)
    engine = router.adaptive
    donors = (engine.tier1, engine.profiled)
    dirty = reaching(engine.tier1, "c0")
    assert 1 <= len(dirty) <= 2 < len(engine.tier1.chains)
    # The chains anchored at c0's own outputs start at the port's
    # target and bake in nothing of its tree.
    assert not any(key[1] == "c0" for key in dirty)

    narrowed = rules_of(router, "c0")
    narrowed[0] = "12/0806 20/0001 28/0a000001"
    del compile_calls[:]
    report = ControlPlane(router).update_rules("c0", narrowed)

    assert report.kind == "in-place"
    flavors = (engine.tier1, engine.profiled)
    chain_units = [text for text in compile_calls if text.startswith("# ")]
    assert len(chain_units) == 2 * len(dirty)
    for donor, flavor in zip(donors, flavors):
        assert flavor is not donor and not flavor.report.cache_hit
        assert flavor.report.compiled_units == len(dirty)
        assert flavor.report.reused_chains == len(flavor.chains) - len(dirty)
        assert_spliced_from(donor, flavor, dirty)
    assert report.chains_recompiled == 2 * len(dirty)
    assert report.chains_reused == 2 * (len(engine.tier1.chains) - len(dirty))
    assert "%d chain(s) recompiled" % (2 * len(dirty)) in report.format()
    assert "%d units compiled" % len(dirty) in engine.tier1.report.format()
    assert_reports_as_a_cold_compile(
        router, lambda graph: testbed.build_router(graph, profile=profile)[0]
    )
    # Each classifier's diagram is emitted once here, so the engine's
    # diagram report must agree with itself.
    diagrams = engine.diagram_report()
    tier1, totals = diagrams["tier1"], diagrams["totals"]
    assert tier1["fdd_diagrams"] == totals["diagrams"] == 2
    assert tier1["fdd_nodes"] == totals["nodes"]
    assert tier1["fdd_paths"] == totals["paths"]


@pytest.mark.parametrize("batch", [False, True], ids=["fdd", "fdd+batch"])
def test_firewall_rules_patch_reports_as_a_cold_compile(batch):
    """The firewall's diagram is most of its module: the two chains a
    rules patch emits again carry nearly every counter, the three it
    splices the rest."""
    profile = ExecutionProfile.fdd(batch=batch)

    def firewall(graph):
        devices = {name: LoopbackDevice(name) for name in ("eth0", "eth1")}
        return Router(graph, devices=devices, profile=profile)

    default_cache().clear()
    router = firewall(firewall_graph())
    rules = firewall_rule_strings()
    report = ControlPlane(router).update_rules("fw", rules[:2] + rules[-2:1:-1] + rules[-1:])
    assert report.kind == "in-place" and report.chains_reused > 0
    assert_reports_as_a_cold_compile(router, firewall)


def test_line_numbers_survive_a_dirty_chain_that_grew():
    """Line numbers stay whole-source: a spliced chain below a dirty
    chain whose length changed is re-based, and its traceback still
    indexes ``fastpath.source``."""
    _testbed, router, _devices = build(ExecutionProfile.fdd())
    engine = router.adaptive
    donor = engine.tier1
    grown = rules_of(router, "c0")
    grown[0] = "12/0806 20/0001 28/0a000001 32/0002"
    ControlPlane(router).update_rules("c0", grown)
    fastpath = engine.tier1

    moved = [
        key
        for key in fastpath.chains
        if key in donor.chains
        and fastpath.chains[key].offset != donor.chains[key].offset
        and fastpath.report.chain_lines["%s %s[%d]" % key]
        == donor.report.chain_lines["%s %s[%d]" % key]
    ]
    assert moved, "the patch did not move any spliced chain"
    lines = fastpath.source.split("\n")
    for key, fn in functions_of(fastpath).items():
        assert lines[fn.__code__.co_firstlineno - 1].startswith("def %s(" % fn.__name__)
    # eth1's poll chain ends in c1's diagram, below the chain that
    # grew, and reads the packet first thing.
    key = next(key for key, _anchor, far in fastpath._chain_edges() if far.name == "c1")
    assert key in moved
    with pytest.raises(AttributeError) as raised:
        fastpath.function_for(key)(None)
    frame = traceback.extract_tb(raised.tb)[-1]
    assert lines[frame.lineno - 1].strip() == "data = packet._data_cache"


@pytest.mark.parametrize("origin", ["replayed"])  # the id the test floor lists it under
def test_cached_fast_paths_are_donors(origin, compile_calls):
    """A fast path replayed from the cache hands its chains to a scoped
    rebuild like a freshly compiled one: nothing it carries is compiled
    again, and its report is the fresh compile's."""
    _testbed, router, _devices = build(ExecutionProfile.reference())
    cache = CodegenCache()
    fresh = FastPath(router, cache=cache)
    assert fresh.report.compiled_units == len(fresh.chains)
    del compile_calls[:]
    donor = FastPath(router, cache=cache)
    assert donor.report.cache_hit and donor.report.compiled_units == 0
    assert not compile_calls
    assert donor.chains == fresh.chains  # the very records
    assert scrubbed(donor.report) == scrubbed(fresh.report)

    dirty = reaching(donor, "c0")
    del compile_calls[:]
    router._fastpath_reuse = {"patched": {"c0"}, "fastpaths": [donor]}
    try:
        spliced = FastPath(router)
    finally:
        del router._fastpath_reuse
    assert len(compile_calls) == spliced.report.compiled_units == len(dirty)
    assert spliced.report.source_lines == fresh.report.source_lines
    assert_spliced_from(donor, spliced, dirty)


def test_a_compile_that_emits_a_cached_text_shares_it(compile_calls):
    """A route patch changes the graph (so the cache key) but not the
    text compiled for it: a tier 2 rebuilt after one shares the cached
    entry's lines and code objects instead of holding a copy per patch
    — memory stays flat however many patches a run applies."""
    _testbed, router, _devices = build(ExecutionProfile.reference())
    cache = CodegenCache()
    first = FastPath(router, cache=cache)
    routes = rules_of(router, "rt")
    ControlPlane(router).update_routes("rt", routes + ["10.9.0.0/16 1"])
    del compile_calls[:]
    second = FastPath(router, cache=cache)

    assert not second.report.cache_hit and len(cache) == 2
    assert second.report.compiled_units == 0 and not compile_calls
    assert second.source is first.source
    for key, chain in second.chains.items():
        assert chain is first.chains[key]
    donor_functions = functions_of(first)
    for key, fn in functions_of(second).items():
        assert fn.__code__ is donor_functions[key].__code__
        assert fn.__globals__ is second._namespace


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


def test_scoped_hotswap_rebinds_onto_the_new_router():
    """Across routers only source, recipes and code are carried: every
    bind is resolved again, so nothing of the old router is reachable
    from the new fast path's namespace."""
    _testbed, old, _devices = build(ExecutionProfile.fast())
    donor = old.fastpath
    graph = old.graph.copy()
    conn = next(c for c in graph.connections if c.from_element == "rt" and c.from_port == 1)
    graph.remove_connection(conn)
    graph.add_element("xcount", "Counter", None)
    graph.add_connection("rt", 1, "xcount", 0)
    graph.add_connection("xcount", 0, conn.to_element, conn.to_port)
    old_objects = {id(old): old}
    old_objects.update((id(element), element) for element in old.elements.values())

    result = hotswap(old, graph)
    new = result.router
    fastpath = new.fastpath
    assert result.report.kind == "scoped-swap"
    assert 0 < fastpath.report.compiled_units < len(fastpath.chains)
    assert result.report.chains_recompiled == fastpath.report.compiled_units
    assert result.report.chains_reused == fastpath.report.reused_chains
    dirty = {
        key
        for key, chain in fastpath.chains.items()
        if key not in donor.chains or chain.function_name != donor.chains[key].function_name
    }
    assert len(dirty) == fastpath.report.compiled_units
    assert_spliced_from(donor, fastpath, dirty)
    reached = reachable_from(fastpath._namespace.values())
    assert id(new) in reached
    assert not set(reached) & set(old_objects)


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


def test_in_place_churn_never_compiles_where_hotswaps_do(compile_calls):
    """Why an incremental update beats a full swap, as a count: 16
    seeded route/rule updates through ``ControlPlane`` are all patched
    in place without one ``compile()``; the same 16 installed as
    hot-swaps compile every chain they report recompiled — and put the
    same bytes on the wire, none dropped by an install."""
    updates, burst = 16, 8
    compiles, wires, recompiled = {}, {}, 0
    for path in ("in-place", "hotswap"):
        testbed, router, devices = build(ExecutionProfile.fast())
        schedule = churn_schedule(router.graph, updates, random.Random(0xC1C0))
        traffic = testbed.evaluation_frames(burst * updates)
        del compile_calls[:]
        for index, (name, args) in enumerate(schedule):
            for device, frame in traffic[burst * index : burst * (index + 1)]:
                devices[device].receive_frame(frame)
            router.run_tasks(5)
            if path == "in-place":
                plane = ControlPlane(router)
                update = plane.update_routes if name == "rt" else plane.update_rules
                assert update(name, args).kind == "in-place"
            else:
                graph = router.graph.copy()
                graph.elements[name].config = ", ".join(args)
                result = hotswap(router, graph)
                router = result.router
                recompiled += result.report.chains_recompiled
        router.run_tasks(64)
        compiles[path] = len(compile_calls)
        wires[path] = {name: [bytes(f) for f in d.transmitted] for name, d in devices.items()}
    assert compiles == {"in-place": 0, "hotswap": recompiled} and recompiled > 0
    assert wires["in-place"] == wires["hotswap"]
    assert sum(len(frames) for frames in wires["hotswap"].values()) == burst * updates
