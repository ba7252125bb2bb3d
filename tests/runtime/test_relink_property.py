"""Property test: a re-linked chain is what emitting and compiling it
would give.

A rules patch whose new diagram plan has the shape of the one a live
chain inlined — only the values it compares changed — emits nothing
and compiles nothing: the chain gets a new record with the plan's
literals, and its code is its template code filled in with them
(:meth:`FastPath.stage_rewrite`).  Here each such chain's ``source`` is
compared with a fresh emission's, and every live chain's functions
after each seeded value edit, re-linked or compiled, with
``compile()`` of its ``source``, instruction by instruction: opname,
argument value and its type, and line number, and the code objects'
``co_names``, ``co_varnames``, ``co_argcount`` and bytecode; each
function's defaults are the chain's bound objects.  Placeholder
width can move the column offsets inside a lifted test, so columns are
not compared; line numbers must match exactly.  A patch that moves a
test's location, the length gate or a leaf emits and compiles, and a
plan past the node budget falls back to the matcher emission.

Cases: the stock IP router and firewall, and seeded ``genconfig`` cases
with a classifier, under ``fdd``, each forwarded
through its own traffic and then patched with seeded value edits
(:func:`repro.verify.gentraffic.value_edit_text`)."""

import dis
import random
import types

import pytest

from repro.classifier.compile import is_pending
from repro.configs.firewall import firewall_config, firewall_rule_strings
from repro.control import ControlPlane
from repro.core.toolchain import load_config, save_config
from repro.elements.devices import LoopbackDevice
from repro.elements.runtime import Router, build_router
from repro.events import apply
from repro.lang.build import parse_graph
from repro.lang.lexer import split_config_args
from repro.runtime import ExecutionProfile
from repro.runtime.codegen_cache import default_cache
from repro.runtime.fastpath import _instantiate
from repro.sim.testbed import Testbed
from repro.verify.genconfig import generate_case
from repro.verify.gentraffic import firewall_events, value_edit_text
from repro.verify.oracle import device_names

SEED = 3907


def instructions(code):
    """What must match, per instruction: a nested code object by name
    (its own instructions are compared in turn)."""
    return [
        (
            instruction.opname,
            instruction.argval.co_name if isinstance(instruction.argval, types.CodeType) else instruction.argval,
            type(instruction.argval),
            line_of(instruction),
        )
        for instruction in dis.get_instructions(code)
    ]


def line_of(instruction):
    """Its line number; before Python 3.11, ``starts_line``, set on a
    line's first instruction only."""
    positions = getattr(instruction, "positions", None)
    return instruction.starts_line if positions is None else positions.lineno


def assert_same_code(code, expected, where):
    assert instructions(code) == instructions(expected), where
    for field in ("co_code", "co_names", "co_varnames", "co_argcount", "co_name", "co_qualname", "co_firstlineno"):
        assert getattr(code, field, None) == getattr(expected, field, None), (where, field)
    nested = [const for const in code.co_consts if isinstance(const, types.CodeType)]
    expected_nested = [const for const in expected.co_consts if isinstance(const, types.CodeType)]
    assert len(nested) == len(expected_nested), where
    for inner, expected_inner in zip(nested, expected_nested):
        assert_same_code(inner, expected_inner, where)


def check_live_chains(fastpath, checked=None):
    """Every live chain's functions against ``compile()`` of its
    source, each taking the chain's bound objects as its defaults.
    ``checked`` holds the code objects already compared (by ``id``)."""
    checked = {} if checked is None else checked
    for key, chain in fastpath.chains.items():
        functions = [function for function in fastpath._compiled[key] if function is not None]
        if chain.code is None or id(functions[0].__code__) in checked:
            continue
        checked[id(functions[0].__code__)] = functions[0].__code__
        # source[0] is the blank line before the chain; moved to its lines
        expected = _instantiate(compile("\n".join(chain.source[1:]), "<fastpath>", "exec"), (), chain.offset)
        codes = [const for const in expected.co_consts if isinstance(const, types.CodeType)]
        assert len(codes) == len(functions), key
        for function, code in zip(functions, codes):
            assert_same_code(function.__code__, code, key)
            assert function.__code__.co_name in (chain.function_name, chain.batch_name)
            assert function.__defaults__ is chain.defaults, key


def fresh_emission(fastpath, key):
    """A fresh emission of ``key``'s chain under the live policy: what a
    re-linked chain must be.  It leaves nothing in the fast path: what
    it bound is only its record's."""
    return fastpath._emit_chain(key, fastpath.router.elements[key[1]])


def unfilled(defaults):
    """Bound objects, less the jump tables (a fresh emission's are new
    and empty)."""
    return [value for value in defaults if type(value) is not list]


def check_refilled(fastpath, before):
    """The chains a rules patch re-linked — a new record over the
    template of the one ``before`` held — against fresh emissions;
    returns their keys."""
    refilled = {key for key, chain in fastpath.chains.items()
                if before.get(key) not in (None, chain) and chain.template is before[key].template}
    assert len(refilled) == fastpath.report.relinked_units
    for key in refilled:
        chain, fresh = fastpath.chains[key], fresh_emission(fastpath, key)
        assert chain.source == fresh.source and chain.template == fresh.template, key
        assert (chain.literals, chain.diagrams) == (fresh.literals, fresh.diagrams), key
        assert unfilled(chain.defaults) == unfilled(fresh.defaults), key
        assert chain.offset == before[key].offset and chain.code is before[key].code
        assert chain.defaults is before[key].defaults and chain.tables is before[key].tables
    return refilled


def forwarded(case):
    """``case`` on a plain ``fdd`` plane, cold, after its traffic:
    ``(router, devices, traffic)``."""
    default_cache().clear()
    devices = {name: LoopbackDevice(name, tx_capacity=1 << 20) for name in device_names(case["config"])}
    router = build_router(load_config(case["config"], case["name"]), devices=devices,
                          profile=ExecutionProfile.fdd())
    traffic = [event for event in case["events"] if event[0] in ("frame", "run")]
    for event in traffic:
        apply(router, event, devices)
    return router, devices, traffic


def run_patched(case, rng, edits=2):
    """Forward ``case``'s traffic on a plain ``fdd`` plane, then patch
    each diagram classifier with seeded value edits, traffic between;
    after each, check every re-linked chain and every live chain of
    tier 1.  Returns how many chains the patches re-linked."""
    router, devices, traffic = forwarded(case)
    relinked, checked = 0, {}
    for _ in range(edits):
        tier1 = router.engine.tier1
        names = sorted(tier1.policy.plans or ())
        if not names:
            break
        text = value_edit_text(save_config(router.graph), rng.choice(names), rng)
        if text is None:
            continue
        before = dict(tier1.chains)
        apply(router, ["update", text], devices)
        tier1 = router.engine.tier1
        check_refilled(tier1, before)
        relinked += tier1.report.relinked_units
        check_live_chains(tier1, checked)
        for event in traffic[: len(traffic) // 2]:
            apply(router, event, devices)
        check_live_chains(router.engine.tier1, checked)
    return relinked


def stock():
    rng = random.Random(SEED)
    testbed = Testbed(2)
    iprouter = save_config(testbed.variant_graph("base"))
    frames = [["frame", name, frame.hex()] for name, frame in testbed.evaluation_frames(256)]
    return [
        {"name": "iprouter", "config": iprouter, "events": frames + [["run", 256]]},
        {"name": "firewall", "config": firewall_config(), "events": firewall_events(rng, count=96)},
    ]


def generated(count=50):
    """The first ``count`` seeded cases whose configuration holds a
    classifier."""
    cases, index = [], 0
    while len(cases) < count:
        case = generate_case(SEED, index, events_count=32)
        index += 1
        if any(word in case["config"] for word in ("Classifier(", "IPFilter(", "IPClassifier(")):
            cases.append(case)
    return cases


def test_stock_value_edits_relink_to_compiled_code():
    rng = random.Random(SEED)
    relinked = {case["name"]: run_patched(case, rng, edits=6) for case in stock()}
    assert relinked["iprouter"] > 0  # an ARP arm's new value re-links c0's or c1's chain


def test_a_firewall_port_edited_again_relinks_to_compiled_code():
    """A seeded edit on the firewall mostly splits a test its rules
    share, which changes the diagram's shape; the same port edited
    again changes only a value."""
    case = stock()[1]
    default_cache().clear()
    devices = {name: LoopbackDevice(name, tx_capacity=1 << 20) for name in device_names(case["config"])}
    router = build_router(load_config(case["config"]), devices=devices, profile=ExecutionProfile.fdd())
    for event in case["events"]:
        apply(router, event, devices)
    tier1 = router.engine.tier1
    for port, relinked in ((1000, 0), (2000, 1), (3000, 1)):
        text = case["config"].replace("dst port 25", "dst port %d" % port, 1)
        before = dict(tier1.chains)
        apply(router, ["update", text], devices)
        assert router.engine.tier1 is tier1 and tier1.report.relinked_units == relinked
        check_live_chains(tier1)


def test_generated_value_edits_relink_to_compiled_code():
    rng = random.Random(SEED * 2)
    cases = generated()
    assert len(cases) >= 50
    relinked = sum(run_patched(case, rng) for case in cases)
    assert relinked >= len(cases) // 2


def inlining(fastpath, name):
    """The chains of ``fastpath`` whose emission inlined ``name``'s plan."""
    return [key for key, chain in fastpath.chains.items() if any(inlined == name for inlined, _plan in chain.diagrams)]


def shape_parts(plan):
    """A plan's gate, its tests' locations and its leaves, in emission
    order."""
    locations, stack = [], [plan.root]
    while stack:
        node = stack.pop()
        if node[0] == "test":
            locations.append(node[1])
            stack += (node[5], node[4])
    return plan.gate, locations, plan.leaves()


def test_a_patch_that_moves_a_location_the_gate_or_a_leaf_emits_and_compiles():
    """``c0``'s first arm on the stock IP router narrowed to two sender
    words, then patched, traffic between: where only values move the
    plan keeps its shape and the chain that inlined it is re-linked;
    where a test's location, the length gate (24 -> 16 -> 32 bytes
    read) or a leaf moves (``-`` made a rule no packet reaches, so what
    matched nothing drops), the chain is emitted again and compiled."""
    router, devices, traffic = forwarded(stock()[0])
    tier1 = router.engine.tier1
    plane = ControlPlane(router)
    rules = split_config_args(router.graph.elements["c0"].config)
    checked = {}
    for first, last, moved in (
        ("12/0806 20/0001 24/0a000001 28/0a000002", "-", "tests"),
        ("12/0806 20/0001 24/0b000001 28/0a000003", "-", None),
        ("12/0806 20/0001 16/0b000001 28/0a000003", "-", "location"),
        ("12/0806 20/0001 16/0b000001 32/0a000003", "-", "gate"),
        ("12/0806 20/0001 16/0b000001 32/0a000003", "12/0800", "leaf"),
    ):
        (key,) = inlining(tier1, "c0")
        old, before = shape_parts(tier1.policy.plans["c0"]), dict(tier1.chains)
        rules[0], rules[-1] = first, last
        report = plane.update_rules("c0", rules)
        assert report.kind == "in-place" and router.engine.tier1 is tier1
        gate, locations, leaves = (a != b for a, b in zip(old, shape_parts(tier1.policy.plans["c0"])))
        if moved is None:
            assert not (gate or locations or leaves)
        elif moved == "location":
            assert locations and not gate
        elif moved == "gate":
            assert gate
        elif moved == "leaf":
            assert leaves and not (gate or locations)
        counts = (tier1.report.relinked_units, tier1.report.emitted_units, tier1.report.compiled_units)
        assert counts == ((1, 0, 0) if moved is None else (0, 1, 1)), moved
        assert (report.chains_relinked, report.chains_emitted) == counts[:2]
        assert check_refilled(tier1, before) == ({key} if moved is None else set())
        check_live_chains(tier1, checked)
        for event in traffic:
            apply(router, event, devices)
        check_live_chains(tier1, checked)


def test_a_plan_over_budget_falls_back_to_the_matcher_emission():
    """Six more allow rules take the firewall's diagram past the node
    budget (183 expanded nodes against 160): the patch drops ``fw``'s
    plan, and the entry chain, which was forwarding, is emitted again
    with the generic matcher dispatch — no plan inlined, no literal
    lifted — and compiled; the packets that follow still leave on
    eth1."""
    router, devices, traffic = forwarded(stock()[1])
    tier1 = router.engine.tier1
    live = [key for key in inlining(tier1, "fw") if not is_pending(tier1.function_for(key))]
    assert len(live) == 1
    rules = firewall_rule_strings()
    extra = ["allow tcp && src host 192.168.2.%d && dst port %d" % (i, 1000 + i) for i in range(6)]
    report = ControlPlane(router).update_rules("fw", rules[:-1] + extra + rules[-1:])
    assert report.kind == "in-place" and router.engine.tier1 is tier1
    assert "fw" not in tier1.policy.plans and not inlining(tier1, "fw")
    assert (tier1.report.emitted_units, tier1.report.compiled_units, tier1.report.relinked_units) == (1, 1, 0)
    chain = tier1.chains[live[0]]
    assert chain.diagrams == chain.literals == () and chain.template == chain.source
    assert not any("_fdd" in line for line in chain.source)
    check_live_chains(tier1)
    sent = len(devices["eth1"].transmitted)
    for event in traffic:
        apply(router, event, devices)
    assert len(devices["eth1"].transmitted) > sent


#: ``a`` and ``b`` compare the same bytes, so the chain that fuses
#: ``b``'s dispatch into ``a``'s holds one placeholder for both tests.
SHARED = """
src :: PollDevice(eth0);
a :: Classifier(12/0800, -);
b :: Classifier(12/0800, -);
src -> a;
a[0] -> cnt :: Counter -> b;
a[1] -> Discard;
b[0] -> q :: Queue(64) -> ToDevice(eth1);
b[1] -> Discard;
"""


def test_a_value_two_plans_share_moves_only_by_an_emission():
    """``b``'s plan keeps its shape when its value moves, but where
    ``a``'s plan compares the same value in the same chain, one
    placeholder cannot hold both: patched to ``12/0806`` the value
    splits, patched back two values become one, and each time the chain
    is emitted again, not re-linked.  An ARP frame then leaves on eth1
    only while ``b`` takes ARP and ``a`` still takes IP alone: never."""
    default_cache().clear()
    devices = {name: LoopbackDevice(name) for name in ("eth0", "eth1")}
    router = Router(parse_graph(SHARED), devices=devices, profile=ExecutionProfile.fdd())
    tier1 = router.engine.tier1
    tier1.materialize()
    poll = ("push", "src", 0)
    assert len(tier1.chains[poll].literals) == 1 and len(tier1.chains[poll].diagrams) == 2
    arp = bytes(12) + b"\x08\x06" + bytes(46)
    for rules in (["12/0806", "-"], ["12/0800", "-"]):
        before = dict(tier1.chains)
        report = ControlPlane(router).update_rules("b", rules)
        assert report.kind == "in-place" and poll in inlining(tier1, "b")
        assert tier1.chains[poll].template is not before[poll].template
        check_refilled(tier1, before)
        check_live_chains(tier1)
        devices["eth0"].receive_frame(arp)
        router.run_tasks(4)
        assert devices["eth1"].transmitted == []


def test_past_256_constants_a_literal_keeps_its_own_slot():
    """A literal equal to another constant shares its slot only where
    the constant arguments take one byte; past that it loads an equal
    value from a slot of its own, the same instructions but for an
    ``EXTENDED_ARG`` prefix."""
    body = "".join("    a = %d\n" % n for n in range(300))
    template = compile("def _push(p):\n%s    return p == '\\x000'" % body, "<fastpath>", "exec")
    expected = compile("def _push(p):\n%s    return p == 5" % body, "<fastpath>", "exec")
    code = _instantiate(template, (5,), 0)
    namespace = {}
    exec(code, namespace)  # noqa: S102
    assert namespace["_push"](5) and not namespace["_push"](6)

    def unprefixed(code):
        return [row for row in instructions(code) if row[0] != "EXTENDED_ARG"]

    inner, expected_inner = code.co_consts[0], expected.co_consts[0]
    assert len(inner.co_consts) == len(expected_inner.co_consts) + 1
    assert unprefixed(inner) == unprefixed(expected_inner)
