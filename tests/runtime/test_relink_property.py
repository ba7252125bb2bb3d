"""Property test: a re-linked chain is ``compile()`` of its new source.

A rules patch whose new emission of a chain has the live chain's
template — only the values its decision diagram compares changed —
does not compile it: it fills the live template code with the new
literals, names and line offset (:meth:`FastPath.rewrite`).  Here every
live chain after each seeded value edit, re-linked or compiled, is
compared with ``compile()`` of its ``source``, instruction by
instruction: opname, argument value and its type, and line number, and
the code objects' ``co_names``, ``co_varnames``, ``co_argcount`` and
bytecode; each re-linked function's defaults are the new emission's
binds.  Placeholder width can move the column offsets inside a lifted
test, so columns are not compared; line numbers must match exactly.

Cases: the stock IP router and firewall, and seeded ``genconfig`` cases
with a classifier, under ``fdd`` and ``fdd(batch=True)``, each forwarded
through its own traffic and then patched with seeded value edits
(:func:`repro.verify.gentraffic.value_edit_text`)."""

import dis
import random
import types

import pytest

from repro.configs.firewall import firewall_config
from repro.core.toolchain import load_config, save_config
from repro.elements.devices import LoopbackDevice
from repro.elements.runtime import build_router
from repro.events import apply
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


def check_live_chains(fastpath, relinked=(), checked=None):
    """Every live chain's code against ``compile()`` of its source; the
    functions of those in ``relinked`` take the new binds as defaults.
    ``checked`` holds the code objects already compared (by ``id``)."""
    checked = {} if checked is None else checked
    for key, chain in fastpath.chains.items():
        if chain.code is None or id(chain.code) in checked:
            continue
        checked[id(chain.code)] = chain.code
        # source[0] is the blank line before the chain; moved to its lines
        expected = _instantiate(compile("\n".join(chain.source[1:]), "<fastpath>", "exec"), (), {}, chain.offset)
        assert_same_code(chain.code, expected, key)
        if key in relinked:
            binds = tuple(fastpath._namespace[name] for name in chain.binds)
            for function in filter(None, fastpath._compiled[key]):
                assert function.__code__.co_name in (chain.function_name, chain.batch_name)
                assert len(function.__defaults__) == len(binds)
                assert all(value is bind for value, bind in zip(function.__defaults__, binds)), key


def run_patched(case, batch, rng, edits=2):
    """Forward ``case``'s traffic on a plain ``fdd`` plane, then patch
    each diagram classifier with seeded value edits, traffic between;
    after each, check every live chain of tier 1.  Returns how many
    chains the patches re-linked."""
    default_cache().clear()
    devices = {name: LoopbackDevice(name, tx_capacity=1 << 20) for name in device_names(case["config"])}
    router = build_router(load_config(case["config"], case["name"]), devices=devices,
                          profile=ExecutionProfile.fdd(batch=batch))
    traffic = [event for event in case["events"] if event[0] in ("frame", "run")]
    for event in traffic:
        router, _report = apply(router, event, devices)
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
        router, _report = apply(router, ["update", text], devices)
        tier1 = router.engine.tier1
        fresh = {key for key, chain in tier1.chains.items() if before.get(key) is not chain}
        reused = {key for key in fresh if before.get(key) is not None
                  and before[key].relink is not None
                  and tier1.chains[key].relink is before[key].relink}
        assert len(reused) == tier1.report.relinked_units
        relinked += tier1.report.relinked_units
        check_live_chains(tier1, reused, checked)
        for event in traffic[: len(traffic) // 2]:
            router, _report = apply(router, event, devices)
        check_live_chains(router.engine.tier1, (), checked)
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


@pytest.mark.parametrize("batch", [False, True], ids=["fdd", "fdd+batch"])
def test_stock_value_edits_relink_to_compiled_code(batch):
    rng = random.Random(SEED + batch)
    relinked = {case["name"]: run_patched(case, batch, rng, edits=6) for case in stock()}
    assert relinked["iprouter"] > 0  # an ARP arm's new value re-links c0's or c1's chain


@pytest.mark.parametrize("batch", [False, True], ids=["fdd", "fdd+batch"])
def test_a_firewall_port_edited_again_relinks_to_compiled_code(batch):
    """A seeded edit on the firewall mostly splits a test its rules
    share, which changes the diagram's shape; the same port edited
    again changes only a value."""
    case = stock()[1]
    default_cache().clear()
    devices = {name: LoopbackDevice(name, tx_capacity=1 << 20) for name in device_names(case["config"])}
    router = build_router(load_config(case["config"]), devices=devices, profile=ExecutionProfile.fdd(batch=batch))
    for event in case["events"]:
        router, _report = apply(router, event, devices)
    tier1 = router.engine.tier1
    for port, relinked in ((1000, 0), (2000, 1), (3000, 1)):
        text = case["config"].replace("dst port 25", "dst port %d" % port, 1)
        before = dict(tier1.chains)
        router, _report = apply(router, ["update", text], devices)
        assert router.engine.tier1 is tier1 and tier1.report.relinked_units == relinked
        check_live_chains(tier1, {key for key, chain in tier1.chains.items() if before.get(key) is not chain})


@pytest.mark.parametrize("batch", [False, True], ids=["fdd", "fdd+batch"])
def test_generated_value_edits_relink_to_compiled_code(batch):
    rng = random.Random(SEED * 2 + batch)
    cases = generated()
    assert len(cases) >= 50
    relinked = sum(run_patched(case, batch, rng) for case in cases)
    assert relinked >= len(cases) // 2


class CodeBefore311:
    """A code object as Python 3.9 and 3.10 show it: no ``co_qualname``,
    and a ``replace`` that takes no such keyword."""

    def __init__(self, code):
        self.code = code

    def __getattr__(self, name):
        if name == "co_qualname":
            raise AttributeError(name)
        return getattr(self.code, name)

    def replace(self, **fields):
        assert "co_qualname" not in fields
        return self.code.replace(**fields)


def test_instantiating_needs_no_qualname():
    """``pyproject.toml`` declares Python 3.9: filling a template must
    not need the code attribute 3.11 added.  Before 3.11 a function
    takes its qualname from a string constant of the code defining it,
    which is renamed like its names."""
    template = compile("def _push_1(p, _b0=None):\n    return p == '\\x000', '_push_1'", "<fastpath>", "exec")
    code = _instantiate(CodeBefore311(template), (b"\x08\x06",), {"_push_1": "_push_9"}, 4)
    namespace = {}
    exec(code, namespace)  # noqa: S102
    assert namespace["_push_9"](b"\x08\x06") == (True, "_push_9")
    assert namespace["_push_9"](b"\x08\x00") == (False, "_push_9")
    assert namespace["_push_9"].__code__.co_firstlineno == 5


def test_past_256_constants_a_literal_keeps_its_own_slot():
    """A literal equal to another constant shares its slot only where
    the constant arguments take one byte; past that it loads an equal
    value from a slot of its own, the same instructions but for an
    ``EXTENDED_ARG`` prefix."""
    body = "".join("    a = %d\n" % n for n in range(300))
    template = compile("def _push_1(p):\n%s    return p == '\\x000'" % body, "<fastpath>", "exec")
    expected = compile("def _push_1(p):\n%s    return p == 5" % body, "<fastpath>", "exec")
    code = _instantiate(template, (5,), {}, 0)
    namespace = {}
    exec(code, namespace)  # noqa: S102
    assert namespace["_push_1"](5) and not namespace["_push_1"](6)

    def unprefixed(code):
        return [row for row in instructions(code) if row[0] != "EXTENDED_ARG"]

    inner, expected_inner = code.co_consts[0], expected.co_consts[0]
    assert len(inner.co_consts) == len(expected_inner.co_consts) + 1
    assert unprefixed(inner) == unprefixed(expected_inner)
