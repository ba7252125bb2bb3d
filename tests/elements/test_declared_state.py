"""Every element class declares its run-time state once, in ``STATE``
(``{field: (swap, merge)}``), and hot-swap, read handlers and the shard
merge all read that one declaration.

The static guard checks the declaration is complete: every
``self.<field>`` an element assigns outside ``__init__``, ``configure``
and ``initialize`` is declared, unless the method is a configuration
rebuilder named in :data:`REBUILDERS`.
"""

import ast
import importlib
import pkgutil
import random
from collections import deque

import repro.elements
from repro.elements import Element, hotswap_router
from repro.sim.testbed import Testbed

SWAPS = {"carry", "reset"}
MERGES = {"sum", "max", "first"}

#: Where an element may assign a field it does not declare: setup, and
#: the methods that rebuild configuration-derived tables (a rules or
#: routes patch, a lookup structure, the compiled-matcher cell, a test's
#: capture preload, the router's port wiring).
SETUP = {"__init__", "configure", "initialize"}
REBUILDERS = {"commit_rules", "commit_routes", "_build", "matcher_cell", "preload", "set_nports"}


def _element_modules():
    for info in pkgutil.iter_modules(repro.elements.__path__):
        yield importlib.import_module("repro.elements." + info.name)


def _assigned_fields(class_node):
    """``{field: method}`` for every ``self.<field>`` stored (plain,
    augmented or annotated assignment, tuple targets included) in the
    class body's methods outside setup and the rebuilders."""
    fields = {}
    for method in class_node.body:
        if not isinstance(method, ast.FunctionDef) or method.name in SETUP | REBUILDERS:
            continue
        for node in ast.walk(method):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for store in ast.walk(target):
                    if (
                        isinstance(store, ast.Attribute)
                        and isinstance(store.ctx, ast.Store)
                        and isinstance(store.value, ast.Name)
                        and store.value.id == "self"
                    ):
                        fields.setdefault(store.attr, method.name)
    return fields


def _element_classes():
    """``{class: fields its own body assigns}`` for every Element
    subclass defined in ``repro.elements``."""
    found = {}
    for module in _element_modules():
        with open(module.__file__) as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            cls = getattr(module, node.name, None) if isinstance(node, ast.ClassDef) else None
            if isinstance(cls, type) and issubclass(cls, Element):
                found[cls] = _assigned_fields(node)
    return found


def test_every_assigned_field_is_declared():
    classes = _element_classes()
    assert len(classes) > 40
    undeclared = []
    for cls in classes:
        # Inherited methods assign on the subclass too: a subclass that
        # redeclares STATE must keep its bases' fields.
        for klass in cls.__mro__:
            for field, method in classes.get(klass, {}).items():
                if field not in cls.STATE:
                    undeclared.append("%s.%s (in %s.%s)" % (cls.__name__, field, klass.__name__, method))
    assert not undeclared, "undeclared element state: " + ", ".join(sorted(set(undeclared)))


def test_declarations_use_known_rules_and_every_merge_rule_is_used():
    merges = set()
    for cls in _element_classes():
        for field, (swap, merge) in cls.STATE.items():
            assert swap in SWAPS and merge in MERGES, (cls.__name__, field)
            merges.add(merge)
    assert merges == MERGES


def test_declared_fields_start_at_zero_and_counters_are_read_handlers():
    router, _devices = Testbed(2).build_router(Testbed(2).base_graph())
    queue = router.find("out0")
    assert queue.drops == 0 and queue.highwater == 0
    assert set(queue.counters()) == {"drops", "highwater"}
    handlers = queue.read_handlers()
    assert {"drops", "highwater", "length"} <= set(handlers)
    assert "_deque" not in handlers
    arp = router.find("arpq0")
    assert arp.replies_handled == 0 and isinstance(arp.table, dict)
    assert set(arp.counters()) == {"drops", "queries_sent", "replies_handled"}


def _marked(value, mark):
    """``value`` with a recognizable mark of the same kind."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return value
    return type(value)(mark)


def settled(value):
    """A carried value in a form ``==`` compares by content."""
    from repro.net.packet import Packet

    if isinstance(value, (deque, list, tuple)):
        return [settled(item) for item in value]
    if isinstance(value, dict):
        return {key: settled(item) for key, item in value.items()}
    if isinstance(value, Packet):
        return bytes(value.data)
    if isinstance(value, random.Random):
        return value.getstate()
    return value


def test_an_identity_swap_of_the_ip_router_keeps_every_carry_field():
    """Mark every declared scalar of the stock 2-interface IP router,
    swap in the same configuration, and read every ``carry`` field back
    unchanged; a ``reset`` field reads what the configuration gives."""
    testbed = Testbed(2)
    router, _devices = testbed.build_router(testbed.base_graph())
    router["arpq0"].insert("1.0.0.2", "00:20:6f:00:00:02")
    router["arpq0"]._headers[1] = b"stale"
    carried = {}
    mark = 1000
    for name, element in router.elements.items():
        for field, (swap, _merge) in element.STATE.items():
            mark += 1
            setattr(element, field, _marked(getattr(element, field), mark))
            if swap == "carry":
                carried[name, field] = settled(getattr(element, field))
    counters = [key for key in carried if isinstance(carried[key], int)]
    assert len(counters) >= 40

    report = hotswap_router(router, testbed.base_graph())
    kept = {key: settled(getattr(router[key[0]], key[1])) for key in carried}
    assert kept == carried
    assert router["arpq0"]._headers == {}
    assert set(report.transferred) >= {name for name, _field in carried}
