"""In place equals from scratch, checked by text: what the live router's
compiled chains hold against what a fresh build of its own
configuration text emits.

An update rewrites only the chains it makes stale, and a chain on an
edge no trace enters is invisible to a wire comparison, so the check
reads every chain record instead: the same template text, literals and
bound objects (named), and every element a chain binds the live
router's object under that name.  Both sides emit through
``FastPath._emit_chain`` alone: nothing is compiled or entered, and the
live router is left as it was (``materialize`` would change it).  The
tier-2 flavor is built from traffic, so it is not compared.
"""

from collections import OrderedDict

from repro.core.toolchain import load_config, save_config
from repro.elements.devices import LoopbackDevice
from repro.elements.element import Element
from repro.elements.runtime import build_router
from repro.verify.oracle import device_names

#: Fresh builds by configuration text and profile, the last few: a
#: check after traffic finds the text it checked after the update.
_FRESH = OrderedDict()


def _fresh(text, profile):
    """A fresh build of ``text`` under ``profile`` and the records its
    flavors emitted so far, shared by the checks of one text."""
    key = (text, profile)
    if key not in _FRESH:
        devices = {name: LoopbackDevice(name) for name in device_names(text)}
        _FRESH[key] = build_router(load_config(text, "<fresh>"), devices=devices, profile=profile), {}
        while len(_FRESH) > 4:
            _FRESH.popitem(last=False)
    return _FRESH[key]


def _named(value):
    """A bound object by name: ``(element name, attribute)`` for an
    element or one of its bound methods, else its type's name."""
    owner = getattr(value, "__self__", value)
    if isinstance(owner, Element):
        return owner.name, None if owner is value else value.__name__
    return type(value).__name__


def chain_differences(router):
    """Where ``router``'s tier-1 chain records differ from a fresh build
    of ``save_config(router.graph)``: a list of ``(flavor, key, what)``,
    empty when every record equals the fresh emission for its edge and
    both builds have the same edges."""
    engine = router.engine
    if engine is None:
        return []
    fresh, emitted = _fresh(save_config(router.graph), router.profile)
    found = []
    for flavor in ("tier1", "profiled"):
        live, other = getattr(engine, flavor), getattr(fresh.engine, flavor)
        if live is None:
            continue
        if live._compiled.keys() != other._compiled.keys():
            found.append((flavor, None, "edges %s" % sorted(set(live._compiled) ^ set(other._compiled))))
        for key, chain in live.chains.items():
            if key not in other._compiled:
                continue
            if (flavor, key) not in emitted:
                emitted[flavor, key] = other._emit_chain(key, fresh.elements[key[1]])
            twin = emitted[flavor, key]
            if chain.template != twin.template:
                found.append((flavor, key, "template"))
            if chain.literals != twin.literals:
                found.append((flavor, key, "literals"))
            if [_named(value) for value in chain.defaults] != [_named(value) for value in twin.defaults]:
                found.append((flavor, key, "defaults"))
            for value in chain.defaults:
                owner = getattr(value, "__self__", value)
                if isinstance(owner, Element) and router.elements.get(owner.name) is not owner:
                    found.append((flavor, key, "binds a dead %s" % owner.name))
    return found


def assert_chains_as_fresh(router):
    """Every tier-1 chain record of ``router`` is what a fresh build of
    its configuration text emits for that edge (:func:`chain_differences`)."""
    found = chain_differences(router)
    assert not found, found
