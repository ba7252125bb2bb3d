"""The router-configuration graph: the IR every optimization tool shares.

Elements sit at the vertices; connections are directed edges between
numbered ports (§3).  The paper's §5.1 observes that optimizers "treat
configurations more as graphs" and rely on "an extensive set of graph
manipulations — adding and removing elements and so forth"; this module
is that library.

A :class:`RouterGraph` is freely mutable; runtime routers
(:mod:`repro.elements.runtime`) are built from a *finished* graph and
never change afterwards — mirroring Click's install-a-whole-configuration
model, the single design decision the paper credits with making
optimizers possible.
"""

from __future__ import annotations

import re
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from ..errors import UNKNOWN_LOCATION, ClickSemanticError, SourceLocation


@dataclass
class ElementDecl:
    """One element in a configuration graph."""

    name: str
    class_name: str
    config: str = None
    location: SourceLocation = field(default=UNKNOWN_LOCATION, repr=False)

    def copy(self):
        return replace(self)


class Conn(NamedTuple):
    """A connection: ``from_element [from_port] -> [to_port] to_element``.
    A tuple, since a parse builds one per edge and graph diffs hash and
    compare them: format it as ``"%s" % (conn,)``."""

    from_element: str
    from_port: int
    to_element: str
    to_port: int

    def __str__(self):
        return "%s [%d] -> [%d] %s" % (
            self.from_element,
            self.from_port,
            self.to_port,
            self.to_element,
        )


@dataclass
class CompoundClass:
    """An ``elementclass`` definition: a named, parameterized
    configuration fragment (the language's abstraction facility)."""

    name: str
    params: list
    body: object  # a RouterGraph with `input` / `output` pseudo elements

    INPUT = "input"
    OUTPUT = "output"


_ANON_RE = re.compile(r"@(\d+)$")


class RouterGraph:
    """A mutable router-configuration graph."""

    def __init__(self):
        self.elements = OrderedDict()
        self.connections = []
        self.element_classes = OrderedDict()  # name -> CompoundClass
        self.requirements = []
        self.archive = OrderedDict()  # extra archive members (generated code)
        self._anon_counter = 0

    # -- construction ---------------------------------------------------------

    def add_element(self, name, class_name, config=None, location=UNKNOWN_LOCATION):
        """Declare an element.  ``name=None`` generates an anonymous name
        in Click's style (``Class@1``)."""
        if name is None:
            name = self.generate_anon_name(class_name)
        if name in self.elements:
            existing = self.elements[name]
            raise ClickSemanticError(
                "redeclaration of element %r (previously %s)" % (name, existing.class_name),
                location,
            )
        decl = ElementDecl(name=name, class_name=class_name, config=config, location=location)
        self.elements[name] = decl
        return decl

    def reset_anon_names(self):
        """Restart anonymous-name numbering (``Class@N``) from 1, as a
        fresh parse of the serialized configuration would — the pass
        manager calls this between passes so an in-memory pipeline
        numbers new elements exactly like tools handing text across a
        stdin/stdout boundary (collision checks keep names unique)."""
        self._anon_counter = 0

    def generate_anon_name(self, class_name):
        """A fresh Click-style anonymous name (``Class@N``)."""
        base = class_name.split("/")[-1]
        while True:
            self._anon_counter += 1
            candidate = "%s@%d" % (base, self._anon_counter)
            if candidate not in self.elements:
                return candidate

    def add_connection(self, from_element, from_port, to_element, to_port, location=UNKNOWN_LOCATION):
        """Connect two declared elements (duplicates are ignored)."""
        for name in (from_element, to_element):
            if name not in self.elements:
                raise ClickSemanticError("connection names undeclared element %r" % name, location)
        conn = Conn(from_element, from_port, to_element, to_port)
        if conn not in self.connections:
            self.connections.append(conn)
        return conn

    def remove_element(self, name):
        """Remove an element and every connection touching it."""
        if name not in self.elements:
            raise KeyError(name)
        del self.elements[name]
        self.connections = [
            c for c in self.connections if c.from_element != name and c.to_element != name
        ]

    def remove_connection(self, conn):
        """Remove one connection."""
        self.connections.remove(conn)

    def rename_element(self, old, new):
        """Rename an element, rewriting its connections."""
        if new in self.elements:
            raise ClickSemanticError("rename target %r already exists" % new)
        decl = self.elements.pop(old)
        decl.name = new
        # Preserve declaration order as much as practical: append at end.
        self.elements[new] = decl
        self.connections = [
            Conn(
                new if c.from_element == old else c.from_element,
                c.from_port,
                new if c.to_element == old else c.to_element,
                c.to_port,
            )
            for c in self.connections
        ]

    def set_class(self, name, class_name, config=None):
        """Repoint an element at a different class (the optimizers' most
        common rewrite: ``c :: Classifier(...)`` → ``c :: FastClassifier@@c``)."""
        decl = self.elements[name]
        decl.class_name = class_name
        decl.config = config

    # -- queries ---------------------------------------------------------------

    def __contains__(self, name):
        return name in self.elements

    def element_names(self):
        """Element names in declaration order."""
        return list(self.elements.keys())

    def elements_of_class(self, class_name):
        """Declarations whose class is ``class_name``."""
        return [d for d in self.elements.values() if d.class_name == class_name]

    def connections_from(self, name, port=None):
        """Connections leaving ``name`` (optionally one port)."""
        return [
            c
            for c in self.connections
            if c.from_element == name and (port is None or c.from_port == port)
        ]

    def connections_to(self, name, port=None):
        """Connections entering ``name`` (optionally one port)."""
        return [
            c
            for c in self.connections
            if c.to_element == name and (port is None or c.to_port == port)
        ]

    def input_count(self, name):
        """Number of input ports in use: 1 + the highest connected port."""
        ports = [c.to_port for c in self.connections if c.to_element == name]
        return max(ports) + 1 if ports else 0

    def output_count(self, name):
        """Number of output ports in use: 1 + the highest connected."""
        ports = [c.from_port for c in self.connections if c.from_element == name]
        return max(ports) + 1 if ports else 0

    def upstream_elements(self, name):
        """Sorted names of elements with a connection into ``name``."""
        return sorted({c.from_element for c in self.connections_to(name)})

    def downstream_elements(self, name):
        """Sorted names of elements ``name`` connects to."""
        return sorted({c.to_element for c in self.connections_from(name)})

    # -- transformations ---------------------------------------------------------

    def splice_out(self, name):
        """Remove a single-input single-output element, reconnecting its
        neighbours directly (used by click-align to drop redundant Aligns
        and by click-undead for pass-through removals)."""
        incoming = self.connections_to(name)
        outgoing = self.connections_from(name)
        if len({c.to_port for c in incoming}) > 1 or len({c.from_port for c in outgoing}) > 1:
            raise ClickSemanticError("cannot splice out multi-port element %r" % name)
        self.remove_element(name)
        for before in incoming:
            for after in outgoing:
                self.add_connection(
                    before.from_element, before.from_port, after.to_element, after.to_port
                )

    def replace_subgraph(self, element_names, replacement, boundary_map):
        """Replace the subgraph induced by ``element_names`` with the
        elements and internal connections of ``replacement`` (another
        RouterGraph).  ``boundary_map`` maps each old boundary endpoint to
        its new home:

        - key ``("in", old_element, old_port)`` → ``(new_element, new_port)``
          for connections arriving from outside the subgraph, and
        - key ``("out", old_element, old_port)`` → ``(new_element, new_port)``
          for connections leaving it.

        Replacement element names are uniquified against the host graph;
        returns the mapping from replacement-local names to final names.
        """
        element_names = set(element_names)
        incoming = [
            c
            for c in self.connections
            if c.to_element in element_names and c.from_element not in element_names
        ]
        outgoing = [
            c
            for c in self.connections
            if c.from_element in element_names and c.to_element not in element_names
        ]

        for conn in incoming:
            key = ("in", conn.to_element, conn.to_port)
            if key not in boundary_map:
                raise ClickSemanticError(
                    "replacement does not cover boundary connection %s" % (conn,)
                )
        for conn in outgoing:
            key = ("out", conn.from_element, conn.from_port)
            if key not in boundary_map:
                raise ClickSemanticError(
                    "replacement does not cover boundary connection %s" % (conn,)
                )

        for name in element_names:
            self.remove_element(name)

        name_map = {}
        for decl in replacement.elements.values():
            final = decl.name if decl.name not in self.elements else None
            if final is None:
                final = self._uniquify(decl.name)
            name_map[decl.name] = final
            self.add_element(final, decl.class_name, decl.config, decl.location)
        for conn in replacement.connections:
            self.add_connection(
                name_map[conn.from_element],
                conn.from_port,
                name_map[conn.to_element],
                conn.to_port,
            )
        for conn in incoming:
            new_element, new_port = boundary_map[("in", conn.to_element, conn.to_port)]
            self.add_connection(
                conn.from_element, conn.from_port, name_map[new_element], new_port
            )
        for conn in outgoing:
            new_element, new_port = boundary_map[("out", conn.from_element, conn.from_port)]
            self.add_connection(
                name_map[new_element], new_port, conn.to_element, conn.to_port
            )
        return name_map

    def _uniquify(self, name):
        base = _ANON_RE.sub("", name)
        counter = 1
        while True:
            candidate = "%s@%d" % (base, counter)
            if candidate not in self.elements:
                return candidate
            counter += 1

    def copy(self):
        """An independent copy (declarations deep, definitions shared)."""
        dup = RouterGraph()
        for decl in self.elements.values():
            dup.elements[decl.name] = decl.copy()
        dup.connections = list(self.connections)
        dup.element_classes = OrderedDict(self.element_classes)
        dup.requirements = list(self.requirements)
        dup.archive = OrderedDict(self.archive)
        dup._anon_counter = self._anon_counter
        return dup

    # -- integrity ---------------------------------------------------------------

    def check_integrity(self):
        """Internal consistency: every connection endpoint exists and no
        two connections leave the same push-side (element, port) pair more
        than... (multiple connections from one port are legal in Click for
        push; we only verify endpoints here)."""
        for conn in self.connections:
            for name in (conn.from_element, conn.to_element):
                if name not in self.elements:
                    raise ClickSemanticError("dangling connection %s" % (conn,))
        return True

    def __repr__(self):
        return "RouterGraph(%d elements, %d connections)" % (
            len(self.elements),
            len(self.connections),
        )
