"""click-xform: pattern/replacement subgraph transformation (§6.2).

Patterns and replacements are router-configuration fragments written as
compound elements in the Click language, with ``input``/``output``
pseudo elements marking the boundary and ``$variables`` in configuration
strings acting as wildcards that must bind consistently across the
pattern.

A pattern matches a subset of the configuration graph if the subset
contains corresponding elements connected the same way, and connections
into or out of the subset occur only where the pattern's ``input`` and
``output`` ports allow.  Matching is Ullman subgraph isomorphism
(:mod:`repro.graph.subgraph`); replacement splices the replacement body
in, carrying the variable bindings into its configuration strings.
Patterns are applied until no occurrence of any pattern remains.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import ClickSemanticError
from ..graph.router import CompoundClass, RouterGraph
from ..graph.subgraph import SubgraphMatcher
from ..lang.build import build_graph
from ..lang.lexer import split_config_args
from ..lang.parser import parse
from .flatten import flatten, substitute_params
from .pipeline import tool_api

_VAR_RE = re.compile(r"^\$[A-Za-z_][A-Za-z0-9_]*$")
_MAX_APPLICATIONS = 10000


@dataclass
class PatternPair:
    """One pattern and its replacement."""

    name: str
    pattern: RouterGraph  # body graph with input/output pseudo elements
    replacement: RouterGraph

    @classmethod
    def from_texts(cls, pattern_text, replacement_text, name="pattern"):
        pattern = build_graph(parse(pattern_text, "<%s>" % name), inside_compound=True)
        replacement = build_graph(
            parse(replacement_text, "<%s-replacement>" % name), inside_compound=True
        )
        return cls(name=name, pattern=pattern, replacement=replacement)


def _match_config(pattern_config, host_config, bindings):
    """Match configuration strings argument by argument; ``$var``
    arguments bind (consistently), literals must be equal.  Returns the
    updated bindings dict or None."""
    pattern_args = split_config_args(pattern_config)
    host_args = split_config_args(host_config)
    if len(pattern_args) != len(host_args):
        return None
    updated = dict(bindings)
    for pattern_arg, host_arg in zip(pattern_args, host_args):
        pattern_arg = pattern_arg.strip()
        host_arg = host_arg.strip()
        if _VAR_RE.match(pattern_arg):
            if pattern_arg in updated and updated[pattern_arg] != host_arg:
                return None
            updated[pattern_arg] = host_arg
        elif pattern_arg != host_arg:
            return None
    return updated


class _Matcher:
    """One pattern applied to one host graph."""

    def __init__(self, pair, host):
        self.pair = pair
        self.host = host
        self.pseudo = {CompoundClass.INPUT, CompoundClass.OUTPUT}

    def find(self):
        """First valid (mapping, bindings) pair, or None."""
        pattern = self.pair.pattern

        def compatible(pattern_decl, host_decl):
            if pattern_decl.class_name != host_decl.class_name:
                return False
            return _match_config(pattern_decl.config, host_decl.config, {}) is not None

        matcher = SubgraphMatcher(pattern, self.host, compatible, exclude=self.pseudo)
        for mapping in matcher.matches():
            bindings = self._consistent_bindings(mapping)
            if bindings is None:
                continue
            if not self._boundary_ok(mapping):
                continue
            if not self._internal_edges_covered(mapping):
                continue
            return mapping, bindings
        return None

    def _consistent_bindings(self, mapping):
        bindings = {}
        for pattern_name, host_name in mapping.items():
            pattern_decl = self.pair.pattern.elements[pattern_name]
            host_decl = self.host.elements[host_name]
            bindings = _match_config(pattern_decl.config, host_decl.config, bindings)
            if bindings is None:
                return None
        return bindings

    def _boundary_ok(self, mapping):
        """Connections crossing the matched subset must occur only where
        the pattern's input/output pseudo elements allow."""
        matched = set(mapping.values())
        inverse = {host: pat for pat, host in mapping.items()}
        allowed_in = {
            (conn.to_element, conn.to_port)
            for conn in self.pair.pattern.connections
            if conn.from_element == CompoundClass.INPUT
        }
        allowed_out = {
            (conn.from_element, conn.from_port)
            for conn in self.pair.pattern.connections
            if conn.to_element == CompoundClass.OUTPUT
        }
        for conn in self.host.connections:
            if conn.to_element in matched and conn.from_element not in matched:
                if (inverse[conn.to_element], conn.to_port) not in allowed_in:
                    return False
            if conn.from_element in matched and conn.to_element not in matched:
                if (inverse[conn.from_element], conn.from_port) not in allowed_out:
                    return False
        return True

    def _internal_edges_covered(self, mapping):
        """Host connections between matched elements must all be images
        of pattern connections (otherwise replacement would drop them)."""
        matched = set(mapping.values())
        pattern_edges = {
            (mapping[c.from_element], c.from_port, mapping[c.to_element], c.to_port)
            for c in self.pair.pattern.connections
            if c.from_element not in self.pseudo and c.to_element not in self.pseudo
        }
        for conn in self.host.connections:
            if conn.from_element in matched and conn.to_element in matched:
                key = (conn.from_element, conn.from_port, conn.to_element, conn.to_port)
                if key not in pattern_edges:
                    return False
        return True

    def apply(self, mapping, bindings):
        """Splice the replacement in for one match."""
        pattern = self.pair.pattern
        replacement = self.pair.replacement

        # Build the replacement body with bindings substituted.
        body = RouterGraph()
        for decl in replacement.elements.values():
            if decl.class_name.startswith("__compound_"):
                continue
            body.add_element(
                "%s@xf" % decl.name,
                decl.class_name,
                substitute_params(decl.config, bindings),
                decl.location,
            )
        for conn in replacement.connections:
            if (
                conn.from_element in (CompoundClass.INPUT, CompoundClass.OUTPUT)
                or conn.to_element in (CompoundClass.INPUT, CompoundClass.OUTPUT)
            ):
                continue
            body.add_connection(
                "%s@xf" % conn.from_element,
                conn.from_port,
                "%s@xf" % conn.to_element,
                conn.to_port,
            )

        # Boundary map: pattern input port k enters pattern element
        # (p, q); replacement input port k enters replacement element
        # (r, s).  Host connections into m(p)[q] must land on r[s].
        boundary = {}
        for conn in pattern.connections:
            if conn.from_element == CompoundClass.INPUT:
                rep_conns = [
                    c
                    for c in replacement.connections
                    if c.from_element == CompoundClass.INPUT and c.from_port == conn.from_port
                ]
                if not rep_conns:
                    raise ClickSemanticError(
                        "pattern %s input %d has no replacement counterpart"
                        % (self.pair.name, conn.from_port)
                    )
                target = rep_conns[0]
                boundary[("in", mapping[conn.to_element], conn.to_port)] = (
                    "%s@xf" % target.to_element,
                    target.to_port,
                )
            if conn.to_element == CompoundClass.OUTPUT:
                rep_conns = [
                    c
                    for c in replacement.connections
                    if c.to_element == CompoundClass.OUTPUT and c.to_port == conn.to_port
                ]
                if not rep_conns:
                    raise ClickSemanticError(
                        "pattern %s output %d has no replacement counterpart"
                        % (self.pair.name, conn.to_port)
                    )
                source = rep_conns[0]
                boundary[("out", mapping[conn.from_element], conn.from_port)] = (
                    "%s@xf" % source.from_element,
                    source.from_port,
                )

        self.host.replace_subgraph(set(mapping.values()), body, boundary)


@tool_api()
def xform(graph, patterns=None):
    """The tool: apply every pattern pair until fixpoint.

    ``patterns`` defaults to the standard combo set
    (:data:`~repro.core.patterns.STANDARD_PATTERNS`).  Two guards catch
    replacements that re-create their own pattern (the one way the
    fixpoint diverges): a hard application count, and a growth limit — a
    legitimate pattern set never inflates the graph past a few times its
    original size.
    """
    if patterns is None:
        from .patterns import STANDARD_PATTERNS

        patterns = STANDARD_PATTERNS
    pairs = patterns
    result = flatten(graph) if graph.element_classes else graph.copy()
    growth_limit = 4 * len(result.elements) + 64
    applications = 0
    progress = True
    while progress:
        progress = False
        for pair in pairs:
            while True:
                matcher = _Matcher(pair, result)
                found = matcher.find()
                if found is None:
                    break
                matcher.apply(*found)
                progress = True
                applications += 1
                if applications > _MAX_APPLICATIONS or len(result.elements) > growth_limit:
                    raise ClickSemanticError(
                        "click-xform diverged (%d applications, %d elements); "
                        "a replacement likely re-creates its own pattern"
                        % (applications, len(result.elements))
                    )
    return result
