"""Re-parse only the statements an edit touched.

A control-plane update usually arrives as the whole configuration text
with one declaration's configuration string rewritten.  Parsing all of
it again is the language's semantics, but not its cost: a top-level
``;`` ends a statement — no production of the grammar
(:mod:`repro.lang.parser`) holds one outside an ``elementclass`` body,
and the scanner (:mod:`repro.lang.lexer`) starts a fresh token after
it — so the text splits at those positions into statements that parse
alone.  :func:`parse_with_ends` is the full parse that also keeps
those positions; :func:`reparse_edit` finds the edit as the two texts'
common prefix and suffix, widens it to the nearest top-level ``;`` on
each side, and parses that region of both texts.

Nothing here decides what an update *means*: the caller checks the
declarations it gets back against its graph, and falls back to the
full parse for anything else.  This module is not exported.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache

from . import lexer as lex
from .ast import Declaration
from .build import build_graph
from .parser import Parser

__all__ = ["parse_with_ends", "reparse_edit"]


def _offsets(text, tokens):
    """Where each token in ``tokens`` (scanned from ``text``) starts."""
    line_starts = [0]
    find = text.find
    position = find("\n")
    while position >= 0:
        line_starts.append(position + 1)
        position = find("\n", position + 1)
    return [line_starts[t.location.line - 1] + t.location.column - 1 for t in tokens]


def parse_with_ends(text, filename="<config>"):
    """``(graph, ends)``: :func:`~repro.lang.build.parse_graph` of
    ``text``, and the offsets of the ``;`` tokens that end its top-level
    statements (outside every ``elementclass`` body), ascending."""
    parser = Parser(text, filename)
    graph = build_graph(parser.parse())
    depth = 0
    semis = []
    for token in parser.tokens:
        kind = token.kind
        if kind == lex.SEMI:
            if not depth:
                semis.append(token)
        elif kind == lex.LBRACE:
            depth += 1
        elif kind == lex.RBRACE:
            depth -= 1
    return graph, _offsets(text, semis)


def _common_prefix(a, b, limit):
    """The length of the longest common prefix of ``a`` and ``b``, at
    most ``limit``: a binary search over slice comparisons, which run
    in C."""
    low, high = 0, limit
    while low < high:
        mid = (low + high + 1) // 2
        if a[low:mid] == b[low:mid]:
            low = mid
        else:
            high = mid - 1
    return low


def _common_suffix(a, b, limit):
    """The length of the longest common suffix, at most ``limit``."""
    low, high = 0, limit
    end_a, end_b = len(a), len(b)
    while low < high:
        mid = (low + high + 1) // 2
        if a[end_a - mid : end_a - low] == b[end_b - mid : end_b - low]:
            low = mid
        else:
            high = mid - 1
    return low


@lru_cache(maxsize=4)
def _parse_region(region):
    """``(statements, offsets of its ``;`` tokens)`` of ``region``,
    memoized, because the region one update re-parses in its new text
    is, as a rule, the region the next update re-parses in its old
    text.  The results are shared: callers must not change them."""
    parser = Parser(region, "<update>")
    semis = [token for token in parser.tokens if token.kind == lex.SEMI]
    return parser.parse().statements, _offsets(region, semis)


def _named_declarations(statements):
    """``statements`` when every one is a named declaration, else None."""
    for statement in statements:
        if type(statement) is not Declaration or not statement.names:
            return None
    return statements


def reparse_edit(old, ends, new):
    """Parse the statements of ``new`` that differ from ``old``, whose
    top-level statement ends are ``ends`` (:func:`parse_with_ends`).

    Returns ``(pairs, new_ends)``: ``pairs`` lists ``(old declaration,
    new declaration)`` for every statement in the edited region, and
    ``new_ends`` are the statement ends of ``new``.  Only an edit
    whose region holds named declarations, on both sides, with the same
    names and classes in the same order, cannot change the graph's
    shape: for any other edit, and for one that swallowed the region's
    closing ``;`` (into a comment, say), this returns None.  A region
    that does not scan or parse alone raises.  Either way the caller
    parses ``new`` whole, which raises the canonical error if there is
    one.
    """
    limit = min(len(old), len(new))
    prefix = _common_prefix(old, new, limit)
    suffix = _common_suffix(old, new, limit - prefix)
    shift = len(new) - len(old)
    # The region: from just past the last statement end in the common
    # prefix to the first one in the common suffix, inclusive.
    first = bisect_left(ends, prefix)
    last = bisect_left(ends, len(old) - suffix)
    start = ends[first - 1] + 1 if first else 0
    stop = ends[last] + 1 if last < len(ends) else len(old)
    region = new[start : stop + shift]
    statements, offsets = _parse_region(region)
    if last < len(ends) and (not offsets or offsets[-1] != len(region) - 1):
        return None
    before = _named_declarations(_parse_region(old[start:stop])[0])
    after = _named_declarations(statements)
    if before is None or after is None or len(before) != len(after):
        return None
    for old_decl, new_decl in zip(before, after):
        if old_decl.names != new_decl.names or old_decl.class_name != new_decl.class_name:
            return None
    new_ends = ends[:first] + [start + offset for offset in offsets]
    new_ends.extend(end + shift for end in ends[last + 1 :])
    return list(zip(before, after)), new_ends
