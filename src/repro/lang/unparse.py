"""Unparsing: RouterGraph → Click-language text.

The optimizers "expect to be able to arbitrarily transform configuration
graphs and generate Click-language files corresponding exactly to the
results" (§5.2).  The unparser emits a canonical form: requirements,
compound definitions, declarations in graph order, then connections —
chained where a straight-line path allows it, which keeps optimizer
output human-readable.
"""

from __future__ import annotations


def _format_declaration(decl):
    config = "(%s)" % decl.config if decl.config not in (None, "") else ""
    return "%s :: %s%s;" % (decl.name, decl.class_name, config)


def unparse(graph, include_archive_note=True):
    """Render ``graph`` as configuration text."""
    lines = []
    for requirement in graph.requirements:
        lines.append("require(%s);" % requirement)
    if graph.requirements:
        lines.append("")

    for compound in graph.element_classes.values():
        lines.append("elementclass %s {" % compound.name)
        if compound.params:
            lines.append("  %s |" % ", ".join(compound.params))
        body_text = unparse(compound.body, include_archive_note=False)
        for body_line in body_text.splitlines():
            if body_line.strip():
                lines.append("  " + body_line)
        lines.append("}")
        lines.append("")

    for decl in graph.elements.values():
        if decl.class_name.startswith("__compound_"):
            continue  # `input`/`output` pseudo elements are implicit
        lines.append(_format_declaration(decl))
    if graph.elements:
        lines.append("")

    # Chain straight-line connections for readability: follow runs where
    # each hop uses port 0 on both sides and the intermediate element has
    # exactly one incoming and one outgoing connection.
    emitted = set()
    by_source = {}
    for conn in graph.connections:
        by_source.setdefault((conn.from_element, conn.from_port), []).append(conn)

    def chainable_next(conn):
        nexts = by_source.get((conn.to_element, 0), [])
        if len(nexts) != 1 or conn.to_port != 0:
            return None
        candidate = nexts[0]
        if candidate in emitted:
            return None
        # The middle element must have a single incoming connection.
        incoming = [c for c in graph.connections if c.to_element == conn.to_element]
        outgoing = [c for c in graph.connections if c.from_element == conn.to_element]
        if len(incoming) != 1 or len(outgoing) != 1:
            return None
        return candidate

    # Identify chain heads: connections whose predecessor can't absorb
    # them.  A connection never absorbs itself (self-loops).
    absorbed = set()
    for conn in graph.connections:
        prevs = [c for c in graph.connections if c.to_element == conn.from_element]
        if len(prevs) == 1 and prevs[0] is not conn and chainable_next(prevs[0]) is conn:
            absorbed.add(conn)
    # A run that closes on itself absorbs every one of its connections
    # and has no head: the absorbed follow, so it starts where it is
    # met first (by then every other absorbed connection is emitted).
    chain_start = [conn for conn in graph.connections if conn not in absorbed]
    chain_start += [conn for conn in graph.connections if conn in absorbed]

    for head in chain_start:
        if head in emitted:
            continue
        parts = []
        out_part = " [%d]" % head.from_port if head.from_port else ""
        parts.append("%s%s" % (head.from_element, out_part))
        conn = head
        while True:
            emitted.add(conn)
            in_part = "[%d] " % conn.to_port if conn.to_port else ""
            parts.append("%s%s" % (in_part, conn.to_element))
            following = chainable_next(conn)
            if following is None:
                break
            conn = following
        lines.append(" -> ".join(parts) + ";")

    text = "\n".join(lines).rstrip() + "\n"
    return text


def unparse_file(graph):
    """Render ``graph`` including any archive members, in the multi-file
    archive format tools use to attach generated code (§5.2)."""
    from .archive import write_archive

    if not graph.archive:
        return unparse(graph)
    members = {"config": unparse(graph)}
    members.update(graph.archive)
    return write_archive(members)
