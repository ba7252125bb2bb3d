"""Graph diffing: what changed between two router configurations.

The control plane (:mod:`repro.control`) decides how to install an
update by looking at its *shape*: a delta that only rewrites the
configuration strings of data-table elements (route tables, classifier
rules) can be patched into the live router in place, while anything
that adds, removes, rewires, or re-classes elements needs a (scoped)
hot-swap.  :func:`diff_graphs` computes that shape as a
:class:`GraphDelta`; ``dirty_names()`` is the seed set the scoped swap
uses to decide which compiled chains must be rebuilt.

Elements pair up by *name* — exactly the identity hot-swap state
transfer uses — so a rename is a removal plus an addition, never a
change.
"""

from __future__ import annotations

__all__ = ["ElementChange", "GraphDelta", "diff_graphs"]


class ElementChange:
    """One element present in both graphs whose declaration differs."""

    __slots__ = ("name", "old_class", "new_class", "old_config", "new_config")

    def __init__(self, name, old_class, new_class, old_config, new_config):
        self.name = name
        self.old_class = old_class
        self.new_class = new_class
        self.old_config = old_config
        self.new_config = new_config

    @property
    def class_changed(self):
        return self.old_class != self.new_class

    @property
    def config_changed(self):
        return self.old_config != self.new_config

    def as_dict(self):
        return {
            "name": self.name,
            "old_class": self.old_class,
            "new_class": self.new_class,
            "old_config": self.old_config,
            "new_config": self.new_config,
        }

    def __repr__(self):
        if self.class_changed:
            return "ElementChange(%s: %s -> %s)" % (self.name, self.old_class, self.new_class)
        return "ElementChange(%s: config)" % self.name


class GraphDelta:
    """The difference between two configurations, element-name keyed.

    ``added`` / ``removed`` are element names; ``changed`` is a list of
    :class:`ElementChange`; ``added_connections`` /
    ``removed_connections`` are :class:`~repro.graph.router.Conn`
    tuples.  ``structural`` is the control plane's routing bit: False
    exactly when the delta is *pure data* — only configuration strings
    changed, on elements that exist on both sides with the same class.
    ``archive`` holds the archive members (generated element classes)
    the new side adds or rewrites, so that :meth:`apply_to` can build
    classes an added element needs; ``after`` maps each added name, in
    the new side's declaration order, to the name it follows there (None
    for the first), so that :meth:`apply_to` puts it there (a delta
    without it appends).  Both are carried, not compared.
    """

    __slots__ = (
        "added",
        "removed",
        "changed",
        "added_connections",
        "removed_connections",
        "archive",
        "after",
    )

    def __init__(
        self,
        added=(),
        removed=(),
        changed=(),
        added_connections=(),
        removed_connections=(),
        archive=None,
        after=None,
    ):
        self.added = list(added)
        self.removed = list(removed)
        self.changed = list(changed)
        self.added_connections = list(added_connections)
        self.removed_connections = list(removed_connections)
        self.archive = dict(archive) if archive else {}
        self.after = dict(after) if after else {}

    @property
    def empty(self):
        return not (
            self.added
            or self.removed
            or self.changed
            or self.added_connections
            or self.removed_connections
        )

    @property
    def structural(self):
        """True when installing this delta changes the graph's shape:
        elements appear/disappear, wiring changes, or an element's
        class changes.  A pure-config delta is not structural."""
        if self.added or self.removed or self.added_connections or self.removed_connections:
            return True
        return any(change.class_changed for change in self.changed)

    def dirty_names(self):
        """Every element name the delta touches: changed/added/removed
        elements plus both endpoints of every changed connection.  The
        scoped hot-swap rebuilds exactly the chains that can reach (or
        be reached from) one of these."""
        names = {name for name, _class, _config in self.added}
        names.update(self.removed)
        names.update(change.name for change in self.changed)
        for conn in self.added_connections + self.removed_connections:
            names.add(conn.from_element)
            names.add(conn.to_element)
        return names

    def apply_to(self, graph):
        """A copy of ``graph`` with this delta applied (removals first,
        then additions, then config/class changes).  The inverse of
        :func:`diff_graphs`: ``diff_graphs(old, new).apply_to(old)``
        equals ``new``, declaration order included unless ``new``
        reorders elements both sides declare."""
        result = graph.copy()
        for conn in self.removed_connections:
            if conn in result.connections:
                result.remove_connection(conn)
        for name in self.removed:
            if name in result.elements:
                result.remove_element(name)
        for name, class_name, config in self.added:
            result.add_element(name, class_name, config)
        if self.after:
            order = [name for name in result.elements if name not in self.after]
            for name, previous in self.after.items():
                order.insert(0 if previous is None else order.index(previous) + 1, name)
            for name in order:
                result.elements.move_to_end(name)
        for conn in self.added_connections:
            result.add_connection(conn.from_element, conn.from_port, conn.to_element, conn.to_port)
        for change in self.changed:
            decl = result.elements[change.name]
            decl.class_name = change.new_class
            decl.config = change.new_config
        result.archive.update(self.archive)
        return result

    def summary(self):
        """One human line, e.g. ``+2 elements, 1 changed, +3/-1 connections``."""
        parts = []
        if self.added:
            parts.append("+%d element(s)" % len(self.added))
        if self.removed:
            parts.append("-%d element(s)" % len(self.removed))
        if self.changed:
            parts.append("%d changed" % len(self.changed))
        if self.added_connections or self.removed_connections:
            parts.append(
                "+%d/-%d connection(s)"
                % (len(self.added_connections), len(self.removed_connections))
            )
        if not parts:
            return "no changes"
        return ", ".join(parts)

    def as_dict(self):
        return {
            "added": [[name, class_name, config] for name, class_name, config in self.added],
            "removed": list(self.removed),
            "changed": [change.as_dict() for change in self.changed],
            "added_connections": [list(c) for c in self._conn_tuples(self.added_connections)],
            "removed_connections": [list(c) for c in self._conn_tuples(self.removed_connections)],
            "structural": self.structural,
        }

    @staticmethod
    def _conn_tuples(conns):
        return [(c.from_element, c.from_port, c.to_element, c.to_port) for c in conns]

    def __repr__(self):
        return "GraphDelta(%s)" % self.summary()


def diff_graphs(old, new):
    """The :class:`GraphDelta` taking configuration graph ``old`` to
    ``new``.  Elements are matched by name; ``added`` entries carry the
    full declaration ``(name, class_name, config)`` so the delta alone
    can reproduce ``new`` from ``old`` via :meth:`GraphDelta.apply_to`.
    """
    added = []
    after = {}
    removed = []
    changed = []
    previous = None
    for name, decl in new.elements.items():
        old_decl = old.elements.get(name)
        if old_decl is None:
            added.append((name, decl.class_name, decl.config))
            after[name] = previous
        elif old_decl.class_name != decl.class_name or old_decl.config != decl.config:
            changed.append(
                ElementChange(
                    name,
                    old_decl.class_name,
                    decl.class_name,
                    old_decl.config,
                    decl.config,
                )
            )
        previous = name
    for name in old.elements:
        if name not in new.elements:
            removed.append(name)

    old_conns = set(old.connections)
    new_conns = set(new.connections)
    added_connections = [c for c in new.connections if c not in old_conns]
    # Connections to/from removed elements are listed too (not implied):
    # their surviving endpoint's chains change, so dirty_names() must
    # see them.
    removed_connections = [c for c in old.connections if c not in new_conns]
    archive = None
    if new.archive:
        archive = {
            name: content
            for name, content in new.archive.items()
            if old.archive.get(name) != content
        }
    return GraphDelta(
        added=added,
        removed=removed,
        changed=changed,
        added_connections=added_connections,
        removed_connections=removed_connections,
        archive=archive,
        after=after,
    )
