"""Classifier decision trees.

Click's generic classifiers (*Classifier*, *IPFilter*, *IPClassifier*)
compile textual filter specifications into "decision tree structures
traversed on each packet" (§3).  A tree is an array of expressions; each
expression masks a 32-bit word of packet data and compares it with a
constant, branching to another expression or to a leaf.  Following
Click's encoding, branch targets that are zero or negative are leaves:
target ``t <= 0`` means "emit on output ``-t``" (and a special failure
leaf means "drop").

The array form is exactly what *click-fastclassifier* extracts from its
harness run (§4): :meth:`DecisionTree.to_text` prints the human-readable
dump, and :meth:`DecisionTree.from_text` parses it back.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

FAILURE = None  # sentinel leaf: no output (packet dropped)


class TreeError(ValueError):
    """Raised for malformed trees or tree dumps."""


@dataclass
class Expr:
    """One decision-tree node: ``(data[offset:offset+4] & mask) == value``.

    ``offset`` is always 4-byte aligned; ``mask``/``value`` are 32-bit
    big-endian word values.  ``yes``/``no`` are successor indices when
    positive, or leaves: 0 and negative encode output ``-target``, and
    ``FAILURE`` (None) encodes "drop".
    """

    offset: int
    mask: int
    value: int
    yes: object
    no: object

    def test(self, data):
        if self.offset + 4 <= len(data):
            word = int.from_bytes(data[self.offset:self.offset + 4], "big")
        elif self.offset < len(data):
            chunk = bytes(data[self.offset:]) + b"\x00" * (self.offset + 4 - len(data))
            word = int.from_bytes(chunk, "big")
        else:
            word = 0
        return (word & self.mask) == self.value

    def key(self):
        """Structural identity (for node sharing and tree signatures)."""
        return (self.offset, self.mask, self.value, self.yes, self.no)


def is_leaf(target):
    """True for leaf branch targets (outputs and the failure leaf)."""
    return target is FAILURE or (isinstance(target, int) and target <= 0)


def leaf_output(target):
    """The output port a leaf emits on, or None for the failure leaf."""
    if target is FAILURE:
        return None
    return -target


def make_leaf(output):
    """Encode output ``output`` (or None for drop) as a branch target."""
    if output is None:
        return FAILURE
    if output < 0:
        raise TreeError("output ports are non-negative")
    return -output


class DecisionTree:
    """An executable classifier decision tree.

    ``exprs[0]`` is the root (a tree with no expressions is a constant
    classifier, emitting ``constant_output`` for every packet).
    """

    def __init__(self, exprs=None, constant_output=None, noutputs=None):
        self.exprs = list(exprs or [])
        self.constant_output = constant_output
        self._noutputs = noutputs
        self.validate()

    # -- execution ---------------------------------------------------------

    def match(self, data):
        """Classify ``data``; returns the output port or None (drop).

        This is the interpreted traversal — the memory-walking inner loop
        of Figure 3a that *click-fastclassifier* replaces with code.
        """
        if not self.exprs:
            return self.constant_output
        pos = 1
        while pos > 0:
            expr = self.exprs[pos - 1]
            pos_or_leaf = expr.yes if expr.test(data) else expr.no
            if pos_or_leaf is FAILURE:
                return None
            pos = pos_or_leaf
        return -pos

    def steps(self, data):
        """Number of expressions traversed classifying ``data`` (the cost
        model charges per step)."""
        if not self.exprs:
            return 0
        count = 0
        pos = 1
        while pos > 0:
            expr = self.exprs[pos - 1]
            count += 1
            target = expr.yes if expr.test(data) else expr.no
            if target is FAILURE:
                return count
            pos = target
        return count

    # -- structure -----------------------------------------------------------

    def validate(self):
        """Check branch targets, alignment, and mask/value consistency."""
        for index, expr in enumerate(self.exprs):
            for target in (expr.yes, expr.no):
                if target is FAILURE:
                    continue
                if not isinstance(target, int):
                    raise TreeError("branch target %r is not an int" % (target,))
                if target > len(self.exprs):
                    raise TreeError(
                        "expr %d branches to %d, past the end" % (index + 1, target)
                    )
            if expr.offset % 4:
                raise TreeError("expr %d offset %d not word-aligned" % (index + 1, expr.offset))
            if expr.value & ~expr.mask & 0xFFFFFFFF:
                raise TreeError("expr %d value has bits outside mask" % (index + 1))

    @property
    def noutputs(self):
        if self._noutputs is not None:
            return self._noutputs
        outputs = [0]
        if not self.exprs and self.constant_output is not None:
            outputs.append(self.constant_output)
        for expr in self.exprs:
            for target in (expr.yes, expr.no):
                if is_leaf(target) and target is not FAILURE:
                    outputs.append(-target)
        return max(outputs) + 1

    def outputs_used(self):
        """The set of output ports some leaf can emit on."""
        used = set()
        if not self.exprs:
            if self.constant_output is not None:
                used.add(self.constant_output)
            return used
        for expr in self.exprs:
            for target in (expr.yes, expr.no):
                if is_leaf(target) and target is not FAILURE:
                    used.add(-target)
        return used

    def signature(self):
        """A canonical hashable form: identical signatures mean identical
        classification behaviour node-for-node, which is what lets
        *click-fastclassifier* share one generated class between
        classifiers with identical decision trees (§4)."""
        return (
            tuple(expr.key() for expr in self.exprs),
            self.constant_output,
            self.noutputs,
        )

    def max_offset(self):
        """One past the last data byte any expression examines (the
        compiled classifier's length guard)."""
        if not self.exprs:
            return 0
        return max(expr.offset + 4 for expr in self.exprs)

    # -- the harness dump format ----------------------------------------------

    _TARGET_PATTERN = r"(\[drop\]|\[\d+\]|step \d+)"
    _LINE_RE = re.compile(
        r"^\s*(\d+)\s+(\d+)/([0-9a-fA-F]{8})%([0-9a-fA-F]{8})"
        r"\s+yes->" + _TARGET_PATTERN + r"\s+no->" + _TARGET_PATTERN + r"\s*$"
    )

    def to_text(self):
        """Human-readable dump, the format Click prints when asked for a
        classifier's program and that click-fastclassifier parses."""
        if not self.exprs:
            if self.constant_output is None:
                return "all->[drop]\n"
            return "all->[%d]\n" % self.constant_output
        lines = []

        def fmt(target):
            if target is FAILURE:
                return "[drop]"
            if target <= 0:
                return "[%d]" % -target
            return "step %d" % target

        for index, expr in enumerate(self.exprs):
            lines.append(
                "%3d  %3d/%08x%%%08x  yes->%s  no->%s"
                % (index + 1, expr.offset, expr.value, expr.mask, fmt(expr.yes), fmt(expr.no))
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        """Parse :meth:`to_text` output."""
        lines = [line for line in text.splitlines() if line.strip()]
        if len(lines) == 1 and lines[0].strip().startswith("all->"):
            target = lines[0].strip()[len("all->"):]
            if target == "[drop]":
                return cls([], constant_output=None)
            match = re.match(r"^\[(\d+)\]$", target)
            if not match:
                raise TreeError("bad constant classifier %r" % lines[0])
            return cls([], constant_output=int(match.group(1)))

        def parse_target(text_target):
            if text_target == "[drop]":
                return FAILURE
            match = re.match(r"^\[(\d+)\]$", text_target)
            if match:
                return -int(match.group(1))
            match = re.match(r"^step\s*(\d+)$", text_target)
            if match:
                return int(match.group(1))
            raise TreeError("bad branch target %r" % text_target)

        exprs = []
        for line in lines:
            match = cls._LINE_RE.match(line)
            if not match:
                raise TreeError("bad tree dump line %r" % line)
            _, offset, value, mask, yes_text, no_text = match.groups()
            exprs.append(
                Expr(
                    offset=int(offset),
                    mask=int(mask, 16),
                    value=int(value, 16),
                    yes=parse_target(yes_text),
                    no=parse_target(no_text),
                )
            )
        return cls(exprs)


class TreeBuilder:
    """Constructs decision trees with symbolic branch targets.

    Compilers (the Classifier pattern language, the IPFilter expression
    language) allocate nodes whose targets are node ids or leaves, then
    call :meth:`finish` with the root id; reachable nodes are renumbered
    into the 1-based array form, unreachable ones dropped.

    Nodes are hash-consed as they are built: a node whose test and
    successors equal an existing node's is that node, so structurally
    identical subtrees share one id and a finished tree has no two
    nodes with equal :meth:`Expr.key`.
    """

    def __init__(self):
        self._nodes = {}  # id -> (offset, mask, value, yes_target, no_target)
        self._ids = {}  # (offset, mask, value, yes_target, no_target) -> id

    def node(self, offset, mask, value, yes, no):
        """The node testing ``offset``/``mask``/``value``, allocated on
        first request; ``yes``/``no`` are node ids (strings from this
        builder), leaf encodings from :func:`make_leaf`, or FAILURE."""
        if offset % 4:
            raise TreeError("node offset %d not word-aligned" % offset)
        key = (offset, mask & 0xFFFFFFFF, value & 0xFFFFFFFF, yes, no)
        node_id = self._ids.get(key)
        if node_id is None:
            node_id = self._ids[key] = "n%d" % (len(self._nodes) + 1)
            self._nodes[node_id] = key
        return node_id

    def _is_node_id(self, target):
        return isinstance(target, str)

    def finish(self, root, noutputs=None):
        """Build the DecisionTree rooted at ``root`` (a node id or leaf)."""
        if not self._is_node_id(root):
            return DecisionTree([], constant_output=leaf_output(root), noutputs=noutputs)
        # Number reachable nodes in DFS preorder, root first.
        order = []
        index_of = {}
        stack = [root]
        while stack:
            node_id = stack.pop()
            if node_id in index_of:
                continue
            index_of[node_id] = len(order) + 1
            order.append(node_id)
            offset, mask, value, yes, no = self._nodes[node_id]
            # Push no first so the yes branch gets the next index (keeps
            # dumps readable, matching Click's layout tendency).
            for target in (no, yes):
                if self._is_node_id(target) and target not in index_of:
                    stack.append(target)
        exprs = []
        for node_id in order:
            offset, mask, value, yes, no = self._nodes[node_id]
            yes_final = index_of[yes] if self._is_node_id(yes) else yes
            no_final = index_of[no] if self._is_node_id(no) else no
            exprs.append(Expr(offset, mask, value, yes_final, no_final))
        return DecisionTree(exprs, noutputs=noutputs)
