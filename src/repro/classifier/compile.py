"""Decision-tree → Python code generation.

This is the core of *click-fastclassifier* (§4): "compare this with the
approach of compiling decision trees into code with inlined constants.
This always improves upon the original classifiers' data-cache usage,
since there is no tree to access."  The paper generates C++ (Figure 3b);
we generate Python, which likewise replaces the interpreted memory walk
of :meth:`DecisionTree.match` with straight-line branches and inlined
constants — and is genuinely faster, which the wall-clock benchmarks
measure.

Shared subtrees (the trees are DAGs after optimization) are emitted as
separate helper functions; everything else is inlined as nested ``if``
statements, mirroring the structure of the paper's generated code.
"""

from __future__ import annotations

import types
from collections import OrderedDict

from .tree import FAILURE, is_leaf

GENERATED_HEADER = "# Generated by click-fastclassifier: do not edit.\n"


def _in_degrees(tree):
    degrees = {i + 1: 0 for i in range(len(tree.exprs))}
    degrees[1] = degrees.get(1, 0) + 1  # the root is entered once
    for expr in tree.exprs:
        for target in (expr.yes, expr.no):
            if not is_leaf(target):
                degrees[target] += 1
    return degrees


def _reverse_topological(tree):
    """Node indices ordered so successors appear before predecessors
    (valid because optimized trees are acyclic)."""
    order = []
    seen = set()

    def visit(pos):
        if is_leaf(pos) or pos in seen:
            return
        seen.add(pos)
        expr = tree.exprs[pos - 1]
        visit(expr.yes)
        visit(expr.no)
        order.append(pos)

    visit(1)
    return order


def _leaf_statement(target):
    if target is FAILURE:
        return "return None"
    return "return %d" % -target


def _test_expression(expr):
    end = expr.offset + 4
    if expr.mask == 0xFFFFFFFF:
        return "int.from_bytes(data[%d:%d], 'big') == 0x%08x" % (expr.offset, end, expr.value)
    return "(int.from_bytes(data[%d:%d], 'big') & 0x%08x) == 0x%08x" % (
        expr.offset,
        end,
        expr.mask,
        expr.value,
    )


# CPython's tokenizer rejects source nested deeper than 100 indentation
# levels; long inlined yes-chains (big firewalls) could reach it, so
# subtrees are spilled into helper functions past this depth.
_MAX_INLINE_DEPTH = 40


def generate_source(tree, function_name="classify"):
    """Python source for a module defining ``function_name(data) -> int | None``."""
    lines = [GENERATED_HEADER]
    max_offset = tree.max_offset()

    if not tree.exprs:
        lines.append("def %s(data):" % function_name)
        lines.append("    %s" % _leaf_statement(
            FAILURE if tree.constant_output is None else -tree.constant_output
        ))
        lines.append("")
        return "\n".join(lines)

    degrees = _in_degrees(tree)
    helper_nodes = {pos for pos, degree in degrees.items() if degree > 1 and pos != 1}
    deferred = []  # nodes discovered to need helpers during emission

    def emit(pos, indent, out, depth):
        pad = "    " * indent
        if is_leaf(pos):
            out.append(pad + _leaf_statement(pos))
            return
        if pos in helper_nodes:
            out.append(pad + "return _step_%d(data)" % pos)
            return
        if depth >= _MAX_INLINE_DEPTH:
            helper_nodes.add(pos)
            deferred.append(pos)
            out.append(pad + "return _step_%d(data)" % pos)
            return
        expr = tree.exprs[pos - 1]
        out.append(pad + "if %s:" % _test_expression(expr))
        emit(expr.yes, indent + 1, out, depth + 1)
        emit(expr.no, indent, out, depth + 1)

    def emit_function(name, pos):
        out = ["def %s(data):" % name]
        expr = tree.exprs[pos - 1]
        out.append("    if %s:" % _test_expression(expr))
        emit(expr.yes, 2, out, 1)
        emit(expr.no, 1, out, 1)
        out.append("")
        return out

    # The main body first (it may defer deep subtrees), collected so
    # helpers can still be emitted before it in the final source.
    body = ["def %s(data):" % function_name]
    body.append("    if len(data) < %d:" % max_offset)
    body.append("        data = bytes(data) + b'\\x00' * (%d - len(data))" % max_offset)
    emit(1, 1, body, 0)
    body.append("")

    # Helper functions: shared nodes plus anything deferred for depth,
    # emitted successors-first; emitting one may defer more.
    emitted_helpers = {}
    pending = [pos for pos in _reverse_topological(tree) if pos in helper_nodes]
    while pending:
        pos = pending.pop(0)
        if pos in emitted_helpers:
            continue
        emitted_helpers[pos] = emit_function("_step_%d" % pos, pos)
        pending.extend(p for p in deferred if p not in emitted_helpers)
        deferred.clear()

    # Definition order: helpers in reverse-topological order (successors
    # first is not strictly required — calls resolve at run time — but
    # keeps the output readable), then the entry function.
    for pos in sorted(emitted_helpers, reverse=True):
        lines.extend(emitted_helpers[pos])
    lines.extend(body)
    return "\n".join(lines)


class CompiledClassifier:
    """A decision tree compiled to Python.

    ``classifier(data)`` returns the output port (or None to drop); the
    generated source is kept for inspection and for bundling into
    configuration archives.
    """

    def __init__(self, tree, function_name="classify"):
        self.tree = tree
        self.source = generate_source(tree, function_name)
        namespace = {}
        code = compile(self.source, "<click-fastclassifier>", "exec")
        exec(code, namespace)  # noqa: S102 - our own generated code
        self._function = namespace[function_name]
        self.noutputs = tree.noutputs

    def __call__(self, data):
        return self._function(data)

    def match(self, data):
        return self._function(data)


def compile_tree(tree):
    """Optimize ``tree`` and compile it to Python."""
    from .optimize import optimize

    return CompiledClassifier(optimize(tree))


def _pending(*args, _enter=None, _key=()):
    return _enter(*_key)(*args)


def pending_function(name, namespace, enter, *key):
    """A function ``name`` over ``namespace`` built when first called:
    the call runs ``enter(*key)`` — which gives *this very object* the
    real code (:func:`become`) — and calls what it returns, so whoever
    holds the object holds the real function from then on."""
    function = types.FunctionType(_pending.__code__, namespace, name)
    function.__kwdefaults__ = {"_enter": enter, "_key": key}
    return function


def is_pending(function):
    """Is ``function`` a :func:`pending_function` not built yet?"""
    return function.__code__ is _pending.__code__


def enter(function):
    """Build ``function`` now if it is still pending, as its first call
    would."""
    if is_pending(function):
        pending = function.__kwdefaults__
        pending["_enter"](*pending["_key"])


def become(function, real):
    """Make ``function`` run ``real``'s code (same globals) and defaults."""
    function.__code__, function.__defaults__ = real.__code__, real.__defaults__
    function.__kwdefaults__ = real.__kwdefaults__
    return function


_FUNCTION_CACHE = OrderedDict()
_FUNCTION_CACHE_LIMIT = 256


def _enter_matcher(source, namespace):
    function = namespace["classify"]
    exec(compile(source, "<click-fastclassifier>", "exec"), namespace)  # noqa: S102
    return become(function, namespace["classify"])


def compiled_function_for(tree):
    """The raw generated match function for ``tree``, memoized by the
    tree's structural signature.  Identical classifiers across repeated
    router builds (benchmarks, tests, the adaptive engine's recompiles)
    share one function.  Its source is generated here (the step that
    can reject a tree) and compiled when it is first called: a matcher
    the diagram-fused chains never call is never compiled.
    The tree is compiled as-is — optimization is the caller's business.
    The memo holds the ``_FUNCTION_CACHE_LIMIT`` trees asked for most
    recently: a full memo evicts the one asked for least recently, so a
    router's rebuild or hot-swap of the rules it runs finds them.  A hit
    moves its entry to the end in place, allocating nothing.
    """
    key = tree.signature()
    function = _FUNCTION_CACHE.get(key)
    if function is not None:
        _FUNCTION_CACHE.move_to_end(key)
        return function
    namespace = {}
    function = namespace["classify"] = pending_function(
        "classify", namespace, _enter_matcher, generate_source(tree), namespace
    )
    _FUNCTION_CACHE[key] = function
    if len(_FUNCTION_CACHE) > _FUNCTION_CACHE_LIMIT:
        _FUNCTION_CACHE.popitem(last=False)
    return function
