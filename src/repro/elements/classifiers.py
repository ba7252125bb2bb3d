"""Classification elements: Classifier, IPClassifier, IPFilter, and the
base class for click-fastclassifier's generated elements.

The generic elements "compile textual filter specifications ... into
decision tree structures traversed on each packet" (§3); they charge the
cost meter per tree step so the simulation sees exactly the memory-walk
cost the paper attributes to them.  FastClassifierBase runs a compiled
Python function instead and charges the (cheaper) compiled-step cost.
"""

from __future__ import annotations

from ..classifier.compile import CompiledClassifier, compiled_function_for, enter, is_pending
from ..classifier.ipfilter import compile_expressions, compile_filter_rules, filter_rules_key
from ..classifier.language import compile_patterns
from ..classifier.optimize import optimize
from .element import ConfigError, Element
from .registry import register

CLASSIFIER_CLASS_NAMES = ("Classifier", "IPClassifier", "IPFilter")


def _guard_test(conds, data):
    """Guard condition tuples (see
    :meth:`~repro.runtime.fastpath.ChainPolicy.hot_arm`) as one boolean
    expression over the local ``data`` holding the packet contents."""
    parts = []
    for cond in conds:
        kind = cond[0]
        if kind == "len":
            parts.append("len(%s) >= %d" % (data, cond[1]))
        elif kind == "slice":
            _, start, end, value, equal = cond
            parts.append("%s[%d:%d] %s %r" % (data, start, end, "==" if equal else "!=", value))
        elif kind == "masked":
            _, offset, width, mask, value, equal = cond
            parts.append(
                "(int.from_bytes(%s[%d:%d], 'big') & 0x%x) %s 0x%x"
                % (data, offset, offset + width, mask, "==" if equal else "!=", value)
            )
        else:
            raise ValueError("unknown guard condition %r" % (cond,))
    return " and ".join(parts)


def _classifier_dispatch(element, cx, match):
    """How a classifier's output port is decided, declared to the chain
    compiler (``cx.dispatch``): ``match(data)`` on the contents, a drop
    for no answer or one past the outputs, the rest through a plain jump
    table; the tree is what a diagram expands.  A speculated answer is
    guarded by conditions over the contents that imply it, and their
    length condition lets the hot arm's segments assume a minimum
    contents length (bounds checks drop out)."""
    c, jt = cx.element(element), cx.jump_table(element, "plain")

    def select(var, pad, note):
        lines = [pad + "out = %s" % match("data")]
        return lines + ([pad + "%s(out, data)" % note] if note else []), pad

    def speculate(guard, arm):
        conds, out = guard
        least = max([cond[1] for cond in conds if cond[0] == "len"] or [0])
        body = arm(out, {"data": "data", "min_len": least})
        return (_guard_test(conds, "data"), body) if body is not None else None

    return cx.dispatch(
        element, "classifier", select, "%s.drops += 1" % c, jt, "plain", speculate,
        load=lambda var, pad: cx.contents(var, pad, "data"), tree=element.tree, match=match,
    )


class _TreeClassifier(Element):
    """Shared dispatch for the tree-walking classifier elements."""

    processing = "h/h"
    port_counts = "1/-"
    STATE = {"drops": ("carry", "sum")}

    def build_tree(self, args):
        raise NotImplementedError

    def optimized_tree(self, args):
        """The optimized decision tree for the rules ``args``; bad rules
        raise :class:`ConfigError`.  §3: the generic classifiers got "an
        extensive set of decision tree optimizations, similar to BPF+'s"
        — the elements themselves run the optimizer; fastclassifier then
        compiles the already-optimized tree."""
        if not args:
            raise ConfigError("%s needs at least one pattern" % self.class_name)
        try:
            return optimize(self.build_tree(args))
        except ValueError as exc:
            raise ConfigError("%s: %s" % (self.class_name, exc)) from exc

    def rules_key(self, args):
        """What a rules patch compares with the live rules: equal keys
        give every packet the same output, so a patch to an equal key
        is a no-op (:meth:`check_rules`).  Patterns are positional —
        the first match picks the output — so by default the key is
        the rules themselves."""
        return tuple(args)

    def configure(self, args):
        self.tree = self.optimized_tree(args)
        self.live_key = self.rules_key(args)
        # How many outputs this configuration declares (click-check
        # verifies they are all connected).
        self.configured_noutputs = self.tree.noutputs

    def matcher_cell(self):
        """A one-slot list holding the compiled matcher for the current
        tree.  The fast path binds the *cell* (not the function) into
        generated code, so a control-plane rule patch swaps the matcher
        under already-compiled chains without recompiling them."""
        cell = getattr(self, "_matcher_cell", None)
        if cell is None:
            cell = self._matcher_cell = [compiled_function_for(self.tree)]
        return cell

    def check_rules(self, args):
        """Compile and validate replacement rules without touching the
        live tree: the control plane's dry-run half.  Rules whose
        :meth:`rules_key` equals the live one change no output, and
        return None: the live tree, matcher and text stay.  The new
        rules must declare the same output count (changing the number
        of outputs rewires the graph, which needs a hot-swap); bad
        rules raise :class:`ConfigError`.  Returns the optimized tree,
        its matcher and its key for :meth:`commit_rules`."""
        try:
            key = self.rules_key(args)
        except ValueError as exc:
            raise ConfigError("%s: %s" % (self.class_name, exc)) from exc
        if key == self.live_key:
            return None
        tree = self.optimized_tree(args)
        if tree.noutputs != self.configured_noutputs:
            raise ConfigError(
                "rule update changes %s's output count %d -> %d "
                "(a wiring change needs a hot-swap)"
                % (self.name, self.configured_noutputs, tree.noutputs)
            )
        # The matcher's source is generated now, and the successor of a
        # matcher that packets were entering compiled, inside the update
        # rather than by the next packet through the cell, so
        # commit_rules compiles nothing and cannot fail; one nothing
        # entered stays pending.
        matcher = compiled_function_for(tree)
        cell = getattr(self, "_matcher_cell", None)
        if cell is not None and not is_pending(cell[0]):
            enter(matcher)
        return tree, matcher, key

    def commit_rules(self, prepared):
        """Install the tree, matcher and key :meth:`check_rules`
        prepared, swapping the matcher under any live fast-path chains
        through the matcher cell."""
        self.tree, matcher, self.live_key = prepared
        cell = getattr(self, "_matcher_cell", None)
        if cell is not None:
            cell[0] = matcher

    def push(self, port, packet):
        data = packet.data
        if self.router is not None and self.router.meter is not None:
            self.charge("classifier_step", self.tree.steps(data))
        output = self.tree.match(data)
        if output is None or output >= self.noutputs:
            self.drops += 1
            return
        self.output(output).push(packet)

    def segment(self, cold, cx):
        """``push`` through the one-slot matcher cell: a control-plane
        rule patch swaps the function under compiled chains without
        recompiling them (one extra subscript per packet).  The
        profiling flavor, which runs 1 packet in ``sample``, walks the
        live tree instead: it calls no matcher, so a rules patch need
        not compile one for it."""
        if cx.policy.profiling:
            e = cx.element(self)
            return _classifier_dispatch(self, cx, lambda data: "%s.tree.match(%s)" % (e, data))
        m = cx.bind(self.matcher_cell())
        return _classifier_dispatch(self, cx, lambda data: "%s[0](%s)" % (m, data))


@register
class Classifier(_TreeClassifier):
    """Byte-pattern classifier: ``Classifier(12/0800, -)``."""

    class_name = "Classifier"

    def build_tree(self, args):
        return compile_patterns(args)


@register
class IPClassifier(_TreeClassifier):
    """Expression classifier over IP packets: one expression per output."""

    class_name = "IPClassifier"

    def build_tree(self, args):
        return compile_expressions(args)


@register
class IPFilter(_TreeClassifier):
    """allow/deny rule filter over IP packets: allowed packets exit
    output 0, denied packets are dropped."""

    class_name = "IPFilter"
    port_counts = "1/1"

    def build_tree(self, args):
        return compile_filter_rules(args)

    def rules_key(self, args):
        """Rules commute inside a run of one verdict, and ``deny`` is
        ``drop`` (:func:`~repro.classifier.ipfilter.filter_rules_key`)."""
        return filter_rules_key(args)


class FastClassifierBase(Element):
    """Base class for elements generated by click-fastclassifier.

    Generated subclasses pin ``class_name`` (e.g. ``FastClassifier@@c``),
    ``tree`` (the optimized decision tree) and ``compiled`` (the
    CompiledClassifier).  They take no configuration string — the
    classification program is baked in, constants inlined (§4).
    """

    processing = "h/h"
    port_counts = "1/-"
    generated = True
    tree = None
    compiled = None
    STATE = {"drops": ("carry", "sum")}

    def configure(self, args):
        if args:
            raise ConfigError("%s is generated; it takes no arguments" % self.class_name)
        self.configured_noutputs = self.tree.noutputs if self.tree is not None else None

    def push(self, port, packet):
        data = packet.data
        if self.router is not None and self.router.meter is not None:
            # Compiled classification: one charge per step, at the
            # compiled (no-memory-walk) rate.
            self.charge("fast_classifier_step", self.tree.steps(data))
        output = self.compiled(data)
        if output is None or output >= self.noutputs:
            self.drops += 1
            return
        self.output(output).push(packet)

    def segment(self, cold, cx):
        """``push`` through the generated match function itself: the
        tree is baked in at class level and a rule change arrives as a
        new class.  A :class:`CompiledClassifier`'s raw function is
        bound, not the wrapper, whose ``__call__`` adds a frame."""
        wrapped = isinstance(self.compiled, CompiledClassifier)
        m = cx.attr(self, *(("compiled", "_function") if wrapped else ("compiled",)))
        return _classifier_dispatch(self, cx, lambda data: "%s(%s)" % (m, data))


def make_fast_classifier_class(class_name, tree):
    """Create a FastClassifierBase subclass for ``tree`` (used by the
    tool in-process; the emitted archive source recreates the same class
    textually)."""
    compiled = CompiledClassifier(tree)
    return type(
        class_name.replace("@", "_"),
        (FastClassifierBase,),
        {
            "class_name": class_name,
            "tree": tree,
            "compiled": staticmethod(compiled),
        },
    )
