"""Typed parameter domains and the tunable-knob registry.

The runtime modules each export a ``TUNABLES`` tuple of plain-dict
declarations next to the config class whose fields they describe
(:data:`repro.runtime.adaptive.TUNABLES` and friends).  This module
turns those declarations into :class:`Param` objects, assembles them
into a :class:`ParamSpace` with cross-parameter validity constraints
(e.g. the adaptive sampling stride must stay a power of two and below
the promotion threshold), and samples valid assignments for the search
driver.
"""

from __future__ import annotations

import math

__all__ = ["Param", "ParamSpace", "default_space"]

KINDS = ("int", "log_int", "choice")


def _is_power_of_two(value):
    return isinstance(value, int) and value >= 1 and value & (value - 1) == 0


class Param:
    """One tunable knob: a dotted name plus a typed domain.

    Kinds:

    - ``"int"``: uniform integer in ``[low, high]``;
    - ``"log_int"``: integer in ``[low, high]`` sampled uniformly in
      log2 space (right shape for thresholds and budgets spanning
      decades);
    - ``"choice"``: one of an explicit value list (the only kind that
      may carry non-integer values).
    """

    __slots__ = ("name", "kind", "default", "low", "high", "choices")

    def __init__(self, name, kind, default, low=None, high=None, choices=None):
        if kind not in KINDS:
            raise ValueError("kind must be one of %s, not %r" % ("/".join(KINDS), kind))
        self.name = name
        self.kind = kind
        self.default = default
        self.low = low
        self.high = high
        self.choices = list(choices) if choices is not None else None
        if kind == "choice":
            if not self.choices:
                raise ValueError("%s: choice domain needs choices" % name)
        else:
            if low is None or high is None or low > high:
                raise ValueError("%s: need low <= high, got %r..%r" % (name, low, high))
        if not self.valid(default):
            raise ValueError("%s: default %r outside its own domain" % (name, default))

    @classmethod
    def from_declaration(cls, declaration):
        """Build a Param from one runtime ``TUNABLES`` entry (a plain
        dict with ``name``/``kind``/``default`` plus domain fields)."""
        return cls(
            declaration["name"],
            declaration["kind"],
            declaration["default"],
            low=declaration.get("low"),
            high=declaration.get("high"),
            choices=declaration.get("choices"),
        )

    def valid(self, value):
        """True when ``value`` lies in this parameter's domain."""
        if self.kind == "choice":
            return any(value == choice and type(value) is type(choice) for choice in self.choices)
        if not isinstance(value, int) or isinstance(value, bool):
            return False
        return self.low <= value <= self.high

    def sample(self, rng):
        """One domain point drawn from ``rng`` (a ``random.Random``)."""
        if self.kind == "choice":
            return self.choices[rng.randrange(len(self.choices))]
        if self.kind == "int":
            return rng.randint(self.low, self.high)
        exponent = rng.uniform(math.log2(self.low), math.log2(self.high))
        return max(self.low, min(self.high, int(round(2.0 ** exponent))))

    def pin(self, value):
        """A copy of this parameter frozen to ``value`` (used to hold
        construction-time knobs such as the worker count fixed)."""
        return Param(self.name, "choice", value, choices=[value])

    def __repr__(self):
        if self.kind == "choice":
            return "Param(%s, choice%r)" % (self.name, tuple(self.choices))
        return "Param(%s, %s %d..%d)" % (self.name, self.kind, self.low, self.high)


class ParamSpace:
    """An ordered set of :class:`Param` plus validity constraints.

    Constraints are ``(description, predicate)`` pairs over a full
    assignment dict; :meth:`sample` rejection-samples until every
    predicate holds (falling back to the all-defaults assignment if the
    try budget runs out, which by construction is always valid)."""

    def __init__(self, params, constraints=()):
        self.params = {param.name: param for param in params}
        self.constraints = tuple(constraints)
        defaults = self.defaults()
        problem = self.check(defaults)
        if problem is not None:
            raise ValueError("default assignment is invalid: %s" % problem)

    def __len__(self):
        return len(self.params)

    def __iter__(self):
        return iter(self.params.values())

    def defaults(self):
        """The all-defaults assignment — the shipped constants."""
        return {name: param.default for name, param in self.params.items()}

    def check(self, assignment):
        """None when ``assignment`` is valid, else a human-readable
        description of the first violation."""
        for name, param in self.params.items():
            if name not in assignment:
                return "missing %s" % name
            if not param.valid(assignment[name]):
                return "%s=%r outside %r" % (name, assignment[name], param)
        for description, predicate in self.constraints:
            if not predicate(assignment):
                return description
        return None

    def validate(self, assignment):
        """Raise ``ValueError`` unless ``assignment`` is valid."""
        problem = self.check(assignment)
        if problem is not None:
            raise ValueError("invalid assignment: %s" % problem)
        return assignment

    def sample(self, rng, max_tries=64):
        """One valid assignment from ``rng`` (rejection sampling)."""
        for _ in range(max_tries):
            assignment = {
                name: param.sample(rng) for name, param in self.params.items()
            }
            if self.check(assignment) is None:
                return assignment
        return self.defaults()


def _runtime_declarations():
    from ..runtime import adaptive, fdd, profile, shard, supervisor

    declarations = []
    for module in (adaptive, fdd, shard, supervisor, profile):
        declarations.extend(module.TUNABLES)
    return declarations


def default_space(workers=1):
    """The runtime's full knob space for ``workers`` shards.

    Collects every ``TUNABLES`` declaration the runtime modules export,
    pins ``shard.workers`` to the requested worker count (worker count
    is construction-time: the tuner models it but never re-shards a
    profile), and attaches the cross-parameter constraints:

    - ``adaptive.sample`` must be a power of two (the dispatcher masks,
      it does not divide);
    - ``adaptive.sample`` and ``adaptive.min_samples`` must not exceed
      ``adaptive.threshold`` (promotion must be reachable).

    The execution mode and supervision do not change the space's shape:
    the search driver canonicalizes the knobs they leave inert back to
    their defaults.
    """
    params = []
    for declaration in _runtime_declarations():
        param = Param.from_declaration(declaration)
        if param.name == "shard.workers":
            param = param.pin(workers)
        params.append(param)
    constraints = (
        (
            "adaptive.sample must be a power of two",
            lambda a: _is_power_of_two(a["adaptive.sample"]),
        ),
        (
            "adaptive.sample must not exceed adaptive.threshold",
            lambda a: a["adaptive.sample"] <= a["adaptive.threshold"],
        ),
        (
            "adaptive.min_samples must not exceed adaptive.threshold",
            lambda a: a["adaptive.min_samples"] <= a["adaptive.threshold"],
        ),
    )
    return ParamSpace(params, constraints)
