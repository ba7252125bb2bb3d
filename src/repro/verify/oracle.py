"""The differential oracle: run one case under every execution mode and
optimization axis, and compare everything externally observable.

A *case* is a JSON-serializable dict::

    {"name": str,           # label for reports
     "config": str,         # Click-language configuration text
     "events": [event...],  # the traffic/control trace (below)
     "optimize": bool}      # also run the `paper`-pipeline-optimized graph

Events are small lists so cases round-trip through JSON repro files:
``["frame", DEVICE, HEX]``, ``["run", N]``, ``["insert", ...]``,
``["hotswap", CONFIG]``, ``["update", CONFIG]`` and the rest of the
vocabulary :mod:`repro.events` tabulates and interprets.  Every
control event is a valid differential event: it may change which tier
runs or how a configuration is installed, never observable behaviour.

Cases may also carry a fault plan (see :mod:`repro.sim.faults` and
:mod:`repro.verify.chaos`): ``run_case(..., plan=..., supervised=True)``
wires a :class:`FaultInjector` under the router (ticked once per
``["run"]`` event) and supervises it.

Within one graph the comparison is strict: transmitted bytes per device
plus every element's read handlers (counters, drop reasons).  Across the
optimized/unoptimized axis only transmitted bytes compare — the rewrites
rename and merge elements, so handler sets legitimately differ.
``shard-*`` modes (the same tiers fanned across a
:class:`~repro.runtime.shard.ShardedRouter`) weaken the relation to the
sharding contract: per-flow byte-identical sequences and per-device
multiset equality (:func:`sharded_transmit_difference`), with counters
exempt from the diff.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import replace

from ..core.pipeline import named_pipeline
from ..core.toolchain import load_config, save_config
from ..elements.devices import LoopbackDevice, PollDevice
from ..elements.runtime import build_router
from ..events import apply, read_counters
from ..runtime.adaptive import AdaptiveConfig
from ..runtime.profile import ExecutionProfile
from ..runtime.shard import device_names_of

#: Mode label -> (Router mode, batch flavor).  ``batch`` is the batched
#: fast path; a forced mid-run deopt rides in as a ``["deopt"]`` event.
MODES = OrderedDict(
    [
        ("reference", ("reference", False)),
        ("fast", ("fast", False)),
        ("batch", ("fast", True)),
        ("adaptive", ("adaptive", False)),
        ("fdd", ("fdd", False)),
    ]
)

#: Sharded twins of every mode: the same execution tier fanned across
#: worker shards on the deterministic thread backend.  The comparison
#: contract changes with them — per-flow byte-identical, per-device
#: multiset-identical, counters reconciled by summation rather than
#: compared (see :func:`sharded_transmit_difference`).
SHARD_WORKERS = 2
SHARD_MODES = OrderedDict(("shard-%s" % label, label) for label in MODES)

#: Eager promotion thresholds so small fuzz traces still cross the
#: tier-1 -> tier-2 transition (mirrors the equivalence tests).
EAGER = dict(threshold=48, sample=4, min_samples=12)

#: An eager dispatch round (``chunk_frames``) for the same reason: at
#: the default, no fuzz or chaos trace would ever span two rounds of
#: the sharded plane's streamed dispatch.
SHARD_ROUND = 2 * PollDevice.BURST


def mode_profile(mode, supervised=False):
    """The :class:`~repro.runtime.profile.ExecutionProfile` the oracle
    runs a mode label under (eager adaptive thresholds included, so
    short fuzz traces still cross the tier transition).  ``shard-*``
    labels return the base mode's profile sharded across
    :data:`SHARD_WORKERS` thread-backend workers, dispatching in
    rounds of :data:`SHARD_ROUND` frames."""
    base = SHARD_MODES.get(mode)
    if base is not None:
        sharded = mode_profile(base, supervised=supervised).with_workers(SHARD_WORKERS)
        return replace(sharded, chunk_frames=SHARD_ROUND)
    router_mode, batch = MODES[mode]
    if router_mode == "adaptive":
        profile = ExecutionProfile.tiered(config=AdaptiveConfig(**EAGER))
    elif router_mode == "fdd":
        profile = ExecutionProfile.fdd(config=AdaptiveConfig(**EAGER))
    else:
        profile = ExecutionProfile(mode=router_mode, batch=batch)
    if supervised:
        profile = profile.with_supervision()
    return profile

def device_names(config_text):
    """Every device name the configuration text references (optimizers
    rename element classes, so declarations are resolved the way the
    router build resolves them: :func:`~repro.runtime.shard.device_names_of`)."""
    graph = load_config(config_text, "<fuzz>")
    if graph.element_classes:
        from ..core.flatten import flatten

        graph = flatten(graph)
    return device_names_of(graph)


def optimize_config(config_text):
    """The case's configuration after the `paper` pipeline, round-tripped
    through text exactly as the tool chain would emit it."""
    result = named_pipeline("paper").run(load_config(config_text, "<fuzz>"))
    return save_config(result.graph)


def observe(router, devices):
    """The externally visible state, as JSON-safe data: transmitted
    frames (hex) per device and every element read handler (a sharded
    router reports its shards' handlers reconciled by summation)."""
    transmitted = {
        name: [bytes(frame).hex() for frame in device.transmitted]
        for name, device in sorted(devices.items())
    }
    sharded = getattr(router, "is_sharded", False)
    counters = router.merged_counters() if sharded else read_counters(router)
    return {"transmitted": transmitted, "counters": counters}


def run_case(
    case,
    mode,
    config_text=None,
    plan=None,
    supervised=False,
    collect=None,
    profile=None,
):
    """Run one case under one mode; returns ``("ok", observation)`` or
    ``("error", [exception type name, message])``.  ``config_text``
    overrides the case's config (the optimized-axis text).  ``plan`` is
    an optional :class:`repro.sim.faults.FaultPlan` injected under the
    router; ``supervised`` runs the router supervised; ``collect``
    is called with the final router (for resilience reports).
    ``profile`` overrides the mode-derived
    :class:`~repro.runtime.profile.ExecutionProfile` outright."""
    text = case["config"] if config_text is None else config_text
    if profile is None:
        profile = mode_profile(mode, supervised=supervised)
        if case.get("divide_capacity") and profile.workers > 1:
            # Strict shard contract: split every bounded queue's
            # capacity across the shards so aggregate capacity matches
            # the single-plane router (docs/SHARDING.md).
            profile = profile.with_workers(profile.workers, divide_capacity=True)
    elif supervised and not profile.supervised:
        profile = profile.with_supervision()
    router = None
    try:
        devices = {
            name: LoopbackDevice(name, tx_capacity=1 << 30)
            for name in device_names(case["config"])
        }
        injector = None
        if plan is not None:
            from ..sim.faults import FaultInjector

            injector = FaultInjector(plan)
            devices = injector.wrap_devices(devices)
        # A single router is built in reference mode and compiled once
        # the faults are wired, so the compiler sees the fault wrappers.
        # The sharded plane starts its workers lazily, so the injector
        # attaches (enabling the crash-replay journal) before they start.
        sharded = profile.workers > 1
        router = build_router(
            load_config(text, "<fuzz>"), devices=devices, profile=profile if sharded else None
        )
        if injector is not None:
            injector.prepare_router(router)
        if not sharded:
            router.configure(profile)
        for event in case["events"]:
            if injector is not None and event[0] == "run":
                injector.tick()  # device faults land at one pass in every mode
            try:
                apply(router, event, devices)
            except Exception:  # noqa: BLE001 - re-raised unless contained
                # Chaos runs: an injected fault firing inside the ARP-reply
                # flush is contained at this control-plane boundary.  The
                # abort point is count-based, so every mode flushes the
                # same prefix of held packets.
                if injector is None or event[0] != "insert":
                    raise
    except Exception as exc:  # noqa: BLE001 - the comparison IS the handling
        if router is not None and getattr(router, "is_sharded", False):
            router.close()
        return ("error", [type(exc).__name__, str(exc)])
    if collect is not None:
        collect(router)
    observation = observe(router, devices)
    if getattr(router, "is_sharded", False):
        # Stop the worker threads; the final ShardReport stays readable
        # through router.report() for collectors that held the router.
        router.close()
    return ("ok", observation)


def first_transmit_difference(a, b):
    """A compact human-readable description of the first difference
    between two transmitted-frames observations."""
    for device in sorted(set(a) | set(b)):
        frames_a, frames_b = a.get(device, []), b.get(device, [])
        if frames_a == frames_b:
            continue
        for index, (x, y) in enumerate(zip(frames_a, frames_b)):
            if x != y:
                return "%s[%d]: %s... != %s..." % (device, index, x[:48], y[:48])
        return "%s: %d vs %d frames" % (device, len(frames_a), len(frames_b))
    return None


def _first_counter_difference(a, b):
    for key in sorted(set(a) | set(b)):
        if a.get(key) != b.get(key):
            return "%s: %r != %r" % (key, a.get(key), b.get(key))
    return None


def sharded_transmit_difference(a, b):
    """The sharded comparison contract (a weaker relation than
    byte-for-byte order): per device the transmitted *multiset* must
    match, and per ``(device, flow)`` — keyed by
    :func:`~repro.runtime.flowhash.output_flow_key` on the emitted
    frame — the frame *sequence* must be byte-identical.  Cross-flow
    interleaving is the one freedom sharding is allowed: the degraded
    contract with no flow affected."""
    return degraded_transmit_difference(a, b)


def degraded_transmit_difference(a, b, affected=None):
    """The degraded-mode wire contract
    (:mod:`repro.runtime.recovery`): ``a`` is the healthy reference
    observation, ``b`` the observation of a plane that lost (and
    possibly recovered) shards under a non-fatal recovery policy.

    Per device the transmitted *multiset* must still match exactly —
    degraded mode may delay or re-home frames but never lose or
    duplicate them.  Per ``(device, flow)`` the sequence must be
    byte-identical for every flow that was *not* affected by the
    outage; an affected flow (one that was re-steered, or buffered and
    redelivered) is only held to the multiset guarantee, because its
    order is preserved *from the re-home point*, not across it.

    ``affected`` is a predicate over the emitted frame's
    :func:`~repro.runtime.flowhash.output_flow_key` (or a set of such
    keys); ``None`` means no flow may reorder — the ``buffer`` policy's
    strict contract.
    """
    from ..runtime.flowhash import output_flow_key

    if affected is None:
        predicate = lambda flow: False  # noqa: E731 - strict contract
    elif callable(affected):
        predicate = affected
    else:
        keys = set(affected)
        predicate = keys.__contains__
    for device in sorted(set(a) | set(b)):
        frames_a, frames_b = a.get(device, []), b.get(device, [])
        if frames_a == frames_b:
            continue
        if sorted(frames_a) != sorted(frames_b):
            return "%s: multiset differs (%d vs %d frames)" % (device, len(frames_a), len(frames_b))
        flows_a, flows_b = {}, {}
        for hex_frame in frames_a:
            flows_a.setdefault(output_flow_key(bytes.fromhex(hex_frame)), []).append(hex_frame)
        for hex_frame in frames_b:
            flows_b.setdefault(output_flow_key(bytes.fromhex(hex_frame)), []).append(hex_frame)
        for flow in flows_a:
            if flows_a[flow] == flows_b.get(flow):
                continue
            if predicate(flow):
                # Affected flow: order may break at the re-home point,
                # but its per-device multiset must survive.
                if sorted(flows_a[flow]) != sorted(flows_b.get(flow, [])):
                    return "%s: affected flow %r lost frames" % (device, flow)
                continue
            return "%s: per-flow order differs for unaffected flow %r" % (
                device,
                flow,
            )
    return None


def overflow_drops(counters):
    """Total packets lost to queue overflow across the observation —
    the sum of every ``*.drops`` read handler (Queue admission drops and
    FrontDropQueue front drops)."""
    return sum(
        value
        for key, value in counters.items()
        if key.endswith(".drops") and isinstance(value, int)
    )


def lossy_overflow_skip(reference, result, diff, **where):
    """The skip record for a sharded run's wire difference ``diff`` on a
    trace that overflowed a bounded queue (in either observation), or
    None when none did.  Out of the shard contract: every shard owns a
    private copy of each queue, so which packets drop under pressure
    depends on the partition (see :func:`compare_case`)."""
    drops = max(overflow_drops(reference["counters"]), overflow_drops(result["counters"]))
    if not drops:
        return None
    return dict(where, reason="lossy-overflow: %d queue drop(s) (%s)" % (drops, diff))


#: Classes that number every flow's packets from one counter (IP IDs):
#: each shard numbers its own, so no partition emits the single plane's
#: bytes.  Out of the shard contract, as lossy overflow is.
CROSS_FLOW_CLASSES = frozenset(["UDPIPEncap"])


def cross_flow_skip(config_text, diff, **where):
    """The skip record for a sharded run's wire difference ``diff`` on a
    configuration holding a :data:`CROSS_FLOW_CLASSES` element, else None."""
    elements = load_config(config_text, "<fuzz>").elements.values()
    names = sorted(decl.name for decl in elements if decl.class_name in CROSS_FLOW_CLASSES)
    return dict(where, reason="cross-flow state: %s (%s)" % (", ".join(names), diff)) if names else None


def compare_case(case, modes=None):
    """Run the full matrix for one case and diff it.

    Returns a JSON-safe dict: ``status`` is ``"ok"`` (matrix agrees),
    ``"divergence"`` (with a ``divergences`` list), or ``"error"``
    (every run failed identically — the case itself is bad).

    ``shard-*`` modes are compared under the flow-aware relation
    (:func:`sharded_transmit_difference`) and their counters are not
    diffed against the reference: shard reconciliation sums numeric
    handlers, but order-dependent observables (BTB hit rates, adaptive
    promotion sample counts) legitimately differ across a partition.

    Traces that overflow a bounded queue are *out of contract* for the
    shard modes: every shard owns a private copy of each queue, so
    aggregate capacity — and therefore which packets drop under
    pressure — scales with the worker count.  Like count-ordered
    element faults, load-dependent loss is exactly what partitioning
    does not preserve.  Such cases are reported under ``skips`` (axis,
    mode, reason), never silently passed and never miscounted as
    divergences; when no queue overflowed, a multiset mismatch is still
    a real divergence.  A case carrying ``"divide_capacity": True``
    opts the shard modes into divide-capacity mode (every bounded
    queue's capacity split across the shards, so aggregate capacity
    matches the single plane) — under that mode lossy traces are back
    in contract and are compared, not skipped.  One that numbers packets
    across flows stays out of contract (:func:`cross_flow_skip`)."""
    modes = [m for m in (modes or list(MODES)) if m in MODES or m in SHARD_MODES]
    if "reference" not in modes:
        modes = ["reference"] + modes
    axes = [("plain", None)]
    if case.get("optimize", True):
        try:
            axes.append(("optimized", optimize_config(case["config"])))
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            return {
                "status": "error",
                "detail": "optimizer failed: %s: %s" % (type(exc).__name__, exc),
                "divergences": [],
            }

    divergences = []
    skips = []
    references = {}
    for axis, text in axes:
        reference = run_case(case, "reference", config_text=text)
        references[axis] = reference
        for mode in modes:
            if mode == "reference":
                continue
            result = run_case(case, mode, config_text=text)
            if result[0] != reference[0]:
                divergences.append(
                    {
                        "axis": axis,
                        "mode": mode,
                        "kind": "exception",
                        "detail": "reference=%r %s=%r" % (reference, mode, result),
                    }
                )
                continue
            if result[0] == "error":
                if result[1][0] != reference[1][0]:
                    divergences.append(
                        {
                            "axis": axis,
                            "mode": mode,
                            "kind": "exception",
                            "detail": "%s vs %s" % (reference[1][0], result[1][0]),
                        }
                    )
                continue
            sharded = mode in SHARD_MODES
            transmit_diff = (
                sharded_transmit_difference if sharded else first_transmit_difference
            )
            diff = transmit_diff(
                reference[1]["transmitted"], result[1]["transmitted"]
            )
            if diff is not None:
                skip = None
                if sharded and not case.get("divide_capacity"):
                    skip = lossy_overflow_skip(reference[1], result[1], diff, axis=axis, mode=mode)
                if sharded and skip is None:
                    skip = cross_flow_skip(case["config"], diff, axis=axis, mode=mode)
                if skip is not None:
                    skips.append(skip)
                    continue
                divergences.append(
                    {"axis": axis, "mode": mode, "kind": "transmitted", "detail": diff}
                )
                continue
            if sharded:
                continue
            diff = _first_counter_difference(
                reference[1]["counters"], result[1]["counters"]
            )
            if diff is not None:
                divergences.append(
                    {"axis": axis, "mode": mode, "kind": "counters", "detail": diff}
                )

    # Across the optimization axis: transmitted bytes only.
    if len(axes) == 2:
        plain, optimized = references["plain"], references["optimized"]
        if plain[0] != optimized[0] or (
            plain[0] == "error" and plain[1][0] != optimized[1][0]
        ):
            divergences.append(
                {
                    "axis": "optimized-vs-plain",
                    "mode": "reference",
                    "kind": "exception",
                    "detail": "plain=%r optimized=%r" % (plain, optimized),
                }
            )
        elif plain[0] == "ok":
            diff = first_transmit_difference(
                plain[1]["transmitted"], optimized[1]["transmitted"]
            )
            if diff is not None:
                divergences.append(
                    {
                        "axis": "optimized-vs-plain",
                        "mode": "reference",
                        "kind": "transmitted",
                        "detail": diff,
                    }
                )

    if divergences:
        return {"status": "divergence", "divergences": divergences, "skips": skips}
    if all(reference[0] == "error" for reference in references.values()):
        detail = references["plain"][1]
        return {
            "status": "error",
            "detail": "%s: %s" % (detail[0], detail[1]),
            "divergences": [],
            "skips": skips,
        }
    return {"status": "ok", "divergences": [], "skips": skips}


def case_fails(case, modes=None):
    """True when the matrix disagrees — the shrinker's predicate."""
    return compare_case(case, modes=modes)["status"] == "divergence"
