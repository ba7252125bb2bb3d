"""Property test: branch emission order is semantics-free.

The adaptive tier reorders a classifier's fused dispatch arms
(hottest first) — an optimization that is only sound if classification
is decided by the matcher, never by the order the arms are emitted in.
This drives randomized patterns and traffic through every layer that
dispatches on a classifier output — the interpreted tree, the compiled
matcher, and the fast path's fused dispatch under randomly permuted
``branch_order`` policies — and requires identical classification."""

import random

import pytest

from repro.classifier.compile import compiled_function_for
from repro.classifier.language import PatternError, compile_patterns
from repro.classifier.optimize import optimize
from repro.elements.devices import LoopbackDevice
from repro.elements.runtime import Router
from repro.lang.build import parse_graph
from repro.runtime.fastpath import ChainPolicy, FastPath

SEEDS = [7, 23, 101, 4096]


def random_patterns(rng, max_patterns=5):
    """A random Classifier configuration: byte-equality clauses at random
    offsets, with occasional wildcards and masks, plus a catch-all."""
    patterns = []
    for _ in range(rng.randint(1, max_patterns)):
        clauses = []
        for _ in range(rng.randint(1, 3)):
            offset = rng.randrange(0, 24)
            width = rng.choice([1, 1, 2])
            value = "".join(rng.choice("0123456789abcdef?") for _ in range(width * 2))
            if "?" not in value and rng.random() < 0.3:
                mask = "".join(rng.choice("0f8c3") for _ in range(width * 2))
                clauses.append("%d/%s%%%s" % (offset, value, mask))
            else:
                clauses.append("%d/%s" % (offset, value))
        patterns.append(" ".join(clauses))
    patterns.append("-")
    return patterns


def random_frames(rng, patterns, count=160):
    """Random traffic, biased so every pattern's constraints are
    sometimes satisfied (pure noise rarely hits narrow patterns)."""
    frames = []
    for _ in range(count):
        length = rng.randint(0, 32)
        frame = bytearray(rng.randrange(256) for _ in range(length))
        if patterns and rng.random() < 0.7:
            # Imprint one pattern's constraints onto the noise.
            chosen = rng.choice(patterns[:-1]) if len(patterns) > 1 else None
            if chosen:
                for clause in chosen.split():
                    pos, _, rest = clause.partition("/")
                    value_text, _, _ = rest.partition("%")
                    pos = int(pos)
                    for i in range(0, len(value_text), 2):
                        byte_index = pos + i // 2
                        if byte_index >= len(frame):
                            frame.extend(bytearray(byte_index - len(frame) + 1))
                        hi, lo = value_text[i], value_text[i + 1]
                        byte = frame[byte_index]
                        if hi != "?":
                            byte = (int(hi, 16) << 4) | (byte & 0x0F)
                        if lo != "?":
                            byte = (byte & 0xF0) | int(lo, 16)
                        frame[byte_index] = byte
        frames.append(bytes(frame))
    return frames


@pytest.mark.parametrize("seed", SEEDS)
def test_compiled_matcher_equals_interpreted_tree(seed):
    rng = random.Random(seed)
    for _ in range(8):
        patterns = random_patterns(rng)
        try:
            tree = optimize(compile_patterns(patterns))
        except PatternError:
            continue  # contradictory random constraints — not a config
        matcher = compiled_function_for(tree)
        for frame in random_frames(rng, patterns, count=80):
            assert matcher(frame) == tree.match(frame), (patterns, frame)


class PermutedPolicy(ChainPolicy):
    """Static emission with every fused dispatch's arms in a fixed
    random order — the degrees of freedom tier 2 exercises, without
    guards or pruning, so any output difference is an ordering bug."""

    tag = "permuted"

    def __init__(self, rng):
        super().__init__()
        self._rng = rng

    def branch_order(self, element, nports):
        order = list(range(nports))
        self._rng.shuffle(order)
        return order


def classifier_router(patterns):
    arms = "".join(
        "cl[%d] -> out%d :: Counter -> Discard;\n" % (i, i) for i in range(len(patterns))
    )
    text = (
        "src :: PollDevice(eth0) -> cl :: Classifier(%s);\n%s"
        % (", ".join(patterns), arms)
    )
    devices = {"eth0": LoopbackDevice("eth0")}
    router = Router(parse_graph(text, "<reorder>"), devices=devices)
    return router, devices


def drive(router, devices, frames):
    for frame in frames:
        devices["eth0"].receive_frame(frame)
    router.run_tasks(len(frames))
    return [
        element.count
        for name, element in sorted(router.elements.items())
        if name.startswith("out")
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_fused_dispatch_order_is_semantics_free(seed):
    rng = random.Random(seed)
    for _ in range(4):
        patterns = random_patterns(rng)
        try:
            compile_patterns(patterns)
        except PatternError:
            continue
        frames = random_frames(rng, patterns)

        router, devices = classifier_router(patterns)
        reference = drive(router, devices, frames)
        assert sum(reference) > 0, "traffic never reached the counters"

        for _ in range(3):
            router, devices = classifier_router(patterns)
            fastpath = FastPath(router, policy=PermutedPolicy(rng))
            fastpath.install()
            permuted = drive(router, devices, frames)
            assert permuted == reference, patterns
