"""Execution profiles: one immutable value describing *how* a router
runs.

:class:`ExecutionProfile` is a frozen dataclass carrying the mode, the
batch flavor, the adaptive-engine configuration, and the supervision
configuration, so a whole execution regime travels as a single value —
and is the only way to say how a router runs.  ``Router.configure``
applies one; ``Router.profile`` reads the current one back; hot-swap and
the control plane carry one across router generations.  The compiled
modes are one engine (:class:`~repro.runtime.adaptive.AdaptiveEngine`)
built from the profile: ``fast`` is tier 1 alone, ``adaptive`` adds
profile-guided tiering, ``fdd`` adds the decision-diagram pass.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .adaptive import AdaptiveConfig
from .recovery import RecoveryConfig
from .supervisor import SupervisorConfig

__all__ = ["ExecutionProfile"]

MODES = ("reference", "fast", "adaptive", "fdd")
SHARD_BACKENDS = ("thread", "process")


@dataclass(frozen=True)
class ExecutionProfile:
    """How a router executes: interpretation tier, batch flavor,
    adaptive-engine tuning, and supervision.

    Immutable, hashable and compared by value (the config objects it
    carries included), so it can be carried across hot-swaps, stored in
    reports, and compared for equality.  Use
    :func:`dataclasses.replace` (or the ``with_*`` helpers) to derive
    variants.
    """

    mode: str = "reference"
    batch: bool = False
    adaptive: AdaptiveConfig | None = None
    #: The :class:`SupervisorConfig` of a supervised profile; None runs
    #: unsupervised (see :attr:`supervised`).
    supervisor: SupervisorConfig | None = None
    workers: int = 1
    shard_backend: str = "thread"
    #: Split every bounded Click queue's capacity across the shards so
    #: aggregate capacity matches the single-plane router (the strict
    #: lossy-overflow contract; see docs/SHARDING.md).
    divide_capacity: bool = False
    #: Frames per dispatch round on the sharded plane (hashed, posted
    #: and run while the next round is hashed); None means
    #: :data:`repro.runtime.shard.DEFAULT_CHUNK_FRAMES`.
    chunk_frames: int | None = None
    #: Self-healing for the sharded plane: a
    #: :class:`~repro.runtime.recovery.RecoveryConfig` turns on health
    #: detection, automatic restart with backoff, and the degraded-mode
    #: dispatch policy it names.  ``None`` keeps worker faults fatal.
    recovery: RecoveryConfig | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(
                "mode must be one of %s, not %r" % ("/".join(MODES), self.mode)
            )
        if self.batch and self.mode == "reference":
            raise ValueError(
                "batch dispatch requires mode 'fast', 'adaptive', or 'fdd'"
            )
        if self.adaptive is not None and not isinstance(self.adaptive, AdaptiveConfig):
            raise TypeError("adaptive must be an AdaptiveConfig or None")
        if self.supervisor is not None and not isinstance(self.supervisor, SupervisorConfig):
            raise TypeError("supervisor must be a SupervisorConfig or None")
        object.__setattr__(self, "batch", bool(self.batch))
        if not isinstance(self.workers, int) or isinstance(self.workers, bool):
            raise TypeError("workers must be an int, not %r" % (self.workers,))
        if self.workers < 1:
            raise ValueError("workers must be >= 1, not %d" % self.workers)
        if self.shard_backend not in SHARD_BACKENDS:
            raise ValueError(
                "shard_backend must be one of %s, not %r"
                % ("/".join(SHARD_BACKENDS), self.shard_backend)
            )
        value = self.chunk_frames
        if value is not None:
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError("chunk_frames must be an int or None, not %r" % (value,))
            if value < 1:
                raise ValueError("chunk_frames must be >= 1, not %d" % value)
        object.__setattr__(self, "divide_capacity", bool(self.divide_capacity))
        if self.recovery is not None and not isinstance(self.recovery, RecoveryConfig):
            raise TypeError("recovery must be a RecoveryConfig or None")

    # -- constructors ------------------------------------------------------

    @classmethod
    def reference(cls, **kwargs):
        """The interpreting oracle."""
        return cls(mode="reference", **kwargs)

    @classmethod
    def fast(cls, batch=False, **kwargs):
        """The compiled fast path (optionally batched)."""
        return cls(mode="fast", batch=batch, **kwargs)

    @classmethod
    def tiered(cls, config=None, batch=False, **kwargs):
        """The adaptive tiered engine, optionally configured by an
        :class:`AdaptiveConfig`."""
        return cls(mode="adaptive", adaptive=config, batch=batch, **kwargs)

    @classmethod
    def fdd(cls, config=None, batch=False, **kwargs):
        """The forwarding-decision-diagram engine: the tiered engine
        with classifier trees compiled into the chains as ordered
        decision diagrams (``config`` tunes the shared adaptive
        machinery)."""
        return cls(mode="fdd", adaptive=config, batch=batch, **kwargs)

    @property
    def supervised(self):
        """Does this profile run under a supervisor?"""
        return self.supervisor is not None

    # -- derivation --------------------------------------------------------

    def with_supervision(self, config=None):
        """This profile, supervised by ``config`` (default knobs when
        None)."""
        return replace(self, supervisor=config if config is not None else SupervisorConfig())

    def without_supervision(self):
        return replace(self, supervisor=None)

    def with_mode(self, mode, batch=None):
        """This profile running under a different execution tier."""
        batch = self.batch if batch is None else bool(batch)
        if mode == "reference":
            batch = False
        return replace(self, mode=mode, batch=batch)

    def with_workers(self, workers, backend=None, divide_capacity=None):
        """This profile sharded across ``workers`` data-plane shards.
        ``backend`` selects ``"thread"`` or ``"process"`` workers;
        ``divide_capacity`` opts into splitting every bounded Click
        queue's capacity across the shards.  ``None`` keeps the current
        value for either."""
        if backend is None:
            backend = self.shard_backend
        if divide_capacity is None:
            divide_capacity = self.divide_capacity
        return replace(
            self,
            workers=workers,
            shard_backend=backend,
            divide_capacity=divide_capacity,
        )

    def with_recovery(self, policy="resteer", config=None, **knobs):
        """This profile with self-healing enabled on its sharded plane:
        an explicit :class:`~repro.runtime.recovery.RecoveryConfig`, or
        one built from ``policy`` and keyword knobs (``restart_budget``,
        ``backoff_base``, ``heartbeat_timeout``, ...)."""
        if config is None:
            config = RecoveryConfig(policy=policy, **knobs)
        return replace(self, recovery=config)

    def shard_local(self):
        """The profile one shard runs under: identical execution tier,
        batch flavor, and supervision, but single-shard — what the
        sharded data plane hands each worker's inner router.  Recovery
        is stripped: self-healing is a property of the *plane*, not of
        any one shard's router."""
        if self.workers == 1 and self.shard_backend == "thread" and self.recovery is None:
            return self
        return replace(self, workers=1, shard_backend="thread", recovery=None)

    # -- presentation ------------------------------------------------------

    @property
    def label(self):
        """A compact human-readable tag, e.g. ``adaptive+batch+supervised``."""
        parts = [self.mode]
        if self.batch:
            parts.append("batch")
        if self.supervised:
            parts.append("supervised")
        if self.workers > 1:
            tag = "shard%d" % self.workers
            if self.shard_backend == "process":
                tag += "proc"
            parts.append(tag)
        if self.recovery is not None:
            parts.append("heal-%s" % self.recovery.policy)
        return "+".join(parts)

    def as_dict(self):
        """JSON-safe summary (configs by presence, not by value)."""
        return {
            "mode": self.mode,
            "batch": self.batch,
            "adaptive": self.adaptive is not None,
            "supervised": self.supervised,
            "supervisor": self.supervisor is not None,
            "workers": self.workers,
            "shard_backend": self.shard_backend,
            "divide_capacity": self.divide_capacity,
            "chunk_frames": self.chunk_frames,
            "recovery": self.recovery.policy if self.recovery is not None else None,
        }

    def __str__(self):
        return self.label
