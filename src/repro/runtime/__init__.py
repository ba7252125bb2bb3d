"""Runtime acceleration: compile a wired router into a fast path.

The paper's optimizers rewrite *configurations*; this package applies
the same whole-configuration knowledge to the *runtime* — walking the
instantiated graph once and generating specialized dispatch code, the
move Morpheus and the NetKAT compiler make at runtime scale.
"""

from .adaptive import AdaptiveConfig, AdaptiveEngine, ProfileReport
from .codegen_cache import CodegenCache, default_cache
from .fastpath import ChainPolicy, FastPath, FastPathError, FastPathReport
from .fdd import DiagramPlan, build_diagram
from .flowhash import DEFAULT_SEED, FlowHasher, flow_key, rendezvous_shard, shard_of
from .profile import ExecutionProfile
from .recovery import (
    QuarantineRecord,
    RecoveryConfig,
    RecoveryError,
    RecoveryManager,
    RecoveryReport,
)
from .shard import ShardedRouter, ShardReport, SPSCQueue, device_names_of
from .supervisor import ResilienceReport, Supervisor, SupervisorConfig

__all__ = [
    "AdaptiveConfig",
    "AdaptiveEngine",
    "build_diagram",
    "ChainPolicy",
    "CodegenCache",
    "default_cache",
    "DEFAULT_SEED",
    "device_names_of",
    "DiagramPlan",
    "ExecutionProfile",
    "FastPath",
    "FastPathError",
    "FastPathReport",
    "FlowHasher",
    "flow_key",
    "ProfileReport",
    "QuarantineRecord",
    "RecoveryConfig",
    "RecoveryError",
    "RecoveryManager",
    "RecoveryReport",
    "rendezvous_shard",
    "ResilienceReport",
    "shard_of",
    "ShardedRouter",
    "ShardReport",
    "SPSCQueue",
    "Supervisor",
    "SupervisorConfig",
]
