"""Sharded, parallel verification engine (ingestion → shard → execute → aggregate).

k-atomicity is local (Section II-B), so a multi-register trace can be
verified register-by-register, in parallel, with no coordination beyond the
final aggregation.  This package turns that theorem into an execution
pipeline; see :class:`Engine` for the entry point.
"""

from .codec import decode_shard_items, encode_shard_items
from .engine import (
    EncodedShardTask,
    Engine,
    RcolShardTask,
    ShardOutcome,
    ShardTask,
    run_shard,
)
from .streaming import DEFAULT_WINDOW, StreamingEngine
from .tiering import (
    TIER_NAMES,
    TierDecision,
    TierPolicy,
    TierStats,
    TierStreamState,
    get_tier_policy,
)
from .executors import (
    EXECUTORS,
    ProcessExecutor,
    SerialExecutor,
    ShardExecutor,
    ThreadExecutor,
    default_jobs,
    get_executor,
)
from .partition import (
    PARTITIONERS,
    HashPartitioner,
    Partitioner,
    RoundRobinPartitioner,
    SizeBalancedPartitioner,
    get_partitioner,
)

__all__ = [
    "DEFAULT_WINDOW",
    "EXECUTORS",
    "EncodedShardTask",
    "RcolShardTask",
    "Engine",
    "HashPartitioner",
    "PARTITIONERS",
    "Partitioner",
    "ProcessExecutor",
    "RoundRobinPartitioner",
    "SerialExecutor",
    "ShardExecutor",
    "ShardOutcome",
    "ShardTask",
    "SizeBalancedPartitioner",
    "StreamingEngine",
    "TIER_NAMES",
    "ThreadExecutor",
    "TierDecision",
    "TierPolicy",
    "TierStats",
    "TierStreamState",
    "decode_shard_items",
    "default_jobs",
    "encode_shard_items",
    "get_executor",
    "get_partitioner",
    "get_tier_policy",
    "run_shard",
]
