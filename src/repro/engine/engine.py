"""The sharded verification engine.

Pipeline (each stage pluggable):

1. **Ingestion** — the trace arrives as a :class:`~repro.core.history.MultiHistory`,
   a streaming :class:`~repro.core.builder.TraceBuilder`, or a raw iterable of
   operations; it is normalised into per-register work without building any
   global index.
2. **Sharding** — a :mod:`partitioner <repro.engine.partition>` groups
   registers into shard tasks.
3. **Execution** — an :mod:`executor <repro.engine.executors>` runs the shard
   tasks serially, on a thread pool, or on a process pool; each shard verifies
   its registers with the unified :func:`repro.core.api.verify` entry point.
4. **Aggregation** — shard results stream back in completion order and are
   merged into a :class:`~repro.analysis.report.TraceVerificationReport`,
   optionally short-circuiting on the first failing register.

Correctness rests on the paper's locality theorem (Section II-B): a
multi-register trace is k-atomic iff every per-register projection is, so the
per-register verdicts are independent and any partitioning/scheduling of
registers yields the same aggregate answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Tuple, Union

from ..core.builder import TraceBuilder
from ..core.errors import VerificationError
from ..core.history import History, MultiHistory
from ..core.operation import Operation
from ..core.result import VerificationResult
from ..core.vector import resolve_kernel
from ..analysis.report import ShardStats, TraceVerificationReport
from .executors import ShardExecutor, default_jobs, get_executor
from .partition import Partitioner, get_partitioner
from .tiering import TierDecision, TierPolicy, TierStats, get_tier_policy

__all__ = [
    "ShardTask",
    "EncodedShardTask",
    "RcolShardTask",
    "ShardOutcome",
    "Engine",
    "DEFAULT_MAX_EXACT_OPS",
]

# Re-exported so the engine can be configured without importing core.api.
from ..core.api import DEFAULT_MAX_EXACT_OPS
from .codec import decode_shard_items, encode_shard_items

TraceLike = Union[MultiHistory, TraceBuilder, Iterable[Operation]]


@dataclass(frozen=True)
class ShardTask:
    """One unit of work: a group of per-register histories plus verify options.

    Everything here pickles by value — algorithm dispatch crosses the process
    boundary as a *name*, resolved against the registry inside the worker —
    so the same task object serves all executors.
    """

    shard_id: int
    items: Tuple[Tuple[Hashable, History], ...]
    k: int
    algorithm: str
    preprocess: bool
    max_exact_ops: int
    kernel: Optional[str] = None
    tier: Optional[TierPolicy] = None

    @property
    def num_ops(self) -> int:
        """Total operations across the shard's registers."""
        return sum(len(h) for _, h in self.items)

    def encode(self) -> "EncodedShardTask":
        """Re-pack the shard with its histories as compact column buffers."""
        return EncodedShardTask(
            shard_id=self.shard_id,
            payload=encode_shard_items(self.items),
            num_ops=self.num_ops,
            k=self.k,
            algorithm=self.algorithm,
            preprocess=self.preprocess,
            max_exact_ops=self.max_exact_ops,
            kernel=self.kernel,
            tier=self.tier,
        )


@dataclass(frozen=True)
class EncodedShardTask:
    """A shard task whose histories travel as compact column buffers.

    Created by :meth:`ShardTask.encode` for executors that cross the process
    boundary: the payload pickles to a fraction of the object graph's size
    (raw timestamp/flag/id columns plus small interning tables instead of one
    pickled dataclass per operation) and decodes through the trusted
    constructors, skipping re-validation of invariants that held on the
    submitting side.
    """

    shard_id: int
    payload: bytes
    num_ops: int
    k: int
    algorithm: str
    preprocess: bool
    max_exact_ops: int
    kernel: Optional[str] = None
    tier: Optional[TierPolicy] = None

    def decode_items(self) -> Tuple[Tuple[Hashable, History], ...]:
        """Rebuild the ``(key, History)`` pairs inside the worker."""
        return tuple(decode_shard_items(self.payload))


@dataclass(frozen=True)
class RcolShardTask:
    """A shard of registers to verify straight from an ``.rcol`` trace file.

    Instead of carrying histories (or column buffers), the task carries the
    *file path* plus the register keys assigned to this shard: each worker
    memory-maps the file independently and ingests only its own registers'
    columns, so a multi-million-operation trace is verified without any
    process ever materialising it — the out-of-core path.  Pickles trivially
    (a path and a key tuple), so process-pool executors need no IPC encoding.
    """

    shard_id: int
    path: str
    keys: Tuple[Hashable, ...]
    num_ops: int
    k: int
    algorithm: str
    preprocess: bool
    max_exact_ops: int
    kernel: Optional[str] = None
    tier: Optional[TierPolicy] = None


@dataclass(frozen=True)
class ShardOutcome:
    """The results of one executed shard, with timing."""

    shard_id: int
    results: Tuple[Tuple[Hashable, VerificationResult], ...]
    num_ops: int
    elapsed_s: float
    #: Per-register tier routes when the shard ran under a tier policy.
    tier_decisions: Tuple[TierDecision, ...] = ()

    @property
    def has_failure(self) -> bool:
        """True iff any register in the shard failed verification."""
        return any(not r for _, r in self.results)


def _run_rcol_shard(task: RcolShardTask) -> ShardOutcome:
    """Verify one :class:`RcolShardTask` by lazy per-register ingestion."""
    from ..core import vector
    from ..io.rcol import RcolFile

    t0 = time.perf_counter()
    results = []
    decisions: List[TierDecision] = []
    with RcolFile(task.path) as rf:
        for key in task.keys:
            col = rf.load_columnar(key)
            if task.tier is not None:
                result, decision = task.tier.verify_columnar_with_decision(
                    col,
                    task.k,
                    key=str(key),
                    algorithm=task.algorithm,
                    preprocess=task.preprocess,
                    max_exact_ops=task.max_exact_ops,
                    kernel=task.kernel,
                    decode_witness=False,
                )
                decisions.append(decision)
            else:
                result = vector.verify_columnar(
                    col,
                    task.k,
                    algorithm=task.algorithm,
                    preprocess=task.preprocess,
                    max_exact_ops=task.max_exact_ops,
                    kernel=task.kernel,
                    decode_witness=False,
                )
            results.append((key, result))
    return ShardOutcome(
        shard_id=task.shard_id,
        results=tuple(results),
        num_ops=task.num_ops,
        elapsed_s=time.perf_counter() - t0,
        tier_decisions=tuple(decisions),
    )


def run_shard(
    task: Union[ShardTask, EncodedShardTask, RcolShardTask]
) -> ShardOutcome:
    """Verify every register of one shard (module-level: picklable).

    Worker processes receive this function by qualified name and the task by
    value; the algorithm is resolved from the registry *here*, inside the
    worker, never shipped as a function object.  Column-encoded tasks are
    decoded here too, on the worker side of the process boundary, and
    ``.rcol`` shards are memory-mapped here, inside the worker that owns them.
    """
    from ..core.api import verify  # local import keeps worker start-up lean

    if isinstance(task, RcolShardTask):
        return _run_rcol_shard(task)
    t0 = time.perf_counter()
    items = task.decode_items() if isinstance(task, EncodedShardTask) else task.items
    results: List[Tuple[Hashable, VerificationResult]] = []
    decisions: List[TierDecision] = []
    for key, history in items:
        if task.tier is not None:
            result, decision = task.tier.verify_with_decision(
                history,
                task.k,
                key=str(key),
                algorithm=task.algorithm,
                preprocess=task.preprocess,
                max_exact_ops=task.max_exact_ops,
                kernel=task.kernel,
            )
            decisions.append(decision)
        else:
            result = verify(
                history,
                task.k,
                algorithm=task.algorithm,
                preprocess=task.preprocess,
                max_exact_ops=task.max_exact_ops,
                kernel=task.kernel,
            )
        results.append((key, result))
    return ShardOutcome(
        shard_id=task.shard_id,
        results=tuple(results),
        num_ops=task.num_ops,
        elapsed_s=time.perf_counter() - t0,
        tier_decisions=tuple(decisions),
    )


class Engine:
    """Sharded, parallel k-atomicity verification of multi-register traces.

    Parameters
    ----------
    executor:
        ``"serial"`` (default), ``"threads"`` or ``"processes"`` — or a
        :class:`~repro.engine.executors.ShardExecutor` instance.
    jobs:
        Worker count for pool executors (default: available CPUs; always 1
        for the serial executor unless given explicitly).
    partitioner:
        ``"hash"``, ``"round-robin"`` or ``"size-balanced"`` (default) — or a
        :class:`~repro.engine.partition.Partitioner` instance.
    shards_per_job:
        Shards created per worker.  Values above 1 (default 2) let completion
        order smooth out imbalance that the partitioner could not predict.
    algorithm, preprocess, max_exact_ops:
        Forwarded to :func:`repro.core.api.verify` for every register.
    kernel:
        Kernel tier (``"object"`` or ``"numpy"``) forwarded to
        :func:`repro.core.api.verify`; ``None`` picks ``"numpy"``.  Carried
        inside the shard task so worker processes honour it too.
    tier:
        Adaptive tier policy (:mod:`repro.engine.tiering`): ``None`` or
        ``"exact"`` (default, every register pays the authoritative
        checker), ``"auto"`` (the anomaly gate, then the k' = 1 screen and
        the k' = 2 confirm, escalating to exact on refusal), or a
        :class:`~repro.engine.tiering.TierPolicy` instance.
        Unknown names raise.  Escalation decisions surface in the report's
        ``tier_stats``/``tier_decisions`` so skipped exact checks are never
        silent.
    compact_ipc:
        When true (default), executors that cross the process boundary ship
        shards as compact column buffers (:mod:`repro.engine.codec`) instead
        of pickled operation object graphs.  In-process executors always use
        the histories directly.
    fail_fast:
        When true, stop dispatching after the first shard containing a
        failing register; unverified registers are reported as skipped.

    Example
    -------
    >>> from repro import Engine
    >>> from repro.core.builder import TraceBuilder
    >>> from repro.core.operation import read, write
    >>> builder = TraceBuilder([
    ...     write("a", 0.0, 1.0, key="x"), read("a", 2.0, 3.0, key="x"),
    ...     write("b", 0.0, 1.0, key="y"), read("b", 2.0, 3.0, key="y"),
    ... ])
    >>> report = Engine().verify_trace(builder, 1)
    >>> report.is_k_atomic, sorted(report.results)
    (True, ['x', 'y'])
    """

    def __init__(
        self,
        *,
        executor: Union[str, ShardExecutor] = "serial",
        jobs: Optional[int] = None,
        partitioner: Union[str, Partitioner] = "size-balanced",
        shards_per_job: int = 2,
        algorithm: str = "auto",
        preprocess: bool = True,
        max_exact_ops: int = DEFAULT_MAX_EXACT_OPS,
        kernel: Optional[str] = None,
        tier: "Union[None, str, TierPolicy]" = None,
        compact_ipc: bool = True,
        fail_fast: bool = False,
    ):
        self.executor = get_executor(executor) if isinstance(executor, str) else executor
        self.partitioner = (
            get_partitioner(partitioner) if isinstance(partitioner, str) else partitioner
        )
        if jobs is not None and jobs < 1:
            raise VerificationError(f"jobs must be >= 1, got {jobs}")
        if shards_per_job < 1:
            raise VerificationError(f"shards_per_job must be >= 1, got {shards_per_job}")
        self.jobs = jobs if jobs is not None else (
            1 if self.executor.name == "serial" else default_jobs()
        )
        self.shards_per_job = shards_per_job
        self.algorithm = algorithm
        self.preprocess = preprocess
        self.max_exact_ops = max_exact_ops
        resolve_kernel(kernel)  # raises on unknown names
        self.kernel = kernel
        self.tier = get_tier_policy(tier)  # raises on unknown names
        self.tier_name = self.tier.name if self.tier is not None else "exact"
        self.compact_ipc = compact_ipc
        self.fail_fast = fail_fast

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    @staticmethod
    def _as_register_histories(trace: TraceLike) -> "List[Tuple[Hashable, History]]":
        """Normalise any accepted trace shape into ``(key, History)`` pairs."""
        if isinstance(trace, MultiHistory):
            return [(key, trace[key]) for key in trace.keys()]
        if isinstance(trace, History):
            return [(trace.key, trace)]
        if not isinstance(trace, TraceBuilder):
            trace = TraceBuilder(trace)  # raw operation stream
        return [(key, trace.history(key)) for key in trace.keys()]

    # ------------------------------------------------------------------
    # Sharding
    # ------------------------------------------------------------------
    def plan(self, registers: "List[Tuple[Hashable, History]]", k: int) -> List[ShardTask]:
        """Partition registers into shard tasks (exposed for inspection)."""
        sized = [(key, len(history)) for key, history in registers]
        num_shards = max(1, min(len(sized), self.jobs * self.shards_per_job))
        assignment = self.partitioner.partition(sized, num_shards)
        by_key = dict(registers)
        tasks: List[ShardTask] = []
        for keys in assignment:
            if not keys:
                continue
            tasks.append(
                ShardTask(
                    shard_id=len(tasks),
                    items=tuple((key, by_key[key]) for key in keys),
                    k=k,
                    algorithm=self.algorithm,
                    preprocess=self.preprocess,
                    max_exact_ops=self.max_exact_ops,
                    kernel=self.kernel,
                    tier=self.tier,
                )
            )
        return tasks

    # ------------------------------------------------------------------
    # Execution + aggregation
    # ------------------------------------------------------------------
    def verify_file(
        self, path, k: int, *, fmt: Optional[str] = None
    ) -> TraceVerificationReport:
        """Verify a trace file in any registered format.

        ``fmt`` names a format from the registry (``"jsonl"``, ``"csv"``,
        ``"jepsen"``, ``"porcupine"``, ...); ``None`` sniffs the extension.
        Row formats are streamed straight into per-register buckets — foreign
        event histories included — and verified like any other trace.
        Memory-mapped ``.rcol`` traces take the out-of-core route instead:
        shard tasks carry only the path and register keys, and workers map
        their registers' columns lazily (no full materialisation).
        """
        from ..io.registry import resolve_format, stream_trace  # io builds on the engine's inputs

        if resolve_format(path, fmt).name == "rcol":
            return self._verify_rcol_file(path, k)
        return self.verify_trace(TraceBuilder(stream_trace(path, fmt)), k)

    def _verify_rcol_file(self, path, k: int) -> TraceVerificationReport:
        """Verify an ``.rcol`` trace out-of-core: shards carry the file path
        and register keys, and each worker memory-maps only its share."""
        from ..io.rcol import RcolFile

        rf = RcolFile(path)
        sized = rf.register_sizes()
        rf.close()
        key_order = [key for key, _ in sized]
        size_of = dict(sized)
        num_shards = max(1, min(len(sized), self.jobs * self.shards_per_job))
        assignment = self.partitioner.partition(sized, num_shards) if sized else []
        tasks: List[RcolShardTask] = []
        for keys in assignment:
            if not keys:
                continue
            tasks.append(
                RcolShardTask(
                    shard_id=len(tasks),
                    path=str(path),
                    keys=tuple(keys),
                    num_ops=sum(size_of[key] for key in keys),
                    k=k,
                    algorithm=self.algorithm,
                    preprocess=self.preprocess,
                    max_exact_ops=self.max_exact_ops,
                    kernel=self.kernel,
                    tier=self.tier,
                )
            )
        return self._execute(tasks, key_order, k)

    def verify_trace(self, trace: TraceLike, k: int) -> TraceVerificationReport:
        """Verify every register of ``trace`` and aggregate the results."""
        registers = self._as_register_histories(trace)
        key_order = [key for key, _ in registers]
        tasks: List[Union[ShardTask, EncodedShardTask]] = list(self.plan(registers, k))
        if self.compact_ipc and self.executor.crosses_process_boundary:
            tasks = [task.encode() for task in tasks]
        return self._execute(tasks, key_order, k)

    def _execute(self, tasks, key_order, k: int) -> TraceVerificationReport:
        """Run planned shard tasks and merge their outcomes into a report."""
        merged: Dict[Hashable, VerificationResult] = {}
        stats: List[ShardStats] = []
        tier_stats = TierStats() if self.tier is not None else None
        tier_decisions: Dict[str, TierDecision] = {}
        t0 = time.perf_counter()
        outcome_stream = self.executor.run(run_shard, tasks, self.jobs)
        try:
            for outcome in outcome_stream:
                merged.update(outcome.results)
                stats.append(
                    ShardStats(
                        shard_id=outcome.shard_id,
                        num_registers=len(outcome.results),
                        num_ops=outcome.num_ops,
                        elapsed_s=outcome.elapsed_s,
                    )
                )
                if tier_stats is not None:
                    for decision in outcome.tier_decisions:
                        tier_stats.record(decision)
                        tier_decisions[decision.key] = decision
                if self.fail_fast and outcome.has_failure:
                    break
        finally:
            outcome_stream.close()
        elapsed = time.perf_counter() - t0

        results = {key: merged[key] for key in key_order if key in merged}
        skipped = tuple(key for key in key_order if key not in merged)
        return TraceVerificationReport(
            k=k,
            results=results,
            executor=self.executor.name,
            partitioner=self.partitioner.name,
            jobs=self.jobs,
            num_shards=len(tasks),
            shard_stats=tuple(stats),
            elapsed_s=elapsed,
            skipped_keys=skipped,
            tier=self.tier_name,
            tier_stats=tier_stats.to_dict() if tier_stats is not None else {},
            tier_decisions=tier_decisions,
        )
