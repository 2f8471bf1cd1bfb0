"""Seeded benchmark inputs, written to files, and their oracle references.

Every workload's input is generated here, in the benchmark process, from the
workload seed alone, and written to trace files under the cache directory.
The program under test only ever sees those files (or the operations decoded
from them).  The reference verdicts come from the exact object-path oracle
(``kernel="object"``), computed once per seed outside any timed region and
cached beside the inputs.
"""

from __future__ import annotations

import hashlib
import pickle
import random
from pathlib import Path

from common import CACHE_DIR

#: Register classes cycled through a mixed trace: (staleness probability,
#: max staleness).  Clean registers are 1-atomic, lag-1 registers are
#: 2-atomic but usually not 1-atomic, lag-2 registers fail k=2.  Stale
#: reads are frequent enough in that class that every lag-2 register fails
#: (all 160 of 32 sampled streams did), so a stream's count of NO registers,
#: and the re-check work their verdicts save, varies little between seeds.
MIXED_CLASSES = ((0.0, 1), (0.05, 1), (0.25, 2))

#: Per-workload input shapes.
SHAPES = {
    # One file: 16 registers x 500 ops = 8k ops, JSON Lines.
    "verify_jsonl": {"registers": 16, "ops": 500},
    # One file: 128 registers x 1000 ops = 128k ops, memory-mapped .rcol.
    "verify_rcol": {"registers": 128, "ops": 1000},
    # Eight streams of 16 registers x 128 ops = 2048 ops each, completion
    # order: a timed unit replays all eight, so all units do the same work,
    # and a run's figures average over 128 registers' histories.
    "stream_rolling": {"registers": 16, "ops": 128, "streams": 8},
    # stream_rolling's streams, two at a time, one per concurrent session.
    "serve_pooled": {"registers": 16, "ops": 128, "streams": 8},
}

K = 2


def mixed_trace(rng: random.Random, registers: int, ops: int, prefix: str):
    """A multi-register trace whose registers cycle through MIXED_CLASSES."""
    from repro.core.builder import TraceBuilder
    from repro.workloads.synthetic import practical_history

    builder = TraceBuilder()
    for i in range(registers):
        probability, lag = MIXED_CLASSES[i % len(MIXED_CLASSES)]
        history = practical_history(
            random.Random(rng.getrandbits(64)),
            ops,
            staleness_probability=probability,
            max_staleness=lag,
            key=f"{prefix}-{i:04d}",
        )
        builder.extend(history.operations)
    return builder.build()


def completion_order(trace):
    """The trace's operations in the order a live monitor would see them."""
    return sorted(
        (op for key in trace.keys() for op in trace[key].operations),
        key=lambda op: (op.finish, op.op_id),
    )


def witness_digest(witness):
    """A digest of a witness order over the fields that identify operations."""
    if witness is None:
        return None
    h = hashlib.blake2b(digest_size=16)
    for op in witness:
        h.update(repr((op.op_type.value, op.value, op.start, op.finish, op.client)).encode())
    return h.hexdigest()


def signature(result):
    """What the correctness check compares: verdict, NO reason, witness."""
    verdict = bool(result.is_k_atomic)
    return (verdict, "" if verdict else result.reason, witness_digest(result.witness))


def oracle(trace, algorithm: str) -> dict:
    """Reference per register, from the object path of the full history:
    ``{key: (signature, ops)}``."""
    from repro.core.api import verify

    return {
        key: (signature(verify(trace[key], K, algorithm=algorithm, kernel="object")),
              len(trace[key]))
        for key in trace.keys()
    }


def manifest_path(workload: str, seed: int) -> Path:
    """Where :func:`prepare` caches a seed's inputs; the directory name
    changes whenever the input shape does."""
    shape = repr((SHAPES[workload], MIXED_CLASSES, K)).encode()
    tag = hashlib.blake2b(shape, digest_size=4).hexdigest()
    return CACHE_DIR / f"{workload}-{seed}-{tag}" / "manifest.pkl"


def prepare(workload: str, seed: int) -> dict:
    """Generate (or reuse) the seeded input files and their references.

    Returns ``{"files": [...], "refs": [{key: (signature, ops)}, ...]}``,
    one reference mapping per file.
    """
    if workload not in SHAPES:
        raise ValueError(f"unknown workload {workload!r}")
    manifest = manifest_path(workload, seed)
    out = manifest.parent
    if manifest.exists():
        with open(manifest, "rb") as handle:
            return pickle.load(handle)
    out.mkdir(parents=True, exist_ok=True)
    from repro.io.formats import dump_jsonl, load_trace
    from repro.io.rcol import dump_rcol

    shape = SHAPES[workload]
    rng = random.Random(f"{workload}:{seed}")
    files, refs = [], []
    if workload in ("verify_jsonl", "verify_rcol"):
        trace = mixed_trace(rng, shape["registers"], shape["ops"], "reg")
        if workload == "verify_jsonl":
            path = out / "trace.jsonl"
            dump_jsonl(trace, path)
        else:
            path = out / "trace.rcol"
            dump_rcol(trace, path)
        files.append(str(path))
        refs.append(oracle(load_trace(path), "auto"))
    else:
        # Streams replay through the rolling checkers, whose authoritative
        # 2-AV algorithm is LBT, so the oracle runs object-path LBT on each
        # register's full history: a stream's NO must carry that reason.
        for index in range(shape["streams"]):
            trace = mixed_trace(rng, shape["registers"], shape["ops"], f"s{index}")
            path = out / f"stream-{index}.jsonl"
            dump_jsonl(completion_order(trace), path)
            files.append(str(path))
            refs.append(oracle(load_trace(path), "lbt"))
    prepared = {"files": files, "refs": refs}
    tmp = manifest.with_suffix(".tmp")
    with open(tmp, "wb") as handle:
        pickle.dump(prepared, handle)
    tmp.replace(manifest)
    return prepared
