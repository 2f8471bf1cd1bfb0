"""Differential fuzzing: every verification path against the exact oracle.

Random histories — uniform-random interval soups and the structured
worst-case shapes from :mod:`repro.workloads.adversarial` — are pushed
through every redundant implementation the library carries:

* GK (k=1) and LBT / LBT-reference / FZF (k=2), through every kernel tier
  (the object reference kernels and the vectorized numpy tier),
* the incremental (rolling) checkers,
* the adaptive tier ladder (``screen`` and ``auto`` policies, whose cheap
  screens are sound only by k-monotonicity),
* windowed streaming (whose NO verdicts must be *sound*: a windowed NO on a
  history the oracle accepts is a bug),
* the serial/threads/processes shard executors (on a combined trace),

and every verdict is cross-checked against :mod:`repro.algorithms.exact`,
the brute-force oracle.  On a disagreement the harness *shrinks* the history
to a local minimum (greedy single-operation removal while the disagreement
persists) and writes the minimised trace to ``tests/corpus/`` so the failure
is replayable; ``test_corpus_replays_agree`` then re-runs every stored entry
forever after.

Iteration count is bounded by ``REPRO_FUZZ_ITERS`` (default 25, raised in
the CI fuzz-smoke job); the seed comes from ``REPRO_TEST_SEED`` and is
included in every failure message.
"""

from __future__ import annotations

import hashlib
import os
import random
from pathlib import Path
from typing import Callable, List, Sequence

import pytest

from repro.algorithms.online import checker_for
from repro.core import vector
from repro.core.api import verify
from repro.core.builder import TraceBuilder
from repro.core.history import History
from repro.core.operation import Operation
from repro.core.windows import WindowPolicy
from repro.engine import Engine, StreamingEngine
from repro.engine.tiering import get_tier_policy
from repro.io.formats import dump_jsonl, load_jsonl
from repro.simulation.clock import SkewedClocks
from repro.workloads.adversarial import (
    concurrent_batch_history,
    non_2atomic_batch_history,
)
from repro.workloads.chaos import apply_clock_skew, indeterminate_storm_trace

from tests.conftest import TEST_SEED, make_random_history

CORPUS_DIR = Path(__file__).parent / "corpus"
FUZZ_ITERS = int(os.environ.get("REPRO_FUZZ_ITERS", "25"))

#: Every k=2 decision procedure is differential-tested against the oracle.
TWO_AV_ALGORITHMS = ("lbt", "lbt-reference", "fzf")

#: Every kernel tier runs through the same differential check.
KERNELS = vector.KERNELS


# ----------------------------------------------------------------------
# The differential check
# ----------------------------------------------------------------------
def disagreements(ops: Sequence[Operation]) -> List[str]:
    """Run every path over one single-register history; list any divergences."""
    history = History(ops)
    problems: List[str] = []
    for k in (1, 2):
        oracle = bool(verify(history, k, algorithm="exact", max_exact_ops=10**9))
        names = ("gk",) if k == 1 else TWO_AV_ALGORITHMS
        for name in names:
            for kernel in KERNELS:
                got = bool(verify(history, k, algorithm=name, kernel=kernel))
                if got != oracle:
                    problems.append(
                        f"{name}/{kernel} says {got} but the exact oracle says "
                        f"{oracle} at k={k}"
                    )
        # Rolling incremental checker: final verdict must equal batch exactly.
        checker = checker_for(k)
        for op in sorted(ops, key=lambda o: (o.finish, o.op_id)):
            checker.feed(op)
        online = bool(checker.finish())
        if online != oracle:
            problems.append(
                f"incremental checker says {online} but the exact oracle says "
                f"{oracle} at k={k}"
            )
        # Tier ladder: the screened route must reproduce the oracle verdict
        # — a screen YES is only sound because of k-monotonicity, and this
        # is where that claim gets fuzzed.
        for tier in ("auto",):
            policy = get_tier_policy(tier)
            tiered, decision = policy.verify_with_decision(history, k, key="x")
            if bool(tiered) != oracle:
                problems.append(
                    f"tier={tier} says {bool(tiered)} via {decision.tier!r} "
                    f"but the exact oracle says {oracle} at k={k}"
                )
        # Windowed streaming: NO verdicts are final and sound, so a windowed
        # NO on an oracle-YES history is a divergence.  (A windowed YES is an
        # approximation and proves nothing.)
        engine = StreamingEngine(
            window=WindowPolicy.count(4, overlap=1), mode="windowed"
        )
        report = engine.verify_stream(
            sorted(ops, key=lambda o: (o.finish, o.op_id)), k
        )
        for key, result in report.results.items():
            if not result and oracle:
                problems.append(
                    f"windowed streaming raised a final NO on register {key!r} "
                    f"({result.reason}) but the exact oracle says YES at k={k}"
                )
    return problems


def shrink(
    ops: List[Operation], disagrees: Callable[[Sequence[Operation]], bool]
) -> List[Operation]:
    """Greedy 1-minimal shrink: drop operations while the divergence persists."""
    changed = True
    while changed:
        changed = False
        for i in range(len(ops)):
            candidate = ops[:i] + ops[i + 1 :]
            if candidate and disagrees(candidate):
                ops = candidate
                changed = True
                break
    return ops


def report_divergence(ops: List[Operation], problems: List[str], origin: str) -> None:
    """Shrink, persist to the corpus, and fail with a replayable message."""
    minimal = shrink(list(ops), lambda candidate: bool(disagreements(candidate)))
    digest = hashlib.sha256(
        "".join(
            f"{op.op_type.value}:{op.value!r}:{op.start!r}:{op.finish!r};"
            for op in minimal
        ).encode()
    ).hexdigest()[:12]
    CORPUS_DIR.mkdir(exist_ok=True)
    path = CORPUS_DIR / f"fuzz-{digest}.jsonl"
    dump_jsonl(minimal, path)
    pytest.fail(
        f"differential divergence from {origin} (seed {TEST_SEED:#x}):\n  "
        + "\n  ".join(disagreements(minimal))
        + f"\nminimised to {len(minimal)} ops, written to {path} "
        f"(replay: pytest tests/test_differential_fuzz.py::test_corpus_replays_agree)"
    )


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
def random_case(rng: random.Random) -> tuple:
    """One random small history (oracle-sized) plus a description of it."""
    shape = rng.randrange(6)
    if shape == 0:
        writes, reads = rng.randint(2, 6), rng.randint(1, 7)
        span = rng.choice([2.0, 6.0, 12.0])
        history = make_random_history(rng, writes, reads, span=span)
        origin = f"make_random_history({writes}, {reads}, span={span})"
    elif shape == 1:
        # Dense overlap: long durations force heavy concurrency.
        writes, reads = rng.randint(2, 5), rng.randint(1, 5)
        history = make_random_history(rng, writes, reads, span=3.0, max_duration=6.0)
        origin = f"make_random_history({writes}, {reads}, dense)"
    elif shape == 2:
        batches, size = rng.randint(1, 2), rng.randint(3, 4)
        base = concurrent_batch_history(batches, size)
        ops = [op for op in base.operations if rng.random() > 0.15]
        if not ops:
            ops = list(base.operations)
        history = History(ops)
        origin = f"concurrent_batch_history({batches}, {size}) with drops"
    elif shape == 3:
        batches, size = rng.randint(1, 2), 3
        base = non_2atomic_batch_history(batches, size)
        ops = [op for op in base.operations if rng.random() > 0.1]
        if not ops:
            ops = list(base.operations)
        history = History(ops)
        origin = f"non_2atomic_batch_history({batches}, {size}) with drops"
    elif shape == 4:
        # Chaos-layer generator: indeterminate-op storm on one register.
        per = rng.randint(4, 8)
        ops = indeterminate_storm_trace(
            rng, num_keys=1, ops_per_key=per, fraction=0.4
        )
        history = History(ops)
        origin = f"indeterminate_storm_trace(1, {per})"
    else:
        # Chaos-layer clock model: re-stamp a random history through
        # per-client skewed clocks before verification.
        writes, reads = rng.randint(2, 5), rng.randint(1, 6)
        base = make_random_history(rng, writes, reads, span=4.0)
        model = SkewedClocks(
            max_skew_ms=rng.choice([0.05, 0.2, 1.0]),
            drift_ppm=rng.choice([0.0, 500.0]),
            seed=rng.getrandbits(32),
        )
        history = History(apply_clock_skew(list(base.operations), model))
        origin = (
            f"make_random_history({writes}, {reads}) + SkewedClocks"
            f"({model.max_skew_ms}, {model.drift_ppm})"
        )
    return history, origin


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
def test_differential_fuzz_against_oracle():
    rng = random.Random(TEST_SEED)
    for iteration in range(FUZZ_ITERS):
        history, origin = random_case(rng)
        problems = disagreements(history.operations)
        if problems:
            report_divergence(
                list(history.operations), problems, f"iteration {iteration}: {origin}"
            )


def test_differential_fuzz_across_executors():
    """serial/threads/processes engines must agree register-for-register."""
    rng = random.Random(TEST_SEED + 17)
    builder = TraceBuilder()
    for register in range(6):
        history, _ = random_case(rng)
        for op in history.operations:
            # Rebuild with a register key; op_ids stay unique.
            builder.append(
                Operation(
                    op_type=op.op_type,
                    value=op.value,
                    start=op.start,
                    finish=op.finish,
                    key=f"fuzz-{register}",
                    client=op.client,
                    weight=op.weight,
                )
            )
    trace = builder.build()
    baseline = {
        key: bool(result)
        for key, result in Engine(executor="serial").verify_trace(trace, 2).results.items()
    }
    for executor in ("threads", "processes"):
        report = Engine(executor=executor, jobs=2).verify_trace(trace, 2)
        got = {key: bool(result) for key, result in report.results.items()}
        assert got == baseline, (
            f"{executor} executor diverges from serial (seed {TEST_SEED:#x})"
        )


def test_corpus_replays_agree():
    """Every minimised divergence ever recorded must stay fixed."""
    entries = sorted(CORPUS_DIR.glob("fuzz-*.jsonl"))
    if not entries:
        pytest.skip("corpus is empty (no divergence has ever been recorded)")
    for path in entries:
        trace = load_jsonl(path)
        for key in trace.keys():
            problems = disagreements(trace[key].operations)
            assert not problems, (
                f"corpus entry {path.name} diverges again:\n  " + "\n  ".join(problems)
            )


def test_rcol_roundtrip_fuzz_parity(tmp_path):
    """.rcol round-trips preserve every verdict observable, YES and NO alike."""
    import re

    from repro.core.vector import verify_columnar
    from repro.io.rcol import RcolFile, dump_rcol

    def scrub(reason):
        # Loading a trace file assigns fresh op_ids (ids are process-local,
        # not serialised), so "#N" references in reasons cannot be stable.
        return None if reason is None else re.sub(r"#\d+", "#?", reason)

    rng = random.Random(TEST_SEED + 29)
    for iteration in range(FUZZ_ITERS):
        history, origin = random_case(rng)
        if history.is_empty:
            continue
        path = tmp_path / f"fuzz-{iteration}.rcol"
        dump_rcol(history, path)
        with RcolFile(path) as rf:
            (key,) = rf.keys()
            for k in (1, 2):
                ref = verify(history, k, kernel="numpy")
                got = verify_columnar(rf.load_columnar(key), k)
                context = (iteration, origin, k, TEST_SEED)
                assert bool(got) == bool(ref), context
                assert scrub(got.reason) == scrub(ref.reason), context
                assert got.stats == ref.stats, context
