"""Metamorphic properties: verdicts are invariant under trace symmetries.

k-atomicity depends only on the *relative order* of operation intervals and
the read→dictating-write pairing (Section II), so a verdict must survive:

* a uniform time shift of every timestamp,
* a uniform positive time scale,
* renaming every client,
* injectively renaming every written/read value,
* permuting register names in a multi-register trace.

Each invariance is checked through *four* redundant verification paths —
object-model vs numpy kernels, and batch vs incremental (online)
checkers — so these tests simultaneously pin the symmetry property and
cross-validate the independent implementations against each other.

The adaptive tier ladder rides the same symmetries: its anomaly gate and
rungs compare timestamps and values only, so the tiered route — not just
the verdict — must be identical before and after every transform.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.algorithms.online import checker_for
from repro.core.api import verify, verify_trace
from repro.core.builder import TraceBuilder
from repro.core.history import History
from repro.core.operation import read, write
from repro.simulation.clock import SkewedClocks
from repro.workloads.adversarial import (
    concurrent_batch_history,
    non_2atomic_batch_history,
)
from repro.workloads.chaos import (
    apply_clock_skew,
    hot_key_trace,
    indeterminate_storm_trace,
)
from repro.workloads.synthetic import synthetic_trace

from tests.conftest import TEST_SEED, make_random_history


# ----------------------------------------------------------------------
# Transformations
# ----------------------------------------------------------------------
def time_shift(history: History, delta: float) -> History:
    return History(
        [op.with_times(op.start + delta, op.finish + delta) for op in history.operations],
        key=history.key,
    )


def time_scale(history: History, factor: float) -> History:
    assert factor > 0
    return History(
        [op.with_times(op.start * factor, op.finish * factor) for op in history.operations],
        key=history.key,
    )


def rename_clients(history: History) -> History:
    return History(
        [replace(op, client=f"client/{op.client!r}") for op in history.operations],
        key=history.key,
    )


def rename_values(history: History) -> History:
    # Injective by construction: distinct values map to distinct tuples.
    return History(
        [replace(op, value=("renamed", op.value)) for op in history.operations],
        key=history.key,
    )


TRANSFORMS = [
    pytest.param(lambda h: time_shift(h, 1234.5), id="time-shift"),
    pytest.param(lambda h: time_shift(h, -7.25), id="time-shift-negative"),
    pytest.param(lambda h: time_scale(h, 3.0), id="time-scale-up"),
    pytest.param(lambda h: time_scale(h, 0.125), id="time-scale-down"),
    pytest.param(rename_clients, id="client-rename"),
    pytest.param(rename_values, id="value-rename"),
]


def sample_histories(rng: random.Random):
    """A spread of small histories: random, adversarial, and known-verdict."""
    histories = [
        make_random_history(rng, 5, 8),
        make_random_history(rng, 8, 14, span=6.0),
        make_random_history(rng, 3, 3, max_duration=5.0),
        concurrent_batch_history(3, 4),
        non_2atomic_batch_history(2, 3),
        History(
            [  # serial, fresh write/read pairs: 1-atomic
                op
                for i in range(4)
                for op in (
                    write(i, 4.0 * i, 4.0 * i + 1.0),
                    read(i, 4.0 * i + 2.0, 4.0 * i + 3.0),
                )
            ]
        ),
        # The chaos layer's hostile single-register generators obey the
        # same symmetries as every other history.
        History(hot_key_trace(rng, num_keys=1, num_operations=12)),
        History(
            indeterminate_storm_trace(rng, num_keys=1, ops_per_key=8, fraction=0.3)
        ),
    ]
    return histories


def verdicts_all_paths(history: History, k: int):
    """The verdict of every redundant verification path; asserts they agree.

    Returns the (agreed) boolean verdict after checking object vs numpy
    kernels and batch vs online checkers against each other.
    """
    batch_obj = bool(verify(history, k, kernel="object"))
    batch_np = bool(verify(history, k, kernel="numpy"))
    assert batch_obj == batch_np, f"object/numpy kernels disagree at k={k}"

    checker = checker_for(k)
    for op in sorted(history.operations, key=lambda o: (o.finish, o.op_id)):
        checker.feed(op)
    online = bool(checker.finish())
    assert online == batch_obj, f"online checker disagrees with batch at k={k}"
    return batch_obj


# ----------------------------------------------------------------------
# Invariance under the single-register symmetries
# ----------------------------------------------------------------------
@pytest.mark.parametrize("transform", TRANSFORMS)
@pytest.mark.parametrize("k", [1, 2])
def test_verdict_invariant_under_transform(transform, k):
    rng = random.Random(TEST_SEED)
    for case, history in enumerate(sample_histories(rng)):
        before = verdicts_all_paths(history, k)
        after = verdicts_all_paths(transform(history), k)
        assert before == after, (
            f"case {case}: verdict changed under {transform} at k={k} "
            f"(seed {TEST_SEED:#x})"
        )


@pytest.mark.parametrize("k", [1, 2])
def test_composed_transforms_preserve_verdict(k):
    """Symmetries compose: shift∘scale∘rename leaves every verdict alone."""
    rng = random.Random(TEST_SEED + 1)
    for case, history in enumerate(sample_histories(rng)):
        transformed = rename_values(
            rename_clients(time_scale(time_shift(history, 50.0), 2.5))
        )
        assert verdicts_all_paths(history, k) == verdicts_all_paths(transformed, k), (
            f"case {case}: composed transform changed the k={k} verdict "
            f"(seed {TEST_SEED:#x})"
        )


def test_sub_resolution_clock_skew_preserves_verdicts():
    """Per-client skew below half the minimal boundary gap changes nothing.

    With constant offsets of half-width ``eps`` and ``4 * eps`` smaller than
    the smallest gap between any two distinct interval boundaries, no pair
    of boundaries can reorder — so the precedence relation, and with it
    every verdict, is untouched.  This is the quantitative floor under the
    ``clock_skew_sensitivity`` experiment: flips only start once clock
    error reaches inter-operation spacing.
    """
    rng = random.Random(TEST_SEED + 7)
    for case, history in enumerate(sample_histories(rng)):
        times = sorted(
            t for op in history.operations for t in (op.start, op.finish)
        )
        if len(set(times)) != len(times):
            # Tied boundaries across clients can legitimately reorder under
            # any nonzero skew; the property only claims sub-gap safety.
            continue
        eps = min(b - a for a, b in zip(times, times[1:])) / 4.0
        model = SkewedClocks(max_skew_ms=eps, drift_ppm=0.0, seed=case)
        skewed = History(apply_clock_skew(list(history.operations), model))
        for k in (1, 2):
            assert verdicts_all_paths(history, k) == verdicts_all_paths(skewed, k), (
                f"case {case}: sub-resolution skew flipped the k={k} verdict "
                f"(seed {TEST_SEED:#x})"
            )


def test_minimal_k_invariant_under_time_symmetries():
    """The *entire* staleness spectrum is order-determined, not just k<=2."""
    from repro.core.api import minimal_k_bound

    rng = random.Random(TEST_SEED + 2)
    for _ in range(10):
        history = make_random_history(rng, rng.randint(2, 6), rng.randint(1, 6))
        bound = minimal_k_bound(history)
        shifted = minimal_k_bound(time_shift(history, 99.0))
        scaled = minimal_k_bound(time_scale(history, 0.5))
        assert (bound.k, bound.exact) == (shifted.k, shifted.exact)
        assert (bound.k, bound.exact) == (scaled.k, scaled.exact)


# ----------------------------------------------------------------------
# Tier-ladder invariance: decisions and verdicts survive the symmetries
# ----------------------------------------------------------------------
@pytest.mark.parametrize("transform", TRANSFORMS)
def test_tier_features_invariant_under_transform(transform):
    """The ladder's route is a property of the trace shape, not its encoding.

    The anomaly gate and every rung compare timestamps and values only, so
    the rung that answers (``TierDecision.tier``) and the reasons it
    escalated (``.triggers``) must survive every symmetry unchanged.
    """
    from repro.engine.tiering import get_tier_policy

    policy = get_tier_policy("auto")
    rng = random.Random(TEST_SEED + 5)
    for case, history in enumerate(sample_histories(rng)):
        context = f"case {case} under {transform} (seed {TEST_SEED:#x})"
        for k in (1, 2, 3):
            _, before = policy.verify_with_decision(history, k, key="m")
            _, after = policy.verify_with_decision(transform(history), k, key="m")
            assert (before.tier, before.triggers) == (after.tier, after.triggers), (
                f"{context}: tier route changed at k={k}: "
                f"{before.describe()} -> {after.describe()}"
            )


@pytest.mark.parametrize("transform", TRANSFORMS)
@pytest.mark.parametrize("tier", ["auto"])
@pytest.mark.parametrize("k", [1, 2])
def test_tiered_verdict_invariant_under_transform(transform, tier, k):
    """The tiered route agrees with the untiered paths on both sides of
    every symmetry — verdicts never depend on which rung answered."""
    from repro.engine.tiering import get_tier_policy

    policy = get_tier_policy(tier)
    rng = random.Random(TEST_SEED + 6)
    for case, history in enumerate(sample_histories(rng)):
        for h in (history, transform(history)):
            expected = verdicts_all_paths(h, k)
            tiered, decision = policy.verify_with_decision(h, k, key="m")
            assert bool(tiered) == expected, (
                f"case {case}: tier={tier} via {decision.tier!r} diverges "
                f"at k={k} under {transform} (seed {TEST_SEED:#x})"
            )


# ----------------------------------------------------------------------
# Register permutation on multi-register traces
# ----------------------------------------------------------------------
@pytest.mark.parametrize("k", [1, 2])
def test_register_permutation_permutes_verdicts(k):
    rng = random.Random(TEST_SEED + 3)
    trace = synthetic_trace(
        rng, 6, 25, staleness_probability=0.15, max_staleness=1
    )
    keys = sorted(trace.keys(), key=repr)
    permuted_names = list(keys)
    rng.shuffle(permuted_names)
    mapping = dict(zip(keys, permuted_names))

    builder = TraceBuilder(
        replace(op, key=mapping[key])
        for key in keys
        for op in trace[key].operations
    )
    original = verify_trace(trace, k)
    permuted = verify_trace(builder.build(), k)
    assert set(permuted) == set(mapping.values())
    for key in keys:
        assert bool(original[key]) == bool(permuted[mapping[key]]), (
            f"register {key!r} -> {mapping[key]!r} changed its k={k} verdict "
            f"(seed {TEST_SEED:#x})"
        )


@pytest.mark.parametrize("kernel", ["object", "numpy"])
def test_register_permutation_across_kernels(kernel):
    """Permutation invariance holds on both kernel paths independently."""
    rng = random.Random(TEST_SEED + 4)
    trace = synthetic_trace(rng, 4, 20, staleness_probability=0.1, max_staleness=2)
    keys = sorted(trace.keys(), key=repr)
    rotated = {key: keys[(i + 1) % len(keys)] for i, key in enumerate(keys)}
    builder = TraceBuilder(
        replace(op, key=rotated[key]) for key in keys for op in trace[key].operations
    )
    original = verify_trace(trace, 2, kernel=kernel)
    permuted = verify_trace(builder.build(), 2, kernel=kernel)
    for key in keys:
        assert bool(original[key]) == bool(permuted[rotated[key]])
