"""The numpy kernel tier: selection, internals and targeted edge cases.

The randomized parity nets live in ``tests/test_columnar.py`` and the
differential fuzz harness; this module pins the pieces those nets cannot
see directly — tier selection by :func:`resolve_kernel` (two tiers, unknown
names are typed errors), the segmented suffix-minimum (both of its internal
strategies), construction errors in :func:`columnar_from_numpy`, and the
closed-form chain-order check of the vectorized FZF, asserted against the
object kernels on histories chosen so the chain path provably runs.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core import columnar, vector
from repro.core.api import verify
from repro.core.errors import DuplicateValueError, VerificationError
from repro.core.preprocess import find_anomalies, normalize
from repro.engine import Engine
from repro.workloads.synthetic import practical_history


class TestResolveKernel:
    def test_explicit_kernel_wins(self):
        assert vector.KERNELS == ("object", "numpy")
        assert vector.resolve_kernel("object") == "object"
        assert vector.resolve_kernel("NUMPY") == "numpy"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(VerificationError, match="unknown kernel"):
            vector.resolve_kernel("simd")

    def test_columnar_kernel_name_rejected(self):
        # The pure-stdlib tier is gone; its name is an unknown kernel at
        # every entry point, never an alias or a silent fallback.
        history = practical_history(random.Random(1), 30, key="gone")
        with pytest.raises(VerificationError, match="unknown kernel"):
            vector.resolve_kernel("columnar")
        for k in (1, 2, 3):
            with pytest.raises(VerificationError, match="unknown kernel"):
                verify(history, k, kernel="columnar")
        with pytest.raises(VerificationError, match="unknown kernel"):
            vector.verify_columnar(columnar.columnar_of(history), 2, kernel="columnar")
        with pytest.raises(VerificationError, match="unknown kernel"):
            Engine(kernel="columnar")

    def test_auto_prefers_numpy_when_available(self):
        assert vector.resolve_kernel() == "numpy"

    def test_engine_auto_matches_explicit_numpy(self):
        history = practical_history(random.Random(3), 60, key="auto")
        auto = verify(history, 2)
        explicit = verify(history, 2, kernel="numpy")
        assert (bool(auto), auto.reason, auto.stats) == (
            bool(explicit), explicit.reason, explicit.stats
        )


class TestSegmentedSuffixMin:
    @staticmethod
    def reference(values, off, lengths):
        out = np.empty_like(values)
        for seg, (lo, m) in enumerate(zip(off, lengths)):
            acc = float("inf")
            for i in range(lo + m - 1, lo - 1, -1):
                acc = min(acc, values[i])
                out[i] = acc
        return out

    def _roundtrip(self, lengths, rng):
        lengths = np.asarray(lengths, dtype=np.int64)
        off = np.concatenate(([0], np.cumsum(lengths)))[:-1]
        values = np.asarray(
            [rng.uniform(0, 100) for _ in range(int(lengths.sum()))]
        )
        got = vector._segmented_suffix_min(values, off, lengths)
        assert np.array_equal(got, self.reference(values, off, lengths))

    def test_many_short_segments(self):
        # maxm <= max(64, nsegments): the position-loop strategy.
        rng = random.Random(0)
        self._roundtrip([rng.randint(1, 6) for _ in range(40)], rng)

    def test_few_long_segments(self):
        # maxm > max(64, nsegments): the per-segment accumulate strategy.
        rng = random.Random(1)
        self._roundtrip([100, 73, 1], rng)

    def test_single_element_segments(self):
        rng = random.Random(2)
        self._roundtrip([1, 1, 1, 1], rng)


class TestColumnarFromNumpy:
    def build(self, start, finish, is_write, value_id, values, **kw):
        n = len(start)
        return vector.columnar_from_numpy(
            key=kw.pop("key", "r"),
            start=np.asarray(start, dtype=np.float64),
            finish=np.asarray(finish, dtype=np.float64),
            is_write=np.asarray(is_write, dtype=np.uint8),
            value_id=np.asarray(value_id, dtype=np.int32),
            values=values,
            op_ids=np.arange(n, dtype=np.int64) + 10**6,
            **kw,
        )

    def test_duplicate_write_value_rejected(self):
        with pytest.raises(DuplicateValueError):
            self.build(
                [0.0, 2.0], [1.0, 3.0], [1, 1], [0, 0], ["a"]
            )

    def test_matches_from_rows(self):
        history = normalize(
            practical_history(random.Random(7), 50, key="r", num_clients=2)
        )
        ref = columnar.columnar_of(history)
        col = self.build(
            list(ref.start), list(ref.finish),
            list(ref.is_write), list(ref.value_id),
            list(ref.values),
        )
        assert list(col.dictating) == list(ref.dictating)
        assert list(col.write_ord) == list(ref.write_ord)
        for k in (1, 2):
            got = vector.verify_columnar(col, k, preprocess=False)
            want = verify(history, k, preprocess=False, kernel="object")
            assert (bool(got), got.reason, got.stats) == (
                bool(want), want.reason, want.stats
            )


def chain_chunks(col):
    """Chunks the closed-form chain-order check handles: nf >= 2, nb == 0."""
    ct = vector.cluster_table(col)
    ch = vector.chunk_table(col)
    starts = np.concatenate((ch.chain_starts, [ch.fidx.size]))
    nf = np.diff(starts)
    nb = np.bincount(
        ch.b_chunk[ch.b_chunk >= 0], minlength=ch.num_chunks
    ) if ch.bidx.size else np.zeros(ch.num_chunks, dtype=np.int64)
    del ct
    return np.flatnonzero((nf >= 2) & (nb == 0))


class TestChainOrderCheck:
    """The closed-form viability screen for pure-forward chains."""

    def stale_histories(self):
        cases = []
        for seed in range(30):
            history = practical_history(
                random.Random(seed), 90, staleness_probability=0.45,
                max_staleness=1, key=f"s{seed}",
            )
            if not find_anomalies(history):
                cases.append(normalize(history))
        return cases

    def test_chain_path_is_actually_exercised(self):
        hit = 0
        for history in self.stale_histories():
            hit += chain_chunks(columnar.columnar_of(history)).size
        assert hit > 0, "no pure-forward multi-write chains in the battery"

    def test_chain_verdicts_match_columnar_kernels(self):
        exercised = 0
        for history in self.stale_histories():
            col = columnar.columnar_of(history)
            exercised += chain_chunks(col).size
            got = vector.fzf_result_np(col)
            want = verify(history, 2, algorithm="fzf", preprocess=False,
                          kernel="object")
            assert bool(got) == bool(want), history.key
            assert got.reason == want.reason, history.key
            assert got.stats == want.stats, history.key
            if got and got.witness is not None:
                assert history.is_k_atomic_total_order(got.witness, 2), history.key
        assert exercised > 0

    def test_deep_chain_with_interleaved_reads(self):
        # One register alternating write/read with bounded staleness 1 makes
        # long pure-forward chains whose reads straddle segment boundaries.
        history = normalize(
            practical_history(
                random.Random(123), 400, staleness_probability=0.5,
                max_staleness=1, key="deep",
            )
        )
        col = columnar.columnar_of(history)
        assert chain_chunks(col).size > 0
        got = vector.fzf_result_np(col)
        want = verify(history, 2, algorithm="fzf", preprocess=False,
                      kernel="object")
        assert (bool(got), got.reason, got.stats) == (
            bool(want), want.reason, want.stats
        )
        if got and got.witness is not None:
            assert history.is_k_atomic_total_order(got.witness, 2)
