"""Unit tests for the incremental checker protocol (algorithms.online)."""

import random

import pytest

from repro.algorithms.online import (
    Checker,
    IncrementalGKChecker,
    IncrementalLBTChecker,
    RecheckChecker,
    checker_for,
)
from repro.algorithms.registry import CHECKERS, get_checker
from repro.core.errors import (
    DuplicateValueError,
    HistoryError,
    VerificationError,
)
from repro.core.operation import read, write
from repro.core.result import StreamVerdict
from repro.core.api import verify
from repro.core.history import History
from repro.core.windows import WindowPolicy
from repro.engine import StreamingEngine
from repro.workloads.synthetic import practical_history


def feed_all(checker, ops):
    """Feed ops in order, returning every verdict emitted."""
    return [v for v in (checker.feed(op) for op in ops) if v is not None]


def completion_order(history):
    return sorted(history.operations, key=lambda op: (op.finish, op.op_id))


class TestProtocol:
    def test_abstract_base(self):
        with pytest.raises(TypeError):
            Checker()  # abstract

    def test_empty_stream_finish_is_yes(self):
        for checker in (IncrementalGKChecker(), IncrementalLBTChecker()):
            assert bool(checker.finish()) is True

    def test_feed_after_finish_rejected_until_reset(self):
        checker = IncrementalGKChecker()
        checker.feed(write("a", 0.0, 1.0))
        checker.finish()
        with pytest.raises(VerificationError):
            checker.feed(read("a", 2.0, 3.0))
        checker.reset()
        assert checker.ops_seen == 0
        checker.feed(write("a", 0.0, 1.0))
        assert bool(checker.finish()) is True

    def test_key_mismatch_rejected(self):
        checker = IncrementalGKChecker()
        checker.feed(write("a", 0.0, 1.0, key="r1"))
        with pytest.raises(HistoryError):
            checker.feed(write("b", 2.0, 3.0, key="r2"))

    def test_duplicate_write_value_rejected_eagerly(self):
        checker = IncrementalLBTChecker()
        checker.feed(write("a", 0.0, 1.0))
        with pytest.raises(DuplicateValueError):
            checker.feed(write("a", 2.0, 3.0))

    def test_invalid_parameters(self):
        with pytest.raises(VerificationError):
            RecheckChecker(0)
        with pytest.raises(VerificationError):
            RecheckChecker(1, check_interval=0)
        with pytest.raises(VerificationError):
            RecheckChecker(1, cadence_growth=0.5)


class TestVerdictSemantics:
    def test_no_latches_and_is_final(self):
        checker = IncrementalGKChecker(check_interval=1)
        ops = [
            write("a", 0.0, 1.0),
            write("b", 2.0, 3.0),
            read("a", 4.0, 5.0),  # stale by one: not 1-atomic
            write("c", 6.0, 7.0),
        ]
        verdicts = feed_all(checker, ops)
        failing = [v for v in verdicts if not v]
        assert failing and all(v.final for v in failing)
        # The latch survives more (harmless) operations and finish().
        assert bool(checker.check_now()) is False
        assert bool(checker.finish()) is False

    def test_latched_finish_reports_full_history_reason(self):
        # A NO latches on the resolved prefix that first failed; the finished
        # result must still be batch LBT's over the whole stream, reason
        # included, even where the prefix failed for a different reason.
        differing = 0
        for seed in range(12):
            history = practical_history(
                random.Random(seed), 200, staleness_probability=0.08,
                max_staleness=3, key=f"s{seed}",
            )
            checker = IncrementalLBTChecker()
            feed_all(checker, completion_order(history))
            prefix = checker.check_now()
            got = checker.finish()
            want = verify(history, 2, algorithm="lbt", kernel="object")
            assert (bool(got), got.reason) == (bool(want), want.reason), seed
            if not prefix and prefix.result.reason != want.reason:
                differing += 1
        assert differing, "no seed latched on a prefix with a different reason"

    def test_rolling_stream_finish_matches_full_history_oracle(self):
        histories = [
            practical_history(
                random.Random(seed), 200, staleness_probability=0.08,
                max_staleness=3, key=f"s{seed}",
            )
            for seed in range(8)
        ]
        stream = sorted(
            (op for history in histories for op in history.operations),
            key=lambda op: (op.finish, op.op_id),
        )
        report = StreamingEngine(window=WindowPolicy.count(64)).verify_stream(
            stream, 2
        )
        for history in histories:
            want = verify(history, 2, algorithm="lbt", kernel="object")
            got = report.results[history.key]
            assert (bool(got), got.reason) == (bool(want), want.reason), history.key

    def test_yes_is_provisional_until_finish(self):
        checker = IncrementalLBTChecker(check_interval=1)
        checker.feed(write("a", 0.0, 1.0))
        verdict = checker.check_now()
        assert verdict and not verdict.final
        assert isinstance(verdict, StreamVerdict)
        result = checker.finish()
        assert bool(result) is True

    def test_pending_read_not_counted_as_anomaly_midstream(self):
        checker = IncrementalGKChecker(check_interval=1)
        # The read completes before its dictating write does (they overlap),
        # so a completion-ordered stream delivers the read first.
        checker.feed(read("a", 0.5, 1.0))
        assert checker.pending_reads == 1
        assert bool(checker.check_now()) is True  # resolved prefix is empty
        checker.feed(write("a", 0.4, 2.0))
        assert checker.pending_reads == 0
        assert bool(checker.finish()) is True

    def test_unresolved_read_is_anomaly_at_finish(self):
        checker = IncrementalGKChecker()
        checker.feed(write("a", 0.0, 1.0))
        checker.feed(read("ghost", 2.0, 3.0))
        result = checker.finish()
        assert not result and result.algorithm == "preprocess"

    def test_ops_seen_counts_pending(self):
        checker = IncrementalLBTChecker()
        checker.feed(read("later", 0.0, 1.0))
        checker.feed(write("x", 2.0, 3.0))
        assert checker.ops_seen == 2

    def test_peek_is_stale_but_cheap(self):
        checker = IncrementalGKChecker(check_interval=1000)
        checker.feed(write("a", 0.0, 1.0))
        first = checker.peek()  # first peek runs the one bootstrap check
        checks = checker.checks_run
        checker.feed(read("a", 2.0, 3.0))
        assert checker.peek() is first  # stale: no re-check despite new op
        assert checker.checks_run == checks
        assert checker.check_now() is not first  # forcing does re-check
        assert checker.checks_run == checks + 1

    def test_peek_returns_latched_no(self):
        checker = IncrementalGKChecker(check_interval=1)
        for op in (
            write("a", 0.0, 1.0),
            write("b", 2.0, 3.0),
            read("a", 4.0, 5.0),
        ):
            checker.feed(op)
        latched = checker.check_now()
        assert latched.final and not latched
        assert checker.peek() is latched  # O(1) after the latch

    def test_check_now_caches_until_dirty(self):
        checker = IncrementalGKChecker(check_interval=1000)
        checker.feed(write("a", 0.0, 1.0))
        first = checker.check_now()
        checks = checker.checks_run
        assert checker.check_now() is first
        assert checker.checks_run == checks
        checker.feed(read("a", 2.0, 3.0))
        checker.check_now()
        assert checker.checks_run == checks + 1


class TestGKIncremental:
    def test_eager_alarm_before_cadence(self):
        # Forward zones overlap at the 4th op; the zone monitor should raise
        # the alarm long before the default cadence point (16 resolved ops).
        checker = IncrementalGKChecker()
        ops = [
            write("a", 0.0, 1.0),
            read("a", 10.0, 11.0),  # cluster(a) zone becomes forward [1, 10]
            write("b", 4.0, 5.0),
            read("b", 6.0, 7.0),  # cluster(b) forward [5, 6] inside [1, 10]
        ]
        verdicts = feed_all(checker, ops)
        assert any(v.final and not v for v in verdicts)
        assert checker.ops_seen == 4

    def test_no_false_alarms_on_atomic_history(self):
        from repro.workloads.synthetic import serial_history

        history = serial_history(12, 2)
        checker = IncrementalGKChecker(check_interval=4)
        verdicts = feed_all(checker, completion_order(history))
        assert all(bool(v) for v in verdicts)
        assert bool(checker.finish()) is bool(verify(history, 1)) is True


class TestCheckerFactory:
    def test_auto_selection(self):
        assert isinstance(checker_for(1), IncrementalGKChecker)
        assert isinstance(checker_for(2), IncrementalLBTChecker)
        generic = checker_for(3)
        assert isinstance(generic, RecheckChecker)
        assert generic.k == 3

    def test_explicit_names(self):
        assert isinstance(checker_for(1, algorithm="gk"), IncrementalGKChecker)
        assert isinstance(checker_for(2, algorithm="fzf"), IncrementalLBTChecker)
        assert isinstance(checker_for(2, algorithm="lbt-reference"), IncrementalLBTChecker)
        exact = checker_for(2, algorithm="exact")
        assert isinstance(exact, RecheckChecker)

    def test_mismatched_k_rejected(self):
        with pytest.raises(VerificationError):
            checker_for(2, algorithm="gk")
        with pytest.raises(VerificationError):
            checker_for(1, algorithm="lbt")
        with pytest.raises(VerificationError):
            checker_for(1, algorithm="nonsense")

    def test_generic_rechecker_parity_k3(self, stale_by_two_history):
        checker = checker_for(3)
        for op in completion_order(stale_by_two_history):
            checker.feed(op)
        assert bool(checker.finish()) is True
        checker2 = checker_for(2)
        for op in completion_order(stale_by_two_history):
            checker2.feed(op)
        assert bool(checker2.finish()) is False


class TestCheckerRegistry:
    def test_registry_entries(self):
        assert set(CHECKERS) >= {"gk-online", "lbt-online"}
        gk_spec = get_checker("gk-online")
        assert gk_spec.supports(1) and not gk_spec.supports(2)
        assert gk_spec.batch_counterpart == "gk"
        assert isinstance(gk_spec.factory(), IncrementalGKChecker)
        lbt_spec = get_checker("LBT-ONLINE")  # case-insensitive
        assert lbt_spec.supports(2)
        assert isinstance(lbt_spec.factory(), IncrementalLBTChecker)

    def test_unknown_checker_rejected(self):
        with pytest.raises(VerificationError):
            get_checker("gk-offline")
