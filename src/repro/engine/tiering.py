"""Adaptive tiered verification: screen cheap, escalate only on refusal.

The paper's checkers span orders of magnitude in cost — GK runs in
near-linear time while the exact oracle is combinatorial — yet a static
configuration makes every register pay for whichever checker the caller
picked.  The *tier ladder* rests on one soundness fact:

    **k-monotonicity** (Section II): if a history is j-atomic for some
    j <= k then it is k-atomic.  A cheap verifier run at a *smaller*
    staleness bound can therefore prove a YES for the real ``k`` — but
    never a NO.

One ladder serves every batch path, cheapest rung first:

* ``anomaly gate`` — the memoized Section II-C scan.  An anomalous register
  is NO at every k, so it goes straight to exact; a clean scan is reused
  by the screens' own preprocessing.
* ``screen`` — verify at k' = 1 (GK, near-linear).  YES here is YES at any k.
* ``confirm`` — for k >= 3, verify at k' = 2 (FZF, O(n log n)).
* ``exact`` — the authoritative checker for the requested ``k``.

Every NO verdict comes from the ``exact`` rung (a screen's NO only triggers
escalation), so a tiered run's failures — verdict, reason, witness — are
*identical* to an exact-only run; only sound YES shortcuts differ, and those
carry a valid witness (a j-atomic total order satisfies the k-atomic
freshness constraint for every k >= j).  ``tests/test_tiering.py`` pins this
equivalence differentially.

In streams (:class:`TierStreamState`) the cheap rung is the incremental
checker's O(1) peek; a window escalates to an authoritative check on a
latched checker alarm, an anomalous read, a value lag >= k, or every
:data:`CONFIRM_INTERVAL` windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.errors import VerificationError
from ..core.history import History
from ..core.operation import Operation
from ..core.preprocess import has_anomalies
from ..core.result import VerificationResult

__all__ = [
    "CONFIRM_INTERVAL",
    "TIER_NAMES",
    "TierDecision",
    "TierStats",
    "TierPolicy",
    "TierStreamState",
    "get_tier_policy",
]

#: The registered tier policy names.  ``exact`` is the pre-tiering behaviour
#: (every register pays the authoritative checker); ``auto`` runs the ladder.
TIER_NAMES: Tuple[str, ...] = ("exact", "auto")


# ----------------------------------------------------------------------
# Decisions and aggregate stats
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TierDecision:
    """The route one register (or one register-window) took through the ladder.

    ``tier`` names the rung that produced the verdict; ``escalated`` is true
    when a cheaper rung was consulted (or gated away) first; ``triggers``
    records *why* — the anomaly gate and screen alarms — so a skipped exact
    check is never silent.
    """

    key: str
    tier: str
    escalated: bool
    triggers: Tuple[str, ...] = ()
    screen_k: Optional[int] = None

    def describe(self) -> str:
        extra = f" [{', '.join(self.triggers)}]" if self.triggers else ""
        return f"{self.key}: {self.tier}{extra}"


@dataclass
class TierStats:
    """Aggregate tier hit-rates over a run (mutable accumulator)."""

    screened: int = 0  #: registers/windows settled by a sub-k rung
    escalated: int = 0  #: routed to the exact rung after a screen or gate
    exact: int = 0  #: total units that paid the exact checker
    total: int = 0
    trigger_counts: Dict[str, int] = field(default_factory=dict)

    def record(self, decision: TierDecision) -> None:
        self.total += 1
        if decision.tier == "exact":
            self.exact += 1
            if decision.escalated:
                self.escalated += 1
        else:
            self.screened += 1
        for trig in decision.triggers:
            self.trigger_counts[trig] = self.trigger_counts.get(trig, 0) + 1

    def merge(self, other: "TierStats") -> None:
        self.screened += other.screened
        self.escalated += other.escalated
        self.exact += other.exact
        self.total += other.total
        for trig, count in other.trigger_counts.items():
            self.trigger_counts[trig] = self.trigger_counts.get(trig, 0) + count

    @property
    def escalation_rate(self) -> float:
        """Fraction of units that paid the exact checker."""
        return (self.exact / self.total) if self.total else 0.0

    @property
    def screen_rate(self) -> float:
        """Fraction of units settled without the exact checker."""
        return (self.screened / self.total) if self.total else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "screened": self.screened,
            "escalated": self.escalated,
            "exact": self.exact,
            "total": self.total,
            "escalation_rate": round(self.escalation_rate, 6),
            "screen_rate": round(self.screen_rate, 6),
            "triggers": dict(sorted(self.trigger_counts.items())),
        }

    def summary(self) -> str:
        return (
            f"tiering: {self.screened}/{self.total} screened, "
            f"{self.exact} exact ({self.escalated} escalated, "
            f"rate {self.escalation_rate:.0%})"
        )


# ----------------------------------------------------------------------
# The policy
# ----------------------------------------------------------------------
#: Streaming: force an authoritative check every this many windows per
#: register even with no trigger, bounding how stale a peek can get.
CONFIRM_INTERVAL = 8


@dataclass(frozen=True)
class TierPolicy:
    """Routes registers/windows through the checker ladder.

    Frozen so it can ride inside the frozen engine task dataclasses and
    cross process boundaries by ordinary pickling.
    """

    name: str

    # -- batch ---------------------------------------------------------
    def verify_with_decision(
        self,
        history: History,
        k: int,
        *,
        key: str = "",
        algorithm: str = "auto",
        preprocess: bool = True,
        max_exact_ops: int = 40,
        kernel: Optional[str] = None,
    ) -> Tuple[VerificationResult, TierDecision]:
        """Verify one register through the ladder.

        Soundness: a sub-k rung may only *confirm* (its YES is YES for ``k``
        by k-monotonicity, witness included); any refusal falls through to
        the exact rung, whose result is returned untouched — so NO verdicts,
        reasons and witnesses match an exact-only run exactly.
        """
        from ..core.api import verify  # local: avoid import cycle

        def run(run_k: int, run_algorithm: str) -> VerificationResult:
            return verify(
                history,
                run_k,
                algorithm=run_algorithm,
                preprocess=preprocess,
                max_exact_ops=max_exact_ops,
                kernel=kernel,
            )

        return _ladder(
            key or (history.key or ""),
            k,
            algorithm,
            history.is_empty,
            lambda: has_anomalies(history),
            run,
        )

    def verify_columnar_with_decision(
        self,
        col: Any,
        k: int,
        *,
        key: str = "",
        algorithm: str = "auto",
        preprocess: bool = True,
        max_exact_ops: int = 40,
        kernel: Optional[str] = None,
        decode_witness: bool = True,
    ) -> Tuple[VerificationResult, TierDecision]:
        """The ladder on a :class:`~repro.core.columnar.ColumnarHistory`.

        Used by the out-of-core (``.rcol``) shard path, which never
        materialises object histories.  Same routes and results as
        :meth:`verify_with_decision` on the equivalent history.
        """
        from ..core import vector  # local: avoid import cycle

        def run(run_k: int, run_algorithm: str) -> VerificationResult:
            return vector.verify_columnar(
                col,
                run_k,
                algorithm=run_algorithm,
                preprocess=preprocess,
                max_exact_ops=max_exact_ops,
                kernel=kernel,
                decode_witness=decode_witness,
            )

        return _ladder(
            key or (getattr(col, "key", "") or ""),
            k,
            algorithm,
            col.n == 0,
            col.has_anomalies,
            run,
        )


def _ladder(
    name: str,
    k: int,
    algorithm: str,
    is_empty: bool,
    anomalous: Callable[[], bool],
    run: Callable[[int, str], VerificationResult],
) -> Tuple[VerificationResult, TierDecision]:
    """The one ladder body: anomaly gate -> screen -> confirm -> exact.

    ``run(k', algorithm)`` is the unit verifier (object or columnar).
    ``anomalous`` is the memoized Section II-C scan: an anomalous register is
    NO at every k, so it goes straight to exact, and a clean answer is
    reused by the screen's own preprocessing.
    """
    if k <= 1 or is_empty:
        return run(k, algorithm), TierDecision(name, "exact", escalated=False)
    if anomalous():
        return run(k, algorithm), TierDecision(
            name, "exact", escalated=True, triggers=("anomaly",)
        )
    triggers: List[str] = []
    rungs = ((1, "screen"),) if k == 2 else ((1, "screen"), (2, "confirm"))
    for screen_k, rung in rungs:
        try:
            screened = run(screen_k, "auto")
        except VerificationError:
            triggers.append(f"{rung}-error")
            break
        if screened.is_k_atomic:
            # k-monotonicity: screened.witness is a screen_k-atomic total
            # order, hence k-atomic; re-badge the result for the real k.
            result = VerificationResult.yes(
                k,
                screened.algorithm,
                witness=screened.witness,
                reason=(
                    f"{screen_k}-atomic per {screened.algorithm}; "
                    f"k-monotonicity implies {k}-atomic"
                ),
                stats={**screened.stats, "tier": rung, "screen_k": screen_k},
            )
            return result, TierDecision(
                name, rung, escalated=False, triggers=tuple(triggers),
                screen_k=screen_k,
            )
        triggers.append(f"{rung}-alarm")
    return run(k, algorithm), TierDecision(
        name, "exact", escalated=True, triggers=tuple(triggers)
    )


_AUTO = TierPolicy(name="auto")


def get_tier_policy(
    tier: Union[None, str, TierPolicy],
) -> Optional[TierPolicy]:
    """Resolve a tier argument to a policy (``None``/``"exact"`` -> ``None``).

    Unknown names raise :class:`VerificationError` listing the registered
    tiers — callers must not fall back silently.
    """
    if tier is None or isinstance(tier, TierPolicy):
        return tier
    name = str(tier).strip().lower()
    if name not in TIER_NAMES:
        raise VerificationError(
            f"unknown tier {tier!r}; available: {', '.join(TIER_NAMES)}"
        )
    return None if name == "exact" else _AUTO


# ----------------------------------------------------------------------
# Streaming tier state
# ----------------------------------------------------------------------
class TierStreamState:
    """Per-register escalation state for the streaming/rolling engines.

    In streaming the cheap rung is the incremental checker's O(1)
    :meth:`peek` (possibly one cadence stale) and the exact rung is
    :meth:`check_now`.  This state watches each window's operations for
    anomalous reads and value lag — plus the checker's own latched alarms
    and a periodic confirm — and decides per (register, window) whether the
    authoritative check must run.  The decision protocol is deliberately
    plain data (``"check"`` / ``"peek"``) so the worker pool can ship it
    per shard and journal it for replay.
    """

    def __init__(self, policy: TierPolicy, k: int) -> None:
        self.policy = policy
        self.k = max(1, k)
        #: key -> {"seq": next write seq, "values": {value: write seq},
        #:          "since": windows since last authoritative check,
        #:          "alarmed": a NO has been observed for this key}
        self._registers: Dict[str, Dict[str, Any]] = {}

    # -- bookkeeping ---------------------------------------------------
    def _state_for(self, key: str) -> Dict[str, Any]:
        state = self._registers.get(key)
        if state is None:
            state = {"seq": 0, "values": {}, "since": 0, "alarmed": False}
            self._registers[key] = state
        return state

    def decide(
        self,
        key: str,
        ops: Sequence[Operation],
        *,
        alarmed: bool = False,
    ) -> Tuple[str, Tuple[str, ...]]:
        """Consume one window's operations; return ``(mode, triggers)``.

        ``mode`` is ``"check"`` (run the authoritative checker now) or
        ``"peek"`` (the O(1) screen suffices).  Soundness: every feature
        that can make a NO possible — an anomalous read, a value lag >= k,
        a latched checker alarm — forces ``"check"``, so the screen is
        never trusted on its own for a NO-capable window.  ``alarmed`` is
        the caller's signal that the register's checker already latched a
        NO (e.g. from a free ``peek``).
        """
        state = self._state_for(key)
        triggers: List[str] = []
        if alarmed or state["alarmed"]:
            state["alarmed"] = True
            triggers.append("checker-alarm")
        values = state["values"]
        saw_anomaly = False
        saw_lag = False
        for op in sorted(ops, key=lambda o: (o.start, o.finish)):
            if op.is_write:
                values[op.value] = state["seq"]
                state["seq"] += 1
            else:
                seq = values.get(op.value)
                if seq is None:
                    saw_anomaly = True
                elif state["seq"] - 1 - seq >= self.k:
                    saw_lag = True
        if saw_anomaly:
            triggers.append("anomaly")
        if saw_lag:
            triggers.append("value-lag")
        state["since"] += 1
        if not triggers and state["since"] >= CONFIRM_INTERVAL:
            triggers.append("periodic-confirm")
        if triggers:
            state["since"] = 0
            return "check", tuple(triggers)
        return "peek", ()

    def note_verdict(self, key: str, is_k_atomic: Optional[bool]) -> None:
        """Latch a register whose (authoritative or peeked) verdict was NO."""
        if is_k_atomic is False:
            self._state_for(key)["alarmed"] = True

    # -- checkpointing -------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Plain-data state for the engine's checkpoint payloads."""
        return {
            "policy": self.policy.name,
            "k": self.k,
            "registers": {
                key: {
                    "seq": st["seq"],
                    "values": list(st["values"].items()),
                    "since": st["since"],
                    "alarmed": st["alarmed"],
                }
                for key, st in self._registers.items()
            },
        }

    @classmethod
    def restore(
        cls, policy: TierPolicy, payload: Mapping[str, Any]
    ) -> "TierStreamState":
        state = cls(policy, int(payload.get("k", 1)))
        for key, st in dict(payload.get("registers", {})).items():
            state._registers[key] = {
                "seq": int(st["seq"]),
                "values": {value: int(seq) for value, seq in st["values"]},
                "since": int(st["since"]),
                "alarmed": bool(st["alarmed"]),
            }
        return state
