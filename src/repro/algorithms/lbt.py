"""LBT — 2-atomicity verification by Limited BackTracking (Section III).

LBT conceptually constructs a 2-atomic total order back to front, placing
operations into *write slots* and *read containers* (Figure 1).  It runs in
*epochs*: at the start of an epoch a candidate write is tentatively placed in
the latest unfilled write slot; that choice then uniquely determines the rest
of the epoch's placements (no further search), and backtracking is limited to
the choice of the epoch's first write.  The paper gives the pseudo-code in
Figure 2 and proves correctness (Theorem 3.1) and an
``O(n log n + c·n)`` bound (Theorem 3.2) where ``c`` is the maximum number of
concurrent writes.

This module provides two interchangeable implementations:

* :func:`verify_2atomic_reference` — a direct, easily-auditable transcription
  of Figure 2 operating on plain Python sets (quadratic bookkeeping, used as a
  readable reference and in cross-validation tests);
* :class:`LBTChecker` / :func:`verify_2atomic` — the efficient variant from
  the Theorem 3.2 proof, using linked-list removal with an undo log and
  iterative-deepening candidate exploration.

Both produce an explicit witness total order on YES.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.history import History
from ..core.operation import Operation
from ..core.preprocess import has_anomalies, normalize
from ..core.result import VerificationResult

__all__ = [
    "verify_2atomic",
    "verify_2atomic_reference",
    "is_2atomic",
    "LBTChecker",
]

_ALGORITHM = "LBT"
_ALGORITHM_REF = "LBT-reference"


# ======================================================================
# Reference implementation (direct transcription of Figure 2)
# ======================================================================
def _run_epoch_reference(
    first: Operation,
    H: Set[Operation],
    W: Set[Operation],
    history: History,
) -> Tuple[bool, List[List[Operation]]]:
    """Run one epoch starting from candidate ``first``.

    Mutates ``H`` and ``W``.  Returns ``(success, segments)`` where
    ``segments[i]`` holds the write placed in the i-th slot of the epoch
    (latest first) followed by the reads placed in its read container.
    """
    w = first
    segments: List[List[Operation]] = []
    while True:
        w_next: Optional[Operation] = None
        container: List[Operation] = []
        # Line 13: every remaining operation that starts after w finishes.
        after = [op for op in H if w.finish < op.start]
        for op in after:
            if op.is_write:
                return False, segments  # line 14
            dictating = history.dictating_write(op)
            if dictating is not w and dictating is not w_next:
                if w_next is not None:
                    return False, segments  # line 16
                w_next = dictating  # line 17
            container.append(op)
        for op in after:
            H.discard(op)  # line 18
        # Lines 19-20: remaining dictated reads of w, then w itself.
        rest = [r for r in history.dictated_reads(w) if r in H]
        for r in rest:
            H.discard(r)
            container.append(r)
        H.discard(w)
        W.discard(w)
        container.sort(key=lambda op: (op.start, op.finish, op.op_id))
        segments.append([w] + container)
        if w_next is None:
            return True, segments  # line 21
        w = w_next  # line 22


def verify_2atomic_reference(history: History) -> VerificationResult:
    """Decide 2-atomicity with a literal transcription of Figure 2.

    Quadratic-or-worse bookkeeping, but very close to the paper's pseudo-code;
    primarily used as a cross-validation reference for :func:`verify_2atomic`.
    The input must satisfy the Section II-C assumptions (use
    :func:`repro.core.preprocess.normalize`).
    """
    if history.is_empty:
        return VerificationResult.yes(2, _ALGORITHM_REF, witness=())
    if has_anomalies(history):
        return VerificationResult.no(
            2, _ALGORITHM_REF, reason="history contains Section II-C anomalies"
        )

    H: Set[Operation] = set(history.operations)
    W: Set[Operation] = set(history.writes)
    witness_suffix: List[Operation] = []
    epochs = 0
    candidates_tried = 0

    while H:
        epochs += 1
        # Line 3: writes in W that do not precede any other write in W.
        candidates = [
            w for w in W if not any(w.precedes(other) for other in W if other is not w)
        ]
        # Deterministic order: latest-finishing candidates first.
        candidates.sort(key=lambda w: (-w.finish, w.op_id))
        success = False
        for candidate in candidates:
            candidates_tried += 1
            H_trial = set(H)
            W_trial = set(W)
            ok, segments = _run_epoch_reference(candidate, H_trial, W_trial, history)
            if ok:
                H, W = H_trial, W_trial
                epoch_ops: List[Operation] = []
                for segment in reversed(segments):
                    epoch_ops.extend(segment)
                witness_suffix = epoch_ops + witness_suffix
                success = True
                break
        if not success:
            return VerificationResult.no(
                2,
                _ALGORITHM_REF,
                reason=f"all {len(candidates)} epoch candidates failed with "
                f"{len(H)} operations left",
                stats={"epochs": epochs, "candidates_tried": candidates_tried},
            )
    return VerificationResult.yes(
        2,
        _ALGORITHM_REF,
        witness=witness_suffix,
        stats={"epochs": epochs, "candidates_tried": candidates_tried},
    )


# ======================================================================
# Efficient implementation (Theorem 3.2)
# ======================================================================
class _LinkedList:
    """An intrusive doubly linked list over integer node ids with an undo log.

    Nodes are identified by their index in the original sorted array.  Removal
    is O(1) and logged; :meth:`undo_to` restores removals in reverse order,
    which re-links nodes correctly because a removed node keeps its own
    ``prev``/``next`` pointers.
    """

    __slots__ = ("prev", "next", "head", "tail", "removed", "log")

    def __init__(self, n: int):
        self.prev = list(range(-1, n - 1))
        self.next = list(range(1, n + 1))
        self.head = 0 if n else -1
        self.tail = n - 1
        if n:
            self.next[n - 1] = -1
        self.removed = [False] * n
        self.log: List[int] = []

    def remove(self, i: int) -> None:
        """Unlink node ``i`` and record the removal."""
        if self.removed[i]:
            return
        p, nx = self.prev[i], self.next[i]
        if p != -1:
            self.next[p] = nx
        else:
            self.head = nx
        if nx != -1:
            self.prev[nx] = p
        else:
            self.tail = p
        self.removed[i] = True
        self.log.append(i)

    def undo_to(self, mark: int) -> None:
        """Undo removals until the log has length ``mark``."""
        while len(self.log) > mark:
            i = self.log.pop()
            p, nx = self.prev[i], self.next[i]
            if p != -1:
                self.next[p] = i
            else:
                self.head = i
            if nx != -1:
                self.prev[nx] = i
            else:
                self.tail = i
            self.removed[i] = False

    def mark(self) -> int:
        """Return the current undo-log position."""
        return len(self.log)

    def is_empty(self) -> bool:
        """True iff every node has been removed."""
        return self.head == -1


class LBTChecker:
    """Efficient LBT with linked-list removal and iterative deepening.

    The data-structure choices follow the proof of Theorem 3.2:

    * ``H`` is kept as a doubly linked list sorted by start time, so the
      operations that start after a write's finish form a suffix;
    * ``W`` is kept as a doubly linked list sorted by finish time, so the
      epoch candidates (writes that do not precede any other remaining write)
      form a suffix;
    * every removal is O(1) and reverted through an undo log when an epoch
      attempt is aborted;
    * candidates of an epoch are explored with iterative deepening (budget
      doubling), so the cost of an epoch is O(c · t) where ``t`` is the cost
      of the cheapest successful candidate.
    """

    def __init__(self, history: History, *, kernel: Optional[str] = None):
        from ..core import vector

        self.history = history
        # Operations sorted by start time define the H linked list.  The hot
        # loops below never touch the Operation objects themselves: all
        # per-operation state is pre-extracted into parallel index columns so
        # the suffix walks are array lookups, not attribute chases.
        self.ops: List[Operation] = list(history.operations)
        self.h_index: Dict[Operation, int] = {op: i for i, op in enumerate(self.ops)}
        self.H = _LinkedList(len(self.ops))
        if vector.resolve_kernel(kernel) == "numpy" and self.ops:
            # Vectorized setup: the same columns, built with array ops
            # (lexsort / stable argsort) instead of per-operation Python.
            cols = vector.lbt_setup(history)
            self.h_starts = cols["h_starts"]
            self.h_is_write = cols["h_is_write"]
            self.h_of_w = cols["h_of_w"]
            self.writes = [self.ops[i] for i in self.h_of_w]
            self.w_starts = cols["w_starts"]
            self.w_finishes = cols["w_finishes"]
            self.dictated_of_w = cols["dictated_of_w"]
            self.dictating_w_of_h = cols["dictating_w_of_h"]
            self.w_index = {w: i for i, w in enumerate(self.writes)}
            self.W = _LinkedList(len(self.writes))
            self.stats = {"epochs": 0, "candidates_tried": 0, "deepening_rounds": 0}
            return
        self.h_starts: List[float] = [op.start for op in self.ops]
        self.h_is_write: List[bool] = [op.is_write for op in self.ops]
        # Writes sorted by finish time define the W linked list.
        self.writes: List[Operation] = sorted(
            history.writes, key=lambda w: (w.finish, w.op_id)
        )
        self.w_index: Dict[Operation, int] = {w: i for i, w in enumerate(self.writes)}
        self.W = _LinkedList(len(self.writes))
        self.w_starts: List[float] = [w.start for w in self.writes]
        self.w_finishes: List[float] = [w.finish for w in self.writes]
        # Cross map between the two index spaces.
        self.h_of_w: List[int] = [self.h_index[w] for w in self.writes]
        # Dictated reads of each write (by W index), as H indices; and for
        # each read, the W index of its dictating write.
        self.dictated_of_w: List[List[int]] = [
            [self.h_index[r] for r in history.dictated_reads(w)] for w in self.writes
        ]
        dictating_w = [-1] * len(self.ops)
        for wi, read_indices in enumerate(self.dictated_of_w):
            for hi in read_indices:
                dictating_w[hi] = wi
        self.dictating_w_of_h: List[int] = dictating_w
        self.stats = {"epochs": 0, "candidates_tried": 0, "deepening_rounds": 0}

    # ------------------------------------------------------------------
    def _candidate_indices(self) -> List[int]:
        """W indices of the epoch candidates (line 3), latest-finishing first.

        As argued in the Theorem 3.2 proof, the candidates form a suffix of W
        when W is sorted by finish time: a write can only precede writes with
        a strictly larger finish time, so scanning from the tail while
        tracking the maximum start time seen so far identifies the whole
        candidate set in O(c) steps, and the scan can stop at the first
        non-candidate (every earlier write then precedes the same later
        write).
        """
        candidates: List[int] = []
        max_start_seen = float("-inf")
        w_starts = self.w_starts
        w_finishes = self.w_finishes
        w_prev = self.W.prev
        i = self.W.tail
        while i != -1:
            if w_finishes[i] < max_start_seen:
                break
            candidates.append(i)
            s = w_starts[i]
            if s > max_start_seen:
                max_start_seen = s
            i = w_prev[i]
        return candidates

    def _candidates(self) -> List[Operation]:
        """The epoch-candidate writes (object view of :meth:`_candidate_indices`)."""
        return [self.writes[i] for i in self._candidate_indices()]

    # ------------------------------------------------------------------
    def _run_epoch(
        self, first_w: int, budget: Optional[int]
    ) -> Tuple[str, List[List[int]], Tuple[int, int]]:
        """Attempt an epoch starting at W index ``first_w`` with a step budget.

        Returns ``(outcome, segments, marks)`` where outcome is ``"success"``,
        ``"fail"`` (the epoch is definitively impossible) or ``"budget"`` (the
        step budget ran out before a verdict).  ``segments`` hold H indices —
        decoded to operations only when a witness is assembled.  ``marks`` are
        the undo-log positions of H and W before the attempt, so the caller
        can revert.
        """
        h_mark = self.H.mark()
        w_mark = self.W.mark()
        segments: List[List[int]] = []
        steps = 0
        wi = first_w
        h_starts = self.h_starts
        h_is_write = self.h_is_write
        h_prev = self.H.prev
        h_of_w = self.h_of_w
        dictating_w = self.dictating_w_of_h
        while True:
            w_next = -1
            w_h = h_of_w[wi]
            w_finish = self.w_finishes[wi]
            container: List[int] = []
            # Operations starting after w.finish form a suffix of H (sorted
            # by start time): walk backwards from the tail.
            i = self.H.tail
            to_remove: List[int] = []
            while i != -1 and h_starts[i] > w_finish:
                if h_is_write[i]:
                    if i != w_h:
                        return "fail", segments, (h_mark, w_mark)
                else:
                    dw = dictating_w[i]
                    if dw != wi and dw != w_next:
                        if w_next != -1:
                            return "fail", segments, (h_mark, w_mark)
                        w_next = dw
                    container.append(i)
                    to_remove.append(i)
                i = h_prev[i]
                steps += 1
                if budget is not None and steps > budget:
                    return "budget", segments, (h_mark, w_mark)
            for idx in to_remove:
                self.H.remove(idx)
            # Remaining dictated reads of w, then w itself.
            for idx in self.dictated_of_w[wi]:
                if not self.H.removed[idx]:
                    container.append(idx)
                    self.H.remove(idx)
                steps += 1
            self.H.remove(w_h)
            self.W.remove(wi)
            steps += 1
            container.sort()
            segments.append([w_h] + container)
            if budget is not None and steps > budget:
                return "budget", segments, (h_mark, w_mark)
            if w_next == -1:
                return "success", segments, (h_mark, w_mark)
            wi = w_next

    # ------------------------------------------------------------------
    def verify(self) -> VerificationResult:
        """Run LBT to completion and return the verdict with a witness."""
        history = self.history
        if history.is_empty:
            return VerificationResult.yes(2, _ALGORITHM, witness=())
        if has_anomalies(history):
            return VerificationResult.no(
                2, _ALGORITHM, reason="history contains Section II-C anomalies"
            )
        witness_suffix: List[int] = []
        while not self.H.is_empty():
            self.stats["epochs"] += 1
            candidates = self._candidate_indices()
            outcome_segments = self._explore_candidates(candidates)
            if outcome_segments is None:
                return VerificationResult.no(
                    2,
                    _ALGORITHM,
                    reason=f"all {len(candidates)} epoch candidates failed",
                    stats=dict(self.stats),
                )
            epoch_ops: List[int] = []
            for segment in reversed(outcome_segments):
                epoch_ops.extend(segment)
            witness_suffix = epoch_ops + witness_suffix
        ops = self.ops
        return VerificationResult.yes(
            2,
            _ALGORITHM,
            witness=[ops[i] for i in witness_suffix],
            stats=dict(self.stats),
        )

    def _explore_candidates(
        self, candidates: Sequence[int]
    ) -> Optional[List[List[int]]]:
        """Find a successful candidate (by W index) via iterative deepening.

        Returns the segments of the successful epoch (with H/W permanently
        updated), or ``None`` if every candidate definitively fails.
        """
        alive = list(candidates)
        budget = 4
        while alive:
            self.stats["deepening_rounds"] += 1
            survivors: List[int] = []
            for candidate in alive:
                self.stats["candidates_tried"] += 1
                outcome, segments, (h_mark, w_mark) = self._run_epoch(candidate, budget)
                if outcome == "success":
                    return segments
                # Revert this attempt.
                self.H.undo_to(h_mark)
                self.W.undo_to(w_mark)
                if outcome == "budget":
                    survivors.append(candidate)
            alive = survivors
            budget *= 2
        return None


def verify_2atomic(
    history: History,
    *,
    preprocess: bool = False,
    kernel: Optional[str] = None,
) -> VerificationResult:
    """Decide whether ``history`` is 2-atomic using the efficient LBT.

    Parameters
    ----------
    history:
        The history to verify.  Must satisfy the Section II-C assumptions
        unless ``preprocess=True``.
    preprocess:
        When true, run :func:`repro.core.preprocess.normalize` first
        (timestamp tie-breaking and write shortening).  Anomalous histories
        then yield a NO verdict instead of an exception.
    kernel:
        Kernel tier for the checker's setup columns
        (:func:`repro.core.vector.resolve_kernel`); the epoch loops
        themselves are inherently sequential and identical across tiers.
    """
    if preprocess:
        if has_anomalies(history):
            return VerificationResult.no(
                2, _ALGORITHM, reason="history contains Section II-C anomalies"
            )
        history = normalize(history)
    return LBTChecker(history, kernel=kernel).verify()


def is_2atomic(history: History, *, preprocess: bool = False) -> bool:
    """Boolean convenience wrapper around :func:`verify_2atomic`."""
    return bool(verify_2atomic(history, preprocess=preprocess))
