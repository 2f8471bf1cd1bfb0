"""Columnar (struct-of-arrays) encoding of a single-register history.

The object model — frozen :class:`~repro.core.operation.Operation` dataclasses
indexed by :class:`~repro.core.history.History` — is the right *public*
contract, but it is a poor *hot-path* representation in CPython: every sweep
pays an attribute lookup (and often a bound-method call) per operation per
pass, and the ``O(n log n + c·n)`` bounds of the paper drown in interpreter
overhead long before the asymptotics matter.

:class:`ColumnarHistory` re-encodes a single-register history as parallel
columns:

* ``start`` / ``finish`` — ``array('d')`` timestamp columns,
* ``is_write`` — a ``bytearray`` of 0/1 flags,
* ``value_id`` / ``client_id`` — interned integer ids with side tables,
* ``op_ids`` / ``weights`` — ``array('q')`` columns,
* ``dictating`` — for each read, the *index* of its dictating write (−1 when
  the value was never written).

Indices follow the canonical history order (start, finish, op id), so index
``i`` corresponds exactly to ``history.operations[i]`` and sorting index lists
ascending reproduces every ``(start, finish, op_id)`` sort in the object
implementation.  The encoding is buildable from a :class:`History` (cached on
the instance via :func:`columnar_of`) or straight from decoded trace rows
without ever materialising ``Operation`` objects
(:meth:`ColumnarHistory.from_rows`); operations are decoded lazily, only when
a caller needs a witness or a NO-reason.

The verification kernels over this encoding live in :mod:`repro.core.vector`
(numpy); the object path of :mod:`repro.algorithms` is the reference oracle
they are cross-checked against.
"""

from __future__ import annotations

from array import array
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from . import vector
from .errors import DuplicateValueError, MalformedOperationError
from .history import History
from .operation import Operation, OpType, trusted_operation

__all__ = ["ColumnarHistory", "columnar_of"]


class ColumnarHistory:
    """A single-register history encoded as parallel columns.

    Instances are immutable once built.  ``_ops[i]`` caches the decoded
    :class:`Operation` for index ``i``; when the encoding was built from a
    :class:`History` the whole tuple is present up front, otherwise operations
    are materialised lazily through the trusted constructor.
    """

    __slots__ = (
        "key",
        "n",
        "start",
        "finish",
        "is_write",
        "has_key",
        "value_id",
        "client_id",
        "op_ids",
        "weights",
        "values",
        "clients",
        "write_of_value",
        "dictating",
        "write_ord",
        "writes_idx",
        "_ops",
        "_history",
        "_anomalous",
        "_vector",
    )

    def __init__(self) -> None:  # populated by the classmethod constructors
        self.key: Optional[Hashable] = None
        self.n = 0
        self.start = array("d")
        self.finish = array("d")
        self.is_write = bytearray()
        self.has_key = bytearray()
        self.value_id = array("i")
        self.client_id = array("i")
        self.op_ids = array("q")
        self.weights = array("q")
        self.values: List[Hashable] = []
        self.clients: List[Hashable] = []
        self.write_of_value = array("i")
        self.dictating = array("i")
        self.write_ord = array("i")
        self.writes_idx: List[int] = []
        self._ops: List[Optional[Operation]] = []
        self._history: Optional[History] = None
        self._anomalous: Optional[bool] = None
        # Derived numpy-side state (cluster/chunk tables), owned by
        # repro.core.vector; None until the vectorized kernels touch this
        # encoding.
        self._vector = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_history(cls, history: History) -> "ColumnarHistory":
        """Encode an existing (sorted, validated) history into columns.

        Only the kernel columns (timestamps, type flags, interned values, op
        ids) are built eagerly; the decode-only columns (clients, weights,
        per-op key flags) are derived lazily because the operation objects are
        already at hand.
        """
        ops = history.operations
        col = cls()
        col.key = history.key
        col.n = len(ops)
        col._history = history
        col._ops = list(ops)
        col.start = array("d", [op.start for op in ops])
        col.finish = array("d", [op.finish for op in ops])
        write_type = OpType.WRITE
        col.is_write = bytearray(
            1 if op.op_type is write_type else 0 for op in ops
        )
        col.op_ids = array("q", [op.op_id for op in ops])
        # setdefault(v, len(table)) assigns dense ids in first-seen order.
        table: Dict[Hashable, int] = {}
        assign = table.setdefault
        col.value_id = array("i", [assign(op.value, len(table)) for op in ops])
        col.values = list(table)
        col.has_key = None
        col.client_id = None
        col.clients = None
        col.weights = None
        col._finalize()
        return col

    def _ensure_decode_columns(self) -> None:
        """Materialise the columns needed only for decoding/serialisation."""
        if self.weights is not None:
            return
        ops = self._ops  # complete whenever the decode columns are lazy
        self.has_key = bytearray(0 if op.key is None else 1 for op in ops)
        self.weights = array("q", [op.weight for op in ops])
        table: Dict[Hashable, int] = {}
        assign = table.setdefault
        self.client_id = array(
            "i",
            [-1 if op.client is None else assign(op.client, len(table)) for op in ops],
        )
        self.clients = list(table)

    @classmethod
    def from_rows(
        cls,
        rows: Iterable[Tuple[bool, Hashable, float, float, Optional[Hashable], int]],
        *,
        key: Optional[Hashable] = None,
        op_ids: Optional[Sequence[int]] = None,
    ) -> "ColumnarHistory":
        """Build the encoding straight from decoded trace rows.

        Each row is ``(is_write, value, start, finish, client, weight)``.  No
        :class:`Operation` objects are created; rows are validated inline
        (positive duration, positive write weights, uniquely-valued writes)
        and sorted into canonical order.  Fresh operation ids are assigned in
        that order unless ``op_ids`` supplies them per input row.
        """
        materialised = [
            (s, f, seq, w, v, c, wt)
            for seq, (w, v, s, f, c, wt) in enumerate(rows)
        ]
        for s, f, seq, w, v, c, wt in materialised:
            if f <= s:
                raise MalformedOperationError(
                    f"operation row {seq} has finish {f!r} <= start {s!r}; "
                    "operations must take a positive amount of time"
                )
            if w and wt < 1:
                raise MalformedOperationError(
                    f"write row {seq} has non-positive weight {wt!r}; "
                    "weights must be positive integers (Section V)"
                )
        if op_ids is None:
            # Fresh ids are assigned in sorted order below, so the input
            # sequence number is the correct (start, finish, id) tie-breaker.
            materialised.sort(key=lambda row: (row[0], row[1], row[2]))
        else:
            # Caller-supplied ids must drive tie-breaking exactly as
            # History's (start, finish, op_id) sort would.
            materialised.sort(key=lambda row: (row[0], row[1], op_ids[row[2]]))
        col = cls()
        col.key = key
        col.n = len(materialised)
        col._ops = [None] * col.n
        col.start = array("d", [row[0] for row in materialised])
        col.finish = array("d", [row[1] for row in materialised])
        col.is_write = bytearray(1 if row[3] else 0 for row in materialised)
        col.has_key = bytearray(col.n) if key is None else bytearray(b"\x01" * col.n)
        if op_ids is None:
            col.op_ids = array("q", [_next_op_id() for _ in range(col.n)])
        else:
            col.op_ids = array("q", [op_ids[row[2]] for row in materialised])
        col.weights = array("q", [row[6] for row in materialised])
        value_table: Dict[Hashable, int] = {}
        assign_value = value_table.setdefault
        col.value_id = array(
            "i", [assign_value(row[4], len(value_table)) for row in materialised]
        )
        col.values = list(value_table)
        client_table: Dict[Hashable, int] = {}
        assign_client = client_table.setdefault
        col.client_id = array(
            "i",
            [
                -1 if row[5] is None else assign_client(row[5], len(client_table))
                for row in materialised
            ],
        )
        col.clients = list(client_table)
        col._finalize()
        return col

    def _finalize(self) -> None:
        """Build the derived index columns (writer table, dictating links)."""
        n = self.n
        is_write = self.is_write
        value_id = self.value_id
        # b"\xff" * 8 decodes to -1 in a signed 8-byte array slot.
        write_of_value = (
            array("i", b"\xff" * (4 * len(self.values))) if self.values else array("i")
        )
        writes_idx: List[int] = []
        write_ord = array("i", bytes(4 * n))
        for i in range(n):
            if is_write[i]:
                vid = value_id[i]
                if write_of_value[vid] != -1:
                    raise DuplicateValueError(
                        f"two writes assign the value {self.values[vid]!r} "
                        f"(operations #{self.op_ids[write_of_value[vid]]} and "
                        f"#{self.op_ids[i]}); the model requires uniquely-valued "
                        "writes (Section II-C)"
                    )
                write_of_value[vid] = i
                write_ord[i] = len(writes_idx)
                writes_idx.append(i)
            else:
                write_ord[i] = -1
        dictating = array("i", bytes(4 * n))
        for i in range(n):
            dictating[i] = i if is_write[i] else write_of_value[value_id[i]]
        self.write_of_value = write_of_value
        self.writes_idx = writes_idx
        self.write_ord = write_ord
        self.dictating = dictating

    # ------------------------------------------------------------------
    # Introspection / decoding
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.n

    @property
    def num_writes(self) -> int:
        """Number of write operations."""
        return len(self.writes_idx)

    def value_of(self, index: int) -> Hashable:
        """The (un-interned) value of the operation at ``index``."""
        return self.values[self.value_id[index]]

    def operation(self, index: int) -> Operation:
        """Decode the operation at ``index``, materialising it lazily."""
        op = self._ops[index]
        if op is None:
            cid = self.client_id[index]
            # float()/int() are no-ops for the array-module columns and
            # normalise numpy scalars from memmap-backed columns, so decoded
            # operations are identical regardless of the column storage.
            op = trusted_operation(
                OpType.WRITE if self.is_write[index] else OpType.READ,
                self.values[self.value_id[index]],
                float(self.start[index]),
                float(self.finish[index]),
                key=self.key if self.has_key[index] else None,
                client=None if cid < 0 else self.clients[cid],
                op_id=int(self.op_ids[index]),
                weight=int(self.weights[index]),
            )
            self._ops[index] = op
        return op

    def operations(self, indices: Optional[Iterable[int]] = None) -> List[Operation]:
        """Decode many operations (all of them when ``indices`` is omitted)."""
        if indices is None:
            indices = range(self.n)
        operation = self.operation
        return [operation(i) for i in indices]

    # ------------------------------------------------------------------
    # Column-level serialisation (the engine's compact shard codec)
    # ------------------------------------------------------------------
    def to_columns(self) -> Tuple:
        """Dump the encoding as a tuple of raw column buffers.

        The result contains only ``bytes`` blobs, ints and the (small)
        interning side tables — no ``Operation`` objects — so pickling it is
        both fast and far more compact than pickling the object graph.
        Columns that are uniform in the common case (all-1 weights, no
        clients, homogeneous per-op key flags) collapse to ``None`` sentinels
        rather than shipping ``n`` identical entries.  The inverse is
        :meth:`from_columns`.
        """
        self._ensure_decode_columns()
        all_default_weights = not any(w != 1 for w in self.weights)
        no_clients = not self.clients
        uniform_key = (
            0
            if not any(self.has_key)
            else (1 if all(self.has_key) else None)
        )
        return (
            self.key,
            self.n,
            self.start.tobytes(),
            self.finish.tobytes(),
            bytes(self.is_write),
            uniform_key if uniform_key is not None else bytes(self.has_key),
            self.value_id.tobytes(),
            None if no_clients else self.client_id.tobytes(),
            self.op_ids.tobytes(),
            None if all_default_weights else self.weights.tobytes(),
            list(self.values),
            None if no_clients else list(self.clients),
        )

    @classmethod
    def from_columns(cls, columns: Tuple) -> "ColumnarHistory":
        """Rebuild an encoding from :meth:`to_columns` output."""
        (
            key,
            n,
            start,
            finish,
            is_write,
            has_key,
            value_id,
            client_id,
            op_ids,
            weights,
            values,
            clients,
        ) = columns
        col = cls()
        col.key = key
        col.n = n
        col._ops = [None] * n
        col.start = array("d")
        col.start.frombytes(start)
        col.finish = array("d")
        col.finish.frombytes(finish)
        col.is_write = bytearray(is_write)
        if isinstance(has_key, int):
            col.has_key = bytearray(n) if has_key == 0 else bytearray(b"\x01" * n)
        else:
            col.has_key = bytearray(has_key)
        col.value_id = array("i")
        col.value_id.frombytes(value_id)
        if client_id is None:
            col.client_id = array("i", b"\xff" * (4 * n))
            col.clients = []
        else:
            col.client_id = array("i")
            col.client_id.frombytes(client_id)
            col.clients = clients
        col.op_ids = array("q")
        col.op_ids.frombytes(op_ids)
        if weights is None:
            col.weights = array("q", [1]) * n if n else array("q")
        else:
            col.weights = array("q")
            col.weights.frombytes(weights)
        col.values = values
        col._finalize()
        return col

    def to_history(self) -> History:
        """Materialise the :class:`History` view of this encoding.

        The history's derived-structure cache is seeded with this encoding,
        so verifying the returned history goes straight through the vectorized
        kernels without re-encoding.
        """
        if self._history is None:
            history = History._from_trusted_sorted(self.operations(), self.key)
            history._derived.setdefault("columnar", self)
            self._history = history
        return self._history

    # ------------------------------------------------------------------
    # Anomaly scan
    # ------------------------------------------------------------------
    def has_anomalies(self) -> bool:
        """Section II-C anomaly scan (memoized, vectorized).

        True iff some read returns a never-written value or finishes before
        its dictating write starts — exactly
        :func:`repro.core.preprocess.has_anomalies`.  Delegates to
        :func:`repro.core.vector.has_anomalies`, which scans once per
        encoding; repeated verifier calls (GK then FZF, the per-k spectrum
        sweep) reuse the cached answer.
        """
        return vector.has_anomalies(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        key = "" if self.key is None else f" key={self.key!r}"
        return f"<ColumnarHistory{key} |ops|={self.n} writes={len(self.writes_idx)}>"


def _next_op_id() -> int:
    from .operation import _OP_COUNTER

    return next(_OP_COUNTER)


def columnar_of(history: History) -> ColumnarHistory:
    """The columnar encoding of ``history``, memoized on the instance."""
    return history.cached("columnar", lambda: ColumnarHistory.from_history(history))
