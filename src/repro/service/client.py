"""Client side of the audit service: async sessions and a sync front door.

:class:`AuditClient` speaks the session protocol over asyncio streams; a
background receiver task routes unsolicited ``window`` frames (rolling
verdicts arrive whenever the server closes a window, not in lockstep with
writes) away from the request/response flow, so feeding never deadlocks
against a server blocked on its own verdict writes.

:func:`verify_remote` is the synchronous convenience the CLI uses for
``repro verify --remote``: stream a trace to a server, return the same
``{register: VerificationResult}`` mapping :func:`repro.core.api.verify_trace`
produces locally.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Tuple, Union

from ..core.errors import RetryableServiceError, ServiceError
from ..core.operation import Operation
from ..core.result import VerificationResult
from ..core.windows import WindowPolicy
from ..io.formats import JsonlDecoder, operation_to_dict, stream_trace
from .protocol import (
    MAX_FRAME_BYTES,
    encode_frame,
    error_to_exception,
    parse_address,
    results_from_pairs,
)

__all__ = ["AuditClient", "RemoteReport", "verify_remote"]


@dataclass(frozen=True)
class RemoteReport:
    """The final report of one remote audit session, decoded.

    ``results`` matches what a local ``verify_trace`` over the same
    operations returns; ``windows`` preserves the rolling window frames that
    arrived while the stream ran (raw protocol dicts, in arrival order).
    """

    session_id: str
    k: int
    ops: int
    num_windows: int
    results: Dict[Hashable, VerificationResult]
    elapsed_s: float
    windows: Tuple[dict, ...] = field(default_factory=tuple)

    @property
    def is_k_atomic(self) -> bool:
        """True iff every register's final verdict is YES."""
        return all(bool(r) for r in self.results.values())

    @property
    def failures(self) -> Dict[Hashable, VerificationResult]:
        """The registers whose final verdict is NO."""
        return {key: r for key, r in self.results.items() if not r}


class AuditClient:
    """One audit session against a running :class:`~repro.service.AuditServer`.

    Use as an async context manager or call :meth:`close` explicitly::

        client = await AuditClient.connect("127.0.0.1:7400", k=2)
        for op in ops:
            await client.feed(op)
        report = await client.finish()

    ``on_window`` (a callable receiving each raw ``window`` frame) delivers
    rolling verdicts as they arrive; they are also collected on
    :attr:`windows`.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        on_window: Optional[Callable[[dict], None]] = None,
        io_timeout: Optional[float] = None,
    ):
        self._reader = reader
        self._writer = writer
        self._on_window = on_window
        #: Per-await cap (seconds) on writes draining and replies arriving;
        #: ``None`` waits forever (the pre-chaos behaviour).
        self.io_timeout = io_timeout
        self._frames: asyncio.Queue = asyncio.Queue()
        self._receiver = asyncio.create_task(self._receive())
        self.windows: List[dict] = []
        self.session_id: Optional[str] = None
        self.resumed = False
        self.ops_restored = 0
        self._ops_sent = 0
        self._closed = False

    # ------------------------------------------------------------------
    @classmethod
    async def connect(
        cls,
        address: str,
        *,
        session: Optional[str] = None,
        k: int = 2,
        algorithm: str = "auto",
        window: Optional[Union[WindowPolicy, int]] = None,
        resume: bool = False,
        witness: bool = False,
        tier: Optional[str] = None,
        on_window: Optional[Callable[[dict], None]] = None,
        connect_timeout: Optional[float] = None,
        io_timeout: Optional[float] = None,
    ) -> "AuditClient":
        """Open a connection and complete the ``hello``/``welcome`` handshake.

        ``address`` is ``HOST:PORT`` or ``unix:PATH``; ``window`` is a
        :class:`WindowPolicy` or a plain count-window size.  ``resume=True``
        asks the server to rehydrate ``session`` from its checkpoint store.
        ``tier`` selects the session's adaptive verification ladder
        (``"exact"`` / ``"auto"``; the server rejects unknown names at the
        handshake).  ``connect_timeout`` caps the dial; ``io_timeout`` caps
        every subsequent await on the connection (both in seconds, ``None``
        = unbounded).
        """
        kind, endpoint = parse_address(address)

        async def dial():
            if kind == "unix":
                return await asyncio.open_unix_connection(
                    endpoint, limit=MAX_FRAME_BYTES
                )
            host, port = endpoint
            return await asyncio.open_connection(host, port, limit=MAX_FRAME_BYTES)

        try:
            if connect_timeout is not None:
                reader, writer = await asyncio.wait_for(dial(), connect_timeout)
            else:
                reader, writer = await dial()
        except asyncio.TimeoutError:
            raise RetryableServiceError(
                f"timed out connecting to {address} after {connect_timeout}s"
            ) from None
        client = cls(reader, writer, on_window=on_window, io_timeout=io_timeout)
        hello: dict = {"type": "hello", "k": k, "algorithm": algorithm}
        if session is not None:
            hello["session"] = session
        if resume:
            hello["resume"] = True
        if witness:
            hello["witness"] = True
        if tier is not None:
            hello["tier"] = tier
        if window is not None:
            if isinstance(window, WindowPolicy):
                hello["window"] = {
                    "mode": window.mode,
                    "size": window.size,
                    "overlap": window.overlap,
                }
            else:
                hello["window"] = {"mode": "count", "size": int(window)}
        try:
            await client._send(hello)
            welcome = await client._expect("welcome")
        except BaseException:
            # A refused handshake (duplicate session, missing checkpoint...)
            # must not leak the socket or the receiver task.
            await client.close()
            raise
        client.session_id = welcome.get("session")
        client.resumed = bool(welcome.get("resumed", False))
        client.ops_restored = int(welcome.get("ops_restored", 0))
        return client

    async def __aenter__(self) -> "AuditClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------
    @property
    def ops_sent(self) -> int:
        """Operations this client has streamed in this connection."""
        return self._ops_sent

    async def feed(self, op: Operation) -> None:
        """Stream one operation to the session."""
        self._writer.write(
            (json.dumps(operation_to_dict(op), sort_keys=True) + "\n").encode("utf-8")
        )
        self._ops_sent += 1
        await self._timed(self._writer.drain(), "write to server")

    async def feed_ops(self, ops: Iterable[Operation]) -> int:
        """Stream many operations; returns how many were sent."""
        count = 0
        for op in ops:
            await self.feed(op)
            count += 1
        return count

    async def checkpoint(self) -> dict:
        """Force a server-side checkpoint; returns the ``checkpointed`` frame."""
        await self._send({"type": "checkpoint"})
        return await self._expect("checkpointed")

    async def stats(self) -> dict:
        """Fetch the server's service-level statistics frame."""
        await self._send({"type": "stats"})
        return await self._expect("stats")

    async def finish(self) -> RemoteReport:
        """End the stream and decode the final report."""
        await self._send({"type": "end"})
        frame = await self._expect("report")
        report = RemoteReport(
            session_id=frame.get("session", self.session_id or ""),
            k=int(frame["k"]),
            ops=int(frame["ops"]),
            num_windows=int(frame["windows"]),
            results=results_from_pairs(frame["results"]),
            elapsed_s=float(frame.get("elapsed_s", 0.0)),
            windows=tuple(self.windows),
        )
        await self.close()
        return report

    async def close(self) -> None:
        """Drop the connection (without finishing the session)."""
        if self._closed:
            return
        self._closed = True
        self._receiver.cancel()
        try:
            await self._receiver
        except (asyncio.CancelledError, Exception):
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, asyncio.CancelledError):
            pass

    # ------------------------------------------------------------------
    async def _timed(self, awaitable, what: str):
        """Await with the per-operation cap; timeouts are retryable."""
        if self.io_timeout is None:
            return await awaitable
        try:
            return await asyncio.wait_for(awaitable, self.io_timeout)
        except asyncio.TimeoutError:
            raise RetryableServiceError(
                f"{what} timed out after {self.io_timeout}s"
            ) from None

    async def _send(self, frame: dict) -> None:
        self._writer.write(encode_frame(frame))
        await self._timed(self._writer.drain(), "write to server")

    async def _receive(self) -> None:
        """Route incoming frames: windows to the live feed, rest to the queue.

        Framing goes through :class:`JsonlDecoder` in mixed mode — the same
        chunk buffering (partial lines, split multi-byte UTF-8) the server
        side uses, and no fixed frame-size cap: a large ``report`` frame (a
        witness over a big register) is exactly the data the client asked
        for, so it must not lose the verdict to its own transport limit.
        Every server frame carries a ``type`` field, so the decoder yields
        them all as dicts.
        """
        decoder = JsonlDecoder(source="server", mixed=True)
        try:
            while True:
                chunk = await self._reader.read(1 << 16)
                if not chunk:
                    await self._frames.put(
                        RetryableServiceError("server closed the connection")
                    )
                    return
                for frame in decoder.feed(chunk):
                    if not isinstance(frame, dict):
                        raise ServiceError(
                            f"unexpected non-frame message from server: {frame!r}"
                        )
                    if frame.get("type") == "window":
                        self.windows.append(frame)
                        if self._on_window is not None:
                            self._on_window(frame)
                        continue
                    await self._frames.put(frame)
        except (ConnectionError, asyncio.IncompleteReadError):
            await self._frames.put(RetryableServiceError("connection to the server was lost"))
        except ServiceError as exc:
            await self._frames.put(exc)
        except Exception as exc:  # e.g. an over-limit frame: fail, don't hang
            await self._frames.put(
                RetryableServiceError(f"cannot read server frame: {exc}")
            )

    async def _expect(self, frame_type: str) -> dict:
        """Wait for the next non-window frame, requiring the given type.

        ``error`` frames raise the typed exception their ``code`` names
        (:func:`~repro.service.protocol.error_to_exception`); an unsolicited
        ``draining`` frame — the server is gracefully shutting down — raises
        :class:`~repro.core.errors.ServerDraining` carrying the resume token,
        so callers (and the self-healing client) can reconnect cleanly
        instead of mis-reading the shutdown as a protocol violation.
        """
        frame = await self._timed(self._frames.get(), f"waiting for {frame_type!r}")
        if isinstance(frame, Exception):
            raise frame
        if frame.get("type") in ("error", "draining"):
            raise error_to_exception(frame)
        if frame.get("type") != frame_type:
            raise ServiceError(
                f"expected a {frame_type!r} frame, got {frame.get('type')!r}"
            )
        return frame


def verify_remote(
    trace: Union[str, Path, Iterable[Operation]],
    k: int = 2,
    *,
    address: str,
    algorithm: str = "auto",
    window: Optional[Union[WindowPolicy, int]] = None,
    session: Optional[str] = None,
    resume: bool = False,
    witness: bool = False,
    fmt: Optional[str] = None,
    on_window: Optional[Callable[[dict], None]] = None,
    retry: Optional["RetryPolicy"] = None,
) -> RemoteReport:
    """Stream a trace to an audit server and return its final report.

    The synchronous counterpart of :class:`AuditClient` — what ``repro verify
    --remote ADDRESS`` calls.  ``trace`` is a trace file path (any format the
    registry knows; ``fmt`` forces one by name, ``None`` sniffs the
    extension) or any iterable of operations — foreign Jepsen/Porcupine
    histories are decoded client-side and travel the wire as ordinary
    protocol records.  ``report.results`` equals what
    :func:`~repro.core.api.verify_trace` returns for the same operations, by
    the incremental checkers' batch-parity guarantee.

    ``retry`` (a :class:`~repro.service.resilient.RetryPolicy`) runs the
    stream through the self-healing
    :class:`~repro.service.resilient.ResilientAuditClient` instead — it
    requires an explicit ``session`` id and rides out connection loss,
    server restarts, and drains.
    """
    if isinstance(trace, (str, Path)):
        ops: Iterable[Operation] = stream_trace(trace, fmt)
    else:
        ops = trace

    async def run() -> RemoteReport:
        if retry is not None:
            from .resilient import ResilientAuditClient

            if session is None:
                raise ServiceError("retry needs an explicit session id")
            healing = ResilientAuditClient(
                address,
                session=session,
                k=k,
                algorithm=algorithm,
                window=window,
                witness=witness,
                policy=retry,
                on_window=on_window,
            )
            async with healing:
                await healing.feed_ops(ops)
                return await healing.finish()
        client = await AuditClient.connect(
            address,
            session=session,
            k=k,
            algorithm=algorithm,
            window=window,
            resume=resume,
            witness=witness,
            on_window=on_window,
        )
        try:
            await client.feed_ops(ops)
            return await client.finish()
        finally:
            await client.close()

    return asyncio.run(run())
