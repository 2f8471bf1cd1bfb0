"""The ``serve_pooled`` workload: a load generator against ``repro serve``.

One process (this one) drives two concurrent :class:`AuditClient` sessions
over one event loop against ``repro serve --workers 1`` with a checkpoint
directory and the default state backend.  Sessions use the server's default
count window (64) and replay the seeded stream files, one session per file:
the same window and stream shape as ``stream_rolling``, so the same checker
work.  The two lanes take the files in turn, so a run covers all of them.
Every session's final report (witnesses and NO reasons included) is checked
against the oracle.  Each session forces a checkpoint every
``CHECKPOINT_EVERY`` windows, without pausing its stream.

* **Saturated phase**: both lanes feed as fast as backpressure allows, for
  one timed unit that passes over every stream file once; it gives
  ``ops_per_s``.  The files differ in how much checker work they need, and
  their sum differs far less.
* **Latency phase**, the rest of the run: a closed loop of two clients.
  Each lane sends one window's ops, then waits for that window's ``window``
  frame before sending the next; a window's latency runs from sending its
  closing op to its frame's arrival.

Why closed loop: on a 2-vCPU VM, an open loop below capacity leaves the
vCPUs idle between ops, and the hypervisor's vCPU wake-up delay (reported
as stolen time, 10-35% of busy time) then sets the tail.  Measured open-loop
p99s of identical runs spread by more than 100%; the closed loop keeps the
pipeline busy.

Every unit is bracketed by host-speed probes, one before it and one after
each pass, and its window latencies are scaled by their median.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import common
from child import STREAM_WINDOW, count_failures
from inputs import K

#: Count window of the served sessions: the ``repro serve`` default.
WINDOW = STREAM_WINDOW
#: Force a checkpoint after every this many closed windows.
CHECKPOINT_EVERY = 4
#: Untimed closed-loop passes first: a fresh server and its worker run the
#: first second or so of sessions measurably slower.
WARMUP_S = 2.0


class Server:
    """A ``repro serve --workers 1`` subprocess on an ephemeral port.

    With ``totals_path`` the server starts through ``launcher.py``, which
    installs the tracing wrappers and writes their totals there on exit.
    """

    def __init__(self, state_dir, *, totals_path=None):
        self.state_dir = state_dir
        shutil.rmtree(state_dir, ignore_errors=True)
        args = ["--port", "0", "--workers", "1", "--checkpoint-dir", str(state_dir)]
        if totals_path is None:
            cmd = [sys.executable, "-m", "repro", "serve", *args]
        else:
            cmd = [sys.executable, str(common.ROOT / "kavbench" / "launcher.py"),
                   str(totals_path), *args]
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=common.child_env(), text=True, cwd=common.ROOT,
        )
        banner = self.proc.stdout.readline()
        if "listening on" not in banner:
            self.stop()
            raise RuntimeError(f"server failed to start: {banner!r}")
        self.address = banner.strip().rsplit(" ", 1)[-1]

    @property
    def pid(self) -> int:
        return self.proc.pid

    def worker_pids(self) -> list:
        return common.child_pids(self.proc.pid)

    def stop(self) -> None:
        """Drain the server with SIGTERM and wait for it and its workers."""
        workers = self.worker_pids() if self.proc.poll() is None else []
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        for pid in workers:  # a killed server leaves its workers behind
            common.reap(pid)
        shutil.rmtree(self.state_dir, ignore_errors=True)


class Lanes:
    """Two session lanes taking the stream files in turn: each pass starts
    one session per lane on the next two files."""

    def __init__(self, address, streams, refs, *, trace_client=False):
        self.address = address
        self.streams = streams
        self.refs = refs
        self.sessions = 0
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        #: Ops fed to the server, warm-up included (attempted excludes it).
        self.streamed = 0
        self.checkpoint_ms = []
        self.late_ms = []
        self.send_wait_s = 0.0
        self.trace_client = trace_client

    async def session(self, index: int, windows=None) -> int:
        """Replay stream file ``index`` as one session; returns its op count.

        With a ``windows`` list the session runs closed loop, one window at
        a time, appending each window's latency (s); without it, it streams
        as fast as backpressure allows.
        """
        from repro.service.client import AuditClient

        ops = self.streams[index]
        replied = asyncio.Event()
        sent_at = {}
        arrived = [0.0]

        def on_window(frame):
            sent = sent_at.pop(frame["index"], None)
            if sent is not None:
                arrived[0] = time.perf_counter()
                windows.append(arrived[0] - sent)
            replied.set()

        self.sessions += 1
        client = await AuditClient.connect(
            self.address, session=f"s{index}-{self.sessions}", k=K,
            window=WINDOW, witness=True, on_window=on_window,
        )
        checkpoints = []
        for j, op in enumerate(ops, start=1):
            closes = j % WINDOW == 0
            if closes and windows is not None:
                sent_at[j // WINDOW - 1] = time.perf_counter()
            if self.trace_client:
                t0 = time.perf_counter()
                await client.feed(op)
                self.send_wait_s += time.perf_counter() - t0
            else:
                await client.feed(op)
            if closes and windows is not None:
                await replied.wait()
                replied.clear()
                # How late the generator ran: its lag from the verdict it
                # waited for to being ready to send again.
                self.late_ms.append((time.perf_counter() - arrived[0]) * 1e3)
            if j % (WINDOW * CHECKPOINT_EVERY) == 0:
                # The round trip runs beside the stream, as for a client that
                # keeps streaming while its checkpoint is acknowledged.  It is
                # timed in the closed loop only, where no backlog queues it.
                checkpoints.append(
                    asyncio.create_task(self._checkpoint(client, timed=windows is not None))
                )
        self.attempted += len(ops)
        self.streamed += len(ops)
        try:
            await asyncio.gather(*checkpoints)
            report = await client.finish()
        except Exception as exc:  # a session that cannot finish fails all its ops
            print(f"session failed: {exc!r}", file=sys.stderr, flush=True)
            self.failed += len(ops)
            return len(ops)
        self.failed += count_failures(report.results, self.refs[index], True)
        return len(ops)

    async def _checkpoint(self, client, timed: bool) -> None:
        t0 = time.perf_counter()
        await client.checkpoint()
        if timed:
            self.checkpoint_ms.append((time.perf_counter() - t0) * 1e3)

    async def unit(self, windows=None) -> int:
        """One pass: one session per lane on the next two stream files, the
        two concurrently; returns the ops streamed."""
        first = 2 * self.passes % len(self.streams)
        self.passes += 1
        counts = await asyncio.gather(
            self.session(first, windows), self.session(first + 1, windows)
        )
        return sum(counts)


async def _units(lanes, seconds, units, windows=None, passes=1, least=3) -> None:
    """Timed units of ``passes`` passes for ``seconds``, and at least
    ``least`` of them.  Appends (raw s, probe ms, ops) per unit, and with
    ``windows`` each window's (raw s, factor).  A unit's probe is the median
    of one before it and one after each pass."""
    deadline = time.perf_counter() + seconds
    probes = [common.probe_ms()]
    while time.perf_counter() < deadline or len(units) < least:
        latencies = [] if windows is not None else None
        raw, ops = 0.0, 0
        for _ in range(passes):
            t0 = time.perf_counter()
            ops += await lanes.unit(latencies)
            raw += time.perf_counter() - t0
            probes.append(common.probe_ms())
        probe = common.median(probes)
        units.append((raw, probe, ops))
        if windows is not None:
            windows.extend((w, common.scale(probe)) for w in latencies)
        probes = probes[-1:]


async def _warm_up(lanes) -> None:
    deadline = time.perf_counter() + WARMUP_S
    while time.perf_counter() < deadline:
        await lanes.unit([])


async def _saturated(lanes, units) -> None:
    await _units(lanes, 0.0, units, passes=len(lanes.streams) // 2, least=1)


async def _plain_phase(lanes, units) -> None:
    await _warm_up(lanes)
    await _saturated(lanes, units)


async def _measured_phases(lanes, seconds, units, windows) -> None:
    await _warm_up(lanes)
    lanes.attempted = lanes.failed = 0
    lanes.checkpoint_ms.clear()
    lanes.late_ms.clear()
    lanes.send_wait_s = 0.0
    t0 = time.perf_counter()
    await _saturated(lanes, units)
    await _units(lanes, seconds - (time.perf_counter() - t0), [], windows)


async def _welcome(address) -> None:
    from repro.service.client import AuditClient

    client = await AuditClient.connect(address, session="setup", k=K, window=WINDOW)
    await client.close()


def spawn_to_welcome() -> float:
    """Seconds from spawning a fresh server to its ``welcome`` frame."""
    t0 = time.perf_counter()
    server = Server(common.CACHE_DIR / f"setup-state-{os.getpid()}")
    try:
        asyncio.run(_welcome(server.address))
        return time.perf_counter() - t0
    finally:
        server.stop()


class _ByteCounter:
    """Counts bytes the load generator writes to its sockets (traced runs)."""

    def __init__(self):
        self.bytes = 0
        self._original = asyncio.StreamWriter.write

    def __enter__(self):
        original = self._original
        counter = self

        def write(writer, data):
            counter.bytes += len(data)
            return original(writer, data)

        asyncio.StreamWriter.write = write
        return self

    def __exit__(self, *exc):
        asyncio.StreamWriter.write = self._original


def run(prepared: dict, seconds: float, trace: bool) -> dict:
    """Run the workload; returns the same raw-sample mapping as a child job."""
    from repro.io.registry import stream_trace

    streams = [list(stream_trace(path)) for path in prepared["files"]]
    refs = prepared["refs"]
    common.freeze_inputs()
    state_dir = common.CACHE_DIR / f"serve-state-{os.getpid()}"
    untraced = []
    if trace:
        # A plain server first, for the tracing-overhead estimate.
        server = Server(state_dir)
        try:
            asyncio.run(_plain_phase(Lanes(server.address, streams, refs), untraced))
        finally:
            server.stop()
    totals_path = common.CACHE_DIR / f"serve-totals-{os.getpid()}.json"
    server = Server(state_dir, totals_path=totals_path if trace else None)
    units, windows = [], []
    try:
        lanes = Lanes(server.address, streams, refs, trace_client=trace)
        pids = [server.pid, *server.worker_pids()]
        cpu0 = [common.cpu_seconds(pid) for pid in pids]
        wall0 = time.perf_counter()
        with _ByteCounter() as socket_bytes:
            asyncio.run(_measured_phases(lanes, seconds, units, windows))
        wall = time.perf_counter() - wall0
        cpu = [common.cpu_seconds(pid) - c0 for pid, c0 in zip(pids, cpu0)]
        rss = sum(common.vm_hwm_mb(pid) for pid in pids)
    finally:
        server.stop()
    out = {
        "units": units,
        "windows": windows,
        "attempted": lanes.attempted,
        "failed": lanes.failed,
        "rss_mb": rss,
        "checkpoint_ms": lanes.checkpoint_ms,
        "late_ms": lanes.late_ms,
    }
    if trace:
        from tracing import layer_metrics

        with open(totals_path) as handle:
            raw = json.load(handle)
        totals_path.unlink()
        probe = common.median([u[1] for u in units])
        factor = common.scale(probe)
        # Server-side totals cover the warm-up too: normalise by all ops fed.
        n_units = lanes.streamed / sum(len(s) for s in streams)
        metrics = layer_metrics(raw, n_units, factor)
        traced = [raw * common.scale(p) for raw, p, _ops in units]
        plain = [raw * common.scale(p) for raw, p, _ops in untraced]
        metrics.update({
            "service.server.cpu_s": cpu[0] * factor / n_units,
            "service.server.busy_frac": cpu[0] / wall,
            "service.pool.worker_cpu_s": sum(cpu[1:]) * factor / n_units,
            "service.pool.worker_busy_frac": sum(cpu[1:]) / wall,
            "service.client.send_wait_s": lanes.send_wait_s * factor / n_units,
            "service.client.bytes_per_op": socket_bytes.bytes / lanes.streamed,
            "trace.overhead_frac": common.median(traced) / common.median(plain) - 1.0,
            "trace.coverage_frac": raw["covered_s"] / cpu[0] if cpu[0] else 0.0,
        })
        out["layers"] = metrics
    return out
