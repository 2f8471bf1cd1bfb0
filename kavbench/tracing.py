"""Outside-in tracing: wrap the program's public functions from the benchmark.

Nothing under ``src/`` knows it is traced.  :func:`install` replaces each
target function (module functions and class methods) with a wrapper that
records a span per call, so each layer's *self time* is its spans' duration
minus the time covered by nested spans of other calls.  Module-level
bindings made by ``from x import f`` are found and patched too, by identity.

Spans live in per-thread stacks (the audit server runs pool I/O on helper
threads) and are merged when the report is read.  Only synchronous callables
are wrapped: an asyncio task can interleave with another between awaits, so
a span stack over coroutines would attribute time to the wrong layer.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from collections import defaultdict

#: Every per-layer metric the traced run reports, with its unit.  Times are
#: self seconds per timed unit (one verify_file call, or one replay of
#: every stream file) at reference host speed; counts are per timed unit
#: too.  The batch workloads report the first set, the stream workloads
#: (``run.STREAM_WORKLOADS``) both.
BATCH_LAYER_METRICS = {
    "io.decode_s": "s",
    "io.ops_decoded": "count",
    "io.rcol_map_s": "s",
    "core.history_build_s": "s",
    "core.preprocess_s": "s",
    "core.columnar_build_s": "s",
    "core.anomaly_scan_s": "s",
    "core.kernel_s": "s",
    "core.witness_decode_s": "s",
    "algorithms.check_s": "s",
    "algorithms.calls": "count",
    "engine.self_s": "s",
    "engine.tiering.self_s": "s",
    "engine.tiering.screened": "count",
    "engine.tiering.escalated": "count",
    "engine.tiering.escalation_yield": "ratio",
    "host.probe_ms": "ms",
    "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
}
STREAM_LAYER_METRICS = {
    "core.windows_s": "s",
    "algorithms.online.feed_s": "s",
    "algorithms.online.check_now_s": "s",
    "algorithms.online.check_now_calls": "count",
    "algorithms.online.ops_rechecked": "count",
    "algorithms.online.recheck_yield": "ratio",
    "engine.streaming.self_s": "s",
    "engine.codec.encode_s": "s",
    "engine.codec.bytes_per_op": "B/op",
    "service.protocol.codec_s": "s",
    "service.server.cpu_s": "s",
    "service.server.busy_frac": "ratio",
    "service.pool.worker_cpu_s": "s",
    "service.pool.worker_busy_frac": "ratio",
    "service.client.send_wait_s": "s",
    "service.client.bytes_per_op": "B/op",
    "state.checkpoint_p50_ms": "ms",
    "state.checkpoint_bytes": "B",
    "loadgen.late_p99_ms": "ms",
}
LAYER_METRICS = {**BATCH_LAYER_METRICS, **STREAM_LAYER_METRICS}

#: (module, attribute path, layer) for every wrapped public callable.
#: ``stream_trace`` is a generator: its spans time each decoded record.
TARGETS = (
    ("repro.io.registry", "stream_trace", "io.decode"),
    ("repro.io.formats", "JsonlDecoder.feed", "io.decode"),
    ("repro.io.formats", "JsonlDecoder.flush", "io.decode"),
    ("repro.io.rcol", "RcolFile.__init__", "io.rcol_map"),
    ("repro.io.rcol", "RcolFile.register_sizes", "io.rcol_map"),
    ("repro.io.rcol", "RcolFile.load_columnar", "io.rcol_map"),
    ("repro.core.builder", "TraceBuilder.__init__", "core.history_build"),
    ("repro.core.builder", "TraceBuilder.extend", "core.history_build"),
    ("repro.core.builder", "TraceBuilder.append", "core.history_build"),
    ("repro.core.builder", "TraceBuilder.history", "core.history_build"),
    ("repro.core.builder", "TraceBuilder.build", "core.history_build"),
    ("repro.core.history", "History.__init__", "core.history_build"),
    ("repro.core.preprocess", "normalize", "core.preprocess"),
    ("repro.core.preprocess", "perturb_equal_timestamps", "core.preprocess"),
    ("repro.core.preprocess", "shorten_writes", "core.preprocess"),
    ("repro.core.preprocess", "find_anomalies", "core.preprocess"),
    ("repro.core.preprocess", "has_anomalies", "core.preprocess"),
    ("repro.core.columnar", "columnar_of", "core.columnar_build"),
    ("repro.core.columnar", "ColumnarHistory.from_history", "core.columnar_build"),
    ("repro.core.columnar", "ColumnarHistory.from_rows", "core.columnar_build"),
    ("repro.core.columnar", "ColumnarHistory.from_columns", "core.columnar_build"),
    ("repro.core.vector", "columnar_from_numpy", "core.columnar_build"),
    ("repro.core.columnar", "ColumnarHistory.has_anomalies", "core.anomaly_scan"),
    ("repro.core.vector", "verify_columnar", "core.kernel"),
    ("repro.core.vector", "has_anomalies", "core.kernel"),
    ("repro.core.vector", "cluster_table", "core.kernel"),
    ("repro.core.vector", "chunk_table", "core.kernel"),
    ("repro.core.vector", "gk_violation_np", "core.kernel"),
    ("repro.core.vector", "fzf_verdict_np", "core.kernel"),
    ("repro.core.vector", "gk_result_np", "core.kernel"),
    ("repro.core.vector", "fzf_result_np", "core.kernel"),
    ("repro.core.vector", "lbt_setup", "core.kernel"),
    ("repro.core.columnar", "ColumnarHistory.operations", "core.witness_decode"),
    ("repro.core.columnar", "ColumnarHistory.value_of", "core.witness_decode"),
    ("repro.core.columnar", "ColumnarHistory.to_history", "core.witness_decode"),
    ("repro.core.windows", "WindowAssembler.feed", "core.windows"),
    ("repro.core.windows", "WindowAssembler.flush", "core.windows"),
    ("repro.algorithms.gk", "verify_1atomic", "algorithms.check"),
    ("repro.algorithms.fzf", "verify_2atomic_fzf", "algorithms.check"),
    ("repro.algorithms.lbt", "verify_2atomic", "algorithms.check"),
    ("repro.engine.engine", "Engine.verify_file", "engine"),
    ("repro.engine.engine", "Engine.verify_trace", "engine"),
    ("repro.engine.engine", "Engine.plan", "engine"),
    ("repro.engine.engine", "run_shard", "engine"),
    ("repro.engine.tiering", "TierPolicy.verify_with_decision", "engine.tiering"),
    ("repro.engine.tiering", "TierPolicy.verify_columnar_with_decision", "engine.tiering"),
    ("repro.engine.streaming", "StreamingEngine.open_session", "engine.streaming"),
    ("repro.engine.streaming", "StreamSession.feed", "engine.streaming"),
    ("repro.engine.streaming", "StreamSession.finish", "engine.streaming"),
    ("repro.engine.codec", "encode_feed_batches", "engine.codec"),
    ("repro.engine.codec", "decode_feed_batches", "engine.codec"),
    ("repro.engine.codec", "encode_shard_items", "engine.codec"),
    ("repro.engine.codec", "decode_shard_items", "engine.codec"),
    ("repro.service.protocol", "encode_frame", "service.protocol.codec"),
    ("repro.service.protocol", "decode_frame", "service.protocol.codec"),
    ("repro.service.checkpoint", "CheckpointStore.save", "state.checkpoint_save"),
)

#: Layers whose calls are counted, under the metric named here.
CALL_COUNTS = {"algorithms.check": "algorithms.calls"}


class _Frame:
    __slots__ = ("layer", "t0", "child")

    def __init__(self, layer, t0):
        self.layer = layer
        self.t0 = t0
        self.child = 0.0


class _ThreadState:
    def __init__(self):
        self.stack = []
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.top_s = 0.0


class Tracer:
    """Per-layer self time, call counts and covered wall time."""

    def __init__(self):
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        #: Checker id -> resolved ops at its last authoritative check.
        self._last_check = {}

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def enter(self, layer: str) -> _ThreadState:
        state = self._state()
        state.stack.append(_Frame(layer, time.perf_counter()))
        return state

    @staticmethod
    def exit(state: _ThreadState) -> float:
        frame = state.stack.pop()
        elapsed = time.perf_counter() - frame.t0
        state.self_s[frame.layer] += elapsed - frame.child
        if state.stack:
            state.stack[-1].child += elapsed
        else:
            state.top_s += elapsed
        return elapsed

    def self_seconds(self) -> dict:
        merged = defaultdict(float)
        for state in self._states:
            for layer, value in state.self_s.items():
                merged[layer] += value
        return dict(merged)

    def counts(self) -> dict:
        merged = defaultdict(float)
        for state in self._states:
            for name, value in state.counts.items():
                merged[name] += value
        return dict(merged)

    def covered_seconds(self) -> float:
        """Wall time inside outermost spans, summed over threads."""
        return sum(state.top_s for state in self._states)


def _resolve(module_name: str, path: str):
    module = importlib.import_module(module_name)
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return module, owner, parts[-1]


def _replace_everywhere(original, wrapper) -> None:
    """Rebind every ``repro`` module global that is ``original``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = wrapper


def _wrap_call(tracer: Tracer, fn, layer: str, counter):
    enter, exit_ = tracer.enter, tracer.exit

    def wrapper(*args, **kwargs):
        state = enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            exit_(state)
            if counter is not None:
                state.counts[counter] += 1

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", "wrapper")
    return wrapper


def _wrap_generator(tracer: Tracer, fn, layer: str):
    enter, exit_ = tracer.enter, tracer.exit

    def wrapper(*args, **kwargs):
        it = iter(fn(*args, **kwargs))
        while True:
            state = enter(layer)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                exit_(state)
            state.counts["io.ops_decoded"] += 1
            yield item

    wrapper.__wrapped__ = fn
    return wrapper


def _special(tracer: Tracer, path: str, fn, layer: str):
    """Wrappers that also count work at the layer boundary."""
    enter, exit_ = tracer.enter, tracer.exit

    if path in ("JsonlDecoder.feed", "JsonlDecoder.flush"):
        def wrapper(self, *args, **kwargs):
            state = enter(layer)
            try:
                items = fn(self, *args, **kwargs)
            finally:
                exit_(state)
            state.counts["io.ops_decoded"] += sum(1 for item in items if not isinstance(item, dict))
            return items
        return wrapper

    if path.startswith("TierPolicy."):
        def wrapper(self, *args, **kwargs):
            state = enter(layer)
            try:
                result, decision = fn(self, *args, **kwargs)
            finally:
                exit_(state)
            if decision.escalated:
                state.counts["engine.tiering.escalated"] += 1
                state.counts["tiering.escalated_no"] += 0 if result.is_k_atomic else 1
            if decision.tier != "exact":
                state.counts["engine.tiering.screened"] += 1
            return result, decision
        return wrapper

    if path == "encode_feed_batches":
        def wrapper(batches, *args, **kwargs):
            state = enter(layer)
            try:
                blob = fn(batches, *args, **kwargs)
            finally:
                exit_(state)
            state.counts["codec.bytes"] += len(blob)
            state.counts["codec.ops"] += sum(len(ops) for _key, ops in batches)
            return blob
        return wrapper

    if path == "CheckpointStore.save":
        def wrapper(self, session_id, payload, *args, **kwargs):
            state = enter(layer)
            try:
                path_ = fn(self, session_id, payload, *args, **kwargs)
            finally:
                exit_(state)
            state.counts["state.saves"] += 1
            state.counts["state.bytes"] += len(self.raw(session_id))
            return path_
        return wrapper
    return None


def _wrap_checkers(tracer: Tracer) -> list:
    """Wrap ``feed``/``check_now`` on every concrete checker class."""
    from repro.algorithms.online import Checker

    enter, exit_ = tracer.enter, tracer.exit
    last = tracer._last_check
    undo = []

    def resolved(checker) -> int:
        return checker.ops_seen - checker.pending_reads

    def wrap_feed(fn):
        def feed(self, op):
            before = self.checks_run
            state = enter("algorithms.online.feed")
            try:
                return fn(self, op)
            finally:
                exit_(state)
                if self.checks_run != before:
                    last[id(self)] = resolved(self)
        return feed

    def wrap_check_now(fn):
        def check_now(self):
            before = self.checks_run
            state = enter("algorithms.online.check_now")
            try:
                return fn(self)
            finally:
                exit_(state)
                state.counts["algorithms.online.check_now_calls"] += 1
                if self.checks_run != before:
                    now = resolved(self)
                    state.counts["algorithms.online.ops_rechecked"] += now
                    state.counts["online.new_ops"] += now - last.get(id(self), 0)
                    last[id(self)] = now
        return check_now

    pending = [Checker]
    seen = set()
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        pending.extend(cls.__subclasses__())
        for name, make in (("feed", wrap_feed), ("check_now", wrap_check_now)):
            original = cls.__dict__.get(name)
            if original is None or getattr(original, "__isabstractmethod__", False):
                continue
            setattr(cls, name, make(original))
            undo.append((cls, name, original))
    return undo


def install(tracer: Tracer):
    """Wrap every target; returns a callable that restores the originals."""
    undo = []
    for module_name, path, layer in TARGETS:
        module, owner, attr = _resolve(module_name, path)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        binder = type(original) if isinstance(original, (classmethod, staticmethod)) else None
        fn = original.__func__ if binder is not None else original
        wrapper = _special(tracer, path, fn, layer)
        if wrapper is None:
            if path == "stream_trace":
                wrapper = _wrap_generator(tracer, fn, layer)
            else:
                wrapper = _wrap_call(tracer, fn, layer, CALL_COUNTS.get(layer))
        if binder is not None:
            wrapper = binder(wrapper)
        setattr(owner, attr, wrapper)
        if owner is module:
            _replace_everywhere(original, wrapper)
        undo.append((owner, attr, original, wrapper, owner is module))
    checker_undo = _wrap_checkers(tracer)

    def uninstall():
        for owner, attr, original, wrapper, is_module in reversed(undo):
            setattr(owner, attr, original)
            if is_module:
                _replace_everywhere(wrapper, original)
        for cls, name, original in checker_undo:
            setattr(cls, name, original)

    return uninstall


def totals(tracer: Tracer) -> dict:
    """The tracer's raw totals, as plain data (JSON-serialisable)."""
    return {
        "self_s": tracer.self_seconds(),
        "counts": tracer.counts(),
        "covered_s": tracer.covered_seconds(),
    }


def layer_metrics(raw: dict, units: float, factor: float) -> dict:
    """Per-unit layer metrics from :func:`totals` output.

    ``factor`` scales raw seconds to reference host speed.
    """
    self_s = raw["self_s"]
    counts = raw["counts"]
    per = 1.0 / max(units, 1)

    def secs(layer):
        return self_s.get(layer, 0.0) * factor * per

    rechecked = counts.get("algorithms.online.ops_rechecked", 0.0)
    escalated = counts.get("engine.tiering.escalated", 0.0)
    codec_ops = counts.get("codec.ops", 0.0)
    saves = counts.get("state.saves", 0.0)
    return {
        "io.decode_s": secs("io.decode"),
        "io.ops_decoded": counts.get("io.ops_decoded", 0.0) * per,
        "io.rcol_map_s": secs("io.rcol_map"),
        "core.history_build_s": secs("core.history_build"),
        "core.preprocess_s": secs("core.preprocess"),
        "core.columnar_build_s": secs("core.columnar_build"),
        "core.anomaly_scan_s": secs("core.anomaly_scan"),
        "core.kernel_s": secs("core.kernel"),
        "core.witness_decode_s": secs("core.witness_decode"),
        "core.windows_s": secs("core.windows"),
        "algorithms.check_s": secs("algorithms.check"),
        "algorithms.calls": counts.get("algorithms.calls", 0.0) * per,
        "algorithms.online.feed_s": secs("algorithms.online.feed"),
        "algorithms.online.check_now_s": secs("algorithms.online.check_now"),
        "algorithms.online.check_now_calls": counts.get("algorithms.online.check_now_calls", 0.0) * per,
        "algorithms.online.ops_rechecked": rechecked * per,
        "algorithms.online.recheck_yield": (
            counts.get("online.new_ops", 0.0) / rechecked if rechecked else 0.0
        ),
        "engine.self_s": secs("engine"),
        "engine.tiering.self_s": secs("engine.tiering"),
        "engine.tiering.screened": counts.get("engine.tiering.screened", 0.0) * per,
        "engine.tiering.escalated": escalated * per,
        "engine.tiering.escalation_yield": (
            counts.get("tiering.escalated_no", 0.0) / escalated if escalated else 0.0
        ),
        "engine.streaming.self_s": secs("engine.streaming"),
        "engine.codec.encode_s": secs("engine.codec"),
        "engine.codec.bytes_per_op": (
            counts.get("codec.bytes", 0.0) / codec_ops if codec_ops else 0.0
        ),
        "service.protocol.codec_s": secs("service.protocol.codec"),
        "state.checkpoint_bytes": counts.get("state.bytes", 0.0) / saves if saves else 0.0,
    }
