"""The process under test for the in-process workloads.

``python kavbench/child.py --setup WORKLOAD`` imports the program, builds the
workload's engine, prints ``ready`` and exits: the parent times spawn to
ready as set-up.

``python kavbench/child.py --job JOB.json`` runs the timed loop of one
workload and prints one JSON line with the raw samples (and, traced, the
tracer's raw totals).  Each timed unit is
bracketed by host-speed probes; outputs are checked against the oracle
references after each unit, outside its timed region.  With ``"trace": 1``
the loop first runs untraced units (for the tracing-overhead estimate), then
installs the outside-in wrappers of :mod:`tracing` for the rest.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import sys
import time

import common
from inputs import K, signature

STREAM_WINDOW = 64  # the ``repro watch`` default count window


def build_engine(workload: str):
    if workload == "verify_jsonl":
        from repro import Engine

        return Engine()  # the ``repro verify`` defaults: exact tier, serial
    if workload == "verify_rcol":
        from repro import Engine

        return Engine(tier="auto")
    if workload == "stream_rolling":
        from repro.core.windows import WindowPolicy
        from repro.engine import StreamingEngine

        return StreamingEngine(window=WindowPolicy.count(STREAM_WINDOW))
    raise ValueError(f"no in-process engine for workload {workload!r}")


def count_failures(results, ref, expect_witness: bool) -> int:
    """Ops of every register whose verdict, NO reason or witness differs
    from the full-history reference (see :func:`inputs.oracle`)."""
    failed = 0
    for key, (want, ops) in ref.items():
        got = results.get(key)
        if got is None:
            failed += ops
            continue
        verdict, reason, witness = signature(got)
        if not expect_witness and witness is None:
            witness = want[2]  # this entry point decodes no witness
        if (verdict, reason, witness) != want:
            failed += ops
    return failed


class Runner:
    """Runs timed units of one workload, probing host speed around each."""

    def __init__(self, workload: str, files, refs):
        self.engine = build_engine(workload)
        self.files = files
        self.refs = refs
        self.expect_witness = workload != "verify_rcol"
        self.ops = [sum(entry[1] for entry in ref.values()) for ref in refs]
        self.streams = None  # batch workloads verify their single file
        if workload == "stream_rolling":
            from repro.io.registry import stream_trace

            self.streams = [list(stream_trace(path)) for path in files]
        self.last_probe = common.probe_ms()

    def unit(self):
        """One timed unit: returns (raw_s, probe_ms, ops, failed, windows).

        A batch unit is one ``verify_file`` call, between two probes.  A
        stream unit replays every stream file once, one session each, with a
        probe after each session; its probe is the median of those.
        """
        gc.collect()
        probes = [self.last_probe]
        windows = []
        outputs = []
        raw = 0.0
        try:
            if self.streams is None:
                t0 = time.perf_counter()
                outputs.append(self.engine.verify_file(self.files[0], K).results)
                raw = time.perf_counter() - t0
                probes.append(common.probe_ms())
            else:
                for ops in self.streams:
                    session = self.engine.open_session(K)
                    t0 = time.perf_counter()
                    for op in ops:
                        t1 = time.perf_counter()
                        if session.feed(op) is not None:
                            windows.append(time.perf_counter() - t1)
                    outputs.append(session.finish().results)
                    raw += time.perf_counter() - t0
                    probes.append(common.probe_ms())
        except Exception as exc:  # a failing call counts all its ops as failed
            print(f"unit failed: {exc!r}", file=sys.stderr)
            self.last_probe = common.probe_ms()
            return float("nan"), self.last_probe, sum(self.ops), sum(self.ops), []
        self.last_probe = probes[-1]
        failed = 0
        for results, ref in zip(outputs, self.refs):
            failed += count_failures(results, ref, self.expect_witness)
        return raw, common.median(probes), sum(self.ops), failed, windows


def run_job(job: dict) -> dict:
    with open(job["manifest"], "rb") as handle:
        prepared = pickle.load(handle)
    runner = Runner(job["workload"], prepared["files"], prepared["refs"])
    common.freeze_inputs()
    warm_until = time.perf_counter() + job["warmup_s"]
    runner.unit()
    while time.perf_counter() < warm_until:
        runner.unit()
    samples, windows = [], []
    attempted = failed = 0
    untraced = []
    tracer = None
    deadline = time.perf_counter() + job["seconds"]
    if job["trace"]:
        from tracing import Tracer, install

        split = time.perf_counter() + 0.3 * job["seconds"]
        while time.perf_counter() < split or len(untraced) < 3:
            raw, probe, _ops, _failed, _w = runner.unit()
            untraced.append(raw * common.scale(probe))
        tracer = Tracer()
        install(tracer)
    while time.perf_counter() < deadline or len(samples) < 5:
        raw, probe, ops, bad, unit_windows = runner.unit()
        samples.append((raw, probe, ops))
        # A stream unit's probe is the median of nine, one per session:
        # steady enough to scale the unit's windows by.
        windows.extend((w, common.scale(probe)) for w in unit_windows)
        attempted += ops
        failed += bad
    out = {
        "units": samples,
        "windows": windows,
        "attempted": attempted,
        "failed": failed,
        "rss_mb": common.vm_hwm_mb(os.getpid()),
    }
    if tracer is not None:
        from tracing import totals

        out["untraced"] = untraced
        out["totals"] = totals(tracer)
    return out


def main(argv) -> int:
    if argv[:1] == ["--setup"]:
        build_engine(argv[1])
        print("ready", flush=True)
        return 0
    if argv[:1] == ["--job"]:
        with open(argv[1]) as handle:
            job = json.load(handle)
        print(json.dumps(run_job(job)), flush=True)
        return 0
    print("usage: child.py --setup WORKLOAD | --job JOB.json", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
