"""Shared helpers: paths, the host-speed probe, statistics and /proc readers.

Every timing the benchmark reports is scaled to *reference host speed*: each
timed unit is bracketed by a fixed probe (pure-Python integer work plus numpy
work on preallocated arrays, touching nothing of ``repro`` and allocating no
GC-tracked objects), and the unit's raw time is multiplied by
``PROBE_REF_MS / probe_ms``.  On a shared host whose speed drifts by tens of
percent between runs, the ratio of program time to probe time stays put
while raw times move.
"""

from __future__ import annotations

import gc
import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np

#: Root of the checkout the benchmark runs in (the parent of this directory).
ROOT = Path(__file__).resolve().parent.parent
#: The package under test.
SRC = ROOT / "src"
#: Generated inputs, oracle references and scratch state live here.
CACHE_DIR = ROOT / ".kavbench_cache"

#: Probe time (ms) on the reference host: 2-CPU shared VM, Python 3.11.7,
#: numpy 2.4.6.  A scaled timing reads what the unit would have taken at
#: that speed.
PROBE_REF_MS = 2.7

_PROBE_N = 1 << 15
_PROBE_SRC = np.random.default_rng(12345).random(_PROBE_N)
_PROBE_DST = np.empty(_PROBE_N)


def _probe_once() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(12000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    for _ in range(4):
        np.multiply(_PROBE_SRC, 1.0001, out=_PROBE_DST)
        _PROBE_DST.sort()
    return (time.perf_counter() - t0) * 1e3


def probe_ms(repeats: int = 5) -> float:
    """Time one fixed unit of interpreter plus numpy work, in ms: the median
    of back-to-back repetitions, so one preempted repetition does not skew
    it."""
    return statistics.median(_probe_once() for _ in range(repeats))


def scale(probe: float) -> float:
    """Factor turning a raw wall time measured at probe time ``probe`` into
    a reference-speed time."""
    return PROBE_REF_MS / probe


def freeze_inputs() -> None:
    """Move every object alive now out of the garbage collector's passes.

    Called once the benchmark has loaded its inputs, which it holds in
    memory for the whole run, as a monitor fed from a live stream would
    not.  Left in, their tens of thousands of operations make each full
    collection a pause of several ms, landing on the same window of every
    replay and setting the tail.
    """
    gc.collect()
    gc.freeze()


def percentile(samples, q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation; 0.0 when empty."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(samples) -> float:
    return statistics.median(samples) if samples else 0.0


def vm_hwm_mb(pid) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def cpu_seconds(pid) -> float:
    """User plus system CPU time a live process has used, in seconds."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def child_pids(pid) -> list:
    """Direct children of a live process."""
    found = []
    for task in Path(f"/proc/{pid}/task").iterdir():
        children = (task / "children").read_text().split()
        found.extend(int(child) for child in children)
    return found


def reap(pid: int, timeout: float = 10.0) -> None:
    """Kill a process this one did not fork, and wait until it is gone."""
    try:
        os.kill(pid, 9)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + timeout
    while Path(f"/proc/{pid}").exists() and time.monotonic() < deadline:
        time.sleep(0.05)


def host_info() -> dict:
    """What a reader needs to tell a slow host from a slow program."""
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def child_env() -> dict:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDEVMODE", None)
    return env
