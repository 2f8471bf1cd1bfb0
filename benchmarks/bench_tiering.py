"""Adaptive tiered verification: speedup, escalation rates, and parity.

The tier ladder (:mod:`repro.engine.tiering`) answers clean registers with
the cheapest sound rung (the GK screen at k'=1, exploiting k-monotonicity)
and escalates to the exact checker where the anomaly gate fires or a screen
refuses.  This benchmark quantifies both sides of that bargain on a clean
and a stale workload arm, batch and streaming:

* **batch section** — exact-only vs. ``Engine(tier="auto")`` wall-clock,
  screen/escalation rates from the report's
  :class:`~repro.engine.tiering.TierStats`, and a verdict+reason parity
  digest (identical across the exact and the tiered run or the ladder
  lied);
* **streaming section** — a tiered :class:`StreamingEngine` pass per arm,
  counting windows that rode the O(1) peek instead of the authoritative
  check (``windows_bypassed_exact`` — the "no silent caps" counter) and
  checking final verdicts against the untiered stream.

Run with::

    PYTHONPATH=src python benchmarks/bench_tiering.py [--registers 12]
        [--ops 400] [--window 32] [--json PATH] [--check]

``--check`` fails when any parity digest diverges from the exact run's,
when the clean arm's auto-tier escalation rate exceeds
``--check-max-clean-escalation``, when a stale register that the exact
oracle fails was never escalated, when the clean-arm tiered batch run is
not under ``--check-max-clean-frac`` of the exact wall-clock, or when the
clean streaming arm never bypassed a register-window.  CI runs a reduced
size.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from pathlib import Path

if __name__ == "__main__" and __package__ is None:
    # Allow running as a plain script without an installed package.
    _src = Path(__file__).resolve().parents[1] / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from repro.core.windows import WindowPolicy
from repro.engine import Engine, StreamingEngine
from repro.workloads.synthetic import synthetic_trace

SEED = 0xC0FFEE
K = 2
TIERS = ("auto",)


def make_arms(registers, ops_per_register):
    """The two workload arms: screening heaven and escalation purgatory."""
    return {
        "clean": synthetic_trace(
            random.Random(SEED), registers, ops_per_register,
            staleness_probability=0.0,
        ),
        "stale": synthetic_trace(
            random.Random(SEED + 1), registers, ops_per_register,
            staleness_probability=0.15, max_staleness=2,
        ),
    }


def verdict_digest(report):
    """Order-independent digest of every (key, verdict, reason) triple.

    NOs only ever come from the exact rung, so reasons must match the
    exact-only run character for character; screened YES reasons name the
    rung that answered and are digested as plain booleans instead.
    """
    parts = []
    for key in sorted(report.results, key=repr):
        result = report.results[key]
        reason = result.reason if not result else ""
        parts.append(f"{key!r}={bool(result)}:{reason}")
    return hashlib.sha256(";".join(parts).encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# Batch section
# ----------------------------------------------------------------------
def bench_batch(trace, out):
    t0 = time.perf_counter()
    exact = Engine().verify_trace(trace, K)
    exact_s = time.perf_counter() - t0
    record = {
        "exact_s": round(exact_s, 4),
        "digest": verdict_digest(exact),
        "tiers": {},
    }
    print(f"    exact    {exact_s:7.4f}s  digest {record['digest']}", file=out)
    for tier in TIERS:
        t0 = time.perf_counter()
        tiered = Engine(tier=tier).verify_trace(trace, K)
        elapsed = time.perf_counter() - t0
        stats = dict(tiered.tier_stats)
        rec = {
            "elapsed_s": round(elapsed, 4),
            "speedup": round(exact_s / elapsed, 2) if elapsed else None,
            "digest": verdict_digest(tiered),
            "screen_rate": stats.get("screen_rate", 0.0),
            "escalation_rate": stats.get("escalation_rate", 0.0),
        }
        record["tiers"][tier] = rec
        print(
            f"    {tier:8s} {elapsed:7.4f}s  {rec['speedup']:5.2f}x  "
            f"screen {rec['screen_rate']:.2f}  escalate "
            f"{rec['escalation_rate']:.2f}  digest {rec['digest']}",
            file=out,
        )
    # Escalation soundness observable: every exact-NO register escalated.
    auto = Engine(tier="auto").verify_trace(trace, K)
    record["unescalated_nos"] = sorted(
        repr(key)
        for key, result in auto.results.items()
        if not result and not auto.tier_decisions[key].escalated
    )
    return record


# ----------------------------------------------------------------------
# Streaming section
# ----------------------------------------------------------------------
def bench_stream(trace, window, out):
    ops = sorted(
        (op for key in trace.keys() for op in trace[key].operations),
        key=lambda op: (op.finish, op.op_id),
    )
    policy = WindowPolicy.count(window)
    exact = StreamingEngine(window=policy).verify_stream(ops, K)
    record = {"digest": verdict_digest(exact), "tiers": {}}
    for tier in TIERS:
        report = StreamingEngine(window=policy, tier=tier).verify_stream(ops, K)
        rec = {
            "digest": verdict_digest(report),
            "windows_bypassed_exact": report.windows_bypassed_exact,
            "register_windows_bypassed": report.register_windows_bypassed,
            "escalated_checks": report.escalated_checks,
        }
        record["tiers"][tier] = rec
        print(
            f"    {tier:8s} bypassed {rec['windows_bypassed_exact']:3d} windows "
            f"({rec['register_windows_bypassed']} register-windows), "
            f"{rec['escalated_checks']} escalations  digest {rec['digest']}",
            file=out,
        )
    return record


def run(registers, ops_per_register, window, json_path, check,
        check_max_clean_frac, check_max_clean_escalation, out=sys.stdout):
    arms = make_arms(registers, ops_per_register)
    print(
        f"tiering benchmark: {registers} registers x {ops_per_register} ops, "
        f"k={K}, window={window}",
        file=out,
    )
    record = {
        "config": {
            "registers": registers, "ops_per_register": ops_per_register,
            "k": K, "window": window,
        },
        "arms": {},
    }
    for arm, trace in arms.items():
        print(f"  {arm} arm (batch):", file=out)
        batch = bench_batch(trace, out)
        print(f"  {arm} arm (streaming):", file=out)
        stream = bench_stream(trace, window, out)
        record["arms"][arm] = {"batch": batch, "stream": stream}

    if json_path:
        Path(json_path).parent.mkdir(parents=True, exist_ok=True)
        Path(json_path).write_text(json.dumps(record, indent=2) + "\n")
        print(f"\nrecorded results in {json_path}", file=out)

    if check:
        failures = []
        for arm, data in record["arms"].items():
            for section in ("batch", "stream"):
                expected = data[section]["digest"]
                for tier, rec in data[section]["tiers"].items():
                    if rec["digest"] != expected:
                        failures.append(
                            f"{arm}/{section}/tier={tier}: verdict digest "
                            f"{rec['digest']} != exact {expected} — the "
                            "ladder changed a verdict or a NO reason"
                        )
        clean_batch = record["arms"]["clean"]["batch"]
        auto_clean = clean_batch["tiers"]["auto"]
        if auto_clean["escalation_rate"] > check_max_clean_escalation:
            failures.append(
                f"clean-arm auto escalation rate "
                f"{auto_clean['escalation_rate']:.2f} exceeds "
                f"{check_max_clean_escalation:.2f} — the ladder is "
                "escalating traces with nothing to escalate for"
            )
        frac = auto_clean["elapsed_s"] / clean_batch["exact_s"]
        if frac > check_max_clean_frac:
            failures.append(
                f"clean-arm tiered batch run is {frac:.2f}x the exact "
                f"wall-clock (ceiling {check_max_clean_frac:.2f}) — the "
                "screen is not earning its keep"
            )
        for arm in ("clean", "stale"):
            unescalated = record["arms"][arm]["batch"]["unescalated_nos"]
            if unescalated:
                failures.append(
                    f"{arm} arm: exact-NO registers never escalated: "
                    + ", ".join(unescalated)
                )
        # Whole-window bypasses need every register of a window to peek at
        # once, which dense multi-register windows rarely line up; the
        # per-register counter is the inertness gate.
        clean_stream_auto = record["arms"]["clean"]["stream"]["tiers"]["auto"]
        if clean_stream_auto["register_windows_bypassed"] == 0:
            failures.append(
                "clean streaming arm never bypassed a register-window — "
                "tiering is inert in the stream path"
            )
        print("", file=out)
        if failures:
            for failure in failures:
                print(f"CHECK FAILED: {failure}", file=out)
            return record, 1
        print(
            f"CHECK OK: all verdict digests match exact, clean auto run at "
            f"{frac:.2f}x exact wall-clock with escalation rate "
            f"{auto_clean['escalation_rate']:.2f}, "
            f"{clean_stream_auto['register_windows_bypassed']} "
            "clean register-windows bypassed",
            file=out,
        )
    return record, 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--registers", type=int, default=12)
    parser.add_argument("--ops", type=int, default=400,
                        help="operations per register")
    parser.add_argument("--window", type=int, default=32,
                        help="streaming window size (count policy)")
    parser.add_argument("--json", default=None,
                        help="record results to this JSON path")
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) on digest divergence, clean-arm over-escalation, "
        "an unescalated exact-NO register, a clean tiered run slower than "
        "the ceiling, or an inert streaming tier",
    )
    parser.add_argument(
        "--check-max-clean-frac",
        type=float,
        default=0.9,
        dest="check_max_clean_frac",
        help="ceiling on tiered/exact wall-clock fraction for the clean "
        "batch arm (default 0.9)",
    )
    parser.add_argument(
        "--check-max-clean-escalation",
        type=float,
        default=0.25,
        dest="check_max_clean_escalation",
        help="ceiling on the clean arm's auto-tier escalation rate "
        "(default 0.25)",
    )
    args = parser.parse_args(argv)
    _, status = run(
        registers=args.registers,
        ops_per_register=args.ops,
        window=args.window,
        json_path=args.json,
        check=args.check,
        check_max_clean_frac=args.check_max_clean_frac,
        check_max_clean_escalation=args.check_max_clean_escalation,
    )
    return status


if __name__ == "__main__":
    sys.exit(main())
