"""The experiment runner: expand a spec, execute trials, collect results.

Workload generation and measurement are separated so a runtime experiment
can time several engine configurations over the *identical* workload (the
trial seed deliberately ignores the engine axis), and so measured time never
includes workload generation.

Two workload kinds:

* ``synthetic`` — :func:`repro.workloads.synthetic.synthetic_trace`:
  per-register practical histories with controlled write ratio, injected
  staleness and register-size skew.  Fully deterministic from the seed.
* ``simulation`` — a :class:`repro.simulation.SloppyQuorumStore` run: the
  Dynamo-style store the paper audits, with quorum sizes, replica latency
  and YCSB-style key-popularity distributions as knobs.

Two measurement kinds:

* ``spectrum`` — the per-k staleness spectrum
  (:func:`repro.analysis.spectrum.atomicity_spectrum`) plus staleness
  statistics: how many registers are 1-atomic / 2-atomic / worse, how stale
  the reads were;
* ``runtime`` — wall-clock verification time per engine configuration
  (batch / streaming, algorithm choice, kernel tier, executors).

A third measurement kind quantifies the paper's global-clock assumption:

* ``skew`` — re-stamp the identical workload through a per-client
  :class:`~repro.simulation.clock.SkewedClocks` model
  (``clock_skew_ms`` / ``clock_drift_ppm`` knobs, usually swept as grid
  axes) and report the *verdict flip rate*: the fraction of registers whose
  k-atomicity verdict differs between the skewed trace and its perfectly
  clocked twin, per k in ``k_values``.

A fourth evaluates the adaptive tier ladder:

* ``tiering`` — run the identical trace through the exact engine and the
  tiered one (the ``tier`` knob names the ladder, ``auto``), and report the
  speedup, escalation/screen rates and a strict verdict+reason parity bit
  per k in ``k_values`` — the evidence that the screen rung never changes
  an answer.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..analysis.metrics import staleness_stats
from ..analysis.spectrum import StalenessBucket, atomicity_spectrum
from ..core.history import MultiHistory
from ..core.windows import WindowPolicy
from ..engine import Engine, StreamingEngine
from ..simulation import (
    ExponentialLatency,
    QuorumConfig,
    SloppyQuorumStore,
    StoreConfig,
)
from ..workloads import (
    HotspotKeys,
    SingleKey,
    UniformKeys,
    WorkloadSpec,
    ZipfianKeys,
)
from ..workloads.synthetic import synthetic_trace
from .report import ExperimentReport, TrialResult
from .spec import ExperimentError, ExperimentSpec, TrialSpec

__all__ = ["run_experiment", "run_trial", "build_workload"]

_SYNTHETIC_KNOBS = {
    "registers", "ops_per_register", "num_clients", "write_ratio",
    "staleness_probability", "max_staleness", "size_skew",
}
_SIMULATION_KNOBS = {
    "clients", "ops_per_client", "write_ratio", "keys", "key_distribution",
    "zipf_theta", "hot_fraction", "hot_traffic", "replicas", "read_quorum",
    "write_quorum", "read_repair", "mean_latency_ms", "think_time_ms",
    "drop_probability",
}
#: Measurement knobs of the ``skew`` kind; they ride the workload table (so
#: grids can sweep them) but do not affect workload generation itself.
_SKEW_KNOBS = {"clock_skew_ms", "clock_drift_ppm"}
#: Measurement knobs of the ``tiering`` kind, same arrangement: ``tier``
#: picks the policy under test without changing the generated workload.
_TIERING_KNOBS = {"tier"}


def _trial_rng(seed: str) -> random.Random:
    """The trial's deterministic random stream (string seeding is stable)."""
    return random.Random(seed)


def build_workload(config: Mapping[str, object], seed: str) -> MultiHistory:
    """Generate the trial's multi-register trace from its workload config."""
    kind = config.get("kind", "synthetic")
    knobs = {
        k: v
        for k, v in config.items()
        if k != "kind" and k not in _SKEW_KNOBS and k not in _TIERING_KNOBS
    }
    if kind == "synthetic":
        unknown = set(knobs) - _SYNTHETIC_KNOBS
        if unknown:
            raise ExperimentError(
                f"unknown synthetic workload knob(s) {sorted(unknown)}; "
                f"expected {sorted(_SYNTHETIC_KNOBS)}"
            )
        return synthetic_trace(
            _trial_rng(seed),
            num_registers=int(knobs.get("registers", 16)),
            ops_per_register=int(knobs.get("ops_per_register", 200)),
            num_clients=int(knobs.get("num_clients", 8)),
            write_ratio=float(knobs.get("write_ratio", 0.2)),
            staleness_probability=float(knobs.get("staleness_probability", 0.05)),
            max_staleness=int(knobs.get("max_staleness", 1)),
            size_skew=float(knobs.get("size_skew", 0.0)),
        )
    if kind == "simulation":
        unknown = set(knobs) - _SIMULATION_KNOBS
        if unknown:
            raise ExperimentError(
                f"unknown simulation workload knob(s) {sorted(unknown)}; "
                f"expected {sorted(_SIMULATION_KNOBS)}"
            )
        num_keys = int(knobs.get("keys", 4))
        distribution = str(knobs.get("key_distribution", "zipfian"))
        if distribution == "zipfian":
            selector = ZipfianKeys(num_keys, theta=float(knobs.get("zipf_theta", 0.99)))
        elif distribution == "uniform":
            selector = UniformKeys(num_keys)
        elif distribution == "hotspot":
            selector = HotspotKeys(
                num_keys,
                hot_fraction=float(knobs.get("hot_fraction", 0.1)),
                hot_traffic=float(knobs.get("hot_traffic", 0.9)),
            )
        elif distribution == "single":
            selector = SingleKey()
        else:
            raise ExperimentError(
                f"unknown key_distribution {distribution!r} "
                "(expected zipfian/uniform/hotspot/single)"
            )
        store_seed = _trial_rng(seed).getrandbits(32)
        store = SloppyQuorumStore(
            StoreConfig(
                quorum=QuorumConfig(
                    num_replicas=int(knobs.get("replicas", 5)),
                    read_quorum=int(knobs.get("read_quorum", 1)),
                    write_quorum=int(knobs.get("write_quorum", 2)),
                    read_repair=bool(knobs.get("read_repair", False)),
                ),
                latency=ExponentialLatency(
                    mean_ms=float(knobs.get("mean_latency_ms", 3.0))
                ),
                drop_probability=float(knobs.get("drop_probability", 0.0)),
            ),
            seed=store_seed,
        )
        workload = WorkloadSpec(
            num_clients=int(knobs.get("clients", 8)),
            operations_per_client=int(knobs.get("ops_per_client", 50)),
            write_ratio=float(knobs.get("write_ratio", 0.4)),
            key_selector=selector,
            mean_think_time_ms=float(knobs.get("think_time_ms", 2.0)),
            seed=store_seed,
        )
        return store.run(workload).history
    raise ExperimentError(f"unknown workload kind {kind!r}")


# ----------------------------------------------------------------------
# Measurements
# ----------------------------------------------------------------------
def _measure_spectrum(trace: MultiHistory, trial: TrialSpec) -> Dict[str, float]:
    spectrum = atomicity_spectrum(trace)
    counts = spectrum.counts()
    total = max(1, spectrum.num_keys)
    stale_reads = reads = 0
    max_lag = 0
    for key in trace.keys():
        history = trace[key]
        if history.is_empty or any(
            history.dictating_write(r) is None for r in history.reads
        ):
            continue
        stats = staleness_stats(history)
        reads += stats.num_reads
        stale_reads += stats.stale_reads
        max_lag = max(max_lag, stats.max_value_lag)
    return {
        "registers_k1": counts.get(StalenessBucket.ATOMIC, 0),
        "registers_k2": counts.get(StalenessBucket.TWO_ATOMIC, 0),
        "registers_k3_plus": counts.get(StalenessBucket.THREE_PLUS, 0),
        "registers_anomalous": counts.get(StalenessBucket.ANOMALOUS, 0),
        "frac_k1": counts.get(StalenessBucket.ATOMIC, 0) / total,
        "frac_k2": counts.get(StalenessBucket.TWO_ATOMIC, 0) / total,
        "frac_k3_plus": counts.get(StalenessBucket.THREE_PLUS, 0) / total,
        "frac_anomalous": counts.get(StalenessBucket.ANOMALOUS, 0) / total,
        "frac_within_2": spectrum.fraction_within_2,
        "stale_read_fraction": stale_reads / reads if reads else 0.0,
        "max_value_lag": max_lag,
    }


def _measure_runtime(trace: MultiHistory, trial: TrialSpec) -> Dict[str, float]:
    engine_config = dict(trial.engine or {"name": "batch-auto"})
    engine_config.pop("name", None)
    mode = str(engine_config.pop("mode", "batch"))
    k = int(engine_config.pop("k", 2))
    algorithm = str(engine_config.pop("algorithm", "auto"))
    executor = str(engine_config.pop("executor", "serial"))
    jobs = engine_config.pop("jobs", None)
    jobs = int(jobs) if jobs is not None else None
    kernel = engine_config.pop("kernel", None)
    window = int(engine_config.pop("window", 256))
    stream_mode = str(engine_config.pop("stream_mode", "rolling"))
    if engine_config:
        raise ExperimentError(
            f"unknown engine knob(s) {sorted(engine_config)} for trial "
            f"{trial.params!r}"
        )
    if mode == "batch":
        engine = Engine(
            executor=executor,
            jobs=jobs,
            algorithm=algorithm,
            kernel=kernel,
        )
        t0 = time.perf_counter()
        report = engine.verify_trace(trace, k)
        elapsed = time.perf_counter() - t0
        yes = sum(1 for r in report.results.values() if r)
        registers = report.num_registers
        ops = report.total_ops
    elif mode == "stream":
        ops_stream = sorted(
            (op for key in trace.keys() for op in trace[key].operations),
            key=lambda op: (op.finish, op.op_id),
        )
        engine = StreamingEngine(
            window=WindowPolicy.count(window),
            mode=stream_mode,
            algorithm=algorithm,
            executor=executor,
            jobs=jobs,
        )
        t0 = time.perf_counter()
        report = engine.verify_stream(ops_stream, k)
        elapsed = time.perf_counter() - t0
        yes = sum(1 for r in report.results.values() if r)
        registers = report.num_registers
        ops = report.total_ops
    else:
        raise ExperimentError(f"unknown engine mode {mode!r} (expected batch/stream)")
    return {
        "verify_s": elapsed,
        "ops_per_s": ops / elapsed if elapsed > 0 else 0.0,
        "registers_yes": yes,
        "registers_no": registers - yes,
    }


def _measure_skew(
    trace: MultiHistory, trial: TrialSpec, k_values: Tuple[int, ...]
) -> Dict[str, float]:
    """Verdict flip rate between ``trace`` and its clock-skewed re-stamp.

    The skewed twin runs through the *identical* verifier: any verdict
    change is attributable to the clock model alone, which is exactly the
    sensitivity to the paper's global-clock assumption the experiment
    quantifies.
    """
    from ..simulation.clock import SkewedClocks
    from ..workloads.chaos import apply_clock_skew

    skew_ms = float(trial.workload.get("clock_skew_ms", 0.0))
    drift_ppm = float(trial.workload.get("clock_drift_ppm", 0.0))
    model = SkewedClocks(
        max_skew_ms=skew_ms,
        drift_ppm=drift_ppm,
        seed=_trial_rng(trial.seed).getrandbits(32),
    )
    ops = [op for key in trace.keys() for op in trace[key].operations]
    skewed = MultiHistory(apply_clock_skew(ops, model))
    engine = Engine()
    total = max(1, len(trace.keys()))
    metrics: Dict[str, float] = {}
    total_flips = 0
    for k in k_values:
        base = engine.verify_trace(trace, k).results
        after = engine.verify_trace(skewed, k).results
        flips = sum(
            1 for key in base if bool(base[key]) != bool(after.get(key))
        )
        metrics[f"flips_k{k}"] = flips
        metrics[f"flip_rate_k{k}"] = flips / total
        total_flips += flips
    metrics["flip_rate"] = total_flips / (total * max(1, len(k_values)))
    return metrics


def _measure_tiering(
    trace: MultiHistory, trial: TrialSpec, k_values: Tuple[int, ...]
) -> Dict[str, float]:
    """Tiered-vs-exact cost and parity over the identical workload.

    The same registers run through the exact engine and the tiered one.
    Parity is strict: every verdict must match, and every NO must carry the
    identical reason — the tiered path only ever re-badges YES answers.
    """
    from ..core.errors import VerificationError
    from ..engine.tiering import get_tier_policy

    tier = str(trial.workload.get("tier", "auto"))
    try:
        policy = get_tier_policy(tier)
    except VerificationError as exc:
        raise ExperimentError(str(exc)) from exc
    if policy is None:
        raise ExperimentError(
            "tiering experiments compare the tier ladder against exact; "
            f"set tier to 'auto', not {tier!r}"
        )
    metrics: Dict[str, float] = {}
    parity = 1.0
    for k in k_values:
        t0 = time.perf_counter()
        exact = Engine().verify_trace(trace, k)
        exact_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        tiered = Engine(tier=policy).verify_trace(trace, k)
        tiered_s = time.perf_counter() - t0
        for key, exact_result in exact.results.items():
            tiered_result = tiered.results.get(key)
            if tiered_result is None or bool(exact_result) != bool(tiered_result):
                parity = 0.0
            elif not exact_result and exact_result.reason != tiered_result.reason:
                parity = 0.0
        stats = dict(tiered.tier_stats)
        metrics[f"exact_s_k{k}"] = exact_s
        metrics[f"tiered_s_k{k}"] = tiered_s
        metrics[f"speedup_k{k}"] = exact_s / tiered_s if tiered_s > 0 else 0.0
        metrics[f"screen_rate_k{k}"] = float(stats.get("screen_rate", 0.0))
        metrics[f"escalation_rate_k{k}"] = float(stats.get("escalation_rate", 0.0))
    metrics["parity_ok"] = parity
    return metrics


# ----------------------------------------------------------------------
# Trial and experiment execution
# ----------------------------------------------------------------------
def run_trial(
    spec: ExperimentSpec,
    trial: TrialSpec,
    *,
    workload: Optional[MultiHistory] = None,
) -> TrialResult:
    """Execute one trial; ``workload`` short-circuits regeneration when the
    caller already built the trace for this seed (runtime engine sweeps)."""
    trace = workload if workload is not None else build_workload(trial.workload, trial.seed)
    ops = sum(len(trace[key]) for key in trace.keys())
    t0 = time.perf_counter()
    if spec.kind == "spectrum":
        metrics = _measure_spectrum(trace, trial)
    elif spec.kind == "skew":
        metrics = _measure_skew(trace, trial, spec.k_values)
    elif spec.kind == "tiering":
        metrics = _measure_tiering(trace, trial, spec.k_values)
    else:
        metrics = _measure_runtime(trace, trial)
    elapsed = time.perf_counter() - t0
    return TrialResult(
        trial=trial.index,
        repeat=trial.repeat,
        params=trial.params,
        metrics=metrics,
        ops=ops,
        registers=len(trace.keys()),
        elapsed_s=elapsed,
        seed=trial.seed,
    )


def run_experiment(
    spec: ExperimentSpec,
    *,
    smoke: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> ExperimentReport:
    """Run every trial of ``spec`` and aggregate the rows into a report.

    ``smoke=True`` runs the shrunk :meth:`~ExperimentSpec.smoke` grid — the
    CI configuration.  ``progress`` (when given) receives one line per
    completed trial.
    """
    effective = spec.smoke() if smoke else spec
    trials = effective.trials()
    rows: List[TrialResult] = []
    workload_cache: Dict[str, MultiHistory] = {}
    t0 = time.perf_counter()
    for trial in trials:
        trace = workload_cache.get(trial.seed)
        if trace is None:
            trace = build_workload(trial.workload, trial.seed)
            workload_cache.clear()  # one workload at a time: bounded memory
            workload_cache[trial.seed] = trace
        result = run_trial(effective, trial, workload=trace)
        rows.append(result)
        if progress is not None:
            progress(
                f"trial {trial.index} repeat {trial.repeat} "
                f"{dict(trial.params)!r}: {result.ops} ops, "
                f"{result.elapsed_s:.3f}s"
            )
    axes: Dict[str, Tuple[object, ...]] = dict(effective.grid)
    if effective.kind == "runtime":
        axes["engine"] = tuple(str(e["name"]) for e in effective.engines)
    return ExperimentReport(
        name=effective.name,
        kind=effective.kind,
        description=effective.description,
        seed=effective.seed,
        repeats=effective.repeats,
        axes=axes,
        rows=tuple(rows),
        elapsed_s=time.perf_counter() - t0,
        smoke=smoke,
        source=effective.source,
    )
