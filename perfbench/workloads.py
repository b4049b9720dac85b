"""The ``fit``, ``stream`` and ``shard`` workloads.

Each function runs one workload in the calling process and returns a
dict with the raw end-to-end figures (``e2e``), the per-layer figures of
a traced run (``layers``), operation counts and the outcome of every
output check. The program is driven only through its public API with
user defaults (``backend=auto``, ``workers=0``).
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import shutil
import statistics
import time
from typing import Any

from inputs import drifting_stream, fit_database
from tracing import Tracer, install_layers, layer_metrics, similarity_calls

#: The work of a run scales with ``--seconds``; at the declared 25 s
#: a run takes about 20-40 s on a 2-vCPU host.
#:
#: ``fit`` fits its database again and again until the fits took
#: ``--seconds`` in all, at least twice (the digest check compares two
#: fits) and until ``FIT_TAIL`` has >= 10 iteration times beyond it.
#: Faster fits, whether from cheaper iterations or from converging in
#: fewer, mean more fits. ``FIT_MAX_FACTOR * seconds`` of fitting ends
#: a run that still lacks the samples, which then fails its check.
FIT_TAIL = 0.75
FIT_MIN_FITS = 2
FIT_MAX_FACTOR = 5

#: ``stream``/``shard``: sequences per pass, drift point, seconds of
#: run per pass. The drift sits at a quarter, so the batch p50 lies
#: inside the post-drift mode and the p90 well away from the mode
#: boundary (p75).
STREAM_LENGTH = 4000
STREAM_DRIFT_AT = 1000
STREAM_BATCH = 32
SECONDS_PER_PASS = 6
CHECKPOINT_EVERY = 16


def child_env(root: str) -> dict[str, str]:
    """Environment of every process the benchmark starts: the launcher's
    (BLAS already held to one thread) with the checkout's program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    )
    return env


def percentile(values: list[float], q: float) -> float:
    """The *q*-quantile (0 < q < 1) by linear interpolation."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def check_tail(samples: int, q: float) -> bool:
    """A percentile is reported only with >= 10 samples beyond it."""
    return samples * (1.0 - q) >= 10


def ari(truth: list[Any], predicted: list[Any]) -> float:
    """ARI with outliers (``None``) kept as one predicted group."""
    from repro.evaluation.metrics import adjusted_rand_index

    return adjusted_rand_index(
        [str(label) for label in truth],
        ["outlier" if p is None else str(p) for p in predicted],
    )


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS record (Linux ``clear_refs``)."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


def peak_rss_mb(pid: str = "self") -> float:
    """Peak resident set (VmHWM) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


class Checks:
    """Named output checks; each failure counts as one failed operation."""

    def __init__(self) -> None:
        self.results: dict[str, bool] = {}
        self.failed = 0

    def add(self, name: str, ok: bool) -> None:
        key = name
        suffix = 1
        while key in self.results:
            suffix += 1
            key = f"{name}#{suffix}"
        self.results[key] = bool(ok)
        if not ok:
            self.failed += 1


# -- fit ---------------------------------------------------------------------------


def _fit_params(db: Any) -> Any:
    from repro import CluseqParams
    from repro.experiments.common import scaled_params

    return CluseqParams(**scaled_params(db))


def _fit_digest(result: Any, size: int) -> str:
    rows = [sorted(result.assignments.get(i, ())) for i in range(size)]
    clusters = sorted(cluster.cluster_id for cluster in result.clusters)
    blob = json.dumps([rows, clusters, result.final_log_threshold])
    return hashlib.sha256(blob.encode()).hexdigest()


def _check_fit(checks: Checks, result: Any, size: int) -> int:
    """Every sequence accounted for, in live clusters only; returns the
    number of sequences that are not."""
    live = {cluster.cluster_id for cluster in result.clusters}
    missing = sum(
        1 for i in range(size)
        if i not in result.assignments or not result.assignments[i] <= live
    )
    checks.add("fit.accounted", missing == 0 and len(result.assignments) == size)
    return missing


def run_fit(seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    from repro import CLUSEQ

    checks = Checks()
    db = fit_database(seed)
    if trace:
        return _trace_fit(db, checks)
    walls: list[float] = []
    iteration_ms: list[float] = []
    peaks: list[float] = []
    digests: list[str] = []
    aris: list[float] = []
    missing = 0
    while (
        len(walls) < FIT_MIN_FITS
        or sum(walls) < seconds
        or not check_tail(len(iteration_ms), FIT_TAIL)
    ) and sum(walls) < FIT_MAX_FACTOR * seconds:
        engine = CLUSEQ(_fit_params(db))
        reset_peak_rss()
        started = time.perf_counter()
        result = engine.fit(db)
        walls.append(time.perf_counter() - started)
        peaks.append(peak_rss_mb())
        # The first iteration also calibrates the threshold.
        iteration_ms += [1e3 * stats.elapsed_seconds for stats in result.history[1:]]
        missing += _check_fit(checks, result, len(db))
        aris.append(ari(db.labels, result.labels()))
        digests.append(_fit_digest(result, len(db)))
        # Free this fit's trees before the next one, so peak RSS is one
        # fit's, not an accident of when the collector ran.
        del result, engine
        gc.collect()
    checks.add("fit.tail_samples", check_tail(len(iteration_ms), FIT_TAIL))
    checks.add("fit.digest_repeats", len(set(digests)) == 1)
    return {
        "e2e": {
            # The median fit, so a host stall in one fit does not set it.
            "seq_per_s": len(db) / statistics.median(walls),
            "p50_ms": percentile(iteration_ms, 0.5),
            "tail_ms": percentile(iteration_ms, FIT_TAIL),
            "ari": statistics.fmean(aris),
            "peak_rss_mb": statistics.median(peaks),
        },
        "attempted": len(db) * len(walls),
        "failed": missing,
        "checks": checks,
        "info": {"fits": len(walls), "iterations": len(iteration_ms) + len(walls),
                 "fit_wall_s": walls},
    }


def _timed(call: Any) -> tuple[Any, float]:
    started = time.perf_counter()
    result = call()
    return result, time.perf_counter() - started


def _traced(call: Any) -> tuple[Any, Tracer, dict[str, Any]]:
    """Run *call* with every layer wrapper and a metrics registry
    installed; returns its result, the tracer and fidelity facts."""
    from repro.obs import MetricsRegistry, use_registry

    tracer = Tracer()
    registry = MetricsRegistry()
    install_layers(tracer)
    try:
        with use_registry(registry):
            result = call()
    finally:
        leftovers = tracer.uninstall()
    counted = registry.counter("similarity.calls").value
    wrapped = similarity_calls(tracer)
    return result, tracer, {
        "restored": not leftovers,
        "similarity_calls_match": counted == wrapped,
        "registry_similarity_calls": counted,
        "wrapper_similarity_calls": wrapped,
    }


def _fidelity_checks(checks: Checks, fidelity: dict[str, Any]) -> None:
    checks.add("trace.wrappers_restored", fidelity["restored"])
    checks.add("trace.similarity_calls_match", fidelity["similarity_calls_match"])


def _trace_fit(db: Any, checks: Checks) -> dict[str, Any]:
    from repro import CLUSEQ

    def fit() -> Any:
        return CLUSEQ(_fit_params(db)).fit(db)

    plain, before = _timed(fit)
    (result, tracer, fidelity), traced = _timed(lambda: _traced(fit))
    _, after = _timed(fit)
    untraced = (before + after) / 2
    _fidelity_checks(checks, fidelity)
    checks.add(
        "fit.digest_repeats",
        _fit_digest(plain, len(db)) == _fit_digest(result, len(db)),
    )
    missing = _check_fit(checks, result, len(db))
    layers = layer_metrics(tracer, "cluseq.fit")
    layers.update(
        {
            "cluseq.iterations": result.iterations,
            "cluseq.converged": 1.0 if result.converged else 0.0,
            "trace.overhead_frac": traced / untraced - 1.0,
        }
    )
    return {
        "layers": layers,
        "tracer": tracer,
        "attempted": len(db),
        "failed": missing,
        "checks": checks,
        "info": {"fidelity": fidelity, "untraced_s": untraced, "traced_s": traced},
    }


# -- stream and shard ------------------------------------------------------------------


def stream_config() -> Any:
    """The per-engine config both streaming workloads share (the
    repository's stream bench shape, plus periodic checkpoints)."""
    from repro.stream import DecayPolicy, StreamConfig

    return StreamConfig(
        batch_size=STREAM_BATCH,
        pool_size=256,
        reseed_every=2,
        reseed_k=2,
        reseed_min_pool=8,
        consolidate_every=16,
        decay=DecayPolicy(factor=0.95, every_batches=8),
        checkpoint_every=CHECKPOINT_EVERY,
        seed=3,
    )


ENGINE_SPEC = {
    "alphabet_size": 8,
    "similarity_threshold": 10.0,
    "significance_threshold": 3,
    "max_depth": 4,
}


def new_stream_engine(state_dir: str) -> Any:
    from repro.stream import StreamingCluseq

    return StreamingCluseq.cold_start(
        config=stream_config(), state_dir=state_dir, **ENGINE_SPEC
    )


def new_shard_engine() -> Any:
    from repro.shard import ShardConfig, ShardedStreamingCluseq

    config = ShardConfig(
        shards=2, router="hash", runner="inprocess", stream=stream_config()
    )
    return ShardedStreamingCluseq.cold_start(config=config, **ENGINE_SPEC)


def _drive(engine: Any, sequences: list[list[int]], sharded: bool) -> tuple[list[Any], list[float], float]:
    """Feed *sequences* batch by batch; returns per-sequence assignments
    (``(shard, cluster)`` when sharded), per-batch seconds and wall."""
    assigned: list[Any] = []
    batch_s: list[float] = []
    clock = time.perf_counter
    started = clock()
    for offset in range(0, len(sequences), STREAM_BATCH):
        batch = sequences[offset : offset + STREAM_BATCH]
        t0 = clock()
        out = engine.ingest_batch(batch)
        batch_s.append(clock() - t0)
        if sharded:
            routes = engine.routes_for(batch)
            out = [None if cid is None else (route, cid) for route, cid in zip(routes, out)]
        assigned.extend(out)
    return assigned, batch_s, clock() - started


def _fresh_dir(root: str, name: str) -> str:
    path = os.path.join(root, name)
    shutil.rmtree(path, ignore_errors=True)
    return path


def _check_assignments(checks: Checks, name: str, assigned: list[Any], size: int) -> int:
    """Exactly one assignment per input sequence; returns how many
    sequences lack one."""
    missing = max(0, size - len(assigned))
    checks.add(f"{name}.one_assignment_each", len(assigned) == size)
    return missing


def run_streaming(
    workload: str, seed: int, seconds: float, trace: bool, state_dir: str
) -> dict[str, Any]:
    sharded = workload == "shard"
    checks = Checks()
    passes = 1 if trace else max(1, round(seconds / SECONDS_PER_PASS))
    batch_ms: list[float] = []
    walls: list[float] = []
    aris: list[float] = []
    peaks: list[float] = []
    sequences = 0
    missing = 0
    info: dict[str, Any] = {"consolidations": [], "clusters": []}
    result: dict[str, Any] = {"checks": checks, "info": info}
    for index in range(passes):
        stream = drifting_stream(seed, index, STREAM_LENGTH, STREAM_DRIFT_AT)
        engine = new_shard_engine() if sharded else new_stream_engine(
            _fresh_dir(state_dir, f"stream-{index}")
        )
        reset_peak_rss()
        with engine:
            assigned, batch_s, wall = _drive(engine, stream.sequences, sharded)
            stats = engine.stats()
        peaks.append(peak_rss_mb())
        if trace:
            _trace_streaming(result, stream, assigned, sharded, state_dir, wall)
        batch_ms += [1e3 * s for s in batch_s]
        walls.append(wall)
        sequences += len(stream.sequences)
        missing += _check_assignments(checks, workload, assigned, len(stream.sequences))
        aris.append(ari(stream.labels, assigned))
        info["clusters"].append(stats.clusters)
        if sharded:
            info["consolidations"].append(stats.consolidations)
            checks.add("shard.consolidated", stats.consolidations >= 1)
    checks.add(f"{workload}.tail_samples", check_tail(len(batch_ms), 0.9))
    result.update(
        {
            "e2e": {
                "seq_per_s": sequences / sum(walls),
                "p50_ms": percentile(batch_ms, 0.5),
                "tail_ms": percentile(batch_ms, 0.9),
                "ari": statistics.fmean(aris),
                "peak_rss_mb": statistics.median(peaks),
            },
            "attempted": sequences,
            "failed": missing,
        }
    )
    return result


def _trace_streaming(
    result: dict[str, Any],
    stream: Any,
    untraced_assigned: list[Any],
    sharded: bool,
    state_dir: str,
    untraced_wall: float,
) -> None:
    """Replay the pass with wrappers installed, then once more without;
    the assignments must not change, and the traced wall over the mean
    of the untraced ones before and after is the tracing overhead."""
    def one_pass() -> tuple[Any, Any, float]:
        engine = new_shard_engine() if sharded else new_stream_engine(
            _fresh_dir(state_dir, "stream-traced")
        )
        with engine:
            assigned, _, wall = _drive(engine, stream.sequences, sharded)
            return assigned, engine.stats(), wall

    (assigned, stats, wall), tracer, fidelity = _traced(one_pass)
    untraced_wall = (untraced_wall + one_pass()[2]) / 2
    checks = result["checks"]
    _fidelity_checks(checks, fidelity)
    checks.add("trace.assignments_unchanged", assigned == untraced_assigned)
    layers = layer_metrics(tracer, "shard.ingest_batch" if sharded else "stream.ingest_batch")
    layers["trace.overhead_frac"] = wall / untraced_wall - 1.0
    if sharded:
        per_shard = [s.sequences for s in stats.per_shard]
        layers.update(
            {
                "shard.cross_merges": stats.cross_merges,
                "shard.clusters": stats.clusters,
                "shard.skew": max(per_shard) / statistics.fmean(per_shard),
            }
        )
    else:
        layers.update(
            {"stream.absorb_rate": stats.absorb_rate, "stream.clusters": stats.clusters}
        )
    result["layers"] = layers
    result["tracer"] = tracer
    result["info"]["fidelity"] = fidelity
