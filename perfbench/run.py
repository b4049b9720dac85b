#!/usr/bin/env python3
"""Benchmark of CLUSEQ's four entry points: fit, stream, shard, serve.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fit|stream|shard|serve|all \\
        --seed N --seconds S --trace 0|1

For one workload, the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``. ``--workload all`` runs each workload in a fresh
process and prints one ``<workload>: <object>`` line per workload.
Spans of a traced run are written to ``.perfbench/traces/``. See
``perfbench/README.md``.
"""

from __future__ import annotations

import os

# BLAS stays on one thread in every workload process (children inherit
# the environment), so the system under test and the load generator
# together stay within two CPUs. Set before anything imports numpy.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

WORKLOADS = ("fit", "stream", "shard", "serve")
SETUP_PROBES = 5

#: End-to-end metrics, reported by every workload (see README.md for
#: what each means on each workload).
END_TO_END = {
    "setup_s": "s",
    "seq_per_s": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "ari": "ratio",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of the traced run; a layer a workload does not
#: exercise reads 0 there.
PER_LAYER = {
    "similarity.calls": "count",
    "similarity.self_s": "s",
    "cluseq.iterations": "count",
    "cluseq.converged": "bool",
    "cluseq.stale_rescore_ratio": "ratio",
    "cluseq.seed_s": "s",
    "cluseq.consolidate_s": "s",
    "cluseq.threshold_s": "s",
    "pst.add_sequence.calls": "count",
    "pst.add_sequence_s": "s",
    "pst.decay_s": "s",
    "pst.merge_counts_s": "s",
    "backends.flatten.calls": "count",
    "backends.flatten_s": "s",
    "backends.prepare_s": "s",
    "backends.flat_hit_ratio": "ratio",
    "backends.matrix.calls": "count",
    "backends.matrix_s": "s",
    "backends.matrix_cells": "count",
    "stream.ingest_batch_s": "s",
    "stream.journal_append_s": "s",
    "stream.checkpoint_s": "s",
    "stream.checkpoint_bytes": "bytes",
    "stream.absorb_rate": "ratio",
    "stream.clusters": "count",
    "shard.route_s": "s",
    "shard.distance.calls": "count",
    "shard.distance_s": "s",
    "shard.plan_s": "s",
    "shard.apply_plan_s": "s",
    "shard.cross_merges": "count",
    "shard.clusters": "count",
    "shard.skew": "ratio",
    "serve.classify_batch_s": "s",
    "serve.batch_occupancy": "ratio",
    "serve.queue_wait_s": "s",
    "serve.assign_and_absorb_s": "s",
    "serve.http_s": "s",
    "serve.reflattens": "count",
    "serve.rejected": "count",
    "serve.ingest_p50_ms": "ms",
    "serve.ingest_p90_ms": "ms",
    "trace.unattributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


def measure_setup(root: Path, workload: str, workdir: Path) -> list[float]:
    """Seconds from launching a fresh process to its engine being ready."""
    from workloads import child_env

    samples = []
    for index in range(SETUP_PROBES):
        target = workdir / f"setup-{index}"
        launched = time.time()
        done = subprocess.run(
            [sys.executable, str(root / "perfbench" / "setup_probe.py"), workload,
             str(target)],
            env=child_env(str(root)), capture_output=True, text=True, timeout=120,
            check=True,
        )
        samples.append(float(done.stdout.split()[-1]) - launched)
        shutil.rmtree(target, ignore_errors=True)
    return samples


def run_workload(root: Path, args: argparse.Namespace, workdir: Path) -> dict[str, Any]:
    trace = bool(args.trace)
    if args.workload == "serve":
        from serving import run_serve

        return run_serve(str(root), args.seed, args.seconds, trace, str(workdir))
    from workloads import run_fit, run_streaming

    setup = [] if trace else measure_setup(root, args.workload, workdir)
    if args.workload == "fit":
        out = run_fit(args.seed, args.seconds, trace)
    else:
        out = run_streaming(args.workload, args.seed, args.seconds, trace, str(workdir))
    out["setup"] = setup
    return out


def assemble(out: dict[str, Any], trace: bool) -> dict[str, Any]:
    """The result line: every declared metric of the requested kind."""
    if trace:
        values = {name: float(out["layers"].get(name, 0.0)) for name in PER_LAYER}
        units = PER_LAYER
    else:
        values = dict(out["e2e"])
        values["setup_s"] = statistics.median(out["setup"])
        units = END_TO_END
    checks = out["checks"]
    failed = int(out["failed"]) + checks.failed
    return {
        "correct": failed == 0,
        "attempted": int(out["attempted"]) + len(checks.results),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in a fresh process; one result line each."""
    correct = True
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = done.stdout.strip().splitlines()
        line = json.loads(lines[-1]) if done.returncode == 0 and lines else None
        correct = correct and line is not None and line["correct"]
        print(f"{workload}: {json.dumps(line)}", flush=True)
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {root / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(root / "src"))

    state = root / ".perfbench"
    workdir = state / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        out = run_workload(root, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = assemble(out, bool(args.trace))
    if args.trace:
        traces = state / "traces"
        traces.mkdir(exist_ok=True)
        out["tracer"].dump_jsonl(str(traces / f"{args.workload}-seed{args.seed}.jsonl"))
    print(json.dumps({"checks": out["checks"].results, "info": out.get("info", {})},
                     default=str), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.exit(main())
