"""Bench-trajectory ledger — the perf-regression memory of the repo.

Every benchmark run that writes a ``repro.bench/v1`` document (see
``benchmarks/bench_backend_scoring.py``) can be *ingested* into the
append-only ledger ``BENCH_TRAJECTORY.json`` (schema
``repro.benchtrack/v1``), which accumulates one entry per run with the
git SHA, timestamp, workload spec and per-configuration results. A
markdown report (``BENCH_TRAJECTORY.md``) is regenerated from the
ledger on every ingest, and ``check`` compares a fresh bench document
against the ledger baseline for the *same workload* and fails when a
tracked metric regresses beyond the configured tolerance — the CI
perf-smoke gate.

Usage::

    python -m tools.benchtrack ingest BENCH_PR8.json
    python -m tools.benchtrack report
    python -m tools.benchtrack check BENCH_smoke.json --tolerance 0.5
    python -m tools.benchtrack check-shards BENCH_SHARD.json --min-cpus 2
    python -m tools.benchtrack --check BENCH_smoke.json   # sugar

``check-shards`` is the intra-document gate: it pairs ``shards>1``
rows against their ``shards=1`` twin and fails when sharded streaming
is slower than a single shard (skipped below ``--min-cpus`` — a
single-core machine cannot show parallel speedup;
``benchmarks/bench_shard_throughput.py`` produces the documents).
``check-serving`` is the serving-layer gate: against the ledger
baseline for the same workload it enforces a ``req_per_second`` floor and a ``p99_ms`` ceiling
(``benchmarks/bench_serving.py`` produces the documents)::

    python -m tools.benchtrack check-serving BENCH_SERVING.json

Stdlib only — no numpy, no third-party deps — so it runs anywhere the
CI does, including before the project venv is built.
"""

from __future__ import annotations

from .ledger import (
    LEDGER_SCHEMA,
    check_regressions,
    check_serving,
    check_shards,
    ingest,
    load_ledger,
    new_ledger,
    render_report,
    save_ledger,
)
from .schema import BENCH_SCHEMA, load_bench_document, stamp_bench_document, validate_bench_document

__all__ = [
    "BENCH_SCHEMA",
    "LEDGER_SCHEMA",
    "check_regressions",
    "check_serving",
    "check_shards",
    "ingest",
    "load_bench_document",
    "load_ledger",
    "new_ledger",
    "render_report",
    "save_ledger",
    "stamp_bench_document",
    "validate_bench_document",
]
