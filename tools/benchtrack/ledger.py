"""The append-only bench trajectory ledger (``repro.benchtrack/v1``).

Ledger shape::

    {
      "schema": "repro.benchtrack/v1",
      "entries": [
        {"bench": "backend_scoring",
         "workload": {...},
         "git_sha": "...", "generated_unix": ..., "source": "BENCH_PR5.json",
         "results": [...]},
        ...
      ]
    }

Entries are appended in ingest order and never rewritten, so the file
is a longitudinal record of how each benchmark moved across PRs.
Comparisons only ever pair entries whose ``bench`` *and* ``workload``
match exactly — a smoke run is never judged against a full run.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Optional, Union

from .schema import BENCH_SCHEMA, stamp_bench_document, validate_bench_document

LEDGER_SCHEMA = "repro.benchtrack/v1"

#: Default ratio metric compared by ``check`` — machine-portable, unlike
#: raw seconds (the reference backend is measured in the same process).
DEFAULT_METRIC = "speedup"

#: Default allowed fractional drop before ``check`` fails. Generous on
#: purpose: CI machines are noisy and the gate should catch collapses
#: (a 2x regression), not jitter.
DEFAULT_TOLERANCE = 0.5

PathLike = Union[str, Path]


def new_ledger() -> dict[str, Any]:
    return {"schema": LEDGER_SCHEMA, "entries": []}


def load_ledger(path: PathLike) -> dict[str, Any]:
    """Load a ledger, or a fresh one when *path* does not exist yet."""
    target = Path(path)
    if not target.exists():
        return new_ledger()
    with open(target, encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict) or doc.get("schema") != LEDGER_SCHEMA:
        raise ValueError(
            f"{path}: not a {LEDGER_SCHEMA} ledger "
            f"(schema: {doc.get('schema') if isinstance(doc, dict) else doc!r})"
        )
    entries = doc.get("entries")
    if not isinstance(entries, list):
        raise ValueError(f"{path}: ledger entries must be an array")
    return doc


def save_ledger(path: PathLike, ledger: dict[str, Any]) -> None:
    Path(path).write_text(
        json.dumps(ledger, indent=2, sort_keys=False) + "\n", encoding="utf-8"
    )


def ingest(
    ledger: dict[str, Any],
    doc: dict[str, Any],
    source: Optional[str] = None,
) -> dict[str, Any]:
    """Validate, stamp and append *doc* to *ledger*; returns the entry."""
    problems = validate_bench_document(doc)
    if problems:
        raise ValueError(
            f"invalid {BENCH_SCHEMA} document:\n  " + "\n  ".join(problems)
        )
    stamp_bench_document(doc)
    entry = {
        "bench": doc["bench"],
        "workload": doc["workload"],
        "git_sha": doc.get("git_sha"),
        "generated_unix": doc.get("generated_unix"),
        "source": source,
        "results": doc["results"],
    }
    ledger["entries"].append(entry)
    return entry


#: Result-row fields that are measurements, not configuration.
_METRIC_FIELDS = frozenset(
    {
        "seconds",
        "pairs_per_second",
        "seqs_per_second",
        "speedup",
        # serving measurements (benchmarks/bench_serving.py)
        "req_per_second",
        "p50_ms",
        "p99_ms",
        "batch_occupancy",
        "requests",
        "rejected",
        "errors",
    }
)


def _config_key(row: dict[str, Any], ignore: frozenset = frozenset()) -> str:
    """Stable label for one result row: every non-metric field."""
    parts = []
    for key in sorted(row):
        if key in _METRIC_FIELDS or key in ignore:
            continue
        if isinstance(row[key], (str, int, bool)):
            parts.append(f"{key}={row[key]}")
    return " ".join(parts) or "default"


def _baseline_entry(
    ledger: dict[str, Any], doc: dict[str, Any]
) -> Optional[dict[str, Any]]:
    """Most recent ledger entry with the same bench and exact workload."""
    for entry in reversed(ledger.get("entries", [])):
        if (
            entry.get("bench") == doc.get("bench")
            and entry.get("workload") == doc.get("workload")
        ):
            return entry
    return None


def check_regressions(
    ledger: dict[str, Any],
    doc: dict[str, Any],
    metric: str = DEFAULT_METRIC,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[str]:
    """Regression messages for *doc* against its ledger baseline.

    Empty list = pass. Configurations present in only one side are
    skipped (a new backend is not a regression); a missing baseline for
    the (bench, workload) pair passes with no messages — ``check`` can
    run before the first ingest of a new workload.
    """
    problems = validate_bench_document(doc)
    if problems:
        return [f"invalid bench document: {p}" for p in problems]
    if not 0.0 <= tolerance < 1.0:
        raise ValueError(f"tolerance must be in [0, 1), got {tolerance}")
    baseline = _baseline_entry(ledger, doc)
    if baseline is None:
        return []
    base_rows = {
        _config_key(row): row
        for row in baseline["results"]
        if isinstance(row, dict)
    }
    messages = []
    for row in doc["results"]:
        key = _config_key(row)
        base = base_rows.get(key)
        if base is None:
            continue
        new_value = row.get(metric)
        old_value = base.get(metric)
        if not isinstance(new_value, (int, float)) or not isinstance(
            old_value, (int, float)
        ):
            continue
        floor = old_value * (1.0 - tolerance)
        if new_value < floor:
            messages.append(
                f"{doc['bench']} [{key}]: {metric} regressed "
                f"{old_value:.3g} -> {new_value:.3g} "
                f"(floor {floor:.3g} at tolerance {tolerance:.0%}, "
                f"baseline {baseline.get('git_sha') or 'unstamped'})"
            )
    return messages


_SHARDS_ONLY = frozenset({"shards"})


def check_shards(
    doc: dict[str, Any],
    min_cpus: int = 2,
    tolerance: float = 0.1,
    cpu_count: Optional[int] = None,
) -> list[str]:
    """Messages when a ``shards>1`` row is slower than its single-shard twin.

    Pairs result rows *within one document* that differ only in ``shards``
    and fails any multi-shard row whose ``seconds`` exceeds the
    ``shards=1`` row's by more than *tolerance* (fractional). Skipped
    entirely — empty list — when the bench machine has fewer than
    *min_cpus* CPUs, where shard parallelism cannot pay for its
    routing/consolidation overhead by construction. The document's
    recorded ``environment.cpu_count`` is preferred over this
    machine's count.
    """
    problems = validate_bench_document(doc)
    if problems:
        return [f"invalid bench document: {p}" for p in problems]
    if tolerance < 0.0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    if cpu_count is None:
        environment = doc.get("environment")
        if isinstance(environment, dict) and isinstance(
            environment.get("cpu_count"), int
        ):
            cpu_count = environment["cpu_count"]
        else:
            import os

            cpu_count = os.cpu_count() or 1
    if cpu_count < min_cpus:
        return []
    single: dict[str, dict[str, Any]] = {}
    for row in doc["results"]:
        if isinstance(row, dict) and row.get("shards") == 1:
            single[_config_key(row, ignore=_SHARDS_ONLY)] = row
    messages = []
    for row in doc["results"]:
        if not isinstance(row, dict):
            continue
        shards = row.get("shards")
        if not isinstance(shards, int) or shards <= 1:
            continue
        base = single.get(_config_key(row, ignore=_SHARDS_ONLY))
        if base is None:
            continue
        seconds = row.get("seconds")
        base_seconds = base.get("seconds")
        if not isinstance(seconds, (int, float)) or not isinstance(
            base_seconds, (int, float)
        ):
            continue
        ceiling = base_seconds * (1.0 + tolerance)
        if seconds > ceiling:
            messages.append(
                f"{doc['bench']} [{_config_key(row)}]: shards={shards} took "
                f"{seconds:.4g}s vs {base_seconds:.4g}s single-shard "
                f"(ceiling {ceiling:.4g}s at tolerance {tolerance:.0%}, "
                f"{cpu_count} CPUs)"
            )
    return messages


#: Default allowed fractional throughput drop / p99 rise for serving.
DEFAULT_SERVING_TOLERANCE = 0.5
DEFAULT_LATENCY_TOLERANCE = 1.0


def check_serving(
    ledger: dict[str, Any],
    doc: dict[str, Any],
    tolerance: float = DEFAULT_SERVING_TOLERANCE,
    latency_tolerance: float = DEFAULT_LATENCY_TOLERANCE,
) -> list[str]:
    """Serving regression messages for *doc* vs its ledger baseline.

    The serving analogue of :func:`check_regressions`, but two-sided:
    ``req_per_second`` must not *drop* more than *tolerance* below the
    baseline, and ``p99_ms`` must not *rise* more than
    *latency_tolerance* above it. Latency gets its own (more generous)
    allowance — tail latency on shared CI runners is far noisier than
    throughput, and the gate exists to catch collapses, not scheduler
    jitter. Rows or baselines missing either metric are skipped, as is
    a missing (bench, workload) baseline entirely.
    """
    problems = validate_bench_document(doc)
    if problems:
        return [f"invalid bench document: {p}" for p in problems]
    if not 0.0 <= tolerance < 1.0:
        raise ValueError(f"tolerance must be in [0, 1), got {tolerance}")
    if latency_tolerance < 0.0:
        raise ValueError(
            f"latency tolerance must be >= 0, got {latency_tolerance}"
        )
    baseline = _baseline_entry(ledger, doc)
    if baseline is None:
        return []
    base_rows = {
        _config_key(row): row
        for row in baseline["results"]
        if isinstance(row, dict)
    }
    sha = baseline.get("git_sha") or "unstamped"
    messages = []
    for row in doc["results"]:
        key = _config_key(row)
        base = base_rows.get(key)
        if base is None:
            continue
        new_rps = row.get("req_per_second")
        old_rps = base.get("req_per_second")
        if isinstance(new_rps, (int, float)) and isinstance(
            old_rps, (int, float)
        ):
            floor = old_rps * (1.0 - tolerance)
            if new_rps < floor:
                messages.append(
                    f"{doc['bench']} [{key}]: req_per_second regressed "
                    f"{old_rps:.4g} -> {new_rps:.4g} "
                    f"(floor {floor:.4g} at tolerance {tolerance:.0%}, "
                    f"baseline {sha})"
                )
        new_p99 = row.get("p99_ms")
        old_p99 = base.get("p99_ms")
        if isinstance(new_p99, (int, float)) and isinstance(
            old_p99, (int, float)
        ):
            ceiling = old_p99 * (1.0 + latency_tolerance)
            if new_p99 > ceiling:
                messages.append(
                    f"{doc['bench']} [{key}]: p99_ms regressed "
                    f"{old_p99:.4g} -> {new_p99:.4g} "
                    f"(ceiling {ceiling:.4g} at tolerance "
                    f"{latency_tolerance:.0%}, baseline {sha})"
                )
    return messages


def _format_unix(stamp: Any) -> str:
    if not isinstance(stamp, (int, float)):
        return "-"
    import datetime

    return datetime.datetime.fromtimestamp(
        stamp, tz=datetime.timezone.utc
    ).strftime("%Y-%m-%d")


def render_report(ledger: dict[str, Any]) -> str:
    """Markdown trajectory report, one table per (bench, workload)."""
    lines = [
        "# Bench trajectory",
        "",
        "Regenerated by `python -m tools.benchtrack` — do not edit.",
        "Schema: `" + LEDGER_SCHEMA + "`.",
    ]
    groups: dict[str, list[dict[str, Any]]] = {}
    for entry in ledger.get("entries", []):
        workload = json.dumps(entry.get("workload", {}), sort_keys=True)
        groups.setdefault(f"{entry.get('bench')} {workload}", []).append(entry)
    for group_key in sorted(groups):
        entries = groups[group_key]
        bench = entries[0].get("bench", "?")
        lines += [
            "",
            f"## {bench}",
            "",
            f"Workload: `{json.dumps(entries[0].get('workload', {}), sort_keys=True)}`",
            "",
            "| date | sha | config | seconds | speedup |",
            "|---|---|---|---|---|",
        ]
        for entry in entries:
            sha = entry.get("git_sha") or "-"
            date = _format_unix(entry.get("generated_unix"))
            for row in entry.get("results", []):
                if not isinstance(row, dict):
                    continue
                seconds = row.get("seconds")
                speedup = row.get("speedup")
                seconds_cell = (
                    f"{seconds:.4g}" if isinstance(seconds, (int, float)) else "-"
                )
                speedup_cell = (
                    f"{speedup:.2f}x"
                    if isinstance(speedup, (int, float))
                    else "-"
                )
                lines.append(
                    f"| {date} | {str(sha)[:10]} | {_config_key(row)} "
                    f"| {seconds_cell} | {speedup_cell} |"
                )
    lines.append("")
    return "\n".join(lines)
