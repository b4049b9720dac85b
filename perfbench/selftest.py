#!/usr/bin/env python3
"""Self-test of the benchmark at smoke size (about a minute).

    python3 perfbench/selftest.py

Checks, on every workload, with the work per run shrunk:

* every metric ``BENCHMARK.json`` declares is emitted, with its unit,
  in both the end-to-end and the traced run, and nothing else is;
* the per-layer metrics of a layer are non-zero only on the workloads
  that exercise it (``shard.*`` only on shard, ``serve.*`` only on
  serve, ``cluseq.*`` only on fit);
* no two metrics of one workload are identical copies (integer counts
  may coincide and are exempt);
* every output check passes, except the tail-sample checks, which the
  shrunk runs cannot meet;
* a served probe label altered on its way back is caught by the serve
  output check.

Exits non-zero on the first failure.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

_spec = importlib.util.spec_from_file_location("bench_run", ROOT / "perfbench" / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)  # type: ignore[union-attr]

import inputs  # noqa: E402
import serving  # noqa: E402
import workloads  # noqa: E402

SMOKE_SECONDS = 2.0
#: Layer prefixes and the only workloads allowed to report them non-zero.
EXCLUSIVE = {"shard.": {"shard"}, "serve.": {"serve"}, "cluseq.": {"fit"}}


def shrink() -> None:
    inputs.FIT_SHAPE.update(num_sequences=60, num_clusters=3)
    workloads.STREAM_LENGTH = 600
    workloads.STREAM_DRIFT_AT = 150


def fail(message: str) -> None:
    print(f"selftest FAILED: {message}")
    sys.exit(1)


def one_run(workload: str, trace: bool, tmp: Path) -> tuple[dict, dict]:
    args = argparse.Namespace(workload=workload, seed=7, seconds=SMOKE_SECONDS,
                              trace=int(trace))
    workdir = tmp / f"{workload}-{int(trace)}"
    workdir.mkdir(parents=True, exist_ok=True)
    out = run.run_workload(ROOT, args, workdir)
    return out, run.assemble(out, trace)


def check_run(workload: str, trace: bool, out: dict, line: dict, declared: dict) -> None:
    tag = f"{workload} trace={int(trace)}"
    kind = "per_layer" if trace else "end_to_end"
    metrics = line["metrics"]
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{tag}: result keys {sorted(line)}")
    if {n: m["unit"] for n, m in metrics.items()} != declared[kind]:
        fail(f"{tag}: emitted metrics/units differ from BENCHMARK.json")
    bad = [k for k, ok in out["checks"].results.items() if not ok and "tail_samples" not in k]
    if bad or int(out["failed"]):
        fail(f"{tag}: output checks failed: {bad}, failed ops {out['failed']}")
    values = [(n, m["value"]) for n, m in metrics.items()]
    if not trace and any(v == 0 for _, v in values):
        fail(f"{tag}: an end-to-end metric is 0: {values}")
    seen: dict[float, str] = {}
    for name, value in values:
        if value == 0 or (trace and float(value).is_integer()):
            continue
        if value in seen:
            fail(f"{tag}: {name} is a copy of {seen[value]} ({value})")
        seen[value] = name
    if trace:
        for prefix, owners in EXCLUSIVE.items():
            for name, value in values:
                if name.startswith(prefix) and value and workload not in owners:
                    fail(f"{tag}: {name} = {value} outside {sorted(owners)}")


def check_injection(tmp: Path) -> None:
    """A wrong served label must fail the serve output check."""
    honest = serving.probe

    async def tampered(server, probes, tally):  # type: ignore[no-untyped-def]
        labels = await honest(server, probes, tally)
        labels[0] = -999
        return labels

    serving.probe = tampered
    try:
        out, line = one_run("serve", False, tmp / "inject")
    finally:
        serving.probe = honest
    if out["checks"].results.get("serve.probe_labels_match_replica", True) or line["correct"]:
        fail("an altered served label was not caught")


def main() -> int:
    declared_doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        kind: {m["name"]: m["unit"] for m in declared_doc[kind]}
        for kind in ("end_to_end", "per_layer")
    }
    if declared["end_to_end"] != run.END_TO_END or declared["per_layer"] != run.PER_LAYER:
        fail("BENCHMARK.json and run.py declare different metrics")
    shrink()
    tmp = ROOT / ".perfbench" / "selftest"
    tmp.mkdir(parents=True, exist_ok=True)
    for workload in run.WORKLOADS:
        for trace in (False, True):
            out, line = one_run(workload, trace, tmp)
            check_run(workload, trace, out, line, declared)
            print(f"ok  {workload:6s} trace={int(trace)}")
    check_injection(tmp)
    print("ok  injected wrong served label caught")
    return 0


if __name__ == "__main__":
    sys.exit(main())
