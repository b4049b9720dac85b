"""Backend neutrality of the streaming and sharded engines.

The batch fit has a golden check that the ``reference`` and
``vectorized`` backends commit identical clusterings
(``test_backend_golden.py``). This module holds the streaming
counterpart: one drifting Markov stream, run with every maintenance
phase that scores or mutates a cluster model active — §4.1 re-seeding
with its pool rescue pass, count decay, §4.5 consolidation, §4.6
threshold adjustment — must land on the same state under either
backend, through one shard and through two. "The same" covers the
assignments, cluster ids, PST counts, threshold, outlier pool and the
bytes of every durable file, whose only permitted difference is the
recorded backend name itself.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs import MetricsRegistry, use_registry
from repro.shard import ShardConfig, ShardedStreamingCluseq
from repro.stream import DecayPolicy, StreamConfig, drifting_markov_stream

ALPHABET_SIZE = 8


def _run(backend: str, shards: int, state_dir: Path) -> dict[str, object]:
    stream = drifting_markov_stream(
        240,
        110,
        alphabet_size=ALPHABET_SIZE,
        mean_length=30,
        concentration=0.05,
        seed=29,
    )
    config = ShardConfig(
        shards=shards,
        consolidate_every=4,
        merge_threshold=0.8,
        stream=StreamConfig(
            batch_size=10,
            pool_size=64,
            reseed_every=2,
            reseed_k=2,
            reseed_min_pool=6,
            consolidate_every=4,
            min_unique_members=5,
            adjust_every=5,
            score_window=256,
            decay=DecayPolicy(factor=0.9, every_batches=6),
            checkpoint_every=3,
            seed=3,
            backend=backend,
        ),
    )
    registry = MetricsRegistry()
    with use_registry(registry):
        engine = ShardedStreamingCluseq.cold_start(
            alphabet_size=ALPHABET_SIZE,
            similarity_threshold=10.0,
            significance_threshold=3,
            max_depth=4,
            config=config,
            state_dir=state_dir,
        )
        for seq in stream.sequences:
            engine.ingest(seq)
        engine.flush()
        engine.checkpoint()
        states = engine.shard_states()
        engine.close()
    files = {
        str(path.relative_to(state_dir)): path.read_bytes()
        for path in sorted(state_dir.rglob("*"))
        if path.is_file()
    }
    return {
        "states": states,
        "files": files,
        "rescued": registry.counter("stream.pool_rescued").value,
    }


def _without_backend_name(data: bytes, backend: str) -> bytes:
    """*data* with the one recorded ``"backend"`` value blanked out."""
    field = json.dumps({"backend": backend}, separators=(",", ":"))[1:-1]
    return data.replace(field.encode("utf-8"), b'"backend":""')


@pytest.mark.parametrize("shards", [1, 2])
def test_reference_and_vectorized_streams_end_identical(
    tmp_path: Path, shards: int
) -> None:
    reference = _run("reference", shards, tmp_path / "reference")
    vectorized = _run("vectorized", shards, tmp_path / "vectorized")

    # The stream must exercise every phase that scores or mutates a
    # cluster model, or the comparison proves little.
    for state in reference["states"]:
        stats = state["stats"]
        assert stats["clusters_spawned"] > 0
        assert stats["decay_events"] > 0
        assert stats["absorbed"] > stats["clusters_spawned"]
    assert sum(s["stats"]["clusters_dismissed"] for s in reference["states"]) > 0
    assert reference["rescued"] > 0
    assert reference["rescued"] == vectorized["rescued"]

    for ref_state, vec_state in zip(reference["states"], vectorized["states"]):
        ref_result, vec_result = ref_state["result"], vec_state["result"]
        assert vec_result["assignments"] == ref_result["assignments"]
        assert [c["cluster_id"] for c in vec_result["clusters"]] == [
            c["cluster_id"] for c in ref_result["clusters"]
        ]
        assert [c["pst"] for c in vec_result["clusters"]] == [
            c["pst"] for c in ref_result["clusters"]
        ]
        assert vec_result["final_log_threshold"] == ref_result["final_log_threshold"]
        assert vec_state["pool"] == ref_state["pool"]
    assert json.dumps(vectorized["states"], sort_keys=True) == json.dumps(
        reference["states"], sort_keys=True
    )

    assert vectorized["files"].keys() == reference["files"].keys()
    checkpoints = [name for name in reference["files"] if "checkpoint" in name]
    assert len(checkpoints) >= shards
    for name, ref_bytes in reference["files"].items():
        assert _without_backend_name(
            vectorized["files"][name], "vectorized"
        ) == _without_backend_name(ref_bytes, "reference"), name
