"""Span recording around public functions, for the traced benchmark run.

The benchmark attributes time to the program's layers from outside: it
replaces public functions and methods, at the namespace they are called
from, with wrappers that record one span per call (name, start, end,
parent span, request id) into an in-memory list. Nothing inside the
program is edited. :meth:`Tracer.uninstall` puts every original back
and reports any attribute it could not restore.

A layer's *self time* is its spans' duration minus the time covered by
their direct child spans. Spans of async functions (the serve request
path) are kept off the parent stack, because coroutines interleave on
one thread; the serve metrics link them by interval instead.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import time
from collections.abc import Callable
from typing import Any

# Span record layout (a list, for cheap in-place completion).
NAME, START, END, PARENT, TAG = range(5)


class Tracer:
    """Holds the spans of one traced run and the wrappers that make them."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self._installed: list[tuple[Any, str, Any, Any]] = []

    # -- installing wrappers -------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        tag: Callable[..., Any] | None = None,
    ) -> None:
        """Record a span named *name* around every call of ``owner.attr``.

        *tag*, when given, is called with the call's result and
        arguments, and what it returns is stored on the span.
        """
        original = getattr(owner, attr)
        if isinstance(owner, type) and not inspect.isfunction(
            owner.__dict__.get(attr)
        ):
            raise TypeError(f"{owner.__name__}.{attr} is not a plain method")
        self.replace(owner, attr, self.traced(original, name, tag))

    def traced(
        self,
        original: Callable[..., Any],
        name: str,
        tag: Callable[..., Any] | None = None,
    ) -> Callable[..., Any]:
        """A wrapper of *original* that records spans named *name*."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                record = [name, clock(), 0.0, -1, None]
                spans.append(record)
                try:
                    result = await original(*args, **kwargs)
                    if tag is not None:
                        record[TAG] = tag(result, *args, **kwargs)
                    return result
                finally:
                    record[END] = clock()

            return async_wrapper

        @functools.wraps(original)
        def sync_wrapper(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            record = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(record)
            stack.append(index)
            try:
                result = original(*args, **kwargs)
                if tag is not None:
                    record[TAG] = tag(result, *args, **kwargs)
                return result
            finally:
                stack.pop()
                record[END] = clock()

        return sync_wrapper

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr`` to *value* until :meth:`uninstall`."""
        original = getattr(owner, attr)
        setattr(owner, attr, value)
        self._installed.append((owner, attr, original, value))

    def uninstall(self) -> list[str]:
        """Restore every wrapped attribute; returns those left wrapped."""
        leftovers = []
        while self._installed:
            owner, attr, original, wrapper = self._installed.pop()
            if getattr(owner, attr) is not wrapper:
                leftovers.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            setattr(owner, attr, original)
        return leftovers

    def child_times(self) -> list[float]:
        """Per span, the time its direct children cover."""
        child_time = [0.0] * len(self.spans)
        for record in self.spans:
            parent = record[PARENT]
            if parent >= 0:
                child_time[parent] += record[END] - record[START]
        return child_time

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        child_time = self.child_times()
        totals: dict[str, float] = {}
        for index, record in enumerate(self.spans):
            own = record[END] - record[START] - child_time[index]
            totals[record[NAME]] = totals.get(record[NAME], 0.0) + own
        return totals

    def outermost(self, name: str) -> list[int]:
        """Indices of the spans named *name* not nested in another one."""
        spans = self.spans
        return [
            i for i, s in enumerate(spans)
            if s[NAME] == name and not _has_ancestor(spans, s, name)
        ]

    def dump_jsonl(self, path: str) -> None:
        """Write every span as one JSON line (times relative to the first)."""
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for index, record in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": record[NAME],
                            "start": record[START] - origin,
                            "end": record[END] - origin,
                            "parent": record[PARENT],
                            "tag": record[TAG],
                        }
                    )
                )
                handle.write("\n")


def _has_ancestor(spans: list[list[Any]], record: list[Any], name: str) -> bool:
    parent = record[PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


# -- the layer map ---------------------------------------------------------------


def _matrix_tag(result: Any, scorer: Any, psts: Any, sequences: Any, *rest: Any, **kwargs: Any) -> list[int]:
    """(pairs, cells) of a (trees x sequences) scoring call."""
    return [len(psts) * len(sequences), len(psts) * sum(len(seq) for seq in sequences)]


def _one_vs_many_tag(result: Any, scorer: Any, psts: Any, encoded: Any) -> list[int]:
    return [len(psts), len(psts) * len(encoded)]


def _many_vs_one_tag(result: Any, scorer: Any, pst: Any, sequences: Any) -> list[int]:
    return [len(sequences), sum(len(seq) for seq in sequences)]


def install_layers(tracer: Tracer) -> None:
    """Wrap the public functions that bound each layer of the program.

    Each wrapper sits in the namespace the caller looks the name up in,
    so ``similarity`` is wrapped where ``core.cluseq``, ``core.seeding``
    and ``stream.engine`` imported it, and methods are wrapped on their
    classes.
    """
    from repro.core import cluseq, seeding
    from repro.core.backends import dispatch, flatten
    from repro.core.backends.dispatch import PstBatchScorer
    from repro.core.pst import ProbabilisticSuffixTree
    from repro.shard import engine as shard_engine
    from repro.shard import plan, router
    from repro.stream import engine as stream_engine
    from repro.stream.journal import StreamJournal

    # core.similarity — the reference per-pair scorer. The cluseq call
    # site is named apart: its calls inside fit are the recluster
    # fallback and stale rescores.
    tracer.wrap(cluseq, "similarity", "similarity.cluseq")
    tracer.wrap(seeding, "similarity", "similarity")
    tracer.wrap(stream_engine, "similarity", "similarity")
    # core.cluseq phases that have a public function behind them.
    tracer.wrap(cluseq.CLUSEQ, "fit", "cluseq.fit")
    tracer.wrap(cluseq, "select_seeds", "cluseq.seed")
    tracer.wrap(cluseq, "consolidate", "cluseq.consolidate")
    # The §4.6 valley finders are looked up in this dict at call time.
    tracer.replace(
        cluseq,
        "VALLEY_METHODS",
        {
            key: tracer.traced(finder, "cluseq.threshold")
            for key, finder in cluseq.VALLEY_METHODS.items()
        },
    )
    # core.pst
    tracer.wrap(ProbabilisticSuffixTree, "add_sequence", "pst.add_sequence")
    tracer.wrap(ProbabilisticSuffixTree, "decay_counts", "pst.decay")
    tracer.wrap(ProbabilisticSuffixTree, "merge_counts", "pst.merge_counts")
    # core.backends
    tracer.wrap(flatten, "flatten_pst", "backends.flatten")
    tracer.wrap(PstBatchScorer, "flat_for", "backends.flat_for")
    tracer.wrap(dispatch, "prepare_stack", "backends.prepare")
    tracer.wrap(PstBatchScorer, "score_matrix_full", "backends.matrix", _matrix_tag)
    tracer.wrap(PstBatchScorer, "prescore_matrix", "backends.matrix", _matrix_tag)
    tracer.wrap(
        PstBatchScorer, "score_one_vs_many", "backends.matrix", _one_vs_many_tag
    )
    tracer.wrap(
        PstBatchScorer, "score_many_vs_one", "backends.matrix", _many_vs_one_tag
    )
    tracer.wrap(PstBatchScorer, "prescore_matrix", "backends.prescore", _matrix_tag)
    # stream
    tracer.wrap(stream_engine.StreamingCluseq, "ingest_batch", "stream.ingest_batch")
    tracer.wrap(StreamJournal, "append_batch", "stream.journal_append")
    tracer.wrap(
        stream_engine.StreamingCluseq,
        "checkpoint",
        "stream.checkpoint",
        lambda nbytes, *args, **kwargs: nbytes,
    )
    # shard
    tracer.wrap(
        shard_engine.ShardedStreamingCluseq, "ingest_batch", "shard.ingest_batch"
    )
    for cls in (router.HashRouter, router.PstRouter):
        tracer.wrap(cls, "route", "shard.route")
    tracer.wrap(plan, "context_tree_distance", "shard.distance")
    tracer.wrap(shard_engine, "plan_merges", "shard.plan")
    tracer.wrap(shard_engine.ShardEngine, "apply_plan", "shard.apply_plan")


#: The benchmark's request id of the request a serve coroutine works for.
REQUEST_ID: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "request_id", default=None
)


def install_serve_layers(tracer: Tracer) -> None:
    """Wrap the serve request path (in the traced server process).

    ``ServeApp.handle`` publishes the client's ``X-Request-Id`` in a
    context variable, so the spans of the coroutine serving a request
    (``submit``, ``assign_and_absorb``) carry its id as their tag.
    """
    from repro.core.cluseq import ClusteringResult
    from repro.serve.app import ServeApp
    from repro.serve.batching import MicroBatcher
    from repro.serve.registry import ModelVersion

    handle = ServeApp.handle

    async def handle_with_id(app: Any, request: Any) -> Any:
        token = REQUEST_ID.set(request.headers.get("x-request-id"))
        try:
            return await handle(app, request)
        finally:
            REQUEST_ID.reset(token)

    def request_id(*args: Any, **kwargs: Any) -> str | None:
        return REQUEST_ID.get()

    tracer.replace(ServeApp, "handle", functools.wraps(handle)(handle_with_id))
    tracer.wrap(ServeApp, "handle", "serve.handle", _response_tag)
    tracer.wrap(MicroBatcher, "submit", "serve.submit", request_id)
    tracer.wrap(
        ModelVersion,
        "classify_batch",
        "serve.classify_batch",
        lambda result, version, sequences, *rest, **kw: len(sequences),
    )
    tracer.wrap(
        ClusteringResult, "assign_and_absorb", "serve.assign_and_absorb", request_id
    )


def _response_tag(response: Any, app: Any, request: Any) -> list[Any]:
    return [request.headers.get("x-request-id"), response.status]


def load_jsonl(path: str) -> Tracer:
    """A tracer holding the spans a traced server dumped to *path*."""
    tracer = Tracer()
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            row = json.loads(line)
            tracer.spans.append(
                [row["name"], row["start"], row["end"], row["parent"], row["tag"]]
            )
    return tracer


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, root: str) -> dict[str, float]:
    """Per-layer counts and self times of the spans in *tracer*.

    *root* names the workload's entry-point span; its self time (time in
    the entry point that no layer span covers) is the unattributed part.
    """
    spans = tracer.spans
    own = tracer.self_times()
    names = [s[NAME] for s in spans]

    def calls(name: str) -> int:
        return names.count(name)

    outer_matrix = [spans[i] for i in tracer.outermost("backends.matrix")]
    flat_for = calls("backends.flat_for")
    flattened_in_flat_for = sum(
        1 for s in spans
        if s[NAME] == "backends.flatten" and s[PARENT] >= 0
        and spans[s[PARENT]][NAME] == "backends.flat_for"
    )
    prescored = sum(s[TAG][0] for s in spans if s[NAME] == "backends.prescore")
    fit_reference = sum(
        1 for s in spans
        if s[NAME] == "similarity.cluseq" and _has_ancestor(spans, s, "cluseq.fit")
    )
    checkpoints = [s[TAG] for s in spans if s[NAME] == "stream.checkpoint"]
    child_time = tracer.child_times()
    roots = tracer.outermost(root)
    root_total = sum(spans[i][END] - spans[i][START] for i in roots)
    root_own = root_total - sum(child_time[i] for i in roots)
    ingest = tracer.outermost("stream.ingest_batch")
    return {
        "similarity.calls": calls("similarity") + calls("similarity.cluseq"),
        "similarity.self_s": own.get("similarity", 0.0) + own.get("similarity.cluseq", 0.0),
        "cluseq.stale_rescore_ratio": _ratio(fit_reference, prescored),
        "cluseq.seed_s": own.get("cluseq.seed", 0.0),
        "cluseq.consolidate_s": own.get("cluseq.consolidate", 0.0),
        "cluseq.threshold_s": own.get("cluseq.threshold", 0.0),
        "pst.add_sequence.calls": calls("pst.add_sequence"),
        "pst.add_sequence_s": own.get("pst.add_sequence", 0.0),
        "pst.decay_s": own.get("pst.decay", 0.0),
        "pst.merge_counts_s": own.get("pst.merge_counts", 0.0),
        "backends.flatten.calls": calls("backends.flatten"),
        "backends.flatten_s": own.get("backends.flatten", 0.0),
        "backends.prepare_s": own.get("backends.prepare", 0.0),
        "backends.flat_hit_ratio": (
            1.0 - _ratio(flattened_in_flat_for, flat_for) if flat_for else 0.0
        ),
        "backends.matrix.calls": len(outer_matrix),
        "backends.matrix_s": own.get("backends.matrix", 0.0),
        "backends.matrix_cells": sum(s[TAG][1] for s in outer_matrix),
        "stream.ingest_batch_s": sum(spans[i][END] - spans[i][START] for i in ingest),
        "stream.journal_append_s": own.get("stream.journal_append", 0.0),
        "stream.checkpoint_s": own.get("stream.checkpoint", 0.0),
        "stream.checkpoint_bytes": sum(checkpoints) / len(checkpoints) if checkpoints else 0.0,
        "shard.route_s": own.get("shard.route", 0.0),
        "shard.distance.calls": calls("shard.distance"),
        "shard.distance_s": own.get("shard.distance", 0.0),
        "shard.plan_s": own.get("shard.plan", 0.0),
        "shard.apply_plan_s": own.get("shard.apply_plan", 0.0),
        "trace.unattributed_frac": _ratio(root_own, root_total),
    }


def similarity_calls(tracer: Tracer) -> int:
    """What the program's ``similarity.calls`` counter should read: one
    per reference call plus one per pair the batch kernel scored (one
    kernel call per outermost scorer call)."""
    spans = tracer.spans
    reference = sum(1 for s in spans if s[NAME] in ("similarity", "similarity.cluseq"))
    return reference + sum(spans[i][TAG][0] for i in tracer.outermost("backends.matrix"))
