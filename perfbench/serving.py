"""The ``serve`` workload: a live ``cluseq serve`` under classify + ingest.

Preparation (not timed): fit a 6-cluster model on a 120-sequence draw
of the fit problem and save it. Then, against a server subprocess:

* **set-up** — start the server three times; each time from process
  launch to the reply of one warm-up classify request.
* **phase 1** — closed loop, classify only, on two keep-alive
  connections: the capacity in sequences per second, as the median
  over one-second windows.
* **phase 2** — open loop at a fixed offered rate (never derived from
  phase 1): classify on one connection, ingest on the other, so the
  ingest order is deterministic. Latency is timed from each request's
  due time, less the generator's own lateness (send time after both the
  due time and the previous reply). A session whose generator fell
  behind is void and is run again on a fresh server; the run fails its
  check only if every try was void.
* **probe** — classify a labelled probe set; the labels must equal
  ``ClusteringResult.predict`` on a local replica of the model that
  replays the same ingest requests in order.
"""

from __future__ import annotations

import asyncio
import bisect
import gc
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Any

from inputs import SERVE_CLUSTERS, clustered_database, sample_rng
from tracing import END, NAME, PARENT, START, TAG, layer_metrics, load_jsonl, similarity_calls
from workloads import Checks, ari, check_tail, child_env, peak_rss_mb, percentile

#: The served model is one deployment, the same for every run: it is
#: fitted on the draw of this seed, and ``--seed`` draws the traffic
#: (queries, ingests, probes). Models fitted on different draws differ
#: in cluster count, which moves classify cost by 1.5x between seeds.
MODEL_SEED = 0
SEQS_PER_REQUEST = 4
INGEST_SEQS_PER_REQUEST = 1
#: Offered phase-2 rates (requests/s), fixed. On a 2-vCPU host a lone
#: classify takes about 6 ms (it waits out the 2 ms batching window),
#: and a one-sequence ingest about 3 ms. Classify requests are due every 25 ms
#: and each ingest mid-way between two of them, so no request waits for
#: another by the schedule's construction even when the host runs slow,
#: and the classify right after an ingest pays exactly the re-flatten
#: the ingest caused. Tighter schedules put requests on the edge of
#: overlapping, and the tail then flips between runs with the host's
#: speed (p95 9.5-16.5 ms over ten runs at 100 + 10 req/s; 9.8 vs 12.7 ms
#: medians of two ten-run sets at 50 + 6.25 req/s of two-sequence
#: ingests).
CLASSIFY_RATE = 40.0
#: One ingest per 6 classify intervals, so every ingest is due mid-gap.
INGEST_RATE = CLASSIFY_RATE / 6
#: Shares of ``--seconds`` spent in phase 1 and phase 2 (at 25 s,
#: phase 2 sends 800 classify requests, 80 beyond the p90, and 133
#: ingests, 13 beyond their p90).
PHASE1_SHARE = 0.4
PHASE2_SHARE = 0.8
#: Phase 1 keeps both CPUs busy, so a few seconds in which the host
#: runs other work cut its mean rate: over ten seeds of 5 s each the
#: mean spread 0.32 (quartile distance over median). The median of
#: one-second windows leaves such seconds out.
CAPACITY_WINDOW_S = 1.0
#: The classify tail percentile. The p99 is not used: over five runs of
#: the same code and inputs on a 2-vCPU host (at 100 classify/s) it
#: read 18.7-32.6 ms, as the 1 % slowest requests are the ones host
#: stalls and collector pauses land on. The p95 of 700 requests still
#: spread 0.27 (quartile distance over median) over ten seeds.
TAIL = 0.9
PROBES = 600
SETUP_STARTS = 3
#: A session is void when more than 1 % of its open-loop sends (and more
#: than a few, which host stalls alone cause) left later than half a
#: classify interval after they were due and after the previous reply:
#: such a send lands nearer the next slot than its own, which undoes the
#: schedule's spacing.
MAX_GENERATOR_LAG_S = 0.5 / CLASSIFY_RATE
LATE_SENDS_ALLOWED = 5
SESSION_TRIES = 3
SERVER_START_TIMEOUT_S = 60.0


# -- inputs -------------------------------------------------------------------------


def prepare(seed: int, workdir: str) -> dict[str, Any]:
    """Fit and save the served model; draw queries, ingests and probes."""
    from repro import CLUSEQ, CluseqParams
    from repro.core.persistence import save_result
    from repro.experiments.common import scaled_params

    train = clustered_database(sample_rng(MODEL_SEED, 1000), 120, SERVE_CLUSTERS)
    model = CLUSEQ(CluseqParams(**scaled_params(train))).fit(train)
    path = os.path.join(workdir, "serve-model.json")
    save_result(model, path, alphabet=train.alphabet)
    probes = clustered_database(sample_rng(seed, 1001), PROBES, SERVE_CLUSTERS)
    queries = clustered_database(sample_rng(seed, 1002), 200, SERVE_CLUSTERS)
    ingests = clustered_database(sample_rng(seed, 1003), 200, SERVE_CLUSTERS)

    def text(db: Any) -> list[str]:
        return [record.as_string() for record in db]

    return {
        "model": path,
        "probes": text(probes),
        "probe_labels": list(probes.labels),
        "queries": text(queries),
        "ingests": text(ingests),
    }


# -- a keep-alive HTTP/1.1 client ------------------------------------------------------


class Connection:
    """One persistent connection; one request in flight at a time."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def call(self, path: str, payload: Any, request_id: str = "") -> tuple[int, Any]:
        """POST *payload* as JSON; returns the status and the parsed body
        (``None`` when the body is not JSON)."""
        body = json.dumps(payload).encode()
        head = (
            f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
            f"X-Request-Id: {request_id}\r\n\r\n"
        )
        self.writer.write(head.encode("ascii") + body)
        return await self._reply()

    async def get(self, path: str) -> Any:
        self.writer.write(f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("ascii"))
        return (await self._reply())[1]

    async def _reply(self) -> tuple[int, Any]:
        await self.writer.drain()
        lines = (await self.reader.readuntil(b"\r\n\r\n")).decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        data = await self.reader.readexactly(length)
        try:
            return status, json.loads(data) if data else None
        except json.JSONDecodeError:
            return status, None

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class Tally:
    """Requests attempted and failed (503s, errors, torn responses)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.rejected = 0
        self.errors = 0
        self.torn = 0

    @property
    def failed(self) -> int:
        return self.rejected + self.errors + self.torn

    def outcome(self, status: int, body: Any, key: str, expected: int) -> bool:
        """Count one reply; True when it is whole and successful."""
        self.attempted += 1
        if status == 503:
            self.rejected += 1
            return False
        if status != 200 or not isinstance(body, dict):
            self.errors += 1
            return False
        if len(body.get(key) or []) != expected:
            self.torn += 1
            return False
        return True


# -- server processes ------------------------------------------------------------------


class Server:
    """A server subprocess and how long it took to become ready."""

    def __init__(self, argv: list[str], ready_file: str, env: dict[str, str]) -> None:
        if os.path.exists(ready_file):
            os.remove(ready_file)
        self.log = open(ready_file + ".log", "wb")
        self.launched = time.time()
        self.process = subprocess.Popen(argv, env=env, stdout=self.log, stderr=self.log)
        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        address = ""
        while not address:
            if self.process.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("server did not start")
            time.sleep(0.002)
            if os.path.exists(ready_file):
                with open(ready_file, encoding="utf-8") as handle:
                    address = handle.read().strip()
        host, port = address.split()
        self.host, self.port = host, int(port)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()


def start_server(root: str, inputs: dict[str, Any], workdir: str, traced: bool) -> Server:
    ready = os.path.join(workdir, "ready")
    if traced:
        argv = [sys.executable, os.path.join(root, "perfbench", "serve_traced.py"),
                inputs["model"], ready, os.path.join(workdir, "spans.jsonl"),
                os.path.join(workdir, "summary.json")]
    else:
        argv = [sys.executable, "-m", "repro.cli", "serve", inputs["model"],
                "--port", "0", "--ready-file", ready]
    return Server(argv, ready, child_env(root))


async def warm_up(server: Server, query: str) -> None:
    conn = await Connection.open(server.host, server.port)
    try:
        status, _ = await conn.call("/v1/classify", {"sequences": [query]}, "warm-up")
        if status != 200:
            raise RuntimeError(f"warm-up classify answered {status}")
    finally:
        await conn.close()


def measure_setup(root: str, inputs: dict[str, Any], workdir: str) -> list[float]:
    """Seconds from server launch to the warm-up reply, per start."""
    samples = []
    for _ in range(SETUP_STARTS):
        server = start_server(root, inputs, workdir, traced=False)
        try:
            asyncio.run(warm_up(server, inputs["queries"][0]))
            samples.append(time.time() - server.launched)
        finally:
            server.stop()
    return samples


# -- load phases ---------------------------------------------------------------------------


def _batch(pool: list[str], index: int, size: int) -> list[str]:
    return [pool[(index * size + i) % len(pool)] for i in range(size)]


async def phase1(server: Server, queries: list[str], seconds: float, tally: Tally) -> float:
    """Closed loop on two connections; returns sequences per second,
    the median over windows of about ``CAPACITY_WINDOW_S``."""
    conns = [await Connection.open(server.host, server.port) for _ in range(2)]
    done: list[float] = []
    started = time.perf_counter()
    deadline = started + seconds

    async def client(conn: Connection, offset: int) -> None:
        index = offset
        while time.perf_counter() < deadline:
            status, body = await conn.call(
                "/v1/classify", {"sequences": _batch(queries, index, SEQS_PER_REQUEST)},
                f"p1-{index}",
            )
            if tally.outcome(status, body, "results", SEQS_PER_REQUEST):
                done.append(time.perf_counter())
            index += 2

    await asyncio.gather(*(client(conn, i) for i, conn in enumerate(conns)))
    for conn in conns:
        await conn.close()
    windows = [0] * max(1, int(seconds / CAPACITY_WINDOW_S))
    width = seconds / len(windows)
    for finished in done:
        slot = int((finished - started) / width)
        if slot < len(windows):
            windows[slot] += 1
    return statistics.median(windows) * SEQS_PER_REQUEST / width


async def _open_loop(
    conn: Connection,
    path: str,
    key: str,
    batches: list[list[str]],
    rate: float,
    start: float,
    prefix: str,
    tally: Tally,
) -> dict[str, list[Any]]:
    """Send *batches* on a fixed schedule; one request in flight."""
    latency: list[float] = []
    service: list[float] = []
    lag: list[float] = []
    replies: list[Any] = []
    ids: list[str] = []
    previous_done = start
    clock = time.perf_counter
    for index, batch in enumerate(batches):
        due = start + index / rate
        wait = due - clock()
        if wait > 0:
            await asyncio.sleep(wait)
        sent = clock()
        # The generator's own lateness: past the due time and past the
        # previous reply (waiting for that reply is the system's doing).
        late = sent - max(due, previous_done)
        lag.append(late)
        request_id = f"{prefix}-{index}"
        status, body = await conn.call(path, {"sequences": batch}, request_id)
        previous_done = clock()
        if tally.outcome(status, body, key, len(batch)):
            latency.append(previous_done - due - late)
            service.append(previous_done - sent)
            ids.append(request_id)
            replies.append(body[key])
        else:
            replies.append(None)
    return {"latency": latency, "service": service, "lag": lag, "replies": replies,
            "ids": ids}


async def phase2(server: Server, inputs: dict[str, Any], seconds: float, tally: Tally) -> dict[str, Any]:
    classify_n = int(CLASSIFY_RATE * seconds)
    ingest_n = int(INGEST_RATE * seconds)
    classify = [_batch(inputs["queries"], i, SEQS_PER_REQUEST) for i in range(classify_n)]
    ingest = [_batch(inputs["ingests"], i, INGEST_SEQS_PER_REQUEST) for i in range(ingest_n)]
    conn_c = await Connection.open(server.host, server.port)
    conn_i = await Connection.open(server.host, server.port)
    # Ingests are due half a classify interval after a classify.
    start = time.perf_counter() + 0.01
    ingest_start = start + 0.5 / CLASSIFY_RATE
    c_out, i_out = await asyncio.gather(
        _open_loop(conn_c, "/v1/classify", "results", classify, CLASSIFY_RATE, start,
                   "c", tally),
        _open_loop(conn_i, "/v1/stream/ingest", "assignments", ingest, INGEST_RATE,
                   ingest_start, "i", tally),
    )
    stats = await conn_c.get("/v1/stats")
    await conn_c.close()
    await conn_i.close()
    return {"classify": c_out, "ingest": i_out, "ingest_batches": ingest, "stats": stats}


async def probe(server: Server, probes: list[str], tally: Tally) -> list[Any]:
    """Served cluster id per probe sequence (``None`` = outlier)."""
    conn = await Connection.open(server.host, server.port)
    labels: list[Any] = []
    try:
        for index in range(0, len(probes), SEQS_PER_REQUEST):
            batch = probes[index : index + SEQS_PER_REQUEST]
            status, body = await conn.call("/v1/classify", {"sequences": batch},
                                           f"probe-{index}")
            if tally.outcome(status, body, "results", len(batch)):
                labels += [row.get("cluster") for row in body["results"]]
            else:
                labels += ["missing"] * len(batch)
    finally:
        await conn.close()
    return labels


def replica_labels(model: str, ingest_batches: list[list[str]], probes: list[str]) -> tuple[list[Any], list[Any]]:
    """Replay the ingests on a local copy of the model, in order; returns
    the replica's ingest assignments and its ``predict`` per probe."""
    from repro.serve.registry import load_model_payload

    result, alphabet, _ = load_model_payload(model)
    assigned = [
        [result.assign_and_absorb(list(alphabet.encode(list(seq)))) for seq in batch]
        for batch in ingest_batches
    ]
    return assigned, [result.predict(alphabet.encode(list(seq))) for seq in probes]


def label_mismatches(served: list[Any], expected: list[Any]) -> int:
    """Probes whose served label differs from the replica's."""
    if len(served) != len(expected):
        return max(len(served), len(expected))
    return sum(1 for a, b in zip(served, expected) if a != b)


# -- the workload ------------------------------------------------------------------------


def _late_sends(mixed: dict[str, Any]) -> int:
    lag = mixed["classify"]["lag"] + mixed["ingest"]["lag"]
    return sum(1 for value in lag if value > MAX_GENERATOR_LAG_S)


def _on_time(mixed: dict[str, Any]) -> bool:
    sends = len(mixed["classify"]["lag"]) + len(mixed["ingest"]["lag"])
    return _late_sends(mixed) <= max(LATE_SENDS_ALLOWED, 0.01 * sends)


def session(
    root: str, inputs: dict[str, Any], workdir: str, seconds: float, traced: bool,
    tally: Tally,
) -> dict[str, Any]:
    """One fresh server through phase 1, phase 2 and the probe."""
    server = start_server(root, inputs, workdir, traced=traced)
    # The load generator must not stall itself: no collector pauses in
    # this process while it drives the server.
    gc.disable()
    try:
        asyncio.run(warm_up(server, inputs["queries"][0]))
        capacity = asyncio.run(phase1(server, inputs["queries"], PHASE1_SHARE * seconds, tally))
        mixed = asyncio.run(phase2(server, inputs, PHASE2_SHARE * seconds, tally))
        served = asyncio.run(probe(server, inputs["probes"], tally))
        rss = peak_rss_mb(str(server.process.pid))
    finally:
        gc.enable()
        server.stop()
    return {"capacity": capacity, "mixed": mixed, "served": served, "rss": rss}


def run_serve(root: str, seed: int, seconds: float, trace: bool, workdir: str) -> dict[str, Any]:
    checks = Checks()
    tally = Tally()
    inputs = prepare(seed, workdir)
    result: dict[str, Any] = {"checks": checks, "info": {}}
    setup = [] if trace else measure_setup(root, inputs, workdir)
    untraced_capacity = None
    if trace:
        server = start_server(root, inputs, workdir, traced=False)
        try:
            asyncio.run(warm_up(server, inputs["queries"][0]))
            untraced_capacity = asyncio.run(
                phase1(server, inputs["queries"], PHASE1_SHARE * seconds, Tally())
            )
        finally:
            server.stop()
    # A session whose generator fell behind is void, not slow: it is run
    # again on a fresh server, and the run fails only if every try is.
    voided = 0
    while True:
        run = session(root, inputs, workdir, seconds, trace, tally)
        if _on_time(run["mixed"]) or voided == SESSION_TRIES - 1:
            break
        voided += 1
    capacity, mixed, served, rss = run["capacity"], run["mixed"], run["served"], run["rss"]
    late = _late_sends(mixed)
    checks.add("serve.generator_on_time", _on_time(mixed))
    classify, ingest = mixed["classify"], mixed["ingest"]
    replica_ingest, expected = replica_labels(
        inputs["model"], mixed["ingest_batches"], inputs["probes"]
    )
    mismatches = label_mismatches(served, expected)
    checks.add("serve.probe_labels_match_replica", mismatches == 0)
    checks.add("serve.ingest_assignments_match_replica", ingest["replies"] == replica_ingest)
    checks.add("serve.classify_tail_samples", check_tail(len(classify["latency"]), TAIL))
    checks.add("serve.ingest_tail_samples", check_tail(len(ingest["latency"]), 0.9))
    latency_ms = sorted(1e3 * x for x in classify["latency"])
    result["info"].update(
        {"classify_ms": {q: percentile(latency_ms, q) for q in (0.9, 0.95, 0.99)},
         "generator_late_sends": late, "voided_sessions": voided,
         "stats": mixed["stats"], "setup_samples": setup, "capacity_seq_per_s": capacity}
    )
    result.update(
        {
            "e2e": {
                "seq_per_s": capacity,
                "p50_ms": 1e3 * percentile(classify["latency"], 0.5),
                "tail_ms": 1e3 * percentile(classify["latency"], TAIL),
                "ari": ari(inputs["probe_labels"], served),
                "peak_rss_mb": rss,
            },
            "setup": setup,
            "attempted": tally.attempted,
            "failed": tally.failed + mismatches,
        }
    )
    if trace:
        _serve_layers(result, workdir, mixed, capacity, untraced_capacity)
    return result


def _serve_layers(
    result: dict[str, Any],
    workdir: str,
    mixed: dict[str, Any],
    capacity: float,
    untraced_capacity: float,
) -> None:
    """Per-layer serve figures from the traced server's spans."""
    tracer = load_jsonl(os.path.join(workdir, "spans.jsonl"))
    with open(os.path.join(workdir, "summary.json"), encoding="utf-8") as handle:
        summary = json.load(handle)
    spans = tracer.spans
    checks: Checks = result["checks"]
    checks.add("trace.wrappers_restored", summary["restored"])
    checks.add(
        "trace.similarity_calls_match",
        summary["registry_similarity_calls"] == similarity_calls(tracer),
    )
    names = [s[NAME] for s in spans]
    checks.add(
        "trace.flushes_match_stats",
        summary["batching"]["flushes"] == names.count("serve.classify_batch"),
    )
    checks.add(
        "trace.submits_match_stats",
        summary["batching"]["requests"] == names.count("serve.submit"),
    )

    phase2_ids = set(mixed["classify"]["ids"]) | set(mixed["ingest"]["ids"])
    child = tracer.child_times()

    def duration(i: int) -> float:
        return spans[i][END] - spans[i][START]

    # Link each phase-2 classify submit to the flush that answered it:
    # the last classify_batch to end before the submit returned. Flushes
    # run one at a time on the dispatcher task, so this is unambiguous.
    flushes = sorted(
        (i for i, s in enumerate(spans) if s[NAME] == "serve.classify_batch"),
        key=lambda i: spans[i][END],
    )
    flush_ends = [spans[i][END] for i in flushes]
    phase2_submits = [
        i for i, s in enumerate(spans) if s[NAME] == "serve.submit" and s[TAG] in phase2_ids
    ]
    answered: set[int] = set()
    queue_wait = 0.0
    for i in phase2_submits:
        position = bisect.bisect_right(flush_ends, spans[i][END]) - 1
        if position < 0 or spans[flushes[position]][START] < spans[i][START]:
            continue
        flush = flushes[position]
        answered.add(flush)
        queue_wait += duration(i) - duration(flush)
    absorbs = [
        i for i, s in enumerate(spans)
        if s[NAME] == "serve.assign_and_absorb" and s[TAG] in phase2_ids
    ]
    handled = sum(
        duration(i) for i, s in enumerate(spans)
        if s[NAME] == "serve.handle" and s[TAG][0] in phase2_ids
    )
    covered = sum(duration(i) for i in phase2_submits) + sum(duration(i) for i in absorbs)
    # Flats are invalidated only by ingest, so flattens inside phase-2
    # classify flushes are the re-flattens ingest caused.
    reflattens = 0
    for s in spans:
        if s[NAME] == "backends.flatten":
            parent = s[PARENT]
            while parent >= 0 and parent not in answered:
                parent = spans[parent][PARENT]
            reflattens += parent >= 0
    client = sum(mixed["classify"]["service"]) + sum(mixed["ingest"]["service"])
    ingest_latency = mixed["ingest"]["latency"]
    layers = layer_metrics(tracer, "serve.handle")
    layers.update(
        {
            "serve.classify_batch_s": sum(duration(i) - child[i] for i in answered),
            "serve.batch_occupancy": len(phase2_submits) / len(answered) if answered else 0.0,
            "serve.queue_wait_s": queue_wait,
            "serve.assign_and_absorb_s": sum(duration(i) - child[i] for i in absorbs),
            "serve.http_s": client - handled,
            "serve.reflattens": reflattens,
            "serve.rejected": mixed["stats"]["batching"]["rejected"],
            "serve.ingest_p50_ms": 1e3 * percentile(ingest_latency, 0.5),
            "serve.ingest_p90_ms": 1e3 * percentile(ingest_latency, 0.9),
            "trace.unattributed_frac": (handled - covered) / handled if handled else 0.0,
            "trace.overhead_frac": untraced_capacity / capacity - 1.0,
        }
    )
    result["layers"] = layers
    result["tracer"] = tracer
    result["info"]["fidelity"] = summary
    result["info"]["mean_occupancy_stats"] = mixed["stats"]["batching"]["mean_occupancy"]
