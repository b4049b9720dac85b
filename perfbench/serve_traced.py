"""A ``cluseq serve`` twin with the benchmark's span wrappers installed.

Builds :class:`~repro.serve.app.ServeApp` exactly as ``cluseq serve``
does with its default flags (private metrics registry, one model named
``default``, in-process scoring), installs the layer wrappers, serves
until SIGTERM, then restores every wrapper and writes the spans as JSONL
plus a summary of the program's own counters.

    python perfbench/serve_traced.py MODEL READY_FILE SPANS_OUT SUMMARY_OUT
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys

from tracing import Tracer, install_layers, install_serve_layers


def main(model: str, ready_file: str, spans_out: str, summary_out: str) -> int:
    from repro.obs import MetricsRegistry, use_registry
    from repro.serve import ModelRegistry, ServeApp

    tracer = Tracer()
    install_layers(tracer)
    install_serve_layers(tracer)
    metrics = MetricsRegistry()
    try:
        with use_registry(metrics):
            models = ModelRegistry()
            models.load("default", model)

            async def serve() -> dict[str, object]:
                app = ServeApp(models, model_name="default")
                stop = asyncio.Event()
                loop = asyncio.get_running_loop()
                for signum in (signal.SIGINT, signal.SIGTERM):
                    loop.add_signal_handler(signum, stop.set)
                try:
                    host, port = await app.start("127.0.0.1", 0)
                    with open(ready_file + ".tmp", "w", encoding="utf-8") as handle:
                        handle.write(f"{host} {port}\n")
                    os.replace(ready_file + ".tmp", ready_file)
                    await stop.wait()
                finally:
                    await app.close()
                return app.batcher.stats.to_dict()

            batching = asyncio.run(serve())
    finally:
        leftovers = tracer.uninstall()
    tracer.dump_jsonl(spans_out)
    with open(summary_out, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "batching": batching,
                "restored": not leftovers,
                "registry_similarity_calls": metrics.counter("similarity.calls").value,
            },
            handle,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:5]))
