"""One set-up of a workload's engine in a fresh process.

Imports what the workload imports, builds its engine as the workload
does, and prints the wall-clock time at which the engine is ready. The
launcher subtracts the time it started this process, so the figure
covers interpreter start, imports and engine construction, and no
input generation.

    python perfbench/setup_probe.py fit|stream|shard STATE_DIR
"""

from __future__ import annotations

import sys
import time


def main(workload: str, state_dir: str) -> None:
    import workloads

    if workload == "fit":
        from repro import CLUSEQ, CluseqParams

        CLUSEQ(CluseqParams())
        engine = None
    elif workload == "stream":
        engine = workloads.new_stream_engine(state_dir)
    elif workload == "shard":
        engine = workloads.new_shard_engine()
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    print(repr(time.time()), flush=True)
    if engine is not None:
        engine.close()


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
