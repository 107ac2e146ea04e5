"""Run one maxpe CLI command with spans around its calls into the library.

    PYTHONPATH=src python3 perfbench/cli_shim.py SPANS_PATH SPAWN_TIME <cli args...>

SPAWN_TIME is the parent's time.perf_counter() just before it started this
process (a system-wide monotonic clock on Linux), so the "cli.start" span
covers interpreter start and the import of maxpe.cli. The spans, the cache
counters of bounded_composition_count and the time the command finished go
to SPANS_PATH as JSON; the parent times interpreter exit from there. The
exit code is the command's own.
"""

import json
import sys
import time

import tracing

import maxpe.cli
import maxpe.combinatorics
import maxpe.inference
import maxpe.lehmann


def main() -> int:
    ready = time.perf_counter()
    spans_path, spawn_time, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    tracer = tracing.Tracer()
    tracer.end(tracer.begin("cli.start", start=spawn_time), end=ready)
    targets = tracing.library_targets(
        {"cli": maxpe.cli, "inference": maxpe.inference, "lehmann": maxpe.lehmann}
    )
    counter = maxpe.combinatorics.bounded_composition_count
    before = counter.cache_info()
    with tracer.patched(targets):
        index = tracer.begin("cli.main", start=ready)
        code = maxpe.cli.main(argv)
        tracer.end(index, error=None if code == 0 else f"exit {code}")
    after = counter.cache_info()
    sys.stdout.flush()
    with open(spans_path, "w") as handle:
        json.dump(
            {
                "spans": tracer.spans,
                "bcc_hits": after.hits - before.hits,
                "bcc_misses": after.misses - before.misses,
                "finished": time.perf_counter(),
            },
            handle,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
