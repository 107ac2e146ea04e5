"""maxpe benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload cli_exact --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; maxpe is imported from its `src`.
One client runs operations in a closed loop, a round at a time, until
--seconds have passed and at least MIN_OPS operations are done. Outputs
are checked after the loop, outside the timed region. With --trace 0 the
end-to-end metrics are reported; with --trace 1 rounds alternate between
plain and traced, and the per-layer metrics come from the traced rounds.
Human-readable lines come first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"

MIN_OPS = 100  # p90 needs ten operations beyond it
HARD_LIMIT_S = 140.0  # stop starting rounds after this long, whatever else holds
SETUP_REPEATS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "solved_frac": "1",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def child_environment() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for name in THREAD_VARS:
        env[name] = "1"
    return env


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(math.ceil(q * len(sorted_values)) - 1, 0)]


def measure_setup(env: dict) -> list[float]:
    """Fresh interpreters importing maxpe.cli; the first one only warms caches."""
    times = []
    for _ in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import maxpe.cli"], cwd=ROOT, env=env,
                       check=True)
        times.append(time.perf_counter() - start)
    return times[1:]


def provenance(maxpe) -> list[str]:
    sha = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True).stdout.strip() or sha
    digest = hashlib.sha256()
    for path in sorted((SRC / "maxpe").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    import mpmath
    import numpy

    return [
        f"maxpe imported from {maxpe.__file__}",
        f"git sha {sha}",
        f"src/maxpe sha256 {digest.hexdigest()[:16]}",
        f"python {platform.python_version()} numpy {numpy.__version__} "
        f"mpmath {mpmath.__version__}",
        f"nproc {len(os.sched_getaffinity(0))}, one client, BLAS/OpenMP threads pinned to 1",
    ]


def run_loop(workload, seed: int, seconds: float, trace: bool, tracing):
    """Closed loop over seeded rounds; in trace mode odd rounds are traced."""
    tracer = tracing.Tracer() if trace else None
    targets = tracing.library_targets(workload.maxpe)
    results = []
    start = time.perf_counter()
    for k, ops in enumerate(workload.rounds(seed, repeat=2 if trace else 1)):
        traced = trace and k % 2 == 1
        with tracer.patched(targets) if traced else contextlib.nullcontext():
            for op in ops:
                if traced:
                    tracer.op = len(results)
                result = workload.execute(op, tracer if traced else None)
                result["traced"] = traced
                results.append(result)
        elapsed = time.perf_counter() - start
        done = elapsed >= seconds and len(results) >= MIN_OPS
        if ((done and not (trace and k % 2 == 0)) or elapsed >= HARD_LIMIT_S):
            break
    return results, time.perf_counter() - start, tracer


def end_to_end(results, verdicts, wall: float, setup: list[float], children: bool) -> dict:
    ok = [r["seconds"] for r, (status, _) in zip(results, verdicts) if status == "ok"]
    # an operation that did not succeed counts as slower than any success;
    # the loop's wall time bounds every operation's latency from above
    latencies = sorted(ok + [wall] * (len(results) - len(ok)))
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return {
        "ops_per_s": len(ok) / wall,
        "latency_p50_s": nearest_rank(latencies, 0.5),
        "latency_p90_s": nearest_rank(latencies, 0.9),
        "solved_frac": len(ok) / len(results),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup),
    }


def per_layer(results, tracer, tracing) -> tuple[dict, list[float]]:
    traced = [r for r in results if r["traced"]]
    plain = [r for r in results if not r["traced"]]
    overhead = 0.0
    if traced:  # a run cut short by HARD_LIMIT_S may have no traced round
        overhead = sum(r["seconds"] for r in traced) / sum(r["seconds"] for r in plain) - 1.0
    counters = {
        "bcc_hits": sum(r["bcc_hits"] for r in traced),
        "bcc_misses": sum(r["bcc_misses"] for r in traced),
    }
    metrics = tracing.layer_metrics(tracer.spans, counters, len(traced), overhead)
    return metrics, tracing.attributed_fractions(tracer.spans)


def open_workload(name: str):
    """Import maxpe from SRC and build the named workload.

    Raises RuntimeError when the sources are missing or the name is unknown.
    """
    if not (SRC / "maxpe" / "__init__.py").is_file():
        raise RuntimeError(f"no maxpe sources under {SRC}; run from a source checkout")
    env = child_environment()
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import maxpe
    import maxpe.cli
    import maxpe.combinatorics
    import maxpe.inference
    import maxpe.lehmann
    import maxpe.null_dist
    import tracing
    from workloads import WORKLOADS

    if Path(maxpe.__file__).resolve().parent != (SRC / "maxpe").resolve():
        raise RuntimeError(f"maxpe imported from {maxpe.__file__}, not {SRC}")
    if name not in WORKLOADS:
        raise RuntimeError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    modules = {"cli": maxpe.cli, "combinatorics": maxpe.combinatorics,
               "inference": maxpe.inference, "lehmann": maxpe.lehmann,
               "null_dist": maxpe.null_dist}
    WORKDIR.mkdir(exist_ok=True)
    return WORKLOADS[name](ROOT, WORKDIR, modules, env), maxpe, tracing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        workload, maxpe, tracing = open_workload(args.workload)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    references = json.loads((HERE / "references.json").read_text())[workload.name]
    for line in provenance(maxpe):
        print(f"# {line}")

    setup = [] if args.trace else measure_setup(workload.child_env)
    workload.prepare()
    results, wall, tracer = run_loop(workload, args.seed, args.seconds, bool(args.trace),
                                     tracing)
    verdicts = workload.classify(results, references)

    counts = {status: 0 for status in ("ok", "unsolved", "failed")}
    for (status, problem), result in zip(verdicts, results):
        counts[status] += 1
        if status == "failed" and counts["failed"] <= 10:
            print(f"# FAILED {result['op']['key']}: {problem}")
    print(f"# {args.workload} seed {args.seed}: {len(results)} operations in {wall:.2f} s "
          f"({counts['ok']} ok, {counts['unsolved']} unsolved, {counts['failed']} failed)")
    unsolved = sorted({r["op"]["shape"] for r, (s, _) in zip(results, verdicts)
                       if s == "unsolved"})
    if unsolved:
        print(f"# unsolved shapes (no reference; invariants not met): {', '.join(unsolved)}")

    if args.trace:
        metrics, attributed = per_layer(results, tracer, tracing)
        tracer.write(WORKDIR / f"trace-{args.workload}-{args.seed}.jsonl")
        if attributed:
            print(f"# traced operations: {len(attributed)}; layer spans cover a median "
                  f"{statistics.median(attributed):.4f} (min {min(attributed):.4f}) "
                  f"of each operation")
    else:
        values = end_to_end(results, verdicts, wall, setup, workload.works_in_children)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
        print(f"# samples: {len(results)} operations, {len(setup)} set-up imports")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")

    print(json.dumps({
        "correct": counts["failed"] == 0,
        "attempted": len(results),
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
