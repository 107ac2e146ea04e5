"""Record reference outputs for every pool entry of every workload.

    python3 perfbench/record.py            # all workloads
    python3 perfbench/record.py mc_power_grid

Runs each pool entry once at the current source tree and keeps a reference
only for entries whose output passes every invariant, so a cell the code
gets wrong today is scored as unsolved, not pinned as correct. Entries
without a reference are listed under "unsolved_when_recorded".
"""

import json
import subprocess
import sys
import time

import run

PATH = run.HERE / "references.json"


def record(name: str) -> tuple[dict, list[str]]:
    workload, _, _ = run.open_workload(name)
    workload.prepare()
    ops = [op for pool in workload.shapes.values() for op in pool]
    start = time.perf_counter()
    results = [workload.execute(op, None) for op in ops]
    verdicts = workload.classify(results, {})
    references, unsolved = {}, []
    for result, (status, problem) in zip(results, verdicts):
        if status == "ok":
            references[result["op"]["key"]] = workload.reference(result)
        else:
            unsolved.append(f"{result['op']['key']}: {problem}")
    print(f"{name}: {len(references)} references, {len(unsolved)} unsolved, "
          f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    return references, unsolved


def main() -> int:
    names = sys.argv[1:] or ["cli_exact", "exact_power_grid", "mc_power_grid"]
    data = json.loads(PATH.read_text()) if PATH.exists() else {}
    data.setdefault("unsolved_when_recorded", {})
    for name in names:
        data[name], data["unsolved_when_recorded"][name] = record(name)
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True,
                         text=True).stdout.strip()
    data["recorded_at"] = sha or "unknown"
    PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
