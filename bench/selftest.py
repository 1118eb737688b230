"""Self-test of the benchmark: python3 bench/selftest.py (from the repo root).

1. Every workload, untraced and traced, is correct and emits exactly the
   metric names BENCHMARK.json declares, each with a number.
2. On a copy of the benchmark whose fixture is corrupted, scan-emit
   reports failed > 0, i.e. fail_frac > 0.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
COPY = BENCH / "_work" / "selftest"


def run(root: Path, workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"FAIL {workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result = run(ROOT, workload, trace)
            names = set(result["metrics"])
            bad = [n for n, m in result["metrics"].items()
                   if not isinstance(m["value"], (int, float))]
            ok = (result["correct"] and result["failed"] == 0
                  and names == expected[trace] and not bad)
            failures += not ok
            print(f"{'PASS' if ok else 'FAIL'} {workload} trace={trace}: "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"missing={sorted(expected[trace] - names)} "
                  f"extra={sorted(names - expected[trace])} non-numeric={bad}")

    shutil.rmtree(COPY, ignore_errors=True)
    shutil.copytree(ROOT / "src", COPY / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH, COPY / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    fixture = COPY / "bench" / "fixtures.json"
    data = json.loads(fixture.read_text())
    data["scan_emit"]["ngt.csv"] = "0" * 64
    fixture.write_text(json.dumps(data))
    result = run(COPY, "scan-emit", 0)
    shutil.rmtree(COPY)
    ok = result["failed"] > 0 and not result["correct"]
    failures += not ok
    print(f"{'PASS' if ok else 'FAIL'} corrupted fixture: "
          f"fail_frac={result['failed'] / result['attempted']:.4f}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
