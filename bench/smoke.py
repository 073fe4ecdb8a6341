"""Smoke test of the benchmark at tiny sizes.

    python3 bench/smoke.py

Runs every workload with `--tiny` at `--trace 0` and `--trace 1` and checks
that every metric BENCHMARK.json declares is printed with its unit, that no
job failed, and that the benchmark refuses to run, without printing a
result, in a directory holding only BENCHMARK.json and `bench/`.  Takes
about half a minute.  Exits 1 on the first mismatch.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "bench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=170)


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in declared["workloads"]:
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            name = workload["name"]
            out = run(ROOT, "--workload", name, "--seed", "7", "--seconds", "1",
                      "--trace", trace, "--tiny")
            if out.returncode != 0:
                problems.append(f"{name} trace {trace}: exit {out.returncode}: {out.stderr}")
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in declared[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace {trace}: metrics {sorted(set(got) ^ set(want))}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{name} trace {trace}: {result['failed']} failed jobs")
            if trace == "0" and result["metrics"]["ok_ratio"]["value"] != 1:
                problems.append(f"{name}: ok_ratio is not 1")
            print(f"{name} trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} jobs, {result['failed']} failed")

    bare = HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        out = run(bare, "--workload", "order24", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if out.returncode == 0 or '"metrics"' in out.stdout:
        problems.append("the benchmark ran in a directory without src/semihyp")
    else:
        print(f"bare directory: exit {out.returncode}, no result")

    for line in problems:
        print(f"FAIL {line}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
