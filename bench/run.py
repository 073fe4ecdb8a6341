"""semihyp benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload order24 --seed 3 --seconds 25 --trace 0

Runs `bench/worker.py` in a child process with this checkout's `src/` on
PYTHONPATH, waits for it, adds the child's peak RSS and the share of jobs
whose output checked out, and prints two lines: the run's labels (Python
version, CPU count, platform, seed, pass count) and, last, one JSON object
with `correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones of BENCHMARK.json, with `--trace 1` the
per-layer ones.  Exits non-zero without a result when the checkout has no
`src/semihyp`, when the child fails, or when a metric is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="semihyp benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--record", action="store_true",
                        help="record the default-seed output digests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "semihyp" / "cli.py").is_file():
        print(f"error: {ROOT} has no src/semihyp to benchmark", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    command += ["--tiny"] * args.tiny + ["--record"] * args.record
    try:
        child = subprocess.run(command, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish in {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if child.returncode != 0:
        print(f"error: worker exited with {child.returncode}", file=sys.stderr)
        return child.returncode if child.returncode > 0 else 1
    result = json.loads(child.stdout.strip().splitlines()[-1])

    metrics = dict(result["metrics"])
    attempted, failed = result["attempted"], result["failed"]
    if not args.trace:
        # ru_maxrss is in KiB on Linux; the worker is this process's only child
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        metrics["ok_ratio"] = (attempted - failed) / attempted
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1

    print(json.dumps({"labels": result["labels"]}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
