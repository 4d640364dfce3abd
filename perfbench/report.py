"""Run every workload of BENCHMARK.json once and print its metrics with units.

From the root of a checkout:

    python3 perfbench/report.py [--seed N] [--trace 0|1]

Each workload runs in its own ``run.py`` process (so ``peak_rss_mb`` is that
workload's own), one after the other, for the benchmark's ``run_seconds``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    status = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=HERE.parent,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: run.py exited with {done.returncode}\n{done.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}  correct={result['correct']} trees={result['attempted']} "
              f"failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:32s} {entry['value']:>14.6g} {entry['unit']}")
        status |= 0 if result["correct"] else 1
    return status


if __name__ == "__main__":
    sys.exit(main())
