"""Print every end-to-end metric, with its unit, for every workload.

    python3 perfbench/report.py --seed 0 --seconds 25

Runs ``perfbench/bench.py --trace 0`` once per workload, each in its own
process as the benchmark's load shape requires, then tabulates the
results with the error rate (failed over attempted invocations).  Exits
nonzero if any workload failed to run or any invocation failed its check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args(argv)
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "bench.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{name}: benchmark exited with status {proc.returncode}")
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])

    print(f"\n{'workload':<9} {'metric':<13} {'value':>14} unit")
    for name, result in results.items():
        for metric, m in result["metrics"].items():
            print(f"{name:<9} {metric:<13} {m['value']:>14.6g} {m['unit']}")
        rate = result["failed"] / result["attempted"]
        print(f"{name:<9} {'error_rate':<13} {rate:>14.6g} 1 "
              f"({result['failed']} of {result['attempted']} invocations)")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
