"""Record one point of the benchmark trajectory as BENCH_<short-sha>.json.

    python3 tools/bench_record.py --seed 0 --seconds 25
    python3 tools/bench_record.py --seed 0 --seconds 25 --checkout ../other-clone

Runs ``perfbench/bench.py --workload W --seed S --seconds N --trace T``
of the checkout as a subprocess, once per workload with tracing off (the
end-to-end metrics) and once with tracing on (the per-layer metrics),
and parses what it prints: the ``env`` line, the ``median ... quartiles
... n=`` lines and the JSON object on the last line.  The file lands at
the root of the repository this script belongs to, named after the
checkout's commit; a checkout whose ``src/`` or ``perfbench/`` differ
from that commit gets the suffix ``-dirty``.  Exits nonzero if a run
fails or any invocation fails its check.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ref1d", "plane2d", "ladder", "oracle")
SPREAD = re.compile(r"^\s+(\w+): median (\S+), quartiles (\S+?)\.\.(\S+), n=(\d+)$")


def parse_stdout(text: str) -> dict:
    """The env record, the spreads by name (median, q1, q3, n) and the
    result object of one ``bench.py`` stdout."""
    lines = text.splitlines()
    env, spreads = None, {}
    for line in lines[:-1]:
        if line.startswith("env "):
            env = json.loads(line[4:])
        elif m := SPREAD.match(line):
            spreads[m.group(1)] = {"median": float(m.group(2)), "q1": float(m.group(3)),
                                   "q3": float(m.group(4)), "n": int(m.group(5))}
    return {"env": env, "spreads": spreads, "result": json.loads(lines[-1])}


def workload_record(plain: dict, traced: dict) -> dict:
    """One workload's entry from its untraced and its traced run: each
    end-to-end metric's value (with median, quartiles and n where bench.py
    prints its spread), the raw medians, the slowdown and the per-layer
    metrics."""
    spreads = plain["spreads"]
    end_to_end = {name: {**m, **spreads.get(name, {})}
                  for name, m in plain["result"]["metrics"].items()}
    return {
        "end_to_end": end_to_end,
        "raw": {name[4:]: s for name, s in spreads.items() if name.startswith("raw_")},
        "slowdown": spreads.get("slowdown"),
        "per_layer": traced["result"]["metrics"],
        "attempted": plain["result"]["attempted"] + traced["result"]["attempted"],
        "failed": plain["result"]["failed"] + traced["result"]["failed"],
    }


def _git(checkout: Path, *args) -> str:
    return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="source checkout to measure (default: this repository)")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    sha = _git(checkout, "rev-parse", "--short", "HEAD")
    dirty = bool(_git(checkout, "status", "--porcelain", "--", "src", "perfbench"))
    record = {"commit": sha, "dirty": dirty, "seed": args.seed, "seconds": args.seconds,
              "env": None, "workloads": {}}
    for name in WORKLOADS:
        runs = []
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, "perfbench/bench.py", "--workload", name, "--seed",
                 str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=checkout, capture_output=True, text=True)
            if proc.returncode or not proc.stdout.strip():
                sys.stderr.write(proc.stderr)
                print(f"{name}: bench.py --trace {trace} exited with status {proc.returncode}")
                return proc.returncode or 1
            runs.append(parse_stdout(proc.stdout))
        record["env"] = record["env"] or runs[0]["env"]
        record["workloads"][name] = workload_record(*runs)
        print(f"{name}: " + ", ".join(f"{k} {m['value']:.6g}" for k, m in
                                      record["workloads"][name]["end_to_end"].items()))
    out = ROOT / f"BENCH_{sha}{'-dirty' if dirty else ''}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out.name}")
    return 0 if all(w["failed"] == 0 for w in record["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
