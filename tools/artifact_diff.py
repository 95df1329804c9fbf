"""Compare the artifacts of two checkouts, command by command.

    python3 tools/artifact_diff.py --checkout ../parent-clone

Runs each command below in a fresh ``python -m swarmpde.cli`` process,
once with this checkout's ``src/`` and once with the other's, on the
workload configurations of ``perfbench/workloads.py`` (this checkout's)
at seeds 0 and 3:

- ``run`` on ``ref1d`` and ``plane2d``,
- ``sweep --levels 3`` on ``ladder``,
- ``crossval`` on ``oracle``,
- ``validate`` on all four, which writes ``hypotheses.json``.

Prints "identical" when every pair of output directories holds the same
files with the same bytes and the commands exit alike.  Otherwise it
prints, per differing file, the largest relative change of each CSV
column and of each JSON leaf that moved, and exits 1.  ``manifest.json``'s
``wall_time`` is not compared.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402

SEEDS = (0, 3)
# (command, workload, extra arguments)
COMMANDS = (
    ("run", "ref1d", []),
    ("run", "plane2d", []),
    ("sweep", "ladder", ["--levels", "3"]),
    ("crossval", "oracle", []),
    ("validate", "ref1d", []),
    ("validate", "plane2d", []),
    ("validate", "ladder", []),
    ("validate", "oracle", []),
)
UNCOMPARED = {"manifest.json": ("wall_time",)}


def rel_change(x: float, y: float) -> float:
    """|x - y| relative to the larger magnitude; 0 for equal values (NaN
    equals NaN), inf where they differ and one is not finite."""
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def _number(value):
    # the float of a CSV cell or JSON leaf, or None if it is no number
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _change(a, b):
    # the relative change between two values, None if they are equal
    x, y = _number(a), _number(b)
    if x is None or y is None:
        return None if a == b else math.inf
    change = rel_change(x, y)
    return change if change > 0.0 else None


def _leaves(node, path=""):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for k, value in enumerate(node):
            yield from _leaves(value, f"{path}[{k}]")
    else:
        yield path, node


def _json_changes(a: Path, b: Path) -> dict:
    skip = UNCOMPARED.get(a.name, ())
    left, right = ({path: v for path, v in _leaves(json.loads(p.read_text(encoding="utf-8")))
                    if path not in skip} for p in (a, b))
    changes = {}
    for path in sorted(left.keys() | right.keys()):
        if path not in left or path not in right:
            changes[path] = math.inf
        elif (change := _change(left[path], right[path])) is not None:
            changes[path] = change
    return changes


def _csv_changes(a: Path, b: Path) -> dict:
    (head_a, *rows_a), (head_b, *rows_b) = (
        list(csv.reader(p.read_text(encoding="utf-8").splitlines())) for p in (a, b))
    if head_a != head_b:
        return {"header": math.inf}
    if len(rows_a) != len(rows_b):
        return {"rows": math.inf}
    changes = {}
    for row_a, row_b in zip(rows_a, rows_b):
        for name, x, y in zip(head_a, row_a, row_b):
            if (change := _change(x, y)) is not None:
                changes[name] = max(changes.get(name, 0.0), change)
    return changes


def compare_dirs(a: Path, b: Path) -> list:
    """The differences between the artifacts of the directories ``a`` and
    ``b``, one line each; empty when they hold the same files with the
    same bytes (``manifest.json``'s ``wall_time`` aside)."""
    lines = []
    for name in sorted({p.name for d in (a, b) if d.is_dir() for p in d.iterdir()}):
        fa, fb = a / name, b / name
        if not (fa.is_file() and fb.is_file()):
            lines.append(f"{name}: only in {a if fa.is_file() else b}")
            continue
        if fa.read_bytes() == fb.read_bytes():
            continue
        if name.endswith(".json"):
            changes = _json_changes(fa, fb)
            if not changes and name in UNCOMPARED:
                continue
        elif name.endswith(".csv"):
            changes = _csv_changes(fa, fb)
        else:
            changes = {}
        if not changes:
            lines.append(f"{name}: bytes differ")
        for key, change in changes.items():
            lines.append(f"{name} {key}: largest relative change {change:.3g}")
    return lines


def run_command(checkout: Path, argv: list, cfg: dict, work: Path) -> int:
    """Run ``swarmpde <argv>`` of ``checkout`` on ``cfg`` in a fresh
    process, with its config and outputs under ``work``; the exit status."""
    work.mkdir(parents=True)
    config = work / "cfg.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    return subprocess.run(
        [sys.executable, "-m", "swarmpde.cli", argv[0], "--config", str(config),
         "--out", str(work / "out"), *argv[1:]],
        cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", required=True, type=Path,
                        help="the other checkout, whose src/ runs the same commands")
    args = parser.parse_args(argv)
    other = args.checkout.resolve()
    differ = False
    with tempfile.TemporaryDirectory() as tmp:
        for command, workload, extra in COMMANDS:
            for seed in SEEDS:
                cfg = WORKLOADS[workload].config(seed)
                work = Path(tmp) / f"{command}-{workload}-{seed}"
                codes = [run_command(checkout, [command, *extra], cfg, work / side)
                         for side, checkout in (("here", ROOT), ("other", other))]
                lines = compare_dirs(work / "here" / "out", work / "other" / "out")
                if codes[0] != codes[1]:
                    lines.insert(0, f"exit status {codes[0]} here, {codes[1]} there")
                differ |= bool(lines)
                print(f"{command} {workload} seed {seed} (exit {codes[0]}): "
                      + ("differs" if lines else "identical"))
                for line in lines:
                    print(f"  {line}")
    print("differs" if differ else "identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
