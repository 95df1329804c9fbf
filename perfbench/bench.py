"""swarmpde benchmark: drives ``swarmpde.cli.main`` on one seeded workload.

Usage, from the root of a source checkout:

    python3 perfbench/bench.py --workload ref1d --seed 0 --seconds 25 --trace 0

Load shape: one process per workload, a closed loop of one invocation at
a time, single-threaded, BLAS pinned to one thread.  A first, untimed
invocation on a tiny configuration of the same workload absorbs lazy
imports.  Every timed invocation is checked against the repository's own
acceptance thresholds; a failed check counts as a failed invocation.
Timings are corrected for the machine's momentary speed by a yardstick
timed around each of them (see yardstick.py).  Only ``oracle`` counts
solver steps when tracing is off, for its pinned-dt check.

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced invocations and reports the
per-layer metrics from spans around the public calls of each module,
plus the tracing overhead.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import spans
from workloads import WORKLOADS, check_outputs
from yardstick import Yardstick

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 15

# name -> (unit, better); the untraced run emits exactly these
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "accuracy_err": ("1", "lower"),
}


class ProgramMissing(RuntimeError):
    pass


def import_program():
    """Import swarmpde from this checkout's src/, never from elsewhere."""
    src = (ROOT / "src").resolve()
    if not (src / "swarmpde" / "__init__.py").is_file():
        raise ProgramMissing(f"no swarmpde package under {src}")
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("swarmpde")
    if src not in Path(pkg.__file__).resolve().parents:
        raise ProgramMissing(f"swarmpde resolved to {pkg.__file__}, outside {src}")
    return importlib.import_module("swarmpde.cli"), importlib.import_module("swarmpde.config")


# -- environment record ------------------------------------------------------

def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def _blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    import ctypes

    libs = sorted({line.split()[-1] for line in _read("/proc/self/maps").splitlines()
                   if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    caches = {}
    for idx in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        level, kind = _read(f"{idx}/level"), _read(f"{idx}/type")
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches[f"L{level}"] = _read(f"{idx}/size")
    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "L2": caches.get("L2", "unknown"),
        "L3": caches.get("L3", "unknown"),
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


# -- invocations ---------------------------------------------------------------

def _bytes_under(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Runner:
    """Invokes the CLI on one workload configuration inside a work directory."""

    def __init__(self, cli, workload, cfg: dict, work: Path, tag: str):
        self.cli, self.workload, self.cfg = cli, workload, cfg
        self.config_path = work / f"{tag}.json"
        self.config_path.write_text(json.dumps(cfg), encoding="utf-8")
        self.out_dir = work / f"{tag}-out"

    def invoke(self, tracer=None) -> dict:
        """One timed invocation; ``tracer`` None means tracing off."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        if tracer is None and self.workload.counts_steps():
            tracer = spans.Tracer(spans.STEP_HOOKS)
        argv = self.workload.argv(self.config_path, self.out_dir)
        with tracer or contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception:  # a crash is a failed invocation, not a crashed benchmark
                traceback.print_exc()
                code = None
            wall = time.perf_counter() - t0
        steps = tracer.calls("solver_core.step") if tracer else None
        check = check_outputs(self.workload, self.cfg, code, self.out_dir, steps)
        if not check.ok:
            print(f"invocation failed: {'; '.join(check.problems)}", file=sys.stderr)
        return {"wall_s": wall, "check": check, "steps": steps,
                "bytes_written": _bytes_under(self.out_dir) if self.out_dir.exists() else 0}


def _setup_seconds(config_mod, runner: Runner, repeats: int, yard: Yardstick) -> tuple:
    """Raw and speed-corrected seconds of each of ``repeats`` set-ups."""
    raw, corrected = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        cfg = config_mod.parse_config(runner.config_path)
        config_mod.build_run_setup(cfg, check_hypotheses=runner.workload.check_hypotheses())
        raw.append(time.perf_counter() - t0)
        corrected.append(raw[-1] * yard.scale())
    return raw, corrected


def _spread(values: list) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
            setup_repeats: int = SETUP_REPEATS) -> dict:
    """Run one workload for ``seconds`` and return the result record.

    ``tiny`` measures the warm-up configuration itself; the smoke tests
    use it.  The record holds the result object, printed as the last line
    of output, under "result" and the human-readable detail under "detail".
    """
    cli, config_mod = import_program()
    workload = WORKLOADS[name]
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{name}-", dir=work_root) as tmp:
        work = Path(tmp)
        warm = Runner(cli, workload, workload.config(seed, tiny=True), work, "warmup")
        warm.invoke()
        runner = warm if tiny else Runner(cli, workload, workload.config(seed), work, "run")
        if not trace:
            setup_raw, setup_s = _setup_seconds(config_mod, runner, setup_repeats,
                                                Yardstick())
        yard = Yardstick()

        plain, traced, layers = [], [], []
        t_end = time.perf_counter() + seconds
        while True:
            plain.append(runner.invoke())
            plain[-1]["scale"] = yard.scale()
            if trace:
                tr = spans.Tracer()
                traced.append(runner.invoke(tr))
                traced[-1]["scale"] = yard.scale()
                layers.append(spans.layer_metrics(tr, traced[-1]["bytes_written"]))
            if time.perf_counter() >= t_end:
                break

    done = plain + traced
    failed = sum(not d["check"].ok for d in done)
    wall = _spread([d["wall_s"] * d["scale"] for d in plain])
    detail = {
        "workload": name,
        "wall_s": wall,
        "raw_wall_s": _spread([d["wall_s"] for d in plain]),
        "slowdown": _spread([1.0 / d["scale"] for d in done]),
        "steps": sorted({d["steps"] for d in done if d["steps"] is not None}),
        "error_rate": failed / len(done),
        "accuracy": {d["check"].accuracy_name for d in done},
    }
    if trace:
        metrics = spans.median_metrics(layers)
        metrics["trace.overhead_frac"] = (
            statistics.median(d["wall_s"] * d["scale"] for d in traced)
            / wall["median"] - 1.0)
        detail["traced_wall_s"] = _spread([d["wall_s"] * d["scale"] for d in traced])
        detail["missing_hooks"] = tr.missing
        detail["spans"] = tr.table()   # of the last traced invocation
        units = spans.PER_LAYER
    else:
        detail["setup_s"] = _spread(setup_s)
        detail["raw_setup_s"] = _spread(setup_raw)
        metrics = {
            "wall_s": wall["median"],
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "accuracy_err": statistics.median(d["check"].accuracy_err for d in done),
        }
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": len(done),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k][0]} for k in units},
    }
    return {"result": result, "detail": detail}


def _report(record: dict, env: dict) -> None:
    d = record["detail"]
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {d['workload']}: solver steps per invocation "
          f"{d['steps'] or 'not counted'}, "
          f"error_rate {d['error_rate']:g}, accuracy_err is "
          f"{'/'.join(sorted(d['accuracy']))}")
    for key in ("wall_s", "raw_wall_s", "traced_wall_s", "setup_s", "raw_setup_s",
                "slowdown"):
        if key in d:
            s = d[key]
            print(f"  {key}: median {s['median']:.4f}, quartiles "
                  f"{s['q1']:.4f}..{s['q3']:.4f}, n={s['n']}")
    if d.get("missing_hooks"):
        print(f"  missing hooks (their metrics are absent): {d['missing_hooks']}")
    for caller, span, calls, total, own in d.get("spans", [])[:12]:
        print(f"  span {span:<42} from {caller:<34} calls {calls:>7} "
              f"total {total:9.4f} s self {own:9.4f} s")
    for name, m in record["result"]["metrics"].items():
        print(f"  {name} = {m['value']} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # pinned before numpy loads: the 2D tensordot would otherwise start
    # OpenBLAS threads that compete with the timed thread on a small machine
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    _report(record, environment(args.seed))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
