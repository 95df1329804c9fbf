"""Workload configurations and the per-invocation output checks.

Every workload starts from a copy of the acceptance-gate base model
(exponential family, tau=2, mu=0.3, D=0.1 r^2, drift D', xi0=0.4,
a_max=4, box of extent 4).  Seed 0 reproduces the gate configuration
exactly; any other seed scales only the four initial-data amplitudes by
a factor within +-AMP_JITTER, which stays inside the ranges gate C1
draws from.  The jitter is kept small because the adaptive step count
follows the biomass amplitude, and a wide jitter would turn seed-to-seed
differences into timing noise.
"""

from __future__ import annotations

import copy
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

AMP_JITTER = 0.005

# gate C1 draws u_amp, u_cos_eps, v_amp, v_cos_eps from these ranges
C1_RANGES = {
    "u_amp": (0.2, 1.0),
    "u_cos_eps": (0.0, 0.6),
    "v_amp": (0.1, 0.5),
    "v_cos_eps": (0.0, 0.6),
}

CAUCHY_RATIO_MAX = 0.7   # gate C9


def _base() -> dict:
    return {
        "model": {"family": "exponential", "m0": 1.0, "tau": 2.0, "mu": 0.3,
                  "D0": 0.1, "theta": 2.0, "drift": "dprime",
                  "xi0": 0.4, "xi_support": [0.2, 2.0]},
        "alpha": 0.125,
        "a_max": 4.0,
        "domain": {"dim": 1, "extents": [4.0], "cells": [128]},
        "initial": {"u_amp": 0.8, "u_age_scale": 0.5, "u_age_cut": [0.6, 1.0],
                    "u_cos_eps": 0.4, "u_cos_k": 1,
                    "v_amp": 0.3, "v_cos_eps": 0.5, "v_cos_k": 1},
        "time": {"T": 2.0, "sample_dt": 0.02},
        "diagnostics": {"tail_A": [2.0, 3.0]},
        "output": {"dir": "out"},
    }


def _merge(base: dict, over: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in over.items():
        if isinstance(value, dict) and key in out:
            out[key] = {**out[key], **value}
        else:
            out[key] = value
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                 # swarmpde subcommand
    over: dict                   # overrides of the gate base model
    tiny: dict                   # further overrides for the warm-up and smoke test
    levels: int = 0              # sweep levels, 0 for other commands

    def config(self, seed: int, tiny: bool = False) -> dict:
        cfg = _merge(_base(), self.over)
        if tiny:
            cfg = _merge(cfg, self.tiny)
        if seed:
            rng = random.Random(seed)
            for key, (lo, hi) in C1_RANGES.items():
                scaled = cfg["initial"][key] * (1.0 + AMP_JITTER * rng.uniform(-1.0, 1.0))
                cfg["initial"][key] = min(max(scaled, lo), hi)
        return cfg

    def argv(self, config_path: Path, out_dir: Path) -> list:
        argv = [self.command, "--config", str(config_path), "--out", str(out_dir)]
        if self.levels:
            argv += ["--levels", str(self.levels)]
        return argv

    def counts_steps(self) -> bool:
        """Whether the check needs the solver step count (dt is pinned)."""
        return self.command == "crossval"

    def check_hypotheses(self) -> bool:
        """Whether the subcommand validates the data assumptions in set-up."""
        return self.command == "run"


# why each workload exists is recorded in BENCHMARK.json and perfbench/README.md
WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="ref1d", command="run",
            over={"diagnostics": {"tail_A": [2.0, 3.0], "store_u": False}},
            tiny={"domain": {"cells": [16]}, "time": {"T": 0.1, "sample_dt": 0.05}},
        ),
        Workload(
            name="plane2d", command="run",
            over={"domain": {"dim": 2, "extents": [4.0, 4.0], "cells": [128, 128]},
                  "time": {"T": 0.025, "sample_dt": 0.005},
                  "diagnostics": {"tail_A": [2.0], "store_u": False}},
            tiny={"domain": {"dim": 2, "extents": [4.0, 4.0], "cells": [8, 8]},
                  "time": {"T": 0.01, "sample_dt": 0.005}},
        ),
        Workload(
            name="ladder", command="sweep", levels=3,
            over={"domain": {"extents": [4.0], "cells": [32]},
                  "time": {"T": 2.0, "sample_dt": 0.05},
                  "diagnostics": {"tail_A": [], "test_k_max": 2}},
            tiny={"domain": {"extents": [4.0], "cells": [8]},
                  "time": {"T": 0.2, "sample_dt": 0.05}},
        ),
        Workload(
            name="oracle", command="crossval",
            over={"model": {"xi0": 0.0},
                  "initial": {"u_age_cut": [0.3, 0.6], "u_cos_eps": 0.3,
                              "v_cos_eps": 0.2},
                  "time": {"T": 0.25, "sample_dt": 0.05, "fixed_dt": 2.5e-4},
                  "diagnostics": {"tail_A": []}},
            tiny={"domain": {"extents": [4.0], "cells": [16]},
                  "time": {"T": 0.05, "sample_dt": 0.05, "fixed_dt": 2.5e-3}},
        ),
    )
}


@dataclass
class CheckResult:
    ok: bool
    accuracy_err: float = math.nan   # per-workload accuracy figure, lower is better
    accuracy_name: str = ""
    problems: list = field(default_factory=list)


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def check_outputs(workload: Workload, cfg: dict, code: int, out_dir: Path,
                  steps: int | None) -> CheckResult:
    """Judge one invocation by the repository's own acceptance thresholds.

    ``steps`` is the number of full-solver steps the invocation took, or
    None if they were not counted; it is checked only where the user
    pinned dt.
    """
    res = CheckResult(ok=True)
    if code != 0:
        res.problems.append(f"exit status {code}")
    try:
        if workload.command == "run":
            # exit 0 already means every envelope margin is >= 0; read the
            # margins back so a wrong exit status cannot hide a violation
            summary = _read_json(out_dir / "summary.json")
            bad = {k: m for k, m in summary["margins"].items()
                   if m is not None and not m >= 0.0}
            if bad:
                res.problems.append(f"negative envelope margins {bad}")
            res.accuracy_name = "identity_gap"
            res.accuracy_err = float(summary["final_identity_residual"])
        elif workload.command == "sweep":
            payload = _read_json(out_dir / "sweep.json")
            ratios = payload["cauchy_ratios_Lambda"] + payload["cauchy_ratios_v"]
            if not ratios or not all(r <= CAUCHY_RATIO_MAX for r in ratios):
                res.problems.append(f"Cauchy ratios {ratios} exceed {CAUCHY_RATIO_MAX}")
            res.accuracy_name = "cauchy_ratio_max"
            res.accuracy_err = max(ratios) if ratios else math.nan
        elif workload.command == "crossval":
            payload = _read_json(out_dir / "crossval.json")
            if payload.get("passed") is not True:
                res.problems.append("crossval did not pass its tolerance")
            T, fixed_dt = cfg["time"]["T"], cfg["time"]["fixed_dt"]
            expected = 2 * round(T / fixed_dt)   # two alpha levels
            if steps is None:
                res.problems.append("no solver step count: the hook on "
                                    "solver_core.step could not be installed")
            elif steps != expected:
                res.problems.append(f"{steps} solver steps, expected {expected}")
            res.accuracy_name = "oracle_err"
            res.accuracy_err = float(payload["rel_l2_Lambda"])
    except (OSError, KeyError, TypeError, ValueError) as exc:
        res.problems.append(f"unreadable output: {exc!r}")
    if not math.isfinite(res.accuracy_err):
        res.problems.append(f"{res.accuracy_name or 'accuracy'} is {res.accuracy_err}")
    res.ok = not res.problems
    return res
