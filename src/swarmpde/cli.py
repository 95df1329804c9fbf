"""Command line entry points: run, crossval, sweep, validate.

Every command reads one JSON configuration and writes its artifacts
under the output directory.  A command either completes, exit status 0,
or stops on a failed check (``errors.CheckFailed``) or a raised error;
``main`` alone turns either into the exit status and failure.json,
``{"status": "error", "kind": ..., "messages": [...]}``, also printed on
stdout, so CI can consume runs without parsing logs.  The kinds:

- ``config_invalid``, exit 2: the configuration does not load or breaks
  a rule (``sweep --levels`` below 3 too);
- ``hypothesis_violation``, exit 1: the sampled data assumptions fail.
  ``validate`` writes hypotheses.json first; ``run``, ``crossval`` and
  ``sweep`` judge every setup they build before they integrate any;
- ``invariant_violation``, exit 1: ``run``'s operators did not conserve
  mass to roundoff, or the biomass identity broke before the cutoff
  engaged;
- ``envelope_violation``, exit 1: a ``run`` envelope margin is negative
  or NaN (judged after the invariants);
- ``crossval_violation``, exit 1: a ``crossval`` relative L2 error
  exceeds ``crossval_tolerance`` (crossval.json is written first, with
  ``passed: false``);
- the class name of any other package error, exit 1:
  ``NonFiniteEvaluation``, ``DegenerateDiffusion``, ``RatioUndefined``,
  ``HypothesisViolation``, ``NegativeInitialData``, ``GridMismatch``,
  ``NegativeField``, ``UnstableStep``, ``StepBudgetExceeded``,
  ``ConfigMismatch`` or ``InadmissibleTestFunction``;
- ``MemoryError``, exit 1;
- ``output_unwritable``, exit 1: the output directory or an artifact
  cannot be written.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import config as config_mod
from . import diagnostics as diag
from . import reduced_system
from .errors import CheckFailed, ConfigInvalid, ConfigMismatch, SwarmPDEError, fail_if
from .solver_core import run
from .spatial_grid import field_to_binary, field_to_csv, prolong, sq_l2

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2

# the discrete operators conserve mass to roundoff (gate C8's tolerance)
CONSERVATION_TOL = 1e-12
# until the cutoff engages, the shadow biomass tracks the reconstructed one
# to the scheme's error: their largest gap over linf_Lambda, per sample
IDENTITY_TOL = 1e-3


def _json_dump(data, path) -> None:
    Path(path).write_text(
        json.dumps(data, sort_keys=True, indent=2, allow_nan=True) + "\n",
        encoding="utf-8",
    )


def _write_failure(out_dir: Path, kind: str, messages) -> None:
    payload = {"status": "error", "kind": kind, "messages": list(messages)}
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        _json_dump(payload, out_dir / "failure.json")
    except OSError:
        pass
    print(json.dumps(payload, sort_keys=True))


def _manifest(cfg, result, report, margins, wall_time) -> dict:
    # ``margins`` are the summary's: each margin, None where skipped
    record = result.record
    constants = dict(record.constants)
    constants["K0"] = record.K0
    return {
        "config_hash": config_mod.config_hash(cfg),
        "hypothesis_report_hash": config_mod.config_hash(report),
        "constants": constants,
        "margins": margins,
        "tstar_crossed": bool(result.tstar_crossed),
        "theta_activations": int(record.theta_activations),
        "steps": result.steps,
        "wall_time": wall_time,
    }


def _negative_margins(margins) -> list:
    bad = []
    for name, m in margins.items():
        if not m.skipped and not m.margin >= 0.0:  # NaN fails too
            bad.append(f"{name}: margin {m.margin:.3e} at t={m.t_at_min:g}")
    return bad


def _broken_invariants(record) -> list:
    bad = []
    if not record.conservation_max <= CONSERVATION_TOL:  # NaN fails too
        bad.append(f"conservation: residual {record.conservation_max:.3e} "
                   f"> {CONSERVATION_TOL:g}")
    s = record.series
    # once the cutoff has engaged the identity is not exact, so not judged;
    # a NaN gap fails
    held = (s["theta_activations"] > 0.0) | (
        s["identity_residual"] <= IDENTITY_TOL * s["linf_Lambda"])
    if not held.all():
        k = int(np.argmin(held))
        bad.append(f"identity: gap {s['identity_residual'][k]:.3e} > {IDENTITY_TOL:g} "
                   f"* linf_Lambda {s['linf_Lambda'][k]:.3e} at t={s['t'][k]:g}, "
                   f"first of {int(np.count_nonzero(~held))} samples")
    return bad


def _write_snapshots(result, cfg, out_dir: Path) -> None:
    stride = cfg.output.snapshot_stride
    sgrid = result.setup.sgrid
    for idx, s in enumerate(result.samples):
        if idx % stride and idx != len(result.samples) - 1:
            continue
        tag = f"{idx:05d}"
        for name, values in (("biomass", s.lambda_rec), ("swimmer", s.v)):
            field_to_csv(values, sgrid, out_dir / f"{name}_{tag}.csv")
            field_to_binary(values, sgrid, out_dir / f"{name}_{tag}.bin")


def cmd_run(cfg, out_dir: Path) -> None:
    t0 = time.monotonic()
    setup, report = config_mod.build_run_setup(cfg)
    # run writes nothing read from a sample's bins, so it keeps none
    result = run(dataclasses.replace(setup, store_u=False))
    wall = time.monotonic() - t0
    record = result.record
    margins = diag.envelope_report(record)
    summary = record.summary_dict(margins)
    record.to_csv(out_dir / "diagnostics.csv")
    _json_dump(
        _manifest(cfg, result, report, summary["margins"], wall),
        out_dir / "manifest.json",
    )
    _json_dump(summary, out_dir / "summary.json")
    if cfg.output.write_snapshots:
        _write_snapshots(result, cfg, out_dir)
    fail_if("invariant_violation", _broken_invariants(record))
    fail_if("envelope_violation", _negative_margins(margins))


def cmd_crossval(cfg, out_dir: Path) -> None:
    # refused from the configuration, before any set-up work
    if cfg.model.family != "exponential":
        # the age structure integrates out only for exponential weights
        raise ConfigMismatch(f"the {cfg.model.family} family has no closed reduced "
                             "system: crossval needs the exponential family")
    rspec = reduced_system.reduced_from_model(
        config_mod.build_model_spec(cfg), mu_const=cfg.model.mu, m0=cfg.model.m0,
        tau=cfg.model.tau)
    plan = config_mod.level_plan(cfg, 2, cells_factor=1)
    for level in plan:
        reduced_system.refuse_inflow(rspec.xi, level.alpha)
    # every level is built and judged before any is integrated
    result = reduced_system.cross_validate_setups(
        [config_mod.build_run_setup(level)[0] for level in plan], rspec)
    payload = dataclasses.asdict(result)
    payload["tolerance"] = tol = cfg.crossval_tolerance
    # a NaN error fails too
    bad = [f"{name}: {payload[name]:.3e} > tolerance {tol:g}"
           for name in ("rel_l2_Lambda", "rel_l2_v") if not payload[name] <= tol]
    payload["passed"] = not bad
    _json_dump(payload, out_dir / "crossval.json")
    fail_if("crossval_violation", bad)


def cmd_sweep(cfg, out_dir: Path, levels: int) -> None:
    if levels < 3:
        raise ConfigInvalid(["sweep: need at least 3 alpha levels"])
    # every level is built and judged before any is integrated
    setups = [config_mod.build_run_setup(level)[0]
              for level in config_mod.level_plan(cfg, levels, cells_factor=2)]
    runs = []
    for setup in setups:
        # the weak residual reads each sample's age moments, taken while its
        # bins are live, so the level keeps no bins
        moments = diag.AgeMoments(diag.make_test_functions(
            setup.T, setup.agegrid.a_max, setup.sgrid, k_max=cfg.diagnostics.test_k_max,
        ), setup.spec, setup.agegrid)
        result = run(dataclasses.replace(setup, store_u=False), record=False,
                     on_sample=moments.take)
        residual = max([0.0] + [wr.residual for wr in diag.weak_residual(
            result.samples, moments, setup.spec, setup.agegrid, setup.sgrid)])
        runs.append((setup.agegrid.alpha, setup, result, residual))

    # per level pair, the L2-in-time Cauchy difference of (biomass, v), both
    # levels prolonged onto the finest mesh
    fine = runs[-1][1].sgrid
    diffs = []
    times = np.asarray([s.t for s in runs[0][2].samples])
    for (_, s1, r1, _), (_, s2, r2, _) in zip(runs, runs[1:]):
        sq = [[sq_l2(prolong(getattr(f1, name), s1.sgrid, fine)
                     - prolong(getattr(f2, name), s2.sgrid, fine), fine)
               for f1, f2 in zip(r1.samples, r2.samples)] for name in ("lambda_rec", "v")]
        diffs.append(tuple(math.sqrt(float(np.trapezoid(row, times))) for row in sq))

    with open(out_dir / "sweep.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("level,alpha,cells,diff_Lambda,diff_v,residual\n")
        for k, (alpha, setup, _, residual) in enumerate(runs):
            d_l, d_v = diffs[k] if k < len(diffs) else (math.nan, math.nan)
            cells = "x".join(str(c) for c in setup.sgrid.cells)
            fh.write(f"{k},{alpha:.17g},{cells},{d_l:.17g},{d_v:.17g},{residual:.17g}\n")

    ratios_l, ratios_v = ([b[j] / a[j] if a[j] > 0 else math.nan
                           for a, b in zip(diffs, diffs[1:])] for j in (0, 1))
    alphas = [r[0] for r in runs]
    residuals = [r[3] for r in runs]
    payload = {
        "alphas": alphas,
        "diff_Lambda": [d[0] for d in diffs],
        "diff_v": [d[1] for d in diffs],
        "cauchy_ratios_Lambda": ratios_l,
        "cauchy_ratios_v": ratios_v,
        "residuals": residuals,
        "residual_orders": diag.observed_orders(residuals, alphas),
    }
    _json_dump(payload, out_dir / "sweep.json")


def cmd_validate(cfg, out_dir: Path) -> None:
    report = config_mod.hypothesis_report(cfg, config_mod.build_model_spec(cfg))
    _json_dump(report.to_dict(), out_dir / "hypotheses.json")
    print(json.dumps({"passed": report.all_passed, **report.to_dict()["passed"]},
                     sort_keys=True))
    fail_if("hypothesis_violation", report.failures())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="swarmpde",
        description="age-structured swarmer/swimmer colony simulator",
    )
    parser.add_argument("command",
                        choices=["run", "crossval", "sweep", "validate"])
    parser.add_argument("--config", required=True, help="JSON configuration file")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--levels", type=int, default=3,
                        help="number of refinement levels (sweep)")
    args = parser.parse_args(argv)

    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    out_dir = Path(args.out) if args.out else None
    try:
        data = config_mod.load_config(args.config)
        if out_dir is None:
            # best-effort output location for failure artifacts when the
            # configuration itself does not validate
            output = data.get("output") if isinstance(data, dict) else None
            hint = output.get("dir") if isinstance(output, dict) else None
            if isinstance(hint, str) and hint:
                out_dir = Path(hint)
        cfg = config_mod.RunConfig.from_dict(data)
        out_dir = out_dir or Path(cfg.output.dir)
        # made before any set-up, so that an unwritable one costs no work
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "run":
            cmd_run(cfg, out_dir)
        elif args.command == "crossval":
            cmd_crossval(cfg, out_dir)
        elif args.command == "sweep":
            cmd_sweep(cfg, out_dir, args.levels)
        else:
            cmd_validate(cfg, out_dir)
        return EXIT_OK
    except CheckFailed as exc:
        kind, messages = exc.kind, exc.messages
    except SwarmPDEError as exc:
        kind, messages = type(exc).__name__, [str(exc)]
    except MemoryError as exc:
        # numpy raises its own subclass; the kind names the builtin
        kind, messages = "MemoryError", [str(exc)]
    except OSError as exc:
        # load_config refuses an unreadable configuration, so this is a write
        kind, messages = "output_unwritable", [str(exc)]
    _write_failure(out_dir or Path("."), kind, messages)
    return EXIT_CONFIG if kind == "config_invalid" else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
