"""Command line entry points: run, crossval, sweep, validate.

Every command reads one JSON configuration, writes its artifacts under
the output directory, and encodes success in the exit status: 0 only if
no error was raised, the sampled hypotheses hold, the operators
conserved mass to roundoff and the biomass identity held before the
cutoff engaged (``run``) and no envelope margin came out negative, so CI
can consume runs without parsing logs.  Every command that integrates
judges the hypotheses on each setup it builds before it integrates any
of them, and fails as ``run`` does.  Failures are mirrored as a
machine-readable failure.json.
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
from .errors import ConfigInvalid, ConfigMismatch, SwarmPDEError
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


def _write_failure(out_dir: Path, kind: str, messages) -> dict:
    payload = {"status": "error", "kind": kind, "messages": list(messages)}
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        _json_dump(payload, out_dir / "failure.json")
    except OSError:
        pass
    print(json.dumps(payload, sort_keys=True))
    return payload


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


def _failed_hypotheses(report) -> list:
    witnesses = report.to_dict()["witnesses"]
    return [f"{name}: {witnesses[name]}"
            for name, ok in sorted(report.passed.items()) if not ok]


def _judged_setups(cfgs, out_dir: Path):
    # every config's (RunSetup, HypothesisReport), all built and judged
    # before anything is integrated; None once the failure of the first
    # whose data fail the hypotheses is written: the envelopes are built
    # from the sampled constants, which mean nothing for such data
    judged = []
    for cfg in cfgs:
        setup, report = config_mod.build_run_setup(cfg)
        if not report.all_passed:
            _write_failure(out_dir, "hypothesis_violation", _failed_hypotheses(report))
            return None
        judged.append((setup, report))
    return judged


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


def cmd_run(cfg, out_dir: Path) -> int:
    t0 = time.monotonic()
    judged = _judged_setups([cfg], out_dir)
    if judged is None:
        return EXIT_FAIL
    [(setup, report)] = judged
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
    broken = _broken_invariants(record)
    if broken:
        _write_failure(out_dir, "invariant_violation", broken)
        return EXIT_FAIL
    bad = _negative_margins(margins)
    if bad:
        _write_failure(out_dir, "envelope_violation", bad)
        return EXIT_FAIL
    return EXIT_OK


def cmd_crossval(cfg, out_dir: Path) -> int:
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
    judged = _judged_setups(plan, out_dir)
    if judged is None:
        return EXIT_FAIL
    result = reduced_system.cross_validate_setups([setup for setup, _ in judged], rspec)
    payload = dataclasses.asdict(result)
    payload["tolerance"] = cfg.crossval_tolerance
    payload["passed"] = bool(
        result.rel_l2_Lambda <= cfg.crossval_tolerance
        and result.rel_l2_v <= cfg.crossval_tolerance
    )
    _json_dump(payload, out_dir / "crossval.json")
    return EXIT_OK if payload["passed"] else EXIT_FAIL


def cmd_sweep(cfg, out_dir: Path, levels: int) -> int:
    if levels < 3:
        raise ConfigInvalid(["sweep: need at least 3 alpha levels"])
    judged = _judged_setups(config_mod.level_plan(cfg, levels, cells_factor=2), out_dir)
    if judged is None:
        return EXIT_FAIL
    runs = []
    for setup, _ in judged:
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
    return EXIT_OK


def cmd_validate(cfg, out_dir: Path) -> int:
    report = config_mod.hypothesis_report(cfg, config_mod.build_model_spec(cfg))
    _json_dump(report.to_dict(), out_dir / "hypotheses.json")
    print(json.dumps({"passed": report.all_passed, **report.to_dict()["passed"]},
                     sort_keys=True))
    return EXIT_OK if report.all_passed else EXIT_FAIL


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
            return cmd_run(cfg, out_dir)
        if args.command == "crossval":
            return cmd_crossval(cfg, out_dir)
        if args.command == "sweep":
            return cmd_sweep(cfg, out_dir, args.levels)
        return cmd_validate(cfg, out_dir)
    except ConfigInvalid as exc:
        _write_failure(out_dir or Path("."), "config_invalid", exc.messages)
        return EXIT_CONFIG
    except SwarmPDEError as exc:
        _write_failure(out_dir or Path("."), type(exc).__name__, [str(exc)])
        return EXIT_FAIL
    except MemoryError as exc:
        # numpy raises its own subclass; the kind names the builtin
        _write_failure(out_dir or Path("."), "MemoryError", [str(exc)])
        return EXIT_FAIL
    except OSError as exc:
        # load_config refuses an unreadable configuration, so this is a write
        _write_failure(out_dir or Path("."), "output_unwritable", [str(exc)])
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
