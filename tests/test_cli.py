import collections
import dataclasses
import json
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from swarmpde import cli, config as config_mod, diagnostics, reduced_system, solver_core
from swarmpde.age_discretization import build_age_grid, regularize
from swarmpde.cli import main
from swarmpde.config import RunConfig, build_sweep_plan, parse_config
from swarmpde.errors import ConfigInvalid
from swarmpde.model_spec import exponential_family, smoothstep, tabulated_family
from swarmpde.spatial_grid import SpatialGrid

from conftest import per_node_age_average


MINIMAL = {
    "alpha": 0.125,
    "a_max": 2.0,
    "domain": {"dim": 1, "extents": [1.0], "cells": [16]},
    "time": {"T": 0.3, "sample_dt": 0.05},
    "diagnostics": {"tail_A": [1.0]},
}


def _write(tmp_path, data, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data), encoding="utf-8")
    return p


def test_parse_minimal_roundtrip(tmp_path):
    cfg = parse_config(_write(tmp_path, MINIMAL))
    assert cfg.model.family == "exponential"  # defaults filled
    again = RunConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert config_mod.config_hash(again) == config_mod.config_hash(cfg)


def test_parse_alpha_out_of_range(tmp_path):
    bad = dict(MINIMAL, alpha=1.5)
    with pytest.raises(ConfigInvalid) as err:
        parse_config(_write(tmp_path, bad))
    assert any("alpha" in m for m in err.value.messages)


def test_parse_unknown_family(tmp_path):
    bad = dict(MINIMAL, model={"family": "mystery"})
    with pytest.raises(ConfigInvalid) as err:
        parse_config(_write(tmp_path, bad))
    assert any("model.family" in m for m in err.value.messages)


def test_parse_unknown_field_named(tmp_path):
    bad = dict(MINIMAL, typo_field=1)
    with pytest.raises(ConfigInvalid) as err:
        parse_config(_write(tmp_path, bad))
    assert any("typo_field" in m for m in err.value.messages)


def test_parse_collects_all_problems(tmp_path):
    bad = dict(MINIMAL, alpha=2.0)
    bad["time"] = {"T": -1.0, "sample_dt": 0.05}
    with pytest.raises(ConfigInvalid) as err:
        parse_config(_write(tmp_path, bad))
    assert len(err.value.messages) >= 2


def test_parse_missing_file(tmp_path):
    with pytest.raises(ConfigInvalid):
        parse_config(tmp_path / "absent.json")


def test_parse_takes_ints_for_numbers_and_null_for_optional_numbers():
    cfg = RunConfig.from_dict(dict(MINIMAL, a_max=2, model={"g0": None},
                                   time={"T": 1, "sample_dt": 0.5, "fixed_dt": None}))
    assert (cfg.a_max, cfg.time.T, cfg.time.fixed_dt, cfg.model.g0) == (2, 1, None, None)
    assert cfg.domain.cells == (16,)


@pytest.mark.parametrize("over, field", [
    ({"domain": {"dim": 1, "extents": [1.0], "cells": ["16"]}}, "domain.cells"),
    ({"domain": {"dim": 1, "extents": [1.0], "cells": [16.7]}}, "domain.cells"),
    ({"time": {"T": "0.05", "sample_dt": 0.05}}, "time.T"),
    ({"alpha": None}, "alpha"),
    ({"a_max": True}, "a_max"),
    ({"initial": {"u_cos_k": 1.0}}, "initial.u_cos_k"),
    ({"diagnostics": {"tail_A": [1.0], "store_u": 1}}, "diagnostics.store_u"),
    ({"output": "out"}, "output"),
], ids=["cells-str", "cells-float", "T-str", "alpha-null", "a_max-bool", "count-float",
        "flag-int", "section-str"])
def test_cli_refuses_wrong_json_types(tmp_path, monkeypatch, over, field):
    # each value must have the JSON type of its field's default; a wrong
    # one is a config problem (exit 2), not a traceback or a silent cast.
    # Without --out or a valid output.dir the failure lands in the cwd
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", str(_write(tmp_path, dict(MINIMAL, **over)))]) == 2
    failure = json.loads((tmp_path / "failure.json").read_text())
    assert failure["kind"] == "config_invalid"
    assert [m.split(":")[0] for m in failure["messages"]] == [field]


@pytest.mark.parametrize("initial, field", [
    ({"v_amp": -0.1}, "initial.v_amp"),
    ({"u_amp": -0.1}, "initial.u_amp"),
    ({"u_age_scale": 0.0}, "initial.u_age_scale"),
    ({"u_age_scale": -0.5}, "initial.u_age_scale"),
    ({"u_age_cut": [0.6, 0.6]}, "initial.u_age_cut"),
    ({"u_age_cut": [0.8, 0.6]}, "initial.u_age_cut"),
    ({"u_age_cut": [0.6]}, "initial.u_age_cut"),
])
def test_parse_refuses_initial_data_the_builder_cannot_honour(tmp_path, initial, field):
    # collected with the other problems of the file
    bad = dict(MINIMAL, a_max=0.1, initial=initial)
    with pytest.raises(ConfigInvalid) as err:
        parse_config(_write(tmp_path, bad))
    assert sorted(m.split(":")[0] for m in err.value.messages) == ["a_max", field]


def _unvalidated(data) -> RunConfig:
    # the RunConfig of ``data`` built without the checks of parse_config
    fields = {}
    for key, value in data.items():
        default = getattr(RunConfig(), key)
        if isinstance(value, dict):
            value = dataclasses.replace(default, **{
                k: tuple(v) if isinstance(v, list) else v for k, v in value.items()})
        fields[key] = value
    return dataclasses.replace(RunConfig(), **fields)


def _age_grid(cfg):
    build_age_grid(exponential_family(), cfg.alpha, cfg.a_max)


def _alpha_owners(cfg):
    # the age grid and the regularized model both keep the rule on alpha
    with pytest.raises(ValueError, match="(^|; )alpha: "):
        _age_grid(cfg)
    regularize(exponential_family(), cfg.alpha)


def _tail_recorder(cfg):
    spec, sgrid = exponential_family(), SpatialGrid(extents=(1.0,), cells=(16,))
    grid = build_age_grid(spec, cfg.alpha, cfg.a_max)
    diagnostics.DiagnosticsRecorder(spec, grid, regularize(spec, cfg.alpha), sgrid,
                                    cfg.diagnostics.tail_A)


def _tail_owners(cfg):
    spec, sgrid = exponential_family(), SpatialGrid(extents=(1.0,), cells=(16,))
    grid = build_age_grid(spec, cfg.alpha, cfg.a_max)
    state = solver_core.initial_state(np.zeros((grid.I,) + sgrid.shape),
                                      np.zeros(sgrid.shape), grid)
    with pytest.raises(ValueError, match="(^|; )tail_A: "):
        diagnostics.tail_mass(state, cfg.diagnostics.tail_A[0], grid, sgrid)
    _tail_recorder(cfg)


def _box_owner(cfg):
    SpatialGrid(extents=cfg.domain.extents, cells=cfg.domain.cells)


@pytest.mark.parametrize("over, field, owner", [
    ({"model": {"m0": 0.0}}, "model.m0", config_mod.build_model_spec),
    ({"model": {"tau": 0.0}}, "model.tau", config_mod.build_model_spec),
    ({"model": {"tau": -2.0, "g0": 0.5}}, "model.tau", config_mod.build_model_spec),
    ({"model": {"mu": -0.1}}, "model.mu", config_mod.build_model_spec),
    ({"model": {"D0": 0.0}}, "model.D0", config_mod.build_model_spec),
    ({"model": {"theta": 0.5}}, "model.theta", config_mod.build_model_spec),
    ({"model": {"drift": "curl"}}, "model.drift", config_mod.build_model_spec),
    ({"model": {"xi0": -0.1}}, "model.xi0", config_mod.build_model_spec),
    ({"model": {"xi0": 0.6}}, "model.xi0", config_mod.build_model_spec),
    ({"model": {"xi0": 0.3, "g0": 0.2}}, "model.xi0", config_mod.build_model_spec),
    ({"model": {"xi_support": [2.0, 0.2]}}, "model.xi_support", config_mod.build_model_spec),
    ({"model": {"xi_support": [0.2]}}, "model.xi_support", config_mod.build_model_spec),
    ({"alpha": 0.0}, "alpha", _alpha_owners),
    ({"alpha": 1.0}, "alpha", _alpha_owners),
    ({"a_max": 0.1}, "a_max", _age_grid),
    ({"domain": {"dim": 3, "extents": [1.0] * 3, "cells": [16] * 3}}, "domain.dim", _box_owner),
    ({"domain": {"dim": 1, "extents": [1.0, 1.0], "cells": [16]}}, "domain.extents",
     _box_owner),
    ({"domain": {"dim": 1, "extents": [0.0], "cells": [16]}}, "domain.extents", _box_owner),
    ({"domain": {"dim": 1, "extents": [1.0], "cells": [1]}}, "domain.cells", _box_owner),
    ({"diagnostics": {"tail_A": [0.4]}}, "diagnostics.tail_A", _tail_owners),
    # two ages that name one pair of record columns, tail_2 and eta_tail_2
    ({"diagnostics": {"tail_A": [2.0, 2.0]}}, "diagnostics.tail_A", _tail_recorder),
    ({"diagnostics": {"tail_A": [2.0, 2.0000001]}}, "diagnostics.tail_A", _tail_recorder),
], ids=["m0", "tau", "tau-with-g0", "mu", "D0", "theta", "drift", "xi0-negative",
        "xi0-above-1/tau", "xi0-above-g0", "xi_support-decreasing", "xi_support-short",
        "alpha-0", "alpha-1", "a_max", "dim", "extents-length", "extents-zero", "cells",
        "tail_A", "tail_A-repeated", "tail_A-same-name"])
def test_each_rule_is_refused_by_the_config_and_by_its_owner(tmp_path, over, field, owner):
    # every parameter rule has one owner: parse_config reports it under the
    # field's name, and the owner refuses the same values with a ValueError
    # naming the same field, so the two cannot drift apart
    data = {**MINIMAL, "diagnostics": {"tail_A": []}, **over}
    with pytest.raises(ConfigInvalid) as err:
        parse_config(_write(tmp_path, data))
    assert {m.split(":")[0] for m in err.value.messages} == {field}
    with pytest.raises(ValueError, match=f"(^|; ){field.split('.')[-1]}: "):
        owner(_unvalidated(data))


def test_sweep_plan_validation():
    cfg = RunConfig.from_dict(MINIMAL)
    with pytest.raises(ConfigInvalid):
        build_sweep_plan(cfg, levels=2)
    plan = build_sweep_plan(cfg, levels=3)
    assert [level.alpha for level in plan] == [0.125, 0.0625, 0.03125]
    assert plan[-1].domain.cells == (64,)


def test_sweep_levels_nest_for_any_depth():
    # alpha / 2^k levels scale the cells by exactly 2^k, so every level's
    # mesh refines the one before it
    cfg = RunConfig.from_dict(dict(
        MINIMAL, alpha=0.3, diagnostics={"tail_A": [2.0]},
        domain={"dim": 2, "extents": [1.0, 1.0], "cells": [12, 10]},
    ))
    for levels in range(3, 7):
        cells = [level.domain.cells for level in build_sweep_plan(cfg, levels=levels)]
        assert cells == [(12 * 2**k, 10 * 2**k) for k in range(levels)]


PLANE = dict(MINIMAL, domain={"dim": 2, "extents": [4.0, 3.0], "cells": [12, 10]},
             initial={"u_cos_k": 2, "u_cos_eps": 0.3})


def test_initial_u0_bitwise_equals_per_node_space_profile():
    # set-up takes every Gauss node in one call of the age profile; the
    # reference, built here from the configuration, calls it per node
    cfg = RunConfig.from_dict(PLANE)
    setup, _ = config_mod.build_run_setup(cfg, check_hypotheses=False)
    ic, sgrid = cfg.initial, setup.sgrid
    lo, hi = ic.u_age_cut
    space = config_mod._space_profile(sgrid.centers(), sgrid.extents, ic.u_cos_eps, ic.u_cos_k)

    def reference_age(a):
        age = np.exp(-a / ic.u_age_scale) * (1.0 - smoothstep((a - lo) / (hi - lo)))
        return ic.u_amp * float(age)

    expected = per_node_age_average(reference_age, space, setup.agegrid, sgrid)
    assert np.array_equal(setup.u0, expected)
    assert np.ptp(setup.u0[0]) > 0.0  # the space profile is not constant


def test_build_run_setup_evaluates_each_space_profile_once(monkeypatch):
    calls, ages = [], []
    profile, build = config_mod._space_profile, config_mod.build_initial_data

    def counting_profile(*args):
        calls.append(args)
        return profile(*args)

    def counting_build(*args):
        age_profile, space, v0 = build(*args)
        return (lambda a: ages.append(a) or age_profile(a)), space, v0

    monkeypatch.setattr(config_mod, "_space_profile", counting_profile)
    monkeypatch.setattr(config_mod, "build_initial_data", counting_build)
    config_mod.build_run_setup(RunConfig.from_dict(PLANE), check_hypotheses=False)
    assert len(calls) == 2  # once for u, once for v
    assert len(ages) == 1  # the age profile takes every Gauss node in one call


def test_readme_config_block_lists_every_field():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("```jsonc\n", 1)[1].split("```", 1)[0]
    data = json.loads(re.sub(r"//[^\n]*", "", block))
    cfg = RunConfig.from_dict(data)
    assert set(data) == {f.name for f in dataclasses.fields(cfg)}
    for f in dataclasses.fields(cfg):
        section = getattr(cfg, f.name)
        if dataclasses.is_dataclass(section):
            assert set(data[f.name]) == {g.name for g in dataclasses.fields(section)}, f.name


def test_cmd_run_zero_data(tmp_path):
    cfg = dict(MINIMAL)
    cfg["initial"] = {"kind": "zero"}
    cfg["output"] = {"dir": str(tmp_path / "out"), "write_snapshots": True,
                     "snapshot_stride": 3}
    code = main(["run", "--config", str(_write(tmp_path, cfg))])
    assert code == 0
    out = tmp_path / "out"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tstar_crossed"] is False
    assert manifest["theta_activations"] == 0
    for key in ("ell", "B", "L", "M", "beta", "Xi", "K0"):
        assert key in manifest["constants"]
    assert manifest["hypothesis_report_hash"]
    lines = (out / "diagnostics.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    mass_col = header.index("mass_b")
    assert all(float(line.split(",")[mass_col]) == 0.0 for line in lines[1:])
    assert list(out.glob("biomass_*.csv"))


def test_cmd_run_degenerate_diffusion_refused(tmp_path):
    cfg = dict(MINIMAL)
    cfg["model"] = {"family": "exponential", "D0": 0.0}
    cfg["output"] = {"dir": str(tmp_path / "out")}
    code = main(["run", "--config", str(_write(tmp_path, cfg))])
    assert code != 0
    failure = json.loads((tmp_path / "out" / "failure.json").read_text())
    assert failure["status"] == "error"


def test_cmd_run_nan_margin_fails(tmp_path, monkeypatch):
    original = diagnostics.envelope_report

    def nan_report(record):
        margins = original(record)
        margins["mass"] = dataclasses.replace(margins["mass"], margin=math.nan)
        return margins

    monkeypatch.setattr(diagnostics, "envelope_report", nan_report)
    cfg = dict(MINIMAL)
    cfg["output"] = {"dir": str(tmp_path / "out")}
    assert main(["run", "--config", str(_write(tmp_path, cfg))]) == 1
    failure = json.loads((tmp_path / "out" / "failure.json").read_text())
    assert failure["kind"] == "envelope_violation"
    assert [m.split(":")[0] for m in failure["messages"]] == ["mass"]


@pytest.mark.parametrize("residual", [1e-9, math.nan])
def test_cmd_run_conservation_violation_fails(tmp_path, monkeypatch, residual):
    # a run whose operators lose mass beyond roundoff (or whose residual
    # is NaN) fails as an invariant violation
    original = cli.run

    def leaky_run(setup, **kwargs):
        result = original(setup, **kwargs)
        result.record.conservation_max = residual
        return result

    monkeypatch.setattr(cli, "run", leaky_run)
    cfg = dict(MINIMAL)
    cfg["output"] = {"dir": str(tmp_path / "out")}
    assert main(["run", "--config", str(_write(tmp_path, cfg))]) == 1
    failure = json.loads((tmp_path / "out" / "failure.json").read_text())
    assert failure["kind"] == "invariant_violation"
    assert [m.split(":")[0] for m in failure["messages"]] == ["conservation"]


def test_cmd_run_flags_a_broken_biomass_identity(tmp_path, monkeypatch):
    # the ref1d workload's configuration (every other field at its default)
    # with the bins' flux divergence scaled by 0.9, which the shadow biomass
    # does not see.  No envelope notices it; the gap over linf_Lambda grows
    # about linearly, 9.7e-4 at t = 0.26 and 1.05e-3 at t = 0.28, the
    # shortest horizon at which the run is flagged.  The clean run stays
    # below 1.2e-8
    cfg = {"domain": {"dim": 1, "extents": [4.0], "cells": [128]},
           "time": {"T": 0.28, "sample_dt": 0.02},
           "diagnostics": {"tail_A": [2.0, 3.0], "store_u": False}}
    path = _write(tmp_path, cfg)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "clean")]) == 0
    original = solver_core.div_flux

    def weak_flux(*args, **kwargs):
        d = original(*args, **kwargs)
        d *= 0.9
        return d

    monkeypatch.setattr(solver_core, "div_flux", weak_flux)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "mutant")]) == 1
    failure = json.loads((tmp_path / "mutant" / "failure.json").read_text())
    assert failure["kind"] == "invariant_violation"
    assert [m.split(":")[0] for m in failure["messages"]] == ["identity"]
    assert "at t=0.28, first of 1 samples" in failure["messages"][0]


def _keep_results(monkeypatch, owner) -> list:
    # the results of every run that ``owner`` starts
    results = []

    def keeping_run(setup, _run=owner.run, **kwargs):
        results.append(_run(setup, **kwargs))
        return results[-1]

    monkeypatch.setattr(owner, "run", keeping_run)
    return results


CROSSVAL = dict(MINIMAL, model={"family": "exponential", "xi0": 0.0},
                initial={"u_age_cut": [0.3, 0.6], "u_cos_eps": 0.3, "v_cos_eps": 0.2},
                domain={"dim": 1, "extents": [4.0], "cells": [16]})


@pytest.mark.parametrize("command, output, owner, base", [
    ("sweep", "sweep.json", cli, dict(MINIMAL, domain={"dim": 1, "extents": [1.0],
                                                       "cells": [8]})),
    ("crossval", "crossval.json", reduced_system, CROSSVAL),
    ("run", "diagnostics.csv", cli, MINIMAL),
], ids=["sweep", "crossval", "run"])
def test_sweep_and_crossval_keep_no_bins(tmp_path, monkeypatch, command, output, owner,
                                         base):
    # no command reads a sample's bins, so none keeps them, and store_u
    # changes none of their output
    results = _keep_results(monkeypatch, owner)
    written = []
    for store_u in (True, False):
        cfg = dict(base, diagnostics={"tail_A": [1.0], "store_u": store_u})
        out = tmp_path / f"store_u_{store_u}"
        assert main([command, "--config", str(_write(tmp_path, cfg)), "--out", str(out)]) == 0
        written.append((out / output).read_bytes())
    assert written[0] == written[1]
    assert len(results) == {"sweep": 6, "crossval": 4, "run": 2}[command]
    assert all(s.u is None for r in results for s in r.samples)


def test_sweep_keeps_no_bins_and_reads_the_residual_of_stored_bins(tmp_path, monkeypatch):
    # the in-process 3-level ladder (the ladder workload's levels, T cut to
    # 0.5): no sample keeps its bins, each level's residual is the one of
    # the age moments taken from the stored bins of the same run, and the
    # traced peak stays below the bins that storing them would take (21
    # samples of 32x32, 64x64 and 128x128 cell-bins, 3.6 MB)
    cfg = dict(MINIMAL, a_max=4.0, domain={"dim": 1, "extents": [4.0], "cells": [32]},
               time={"T": 0.5, "sample_dt": 0.025},
               diagnostics={"tail_A": [], "test_k_max": 2})
    path = _write(tmp_path, cfg)
    results = _keep_results(monkeypatch, cli)
    tracemalloc.start()
    try:
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(s.u is None for r in results for s in r.samples)
    residuals = json.loads((tmp_path / "out" / "sweep.json").read_text())["residuals"]
    stored = 0
    for level_cfg, residual in zip(build_sweep_plan(parse_config(path), levels=3), residuals):
        setup, _ = config_mod.build_run_setup(level_cfg, check_hypotheses=False)
        samples = solver_core.run(setup, record=False).samples
        stored += sum(s.u.nbytes for s in samples)
        moments = diagnostics.AgeMoments(diagnostics.make_test_functions(
            setup.T, setup.agegrid.a_max, setup.sgrid, k_max=2), setup.spec, setup.agegrid)
        for s in samples:
            moments.take(s)  # from the stored bins, after the run
        expected = max(wr.residual for wr in diagnostics.weak_residual(
            samples, moments, setup.spec, setup.agegrid, setup.sgrid))
        assert residual == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert stored == 21 * 8 * (32 * 32 + 64 * 64 + 128 * 128)
    assert peak < stored


def _count_calls(monkeypatch, counts, owner, name):
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


def test_sweep_and_crossval_compute_only_what_they_write(tmp_path, monkeypatch):
    # sweep and crossval build no diagnostics recorder and integrate no
    # shadow biomass, and the sweep's weak residual evaluates its
    # per-sample fields once per sample and level, whatever the size of
    # the test-function catalogue
    counts = collections.Counter()
    for name in ("DiagnosticsRecorder", "Zeta1Evaluator", "weak_residual",
                 "_safe_ratios", "grad_cell"):
        _count_calls(monkeypatch, counts, diagnostics, name)
    _count_calls(monkeypatch, counts, solver_core, "_shadow_div")
    samples = []
    for owner in (cli, reduced_system):
        def counting_run(setup, _run=owner.run, **kwargs):
            result = _run(setup, **kwargs)
            samples.append(len(result.samples))
            return result
        monkeypatch.setattr(owner, "run", counting_run)

    cfg = dict(MINIMAL)
    cfg["domain"] = {"dim": 1, "extents": [1.0], "cells": [8]}
    cfg["output"] = {"dir": str(tmp_path / "sweep")}
    assert main(["sweep", "--config", str(_write(tmp_path, cfg)), "--levels", "3"]) == 0
    assert samples == [7, 7, 7]
    assert counts["DiagnosticsRecorder"] == counts["_shadow_div"] == 0
    assert counts["weak_residual"] == counts["Zeta1Evaluator"] == 3
    assert counts["_safe_ratios"] == sum(samples)
    assert counts["grad_cell"] == 2 * sum(samples)   # zeta1 and zeta2

    cfg["model"] = {"family": "exponential", "xi0": 0.0}
    cfg["initial"] = {"u_age_cut": [0.3, 0.6], "u_cos_eps": 0.3, "v_cos_eps": 0.2}
    cfg["domain"] = {"dim": 1, "extents": [4.0], "cells": [16]}
    cfg["output"] = {"dir": str(tmp_path / "cv")}
    assert main(["crossval", "--config", str(_write(tmp_path, cfg, "cv.json"))]) == 0
    assert len(samples) == 5
    assert counts["DiagnosticsRecorder"] == counts["_shadow_div"] == 0

    # the counters see the recorder that run builds and its shadow, one
    # shadow divergence per step
    cfg = dict(MINIMAL, output={"dir": str(tmp_path / "run")})
    assert main(["run", "--config", str(_write(tmp_path, cfg, "run.json"))]) == 0
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert counts["DiagnosticsRecorder"] == 1
    assert counts["_shadow_div"] == manifest["steps"] > 0


def test_cmd_run_exponential_margins(tmp_path):
    cfg = dict(MINIMAL)
    cfg["output"] = {"dir": str(tmp_path / "out")}
    code = main(["run", "--config", str(_write(tmp_path, cfg))])
    assert code == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    for name, margin in manifest["margins"].items():
        if margin is not None:
            assert margin >= 0.0, name


def test_cmd_validate(tmp_path):
    cfg = dict(MINIMAL)
    cfg["output"] = {"dir": str(tmp_path / "out")}
    code = main(["validate", "--config", str(_write(tmp_path, cfg))])
    assert code == 0
    report = json.loads((tmp_path / "out" / "hypotheses.json").read_text())
    assert all(report["passed"].values())


def test_cmd_reduced_and_crossval(tmp_path):
    cfg = dict(MINIMAL)
    cfg["model"] = {"family": "exponential", "xi0": 0.0}
    cfg["initial"] = {"u_age_cut": [0.3, 0.6], "u_cos_eps": 0.3, "v_cos_eps": 0.2}
    cfg["domain"] = {"dim": 1, "extents": [4.0], "cells": [32]}
    cfg["a_max"] = 2.0
    cfg["output"] = {"dir": str(tmp_path / "red")}
    path = _write(tmp_path, cfg)
    assert main(["reduced", "--config", str(path)]) == 0
    assert (tmp_path / "red" / "reduced.csv").exists()

    cfg["output"] = {"dir": str(tmp_path / "cv")}
    path = _write(tmp_path, cfg, "cv.json")
    code = main(["crossval", "--config", str(path)])
    payload = json.loads((tmp_path / "cv" / "crossval.json").read_text())
    assert code == 0 and payload["passed"]
    assert payload["rel_l2_Lambda"] <= payload["tolerance"]


def _tables(directory, **extra):
    """CSV tables of the exponential reference family (tau = 2, mu = 0.3,
    D = 0.1 r^2) in ``directory``, plus ``extra`` tables given as functions
    on the radius nodes; returns name -> path.  D and the extra tables have
    129 nodes."""
    ages = np.linspace(0.0, 2.0, 33)
    r = np.linspace(0.0, 16.0, 129)
    columns = {"lam": (ages, np.exp(ages / 2.0)), "b": (ages, np.exp(ages / 2.0)),
               "mu": (ages, np.full_like(ages, 0.3)), "D": (r, 0.1 * r**2)}
    columns.update({name: (r, f(r)) for name, f in extra.items()})
    paths = {}
    for name, xy in columns.items():
        paths[name] = str(Path(directory) / f"{name}.csv")
        np.savetxt(paths[name], np.column_stack(xy), delimiter=",")
    return paths


def test_cmd_tables_family_validate_and_run(tmp_path):
    cfg = dict(MINIMAL)
    cfg["model"] = {"family": "tables", "tables": _tables(tmp_path, E=lambda r: 0.2 * r)}
    cfg["output"] = {"dir": str(tmp_path / "out")}
    path = _write(tmp_path, cfg)
    assert main(["validate", "--config", str(path)]) == 0
    assert main(["run", "--config", str(path)]) == 0


@pytest.mark.parametrize("family", ["exponential", "tables"])
def test_both_families_take_g0_and_default_to_one_over_tau(tmp_path, family):
    model = {"family": family, "tau": 2.0, "xi0": 0.0, "tables": {}}
    if family == "tables":
        model["tables"] = _tables(tmp_path)
    for g0, g in ((0.05, 0.05), (None, 0.5)):
        cfg = RunConfig.from_dict(dict(MINIMAL, model=dict(model, g0=g0)))
        assert float(config_mod.build_model_spec(cfg).g(1.0)) == g


@pytest.mark.parametrize("tau", [0.0, -1.0])
def test_tables_family_refuses_a_tau_that_is_not_positive(tmp_path, tau):
    # tau sets the default g0 = 1/tau of the tables family too: a bad one is
    # a configuration error, not a ZeroDivisionError traceback
    tables = _tables(tmp_path)
    cfg = dict(MINIMAL, model={"family": "tables", "tau": tau, "tables": tables},
               output={"dir": str(tmp_path / "out")})
    for command in ("validate", "run"):
        assert main([command, "--config", str(_write(tmp_path, cfg))]) == 2
        failure = json.loads((tmp_path / "out" / "failure.json").read_text())
        assert failure["kind"] == "config_invalid"
        assert [m.split(":")[0] for m in failure["messages"]] == ["model.tau"]
    with pytest.raises(ValueError, match="^tau: "):
        tabulated_family({}, tau=tau, g0=None, r_max=8.0)


@pytest.mark.parametrize("command, output", [("reduced", "reduced.csv"),
                                             ("crossval", "crossval.json")])
def test_reduced_and_crossval_refuse_the_tables_family(tmp_path, monkeypatch, command,
                                                     output):
    # only the exponential family's weights close the reduced system, so no
    # oracle is built from model constants the tables do not use; the
    # refusal comes from the configuration, before any initial data are
    # age-averaged
    calls = []
    monkeypatch.setattr(config_mod, "age_average_initial", lambda *args: calls.append(args))
    cfg = dict(MINIMAL, model={"family": "tables", "xi0": 0.0, "tables": _tables(tmp_path)},
               output={"dir": str(tmp_path / "out")})
    assert main([command, "--config", str(_write(tmp_path, cfg))]) == 1
    failure = json.loads((tmp_path / "out" / "failure.json").read_text())
    assert failure["kind"] == "ConfigMismatch"
    assert "exponential family" in failure["messages"][0]
    assert not (tmp_path / "out" / output).exists()
    assert calls == []


def test_crossval_refuses_inflow_before_any_set_up(tmp_path, monkeypatch):
    # the closed system has no age-zero inflow, so xi0 > 0 is refused from
    # the model before any level's initial data are age-averaged
    calls = []
    monkeypatch.setattr(config_mod, "age_average_initial", lambda *args: calls.append(args))
    cfg = dict(CROSSVAL, model={"family": "exponential", "xi0": 0.4},
               output={"dir": str(tmp_path / "out")})
    assert main(["crossval", "--config", str(_write(tmp_path, cfg))]) == 1
    failure = json.loads((tmp_path / "out" / "failure.json").read_text())
    assert failure["kind"] == "ConfigMismatch"
    assert "requires xi = 0" in failure["messages"][0]
    assert not (tmp_path / "out" / "crossval.json").exists()
    assert calls == []


@pytest.mark.parametrize("name, entry, says", [
    ("D", "nope.csv", "names no existing file"),
    ("D", 5, "names no existing file"),
    ("zeta", "lam.csv", "unknown table"),
    ("D", "bad.csv", "does not load"),
], ids=["missing_file", "not_a_string", "unknown_name", "malformed_csv"])
def test_cmd_run_refuses_bad_tables(tmp_path, monkeypatch, name, entry, says):
    # every bad tables entry is a configuration error (exit 2 with
    # failure.json), found before or while the tables load
    monkeypatch.chdir(tmp_path)
    tables = _tables(".")
    Path("bad.csv").write_text("0.0,1.0\n1.0,oops\n", encoding="utf-8")
    tables[name] = entry
    cfg = dict(MINIMAL, model={"family": "tables", "tables": tables}, output={"dir": "out"})
    assert main(["run", "--config", str(_write(tmp_path, cfg))]) == 2
    failure = json.loads((tmp_path / "out" / "failure.json").read_text())
    assert failure["kind"] == "config_invalid"
    assert [m.split(":")[0] for m in failure["messages"]] == [f"model.tables.{name}"]
    assert says in failure["messages"][0]
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_cmd_run_refuses_failed_hypotheses(tmp_path):
    # a tabulated xi above the default g = 1/tau fails the rates hypothesis
    cfg = dict(MINIMAL)
    cfg["model"] = {"family": "tables",
                    "tables": _tables(tmp_path, xi=lambda r: np.full_like(r, 1.0))}
    cfg["output"] = {"dir": str(tmp_path / "out")}
    path = _write(tmp_path, cfg)
    assert main(["validate", "--config", str(path)]) == 1
    assert main(["run", "--config", str(path)]) == 1
    failure = json.loads((tmp_path / "out" / "failure.json").read_text())
    assert failure["kind"] == "hypothesis_violation"
    assert [m.split(":")[0] for m in failure["messages"]] == ["rates"]
    assert "xi(s) > g(s)" in failure["messages"][0]
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_cmd_run_judges_the_hypotheses_before_the_age_grid(tmp_path, monkeypatch):
    # b falls on [1, 2], so the built grid would have b_i* < 0 and refuse
    # the data with a message of its own; run reports the failed weight_b
    # hypothesis with its witness, as validate does, and builds no grid
    grids = []
    original = config_mod.build_age_grid
    monkeypatch.setattr(config_mod, "build_age_grid",
                        lambda *args: grids.append(args) or original(*args))
    cfg = dict(MINIMAL, a_max=4.0, output={"dir": str(tmp_path / "out")})
    cfg["model"] = {"family": "tables", "tables": _tables(
        tmp_path, b=lambda r: np.interp(r, [0.0, 1.0, 2.0, 4.0], [1.0, 1.5, 1.2, 3.0]),
        lam=lambda r: np.interp(r, [0.0, 4.0], [1.0, 2.0]),
        D=lambda r: np.interp(r, [0.0, 16.0], [0.01, 25.6]))}
    path = _write(tmp_path, cfg)
    assert main(["validate", "--config", str(path)]) == 1
    assert main(["run", "--config", str(path)]) == 1
    failure = json.loads((tmp_path / "out" / "failure.json").read_text())
    assert failure["kind"] == "hypothesis_violation"
    assert [m.split(":")[0] for m in failure["messages"]] == ["weight_b"]
    assert "b not non-decreasing" in failure["messages"][0]
    assert grids == []


def test_overflowing_modulus_fails_without_a_floating_point_warning(tmp_path):
    # mu*b/lam overflows to inf; the modulus rule judges the non-finite
    # ratio, and no NumPy warning escapes before the clean failure
    cfg = dict(MINIMAL, model={"xi0": 0.0, "mu": 1e308, "m0": 0.5},
               output={"dir": str(tmp_path / "out")})
    path = _write(tmp_path, cfg)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["validate", "--config", str(path)]) == 1
        assert main(["run", "--config", str(path)]) == 1
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    report = json.loads((tmp_path / "out" / "hypotheses.json").read_text())
    assert not report["passed"]["modulus"]
    failure = json.loads((tmp_path / "out" / "failure.json").read_text())
    assert failure["kind"] == "hypothesis_violation"
    assert failure["messages"][0].startswith("modulus: ")


def _count_integrations(monkeypatch):
    # every entry into either solver, by the names the commands call
    calls = []
    for owner, name in ((cli, "run"), (reduced_system, "run"),
                        (reduced_system, "run_reduced")):
        monkeypatch.setattr(owner, name, lambda *args, _n=name, **kw: calls.append(_n))
    return calls


@pytest.mark.parametrize("command", ["reduced", "sweep", "crossval"])
@pytest.mark.parametrize("model, says", [
    ({"xi_support": [-1.0, 2.0]}, "rates: "),
    ({"xi0": 0.0, "mu": 1e308, "m0": 0.5}, "modulus: "),
], ids=["xi_below_zero", "huge_mu"])
def test_integrating_commands_refuse_failed_hypotheses(tmp_path, monkeypatch, command,
                                                       model, says):
    # reduced, sweep and crossval judge the data of every setup they build
    # before they integrate anything, and fail as run does: exit 1 naming
    # the failed hypothesis with its witness.  crossval refuses an inflow
    # (xi0 > 0) from the configuration first
    calls = _count_integrations(monkeypatch)
    cfg = dict(MINIMAL, model=model, domain={"dim": 1, "extents": [1.0], "cells": [16]},
               time={"T": 0.2, "sample_dt": 0.05}, diagnostics={"tail_A": []},
               output={"dir": str(tmp_path / "out")})
    path = _write(tmp_path, cfg)
    assert main(["run", "--config", str(path)]) == 1
    ran = json.loads((tmp_path / "out" / "failure.json").read_text())
    assert ran["kind"] == "hypothesis_violation" and ran["messages"][0].startswith(says)
    (tmp_path / "out" / "failure.json").unlink()
    assert main([command, "--config", str(path)]) == 1
    failure = json.loads((tmp_path / "out" / "failure.json").read_text())
    if command == "crossval" and "xi0" not in model:
        assert failure["kind"] == "ConfigMismatch"
        assert "requires xi = 0" in failure["messages"][0]
    else:
        assert failure == ran
    assert calls == []
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["failure.json"]


@pytest.mark.parametrize("command, levels", [("sweep", 3), ("crossval", 2)])
def test_every_level_is_judged_before_any_is_integrated(tmp_path, monkeypatch, command,
                                                        levels):
    # only the last level's data fail: no level is integrated
    calls = _count_integrations(monkeypatch)
    bad = config_mod.validate_hypotheses(
        exponential_family(m0=0.5, mu_const=1e308, xi0=0.0), R_max=8.0, A_max=2.0,
        n_samples=128)
    assert not bad.all_passed
    judged = []
    original = config_mod.validate_hypotheses

    def last_level_fails(spec, **kwargs):
        judged.append(kwargs["R_max"])
        return bad if len(judged) == levels else original(spec, **kwargs)

    monkeypatch.setattr(config_mod, "validate_hypotheses", last_level_fails)
    cfg = dict(CROSSVAL, output={"dir": str(tmp_path / "out")})
    assert main([command, "--config", str(_write(tmp_path, cfg))]) == 1
    failure = json.loads((tmp_path / "out" / "failure.json").read_text())
    assert failure["kind"] == "hypothesis_violation"
    assert [m.split(":")[0] for m in failure["messages"]] == ["modulus"]
    assert judged == [8.0 * 2**k for k in range(levels)]
    assert calls == []


def test_manifest_steps_counts_solver_steps(tmp_path, monkeypatch):
    calls = []
    original = solver_core.step

    def counting_step(*args):
        calls.append(args[1])
        return original(*args)

    monkeypatch.setattr(solver_core, "step", counting_step)
    cfg = dict(MINIMAL)
    cfg["output"] = {"dir": str(tmp_path / "out")}
    assert main(["run", "--config", str(_write(tmp_path, cfg))]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["steps"] == len(calls) > 0


def test_cmd_sweep_zero_data(tmp_path):
    cfg = dict(MINIMAL)
    cfg["initial"] = {"kind": "zero"}
    cfg["domain"] = {"dim": 1, "extents": [1.0], "cells": [8]}
    cfg["output"] = {"dir": str(tmp_path / "sweep")}
    code = main(["sweep", "--config", str(_write(tmp_path, cfg)), "--levels", "3"])
    assert code == 0
    payload = json.loads((tmp_path / "sweep" / "sweep.json").read_text())
    assert all(d == 0.0 for d in payload["diff_Lambda"])
    assert all(d == 0.0 for d in payload["diff_v"])


def test_determinism_byte_identical(tmp_path):
    cfg = dict(MINIMAL)
    cfg["output"] = {"dir": "out", "write_snapshots": True, "snapshot_stride": 2}
    path = _write(tmp_path, cfg)
    for sub in ("a", "b"):
        assert main(["run", "--config", str(path), "--out", str(tmp_path / sub)]) == 0
    for name in ["diagnostics.csv"] + [p.name for p in (tmp_path / "a").glob("*.bin")] \
            + [p.name for p in (tmp_path / "a").glob("biomass_*.csv")]:
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name
    # manifests agree except for the wall-clock entry
    ma = json.loads((tmp_path / "a" / "manifest.json").read_text())
    mb = json.loads((tmp_path / "b" / "manifest.json").read_text())
    ma.pop("wall_time"), mb.pop("wall_time")
    assert ma == mb
