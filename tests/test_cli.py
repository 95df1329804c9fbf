import collections
import dataclasses
import json
import math
import re
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy._core._exceptions import _ArrayMemoryError

from swarmpde import cli, config as config_mod, diagnostics, errors, reduced_system, solver_core
from swarmpde.age_discretization import build_age_grid, regularize
from swarmpde.cli import main
from swarmpde.config import RunConfig, level_plan, parse_config
from swarmpde.errors import ConfigInvalid
from swarmpde.model_spec import smoothstep, tabulated_family
from swarmpde.spatial_grid import SpatialGrid

from conftest import (
    exponential_spec,
    near_per_node,
    per_bin_age_average,
    per_node_age_average,
)


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


def _set(field, value) -> dict:
    # the override of MINIMAL that sets the dotted ``field`` to ``value``
    section, _, name = field.rpartition(".")
    return {section: dict(MINIMAL.get(section, {}), **{name: value})} if section \
        else {name: value}


# json reads NaN, Infinity, -Infinity and integers beyond the float range:
# each is refused like a wrong type
_NON_FINITE = [(field, bad, label)
               for field in ("time.T", "time.sample_dt", "time.fixed_dt",
                             "initial.u_age_scale", "crossval_tolerance")
               for bad, label in ((math.nan, "NaN"), (math.inf, "Infinity"),
                                  (-math.inf, "-Infinity"))]
_NON_FINITE.append(("time.fixed_dt", 10**400, "1e400-int"))


@pytest.mark.parametrize("over, field", [
    ({"domain": {"dim": 1, "extents": [1.0], "cells": ["16"]}}, "domain.cells"),
    ({"domain": {"dim": 1, "extents": [1.0], "cells": [16.7]}}, "domain.cells"),
    ({"time": {"T": "0.05", "sample_dt": 0.05}}, "time.T"),
    ({"alpha": None}, "alpha"),
    ({"a_max": True}, "a_max"),
    ({"initial": {"u_cos_k": 1.0}}, "initial.u_cos_k"),
    ({"diagnostics": {"tail_A": [1.0], "store_u": 1}}, "diagnostics.store_u"),
    ({"output": "out"}, "output"),
    *[(_set(field, bad), field) for field, bad, _ in _NON_FINITE],
], ids=["cells-str", "cells-float", "T-str", "alpha-null", "a_max-bool", "count-float",
        "flag-int", "section-str", *[f"{field}-{label}" for field, _, label in _NON_FINITE]])
def test_cli_refuses_wrong_json_types(tmp_path, monkeypatch, over, field):
    # each value must have the JSON type of its field's default, and each
    # number must be finite; a wrong one is a config problem (exit 2), not
    # a traceback, a silent cast, a value ignored or a failure later on.
    # Without --out or a valid output.dir the failure lands in the cwd
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", str(_write(tmp_path, dict(MINIMAL, **over)))]) == 2
    failure = json.loads((tmp_path / "failure.json").read_text())
    assert failure["kind"] == "config_invalid"
    assert [m.split(":")[0] for m in failure["messages"]] == [field]


@pytest.mark.parametrize("time", [{"T": 1e300, "sample_dt": 0.05},
                                  {"T": 0.3, "sample_dt": 1e-300}], ids=["huge-T", "tiny-sample_dt"])
def test_cli_refuses_a_huge_sample_count(tmp_path, time):
    # T / sample_dt beyond MAX_SAMPLES is a config problem naming sample_dt,
    # not a ValueError from allocating the sample times
    cfg = dict(MINIMAL, time=time, output={"dir": str(tmp_path / "out")})
    assert main(["run", "--config", str(_write(tmp_path, cfg))]) == 2
    failure = json.loads((tmp_path / "out" / "failure.json").read_text())
    assert failure["kind"] == "config_invalid"
    assert [m.split(":")[0] for m in failure["messages"]] == ["time.sample_dt"]


@pytest.mark.parametrize("initial, field", [
    ({"v_amp": -0.1}, "initial.v_amp"),
    ({"u_amp": -0.1}, "initial.u_amp"),
    ({"u_age_scale": 0.0}, "initial.u_age_scale"),
    ({"u_age_scale": -0.5}, "initial.u_age_scale"),
    ({"u_age_cut": [0.6, 0.6]}, "initial.u_age_cut"),
    ({"u_age_cut": [0.8, 0.6]}, "initial.u_age_cut"),
    ({"u_age_cut": [0.6]}, "initial.u_age_cut"),
    ({"kind": "square"}, "initial.kind"),
    ({"u_cos_eps": 1.5}, "initial"),
    ({"v_cos_eps": -1.5}, "initial"),
])
def test_parse_refuses_initial_data_the_builder_cannot_honour(tmp_path, initial, field):
    # collected with the other problems of the file
    bad = dict(MINIMAL, a_max=0.1, initial=initial)
    with pytest.raises(ConfigInvalid) as err:
        parse_config(_write(tmp_path, bad))
    assert sorted(m.split(":")[0] for m in err.value.messages) == ["a_max", field]


@pytest.mark.parametrize("data, field", [
    ([MINIMAL], "configuration root must be a JSON object"),
    (_set("time.fixed_dt", 0.0), "time.fixed_dt"),
    (_set("time.fixed_dt", -1e-3), "time.fixed_dt"),
    ({"output": {"snapshot_stride": 0}}, "output.snapshot_stride"),
], ids=["root-array", "fixed_dt-zero", "fixed_dt-negative", "snapshot_stride"])
def test_parse_refuses_each_config_only_rule(tmp_path, data, field):
    # the rules no builder owns: one problem, under the field's name
    if isinstance(data, dict):
        data = dict(MINIMAL, **data)
    with pytest.raises(ConfigInvalid) as err:
        parse_config(_write(tmp_path, data))
    assert [m.split(":")[0] for m in err.value.messages] == [field]


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
    build_age_grid(exponential_spec(tau=1.0), cfg.alpha, cfg.a_max)


def _alpha_owners(cfg):
    # the age grid and the regularized model both keep the rule on alpha
    with pytest.raises(ValueError, match="(^|; )alpha: "):
        _age_grid(cfg)
    regularize(exponential_spec(tau=1.0), cfg.alpha)


def _tail_recorder(cfg):
    spec, sgrid = exponential_spec(tau=1.0), SpatialGrid(extents=(1.0,), cells=(16,))
    grid = build_age_grid(spec, cfg.alpha, cfg.a_max)
    diagnostics.DiagnosticsRecorder(spec, grid, regularize(spec, cfg.alpha), sgrid,
                                    cfg.diagnostics.tail_A)


def _tail_owners(cfg):
    spec, sgrid = exponential_spec(tau=1.0), SpatialGrid(extents=(1.0,), cells=(16,))
    grid = build_age_grid(spec, cfg.alpha, cfg.a_max)
    state = solver_core.initial_state(np.zeros((grid.I,) + sgrid.shape),
                                      np.zeros(sgrid.shape), grid)
    with pytest.raises(ValueError, match="(^|; )tail_A: "):
        diagnostics.tail_mass(state, cfg.diagnostics.tail_A[0], grid, sgrid)
    _tail_recorder(cfg)


def _box_owner(cfg):
    SpatialGrid(extents=cfg.domain.extents, cells=cfg.domain.cells)


def _catalogue_owner(cfg):
    sgrid = SpatialGrid(extents=cfg.domain.extents, cells=cfg.domain.cells)
    diagnostics.make_test_functions(cfg.time.T, cfg.a_max, sgrid, cfg.diagnostics.test_k_max)


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
    ({"domain": {"dim": 1, "extents": [1e-300], "cells": [8]}}, "domain.extents", _box_owner),
    ({"domain": {"dim": 1, "extents": [1.0], "cells": [1]}}, "domain.cells", _box_owner),
    # 2^64 float64 values are beyond numpy's address space
    ({"domain": {"dim": 1, "extents": [1.0], "cells": [2**64]}}, "domain.cells", _box_owner),
    ({"diagnostics": {"tail_A": [0.4]}}, "diagnostics.tail_A", _tail_owners),
    # two ages that name one pair of record columns, tail_2 and eta_tail_2
    ({"diagnostics": {"tail_A": [2.0, 2.0]}}, "diagnostics.tail_A", _tail_recorder),
    ({"diagnostics": {"tail_A": [2.0, 2.0000001]}}, "diagnostics.tail_A", _tail_recorder),
    ({"diagnostics": {"tail_A": [], "test_k_max": -1}}, "diagnostics.test_k_max",
     _catalogue_owner),
    # on 16 cells the cosine of mode 16 is zero at every centre
    ({"diagnostics": {"tail_A": [], "test_k_max": 16}}, "diagnostics.test_k_max",
     _catalogue_owner),
], ids=["m0", "tau", "tau-with-g0", "mu", "D0", "theta", "drift", "xi0-negative",
        "xi0-above-1/tau", "xi0-above-g0", "xi_support-decreasing", "xi_support-short",
        "alpha-0", "alpha-1", "a_max", "dim", "extents-length", "extents-zero", "extents-tiny",
        "cells", "cells-beyond-address-space",
        "tail_A", "tail_A-repeated", "tail_A-same-name", "test_k_max-negative",
        "test_k_max-at-cells"])
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


@pytest.mark.parametrize("command", ["validate", "run", "sweep", "crossval"])
def test_a_cell_width_the_operators_cannot_divide_by_is_config_invalid(tmp_path, command):
    # 1/dx^2 overflows for a cell 1.25e-301 wide: every command refuses the
    # box from the configuration (exit 2), before any operator divides by it
    cfg = dict(CROSSVAL, domain={"dim": 1, "extents": [1e-300], "cells": [8]},
               output={"dir": str(tmp_path / "out")})
    assert main([command, "--config", str(_write(tmp_path, cfg))]) == 2
    failure = json.loads((tmp_path / "out" / "failure.json").read_text())
    assert failure["kind"] == "config_invalid"
    assert [m.split(":")[0] for m in failure["messages"]] == ["domain.extents"]


def test_sweep_plan_validation(tmp_path):
    # a sweep of fewer than 3 levels is a config problem (exit 2)
    cfg = dict(MINIMAL, output={"dir": str(tmp_path / "out")})
    assert main(["sweep", "--config", str(_write(tmp_path, cfg)), "--levels", "2"]) == 2
    failure = json.loads((tmp_path / "out" / "failure.json").read_text())
    assert failure["kind"] == "config_invalid"
    assert failure["messages"] == ["sweep: need at least 3 alpha levels"]
    plan = level_plan(RunConfig.from_dict(MINIMAL), 3, cells_factor=2)
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
        cells = [level.domain.cells for level in level_plan(cfg, levels, cells_factor=2)]
        assert cells == [(12 * 2**k, 10 * 2**k) for k in range(levels)]


def test_crossval_level_plan_keeps_the_mesh_and_halves_alpha():
    # crossval's two levels: the configured mesh at alpha and at alpha/2
    cfg = RunConfig.from_dict(dict(
        MINIMAL, alpha=0.3, diagnostics={"tail_A": [2.0]},
        domain={"dim": 2, "extents": [1.0, 1.0], "cells": [12, 10]},
    ))
    plan = level_plan(cfg, 2, cells_factor=1)
    assert [level.alpha for level in plan] == [0.3, 0.3 / 2.0]
    assert plan[0] == cfg
    assert plan[1] == dataclasses.replace(cfg, alpha=0.3 / 2.0)


@pytest.mark.parametrize("over", [
    {"model": {"theta": 1e300}}, {"a_max": 1e300}, {"model": {"tau": 1e-300}},
    {"alpha": 1e-300},
], ids=["theta", "a_max", "tau", "alpha"])
def test_overflow_in_set_up_is_a_typed_failure(tmp_path, over):
    # a model function that overflows on the sampled box is judged as a
    # non-finite evaluation (exit 1), not a RuntimeWarning traceback
    cfg = dict(MINIMAL, **over, output={"dir": str(tmp_path / "out")})
    for command in ("validate", "run"):
        assert main([command, "--config", str(_write(tmp_path, cfg))]) == 1
        failure = json.loads((tmp_path / "out" / "failure.json").read_text())
        assert failure["kind"] == "NonFiniteEvaluation"


def test_an_overflowing_sample_is_a_typed_failure(tmp_path):
    # v_amp 1e300 passes set-up, but the first sample's L2 norm of v
    # overflows: the recorder refuses the row (exit 1) before an envelope
    # could read a NaN margin from it
    cfg = dict(MINIMAL, initial={"v_amp": 1e300}, output={"dir": str(tmp_path / "out")})
    path = _write(tmp_path, cfg)
    assert main(["validate", "--config", str(path)]) == 0
    assert main(["run", "--config", str(path)]) == 1
    failure = json.loads((tmp_path / "out" / "failure.json").read_text())
    assert failure["kind"] == "NonFiniteEvaluation"
    assert failure["messages"] == ["diagnostics column l2_v is inf at t=0"]


def test_an_overflowing_model_is_a_typed_failure(tmp_path):
    # m0 1e300 passes validate and set-up; the first sample's D overflows
    # and the recorder refuses the row, under warnings as errors too (the
    # suite runs with error::RuntimeWarning), rather than a step failing
    cfg = dict(MINIMAL, model={"m0": 1e300}, output={"dir": str(tmp_path / "out")})
    path = _write(tmp_path, cfg)
    assert main(["validate", "--config", str(path)]) == 0
    assert main(["run", "--config", str(path)]) == 1
    failure = json.loads((tmp_path / "out" / "failure.json").read_text())
    assert failure["kind"] == "NonFiniteEvaluation"
    assert failure["messages"] == ["diagnostics column dissipation_u is nan at t=0"]


@pytest.mark.parametrize("command", ["run", "sweep", "crossval"])
def test_running_out_of_memory_is_a_typed_failure(tmp_path, monkeypatch, command):
    # numpy's subclass of MemoryError, raised in set-up, exits 1 with a
    # failure.json whose kind is MemoryError; no array is really allocated
    def out_of_memory(cfg):
        raise _ArrayMemoryError((2**40,), np.dtype(float))

    monkeypatch.setattr(config_mod, "build_run_setup", out_of_memory)
    cfg = dict(CROSSVAL, output={"dir": str(tmp_path / "out")})
    assert main([command, "--config", str(_write(tmp_path, cfg))]) == 1
    failure = json.loads((tmp_path / "out" / "failure.json").read_text())
    assert failure["kind"] == "MemoryError"


def test_a_horizon_beyond_the_step_budget_is_a_typed_failure(tmp_path):
    # mu = 1e300 passes validation, and the step bound falls like 1/mu:
    # at dt = 9e-301 the horizon takes about 1e299 steps, so the budget
    # refuses the first step instead of integrating forever, under run and
    # under crossval (whose full solver runs first)
    cfg = dict(MINIMAL, model={"mu": 1e300, "xi0": 0.0}, time={"T": 0.1, "sample_dt": 0.05},
               output={"dir": str(tmp_path / "out")})
    path = _write(tmp_path, cfg)
    assert main(["validate", "--config", str(path)]) == 0
    for command in ("run", "crossval"):
        start = time.monotonic()
        assert main([command, "--config", str(path)]) == 1
        assert time.monotonic() - start < 1.0
        failure = json.loads((tmp_path / "out" / "failure.json").read_text())
        assert failure["kind"] == "StepBudgetExceeded"
        assert f"beyond the budget of {solver_core.MAX_STEPS}" in failure["messages"][0]
        (tmp_path / "out" / "failure.json").unlink()


def test_summary_carries_every_record_value_the_envelopes_read(tmp_path, monkeypatch):
    # eta_star_inf (keyed by tail age as the tail columns are) and
    # grad_v0_sq are written at full precision: they read back bitwise
    results = _keep_results(monkeypatch, cli)
    cfg = dict(MINIMAL, diagnostics={"tail_A": [1.0, 1.5]},
               output={"dir": str(tmp_path / "out")})
    assert main(["run", "--config", str(_write(tmp_path, cfg))]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    [result] = results
    record = result.record
    assert record.grad_v0_sq > 0.0
    assert summary["grad_v0_sq"].hex() == record.grad_v0_sq.hex()
    assert sorted(summary["eta_star_inf"]) == ["1", "1.5"]
    for A, value in record.eta_star_inf.items():
        assert value > 0.0
        assert summary["eta_star_inf"][f"{A:g}"].hex() == value.hex()


PLANE = dict(MINIMAL, domain={"dim": 2, "extents": [4.0, 3.0], "cells": [12, 10]},
             initial={"u_cos_k": 2, "u_cos_eps": 0.3})


def test_initial_u0_bitwise_equals_per_bin_space_profile():
    # set-up's initial bins are the Gauss bin averages of the age profile
    # times the space profile; the reference, built here from the
    # configuration, restates that bin by bin, and the older node-by-node
    # sum differs from it by roundoff only
    cfg = RunConfig.from_dict(PLANE)
    setup, _ = config_mod.build_run_setup(cfg, check_hypotheses=False)
    ic, sgrid = cfg.initial, setup.sgrid
    lo, hi = ic.u_age_cut

    def per_cell_profile(eps, k):
        # the space profile cell by cell from the centre array, which
        # set-up's product of per-axis factors must give bit for bit
        out = np.ones(sgrid.ncells)
        for ax, x in enumerate(sgrid.centers().T):
            out = out * (1.0 + eps * np.cos(k * math.pi * x / sgrid.extents[ax]))
        return out.reshape(sgrid.shape)

    space = per_cell_profile(ic.u_cos_eps, ic.u_cos_k)
    assert np.array_equal(setup.v0, ic.v_amp * per_cell_profile(ic.v_cos_eps, ic.v_cos_k))

    def reference_age(a):
        age = np.exp(-a / ic.u_age_scale) * (1.0 - smoothstep((a - lo) / (hi - lo)))
        return ic.u_amp * age

    expected = per_bin_age_average(reference_age, space, setup.agegrid)
    assert np.array_equal(setup.u0, expected)
    node = per_node_age_average(reference_age, space, setup.agegrid, sgrid)
    assert near_per_node(setup.u0, node)
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


def test_readme_cli_block_lists_every_command(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI\n", 1)[1].split("```\n", 2)[1]
    listed = [line.split()[1] for line in block.splitlines() if line.startswith("swarmpde ")]
    with pytest.raises(SystemExit) as done:
        main(["--help"])
    assert done.value.code == 0
    choices = re.search(r"\{([a-z,]+)\}", capsys.readouterr().out).group(1).split(",")
    assert listed == choices


def test_readme_and_cli_docstring_list_every_failure_kind():
    # the kinds main writes: the checks', every other package error's class
    # name, MemoryError and output_unwritable
    kinds = ["config_invalid", "hypothesis_violation", "invariant_violation",
             "envelope_violation", "crossval_violation", "MemoryError", "output_unwritable"]
    kinds += [c.__name__ for c in vars(errors).values() if isinstance(c, type)
              and issubclass(c, errors.SwarmPDEError)
              and not issubclass(c, errors.CheckFailed) and c is not errors.SwarmPDEError]
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    listed = readme.split("Exit status 0", 1)[1].split("\n\n", 2)[1]
    assert [k for k in kinds if f"`{k}`" not in listed] == []
    assert [k for k in kinds if f"``{k}``" not in cli.__doc__] == []


@pytest.mark.parametrize("content", [None, b"\xff\xfe{}", b"[" * 100_000],
                         ids=["directory", "not-utf8", "too-deep"])
@pytest.mark.parametrize("with_out", [False, True], ids=["cwd", "out"])
def test_an_unreadable_config_is_config_invalid(tmp_path, monkeypatch, content, with_out):
    # a config that does not read as JSON text is a config problem (exit 2)
    # with failure.json, in --out or else the cwd, not a traceback
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    out = tmp_path / "out" if with_out else tmp_path
    extra = ["--out", str(out)] if with_out else []
    assert main(["validate", "--config", str(path), *extra]) == 2
    failure = json.loads((out / "failure.json").read_text())
    assert failure["kind"] == "config_invalid"
    assert failure["messages"][0].startswith(f"config file {path} does not load: ")


@pytest.mark.parametrize("command", ["validate", "run", "sweep", "crossval"])
def test_an_output_path_that_is_a_file_is_a_typed_failure(tmp_path, monkeypatch, capsys,
                                                         command):
    # the output directory cannot be made: exit 1 with the typed payload on
    # stdout, as when failure.json itself cannot be written, found before
    # any solver runs
    def no_solver(*args, **kw):
        raise AssertionError("a solver ran")

    monkeypatch.setattr(cli, "run", no_solver)
    monkeypatch.setattr(reduced_system, "run", no_solver)
    taken = tmp_path / "taken"
    taken.write_text("not a directory", encoding="utf-8")
    cfg = _write(tmp_path, dict(CROSSVAL, time={"T": 0.1, "sample_dt": 0.05}))
    assert main([command, "--config", str(cfg), "--out", str(taken)]) == 1
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["status"] == "error" and payload["kind"] == "output_unwritable"
    assert str(taken) in payload["messages"][0]
    assert taken.read_text(encoding="utf-8") == "not a directory"


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
        result.record.series["conservation_residual"][-1] = residual
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
    for level_cfg, residual in zip(level_plan(parse_config(path), 3, cells_factor=2),
                                   residuals):
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
    # a step integrates the shadow biomass exactly when its coefficient
    # record carries the shadow's flux divergence
    coefficients = solver_core.step_coefficients

    def counting_coefficients(*args):
        coeffs = coefficients(*args)
        counts["records"] += 1
        counts["shadow"] += coeffs.shadow_div is not None
        return coeffs

    monkeypatch.setattr(solver_core, "step_coefficients", counting_coefficients)
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
    assert counts["DiagnosticsRecorder"] == counts["shadow"] == 0 < counts["records"]
    assert counts["weak_residual"] == counts["Zeta1Evaluator"] == 3
    assert counts["_safe_ratios"] == sum(samples)
    assert counts["grad_cell"] == 2 * sum(samples)   # zeta1 and zeta2

    cfg["model"] = {"family": "exponential", "xi0": 0.0}
    cfg["initial"] = {"u_age_cut": [0.3, 0.6], "u_cos_eps": 0.3, "v_cos_eps": 0.2}
    cfg["domain"] = {"dim": 1, "extents": [4.0], "cells": [16]}
    cfg["output"] = {"dir": str(tmp_path / "cv")}
    assert main(["crossval", "--config", str(_write(tmp_path, cfg, "cv.json"))]) == 0
    assert len(samples) == 5
    assert counts["DiagnosticsRecorder"] == counts["shadow"] == 0

    # the counters see the recorder that run builds and its shadow, one
    # record with a shadow divergence per step
    cfg = dict(MINIMAL, output={"dir": str(tmp_path / "run")})
    assert main(["run", "--config", str(_write(tmp_path, cfg, "run.json"))]) == 0
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert counts["DiagnosticsRecorder"] == 1
    assert counts["shadow"] == manifest["steps"] > 0


def test_cmd_run_exponential_margins(tmp_path):
    cfg = dict(MINIMAL)
    cfg["output"] = {"dir": str(tmp_path / "out")}
    code = main(["run", "--config", str(_write(tmp_path, cfg))])
    assert code == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    for name, margin in manifest["margins"].items():
        if margin is not None:
            assert margin >= 0.0, name


def test_cmd_run_without_tail_ages(tmp_path):
    # no tail ages: the tail margin is skipped, reported as null, and the
    # record has no tail columns
    cfg = dict(MINIMAL, diagnostics={"tail_A": []}, output={"dir": str(tmp_path / "out")})
    assert main(["run", "--config", str(_write(tmp_path, cfg))]) == 0
    for name in ("summary.json", "manifest.json"):
        margins = json.loads((tmp_path / "out" / name).read_text())["margins"]
        assert "tail" in margins and margins["tail"] is None, name
    header = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()[0].split(",")
    assert not [c for c in header if c.startswith(("tail_", "eta_tail_"))]


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
    # the closed system is integrated only where crossval judges it: there
    # is no reduced command, and asking for one is a usage error
    with pytest.raises(SystemExit) as refused:
        main(["reduced", "--config", str(path)])
    assert refused.value.code == 2
    assert not (tmp_path / "red").exists()

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


def test_crossval_refuses_the_tables_family(tmp_path, monkeypatch):
    # only the exponential family's weights close the reduced system, so no
    # oracle is built from model constants the tables do not use; the
    # refusal comes from the configuration, before any initial data are
    # age-averaged
    calls = []
    monkeypatch.setattr(config_mod, "age_average_initial", lambda *args: calls.append(args))
    cfg = dict(MINIMAL, model={"family": "tables", "xi0": 0.0, "tables": _tables(tmp_path)},
               output={"dir": str(tmp_path / "out")})
    assert main(["crossval", "--config", str(_write(tmp_path, cfg))]) == 1
    failure = json.loads((tmp_path / "out" / "failure.json").read_text())
    assert failure["kind"] == "ConfigMismatch"
    assert "exponential family" in failure["messages"][0]
    assert not (tmp_path / "out" / "crossval.json").exists()
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


@pytest.mark.parametrize("name, column, row, value", [
    ("D", 0, 64, math.nan), ("lam", 1, 3, math.inf),
], ids=["nan_abscissa", "infinite_value"])
def test_validate_refuses_a_table_with_a_non_finite_entry(tmp_path, name, column, row, value):
    # a NaN abscissa passes the increasing check (NaN compares false), and
    # neither entry need land near a sample: both are refused as they load
    tables = _tables(tmp_path)
    xy = np.loadtxt(tables[name], delimiter=",", ndmin=2)
    xy[row, column] = value
    np.savetxt(tables[name], xy, delimiter=",")
    cfg = dict(MINIMAL, model={"family": "tables", "tables": tables},
               output={"dir": str(tmp_path / "out")})
    assert main(["validate", "--config", str(_write(tmp_path, cfg))]) == 2
    failure = json.loads((tmp_path / "out" / "failure.json").read_text())
    assert failure["kind"] == "config_invalid"
    assert [m.split(":")[0] for m in failure["messages"]] == [f"model.tables.{name}"]
    assert "table entries must be finite" in failure["messages"][0]


@pytest.mark.parametrize("command, code, kind, says", [
    ("validate", 2, "config_invalid", "table needs two same-length columns with >= 2 rows"),
    ("crossval", 1, "ConfigMismatch", "age range too short for the tail precondition"),
], ids=["one_row_table", "short_age_range"])
def test_cli_refuses_what_only_set_up_finds(tmp_path, command, code, kind, says):
    # a table that loads but has one row, and a cross-validation whose
    # ages end before the tail precondition's (a_max = 0.5 at alpha = 1/8)
    if command == "validate":
        np.savetxt(tmp_path / "one.csv", [[0.0, 1.0]], delimiter=",")
        tables = dict(_tables(tmp_path), D=str(tmp_path / "one.csv"))
        cfg = dict(MINIMAL, model={"family": "tables", "tables": tables})
    else:
        cfg = dict(CROSSVAL, a_max=0.5)
    cfg["output"] = {"dir": str(tmp_path / "out")}
    assert main([command, "--config", str(_write(tmp_path, cfg))]) == code
    failure = json.loads((tmp_path / "out" / "failure.json").read_text())
    assert failure["kind"] == kind
    assert says in failure["messages"][0]


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


def test_validate_and_run_judge_at_one_resolution(tmp_path):
    # D dips between two points of a 128-sample grid, (0.09375, 0.3) to
    # (0.125, 0.25); both commands sample at one resolution, so both
    # fail the diffusivity hypothesis there
    ages = np.linspace(0.0, 8.0, 65)
    columns = {"lam": (ages, np.exp(ages / 2.0)), "b": (ages, np.exp(ages / 2.0)),
               "mu": (ages, np.full_like(ages, 0.3)),
               "D": ([0.0, 0.0625, 0.09375, 0.125, 8.0, 16.0],
                     [0.0, 0.2, 0.3, 0.25, 1.0, 2.0])}
    tables = {}
    for name, xy in columns.items():
        tables[name] = str(tmp_path / f"{name}.csv")
        np.savetxt(tables[name], np.column_stack(xy), delimiter=",")
    cfg = {"model": {"family": "tables", "tables": tables}, "alpha": 0.125, "a_max": 4.0,
           "domain": {"dim": 1, "extents": [4.0], "cells": [16]},
           "time": {"T": 0.1, "sample_dt": 0.05}, "diagnostics": {"tail_A": []},
           "output": {"dir": str(tmp_path / "out")}}
    path = _write(tmp_path, cfg)
    witness = "(0.09375, 'D not non-decreasing')"
    assert main(["validate", "--config", str(path)]) == 1
    report = json.loads((tmp_path / "out" / "hypotheses.json").read_text())
    assert report["witnesses"] == {"diffusivity": witness}
    assert main(["run", "--config", str(path)]) == 1
    failure = json.loads((tmp_path / "out" / "failure.json").read_text())
    assert failure["kind"] == "hypothesis_violation"
    assert failure["messages"] == [f"diffusivity: {witness}"]
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


@pytest.mark.parametrize("command", ["sweep", "crossval"])
@pytest.mark.parametrize("model, says", [
    ({"xi_support": [-1.0, 2.0]}, "rates: "),
    ({"xi0": 0.0, "mu": 1e308, "m0": 0.5}, "modulus: "),
], ids=["xi_below_zero", "huge_mu"])
def test_integrating_commands_refuse_failed_hypotheses(tmp_path, monkeypatch, command,
                                                       model, says):
    # sweep and crossval judge the data of every setup they build
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
        exponential_spec(m0=0.5, tau=1.0, mu=1e308, xi0=0.0), R_max=8.0, A_max=2.0,
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


def test_a_crossval_beyond_its_tolerance_writes_failure_json(tmp_path):
    # crossval.json still reads passed: false, and the failure names each
    # relative error above the tolerance
    cfg = dict(CROSSVAL, crossval_tolerance=1e-12, output={"dir": str(tmp_path / "out")})
    assert main(["crossval", "--config", str(_write(tmp_path, cfg))]) == 1
    payload = json.loads((tmp_path / "out" / "crossval.json").read_text())
    assert payload["passed"] is False
    failure = json.loads((tmp_path / "out" / "failure.json").read_text())
    assert failure["kind"] == "crossval_violation"
    assert failure["messages"] == [
        f"{name}: {payload[name]:.3e} > tolerance 1e-12" for name in ("rel_l2_Lambda",
                                                                     "rel_l2_v")]


def test_validate_fails_as_run_does(tmp_path):
    # data that fail a hypothesis: validate writes hypotheses.json and the
    # failure.json that run writes for the same configuration
    cfg = dict(MINIMAL, model={"xi_support": [-1.0, 2.0]})
    for command in ("validate", "run"):
        cfg["output"] = {"dir": str(tmp_path / command)}
        assert main([command, "--config", str(_write(tmp_path, cfg))]) == 1
    assert sorted(p.name for p in (tmp_path / "validate").iterdir()) == [
        "failure.json", "hypotheses.json"]
    validated, ran = (json.loads((tmp_path / command / "failure.json").read_text())
                      for command in ("validate", "run"))
    assert validated == ran
    assert ran["kind"] == "hypothesis_violation" and ran["messages"][0].startswith("rates: ")


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_an_age_grid_too_large_for_memory_is_config_invalid(tmp_path, monkeypatch, command):
    # 4e6 bins x 128 cells of float64 take about 4 GB per copy of the bins:
    # refused after the hypotheses, before any grid is built
    grids = []
    monkeypatch.setattr(config_mod, "build_age_grid", lambda *args: grids.append(args))
    cfg = dict(MINIMAL, alpha=1e-6, a_max=4.0, diagnostics={"tail_A": []},
               domain={"dim": 1, "extents": [1.0], "cells": [128]},
               output={"dir": str(tmp_path / "out")})
    assert main([command, "--config", str(_write(tmp_path, cfg))]) == 2
    failure = json.loads((tmp_path / "out" / "failure.json").read_text())
    assert failure["kind"] == "config_invalid"
    assert failure["messages"] == [
        "alpha: 4000000 age bins x 128 cells need 2 copies of 3.81 GiB of bins, above the "
        "budget of 2 GiB"]
    assert grids == []


def test_the_memory_budget_counts_every_live_copy_of_the_bins(monkeypatch):
    # MINIMAL has 16 bins of 16 cells: two copies of 2048 bytes
    cfg = RunConfig.from_dict(MINIMAL)
    monkeypatch.setattr(config_mod, "MEMORY_BUDGET", 2 * 16 * 16 * 8)
    config_mod.build_run_setup(cfg, check_hypotheses=False)
    monkeypatch.setattr(config_mod, "MEMORY_BUDGET", 2 * 16 * 16 * 8 - 1)
    with pytest.raises(ConfigInvalid) as err:
        config_mod.build_run_setup(cfg, check_hypotheses=False)
    assert [m.split(":")[0] for m in err.value.messages] == ["alpha"]


def test_every_sweep_level_is_held_to_the_memory_budget(tmp_path, monkeypatch):
    # the levels have 16, 32 and 64 bins of 16, 32 and 64 cells; only the
    # last exceeds a budget of two copies of the middle one's bins
    calls = _count_integrations(monkeypatch)
    monkeypatch.setattr(config_mod, "MEMORY_BUDGET", 2 * 32 * 32 * 8)
    cfg = dict(MINIMAL, output={"dir": str(tmp_path / "out")})
    assert main(["sweep", "--config", str(_write(tmp_path, cfg))]) == 2
    failure = json.loads((tmp_path / "out" / "failure.json").read_text())
    assert failure["messages"][0].startswith("alpha: 64 age bins x 64 cells need 2 copies")
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
