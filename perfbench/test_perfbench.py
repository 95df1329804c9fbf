"""Tests of the benchmark itself, on tiny configurations of each workload."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench
import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
EXACT_COUNTS = (
    "solver_core.steps",
    "solver_core.dt_bound_calls_per_step",
    "age_discretization.coeff_calls_per_step",
    "model_spec.estimate_kappas_calls",
)


def _tiny(name, trace):
    return bench.measure(name, seed=3, seconds=0.0, trace=trace, tiny=True,
                         setup_repeats=1)["result"]


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_emitted_with_unit(name, trace):
    result = _tiny(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    expected = spans.PER_LAYER if trace else bench.END_TO_END
    assert list(result["metrics"]) == list(expected)
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == expected[metric][0]
        assert isinstance(entry["value"], (int, float)), metric
    json.dumps(result, allow_nan=False)


@pytest.mark.parametrize("name", ["ref1d", "oracle"])
def test_exact_counts_repeat(name):
    first, second = (_tiny(name, True)["metrics"] for _ in range(2))
    for metric in EXACT_COUNTS:
        assert first[metric]["value"] == second[metric]["value"], metric


def test_oracle_steps_pinned_by_fixed_dt():
    time_cfg = WORKLOADS["oracle"].config(0, tiny=True)["time"]
    steps = _tiny("oracle", True)["metrics"]["solver_core.steps"]["value"]
    assert steps == 2 * round(time_cfg["T"] / time_cfg["fixed_dt"])


def test_missing_hook_is_absent_not_fatal():
    import swarmpde.solver_core as solver_core

    renamed = tuple(
        spans.Hook(h.owner, h.attr + "_renamed", h.span) if "_dt" in h.span else h
        for h in spans.HOOKS
    )
    original = solver_core.step
    with spans.Tracer(renamed) as tr:
        assert solver_core.step is not original
    assert solver_core.step is original
    assert sorted(tr.missing) == ["solver_core.positivity_dt_renamed",
                                  "solver_core.stable_dt_renamed"]
    metrics = spans.layer_metrics(tr, 0)
    assert metrics["solver_core.dt_bound_s"] is None
    assert metrics["solver_core.dt_bound_calls_per_step"] is None
    assert metrics["spatial_grid.div_flux_calls"] == 0


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for section, emitted in (("end_to_end", bench.END_TO_END),
                             ("per_layer", spans.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[section]}
        assert listed == emitted, section


def test_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/bench.py", "--workload", "ref1d", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_missing_step_hook_is_named(tmp_path):
    from workloads import check_outputs

    oracle = WORKLOADS["oracle"]
    (tmp_path / "crossval.json").write_text('{"passed": true, "rel_l2_Lambda": 0.01}')
    res = check_outputs(oracle, oracle.config(0), 0, tmp_path, None)
    assert not res.ok
    assert any("solver_core.step" in p for p in res.problems)
