"""tools/bench_record.py reads what perfbench/bench.py prints.

The two files under ``data/`` are the stdout of ``perfbench/bench.py
--workload oracle --seed 0 --seconds 1`` with ``--trace 0`` and with
``--trace 1``, captured as printed.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture(scope="module")
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record",
                                                  ROOT / "tools" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_record_names_every_benchmark_metric(bench_record):
    plain = bench_record.parse_stdout((DATA / "bench_oracle_trace0.txt").read_text())
    traced = bench_record.parse_stdout((DATA / "bench_oracle_trace1.txt").read_text())
    record = bench_record.workload_record(plain, traced)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert list(bench_record.WORKLOADS) == [w["name"] for w in bench["workloads"]]
    assert sorted(record["end_to_end"]) == sorted(m["name"] for m in bench["end_to_end"])
    assert sorted(record["per_layer"]) == sorted(m["name"] for m in bench["per_layer"])
    # the timings carry their spread; the raw medians and the slowdown too
    for name in ("wall_s", "setup_s"):
        assert set(record["end_to_end"][name]) == {"value", "unit", "median", "q1", "q3", "n"}
        assert record["end_to_end"][name]["q1"] <= record["end_to_end"][name]["q3"]
    assert set(record["raw"]) == {"wall_s", "setup_s"}
    assert record["slowdown"]["n"] >= 1
    assert plain["env"]["seed"] == 0
    assert record["attempted"] > 0 and record["failed"] == 0
