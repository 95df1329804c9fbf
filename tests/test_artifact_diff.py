"""tools/artifact_diff.py compares two output directories file by file.

The directories here are written by hand; no solver runs.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def artifact_diff():
    spec = importlib.util.spec_from_file_location("artifact_diff",
                                                  ROOT / "tools" / "artifact_diff.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(directory: Path, files: dict) -> Path:
    directory.mkdir()
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")
    return directory


CSV = "t,l2_Lambda,label\n0,1.0,a\n0.5,2.0,b\n1,4.0,c\n"
SWEEP = {"alphas": [0.125, 0.0625], "residual_orders": [math.nan], "tol": None}
MANIFEST = {"config_hash": "abc", "steps": 12, "wall_time": 0.25}


def _files(csv=CSV, sweep=SWEEP, manifest=MANIFEST) -> dict:
    return {"diagnostics.csv": csv, "sweep.json": json.dumps(sweep),
            "manifest.json": json.dumps(manifest)}


def test_same_bytes_and_wall_time_aside_are_identical(artifact_diff, tmp_path):
    a = _write(tmp_path / "a", _files())
    b = _write(tmp_path / "b", _files(manifest=dict(MANIFEST, wall_time=9.0)))
    assert artifact_diff.compare_dirs(a, b) == []


def test_reports_the_largest_change_per_csv_column(artifact_diff, tmp_path):
    a = _write(tmp_path / "a", _files())
    b = _write(tmp_path / "b", _files(csv=CSV.replace("2.0,b", "2.5,b").replace("4.0,c",
                                                                                "4.4,c")))
    assert artifact_diff.compare_dirs(a, b) == [
        "diagnostics.csv l2_Lambda: largest relative change 0.2"]
    c = _write(tmp_path / "c", _files(csv=CSV.replace(",c\n", ",d\n")))
    assert artifact_diff.compare_dirs(a, c) == [
        "diagnostics.csv label: largest relative change inf"]


def test_reports_each_json_leaf_that_moved(artifact_diff, tmp_path):
    a = _write(tmp_path / "a", _files())
    b = _write(tmp_path / "b", _files(
        sweep=dict(SWEEP, alphas=[0.125, 0.0625 * 1.5], tol=1.0),
        manifest=dict(MANIFEST, steps=16)))
    assert artifact_diff.compare_dirs(a, b) == [
        "manifest.json steps: largest relative change 0.25",
        f"sweep.json alphas[1]: largest relative change {1 / 3:.3g}",
        "sweep.json tol: largest relative change inf",
    ]


def test_reports_missing_files_and_other_bytes(artifact_diff, tmp_path):
    a = _write(tmp_path / "a", {**_files(), "field.bin": "x"})
    b = _write(tmp_path / "b", {**_files(), "field.bin": "y", "failure.json": "{}"})
    assert artifact_diff.compare_dirs(a, b) == [
        "failure.json: only in " + str(b),
        "field.bin: bytes differ",
    ]


def test_relative_change(artifact_diff):
    assert artifact_diff.rel_change(math.nan, math.nan) == 0.0
    assert artifact_diff.rel_change(1.0, math.nan) == math.inf
    assert artifact_diff.rel_change(1.0, math.inf) == math.inf
    assert artifact_diff.rel_change(-2.0, 2.0) == 2.0
