"""tools/artifact_diff.py compares two output directories file by file,
and the artifacts of this checkout with the committed fingerprints.

The directories and fingerprints of the comparison tests are written by
hand; only the fingerprint test runs the solver.
"""

import copy
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
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


def test_artifacts_match_the_committed_fingerprints(artifact_diff, tmp_path):
    # every artifact of the tool's commands at seed 0, bit for bit; a change
    # that moves one on purpose rewrites the file (--write-fingerprints)
    expected = json.loads(artifact_diff.FINGERPRINTS.read_text(encoding="utf-8"))
    assert artifact_diff.fingerprint_mismatches(
        expected, artifact_diff.fingerprints(tmp_path)) == []


PRINTS = {
    "environment": {"numpy": "2.0.0", "blas": {"name": "openblas"}, "simd": ["X86_V3"]},
    "rows": {
        "run ref1d": {"exit": 0, "files": {
            "diagnostics.csv": {"sha256": "aa", "last_row": {"t": "2", "l2_v": "4",
                                                             "mass_b": "1"}},
            "summary.json": {"sha256": "bb"}}},
        "validate ref1d": {"exit": 0, "files": {"hypotheses.json": {"sha256": "cc"}}},
    },
}


def test_fingerprint_mismatches_name_the_file_and_the_change(artifact_diff):
    assert artifact_diff.fingerprint_mismatches(PRINTS, PRINTS) == []
    moved = json.loads(json.dumps(PRINTS))
    moved["environment"]["blas"] = {"name": "mkl"}
    run = moved["rows"]["run ref1d"]
    run["files"]["diagnostics.csv"] = {"sha256": "ab", "last_row": {"t": "2", "l2_v": "5",
                                                                   "mass_b": "1.5"}}
    run["files"]["summary.json"]["sha256"] = "bc"
    run["files"]["failure.json"] = {"sha256": "dd"}
    moved["rows"]["validate ref1d"] = {"exit": 1, "files": {}}
    assert artifact_diff.fingerprint_mismatches(PRINTS, moved) == [
        "environment blas: {'name': 'mkl'} here, {'name': 'openblas'} in the fingerprints",
        "run ref1d diagnostics.csv: bytes differ, last row's largest relative change "
        f"{1 / 3:.3g} (mass_b)",
        "run ref1d failure.json: only here",
        "run ref1d summary.json: bytes differ",
        "validate ref1d: exit status 1 here, 0 in the fingerprints",
        "validate ref1d hypotheses.json: only in the fingerprints",
    ]
    same_row = json.loads(json.dumps(PRINTS))
    same_row["rows"]["run ref1d"]["files"]["diagnostics.csv"]["sha256"] = "ab"
    assert artifact_diff.fingerprint_mismatches(PRINTS, same_row) == [
        "run ref1d diagnostics.csv: bytes differ, last row unchanged"]


def test_a_build_without_simd_dispatch_names_the_difference(artifact_diff, monkeypatch):
    # numpy reports no "found" SIMD entry when every extension beyond its
    # baseline is disabled (NPY_DISABLE_CPU_FEATURES): no extensions, not
    # a KeyError
    config = copy.deepcopy(np.show_config(mode="dicts"))
    config["SIMD Extensions"].pop("found", None)
    monkeypatch.setattr(np, "show_config", lambda mode="stdout": config)
    here = artifact_diff.environment()
    assert here["simd"] == []
    expected = dict(PRINTS, environment=dict(here, simd=["X86_V3"]))
    assert artifact_diff.fingerprint_mismatches(expected, dict(PRINTS, environment=here)) == [
        "environment simd: [] here, ['X86_V3'] in the fingerprints"]
