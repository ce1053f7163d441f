"""Self-test of the benchmark: ``python3 -m pytest perfbench``.

Runs the short-configs workload through run.py, untraced and traced, and
checks that every metric named in BENCHMARK.json comes out with its unit
and that a corrupted reference file makes the gate count failures.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import outputs
from worker import ROOT

SEED = outputs.load_manifest()["seed"]


def _run(root: str, trace: int) -> tuple[subprocess.CompletedProcess, dict | None]:
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", "short-configs",
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc, result


def _copy_checkout(dest: str, parts: tuple[str, ...]) -> str:
    for part in parts:
        source = os.path.join(ROOT, part)
        if os.path.isdir(source):
            shutil.copytree(source, os.path.join(dest, part), ignore=shutil.ignore_patterns("__pycache__", ".perfbench_tmp"))
        else:
            shutil.copy(source, dest)
    return dest


@pytest.fixture(scope="module")
def bench_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(bench_spec, trace, section):
    proc, result = _run(ROOT, trace)
    assert result is not None, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, proc.stderr
    expected = {m["name"]: m["unit"] for m in bench_spec[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_layer_table_matches_benchmark_json(bench_spec):
    import layers

    assert list(layers.SHOULD_MOVE) == [m["name"] for m in bench_spec["per_layer"]]
    workloads = {w["name"] for w in bench_spec["workloads"]}
    end_to_end = {m["name"] for m in bench_spec["end_to_end"]}
    for name, (moves, on) in layers.SHOULD_MOVE.items():
        assert set(on) <= workloads and set(moves) <= end_to_end, name


def test_corrupted_reference_drives_failed_ratio_above_zero(tmp_path):
    root = _copy_checkout(str(tmp_path), ("src", "configs", "perfbench", "BENCHMARK.json"))
    path = os.path.join(root, "perfbench", "reference", "free_gaussian", "series.csv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    row = lines[-1].split(",")
    row[1] = repr(float(row[1]) * (1 + 1e-4))  # the variance at the last snapshot
    lines[-1] = ",".join(row)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    proc, result = _run(root, 0)
    assert result is not None, proc.stderr
    assert result["failed"] > 0 and not result["correct"]
    assert "free_gaussian/series.csv" in proc.stderr


def test_refuses_to_run_without_the_program(tmp_path):
    root = _copy_checkout(str(tmp_path), ("perfbench", "BENCHMARK.json"))
    proc, result = _run(root, 0)
    assert proc.returncode != 0 and result is None
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("scale, matches", [(1 + 1e-12, True), (1 + 1e-4, False)])
def test_tolerance_admits_rounding_and_rejects_real_changes(scale, matches):
    with open(os.path.join(outputs.REFERENCE_DIR, "cm_newton", "series.csv"), encoding="utf-8") as fh:
        want = fh.read()
    lines = want.splitlines()
    row = lines[-1].split(",")
    row[1] = repr(float(row[1]) * scale)  # x_cm at the final time
    got = "\n".join(lines[:-1] + [",".join(row)]) + "\n"
    assert (outputs.compare_file("cm_newton", "series.csv", got, want, same_seed=True) is None) == matches


def test_dropped_rows_are_caught():
    with open(os.path.join(outputs.REFERENCE_DIR, "free_gaussian", "series.csv"), encoding="utf-8") as fh:
        want = fh.read()
    lines = want.splitlines()
    got = "\n".join(lines[:-2] + lines[-1:]) + "\n"
    assert outputs.compare_file("free_gaussian", "series.csv", got, want, same_seed=True) is not None
