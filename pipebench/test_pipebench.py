"""Tests of the pipeline benchmark itself, at the workloads' smoke sizes.

    python3 -m pytest pipebench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from layers import PER_LAYER_UNITS
from run import END_TO_END_UNITS
from workloads import WORKLOADS, seed_plan

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "pipebench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_harness():
    assert SPEC["command"] == ["python3", "pipebench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER_UNITS
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_seed_plan_is_a_function_of_the_seed():
    assert seed_plan("ud_dblp", 7) == seed_plan("ud_dblp", 7)
    assert seed_plan("ud_dblp", 7)["solve"] != seed_plan("ud_dblp", 8)["solve"]
    assert seed_plan("ud_dblp", 7)["solve"] != seed_plan("cd_adaptive", 7)["solve"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(workload):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", "0", "--smoke")
    result = result_line(proc)
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] > 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == END_TO_END_UNITS
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not re.search(r"^check \S+\s+fail", proc.stdout, re.MULTILINE)
    assert "error_rate" in proc.stdout
    assert not (ROOT / ".pipebench_work").exists() or not any((ROOT / ".pipebench_work").iterdir())


def test_traced_smoke_run_counts_repeat_across_runs():
    runs = [
        result_line(run_bench("--workload", "cd_adaptive", "--seed", "5", "--seconds", "0",
                              "--trace", "1", "--smoke"))
        for _ in range(2)
    ]
    for result in runs:
        assert result["correct"] is True
        assert {n: m["unit"] for n, m in result["metrics"].items()} == PER_LAYER_UNITS
    counts = [
        {n: m["value"] for n, m in r["metrics"].items() if m["unit"] == "count"} for r in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["adaptive.stages"] > 1 and counts[0]["cd.pair_evals"] > 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "pipebench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "ud_dblp", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_reference_seconds_cancel_machine_speed():
    from reference import REFERENCE_S, ParallelReference, ReferenceJob, in_reference_s

    assert in_reference_s(2.0, REFERENCE_S) == 2.0
    # A machine twice as slow doubles both the stage and the reference job.
    assert in_reference_s(4.0, 2 * REFERENCE_S) == 2.0
    job = ReferenceJob()
    assert job.seconds() > 0 and job.seconds() > 0
    with ParallelReference(2) as pool:
        assert pool.seconds() > 0
