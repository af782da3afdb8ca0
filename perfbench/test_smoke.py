"""Smoke test of the benchmark itself at tiny input sizes.

Not part of the repository's test suite and has no wall-clock gate:

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(root: Path, workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra],
        capture_output=True, text=True, cwd=root, timeout=600,
    )


def result(out: subprocess.CompletedProcess) -> dict:
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    r = result(run(ROOT, workload, trace))
    assert set(r) == {"correct", "attempted", "failed", "metrics"}
    assert r["correct"] is True and r["failed"] == 0 and r["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in r["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    assert all(isinstance(v["value"], (int, float)) for v in r["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_expected_output_is_counted_as_failed(workload):
    r = result(run(ROOT, workload, 0, "--inject-fault"))
    assert r["correct"] is False
    assert r["failed"] / r["attempted"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("_work", "__pycache__"))
    out = run(tmp_path, WORKLOADS[0], 0)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
