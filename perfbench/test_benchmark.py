"""Self-check of the benchmark against its own BENCHMARK.json.

Runs every workload briefly, traced and untraced, and checks that every
declared metric is printed by name with its unit and that no item failed.
Run from the repository root (about a minute):

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT_S = 180


def run_benchmark(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [*SPEC["command"], "--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_reported_and_no_item_fails(workload, trace):
    proc = run_benchmark(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    reported = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert reported == {metric["name"]: metric["unit"] for metric in declared}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True
    if trace == 0:
        assert result["metrics"]["ok_ratio"]["value"] == 1.0


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
