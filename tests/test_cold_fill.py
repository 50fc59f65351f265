"""tools/cold_fill.py on a few items of a workload, in its own process."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cold_fill.py"


def _run(*args):
    proc = subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True,
                          timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def test_cold_fill_counts_and_times_every_miss():
    code, out, err = _run("--workload", "sweep", "--seed", "4242", "--items", "5")
    assert code == 0, err
    doc = json.loads(out.splitlines()[-1])
    assert (doc["workload"], doc["seed"], doc["items"], doc["failed"]) == ("sweep", 4242, 5, 0)
    layers = doc["layers"]
    assert set(layers) == {"operator", "adjugate", "table"}
    # Each sweep item solves patterns 1-6 and reads their tables: at most 6
    # operators and 1 table per item, and each solve reads its operator's adjugate.
    assert 0 < layers["operator"]["misses"] <= 30
    assert layers["adjugate"]["misses"] == layers["operator"]["misses"]
    assert 0 < layers["table"]["misses"] <= 5
    for layer in layers.values():
        assert 0 < layer["ms"] < doc["pass_ms"]
        assert layer["share"] == pytest.approx(layer["ms"] / doc["pass_ms"])
    assert doc["cold_fill_share"] == pytest.approx(sum(v["share"] for v in layers.values()))
    assert doc["cold_fill_share"] < 1


def test_cold_fill_refuses_an_empty_pass():
    code, _, err = _run("--workload", "sweep", "--seed", "1", "--items", "0")
    assert code == 2 and "--items must be at least 1" in err
