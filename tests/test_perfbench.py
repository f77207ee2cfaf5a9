"""Smoke test of the benchmark: ``perfbench/run.py`` on its smallest workload, run
unchanged against this tree's library in a copy, so its cache stays out of the tree."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_small_file_workload_passes_its_gate(tmp_path, trace):
    ignore = shutil.ignore_patterns("__pycache__", ".perfbench_work")
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=ignore)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    # --seconds 8: two trials per experiment, so on two CPUs a child writes trial 0's traces
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small_file", "--seed", "5",
         "--seconds", "8", "--trace", trace],
        cwd=tmp_path, capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
    if trace == "0":
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
        missing = {m["name"] for m in declared} - set(result["metrics"])
        assert not missing, missing
