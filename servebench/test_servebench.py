"""Fast test of the serving benchmark: every workload at tiny scale.

Run from the repository root with ``python -m pytest servebench``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())
#: requests per workload: enough for every layer to do some work
TINY = {"rush-served": 150, "booking-durable": 150}


def _run(workload: str, trace: int, seed: int = 3, hash_seed: str = "0"):
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace),
        "--scale", str(TINY[workload]),
    ]
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    done = subprocess.run(command, capture_output=True, text=True, env=env,
                          cwd=HERE.parent, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_declared_workloads_are_the_runnable_ones():
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS) == list(TINY)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", list(TINY))
def test_every_metric_present_with_its_unit(workload, trace):
    _, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= TINY[workload] and result["failed"] == 0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)


def test_same_seed_same_outcomes_across_processes():
    """Digest and served share repeat under another string-hash seed."""
    first, first_result = _run("rush-served", 0, hash_seed="1")
    second, second_result = _run("rush-served", 0, hash_seed="2")
    assert first[0].split("digest=")[1] == second[0].split("digest=")[1]
    share = [r["metrics"]["served_share"]["value"] for r in (first_result, second_result)]
    assert share[0] == share[1] > 0


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    """Run from a directory without the program: no result, non-zero exit."""
    bare = tmp_path / "bare"
    (bare / "servebench").mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (bare / "servebench" / path.name).write_text(path.read_text())
    (bare / "BENCHMARK.json").write_text(json.dumps(DECLARED))
    done = subprocess.run(
        [sys.executable, "servebench/run.py", "--workload", "rush-served",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
