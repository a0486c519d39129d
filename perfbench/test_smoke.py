"""Smoke test of the benchmark itself, at tiny input sizes.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_smoke.py -q

For every workload, timed and traced, the command must print every
metric BENCHMARK.json names, with its unit, and fail no check.  It also
checks the contract's shape and that the command refuses to run where
the program's source is missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_and_no_check_fails(workload: str, trace: int) -> None:
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
        assert f"  {metric['name']} = " in proc.stdout
    assert "  failed_ratio = 0 ratio" in proc.stdout
    if not trace:
        for metric in SPEC["end_to_end"]:
            assert result["metrics"][metric["name"]]["value"] > 0, metric["name"]


def test_contract_shape() -> None:
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert all(set(w) == {"name", "why"} for w in SPEC["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    with open(os.path.join(ROOT, "perfbench", "spec.json")) as handle:
        design = json.load(handle)
    assert set(design["workloads"]) == set(WORKLOADS)
    predicted = {m for p in design["predictions"] for m in p["metrics"]}
    assert predicted == {m["name"] for m in SPEC["per_layer"]}


def test_refuses_without_program_source() -> None:
    scratch = os.path.join(ROOT, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    bare = tempfile.mkdtemp(dir=scratch)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in SPEC["paths"]:
            shutil.copytree(
                os.path.join(ROOT, path), os.path.join(bare, path),
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        proc = run(WORKLOADS[0], 0, cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare)


def test_verdicts_follow_the_bounds() -> None:
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from compare import verdict

    noisy = [0.6, 1.4, 0.8, 1.2, 1.0, 0.7, 1.3, 0.9, 1.1, 1.0]
    steady = [1.0 + i / 1000 for i in range(10)]

    def call(parent, change):
        return verdict(parent, change, list(zip(parent, change)), "lower", 0.1)["verdict"]

    # A median worse by more than the bound is a regression, however
    # noisy either side is.
    assert call(steady, [2 * v for v in noisy]) == "regressed"
    assert call(steady, [1.01 * v for v in noisy]) == "unresolved"
    assert call(steady, [1.01 * v for v in steady]) == "no worse"
    assert call(steady, [0.5 * v for v in steady]) == "improved"
