"""Tests of the benchmark itself:

    python3 -m pytest -q perfbench

The exact-count test runs every workload twice through run.py, so it takes
a minute or two.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# counts the benchmark promises to repeat exactly across runs of the same code
EXACT = (
    "integrate.rk4_step.calls",
    "dynamics.rhs_vanilla.calls",
    "dynamics.rhs_rotary.calls",
    "quadspace.simplex_distance.calls",
    "dynamics.rhs.gflop_computed",
)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_exact_counts_repeat_across_runs(workload):
    runs = []
    for _ in range(2):
        proc = bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, proc.stderr
        runs.append({k: result["metrics"][k]["value"] for k in EXACT})
    assert runs[0] == runs[1]
    assert runs[0]["integrate.rk4_step.calls"] > 0
    assert runs[0]["dynamics.rhs.gflop_computed"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "sweep", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_gate_tolerances():
    ref = {"exit": 0, "terminated": "horizon_reached", "regime": "undecided", "samples": 101,
           "final_sketch": [10.0, -20.0, 5.0]}
    near = dict(ref, final_sketch=[10.0 + 1e-6, -20.0, 5.0])
    far = dict(ref, final_sketch=[10.0 + 1e-3, -20.0, 5.0])
    assert wl.matches(ref, ref)
    assert wl.matches(near, ref)
    assert not wl.matches(far, ref)
    assert not wl.matches(dict(ref, samples=100), ref)
    assert not wl.matches({"exit": 0}, ref)
    checks = {"exit": 0, "checks": {"norm_collapse": "pass", "projection_band": "skip"}}
    assert not wl.matches({"exit": 0, "checks": {"norm_collapse": "fail", "projection_band": "skip"}}, checks)


def test_members_are_balanced():
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    for workload, key in (("sweep", "rk4_steps"), ("verify", "simplex_iterations")):
        work = [m[key] for m in reference[workload]["members"]]
        assert max(work) <= 1.05 * min(work), (workload, work)
