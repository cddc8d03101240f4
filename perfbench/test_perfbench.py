"""Tests of the benchmark itself: every workload at smoke size through
the same checks as a full run, and the independent checkers against the
program's own kernels.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
    BENCH = json.load(fh)


def run_bench(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0.5",
         "--trace", str(trace), "--size", "smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_workload(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"], proc.stderr
    assert result["attempted"] >= 1
    # validate-series: distances.csv is written with np.float64 reprs, a
    # fault every validate hits alike; every other workload fails nothing
    allowed = (0, result["attempted"]) if workload == "validate-series" else (0,)
    assert result["failed"] in allowed
    names = [m["name"] for m in BENCH["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for name in names:
        m = result["metrics"][name]
        assert isinstance(m["value"], (int, float))
        if not trace:
            assert m["value"] > 0


def test_refuses_without_program():
    work = os.path.join(ROOT, ".bench_work")
    os.makedirs(work, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=work)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "corpus-bursty", 0)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_dtw_checker_matches_program_kernel():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from dualq.stats import _dtw_py

    rng = random.Random(7)
    for _ in range(200):
        # small integer values make ties, which exercise the tie-break
        x = [float(rng.randint(0, 3)) for _ in range(rng.randint(1, 12))]
        y = [float(rng.randint(0, 3)) for _ in range(rng.randint(1, 12))]
        raw, plen = _dtw_py.dtw_pair(x, y)
        assert checks.dtw_norm(x, y) == raw / plen


def test_quantile_matches_numpy_linear():
    rng = np.random.default_rng(5)
    for n in (2, 3, 15, 66, 435):
        values = rng.gamma(2.0, 3.0, size=n)
        for q in (0.0, 0.25, 0.5, 0.95, 1.0):
            assert checks.quantile(values, q) == float(
                np.quantile(values, q, method="linear"))
