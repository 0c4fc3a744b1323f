"""Smoke test of the benchmark: one short pass per workload.

    python3 -m pytest perfbench/test_smoke.py

Every workload runs once untraced and twice traced with ``--seconds 1``.
Each run must check clean and produce every metric ``BENCHMARK.json``
names, and the traced runs' work counts must repeat exactly for one seed.
Takes about two minutes; it is not part of the package's test suite.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# counts and computed bytes are work, not time; trace.cycles depends on speed
WORK_COUNTS = [m["name"] for m in SPEC["per_layer"]
               if m["unit"] in ("count", "bytes") and m["name"] != "trace.cycles"]


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result(workload, trace):
    out = bench(workload, trace)
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert res["failed"] == 0 and res["correct"], out.stderr
    assert res["attempted"] >= 1
    return res


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_clean_and_counts_repeat(workload):
    plain = result(workload, 0)
    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in plain["metrics"].values())

    traced = [result(workload, 1) for _ in range(2)]
    for res in traced:
        assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = [{k: res["metrics"][k]["value"] for k in WORK_COUNTS} for res in traced]
    assert counts[0] == counts[1]


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("small_problems", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
