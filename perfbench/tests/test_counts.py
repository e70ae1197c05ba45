"""Benchmark self-tests: result format, and exact counts in traced runs.

    python3 -m pytest perfbench/tests -q      (from the repository root)

Each traced run takes 10-60 s; oracle-cn is the slowest.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


WORKLOADS = [w["name"] for w in _spec()["workloads"]]


def _run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_untraced_run_reports_every_end_to_end_metric():
    res = _run("grid-scan", 5, 0)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = _run(workload, 7, 1), _run(workload, 7, 1)
    spec = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == spec
    counts = [name for name, unit in spec.items() if unit == "count"]
    assert counts
    assert first["correct"] and second["correct"]
    assert ({n: first["metrics"][n]["value"] for n in counts}
            == {n: second["metrics"][n]["value"] for n in counts})


def test_refuses_to_run_without_the_program(tmp_path):
    """Outside a checkout (no src/sts_toa) the benchmark fails without a result."""
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(os.path.join(ROOT, "perfbench")):
        path = os.path.join(ROOT, "perfbench", name)
        if name.endswith(".py"):
            (bench / name).write_text(open(path, encoding="utf-8").read())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "grid-scan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
