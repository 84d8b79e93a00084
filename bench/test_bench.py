"""Self-test of the benchmark at tiny sizes, with no timing gate.

    python3 -m pytest bench/test_bench.py

Runs every workload of ``BENCHMARK.json`` end to end with ``--tiny``, once
untraced and once traced, and checks that the result line names every
metric with its unit and that the output checks pass.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result_of(workload: str, trace: int) -> dict:
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_checks(workload):
    result = result_of(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_checks(workload):
    result = result_of(workload, 1)
    assert result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert metrics["trainer.train.calls"] > 0
    assert (metrics["fairness.exposure_exact.calls"] > 0) == (workload == "exact-n7")
    assert (metrics["fairness.exposure_mc.calls"] > 0) == (workload != "exact-n7")
    for layer in ("baselines.solve_fair_lp", "baselines.train_top1_baseline"):
        assert (metrics[f"{layer}.calls"] > 0) == (workload == "tradeoff-n10")
    trace_file = json.loads((BENCH / "out" / f"{workload}.trace.json").read_text())
    assert trace_file["metrics"] == metrics


def test_checks_catch_a_wrong_report(tmp_path):
    sys.path.insert(0, str(BENCH))
    import checks
    import run

    result_of("exact-n7", 0)
    work = BENCH / "work" / "exact-n7"
    round_dir = tmp_path / "round"
    shutil.copytree(work / "round-0", round_dir)
    workload = run.TINY["exact-n7"]
    assert checks.check_round(workload, work / "inputs", round_dir)[0] == []
    report = round_dir / "eval" / "report.csv"
    header, first, *rest = report.read_text().splitlines()
    qid, metric, err, disparity = first.split(",")
    first = ",".join([qid, metric, err, repr(float(disparity) + 1e-6)])
    report.write_text("\n".join([header, first, *rest]) + "\n")
    failures = checks.check_round(workload, work / "inputs", round_dir)[0]
    assert any("exact group disparity" in f for f in failures)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("work", "out", "__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
