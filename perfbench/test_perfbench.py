"""The benchmark's own tests, at the smoke size.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

run.import_program()
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(tmp_cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=tmp_cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_reports_every_metric_with_its_unit(workload, trace):
    proc = _bench(run.ROOT, "--workload", workload, "--seed", "0", "--seconds", "0",
                  "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    # Only the edge-exit clip of forecast-dense fails, by the known defect.
    assert result["failed"] == (result["attempted"] // workloads.DENSE_ROUND
                                if workload == "forecast-dense" else 0)
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_benchmark_json_lists_what_the_harness_reports():
    assert [m["name"] for m in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == tracing.LAYER_METRICS


def test_perturbed_output_fails_the_golden_check(tmp_path):
    case = workloads.forecast_dense(0, "smoke", tmp_path)[0]
    checker = run.Checker("forecast-dense", "smoke", 0)
    assert checker.golden is not None
    _, digest, error = run.run_case(case)
    assert error is None and checker.judge(0, digest, error)

    report = Path(case.config["output"]) / "report.txt"
    report.write_text(report.read_text().replace("\n", "1\n", 1))  # one more digit on sAP
    assert not checker.judge(0, run._digest_eval(report.parent), None)
    assert checker.mismatches == 1

    sweep = workloads.pyramid_sweep(0, "smoke", tmp_path)[0]
    sweep_checker = run.Checker("pyramid-sweep", "smoke", 0)
    _, digest, error = run.run_case(sweep)
    assert sweep_checker.judge(0, digest, error)
    assert not sweep_checker.judge(0, digest[::-1], None)


def test_without_golden_digests_a_changed_output_fails_the_rerun_check():
    checker = run.Checker("forecast-dense", "smoke", -1)
    assert checker.golden is None
    assert checker.judge(0, "a" * 64, None)
    assert checker.judge(0, "a" * 64, None)
    assert not checker.judge(0, "b" * 64, None)


def test_same_seed_same_inputs(tmp_path):
    def inputs(make, seed):
        cases = make(seed, "smoke", tmp_path)
        files = [Path(c.config["dataset"]).read_bytes() for c in cases if "dataset" in c.config]
        return [c.config for c in cases], files

    for make in workloads.WORKLOADS.values():
        assert inputs(make, 3) == inputs(make, 3)
        assert inputs(make, 3) != inputs(make, 4)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench(tmp_path, "--workload", "forecast-dense", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
