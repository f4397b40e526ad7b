"""Smoke test of the benchmark at toy sizes (horizon 2; 1 for hedge-grid).

Every workload runs untraced and traced, every metric that BENCHMARK.json
declares is emitted with its unit, a wrong reference value counts as a
failed invocation, and a directory without the program is refused.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _toy(name, trace, workdir):
    workload = WORKLOADS[name]
    return run.run_workload(workload, seed=3, seconds=0.0, trace=trace,
                            horizon=workload.toy_horizon, workdir=workdir)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_emits_every_declared_metric(name, trace, tmp_path):
    record = _toy(name, trace, tmp_path)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    line = json.loads(run.contract_line(record, [m["name"] for m in declared]))
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert record["metrics"]["fail_ratio"]["value"] == 0
    for metric in declared:
        got = line["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
    if trace:
        assert (tmp_path / "spans.jsonl").stat().st_size > 0


def test_wrong_reference_is_a_failed_invocation(tmp_path, monkeypatch):
    real = run.reference_value
    monkeypatch.setattr(run, "reference_value", lambda w, wd: real(w, wd) + 1.0)
    record = _toy("lp-inventory", 0, tmp_path)
    assert record["failed"] == record["attempted"] >= 1
    assert record["metrics"]["fail_ratio"]["value"] > 0
    assert json.loads(run.contract_line(record, ["wall_s"]))["correct"] is False


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_nan_value_is_a_failed_invocation(name):
    checker = run.Checker(WORKLOADS[name], reference=0.5)
    report = dict.fromkeys(WORKLOADS[name].keys, float("nan"))
    checker(0, json.dumps(report).encode())
    assert checker.failed == checker.attempted == 1
    assert any("not a finite number" in p for p in checker.problems[0])


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "lp-inventory",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
