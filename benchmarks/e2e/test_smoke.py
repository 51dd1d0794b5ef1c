"""Harness test: ``pytest benchmarks/e2e -q`` (outside tier-1 testpaths).

Runs the whole suite at smoke size, untraced and traced, and checks the
printed output against BENCHMARK.json.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def test_smoke_prints_every_metric_and_nothing_fails(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = tmp_path / "run.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )  # fmt: skip
    assert done.returncode == 0, done.stdout + done.stderr
    printed = {
        (m.group(1), m.group(2)): m.group(3)
        for m in re.finditer(r"^(\w+)\s+([\w.]+)\s+\S+ (\S+)$", done.stdout, re.MULTILINE)
    }
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"] + spec["per_layer"]:
            assert printed.get((workload["name"], metric["name"])) == metric["unit"], (
                workload["name"], metric["name"],
            )  # fmt: skip
    report = json.loads(out.read_text())
    assert len(report["runs"]) == 2 * len(spec["workloads"])
    for run in report["runs"]:
        assert run["failed"] == 0 and run["attempted"] > 0, run["errors"]
    assert report["env"]["python"] and report["env"]["nproc"]


def test_one_workload_prints_the_contract_line():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--workload", "adhoc_short",
         "--seed", "2", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )  # fmt: skip
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for metric in spec["end_to_end"]:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert line["metrics"][metric["name"]]["value"] > 0
