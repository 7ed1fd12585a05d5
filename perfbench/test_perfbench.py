"""Tests of the benchmark itself, at a tiny size.

Run from the repository root with ``python3 -m pytest perfbench -q``.
Each test drives ``perfbench/run.py`` as the benchmark's users do, in a
subprocess, with ``--scale tiny`` and one-second runs.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, json.loads(lines[-1]) if lines else None


def tiny(workload, *extra):
    return bench("--workload", workload, "--seed", "0", "--seconds", "1", "--scale", "tiny", *extra)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_workload_runs_and_reports_every_metric_with_its_unit(workload, trace):
    proc, result = tiny(workload, "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    reported = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert reported == {metric["name"]: metric["unit"] for metric in listed}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    # The record keeps the host-speed probe's readings and the unscaled figures.
    record = json.loads(proc.stdout.strip().splitlines()[-2])["record"]
    assert record["host_speed"]["slowdown_median"] > 0
    assert len(record["setup_wall_s_each"]) == len(record["setup_s_each"])


def test_every_name_uses_only_allowed_characters():
    named = SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]
    names = [entry["name"] for entry in named]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name


def test_gate_trips_on_a_corrupted_digest(tmp_path):
    digests = json.loads((ROOT / "perfbench" / "digests.json").read_text(encoding="utf-8"))
    key = "closed-lanes/tiny/seed0"
    assert key in digests
    digests[key] = "0" * 64
    corrupted = tmp_path / "digests.json"
    corrupted.write_text(json.dumps(digests), encoding="utf-8")
    proc, result = tiny("closed-lanes", "--digests", str(corrupted))
    assert proc.returncode == 1
    assert result["correct"] is False


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc, result = bench(
        "--workload", "closed-lanes", "--seed", "0", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert result is None
