"""Smoke test of the benchmark itself, with a tiny operation count.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric BENCHMARK.json declares is emitted with its unit in
both modes, that the wall-clock timings are printed too, that the answers
check out, and that the benchmark refuses to run without the package
sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--ops", "12")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == (24 if trace else 12)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float), m["name"]
    if not trace:   # the wall-clock timings are printed next to the declared ones
        for name, unit in (("ops_per_s", "1/s"), ("latency_p50_ms", "ms"),
                           ("latency_p95_ms", "ms")):
            assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                       for line in proc.stdout.splitlines()), name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
               "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
