"""Smoke tests of the benchmark harness.

Run from the root of a source checkout:

    python3 -m pytest perfbench/test_run.py

The first test makes one short pass over every workload (about a minute
on two CPUs), the second one short traced pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, PER_LAYER, SUMMARY_ONLY, span_stats  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(*args, cwd=HERE.parent):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args, "--seconds", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_every_workload_prints_its_metrics_and_fails_nothing():
    out = bench("--workload", "all", "--trace", "0")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= len(WORKLOADS)
    for name in WORKLOADS:
        for metric, unit in END_TO_END:
            entry = result["metrics"][f"{name}.{metric}"]
            assert entry["unit"] == unit
            assert entry["value"] > 0
    summary = [line.split() for line in lines if line.startswith("  ")]
    for metric, unit in END_TO_END + SUMMARY_ONLY:
        assert sum(f[:1] == [metric] and f[2] == unit for f in summary) == len(WORKLOADS)
    fail_fracs = [f for f in summary if f[:1] == ["fail_frac"]]
    assert len(fail_fracs) == len(WORKLOADS)
    assert all(float(f[1]) == 0.0 and f[2] == "ratio" for f in fail_fracs)


def test_traced_pass_prints_every_per_layer_metric():
    out = bench("--workload", "verify", "--trace", "1")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(PER_LAYER)
    # 11 configurations at 1000 time points, one spectrum per point on
    # each path, and 25 configs validated.
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["gaussian.symplectic_eigenvalues.calls"] == 11000
    assert metrics["oracles.symplectic_eigenvalues.calls"] == 11000
    assert metrics["config.from_dict.calls"] == 25


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "verify", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""


def test_self_time_excludes_child_spans():
    report = {
        "names": ["outer", "inner"],
        # (name index, start, end, parent span index)
        "spans": [[0, 0.0, 10.0, -1], [1, 1.0, 4.0, 0], [1, 5.0, 6.0, 0]],
    }
    stats = span_stats(report)
    assert stats["outer"] == (1, 10.0, 6.0)
    assert stats["inner"] == (2, 4.0, 4.0)
