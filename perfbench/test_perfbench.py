"""Smoke test of the benchmark itself.

    python3 -m pytest -q perfbench

Runs every workload at a small size through the untraced and the traced
path, and checks that injected faults are counted as failed ops.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gen  # noqa: E402
import run  # noqa: E402

SMOKE = {
    "rigid-large": gen.Shape(groups=3, points=800, frames=3, fps=2.0),
    "deforming-large": gen.Shape(groups=3, points=800, frames=3, fps=2.0, deforming=True),
    "crowd": gen.Shape(groups=9, points=400, frames=4, fps=2.0, crowd=True),
}


@pytest.fixture(autouse=True)
def smoke(monkeypatch):
    for name, shape in SMOKE.items():
        monkeypatch.setitem(run.SHAPES, name, shape)
    monkeypatch.setattr(run, "MIN_SESSIONS", 2)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_workload_runs_clean(workload, trace):
    report = run.run_benchmark(workload, seed=3, seconds=0, trace=trace)
    result = report["result"]
    assert report["errors"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 5 * (run.UNTRACED_IN_TRACE + 2 if trace else run.MIN_SESSIONS)
    assert set(result["metrics"]) == set(run.LAYER_METRICS if trace else run.E2E_UNITS)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["metrics.overlap_matrix.calls"]["value"] > 0
        assert result["metrics"]["calibration.ablate.combos"]["value"] == 81
    json.dumps(result)


def test_corrupted_overlap_value_fails_its_op(monkeypatch):
    real_spawn = run.spawn

    def corrupting_spawn(argv, *args, **kwargs):
        outcome = real_spawn(argv, *args, **kwargs)
        if argv[-1] == "overlap":
            out_dir = argv[argv.index("--out") + 1]
            path = os.path.join(out_dir, "overlap_rigid-large.csv")
            with open(path) as fh:
                rows = [line.split(",") for line in fh.read().splitlines()]
            row = next(r for r in rows[1:] if r[5] == "1")
            row[4] = repr(float(row[4]) * 0.5 + 0.01)
            with open(path, "w") as fh:
                fh.write("\n".join(",".join(r) for r in rows) + "\n")
        return outcome

    monkeypatch.setattr(run, "spawn", corrupting_spawn)
    report = run.run_benchmark("rigid-large", seed=3, seconds=0, trace=0)
    assert report["result"]["failed"] == 2
    assert not report["result"]["correct"]
    assert all(e.startswith("overlap frame") for e in report["errors"])


def test_nonzero_exit_fails_its_op(monkeypatch):
    monkeypatch.setitem(run.COMMANDS, "evaluate", ["evaluate", "--mode", "no-such-mode"])
    report = run.run_benchmark("crowd", seed=3, seconds=0, trace=0)
    assert report["result"]["failed"] == 2
    assert report["errors"] == ["evaluate: exit code 2"] * 2


def test_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crowd", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
