"""The ``bench`` report and the names the perfbench tracer wraps."""

import importlib
import importlib.util
import inspect
import time
from pathlib import Path

import viewsim.bench
from viewsim.metrics import PROXY_METRICS


def test_bench_looks_up_regulators_outside_the_timed_region(monkeypatch):
    calls = []
    real = viewsim.bench.default_configs
    monkeypatch.setattr(viewsim.bench, "default_configs", lambda: calls.append(1) or real())
    report = viewsim.bench.run_bench(n_users=4, n_points=300, naive_pairs=1, repeats=3, seed=1)
    assert len(calls) <= 8
    assert set(report["speedups"]) == {m.value for m in PROXY_METRICS}


def test_bench_reports_speedup_vs_vectorized_and_memory_peaks():
    report = viewsim.bench.run_bench(n_users=4, n_points=300, naive_pairs=0, repeats=1, seed=1)
    per_pair = {row["label"]: row["per_pair_s"] for row in report["rows"]}
    assert report["speedups"] == {}  # no naive pair timed
    assert report["speedup_vs_vectorized"] == {
        m.value: per_pair["overlap_vectorized"] / per_pair[m.value] for m in PROXY_METRICS
    }
    (vectorized,) = [row for row in report["rows"] if row["label"] == "overlap_vectorized"]
    assert vectorized["peak_mb"] > 0.0 and report["graph_build_peak_mb"] > 0.0
    cast = report["derive_pr"]
    assert set(cast) == {"per_user_frame_s", "cv", "peak_mb"}
    assert cast["per_user_frame_s"] > 0.0 and cast["cv"] == 0.0 and cast["peak_mb"] > 0.0  # one repeat: no spread


def test_bench_times_only_warm_calls(monkeypatch):
    # each wrapped function's first call sleeps: a row that timed a first call would read the sleep
    first_calls = []

    def sleeping_first(name, real):
        def wrapped(*args, **kwargs):
            if name not in first_calls:
                first_calls.append(name)
                time.sleep(0.2)
            return real(*args, **kwargs)
        return wrapped

    names = ("derive_pr", "overlap_matrix", "build_surface_graph", "compute_pair_features", "geodesic_gaze")
    for name in names:
        real = getattr(viewsim.bench, name, None)  # a bench that never calls one fails on the last assert
        monkeypatch.setattr(viewsim.bench, name, sleeping_first(name, real), raising=False)
    report = viewsim.bench.run_bench(n_users=4, n_points=300, naive_pairs=1, repeats=1, seed=1)
    n_pairs = report["n_pairs_per_frame"]
    spans = {"derive_pr": report["derive_pr"]["per_user_frame_s"] * report["n_users"],
             "graph_build_s": report["graph_build_s"]}
    for row in report["rows"]:
        spans[row["label"]] = row["per_pair_s"] * row.get("pairs_timed", n_pairs)
    assert set(spans) == {"derive_pr", "graph_build_s", "overlap_naive", "overlap_vectorized",
                          *(m.value for m in PROXY_METRICS)}
    slow = {label: s for label, s in spans.items() if s >= 0.1}
    assert slow == {}, "these rows timed a first call"
    assert sorted(first_calls) == sorted(names)


def test_perfbench_trace_targets_resolve():
    # the tracer skips a name it cannot resolve, so a renamed function would silently read 0
    spec = importlib.util.spec_from_file_location("perfbench_child", Path(__file__).parents[1] / "perfbench" / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    unresolved = set()
    for name, (module, attr, _) in child.TARGETS.items():
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            unresolved.add(name)
    # pose_from_view no longer exists; the benchmark's next change traces frusta instead
    assert unresolved <= {"geometry.pose_from_view"}
    # a work counter reads its layer's arguments by name, and a renamed one only counts a work error
    read = {}
    for name, (module, attr, work) in child.TARGETS.items():
        if work is None or name in unresolved:
            continue
        try:
            work({}, ())  # no arguments bound: the first one the counter reads is missing
            continue  # it counts the result alone
        except KeyError as missing:
            read[name] = missing.args[0]
        fn = importlib.import_module(module)
        for part in attr.split("."):
            fn = getattr(fn, part)
        assert read[name] in inspect.signature(fn).parameters, name
    assert set(read.values()) == {"path", "points", "cloud", "sources", "users", "matrices", "labels"}


def test_perfbench_tracer_counts_every_layer_on_a_real_session(tmp_path):
    # perfbench counts a work counter's error as a failed op; run its five commands under the tracer
    import json
    import os
    import subprocess
    import sys

    from viewsim.cli import main

    root = Path(__file__).parents[1]
    data = tmp_path / "data"
    assert main(["--seed", "3", "--out", str(data), "synth", "--users-per-group", "2", "--frames", "4",
                 "--points", "400"]) == 0
    src = str(root / "src")
    env = dict(os.environ, PERFBENCH_SRC=src, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    base = ["--manifest", str(data / "manifest.json"), "--out", str(tmp_path / "out"), "--threads", "2"]
    counted = set()
    for command in (["overlap"], ["metrics"], ["calibrate"], ["evaluate", "--mode", "chunk"],
                    ["ablate", "--metric", "w7", "--fix", "beta=0.5"]):
        spans = tmp_path / f"{command[0]}.spans.json"
        proc = subprocess.run([sys.executable, str(root / "perfbench" / "child.py"), "trace", str(spans), "--",
                               *base, *command], env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        layers = json.loads(spans.read_text())["layers"]
        assert [name for name, agg in layers.items() if "work_errors" in agg] == [], command
        counted |= {name for name, agg in layers.items() if set(agg) - {"calls", "incl_s", "self_s"}}
    # every counter ran on real arguments at least once
    assert counted == {
        "ply.read_ply", "geometry.contains_points", "geometry.build_surface_graph", "geometry.geodesic_rows",
        "metrics.overlap_matrix", "metrics.compute_pair_features", "metrics.write_matrices_csv",
        "calibration.roc_curve", "calibration.ablate",
    }
