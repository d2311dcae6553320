"""The ``bench`` report and the names the perfbench tracer wraps."""

import importlib
import importlib.util
import inspect
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
