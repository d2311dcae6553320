"""Wall-clock comparison: naive exact overlap vs the proxy metrics.

The baseline is the cost an unoptimized exact evaluation pays per user
pair: rebuild both frusta, test every cloud point against six planes in
pure Python, and intersect the index sets.  Proxies are costed the way the
pipeline actually runs them: per-frame feature construction (including
geodesic shortest paths where needed) divided by the number of pairs the
frame serves, plus the kernel application.  The one-off surface graph build
is amortized over a configurable frame horizon and reported separately.
Timings are machine-dependent; counts and ratios are what the report is
for.  Repeats expose run-to-run variance as a coefficient of variation.
The gaze ray cast (``derive_pr``) is timed apart from the per-pair rows,
per user and frame, as the median of the repeats.  Memory peaks are
``tracemalloc`` peaks of one further, untimed call, so tracing moves no
timing.
"""

from __future__ import annotations

import math
import time
import tracemalloc

import numpy as np

from .geometry import FrustumParams, build_surface_graph, frustum_planes
from .metrics import PROXY_METRICS, compute_pair_features, default_configs, overlap_matrix
from .synth import SynthScenario, generate_cloud, generate_trajectories, orbit_groups
from .errors import InvalidParamsError
from .trajectories import derive_pr


def _naive_planes(position, view, params: FrustumParams):
    return [
        (float(n[0]), float(n[1]), float(n[2]), float(d))
        for n, d in zip(*frustum_planes(position, view, params))
    ]


def _naive_viewport(points, planes) -> set:
    # literal transcription: every point is tested against all six planes
    out = set()
    add = out.add
    for idx, (x, y, z) in enumerate(points):
        inside = True
        for a, b, c, d in planes:
            if a * x + b * y + c * z + d < 0.0:
                inside = False
        if inside:
            add(idx)
    return out


def naive_pair_overlap(points, viewer_i, viewer_j, params: FrustumParams) -> float:
    """Exact overlap of one pair the slow way (fresh work per pair).

    Each viewer is a ``(position, view)`` pair.
    """
    si = _naive_viewport(points, _naive_planes(*viewer_i, params))
    sj = _naive_viewport(points, _naive_planes(*viewer_j, params))
    union = len(si | sj)
    if union == 0:
        return math.nan
    return len(si & sj) / union


def _bench_scenario(n_users: int, n_points: int, seed: int) -> SynthScenario:
    # groups of four at distinct anchors keep every user's gaze hit a distinct graph source
    return orbit_groups(
        [min(4, n_users - k) for k in range(0, n_users, 4)], 0.05,
        seed=seed, cloud_kind="sphere", points_per_frame=n_points, n_frames=1, fps=30.0,
    )


def _peak_mb(fn) -> float:
    """The ``tracemalloc`` peak of one call of ``fn``, in MB of 2**20 bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _stats(samples) -> tuple:
    arr = np.asarray(samples, dtype=np.float64)
    mean = float(arr.mean())
    cv = float(arr.std(ddof=0) / mean) if mean > 0 else 0.0
    return mean, cv


def run_bench(
    n_users: int = 32,
    n_points: int = 100_000,
    naive_pairs: int = 6,
    repeats: int = 3,
    seed: int = 0,
    amortize_frames: int = 300,
) -> dict:
    """Time the oracle and each proxy; returns a JSON-ready report."""
    if min(n_users, n_points, repeats, amortize_frames) < 1 or naive_pairs < 0:
        raise InvalidParamsError("bench sizes must be at least 1, and naive_pairs at least 0")
    params = FrustumParams()
    scenario = _bench_scenario(n_users, n_points, seed)
    clouds = generate_cloud(scenario)
    cloud = clouds[0]
    ds = generate_trajectories(scenario, clouds)
    users, x, view = ds.users, ds.x[:, 0], ds.view[:, 0]
    p, r, off = derive_pr(x, view, ds.off[:, 0], cloud)
    n = len(users)
    n_pairs = n * (n - 1) // 2
    report: dict = {
        "n_users": n,
        "n_points": int(cloud.points.shape[0]),
        "n_pairs_per_frame": n_pairs,
        "repeats": repeats,
        "amortize_frames": amortize_frames,
        "rows": [],
        "speedups": {},
        "speedup_vs_vectorized": {},
        "accounting": (
            "naive oracle: fresh pure-python frustum tests per pair; "
            "proxies: per-frame feature build divided by pairs served, plus kernels; "
            "surface graph build amortized over amortize_frames"
        ),
    }

    cast = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        derive_pr(x, view, ds.off[:, 0], cloud)
        cast.append((time.perf_counter() - t0) / n)
    peak = _peak_mb(lambda: derive_pr(x, view, ds.off[:, 0], cloud))
    report["derive_pr"] = {"per_user_frame_s": float(np.median(cast)), "cv": _stats(cast)[1], "peak_mb": peak}
    if n_pairs == 0:
        report["note"] = "fewer than two users: nothing to compare"
        return report

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    timed_pairs = pairs[:naive_pairs]
    points_list = [tuple(map(float, p)) for p in cloud.points]

    # Exact reference values for the sanity check below.
    exact = overlap_matrix(0, users, x, view, off, cloud, params)

    naive_means = []
    if timed_pairs:
        for _ in range(repeats):
            t0 = time.perf_counter()
            for i, j in timed_pairs:
                got = naive_pair_overlap(points_list, (x[i], view[i]), (x[j], view[j]), params)
                ref = float(exact.values[i, j])
                if not (math.isnan(got) and math.isnan(ref)) and abs(got - ref) > 1e-9:
                    raise AssertionError(f"naive oracle disagrees with production path: {got} vs {ref}")
            naive_means.append((time.perf_counter() - t0) / len(timed_pairs))
    naive_per_pair, naive_cv = _stats(naive_means) if naive_means else (None, None)  # null in JSON, never NaN
    report["rows"].append(
        {"label": "overlap_naive", "per_pair_s": naive_per_pair, "cv": naive_cv, "pairs_timed": len(timed_pairs)}
    )

    vec = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        overlap_matrix(0, users, x, view, off, cloud, params)
        vec.append((time.perf_counter() - t0) / n_pairs)
    vec_per_pair, cv = _stats(vec)
    peak = _peak_mb(lambda: overlap_matrix(0, users, x, view, off, cloud, params))
    report["rows"].append({"label": "overlap_vectorized", "per_pair_s": vec_per_pair, "cv": cv, "peak_mb": peak})

    t0 = time.perf_counter()
    graph = build_surface_graph(cloud)
    graph_build_s = time.perf_counter() - t0
    report["graph_build_s"] = graph_build_s
    report["graph_build_peak_mb"] = _peak_mb(lambda: build_surface_graph(cloud))
    graph_share = graph_build_s / amortize_frames / n_pairs

    configs = default_configs()
    for metric in PROXY_METRICS:
        needs_geo = metric.needs_geodesic
        reg = configs[metric].regulators
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            feats = compute_pair_features(0, users, x, p, r, off, graph=graph if needs_geo else None)
            feats.metric_matrix(metric, reg)
            times.append((time.perf_counter() - t0) / n_pairs + (graph_share if needs_geo else 0.0))
        m, cv = _stats(times)
        row = {"label": metric.value, "per_pair_s": m, "cv": cv}
        report["rows"].append(row)
        if m > 0:
            report["speedup_vs_vectorized"][metric.value] = vec_per_pair / m
            if naive_per_pair is not None:
                report["speedups"][metric.value] = naive_per_pair / m
    if report["speedups"]:
        report["min_speedup"] = min(report["speedups"].values())
    return report
