import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viewsim import (
    FrustumParams,
    MetricId,
    PointCloudFrame,
    RegulatorSet,
    build_surface_graph,
    compute_pair_features,
    contains_points,
    default_configs,
    frustum_planes,
    overlap_matrix,
)
from viewsim.errors import MissingGraphError
from viewsim.metrics import PROXY_METRICS, PairFeatures, SimilarityMatrix, exp_kernel, write_matrices_csv
from viewsim.synth import _fibonacci_sphere

from conftest import Sample, assert_close, feature_columns, make_sample, overlap_columns
from oracles import metric_validity_oracle, metric_value, overlap_product_oracle, overlap_validity_oracle

# metric: (default regulators, default threshold, regulators it reads, needs a surface graph)
TABLE = {
    MetricId.W1: ((1.0, 0.0, 0.0), 0.64, ("alpha",), False),
    MetricId.W2: ((1.0, 0.0, 0.0), 0.80, ("alpha",), False),
    MetricId.W3: ((1.0, 0.0, 0.0), 0.63, ("alpha",), True),
    MetricId.W4: ((1.0, 0.0, 0.0), 0.84, ("alpha",), False),
    MetricId.W5: ((0.1, 0.5, 1.0), 0.54, ("alpha", "beta", "gamma"), True),
    MetricId.W6: ((0.1, 0.125, 0.2), 0.87, ("alpha", "beta", "gamma"), False),
    MetricId.W7: ((0.25, 0.5, 0.5), 0.60, ("alpha", "beta", "gamma"), True),
    MetricId.W8: ((0.5, 0.5, 0.5), 0.62, ("alpha", "beta", "gamma"), False),
}


def test_default_configs_frozen_table():
    configs = default_configs()
    for metric, (regs, th, names, geodesic) in TABLE.items():
        cfg = configs[metric]
        assert cfg.regulators.as_tuple() == regs
        assert cfg.threshold == th
        assert metric.regulator_names == names
        assert metric.needs_geodesic is geodesic
    assert configs[MetricId.OVERLAP].threshold == 0.75
    assert MetricId.OVERLAP.regulator_names == () and not MetricId.OVERLAP.needs_geodesic


def _kernel(alpha, d) -> float:
    return float(exp_kernel(alpha, np.array([d]))[0])


def test_kernel_basics():
    assert _kernel(0.0, 5.0) == 1.0
    assert _kernel(2.0, 0.0) == 1.0
    assert_close(_kernel(1.0, 1.0), math.exp(-1.0))
    assert _kernel(0.0, math.inf) == 0.0  # unreachable stays dissimilar
    assert _kernel(3.0, math.inf) == 0.0
    assert math.isnan(_kernel(1.0, math.nan))  # invalid pairs stay invalid


@given(st.floats(0, 50), st.floats(0, 1e6))
def test_kernel_range(alpha, d):
    v = _kernel(alpha, d)
    assert 0.0 <= v <= 1.0


@given(st.floats(0.01, 10), st.floats(0, 100), st.floats(0, 100))
def test_kernel_monotone_in_distance(alpha, d1, d2):
    lo, hi = sorted([d1, d2])
    assert _kernel(alpha, hi) <= _kernel(alpha, lo)


def _set_overlap(si, sj) -> float:
    """overlap_matrix of two viewers whose viewport sets are exactly si and sj.

    Viewer a at the origin and viewer b at x = 10 both look along -Z; each
    index becomes one cloud point placed where the viewers it belongs to
    see it: (5, 0, -10) for both, (0, 0, -1) for a only, (10, 0, -1) for b
    only.  One extra point behind both viewers keeps the cloud non-empty.
    """
    where = {(True, True): [5.0, 0.0, -10.0], (True, False): [0.0, 0.0, -1.0], (False, True): [10.0, 0.0, -1.0]}
    pts = [where[(k in si, k in sj)] for k in sorted(set(si) | set(sj))] + [[0.0, 0.0, 5.0]]
    x = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
    view = np.array([[0.0, 0.0, -1.0], [0.0, 0.0, -1.0]])
    mat = overlap_matrix(0, ("a", "b"), x, view, np.zeros(2, dtype=bool), PointCloudFrame(0.0, np.array(pts)), FrustumParams())
    return mat.values[0, 1] if mat.valid[0, 1] else None


def test_overlap_ratio_examples():
    assert _set_overlap([1, 2, 3], [2, 3, 4]) == 0.5
    assert _set_overlap([1, 2], [3, 4]) == 0.0
    assert _set_overlap([7], [7]) == 1.0
    assert _set_overlap([], [1, 2]) == 0.0
    assert _set_overlap([], []) is None  # empty union: invalid, not 0


def test_overlap_ratio_matches_rational_arithmetic():
    rng = np.random.default_rng(1)
    for _ in range(300):
        universe = rng.integers(5, 60)
        si = set(rng.choice(universe, rng.integers(0, universe), replace=False).tolist())
        sj = set(rng.choice(universe, rng.integers(0, universe), replace=False).tolist())
        if not (si | sj):
            continue
        frac = Fraction(len(si & sj), len(si | sj))
        assert _set_overlap(si, sj) == frac.numerator / frac.denominator


@given(
    st.sets(st.integers(0, 30)),
    st.sets(st.integers(0, 30)),
)
def test_overlap_ratio_bounds_and_symmetry(si, sj):
    if not (si | sj):
        return
    v = _set_overlap(si, sj)
    assert 0.0 <= v <= 1.0
    assert v == _set_overlap(sj, si)
    assert (v == 1.0) == (si == sj)


def _scene(seed=3, n_users=6, r_span=(0.8, 2.5)):
    """Random on-content samples over a sphere cloud plus its graph."""
    rng = np.random.default_rng(seed)
    cloud = PointCloudFrame(0.0, _fibonacci_sphere(600, 1.0))
    graph = build_surface_graph(cloud)
    samples = []
    for _ in range(n_users):
        x = rng.normal(size=3)
        x = 2.2 * x / np.linalg.norm(x)
        p = cloud.points[rng.integers(0, 600)]
        samples.append(make_sample(x, view=p - x, p=p, r=float(rng.uniform(*r_span))))
    users = tuple(f"u{k:02d}" for k in range(n_users))
    return users, samples, graph


def test_self_similarity_identities():
    users, samples, graph = _scene()
    for s in samples:
        for metric in PROXY_METRICS:
            reg = RegulatorSet(*TABLE[metric][0])
            v = metric_value(metric, reg, s, s, graph=graph)
            if metric in (MetricId.W7, MetricId.W8):  # the tanh kernels
                assert_close(v, 2 * reg.beta * math.tanh(s.r), tol=1e-12)
            else:
                assert_close(v, 1.0, tol=1e-12)


def test_symmetry_scalar_route():
    users, samples, graph = _scene(seed=4)
    for metric in PROXY_METRICS:
        reg = RegulatorSet(*TABLE[metric][0])
        for i in range(len(samples)):
            for j in range(i + 1, len(samples)):
                vij = metric_value(metric, reg, samples[i], samples[j], graph=graph)
                vji = metric_value(metric, reg, samples[j], samples[i], graph=graph)
                assert_close(vij, vji, tol=1e-12)


# distinct values, so a term reading the wrong regulator shows, and zeros;
# w7/w8's defaults have beta == gamma
@pytest.mark.parametrize("regs", [
    pytest.param(None, id="defaults"),
    pytest.param((0.7, 0.3, 1.9), id="distinct"),
    pytest.param((0.0, 1.1, 0.4), id="alpha0"),
    pytest.param((1.3, 0.0, 0.6), id="beta0"),
    pytest.param((0.4, 2.0, 0.0), id="gamma0"),
])
def test_matrix_route_matches_scalar_route(regs):
    users, samples, graph = _scene(seed=5)
    feats = compute_pair_features(0, users, *feature_columns(samples), graph=graph)
    for metric in PROXY_METRICS:
        reg = RegulatorSet(*(TABLE[metric][0] if regs is None else regs))
        mat = feats.metric_matrix(metric, reg)
        for i in range(len(users)):
            for j in range(len(users)):
                if i == j:
                    assert math.isnan(mat.values[i, j])
                    continue
                want = metric_value(metric, reg, samples[i], samples[j], graph=graph)
                assert_close(mat.values[i, j], want, tol=1e-12, rel=True)


def test_geodesic_features_bit_equal_to_a_pair_loop_and_skip_the_largest_vertex(monkeypatch):
    from scipy.sparse.csgraph import dijkstra

    import viewsim.metrics

    users, samples, graph = _scene(seed=16, n_users=9)
    samples[3] = make_sample([0.0, 2.2, 0.3], p=samples[1].p, r=1.5)  # shares user 1's gaze vertex
    samples[4] = make_sample([1.0, 0.5, 2.0], view=[0, 0, -1])  # no gaze target
    sweeps = []
    real = viewsim.metrics.geodesic_rows
    monkeypatch.setattr(viewsim.metrics, "geodesic_rows",
                        lambda g, sources, targets: sweeps.append(list(sources)) or real(g, sources, targets))
    gaze = compute_pair_features(0, users, *feature_columns(samples), graph=graph).gaze_geo
    snapped = [None if s.p is None else graph.nearest_index(s.p) for s in samples]
    distinct = sorted({v for v in snapped if v is not None})
    assert sweeps == [distinct[:-1]]
    want = np.full(gaze.shape, np.nan)
    for i, vi in enumerate(snapped):
        for j, vj in enumerate(snapped):
            if vi is not None and vj is not None:  # the smaller vertex's sweep serves both orientations
                want[i, j] = dijkstra(graph.adjacency, indices=min(vi, vj))[max(vi, vj)]
    assert gaze.tobytes() == want.tobytes()


def test_product_metric_factorizes():
    users, samples, graph = _scene(seed=6)
    feats = compute_pair_features(0, users, *feature_columns(samples), graph=graph)
    reg = RegulatorSet(0.3, 0.7, 1.1)
    w5 = feats.metric_matrix(MetricId.W5, reg)
    w1 = feats.metric_matrix(MetricId.W1, RegulatorSet(0.3, 0.0, 0.0))
    w2 = feats.metric_matrix(MetricId.W2, RegulatorSet(0.7, 0.0, 0.0))
    w3 = feats.metric_matrix(MetricId.W3, RegulatorSet(1.1, 0.0, 0.0))
    mask = w5.valid
    product = w1.values[mask] * w2.values[mask] * w3.values[mask]
    np.testing.assert_array_equal(w5.values[mask], product)
    # the euclidean-gaze variant factorizes the same way
    w6 = feats.metric_matrix(MetricId.W6, reg)
    w4 = feats.metric_matrix(MetricId.W4, RegulatorSet(1.1, 0.0, 0.0))
    np.testing.assert_array_equal(w6.values[mask], w1.values[mask] * w2.values[mask] * w4.values[mask])


def test_zero_regulators_degenerate_to_one():
    users, samples, graph = _scene(seed=7)
    feats = compute_pair_features(0, users, *feature_columns(samples), graph=graph)
    for metric in (MetricId.W5, MetricId.W6):
        mat = feats.metric_matrix(metric, RegulatorSet(0.0, 0.0, 0.0))
        assert np.all(mat.values[mat.valid] == 1.0)


def test_tanh_metric_range_bound():
    users, samples, graph = _scene(seed=8, r_span=(0.1, 40.0))
    feats = compute_pair_features(0, users, *feature_columns(samples), graph=graph)
    for beta in (0.25, 0.5, 2.0):
        mat = feats.metric_matrix(MetricId.W7, RegulatorSet(0.5, beta, 0.5))
        vals = mat.values[mat.valid]
        assert np.all(vals >= 0.0)
        assert np.all(vals <= 2.0 * beta)


def test_geodesic_metrics_need_graph():
    users, samples, _ = _scene(seed=9)
    feats = compute_pair_features(0, users, *feature_columns(samples), graph=None)
    with pytest.raises(MissingGraphError):
        feats.metric_matrix(MetricId.W3, RegulatorSet(1.0, 0.0, 0.0))
    # euclidean variants work without one
    feats.metric_matrix(MetricId.W4, RegulatorSet(1.0, 0.0, 0.0))


def test_missing_pr_invalidates_pr_metrics_only():
    users, samples, graph = _scene(seed=10, n_users=4)
    bare = make_sample([0.0, 0.0, 2.2], view=[0, 0, -1])  # no p, no r
    samples[2] = bare
    feats = compute_pair_features(0, users, *feature_columns(samples), graph=graph)
    w1 = feats.metric_matrix(MetricId.W1, RegulatorSet(1.0, 0.0, 0.0))
    w2 = feats.metric_matrix(MetricId.W2, RegulatorSet(1.0, 0.0, 0.0))
    assert w1.valid[0, 2] and w1.valid[2, 3]
    assert not w2.valid[0, 2] and not w2.valid[2, 3]
    assert w2.valid[0, 1]
    assert math.isnan(w2.values[0, 2])


def test_off_content_user_invalid_everywhere():
    users, samples, graph = _scene(seed=11, n_users=4)
    samples[1] = make_sample([5.0, 0.0, 0.0], view=[0, 0, -1], off_content=True)
    feats = compute_pair_features(0, users, *feature_columns(samples), graph=graph)
    w1 = feats.metric_matrix(MetricId.W1, RegulatorSet(1.0, 0.0, 0.0))
    assert not w1.valid[0, 1] and not w1.valid[1, 2]


def test_no_validity_mask_is_stored():
    # NaN in the values is the only record of an invalid pair
    assert [f.name for f in dataclasses.fields(SimilarityMatrix)] == ["frame", "users", "metric", "values"]
    assert [f.name for f in dataclasses.fields(PairFeatures)] == [
        "frame", "users", "pos_dist", "range_diff", "gaze_euc", "eta_sum", "gaze_geo"
    ]


@pytest.mark.parametrize("seed", range(8))
def test_nan_marks_exactly_the_pairs_the_mask_formulas_invalidate(seed, default_params):
    """Validity and values of every proxy and of the overlap against the former mask formulas and the scalar oracle.

    The users mix on-content users with and without a gaze target, off-content
    users that still carry a finite p and r (a direct caller may pass them;
    they must not count), and gaze targets on two far-apart blobs, whose
    geodesic distance is infinite.
    """
    rng = np.random.default_rng(seed)
    blob = rng.uniform(-0.5, 0.5, (60, 3))
    cloud = PointCloudFrame(0.0, np.vstack([blob, blob + 50.0]))
    graph = build_surface_graph(cloud, k=4)
    n = 9
    users = tuple(f"u{k:02d}" for k in range(n))
    kind = rng.permutation(["off-with-target", "off", "no-target"] + ["on"] * (n - 3))
    x = rng.uniform(-1.0, 1.0, (n, 3)) + np.where(rng.random((n, 1)) < 0.5, 0.0, 50.0) + [0.0, 0.0, 2.0]
    p = cloud.points[rng.integers(0, len(cloud.points), n)]
    r = rng.uniform(0.5, 3.0, n)
    no_target = np.isin(kind, ["off", "no-target"])
    p[no_target], r[no_target] = np.nan, np.nan
    off = np.isin(kind, ["off-with-target", "off"])
    feats = compute_pair_features(0, users, x, p, r, off, graph=graph)
    samples = [Sample(x[i], np.array([0.0, 0.0, -1.0]), None if np.isnan(r[i]) else p[i],
                      None if np.isnan(r[i]) else r[i], bool(off[i])) for i in range(n)]
    for metric in PROXY_METRICS:
        reg = RegulatorSet(*TABLE[metric][0])
        mat = feats.metric_matrix(metric, reg)
        want = metric_validity_oracle(metric, r, off)
        np.testing.assert_array_equal(mat.valid, want, err_msg=metric.value)
        assert want.any() and not want.all()
        for i, j in zip(*np.nonzero(want)):
            assert_close(mat.values[i, j], metric_value(metric, reg, samples[i], samples[j], graph=graph), rel=True)
    # the overlap: users near the blobs look at them or away from them
    view = np.where(rng.random((n, 1)) < 0.7, [0.0, 0.0, -1.0], [0.0, 0.0, 1.0])
    ov = overlap_matrix(0, users, x, view, off, cloud, default_params)
    from viewsim import contains_points, frustum_planes

    viewports = [set(np.flatnonzero(contains_points(frustum_planes(x[i], view[i], default_params), cloud.points)).tolist())
                 for i in range(n)]
    want = overlap_validity_oracle(viewports, off)
    np.testing.assert_array_equal(ov.valid, want)
    for i, j in zip(*np.nonzero(want)):
        frac = Fraction(len(viewports[i] & viewports[j]), len(viewports[i] | viewports[j]))
        assert ov.values[i, j] == frac.numerator / frac.denominator


def test_disconnected_gaze_kernel_zero():
    # two far-apart blobs: geodesic between them is infinite
    rng = np.random.default_rng(12)
    a = rng.uniform(-0.5, 0.5, (40, 3))
    b = rng.uniform(-0.5, 0.5, (40, 3)) + 50.0
    cloud = PointCloudFrame(0.0, np.vstack([a, b]))
    graph = build_surface_graph(cloud, k=4)
    si = make_sample([0, 0, 2], view=[0, 0, -1], p=cloud.points[0], r=2.0)
    sj = make_sample([50, 0, 2], view=[0, 0, -1], p=cloud.points[60], r=2.0)
    assert metric_value(MetricId.W3, RegulatorSet(1.0, 0, 0), si, sj, graph=graph) == 0.0
    # even a zero regulator cannot bridge an unreachable pair
    assert metric_value(MetricId.W3, RegulatorSet(0.0, 0, 0), si, sj, graph=graph) == 0.0
    assert metric_value(MetricId.W5, RegulatorSet(0.0, 0.0, 0.0), si, sj, graph=graph) == 0.0


def test_overlap_matrix_against_sets(default_params):
    rng = np.random.default_rng(13)
    cloud = PointCloudFrame(0.0, rng.uniform(-1, 1, (800, 3)))
    users = ("a", "b", "c", "d")
    samples = [make_sample(pos) for pos in ([0, 0, 2.5], [0.2, 0, 2.5], [2.5, 0, 0], [0, 0, -2.5])]
    mat = overlap_matrix(0, users, *overlap_columns(samples), cloud, default_params)
    from viewsim import contains_points, frustum_planes

    sets = [set(np.flatnonzero(contains_points(frustum_planes(s.x, s.view, default_params), cloud.points)).tolist()) for s in samples]
    for i in range(4):
        for j in range(i + 1, 4):
            union = sets[i] | sets[j]
            if union:
                want = len(sets[i] & sets[j]) / len(union)
                assert mat.values[i, j] == want
                assert mat.valid[i, j]
            else:
                assert not mat.valid[i, j]


def _blocks_cloud(n_points: int):
    """A cloud whose points 7..13 lie beyond every far plane, and a frame of six users round it."""
    rng = np.random.default_rng(24)
    points = rng.uniform(-1.0, 1.0, (n_points, 3))
    points[7:14] = 500.0 + rng.uniform(0.0, 1.0, (7, 3))
    x = np.array([[0, 0, 2.5], [0.3, 0, 2.5], [2.5, 0, 0], [0, 0, -2.5], [0, 2.5, 0], [0, 0, 3.0]], dtype=float)
    view = -x
    view[4] = -view[4]  # looking away: an empty viewport
    off = np.array([False, False, False, False, False, True])
    return PointCloudFrame(0, points), x, view, off


@pytest.mark.parametrize("n_points, block", [(60, 1), (60, 7), (60, 59), (60, 60), (60, 61), (2**16 + 2**15 + 3, None)])
def test_overlap_matches_the_unblocked_product_at_every_block_size(monkeypatch, n_points, block):
    import viewsim.geometry

    cloud, x, view, off = _blocks_cloud(n_points)
    params = FrustumParams(0.5, 0.5)
    seen = np.zeros(n_points, dtype=bool)
    for k in np.flatnonzero(~off):
        seen |= contains_points(frustum_planes(x[k], view[k], params), cloud.points)
    assert not seen[7:14].any()  # the second block of 7 holds no visible point
    if block is not None:
        monkeypatch.setattr(viewsim.geometry, "_SCAN_BLOCK", block)
    got = overlap_matrix(0, tuple("abcdef"), x, view, off, cloud, params).values
    want = overlap_product_oracle(x, view, off, cloud, params)
    assert got.tobytes() == want.tobytes()
    assert np.isfinite(got).any() and (got[~np.isnan(got)] < 1.0).any()


def test_overlap_matrix_is_the_product_oracle_for_64_users_with_absent_rows_unread():
    rng = np.random.default_rng(26)
    cloud = PointCloudFrame(0, _fibonacci_sphere(5000, 0.9))
    x = rng.normal(size=(64, 3))
    x *= rng.uniform(1.5, 3.0, (64, 1)) / np.linalg.norm(x, axis=1, keepdims=True)
    view = rng.normal(size=(64, 3)) * 0.2 - x
    off = rng.random(64) < 0.2
    x[off], view[off] = np.nan, 0.0  # an absent user's row is never built into a frustum
    params = FrustumParams(0.5, 0.5)
    got = overlap_matrix(0, tuple(range(64)), x, view, off, cloud, params).values
    assert got.tobytes() == overlap_product_oracle(x, view, off, cloud, params).tobytes()
    assert 0 < np.count_nonzero(got > 0) and np.isnan(got[off]).all()
    x[np.flatnonzero(~off)[5]] = [np.inf, 0.0, 0.0]
    with pytest.raises(ValueError, match=r"non-finite 3-vector: \[inf  0.  0.\]"):
        overlap_matrix(0, tuple(range(64)), x, view, off, cloud, params)


def test_overlap_matrix_with_every_user_off_content_is_all_nan(default_params):
    cloud = PointCloudFrame(0.0, _fibonacci_sphere(300, 1.0))
    values = overlap_matrix(0, ("a", "b", "c"), np.full((3, 3), np.nan), np.zeros((3, 3)), np.ones(3, dtype=bool), cloud, default_params).values
    assert values.shape == (3, 3) and np.isnan(values).all()


def test_overlap_matrix_empty_pair_invalid(default_params):
    cloud = PointCloudFrame(0.0, np.array([[0.0, 0.0, 0.0]]))
    users = ("a", "b")
    # both users look away from the only point
    samples = [make_sample([0, 0, z], view=[0, 0, 1]) for z in (0.5, 0.7)]
    mat = overlap_matrix(0, users, *overlap_columns(samples), cloud, default_params)
    assert not mat.valid[0, 1]
    assert math.isnan(mat.values[0, 1])


def test_overlap_matrix_off_content_user_invalid(default_params):
    cloud = PointCloudFrame(0.0, _fibonacci_sphere(300, 1.0))
    users = ("a", "b", "c")
    samples = [
        make_sample([0, 0, 2.5]),
        make_sample([0, 0, 2.5], off_content=True),
        make_sample([2.5, 0, 0]),
    ]
    mat = overlap_matrix(0, users, *overlap_columns(samples), cloud, default_params)
    assert not mat.valid[0, 1] and not mat.valid[1, 2]
    assert mat.valid[0, 2]


def test_matrices_csv_rows_follow_a_pair_loop(tmp_path):
    # asymmetric values, so a row read from the lower triangle would show
    values = np.random.default_rng(14).uniform(size=(5, 5))
    values[1, 3] = np.nan
    np.fill_diagonal(values, np.nan)
    users = tuple(f"u{k}" for k in range(5))
    mats = [SimilarityMatrix(3, users, MetricId.W1, values), SimilarityMatrix(4, users, MetricId.OVERLAP, values.T.copy())]
    want = ["frame,user_i,user_j,metric,value,valid"]
    for m in mats:
        for i in range(m.n):
            for j in range(i + 1, m.n):
                v = float(m.values[i, j])
                want.append(f"{m.frame},{m.users[i]},{m.users[j]},{m.metric.value},{v!r},{int(not math.isnan(v))}")
    write_matrices_csv(tmp_path / "m.csv", mats)
    assert (tmp_path / "m.csv").read_text() == "\n".join(want) + "\n"
    assert "3,u1,u3,w1,nan,0" in want and len(want) == 21
    solo = SimilarityMatrix(0, ("u0",), MetricId.W1, np.full((1, 1), np.nan))
    write_matrices_csv(tmp_path / "solo.csv", [solo])
    assert (tmp_path / "solo.csv").read_bytes() == b"frame,user_i,user_j,metric,value,valid\n"


def test_matrices_csv_round_trip(tmp_path):
    users, samples, graph = _scene(seed=15, n_users=4)
    samples[3] = make_sample([1.0, 0.5, 2.0], view=[0, 0, -1])  # invalid p/r pairs
    feats = compute_pair_features(0, users, *feature_columns(samples), graph=graph)
    mats = [feats.metric_matrix(m, RegulatorSet(*TABLE[m][0])) for m in (MetricId.W2, MetricId.W7)]
    path = tmp_path / "m.csv"
    write_matrices_csv(path, mats)
    rows = path.read_text().splitlines()
    assert rows[0] == "frame,user_i,user_j,metric,value,valid"
    body = iter(row.split(",") for row in rows[1:])
    for m in mats:
        assert not m.valid[0, 3] and m.valid[0, 1]  # both kinds of row are written
        for i, j in zip(*np.triu_indices(m.n, 1)):
            frame, ui, uj, metric, value, ok = next(body)
            assert (int(frame), ui, uj, metric, ok) == (m.frame, m.users[i], m.users[j], m.metric.value, str(int(m.valid[i, j])))
            np.testing.assert_array_equal(float(value), m.values[i, j])  # exact, NaN where invalid
    assert next(body, None) is None
    write_matrices_csv(tmp_path / "m2.csv", mats)
    assert (tmp_path / "m.csv").read_bytes() == (tmp_path / "m2.csv").read_bytes()
