import math

import numpy as np
import pytest

from viewsim import (
    FrustumParams,
    PointCloudFrame,
    build_surface_graph,
    contains_points,
    frustum_planes,
    ray_cast_center,
    view_basis,
)
from viewsim.errors import InvalidParamsError
from viewsim.geometry import (
    frusta,
    geodesic_rows,
    quat_from_matrix,
    quat_to_matrix,
    unit,
    unit_rows,
    view_quaternion,
)

from conftest import assert_close, random_viewer
from oracles import (
    contains_points_oracle,
    dijkstra_oracle,
    frustum_planes_oracle,
    geodesic_distance,
    graph_edges,
    ray_cast_center_oracle,
    surface_adjacency_oracle,
    unit_oracle,
    viewport_set_oracle,
)

MINUS_Z = np.array([0.0, 0.0, -1.0])


def test_identity_pose_faces_minus_z():
    view = quat_to_matrix(np.array([1.0, 0.0, 0.0, 0.0])) @ MINUS_Z
    np.testing.assert_allclose(view, [0.0, 0.0, -1.0], atol=1e-15)


def test_yaw_half_turn_faces_plus_z():
    view = quat_to_matrix(np.array([0.0, 0.0, 1.0, 0.0])) @ MINUS_Z
    np.testing.assert_allclose(view, [0.0, 0.0, 1.0], atol=1e-15)


def test_view_basis_forward_is_unit_view():
    rng = np.random.default_rng(1)
    for _ in range(50):
        view = rng.normal(size=3) * rng.uniform(0.1, 10.0)
        f, r, u = view_basis(view)
        np.testing.assert_array_equal(f, unit(view))
        # right axis stays horizontal under the world-up convention
        assert abs(r[1]) < 1e-12
        np.testing.assert_allclose(np.stack([r, u, -f]) @ np.stack([r, u, -f]).T, np.eye(3), atol=1e-12)
        assert np.linalg.det(np.column_stack([r, u, -f])) > 0


def test_vertical_view_falls_back_to_z_up():
    for view in ([0.0, 2.0, 0.0], [0.0, -1.0, 0.0]):
        f, r, u = view_basis(view)
        assert abs(r[2]) < 1e-12
        np.testing.assert_allclose(np.cross(r, u), -f, atol=1e-12)


def test_view_quaternion_is_roll_free():
    rng = np.random.default_rng(2)
    for _ in range(50):
        view = unit(rng.normal(size=3))
        if abs(view[1]) > 0.99:
            continue
        rot = quat_to_matrix(view_quaternion(view))
        # right axis stays horizontal under the world-up convention
        assert abs(rot[1, 0]) < 1e-12
        np.testing.assert_allclose(rot[:, 2], -view, atol=1e-12)


def test_quaternion_matrix_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(100):
        q = rng.normal(size=4)
        q = q / np.linalg.norm(q)
        rot = quat_to_matrix(q)
        q2 = quat_from_matrix(rot)
        # q and -q encode the same rotation
        if np.dot(q, q2) < 0:
            q2 = -q2
        np.testing.assert_allclose(q, q2, atol=1e-12)
        np.testing.assert_allclose(rot @ rot.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(rot) > 0


def test_quaternion_matrices_batch_over_leading_axes():
    rng = np.random.default_rng(4)
    qs = rng.normal(size=(5, 7, 4))
    rot = quat_to_matrix(qs)
    assert rot.shape == (5, 7, 3, 3) and quat_to_matrix(qs[2, 3]).shape == (3, 3)
    for i, j in np.ndindex(5, 7):
        assert rot[i, j].tobytes() == quat_to_matrix(qs[i, j]).tobytes()


def test_unit_rows_matches_unit_row_by_row():
    # both against the np.linalg.norm form, since unit is unit_rows of one row;
    # bit equality rests on matmul running the one-vector norm's dot kernel on each row
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(120_000, 3)) * np.exp(rng.uniform(-30.0, 30.0, (120_000, 1)))
    rows[:20_000] = rng.normal(size=(20_000, 3)) * 1e-150
    rows[20_000:40_000] = rng.normal(size=(20_000, 3)) * 1e150
    stack = rng.normal(size=(40, 500, 3))
    for v in (rows, stack, stack[:, 7], stack[:, ::3], stack[..., ::-1]):
        flat = v.reshape(-1, 3)
        want = np.array([unit_oracle(row) for row in flat]).reshape(v.shape)
        got = unit_rows(v)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert np.array([unit(row) for row in flat]).reshape(v.shape).tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [[0.0, 0.0, 0.0], [1.0, np.nan, 0.0], [0.0, 0.0, -np.inf], [1e200, 0.0, 0.0]])
def test_unit_rows_rejects_zero_and_non_finite_rows(bad):
    v = np.ones((4, 6, 3))
    v[2, 5] = bad
    with pytest.raises(ValueError):
        unit_rows(v)


def test_unit_refuses_a_norm_that_overflows_exactly_where_np_linalg_norm_does():
    for k in (1, 2, 3):
        c = math.sqrt(np.finfo(np.float64).max / k)
        for _ in range(4):
            c = math.nextafter(c, 0.0)
        seen = set()
        for _ in range(9):
            v = np.array([c] * k + [0.0] * (3 - k))
            with np.errstate(over="ignore"):
                ok = bool(np.isfinite(np.linalg.norm(v)))
            if ok:
                assert unit_rows(v[None]).tobytes() == unit(v)[None].tobytes() == unit_oracle(v)[None].tobytes()
            else:
                for f in (unit, unit_rows, unit_oracle):
                    with pytest.raises(ValueError, match="overflows"):
                        f(v)
            seen.add(ok)
            c = math.nextafter(c, math.inf)
        assert seen == {True, False}, k


def _origin_planes(params=FrustumParams()):
    return frustum_planes(np.zeros(3), MINUS_Z, params)


def _inside(planes, point) -> bool:
    return bool(contains_points(planes, np.array([point], dtype=np.float64))[0])


def test_frustum_boundary_is_closed():
    fr = _origin_planes()
    near, far = 0.05, 100.0
    assert _inside(fr, [0.0, 0.0, -near])
    assert _inside(fr, [0.0, 0.0, -far])
    assert not _inside(fr, [0.0, 0.0, -near * 0.98])
    assert not _inside(fr, [0.0, 0.0, -far * 1.0001])
    # 90 degree fov: the side planes pass through |x| == depth
    assert _inside(fr, [0.5, 0.0, -0.5])
    assert _inside(fr, [-0.5, 0.0, -0.5])
    assert _inside(fr, [0.0, 0.5, -0.5])
    assert not _inside(fr, [0.5001, 0.0, -0.5])
    assert not _inside(fr, [0.0, -0.5001, -0.5])
    assert not _inside(fr, [0.3, 0.0, 0.2])  # behind the viewer


def test_asymmetric_fov():
    fr = _origin_planes(FrustumParams(hfov=1.0, vfov=0.4))
    th, tv = math.tan(0.5), math.tan(0.2)
    z = 2.0
    assert _inside(fr, [th * z * 0.999, 0.0, -z])
    assert not _inside(fr, [th * z * 1.001, 0.0, -z])
    assert _inside(fr, [0.0, tv * z * 0.999, -z])
    assert not _inside(fr, [0.0, tv * z * 1.001, -z])


def _viewport(planes, cloud) -> set:
    return set(np.flatnonzero(contains_points(planes, cloud.points)).tolist())


def test_viewport_set_matches_per_point_oracle():
    rng = np.random.default_rng(7)
    for _ in range(40):
        cloud = PointCloudFrame(0.0, rng.uniform(-4, 4, (rng.integers(50, 400), 3)))
        fr = frustum_planes(*random_viewer(rng))
        assert _viewport(fr, cloud) == viewport_set_oracle(fr, cloud.points)


def test_viewport_set_rigid_invariance():
    rng = np.random.default_rng(8)
    cloud = PointCloudFrame(0.0, rng.uniform(-2, 2, (500, 3)))
    position, view = random_viewer(rng)
    fr = frustum_planes(position, view)
    base = _viewport(fr, cloud)
    # yaw the whole scene about +Y and translate it; frusta are roll-free,
    # so only rotations that keep world up map one frustum onto another
    c, s = math.cos(1.1), math.sin(1.1)
    rot = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    shift = rng.uniform(-10, 10, 3)
    moved_cloud = PointCloudFrame(0.0, cloud.points @ rot.T + shift)
    moved = _viewport(frustum_planes(rot @ position + shift, rot @ view), moved_cloud)
    # boundary points may flip under rotation round-off; interior must agree
    sym = base ^ moved
    if sym:
        normals, offsets = fr
        dists = cloud.points[sorted(sym)] @ normals.T + offsets
        assert np.abs(dists).min() < 1e-9
    assert len(sym) <= 2


def _vertical_views(rng):
    """Views along +Y and -Y, and views whose unit y component sits within a few ulps of 1 - 1e-9."""
    y = 1.0 - 1e-9 + np.arange(-4, 5) * np.spacing(1.0)
    near = np.stack([np.sqrt(1.0 - y * y), y, np.zeros_like(y)], axis=1) * rng.uniform(0.5, 4.0, (y.size, 1))
    return np.concatenate([[[0.0, 1.0, 0.0], [0.0, -2.5, 0.0]], near, -near])


def test_frusta_rows_are_the_per_viewer_build_bit_for_bit():
    rng = np.random.default_rng(30)
    special = _vertical_views(rng)
    cut = np.abs(unit_rows(special)[:, 1]) > 1.0 - 1e-9
    assert cut.any() and not cut.all()  # both sides of the world-up fallback are exercised
    for n in range(1, 65):
        params = FrustumParams(*rng.uniform(0.2, 3.0, 2), 0.05, float(rng.choice([100.0, 1e6])))
        x = rng.uniform(-3.0, 3.0, (n, 3)) * 10.0 ** rng.uniform(-3, 3, (n, 1))
        view = rng.normal(size=(n, 3))
        rows = rng.choice(n, size=min(n, special.shape[0]), replace=False)
        view[rows] = special[rng.choice(special.shape[0], size=rows.size, replace=False)]
        normals, offsets = frusta(x, view, params)
        assert normals.shape == (n, 6, 3) and offsets.shape == (n, 6)
        for k in range(n):
            want_n, want_o = frustum_planes_oracle(x[k], view[k], params)
            one_n, one_o = frustum_planes(x[k], view[k], params)
            assert normals[k].tobytes() == one_n.tobytes() == want_n.tobytes(), (n, k)
            assert offsets[k].tobytes() == one_o.tobytes() == want_o.tobytes(), (n, k)


@pytest.mark.parametrize("row, value, message", [
    ("x", [np.nan, 0.0, 1.0], "non-finite 3-vector: [nan  0.  1.]"),
    ("x", [0.0, np.inf, 1.0], "non-finite 3-vector: [ 0. inf  1.]"),
    ("view", [0.0, 0.0, np.nan], "non-finite 3-vector: [ 0.  0. nan]"),
    ("view", [-np.inf, 0.0, 0.0], "non-finite 3-vector: [-inf   0.   0.]"),
    ("view", [0.0, 0.0, 0.0], "cannot normalize a zero or non-finite vector or one whose norm overflows"),
])
def test_frusta_refuse_a_bad_viewer_with_frustum_planes_error(row, value, message):
    rng = np.random.default_rng(31)
    rows = {"x": rng.uniform(-3.0, 3.0, (5, 3)), "view": rng.normal(size=(5, 3))}
    rows[row][3] = value
    for build in (lambda: frusta(rows["x"], rows["view"]), lambda: frustum_planes(rows["x"][3], rows["view"][3])):
        with pytest.raises(ValueError) as refused:
            build()
        assert str(refused.value) == message


def _same_mask(planes, points) -> np.ndarray:
    with np.errstate(all="ignore"):  # overflowing products are part of what is compared
        got, want = contains_points(planes, points), contains_points_oracle(planes, points)
    assert got.dtype == want.dtype == np.bool_ and got.tobytes() == want.tobytes()
    return got


@pytest.mark.parametrize("scale", [1e-300, 1e-170, 1.0, 1e160, 1e300])
def test_contains_points_is_the_summed_test_on_random_clouds(scale):
    rng = np.random.default_rng(32)
    for _ in range(20):
        position, view = random_viewer(rng)
        planes = frustum_planes(position * scale, view, FrustumParams(*rng.uniform(0.2, 3.0, 2), 0.05 * scale, 100.0 * scale))
        mask = _same_mask(planes, (position + rng.normal(size=(400, 3)) * 3.0) * scale)
        assert mask.any() and not mask.all()


def test_contains_points_is_the_summed_test_where_products_overflow():
    rng = np.random.default_rng(33)
    points = rng.choice([-1.0, 1.0], size=(500, 3)) * rng.uniform(1.0, 1.79, (500, 3)) * 1e308
    for _ in range(20):
        _same_mask(frustum_planes(*random_viewer(rng), FrustumParams(2.5, 2.5)), points)


def test_contains_points_on_each_plane_and_one_ulp_either_side():
    rng = np.random.default_rng(34)
    for _ in range(10):
        position, view = random_viewer(rng)
        normals, offsets = frustum_planes(position, view, FrustumParams(*rng.uniform(0.5, 2.5, 2)))
        points = position + unit(view) * rng.uniform(0.5, 5.0, (200, 1)) + rng.normal(size=(200, 3)) * 0.3
        inside = np.flatnonzero(_same_mask((normals, offsets), points))
        d = points @ normals.T
        for j in range(6):
            for i in inside[:5]:
                # point i exactly on plane j, then the plane moved one ulp either way past it
                for o, kept in ((-d[i, j], True), (np.nextafter(-d[i, j], np.inf), True), (np.nextafter(-d[i, j], -np.inf), False)):
                    moved = offsets.copy()
                    moved[j] = o
                    assert _same_mask((normals, moved), points)[i] == kept
                    for towards in (np.inf, -np.inf):
                        _same_mask((normals, moved), np.nextafter(points, towards))


def test_contains_points_at_a_far_plane_of_1e6():
    rng = np.random.default_rng(35)
    for _ in range(10):
        position, view = random_viewer(rng)
        planes = frustum_planes(position, view, FrustumParams(0.5, 0.5, 0.05, 1e6))
        depth = 1e6 + np.linspace(-1e-6, 1e-6, 401)
        points = position + depth[:, None] * unit(view)
        for nudged in (points, np.nextafter(points, np.inf), np.nextafter(points, -np.inf)):
            mask = _same_mask(planes, nudged)
            assert mask.any() and not mask.all()


def _same_hit(position, view, cloud, cone=0.035):
    with np.errstate(all="ignore"):  # squares that overflow are part of what is compared
        got, want = ray_cast_center(position, view, cloud, cone), ray_cast_center_oracle(position, view, cloud, cone)
    assert (got is None) == (want is None)
    if got is not None:
        assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]
    return got


def test_ray_cast_is_the_norm_oracle_on_random_clouds():
    rng = np.random.default_rng(36)
    hits = 0
    for _ in range(40):
        position, view = random_viewer(rng)
        cloud = PointCloudFrame(0, position + unit(view) * 2.0 + rng.normal(size=(2000, 3)))
        if rng.random() < 0.3:
            view = -view  # the cloud behind the viewer: mostly a miss
        hits += _same_hit(position, view, cloud, float(rng.uniform(0.01, 0.7))) is not None
    assert 0 < hits < 40


def test_ray_cast_sums_the_squares_in_the_norm_oracle_order():
    # points on the cone's boundary where the other order of the three squares flips the cone test
    rng = np.random.default_rng(39)
    half = 0.3
    a = rng.uniform(0.0, 2.0 * np.pi, 100_000)
    rel = np.stack([np.sin(half) * np.cos(a), np.sin(half) * np.sin(a), -np.full_like(a, np.cos(half))], axis=1)
    rel *= rng.uniform(0.5, 3.0, (a.size, 1))
    sq = rel * rel
    in_order = -rel[:, 2] >= np.sqrt((sq[:, 0] + sq[:, 1]) + sq[:, 2]) * math.cos(half)
    flipped = rel[in_order != (-rel[:, 2] >= np.sqrt(sq[:, 0] + (sq[:, 1] + sq[:, 2])) * math.cos(half))]
    assert flipped.shape[0] >= 20
    hits = [_same_hit(np.zeros(3), MINUS_Z, PointCloudFrame(0, p[None]), half) is not None for p in flipped[:20]]
    assert any(hits) and not all(hits)


@pytest.mark.parametrize("block", [1, 2, 3, 7, 64, None])
def test_ray_cast_ties_across_blocks_are_the_oracle(monkeypatch, block):
    import viewsim.geometry

    if block is not None:
        monkeypatch.setattr(viewsim.geometry, "_SCAN_BLOCK", block)
    rng = np.random.default_rng(37)
    for _ in range(10):
        # a few distinct points at one depth, each repeated across the cloud in shuffled order
        ties = np.column_stack([rng.normal(size=(4, 2)) * 0.01, np.full(4, -1.0)])
        points = np.concatenate([ties.repeat(5, axis=0), rng.normal(size=(40, 3)) * 3.0])
        points = points[rng.permutation(points.shape[0])]
        p, _ = _same_hit(np.zeros(3), MINUS_Z, PointCloudFrame(0, points), 0.1)
        assert p[2] == -1.0


@pytest.mark.parametrize("lo, hi", [(-175.0, -150.0), (150.0, 160.0)], ids=["underflow", "overflow"])
def test_ray_cast_is_the_norm_oracle_where_squares_underflow_or_overflow(lo, hi):
    rng = np.random.default_rng(38)
    for _ in range(10):
        rows = (np.array([0.0, 0.0, -1.0]) + rng.normal(size=(300, 3)) * 0.02) * 10.0 ** rng.uniform(lo, hi, (300, 1))
        with np.errstate(all="ignore"):
            sq = rows * rows
        assert ((sq == 0.0) | (sq < np.finfo(float).tiny)).any() if lo < 0 else np.isinf(sq).any()
        assert _same_hit(np.zeros(3), MINUS_Z, PointCloudFrame(0, rows)) is not None


def test_invalid_frustum_params_rejected():
    with pytest.raises(InvalidParamsError):
        FrustumParams(hfov=0.0)
    with pytest.raises(InvalidParamsError):
        FrustumParams(vfov=math.pi)
    with pytest.raises(InvalidParamsError):
        FrustumParams(near=0.0)
    with pytest.raises(InvalidParamsError):
        FrustumParams(near=2.0, far=1.0)


def test_ray_cast_dense_sphere(unit_sphere_cloud):
    hit = ray_cast_center(np.array([0.0, 0.0, 2.0]), MINUS_Z, unit_sphere_cloud)
    assert hit is not None
    p, r = hit
    np.testing.assert_allclose(p, [0.0, 0.0, 1.0], atol=0.03)
    assert abs(r - 1.0) < 0.03


def test_ray_cast_picks_nearest_on_ray():
    cloud = PointCloudFrame(0.0, np.array([[0.0, 0.0, -3.0], [0.0, 0.0, -1.0], [0.0, 0.0, -2.0]]))
    p, r = ray_cast_center(np.zeros(3), MINUS_Z, cloud)
    np.testing.assert_allclose(p, [0.0, 0.0, -1.0])
    assert_close(r, 1.0)


# viewer at the origin looking along -Z: three points at depth exactly 1 tie inside the cone
_TIE_CLOUD = np.array([
    [0.0, 0.0, 1.0], [0.5, 0.0, -0.5], [0.0, 0.0, -3.0], [0.2, 0.2, -2.0], [0.01, 0.0, -1.0],
    [0.0, 0.0, -2.0], [1.0, 1.0, 1.0], [-0.01, 0.0, -1.0], [0.0, 0.01, -1.0], [0.0, 0.0, -1.5],
])


@pytest.mark.parametrize("block", [1, 3, 4, 5, None])
@pytest.mark.parametrize("points, first", [(_TIE_CLOUD, 4), (_TIE_CLOUD[::-1], 1)], ids=["forward", "reversed"])
def test_ray_cast_tie_across_blocks_returns_the_first_index(monkeypatch, points, first, block):
    import viewsim.geometry

    if block is not None:
        monkeypatch.setattr(viewsim.geometry, "_SCAN_BLOCK", block)
    p, r = ray_cast_center(np.zeros(3), MINUS_Z, PointCloudFrame(0, points))
    assert p.tobytes() == points[first].tobytes() and r == float(np.linalg.norm(points[first]))


def test_ray_cast_miss_is_none():
    cloud = PointCloudFrame(0.0, np.array([[0.0, 0.0, -1.0]]))
    assert ray_cast_center(np.zeros(3), -MINUS_Z, cloud) is None


def test_ray_cast_cone_bounds():
    cloud = PointCloudFrame(0.0, np.array([[0.0, 0.0, -1.0]]))
    with pytest.raises(InvalidParamsError):
        ray_cast_center(np.zeros(3), MINUS_Z, cloud, cone_half_angle=0.0)
    with pytest.raises(InvalidParamsError):
        ray_cast_center(np.zeros(3), MINUS_Z, cloud, cone_half_angle=math.pi / 4 + 0.01)
    assert ray_cast_center(np.zeros(3), MINUS_Z, cloud, cone_half_angle=math.pi / 4) is not None


def test_cone_boundary_inclusive():
    half = 0.2
    # one point exactly on the cone, one just outside
    on = np.array([math.sin(half), 0.0, -math.cos(half)])
    out = np.array([math.sin(half + 1e-3), 0.0, -math.cos(half + 1e-3)])
    got = ray_cast_center(np.zeros(3), MINUS_Z, PointCloudFrame(0.0, on[None, :] * 2.0), cone_half_angle=half)
    assert got is not None
    assert ray_cast_center(np.zeros(3), MINUS_Z, PointCloudFrame(0.0, out[None, :] * 2.0), cone_half_angle=half) is None


def test_surface_graph_edges_are_symmetric(small_cloud):
    graph = build_surface_graph(small_cloud)
    a = graph.adjacency
    assert (a != a.T).nnz == 0


def _oracle_clouds():
    rng = np.random.default_rng(21)
    base = rng.uniform(-1.0, 1.0, (300, 3))
    return {
        "random": rng.normal(size=(2000, 3)),
        # 12 copies of each point: duplicates outnumber k, so self pairs and zero-weight edges appear
        "duplicates": rng.permutation(np.repeat(base, 12, axis=0)),
        # coordinates on a coarse grid: many exactly tied distances
        "grid": np.round(rng.uniform(-1.0, 1.0, (2000, 3)) * 6.0) / 6.0,
        "single": np.zeros((1, 3)),
    }


@pytest.mark.parametrize("k", [1, 3, 8, 20])
@pytest.mark.parametrize("name", ["random", "duplicates", "grid", "single"])
def test_surface_graph_matches_sorted_dedupe_oracle(name, k):
    from scipy.sparse.csgraph import dijkstra

    points = _oracle_clouds()[name]
    graph = build_surface_graph(PointCloudFrame(0, points), k=k)
    got, want = graph.adjacency, surface_adjacency_oracle(points, k)
    for attr in ("indptr", "indices", "data"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), attr
        assert a.base is None or a.base.nbytes == a.nbytes, attr  # no over-allocated buffer behind it
    if name == "duplicates":
        assert (got.data == 0.0).any()
    sources = np.arange(0, points.shape[0], max(1, points.shape[0] // 7))
    directed = geodesic_rows(graph, sources, np.arange(graph.n_points))
    assert directed.tobytes() == np.atleast_2d(dijkstra(want, directed=False, indices=sources)).tobytes()


@pytest.mark.parametrize("k", [3, 8])
@pytest.mark.parametrize("block", [1, 7, 50, 129, 130, 131])
def test_surface_graph_is_the_oracle_when_a_block_boundary_splits_duplicates(monkeypatch, block, k):
    import viewsim.geometry

    points = np.random.default_rng(22).uniform(-1.0, 1.0, (130, 3))
    points[45:57] = points[45]  # twelve copies, more than k, split by a boundary at 49 and 50
    monkeypatch.setattr(viewsim.geometry, "_SCAN_BLOCK", block)
    got, want = build_surface_graph(PointCloudFrame(0, points), k=k).adjacency, surface_adjacency_oracle(points, k)
    for attr in ("indptr", "indices", "data"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), attr
    assert (got.data == 0.0).any()


def test_surface_graph_build_peaks_under_45_mb_at_100k_points():
    import tracemalloc

    import scipy.spatial  # noqa: F401  imported before tracing, as a warm process has it

    rng = np.random.default_rng(23)
    cloud = PointCloudFrame(0, unit_rows(rng.normal(size=(100_000, 3))))
    tracemalloc.start()
    try:
        build_surface_graph(cloud)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 45 * 2**20, peak / 2**20


def test_geodesic_rows_sweep_in_batches_within_one_full_row_sweep(monkeypatch):
    import tracemalloc

    from scipy.sparse.csgraph import dijkstra

    import viewsim.geometry

    rng = np.random.default_rng(21)
    # two far-apart blobs: every cross-blob distance is inf
    points = np.vstack([rng.uniform(-1.0, 1.0, (1500, 3)), rng.uniform(-1.0, 1.0, (1500, 3)) + 50.0])
    graph = build_surface_graph(PointCloudFrame(0, points))
    sources = rng.choice(graph.n_points, 100, replace=False)
    targets = rng.choice(graph.n_points, 25, replace=False)
    full = dijkstra(graph.adjacency, directed=False, indices=sources)
    assert np.isinf(full[:, targets]).any() and np.isfinite(full[:, targets]).any()
    monkeypatch.setattr(viewsim.geometry, "_SWEEP_CELLS", 3 * graph.n_points)  # 34 batches, the last of one source
    tracemalloc.start()
    try:
        got = geodesic_rows(graph, sources, targets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.shape == (100, 25) and got.tobytes() == full[:, targets].tobytes()
    assert peak < full.nbytes, (peak, full.nbytes)
    assert geodesic_rows(graph, sources[:0], targets).shape == (0, 25)


def test_geodesic_matches_heap_dijkstra(small_cloud):
    graph = build_surface_graph(small_cloud)
    edges = graph_edges(graph)
    rng = np.random.default_rng(10)
    for _ in range(25):
        i, j = rng.integers(0, small_cloud.points.shape[0], 2)
        want = dijkstra_oracle(graph.n_points, edges, int(i))[int(j)]
        got = geodesic_distance(graph, small_cloud.points[i], small_cloud.points[j])
        if math.isinf(want):
            assert math.isinf(got)
        else:
            assert_close(got, want, tol=1e-9, rel=True)


def test_geodesic_collinear_lattice_equals_span():
    # collinear points: every chord equals the sum of its hops, so the
    # shortest path length is the straight-line span
    direction = unit(np.array([0.3, -0.2, 0.93]))
    steps = np.linspace(0.0, 3.0, 301)
    cloud = PointCloudFrame(0.0, np.outer(steps, direction) + np.array([0.5, 0.5, 0.5]))
    graph = build_surface_graph(cloud)
    a, b = cloud.points[17], cloud.points[230]
    want = float(np.linalg.norm(a - b))
    assert_close(geodesic_distance(graph, a, b), want, tol=1e-9, rel=True)


def test_geodesic_cycle_graph_closed_form():
    # k=2 on a regular ring yields the cycle graph; the path between two
    # vertices is the hop count times the chord length along the short arc
    n = 90
    ang = 2 * math.pi * np.arange(n) / n
    cloud = PointCloudFrame(0.0, np.stack([np.cos(ang), np.zeros(n), np.sin(ang)], axis=1))
    graph = build_surface_graph(cloud, k=2)
    chord = 2 * math.sin(math.pi / n)
    for i, j in [(0, 7), (3, 80), (10, 55)]:
        hops = min(abs(i - j), n - abs(i - j))
        got = geodesic_distance(graph, cloud.points[i], cloud.points[j])
        assert_close(got, hops * chord, tol=1e-9, rel=True)


def test_geodesic_never_below_euclidean(small_cloud):
    graph = build_surface_graph(small_cloud)
    rng = np.random.default_rng(11)
    idx = rng.integers(0, graph.n_points, (200, 2))
    rows = geodesic_rows(graph, np.unique(idx[:, 0]), np.arange(graph.n_points))
    srcs = {int(s): k for k, s in enumerate(np.unique(idx[:, 0]))}
    for i, j in idx:
        g = rows[srcs[int(i)], int(j)]
        if math.isinf(g):
            continue
        e = float(np.linalg.norm(small_cloud.points[i] - small_cloud.points[j]))
        assert g >= e - 1e-9


def test_geodesic_disconnected_is_inf():
    rng = np.random.default_rng(12)
    a = rng.uniform(-0.5, 0.5, (30, 3))
    b = rng.uniform(-0.5, 0.5, (30, 3)) + 100.0
    cloud = PointCloudFrame(0.0, np.vstack([a, b]))
    graph = build_surface_graph(cloud, k=4)
    assert math.isinf(geodesic_distance(graph, cloud.points[0], cloud.points[45]))
    assert geodesic_distance(graph, cloud.points[0], cloud.points[0]) == 0.0


def test_duplicate_points_connect_at_zero_cost():
    pts = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    graph = build_surface_graph(PointCloudFrame(0.0, pts), k=2)
    assert geodesic_distance(graph, pts[0], pts[1]) == 0.0


def test_nearest_index_snaps_to_vertex(small_cloud):
    graph = build_surface_graph(small_cloud)
    for k in (0, 17, 250):
        assert graph.nearest_index(small_cloud.points[k]) == k
        assert graph.nearest_index(small_cloud.points[k] + 1e-6) == k


def test_cloud_points_are_immutable(small_cloud):
    with pytest.raises(ValueError):
        small_cloud.points[0, 0] = 99.0
