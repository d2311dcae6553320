import math
from dataclasses import replace

import numpy as np
import pytest

from viewsim.errors import EmptyTrajectoryError, InvalidParamsError, ParseError
from viewsim.geometry import PointCloudFrame
from viewsim.synth import _fibonacci_sphere
from viewsim.trajectories import SessionDataset, Trace, align_to_frames, derive_pr, load_trajectories, write_trajectories

from oracles import align_to_frames_oracle, load_trajectories_oracle

HEADER = "user_id,t,pos_x,pos_y,pos_z,quat_w,quat_x,quat_y,quat_z"


def _write(tmp_path, body, header=HEADER):
    path = tmp_path / "traj.csv"
    path.write_text(header + "\n" + body)
    return path


def test_load_identity_quaternion_faces_minus_z(tmp_path):
    path = _write(tmp_path, "alice,0.0,1,2,3,1,0,0,0\n")
    trajs = load_trajectories(path)
    assert list(trajs) == ["alice"]
    tr = trajs["alice"]
    np.testing.assert_array_equal(tr.x[0], [1, 2, 3])
    np.testing.assert_allclose(tr.view[0], [0, 0, -1], atol=1e-15)
    assert np.isnan(tr.p[0]).all() and np.isnan(tr.r[0]) and not tr.off[0]


def test_load_normalizes_quaternion(tmp_path):
    # 2*(identity) must behave like the identity
    path = _write(tmp_path, "a,0.0,0,0,0,2,0,0,0\n")
    tr = load_trajectories(path)["a"]
    np.testing.assert_allclose(tr.view[0], [0, 0, -1], atol=1e-15)


def test_load_yaw_quaternion(tmp_path):
    path = _write(tmp_path, "a,0.0,0,0,0,0,0,1,0\n")
    tr = load_trajectories(path)["a"]
    np.testing.assert_allclose(tr.view[0], [0, 0, 1], atol=1e-15)


def test_users_sorted_and_times_sorted(tmp_path):
    body = "bob,0.5,0,0,0,1,0,0,0\nalice,0.0,0,0,0,1,0,0,0\nbob,0.1,0,0,0,1,0,0,0\n"
    trajs = load_trajectories(_write(tmp_path, body))
    assert list(trajs) == ["alice", "bob"]
    assert trajs["bob"].t.tolist() == [0.1, 0.5]


def test_pr_columns_parsed(tmp_path):
    header = HEADER + ",p_x,p_y,p_z,r"
    body = "a,0.0,0,0,2,1,0,0,0,0,0,1,1.0\na,0.1,0,0,2,1,0,0,0,,,,\n"
    tr = load_trajectories(_write(tmp_path, body, header))["a"]
    np.testing.assert_array_equal(tr.p[0], [0, 0, 1])
    assert tr.r[0] == 1.0 and not tr.off[0]
    assert np.isnan(tr.p[1]).all() and np.isnan(tr.r[1]) and tr.off[1]


@pytest.mark.parametrize(
    "body,header",
    [
        ("a,0.0,0,0,0,1,0,0,0,1,:,:,1\n", HEADER + ",p_x,p_y,p_z,r"),  # partial p/r
        ("a,0.0,0,0,0,1,0,0,0,1,,,\n", HEADER + ",p_x,p_y,p_z,r"),
        ("a,0.0,0,0,0,0,0,0,0\n", HEADER),  # zero quaternion
        ("a,-0.1,0,0,0,1,0,0,0\n", HEADER),  # negative t
        ("a,0.0,0,0,x,1,0,0,0\n", HEADER),  # bad float
        ("a,0.0,0,0,0,1,0,0\n", HEADER),  # short row
        (",0.0,0,0,0,1,0,0,0\n", HEADER),  # empty user id
        ("", HEADER),  # no data rows
    ],
)
def test_malformed_rows_rejected(tmp_path, body, header):
    with pytest.raises(ParseError):
        load_trajectories(_write(tmp_path, body, header))


def test_parse_error_carries_line_number(tmp_path):
    path = _write(tmp_path, "a,0.0,0,0,0,1,0,0,0\na,0.1,0,0,bad,1,0,0,0\n")
    with pytest.raises(ParseError) as err:
        load_trajectories(path)
    assert "traj.csv:3" in str(err.value)


def test_wrong_header_rejected(tmp_path):
    with pytest.raises(ParseError):
        load_trajectories(_write(tmp_path, "a,0,0,0,0,1,0,0,0\n", header="uid,t,x,y,z,w,i,j,k"))


def test_duplicate_timestamps_rejected(tmp_path):
    body = "a,0.0,0,0,0,1,0,0,0\na,0.0,1,1,1,1,0,0,0\n"
    with pytest.raises(ParseError):
        load_trajectories(_write(tmp_path, body))


def _messy_rows(rng, with_pr, n_users=12, n_rows=250):
    """Shuffled rows of shuffled users: axis-aligned, 180-degree, tiny and huge quaternions."""
    special = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1], [-1, 0, 0, 0]]
    rows = []
    for u in rng.permutation(n_users):
        for t in rng.permutation(n_rows) / 30.0 + rng.uniform(0.0, 0.01):
            kind = int(rng.integers(0, 9))
            if kind < len(special):
                q = special[kind]
            else:
                q = rng.normal(size=4) * [1.0, 1e-150, 1e150, 1e-160][kind - len(special)]
            row = [f"u{u:02d}", repr(float(t)), *map(repr, rng.normal(size=3).tolist()), *map(repr, map(float, q))]
            if with_pr:
                given = rng.uniform() < 0.7
                row += [*map(repr, rng.normal(size=3).tolist()), repr(float(rng.uniform(0.0, 5.0)))] if given else [""] * 4
            rows.append(",".join(row))
    rng.shuffle(rows)
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize("with_pr", [False, True])
def test_load_matches_per_row_oracle(tmp_path, with_pr):
    header = HEADER + (",p_x,p_y,p_z,r" if with_pr else "")
    path = _write(tmp_path, _messy_rows(np.random.default_rng(6 + with_pr), with_pr), header)
    got, want = load_trajectories(path), load_trajectories_oracle(path)
    assert list(got) == list(want) == sorted(want)
    for uid in want:
        for name, a, b in zip(Trace._fields, got[uid], want[uid]):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), (uid, name)
    assert with_pr == any(tr.off.any() for tr in got.values())


@pytest.mark.parametrize("q, ok", [
    ("1e-170,1e-170,1e-170,1e-170", False),  # every square underflows to zero
    ("1e-150,1e-150,1e-150,1e-150", True),
    ("1e-170,1e-170,1e-170,1e-150", True),
    ("0,0,0,-0.0", False),
])
def test_zero_norm_quaternion_boundary(tmp_path, q, ok):
    path = _write(tmp_path, f"a,0,0,0,0,{q}\n")
    if ok:
        assert load_trajectories(path)["a"].view.tobytes() == load_trajectories_oracle(path)["a"].view.tobytes()
    else:
        with pytest.raises(ParseError, match=r"^zero-norm quaternion \[.*traj\.csv:2\]$"):
            load_trajectories(path)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_quaternion_norm_overflow_boundary(tmp_path, k):
    # k equal components stepped an ulp at a time across the point where np.linalg.norm overflows
    c = math.sqrt(np.finfo(np.float64).max / k)
    for _ in range(4):
        c = math.nextafter(c, 0.0)
    seen = set()
    for _ in range(9):
        q = [c] * k + [0.0] * (4 - k)
        path = _write(tmp_path, f"a,0,0,0,0,{','.join(map(repr, q))}\n")
        with np.errstate(over="ignore"):
            ok = bool(np.isfinite(np.linalg.norm(q)))
        if ok:
            assert load_trajectories(path)["a"].view.tobytes() == load_trajectories_oracle(path)["a"].view.tobytes()
        else:
            with pytest.raises(ParseError, match=r"^quaternion norm overflows \[.*traj\.csv:2\]$"):
                load_trajectories(path)
        seen.add(ok)
        c = math.nextafter(c, math.inf)
    assert seen == {True, False}


def test_overflowing_quaternion_names_its_first_line(tmp_path):
    # user b's line comes first in the file, user a's first once rows are grouped by user
    path = _write(tmp_path, "a,0,0,0,0,0,0,1e150,0\nb,0,0,0,0,0,0,1e160,0\na,1,0,0,0,1e200,0,0,0\n")
    with pytest.raises(ParseError) as err:
        load_trajectories(path)
    assert str(err.value) == f"quaternion norm overflows [{path}:3]" and err.value.exit_code == 3
    path = _write(tmp_path, "a,0,0,0,0,0,0,1e150,0\n")  # a 180-degree yaw, well inside the range
    assert load_trajectories(path)["a"].view.tolist() == [[0.0, 0.0, 1.0]]


@pytest.mark.parametrize("fields, want", [
    ("1_0,0,0", 10.0),
    (" 1.5 ,0,0", 1.5),
    ("nan,0,0", "non-finite value in column pos_x"),
    ("inf,0,0", "non-finite value in column pos_x"),
    ("1e400,0,0", "non-finite value in column pos_x"),
    (" x ,0,0", "bad float ' x ' in column pos_x"),
])
def test_position_tokens(tmp_path, fields, want):
    path = _write(tmp_path, f"a,0,{fields},1,0,0,0\n")
    if isinstance(want, float):
        assert load_trajectories(path)["a"].x.tolist() == [[want, 0.0, 0.0]]
    else:
        with pytest.raises(ParseError) as err:
            load_trajectories(path)
        assert str(err.value) == f"{want} [{path}:2]" and err.value.line == 2


@pytest.mark.parametrize("pr, want", [
    (" x ,1,1,1", "bad float 'x' in column p_x"),  # p/r tokens are reported stripped
    ("1_0, 1.5 ,1,1e400", "non-finite value in column r"),
    ("1,1,1, -0.5 ", "negative r -0.5"),
    ("1,,1,", "p_x,p_y,p_z,r must be all present or all empty"),
])
def test_pr_tokens(tmp_path, pr, want):
    path = _write(tmp_path, f"a,0,0,0,0,1,0,0,0,{pr}\n", HEADER + ",p_x,p_y,p_z,r")
    with pytest.raises(ParseError) as err:
        load_trajectories(path)
    assert str(err.value) == f"{want} [{path}:2]" and err.value.line == 2


def test_first_fault_in_row_order_is_reported(tmp_path):
    body = (
        "b,0,0,0,0,1,0,0,0,1,1,1,1\n"
        "b,0,0,0,0,1,0,0,0,1,1,1,1\n"  # a duplicate timestamp, reported only for a file without row faults
        "a,0.1,0,bad,0,0,0,0,0,1,2,3,-1\n"  # bad pos_y, zero quaternion and negative r: pos_y comes first
        "c,-1,0,0,0,1,0,0,0\n"
    )
    path = _write(tmp_path, body, HEADER + ",p_x,p_y,p_z,r")
    with pytest.raises(ParseError) as err:
        load_trajectories(path)
    assert str(err.value) == f"bad float 'bad' in column pos_y [{path}:4]" and err.value.line == 4
    path.write_text(path.read_text().replace("0,bad,0,0,0,0,0", "0,0,0,1,0,0,0").replace("3,-1", "3,1"))
    with pytest.raises(ParseError) as err:
        load_trajectories(path)
    assert str(err.value) == f"expected 13 fields, got 9 [{path}:5]"


def test_duplicate_timestamp_names_the_first_user_in_order(tmp_path):
    body = "b,0,0,0,0,1,0,0,0\nb,0,0,0,0,1,0,0,0\na,1,0,0,0,1,0,0,0\na,1,0,0,0,1,0,0,0\na,-0.0,0,0,0,1,0,0,0\n"
    with pytest.raises(ParseError) as err:
        load_trajectories(_write(tmp_path, body))
    assert str(err.value) == f"duplicate timestamps for user 'a' [{tmp_path / 'traj.csv'}]" and err.value.line is None


def _trace(times, xs=None, off=None):
    n = len(times)
    x = np.array([[k, 0.0, 0.0] for k in range(n)] if xs is None else xs, dtype=np.float64)
    return Trace(
        t=np.asarray(times, dtype=np.float64),
        x=x,
        view=np.tile([0.0, 0.0, -1.0], (n, 1)),
        p=np.full((n, 3), np.nan),
        r=np.full(n, np.nan),
        off=np.zeros(n, dtype=bool) if off is None else np.asarray(off),
    )


def test_align_picks_nearest_sample():
    # 90 Hz source onto a 30 Hz clock: every third sample wins
    times = [k / 90 for k in range(28)]
    out = align_to_frames({"u": _trace(times)}, fps=30.0)
    assert out.n_frames == 10
    np.testing.assert_array_equal(out.x[0, :, 0], 3 * np.arange(10))
    assert not out.off.any()


def test_align_exact_tie_prefers_earlier():
    # samples straddle the tick at equal distance
    out = align_to_frames({"u": _trace([0.0, 1 / 30, 0.05, 1 / 15])}, fps=15.0)
    # tick 1/15 has an exact sample; tick 0 exact; middle samples unused
    assert out.x[0, 1, 0] == 3
    # binary-exact tie: tick at 0.5, samples 0.25 away on both sides
    tie = align_to_frames({"u": _trace([0.25, 0.75])}, fps=2.0, n_frames=2)
    assert tie.x[0, 1, 0] == 0


def test_align_gap_marks_off_content():
    times = [0.0, 1 / 30, 2 / 30, 10 / 30, 11 / 30]
    out = align_to_frames({"u": _trace(times)}, fps=30.0)
    flags = out.off[0].tolist()
    assert flags[:3] == [False, False, False]
    assert flags[3] and flags[6]  # inside the hole
    assert not flags[10]


def test_align_is_idempotent():
    times = [k / 90 + 0.001 for k in range(50)]
    once = align_to_frames({"u": _trace(times)}, fps=30.0)
    frame_times = np.arange(once.n_frames) / 30.0
    again = Trace(frame_times, once.x[0], once.view[0], once.p[0], once.r[0], once.off[0])
    twice = align_to_frames({"u": again}, fps=30.0)
    assert twice.n_frames == once.n_frames
    np.testing.assert_array_equal(twice.x, once.x)
    np.testing.assert_array_equal(twice.off, once.off)


def test_align_default_frame_count_is_shortest_span():
    a = _trace([k / 30 for k in range(10)])
    b = _trace([k / 30 for k in range(7)])
    out = align_to_frames({"u": a, "v": b}, fps=30.0)
    assert out.users == ("u", "v") and out.n_frames == 7


def test_align_rejects_empty():
    with pytest.raises(EmptyTrajectoryError):
        align_to_frames({"u": _trace([])}, fps=30.0)


def _random_traces(rng, n_users):
    """Irregular, gappy traces with off-content rows; some on a dyadic grid with exact ties."""
    traces = {}
    for u in range(n_users):
        n = int(rng.integers(1, 40))
        if u % 2:
            # dyadic times: every frame midpoint (fps 4) is an exact tie
            t = np.unique(rng.integers(0, 60, n)) / 8.0
        else:
            t = np.unique(np.round(rng.uniform(0.0, 6.0, n), 3))
        if t.size > 4 and rng.uniform() < 0.5:
            cut = int(rng.integers(1, t.size - 1))
            t = np.concatenate([t[:cut], t[cut:] + rng.uniform(0.5, 2.0)])  # a wide gap
        n = t.size
        off = rng.uniform(size=n) < 0.25
        p = rng.normal(size=(n, 3))
        r = rng.uniform(0.1, 5.0, n)
        p[off] = np.nan
        r[off] = np.nan
        view = rng.normal(size=(n, 3))
        traces[f"u{u:02d}"] = Trace(t=t, x=rng.normal(size=(n, 3)), view=view, p=p, r=r, off=off)
    return traces


def test_align_matches_per_frame_oracle():
    rng = np.random.default_rng(2024)
    cases = 0
    for _ in range(60):
        traces = _random_traces(rng, int(rng.integers(1, 6)))
        fps = float(rng.choice([4.0, 7.5, 30.0]))
        for n_frames in (None, 1, int(rng.integers(2, 60))):
            got = align_to_frames(traces, fps, n_frames=n_frames)
            want = align_to_frames_oracle(traces, fps, n_frames=n_frames)
            assert got.users == tuple(traces)
            for name, arr in want.items():
                a = getattr(got, name)
                assert a.dtype == arr.dtype and a.shape == arr.shape, name
                assert a.tobytes() == arr.tobytes(), name
            cases += 1
    assert cases == 180


def _orbit_session(n, radius=2.0):
    a = 2 * math.pi * np.arange(n) / n
    x = np.stack([radius * np.cos(a), np.zeros(n), radius * np.sin(a)], axis=1)
    return SessionDataset(
        fps=30.0,
        users=("u",),
        x=x[None],
        view=-x[None] / radius,
        p=np.full((1, n, 3), np.nan),
        r=np.full((1, n), np.nan),
        off=np.zeros((1, n), dtype=bool),
    )


def _ring(n, radius=2.0):
    """One frame's x, view and off: n users on a circle round the origin, each looking at it."""
    x = _orbit_session(n, radius).x[0]
    return x, -x / radius, np.zeros(n, dtype=bool)


def test_derive_pr_unit_sphere_orbit():
    cloud = PointCloudFrame(0.0, _fibonacci_sphere(4000, 1.0))
    x, view, off = _ring(12)
    p, r, got_off = derive_pr(x, view, off, cloud)
    assert not got_off.any()
    np.testing.assert_array_less(np.abs(r - 1.0), 0.01)
    np.testing.assert_array_less(np.abs(np.linalg.norm(p, axis=1) - 1.0), 0.01)


def test_derive_pr_centroid_mode():
    cloud = PointCloudFrame(0.0, _fibonacci_sphere(4000, 1.0))
    _, r, _ = derive_pr(*_ring(6), cloud, r_mode="centroid")
    # distance to the cloud centroid, not to the hit point
    np.testing.assert_array_less(np.abs(r - 2.0), 0.01)


def test_derive_pr_miss_marks_off_content():
    cloud = PointCloudFrame(0.0, _fibonacci_sphere(500, 1.0))
    x, view, off = _ring(2, radius=3.0)
    view[0] = -view[0]  # looking away
    p, r, got_off = derive_pr(x, view, off, cloud)
    assert got_off.tolist() == [True, False] and not off.any()
    assert np.isnan(p[0]).all() and np.isnan(r[0]) and r[1] > 0


def test_derive_pr_casts_no_ray_for_an_off_content_user(monkeypatch):
    import viewsim.trajectories

    cast = []
    real = viewsim.trajectories.ray_cast_center
    monkeypatch.setattr(viewsim.trajectories, "ray_cast_center", lambda x, *a, **k: cast.append(x) or real(x, *a, **k))
    x, view, off = _ring(3)
    off[1] = True
    p, r, got_off = derive_pr(x, view, off, PointCloudFrame(0.0, _fibonacci_sphere(500, 1.0)))
    assert [c.tolist() for c in cast] == [x[0].tolist(), x[2].tolist()]
    assert got_off.tolist() == [False, True, False] and np.isnan(p[1]).all() and np.isnan(r[1])


def test_derive_pr_rejects_unknown_r_mode():
    with pytest.raises(InvalidParamsError, match="r_mode"):
        derive_pr(*_ring(2), PointCloudFrame(0.0, _fibonacci_sphere(100, 1.0)), r_mode="auto")


def test_write_then_load_round_trip(tmp_path):
    cloud = PointCloudFrame(0.0, _fibonacci_sphere(3000, 1.0))
    ds = _orbit_session(8)
    frames = [derive_pr(ds.x[:, k], ds.view[:, k], ds.off[:, k], cloud) for k in range(8)]
    p, r, off = (np.stack(column, axis=1) for column in zip(*frames))
    ds = replace(ds, p=p, r=r, off=off)
    path = tmp_path / "out.csv"
    write_trajectories(path, ds, with_pr=True)
    back = load_trajectories(path)["u"]
    assert back.t.size == 8
    np.testing.assert_array_equal(back.t, np.arange(8) / 30.0)
    np.testing.assert_array_equal(back.x, ds.x[0])
    np.testing.assert_allclose(back.view, ds.view[0], atol=1e-12)
    np.testing.assert_array_equal(back.p, ds.p[0])
    np.testing.assert_array_equal(back.r, ds.r[0])


def test_write_is_deterministic(tmp_path):
    ds = _orbit_session(5)
    write_trajectories(tmp_path / "a.csv", ds)
    write_trajectories(tmp_path / "b.csv", ds)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
