"""Deterministic scenario generation and its planted structure."""

import json
import math

import numpy as np
import pytest

from viewsim.errors import DataError, InvalidParamsError
from viewsim.metrics import MetricId
from viewsim.pipeline import overlap_matrices, prepare_scenario
from viewsim.synth import (
    AtCentroidGaze,
    FixedDirectionGaze,
    GroupSpec,
    OrbitMotion,
    RandomWalkMotion,
    SplitMix64,
    StaticMotion,
    SynthScenario,
    _fibonacci_sphere,
    derive_stream,
    generate_cloud,
    generate_trajectories,
    planted_labels,
    scenario_from_json,
    scenario_to_json,
    three_orbit_groups,
    write_scenario,
)

from conftest import assert_close
from oracles import orbit_position


# ------------------------------------------------------------------ SplitMix64


def test_splitmix_reference_sequence():
    # canonical outputs, frozen; any drift breaks all synthetic datasets
    assert SplitMix64(0).next_u64() == 16294208416658607535
    r = SplitMix64(1234567)
    assert [r.next_u64() for _ in range(5)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ]


def test_splitmix_uniform_range_and_mean():
    r = SplitMix64(99)
    draws = [r.uniform() for _ in range(4000)]
    assert all(0.0 <= d < 1.0 for d in draws)
    assert abs(np.mean(draws) - 0.5) < 0.02


def test_splitmix_gauss_moments():
    r = SplitMix64(5)
    draws = np.array([r.gauss() for _ in range(4000)])
    assert abs(draws.mean()) < 0.06
    assert abs(draws.std() - 1.0) < 0.06


def test_uniform_ball_stays_inside():
    r = SplitMix64(3)
    for _ in range(200):
        v = r.uniform_ball(0.25)
        assert float(v @ v) <= 0.25**2 + 1e-15


def test_derive_stream_tags_are_independent():
    a = derive_stream(7, "offset", 0, 1)
    b = derive_stream(7, "offset", 1, 0)
    c = derive_stream(7, "gaze", 0, 1)
    again = derive_stream(7, "offset", 0, 1)
    first = a.next_u64()
    assert first == again.next_u64()
    assert first != b.next_u64()
    assert first != c.next_u64()


# ---------------------------------------------------------------- point clouds


def test_fibonacci_sphere_on_surface():
    pts = _fibonacci_sphere(500, 0.9)
    assert pts.shape == (500, 3)
    norms = np.linalg.norm(pts, axis=1)
    np.testing.assert_allclose(norms, 0.9, rtol=1e-12)
    assert np.linalg.norm(pts.mean(axis=0)) < 0.01


def test_cloud_is_rigid_and_shared():
    clouds = generate_cloud(three_orbit_groups(n_frames=4, points_per_frame=100))
    assert [c.frame_index for c in clouds] == [0, 1, 2, 3]
    for c in clouds[1:]:
        assert np.shares_memory(c.points, clouds[0].points)


@pytest.mark.parametrize("kind", ["sphere", "cylinder", "humanoid-blocks"])
def test_cloud_kinds_generate(kind):
    sc = three_orbit_groups(n_frames=1, points_per_frame=300, cloud_kind=kind)
    (cloud,) = generate_cloud(sc)
    assert cloud.points.shape == (300, 3)
    assert np.all(np.isfinite(cloud.points))
    assert np.abs(cloud.points).max() <= 1.0  # body-scale content


def test_unknown_cloud_kind_rejected():
    with pytest.raises(InvalidParamsError):
        three_orbit_groups(cloud_kind="torus")


# --------------------------------------------------------------------- motion


def test_orbit_against_closed_form():
    m = OrbitMotion(radius=1.7, angular_speed=0.4, phase=1.1, height=0.3)
    for t in (0.0, 0.5, 2.25, 11.0):
        np.testing.assert_allclose(
            m.position(t, None), orbit_position(1.7, 0.4, 1.1, 0.3, t), atol=1e-15
        )


def test_orbit_radius_must_be_positive():
    with pytest.raises(InvalidParamsError):
        OrbitMotion(radius=0.0, angular_speed=0.1)


def test_static_motion_constant():
    m = StaticMotion(position_xyz=(1.0, 2.0, 3.0))
    np.testing.assert_array_equal(m.position(0.0, None), m.position(9.0, None))


def test_random_walk_deterministic_and_seed_sensitive():
    def positions(seed):
        sc = SynthScenario(
            seed=seed,
            cloud_kind="sphere",
            points_per_frame=50,
            n_frames=5,
            fps=10.0,
            groups=(GroupSpec(size=2, motion=RandomWalkMotion(step_sigma=0.1), gaze=AtCentroidGaze()),),
        )
        return generate_trajectories(sc).x

    a, b = positions(4), positions(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, positions(5))
    # consecutive steps actually move
    assert np.linalg.norm(a[0, 1] - a[0, 0]) > 0.0


# --------------------------------------------------------------- trajectories


def test_three_orbit_group_phases_and_labels():
    sc = three_orbit_groups(seed=7, users_per_group=4)
    assert sc.n_users == 12
    phases = [g.motion.phase for g in sc.groups]
    assert_close(phases[1] - phases[0], 2.0 * math.pi / 3.0)
    assert_close(phases[2] - phases[1], 2.0 * math.pi / 3.0)
    labels = planted_labels(sc)
    assert list(labels) == [f"u{k:02d}" for k in range(12)]
    assert list(labels.values()) == [0] * 4 + [1] * 4 + [2] * 4


def test_trajectories_follow_motion_anchor_within_jitter():
    sc = three_orbit_groups(seed=7, users_per_group=2, n_frames=8, points_per_frame=100)
    ds = generate_trajectories(sc)
    assert ds.users == tuple(f"u{k:02d}" for k in range(6))
    assert ds.n_frames == 8
    for gi, group in enumerate(sc.groups):
        for mi in range(2):
            i = gi * 2 + mi
            for k in range(8):
                x, view = ds.x[i, k], ds.view[i, k]
                anchor = group.motion.position(k / sc.fps, None)
                assert np.linalg.norm(x - anchor) <= group.jitter + 1e-12
                # gaze aims at the centroid (origin for the rigid sphere)
                aim = view / np.linalg.norm(view)
                expect = -x / np.linalg.norm(x)
                offset_cos = float(aim @ expect)
                assert offset_cos > 0.999


def test_fixed_direction_gaze_is_normalized():
    sc = SynthScenario(
        seed=1,
        cloud_kind="sphere",
        points_per_frame=50,
        n_frames=2,
        fps=10.0,
        groups=(
            GroupSpec(
                size=1,
                motion=StaticMotion(position_xyz=(0.0, 0.0, 2.0)),
                gaze=FixedDirectionGaze(direction=(0.0, 0.0, -5.0)),
            ),
        ),
    )
    ds = generate_trajectories(sc)
    np.testing.assert_allclose(ds.view[0, 0], [0.0, 0.0, -1.0], atol=1e-15)


def test_trajectory_generation_is_reproducible():
    sc = three_orbit_groups(seed=13, users_per_group=2, n_frames=5, points_per_frame=60)
    a = generate_trajectories(sc)
    b = generate_trajectories(sc)
    assert a.users == b.users
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.view, b.view)


# ------------------------------------------------------------- serialization


def test_scenario_json_round_trip():
    sc = three_orbit_groups(seed=21, users_per_group=3, n_frames=7)
    doc = json.loads(json.dumps(scenario_to_json(sc)))
    assert scenario_from_json(doc) == sc


def test_scenario_json_round_trip_all_motion_kinds():
    sc = SynthScenario(
        seed=2,
        cloud_kind="cylinder",
        points_per_frame=10,
        n_frames=2,
        fps=15.0,
        groups=(
            GroupSpec(size=1, motion=StaticMotion((0.0, 0.0, 2.0)), gaze=FixedDirectionGaze((1.0, 0.0, 0.0))),
            GroupSpec(size=2, motion=RandomWalkMotion(step_sigma=0.2, start=(1.0, 0.0, 2.0)), gaze=AtCentroidGaze(), jitter=0.1),
        ),
    )
    assert scenario_from_json(scenario_to_json(sc)) == sc


def test_scenario_json_rejects_unknown_keys():
    doc = scenario_to_json(three_orbit_groups(n_frames=2, points_per_frame=10))
    doc["typo"] = 1
    with pytest.raises(DataError):
        scenario_from_json(doc)


def test_scenario_json_rejects_unknown_nested_keys():
    doc = scenario_to_json(three_orbit_groups(n_frames=2, points_per_frame=10))
    doc["groups"][0]["motion"]["wobble"] = 2.0
    with pytest.raises(DataError):
        scenario_from_json(doc)
    doc = scenario_to_json(three_orbit_groups(n_frames=2, points_per_frame=10))
    doc["groups"][0]["gaze"] = {"kind": "telepathic"}
    with pytest.raises(DataError):
        scenario_from_json(doc)


def test_scenario_json_missing_key():
    doc = scenario_to_json(three_orbit_groups(n_frames=2, points_per_frame=10))
    del doc["fps"]
    with pytest.raises(DataError):
        scenario_from_json(doc)


def test_write_scenario_outputs_deterministic(tmp_path):
    sc = three_orbit_groups(seed=3, users_per_group=2, n_frames=3, points_per_frame=40)
    m1 = write_scenario(sc, tmp_path / "a")
    m2 = write_scenario(sc, tmp_path / "b")
    assert m1 == m2
    names = [
        "manifest.json",
        "scenario.json",
        "labels.json",
        "trajectories.csv",
        "clouds/frame_000000.ply",
        "clouds/frame_000002.ply",
    ]
    for name in names:
        fa = (tmp_path / "a" / name).read_bytes()
        fb = (tmp_path / "b" / name).read_bytes()
        assert fa == fb, name
    labels = json.loads((tmp_path / "a" / "labels.json").read_text())
    assert labels["groups"] == {f"u{k:02d}": k // 2 for k in range(6)}


# ------------------------------------------------------------ planted signal


def test_identical_static_users_reach_full_overlap():
    sc = SynthScenario(
        seed=0,
        cloud_kind="sphere",
        points_per_frame=600,
        n_frames=2,
        fps=10.0,
        groups=(
            GroupSpec(size=3, motion=StaticMotion((0.0, 0.0, 2.0)), gaze=AtCentroidGaze()),
        ),
    )
    pc = prepare_scenario(sc)
    for m in overlap_matrices(pc):
        assert m.valid.sum() == 6  # all off-diagonal pairs
        np.testing.assert_array_equal(m.values[m.valid], 1.0)


def test_narrow_frustum_separates_planted_groups(narrow_content):
    labels = planted_labels(three_orbit_groups(seed=11, users_per_group=3, n_frames=6, points_per_frame=2500))
    intra, inter = [], []
    for m in overlap_matrices(narrow_content):
        for i in range(m.n):
            for j in range(i + 1, m.n):
                if not m.valid[i, j]:
                    continue
                same = labels[m.users[i]] == labels[m.users[j]]
                (intra if same else inter).append(float(m.values[i, j]))
    assert np.mean(intra) > 0.8
    assert np.mean(inter) < 0.2
