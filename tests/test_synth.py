"""Deterministic scenario generation and its planted structure."""

import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from viewsim.errors import DataError, InvalidParamsError
from viewsim.metrics import MetricId
from viewsim.pipeline import prepare_scenario
from viewsim.synth import (
    GAZES,
    MOTIONS,
    AtCentroidGaze,
    FixedDirectionGaze,
    GroupSpec,
    JitteredGaze,
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

from conftest import assert_close, overlaps
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
    times = (0.0, 0.5, 2.25, 11.0)
    path = m.path(times, np.zeros(3), None)
    for t, x in zip(times, path):
        np.testing.assert_allclose(x, orbit_position(1.7, 0.4, 1.1, 0.3, t), atol=1e-15)


def test_orbit_radius_must_be_positive():
    with pytest.raises(InvalidParamsError):
        OrbitMotion(radius=0.0, angular_speed=0.1)


def test_static_motion_constant():
    m = StaticMotion(position=(1.0, 2.0, 3.0))
    np.testing.assert_array_equal(m.path((0.0, 9.0), np.zeros(3), None), [[1.0, 2.0, 3.0]] * 2)


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
        anchors = group.motion.path([k / sc.fps for k in range(8)], np.zeros(3), None)
        for mi in range(2):
            i = gi * 2 + mi
            for k in range(8):
                x, view = ds.x[i, k], ds.view[i, k]
                anchor = anchors[k]
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
                motion=StaticMotion(position=(0.0, 0.0, 2.0)),
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


def all_kinds_scenario():
    """Four groups that between them use every motion and gaze kind."""
    return SynthScenario(
        seed=5,
        cloud_kind="humanoid-blocks",
        points_per_frame=90,
        n_frames=4,
        fps=12.0,
        groups=(
            GroupSpec(size=2, motion=OrbitMotion(radius=2.2, angular_speed=0.7, phase=0.4, height=0.3), gaze=AtCentroidGaze(), jitter=0.05),
            GroupSpec(size=1, motion=StaticMotion((0.5, 0.2, 2.0)), gaze=FixedDirectionGaze((0.1, 0.0, -2.0))),
            GroupSpec(size=3, motion=RandomWalkMotion(step_sigma=0.05, start=(1.0, 0.0, 2.0)), gaze=JitteredGaze(sigma=0.1), jitter=0.1),
            GroupSpec(size=2, motion=RandomWalkMotion(step_sigma=0.02), gaze=JitteredGaze(sigma=0.0)),
        ),
    )


def test_scenario_json_round_trip_all_motion_kinds():
    sc = all_kinds_scenario()
    assert {g.motion.kind for g in sc.groups} == set(MOTIONS)
    assert {g.gaze.kind for g in sc.groups} == set(GAZES)
    assert scenario_from_json(json.loads(json.dumps(scenario_to_json(sc)))) == sc
    for g in sc.groups:
        assert scenario_from_json(scenario_to_json(replace(sc, groups=(g,)))).groups == (g,)


def test_scenario_json_fills_defaults():
    doc = scenario_to_json(all_kinds_scenario())
    del doc["groups"][0]["jitter"]
    for key in ("phase", "height"):
        del doc["groups"][0]["motion"][key]
    del doc["groups"][3]["motion"]["start"]
    sc = scenario_from_json(doc)
    assert sc.groups[0].jitter == 0.0
    assert sc.groups[0].motion == OrbitMotion(radius=2.2, angular_speed=0.7)
    assert sc.groups[3].motion.start == (0.0, 0.0, 2.5)


DELETE = object()


def mutated_scenario(path, value):
    doc = scenario_to_json(all_kinds_scenario())
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


# (path into the all-kinds scenario document, bad value, text the error must show);
# group 0 is orbit/at-centroid, 1 static/fixed-direction, 2 and 3 random_walk/jittered
MALFORMED_SCENARIOS = [
    (("groups",), 5, "scenario.groups"),
    (("groups",), [], "scenario.groups"),
    (("groups",), {"size": 1}, "scenario.groups"),
    (("groups", 0), [1], r"scenario.groups\[0\] must be an object"),
    (("groups", 0, "size"), "2", r"groups\[0\].size"),
    (("groups", 0, "size"), True, r"groups\[0\].size"),
    (("groups", 0, "size"), 2.7, r"groups\[0\].size"),
    (("groups", 0, "size"), 0, "group size"),
    (("groups", 0, "jitter"), -0.1, "jitter"),
    (("n_frames",), 2.5, "scenario.n_frames"),
    (("points_per_frame",), "90", "scenario.points_per_frame"),
    (("seed",), False, "scenario.seed"),
    (("fps",), 0.0, "fps"),
    (("fps",), "fast", "scenario.fps"),
    (("cloud_kind",), 5, "cloud_kind"),
    (("groups", 0, "motion"), 5, r"groups\[0\].motion must be an object"),
    (("groups", 0, "motion", "kind"), "teleport", r"groups\[0\].motion.kind"),
    (("groups", 0, "motion", "radius"), "far", r"motion.radius"),
    (("groups", 0, "motion", "radius"), -1.0, "radius"),
    (("groups", 0, "motion", "angular_speed"), DELETE, "angular_speed"),
    (("groups", 1, "motion", "position"), [0.0, 2.0], r"groups\[1\].motion.position"),
    (("groups", 1, "motion", "position"), [0.0, 2.0, "x"], r"motion.position"),
    (("groups", 1, "motion", "position"), [0.0, 2.0, float("nan")], r"motion.position"),
    (("groups", 1, "motion", "position"), 2.0, r"motion.position"),
    (("groups", 2, "motion", "start"), [0.0, True, 1.0], r"motion.start"),
    (("groups", 2, "motion", "step_sigma"), -0.05, "step_sigma"),
    (("groups", 1, "gaze", "direction"), [0.0, 0.0, 0.0], r"groups\[1\].gaze.*direction"),
    (("groups", 1, "gaze", "direction"), [1.0, 0.0], r"gaze.direction"),
    (("groups", 2, "gaze", "sigma"), -0.1, r"groups\[2\].gaze.*sigma"),
    (("groups", 2, "gaze", "sigma"), float("inf"), r"gaze.sigma"),
    (("groups", 1, "gaze", "direction"), [0.0, 0.0, -1e200], r"scenario.groups\[1\].gaze: direction"),  # norm overflows
]


@pytest.mark.parametrize("path, value, message", MALFORMED_SCENARIOS)
def test_scenario_json_rejects_malformed_values(path, value, message):
    with pytest.raises(DataError, match=message):
        scenario_from_json(mutated_scenario(path, value))


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


# sha256 of every file write_scenario wrote before the synth primitives were
# restructured; any change to the generator's arithmetic or formatting shows here
PINNED_DIGESTS = {
    "preset": {
        "clouds/frame_000000.ply": "2c232e6f4948fef01d16fa166a73270ff08dfb3c2bfb9cc8bcf7fcc032d0454b",
        "clouds/frame_000001.ply": "2c232e6f4948fef01d16fa166a73270ff08dfb3c2bfb9cc8bcf7fcc032d0454b",
        "clouds/frame_000002.ply": "2c232e6f4948fef01d16fa166a73270ff08dfb3c2bfb9cc8bcf7fcc032d0454b",
        "labels.json": "c9fc205e2c48c8a1241e66cc563b95de607b3f12f1749a87f9ee612ec9f306bb",
        "manifest.json": "8ead825a7a2b6db42eae4f63d9ecdaa74e29ab27ae821282588cd74933cf548f",
        "scenario.json": "4cfd0caef20eac24be19c28253bf4b414c807bfd1fa6621e21dd1a7edba06e83",
        "trajectories.csv": "3ecaf05e0cc96c5888178c48747c6be5018325ce7a6696b0bdd282048f318ceb",
    },
    "all_kinds": {
        "clouds/frame_000000.ply": "264afeb09e580a3b964380e0bc85bf4b7b4f860a1d84293ebf54f481966cee5f",
        "clouds/frame_000001.ply": "264afeb09e580a3b964380e0bc85bf4b7b4f860a1d84293ebf54f481966cee5f",
        "clouds/frame_000002.ply": "264afeb09e580a3b964380e0bc85bf4b7b4f860a1d84293ebf54f481966cee5f",
        "clouds/frame_000003.ply": "264afeb09e580a3b964380e0bc85bf4b7b4f860a1d84293ebf54f481966cee5f",
        "labels.json": "2b0d5ef1c0b75b89122103cd334bb5181d192d35c7f2a5fcf18daf0f9621b9ec",
        "manifest.json": "09cdbd3508e69a15345d466bd7962cb97977207ad394b72308cf8f585d8c8fcc",
        "scenario.json": "b03ddcb58b94cdc545fad2b5d77df3b982b9f01012b01dfe5b63739d9cdc1d52",
        "trajectories.csv": "d50a7d663b5a1dc8c72c2c0c8ddfc6317f15b11e9522ab14d6e024ef47c1d65d",
    },
}


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_write_scenario_outputs_match_pinned_digests(tmp_path, name):
    sc = {
        "preset": three_orbit_groups(seed=3, users_per_group=2, n_frames=3, points_per_frame=40),
        "all_kinds": all_kinds_scenario(),
    }[name]
    write_scenario(sc, tmp_path)
    written = {p.relative_to(tmp_path).as_posix(): p for p in tmp_path.rglob("*") if p.is_file()}
    assert sorted(written) == sorted(PINNED_DIGESTS[name])
    for rel, path in written.items():
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_DIGESTS[name][rel], rel


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
    for m in overlaps(pc):
        assert m.valid.sum() == 6  # all off-diagonal pairs
        np.testing.assert_array_equal(m.values[m.valid], 1.0)


def test_narrow_frustum_separates_planted_groups(narrow_content):
    labels = planted_labels(three_orbit_groups(seed=11, users_per_group=3, n_frames=6, points_per_frame=2500))
    intra, inter = [], []
    for m in overlaps(narrow_content):
        for i in range(m.n):
            for j in range(i + 1, m.n):
                if not m.valid[i, j]:
                    continue
                same = labels[m.users[i]] == labels[m.users[j]]
                (intra if same else inter).append(float(m.values[i, j]))
    assert np.mean(intra) > 0.8
    assert np.mean(inter) < 0.2
