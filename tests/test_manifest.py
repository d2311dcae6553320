"""Strict manifest parsing: defaults, overrides, and path checks."""

import copy
import functools
import json
import math
import operator
import re
from dataclasses import MISSING, fields, replace

import pytest
from test_synth import all_kinds_scenario

from viewsim.clustering import ChunkSpec
from viewsim.errors import InvalidParamsError, ManifestError
from viewsim.geometry import DEFAULT_SURFACE_KNN, FrustumParams
from viewsim.manifest import ContentManifest, ContentSettings, load_manifest
from viewsim.metrics import MetricId, RegulatorSet, default_configs
from viewsim.pipeline import PreparedContent, prepare, prepare_scenario
from viewsim.synth import (
    GAZES,
    MOTIONS,
    FixedDirectionGaze,
    GroupSpec,
    JitteredGaze,
    OrbitMotion,
    RandomWalkMotion,
    StaticMotion,
    SynthScenario,
    scenario_from_json,
    scenario_to_json,
    three_orbit_groups,
    write_scenario,
)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    sc = three_orbit_groups(seed=3, users_per_group=1, n_frames=2, points_per_frame=40)
    write_scenario(sc, root)
    return root


def _write(dataset, doc, name="m.json"):
    path = dataset / name
    path.write_text(json.dumps(doc))
    return path


def _minimal(dataset, **extra):
    doc = {
        "content_id": "demo",
        "cloud_dir": "clouds",
        "trajectory_csv": "trajectories.csv",
    }
    doc.update(extra)
    return _write(dataset, doc)


# -------------------------------------------------------------------- defaults


def test_generated_manifest_loads(dataset):
    (cm,) = load_manifest(dataset / "manifest.json")
    assert isinstance(cm, ContentManifest)
    assert cm.content_id == "synth-sphere-3"
    assert cm.fps == 30.0
    assert cm.cloud_dir.endswith("clouds")


def test_defaults_fill_optional_fields(dataset):
    (cm,) = load_manifest(_minimal(dataset))
    assert cm.fps == 30.0
    assert cm.reference is True
    assert cm.r_mode == "viewport"
    assert cm.relevant_min_size == 3
    assert cm.overlap_threshold == 0.75
    assert cm.surface_knn == DEFAULT_SURFACE_KNN
    assert cm.chunk.window == 1.0
    assert cm.chunk.persistence == 0.8
    assert cm.metrics == default_configs()
    assert cm.frustum.near < cm.frustum.far


def test_manifest_defaults_are_the_library_defaults(dataset):
    # a setting the manifest leaves out gets the value PreparedContent has without a manifest
    pc = prepare(load_manifest(_minimal(dataset))[0])
    for f in fields(ContentSettings):
        assert getattr(pc, f.name) == (f.default_factory() if f.default is MISSING else f.default), f.name
    # the settings are declared once: PreparedContent adds only what is not a setting
    assert [f.name for f in fields(PreparedContent)] == [f.name for f in fields(ContentSettings)] + [
        "content_id", "dataset", "clouds", "tables", "store_dir",
    ]


@pytest.mark.parametrize("name, bad", [
    ("cone_half_angle", 0.0),
    ("cone_half_angle", math.pi / 4 + 0.01),
    ("r_mode", "auto"),
    ("relevant_min_size", 1),
    ("overlap_threshold", -0.1),
    ("overlap_threshold", 1.5),
    ("surface_knn", 0),
])
def test_library_refuses_what_a_manifest_refuses(dataset, name, bad):
    with pytest.raises(ManifestError) as refused:
        load_manifest(_minimal(dataset, **{name: bad}))
    sc = three_orbit_groups(n_frames=1, points_per_frame=50)
    with pytest.raises(InvalidParamsError) as e:
        prepare_scenario(sc, **{name: bad})
    assert str(refused.value) == f"manifest: {e.value}"
    with pytest.raises(InvalidParamsError, match=re.escape(str(e.value))):
        replace(prepare_scenario(sc), **{name: bad})


def test_relative_paths_resolve_against_manifest_dir(dataset, tmp_path):
    # same content description from a manifest in another directory fails
    doc = {"content_id": "x", "cloud_dir": "clouds", "trajectory_csv": "trajectories.csv"}
    foreign = tmp_path / "foreign.json"
    foreign.write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match="cloud_dir not found"):
        load_manifest(foreign)


# ------------------------------------------------------------------ overrides


def test_metric_override_changes_one_config(dataset):
    path = _minimal(dataset, metrics={"w7": {"alpha": 0.1, "threshold": 0.5}})
    (cm,) = load_manifest(path)
    base = default_configs()
    w7 = cm.metrics[MetricId.W7]
    assert w7.regulators.alpha == 0.1
    assert w7.regulators.beta == base[MetricId.W7].regulators.beta
    assert w7.threshold == 0.5
    for m in MetricId:
        if m is not MetricId.W7:
            assert cm.metrics[m] == base[m]


def test_overlap_override_accepts_threshold_only(dataset):
    (cm,) = load_manifest(_minimal(dataset, metrics={"overlap": {"threshold": 0.6}}))
    assert cm.metrics[MetricId.OVERLAP].threshold == 0.6
    with pytest.raises(ManifestError):
        load_manifest(_minimal(dataset, metrics={"overlap": {"alpha": 1.0}}))


def test_frustum_chunk_and_scalar_overrides(dataset):
    path = _minimal(
        dataset,
        fps=25.0,
        reference=False,
        r_mode="centroid",
        relevant_min_size=4,
        overlap_threshold=0.6,
        surface_knn=12,
        frustum={"hfov": 0.5, "vfov": 0.4},
        chunk={"window": 2.0, "persistence": 0.5},
    )
    (cm,) = load_manifest(path)
    assert cm.fps == 25.0
    assert cm.reference is False
    assert cm.r_mode == "centroid"
    assert cm.relevant_min_size == 4
    assert cm.overlap_threshold == 0.6
    assert cm.surface_knn == 12
    assert cm.frustum.hfov == 0.5 and cm.frustum.vfov == 0.4
    assert cm.chunk.window == 2.0 and cm.chunk.persistence == 0.5


# ------------------------------------------------------------------ rejection


def test_unknown_keys_rejected_at_every_level(dataset):
    with pytest.raises(ManifestError, match="typo"):
        load_manifest(_minimal(dataset, typo=1))
    with pytest.raises(ManifestError, match="fov"):
        load_manifest(_minimal(dataset, frustum={"fov": 1.0}))
    with pytest.raises(ManifestError, match="length"):
        load_manifest(_minimal(dataset, chunk={"length": 1.0}))
    with pytest.raises(ManifestError, match="w9"):
        load_manifest(_minimal(dataset, metrics={"w9": {"alpha": 1.0}}))
    with pytest.raises(ManifestError, match="delta"):
        load_manifest(_minimal(dataset, metrics={"w1": {"delta": 1.0}}))


def test_missing_required_key(dataset):
    path = _write(dataset, {"cloud_dir": "clouds", "trajectory_csv": "trajectories.csv"})
    with pytest.raises(ManifestError, match="content_id"):
        load_manifest(path)


def test_missing_paths_name_the_path(dataset):
    path = _minimal(dataset, cloud_dir="nowhere")
    with pytest.raises(ManifestError, match="nowhere"):
        load_manifest(path)
    path = _minimal(dataset, trajectory_csv="ghost.csv")
    with pytest.raises(ManifestError, match="ghost.csv"):
        load_manifest(path)


def test_missing_manifest_file_names_path(tmp_path):
    with pytest.raises(ManifestError, match="no_such.json"):
        load_manifest(tmp_path / "no_such.json")


def test_bad_json_and_bad_shape(dataset):
    path = dataset / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ManifestError, match="JSON"):
        load_manifest(path)
    path.write_bytes(b'{"content_id": "\xff"}')
    with pytest.raises(ManifestError, match="JSON"):
        load_manifest(path)
    path.write_text(json.dumps([1, 2]))
    with pytest.raises(ManifestError, match="object"):
        load_manifest(path)


def test_type_errors_rejected(dataset):
    with pytest.raises(ManifestError, match="fps"):
        load_manifest(_minimal(dataset, fps="fast"))
    with pytest.raises(ManifestError, match="fps"):
        load_manifest(_minimal(dataset, fps=True))
    with pytest.raises(ManifestError, match="reference"):
        load_manifest(_minimal(dataset, reference=1))
    for knn in (8.5, 0, -1):
        with pytest.raises(ManifestError, match="surface_knn"):
            load_manifest(_minimal(dataset, surface_knn=knn))
    with pytest.raises(ManifestError, match="r_mode"):
        load_manifest(_minimal(dataset, r_mode="auto"))


@pytest.mark.parametrize("extra, key", [
    ({"relevant_min_size": 1}, "relevant_min_size"),
    ({"relevant_min_size": 0}, "relevant_min_size"),
    ({"relevant_min_size": -1}, "relevant_min_size"),
    ({"relevant_min_size": 2.5}, "relevant_min_size"),
    ({"overlap_threshold": -0.5}, "overlap_threshold"),
    ({"overlap_threshold": 1.5}, "overlap_threshold"),
    ({"fps": 0}, "fps"),
    ({"fps": -1}, "fps"),
    ({"cone_half_angle": 0.0}, "cone_half_angle"),
    ({"cone_half_angle": 2.0}, "cone_half_angle"),
    ({"cone_half_angle": -0.1}, "cone_half_angle"),
    ({"frustum": {"hfov": 4.0}}, r"manifest.frustum: .*hfov=4.0"),
    ({"frustum": {"vfov": 0}}, r"manifest.frustum: .*vfov=0"),
    ({"frustum": {"near": 5.0, "far": 1.0}}, r"manifest.frustum: .*near"),
    ({"frustum": {"far": "far"}}, r"manifest.frustum.far"),
    ({"chunk": {"window": 0}}, r"manifest.chunk: window"),
    ({"chunk": {"persistence": 0}}, r"manifest.chunk: persistence"),
    ({"chunk": {"persistence": 1.5}}, r"manifest.chunk: persistence"),
    ({"metrics": {"w7": {"alpha": -1}}}, r"manifest.metrics.w7: alpha"),
    ({"metrics": {"w1": {"beta": -0.5}}}, r"manifest.metrics.w1: beta"),
    ({"metrics": {"w1": {"threshold": "high"}}}, r"manifest.metrics.w1.threshold"),
    ({"metrics": {"w1": 0.5}}, r"manifest.metrics.w1 must be an object"),
    ({"metrics": []}, r"manifest.metrics must be an object"),
])
def test_meaningless_values_rejected(dataset, extra, key):
    with pytest.raises(ManifestError, match=key):
        load_manifest(_minimal(dataset, **extra))


def test_range_boundaries_accepted(dataset):
    (cm,) = load_manifest(_minimal(dataset, relevant_min_size=2, overlap_threshold=1.0, cone_half_angle=math.pi / 4))
    assert (cm.relevant_min_size, cm.overlap_threshold, cm.cone_half_angle) == (2, 1.0, math.pi / 4)
    (cm,) = load_manifest(_minimal(dataset, overlap_threshold=0, metrics={}))
    assert cm.overlap_threshold == 0.0 and cm.metrics == default_configs()


# ----------------------------------------------------------------- multi-item


def test_contents_list_parses_in_order(dataset):
    base = {"cloud_dir": "clouds", "trajectory_csv": "trajectories.csv"}
    doc = {"contents": [dict(base, content_id="a"), dict(base, content_id="b", reference=False)]}
    cms = load_manifest(_write(dataset, doc))
    assert [c.content_id for c in cms] == ["a", "b"]
    assert [c.reference for c in cms] == [True, False]


def test_duplicate_content_ids_rejected(dataset):
    base = {"cloud_dir": "clouds", "trajectory_csv": "trajectories.csv"}
    # "x y" and "x-y" would both write overlap_x-y.csv and share one store directory
    for ids in (("a", "a"), ("x y", "x-y")):
        doc = {"contents": [dict(base, content_id=cid) for cid in ids]}
        with pytest.raises(ManifestError, match="duplicate"):
            load_manifest(_write(dataset, doc))


def test_contents_must_be_nonempty_and_sole_key(dataset):
    with pytest.raises(ManifestError):
        load_manifest(_write(dataset, {"contents": []}))
    with pytest.raises(ManifestError):
        load_manifest(_write(dataset, {"contents": [], "extra": 1}))


def test_error_names_offending_content_index(dataset):
    base = {"cloud_dir": "clouds", "trajectory_csv": "trajectories.csv"}
    doc = {"contents": [dict(base, content_id="a"), {"content_id": "b", "cloud_dir": "clouds"}]}
    with pytest.raises(ManifestError, match=r"contents\[1\]"):
        load_manifest(_write(dataset, doc))


# ------------------------------------------------------- every field is read

FULL_MANIFEST = {
    "content_id": "demo",
    "cloud_dir": "clouds",
    "trajectory_csv": "trajectories.csv",
    "fps": 25.0,
    "reference": False,
    "frustum": {"hfov": 0.5, "vfov": 0.4, "near": 0.1, "far": 50.0},
    "cone_half_angle": 0.05,
    "r_mode": "centroid",
    "relevant_min_size": 4,
    "overlap_threshold": 0.6,
    "surface_knn": 12,
    "chunk": {"window": 2.0, "persistence": 0.5},
    "metrics": {"w7": {"alpha": 0.1, "beta": 0.2, "gamma": 0.3, "threshold": 0.5}},
}

# (class, which document holds an object of it, the object's path in that document, the
# object's value in what the document loads into); every optional key of both documents
# differs from its default. all_kinds_scenario's group 0 is orbit/at-centroid,
# 1 static/fixed-direction, 2 random_walk/jittered.
READ_OBJECTS = [
    (ContentManifest, "manifest", (), lambda cm: cm),
    (FrustumParams, "manifest", ("frustum",), lambda cm: cm.frustum),
    (ChunkSpec, "manifest", ("chunk",), lambda cm: cm.chunk),
    (RegulatorSet, "manifest", ("metrics", "w7"), lambda cm: cm.metrics[MetricId.W7].regulators),
    (SynthScenario, "scenario", (), lambda sc: sc),
    (GroupSpec, "scenario", ("groups", 0), lambda sc: sc.groups[0]),
    (OrbitMotion, "scenario", ("groups", 0, "motion"), lambda sc: sc.groups[0].motion),
    (StaticMotion, "scenario", ("groups", 1, "motion"), lambda sc: sc.groups[1].motion),
    (FixedDirectionGaze, "scenario", ("groups", 1, "gaze"), lambda sc: sc.groups[1].gaze),
    (RandomWalkMotion, "scenario", ("groups", 2, "motion"), lambda sc: sc.groups[2].motion),
    (JitteredGaze, "scenario", ("groups", 2, "gaze"), lambda sc: sc.groups[2].gaze),
]


def test_read_objects_list_every_registered_kind_with_fields():
    listed = {cls for cls, *_ in READ_OBJECTS}
    assert {cls for cls in [*MOTIONS.values(), *GAZES.values()] if fields(cls)} <= listed


@pytest.mark.parametrize("cls, root, path, loaded, name", [
    pytest.param(*obj, f.name, id=f"{obj[0].__name__}.{f.name}") for obj in READ_OBJECTS for f in fields(obj[0])
])
def test_reader_covers_every_field(dataset, cls, root, path, loaded, name):
    where = root + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)

    def load(edit):
        doc = copy.deepcopy(FULL_MANIFEST if root == "manifest" else scenario_to_json(all_kinds_scenario()))
        edit(functools.reduce(operator.getitem, path, doc))
        return loaded(load_manifest(_write(dataset, doc))[0] if root == "manifest" else scenario_from_json(doc))

    f = next(f for f in fields(cls) if f.name == name)
    wrong = 5 if f.type == "str" else "5"  # a number where a string belongs, else a string
    with pytest.raises(ManifestError, match=re.escape(f"{where}.{name} ")) as err:
        load(lambda node: node.update({name: wrong}))
    assert err.value.exit_code == 3
    with pytest.raises(ManifestError, match=re.escape(f"unknown keys ['{name}_'] in {where}")):
        load(lambda node: node.update({f"{name}_": 1}))
    if cls is RegulatorSet:  # a metric override's absent regulator keeps the metric's default
        default = getattr(default_configs()[MetricId.W7].regulators, name)
    elif f.default is not MISSING or f.default_factory is not MISSING:
        default = f.default_factory() if f.default is MISSING else f.default
    else:
        with pytest.raises(ManifestError, match=re.escape(f"missing keys ['{name}'] in {where}")):
            load(lambda node: node.pop(name))
        return
    assert getattr(load(lambda node: None), name) != default
    assert getattr(load(lambda node: node.pop(name)), name) == default
