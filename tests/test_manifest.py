"""Strict manifest parsing: defaults, overrides, and path checks."""

import json
import math

import pytest

from viewsim.errors import ManifestError
from viewsim.geometry import DEFAULT_SURFACE_KNN
from viewsim.manifest import ContentManifest, load_manifest
from viewsim.metrics import MetricId, default_configs
from viewsim.synth import three_orbit_groups, write_scenario


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
