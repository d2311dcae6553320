"""Batch orchestration: loading, matrices, clustering, sweeps."""

import importlib
import re
import shutil
import tracemalloc
import weakref
from dataclasses import astuple, fields, replace
from pathlib import Path

import numpy as np
import pytest

import viewsim.pipeline
import viewsim.ply
from viewsim.calibration import pair_samples
from viewsim.clustering import ChunkSpec
from viewsim.errors import InvalidParamsError
from viewsim.geometry import FrustumParams, PointCloudFrame, build_surface_graph
from viewsim.manifest import ContentSettings, load_manifest
from viewsim.metrics import (
    PROXY_METRICS, MetricConfig, MetricId, RegulatorSet, compute_pair_features, default_configs, geodesic_gaze,
    overlap_matrix,
)
from viewsim.pipeline import (
    calibrate_contents,
    cluster_content,
    evaluate_content,
    gaze_targets,
    metric_matrices,
    prepare,
    prepare_scenario,
    run_ablation,
)
from viewsim.synth import planted_labels, three_orbit_groups, write_scenario
from viewsim.trajectories import derive_pr

from conftest import geodesic_features, overlaps, valid
from oracles import adjusted_rand_index, auc_oracle


@pytest.fixture(scope="module")
def disk_content(tmp_path_factory):
    root = tmp_path_factory.mktemp("disk")
    sc = three_orbit_groups(seed=5, users_per_group=2, n_frames=4, points_per_frame=300)
    write_scenario(sc, root)
    (cm,) = load_manifest(root / "manifest.json")
    return prepare(cm)


def _matrices_equal(a, b):
    """Two (frames, n, n) stacks hold the same values, NaN at the same pairs."""
    assert a.shape == b.shape
    np.testing.assert_array_equal(valid(a), valid(b))
    np.testing.assert_array_equal(np.where(valid(a), a, 0.0), np.where(valid(b), b, 0.0))


# ------------------------------------------------------------------- loading


def test_prepare_from_disk_round_trips_scenario(disk_content):
    ds = disk_content.dataset
    assert ds.users == tuple(f"u{k:02d}" for k in range(6))
    assert ds.n_frames == 4
    assert ds.fps == 30.0
    # the CSV supplies no p/r: a frame's targets are cast when first asked for
    assert np.isnan(ds.r).all()
    p, r, _ = gaze_targets(replace(disk_content), 0)
    assert not np.isnan(p[0]).any() and r[0] > 0


def test_prepare_reads_no_cloud_and_casts_no_ray(tmp_path, monkeypatch):
    import viewsim.trajectories

    sc = three_orbit_groups(seed=5, users_per_group=2, n_frames=4, points_per_frame=300)
    write_scenario(sc, tmp_path)
    (cm,) = load_manifest(tmp_path / "manifest.json")
    calls = []
    for module, name in ((viewsim.ply, "read_ply"), (viewsim.trajectories, "ray_cast_center")):
        monkeypatch.setattr(module, name, lambda *a, name=name, **k: calls.append(name))
    pc = prepare(cm)
    assert calls == [] and pc.dataset.n_frames == 4 and pc.tables == {}


def test_disk_and_memory_preparation_agree(disk_content):
    # cloud files store float32 coordinates, so agreement is to storage
    # precision: identical validity, near-identical values
    sc = three_orbit_groups(seed=5, users_per_group=2, n_frames=4, points_per_frame=300)
    mem = prepare_scenario(sc, frustum=disk_content.frustum)  # the manifest's
    got, want = (metric_matrices(pc, [MetricId.OVERLAP, MetricId.W7]) for pc in (disk_content, mem))
    for metric in (MetricId.OVERLAP, MetricId.W7):
        ma, mb = got[metric], want[metric]
        assert ma.users == mb.users and ma.frames == mb.frames
        np.testing.assert_array_equal(valid(ma.values), valid(mb.values))
        np.testing.assert_allclose(
            np.where(valid(ma.values), ma.values, 0.0),
            np.where(valid(mb.values), mb.values, 0.0),
            atol=0.02,
        )


def test_session_dataset_is_only_the_aligned_table():
    from dataclasses import fields

    from viewsim.trajectories import SessionDataset

    assert [f.name for f in fields(SessionDataset)] == ["fps", "users", "x", "view", "p", "r", "off"]


def test_prepare_scenario_rejects_unknown_override():
    sc = three_orbit_groups(n_frames=1, points_per_frame=50)
    with pytest.raises(TypeError, match="'fov'"):
        prepare_scenario(sc, fov=1.0)


def test_prepare_scenario_overrides_take_effect():
    from viewsim.clustering import ChunkSpec
    from viewsim.geometry import FrustumParams
    from viewsim.metrics import default_configs

    sc = three_orbit_groups(n_frames=2, points_per_frame=300)
    configs = default_configs()
    settings = {
        "frustum": FrustumParams(hfov=0.4, vfov=0.3), "overlap_threshold": 0.5, "relevant_min_size": 4,
        "surface_knn": 6, "cone_half_angle": 0.2, "r_mode": "centroid",
        "chunk": ChunkSpec(window=0.5, persistence=0.6), "metrics": configs, "reference": False,
    }
    pc = prepare_scenario(sc, **settings)
    assert {name: getattr(pc, name) for name in settings} == settings and pc.metrics is configs
    # the viewing model reaches the tables: each setting alone changes what it feeds
    default = prepare_scenario(sc)
    narrow = prepare_scenario(sc, frustum=settings["frustum"])
    assert not np.array_equal(overlaps(narrow)[0], overlaps(default)[0])
    for name in ("cone_half_angle", "r_mode"):
        one = prepare_scenario(sc, **{name: settings[name]})
        assert gaze_targets(one, 0)[1].tobytes() != gaze_targets(default, 0)[1].tobytes(), name


# ------------------------------------------------------------------ matrices


def test_matrix_shapes_and_frame_indexing(narrow_content):
    ovs = metric_matrices(narrow_content, [MetricId.OVERLAP])[MetricId.OVERLAP]
    assert len(ovs.values) == 6
    assert ovs.frames == tuple(range(6))
    assert ovs.values.shape == (6, 9, 9) and ovs.values.dtype == np.float64
    assert ovs.users == narrow_content.dataset.users and ovs.metric is MetricId.OVERLAP


def test_frame_subset_selects_frames(narrow_content):
    mats = metric_matrices(narrow_content, [MetricId.W1], frames=[2, 4])[MetricId.W1]
    assert mats.frames == (2, 4) and mats.values.shape == (2, 9, 9)


def test_geodesic_graphs_cached_per_distinct_cloud(narrow_content, monkeypatch):
    builds = _count_calls(monkeypatch, "build_surface_graph")
    pc = replace(narrow_content)
    metric_matrices(pc, [MetricId.W3])
    # rigid content: one shared coordinate array, one build
    assert len(builds) == 1
    g = pc.surface_graph(0)
    assert g is pc.surface_graph(5)
    # keyed by the points, not the array: consecutive equal copies share a build, moved points
    # get their own, and a cloud that comes back after another is built again (A A A B A A)
    clouds = [PointCloudFrame(k, c.points.copy()) for k, c in enumerate(narrow_content.clouds)]
    clouds[3] = PointCloudFrame(3, clouds[3].points * 1.01)
    pc = replace(narrow_content, clouds=clouds)
    builds.clear()
    metric_matrices(pc, [MetricId.W3])
    assert len(builds) == 3
    assert pc.surface_graph(0) is pc.surface_graph(5) is not pc.surface_graph(3)


def test_one_surface_graph_alive_at_a_time(narrow_content, monkeypatch):
    alive = []
    real = viewsim.pipeline.build_surface_graph

    def watched(cloud, k):
        assert [ref for ref in alive if ref() is not None] == [], "an earlier graph is still alive"
        graph = real(cloud, k)
        alive.append(weakref.ref(graph))
        return graph

    monkeypatch.setattr(viewsim.pipeline, "build_surface_graph", watched)
    # four distinct clouds over six frames, equal ones not adjacent: A B A C B D, one build per frame
    scale = [1.0, 1.01, 1.0, 1.02, 1.01, 1.03]
    clouds = [PointCloudFrame(k, narrow_content.clouds[k].points * s) for k, s in enumerate(scale)]
    pc = replace(narrow_content, clouds=clouds)
    metric_matrices(pc, [MetricId.W7])
    assert len(alive) == 6
    assert [ref for ref in alive if ref() is not None] == [], "the pass kept its last graph"
    # the same values as one graph per frame, built afresh
    for k, cloud in enumerate(clouds):
        graph = real(cloud, pc.surface_knn)
        p, r, _ = gaze_targets(pc, k)
        assert geodesic_gaze(p, r, graph).tobytes() == pc.tables[("geodesic", k)][0].tobytes()


def test_feature_tables_add_geodesics_only_when_asked(narrow_content, monkeypatch):
    builds = _count_calls(monkeypatch, "build_surface_graph")
    computed = _count_calls(monkeypatch, "compute_pair_features")
    pc = replace(narrow_content)
    plain = metric_matrices(pc, [MetricId.W1, MetricId.W8])
    assert _stored(pc, "geodesic") == [] and all(f.gaze_geo is None for f in _stored(pc, "features"))
    assert builds == [] and len(computed) == 6
    features = _stored(pc, "features")
    geo = metric_matrices(pc, [MetricId.W1, MetricId.W8, MetricId.W3])
    assert len(_stored(pc, "geodesic")) == 6
    # the geodesic request reuses the plain tables: no feature table is computed again
    assert len(computed) == 6
    assert all(a is b for a, b in zip(features, _stored(pc, "features")))
    for metric in (MetricId.W1, MetricId.W8):  # pos_dist, eta_sum and gaze_euc as before
        assert plain[metric].values.tobytes() == geo[metric].values.tobytes()


def _stored(pc, kind):
    """The content's stored tables of one kind, in frame order."""
    return [pc.tables[(kind, k)] for k in range(pc.dataset.n_frames) if (kind, k) in pc.tables]


def _same_bytes(a, b):
    """Two tables hold the same arrays, byte for byte: a stored kind's array tuples, or feature tables."""
    pairs = zip(a, b) if isinstance(a, tuple) else ((value, getattr(b, name)) for name, value in vars(a).items())
    for value, other in pairs:
        if isinstance(value, np.ndarray):
            assert value.dtype == other.dtype and value.tobytes() == other.tobytes()
        else:
            assert value == other


def test_disk_store_round_trips_and_upgrades_to_geodesics(narrow_content, tmp_path, monkeypatch):
    def fresh(store_dir=str(tmp_path)):
        return replace(narrow_content, store_dir=store_dir)

    builds = _count_calls(monkeypatch, "build_surface_graph")

    memory = fresh(None)
    plain = [MetricId.OVERLAP, MetricId.W1]
    assert metric_matrices(fresh(), plain)[MetricId.W1]
    # a later process reads the tables back byte for byte and builds no graph
    pc = fresh()
    metric_matrices(pc, plain)
    metric_matrices(memory, plain)
    for kind in ("pr", "overlap", "features"):
        assert len(_stored(pc, kind)) == 6
        for a, b in zip(_stored(pc, kind), _stored(memory, kind)):
            _same_bytes(a, b)
    assert builds == []
    # feature tables are kept in memory only; the first geodesic request writes
    # geodesic files and leaves every stored file as it was
    stored_files = {p: p.read_bytes() for p in tmp_path.glob("**/*.npz")}
    assert sorted({p.name.split("-")[0] for p in stored_files}) == ["overlap", "pr"] and len(stored_files) == 12
    metric_matrices(pc, [MetricId.W3])
    assert len(_stored(pc, "geodesic")) == 6
    assert len(list(tmp_path.glob("**/geodesic-*.npz"))) == 6
    assert {p: p.read_bytes() for p in stored_files} == stored_files
    assert not list(tmp_path.glob("**/features-*.npz"))
    # a later process serves the gaze targets and geodesics without building a graph
    pc = fresh()
    builds.clear()
    metric_matrices(pc, [MetricId.W1])
    metric_matrices(pc, [MetricId.W3])
    assert builds == []
    metric_matrices(memory, [MetricId.W3])
    for kind in ("pr", "features", "geodesic"):
        assert len(_stored(pc, kind)) == 6
        for a, b in zip(_stored(pc, kind), _stored(memory, kind)):
            _same_bytes(a, b)
    assert not list(tmp_path.glob("**/*.tmp"))


# each content setting: a changed value, and the stored kinds whose key reads the setting
SETTING_READERS = {
    "reference": (False, set()),
    "frustum": (FrustumParams(hfov=0.6, vfov=0.4), {"overlap"}),
    "cone_half_angle": (0.07, {"pr", "overlap", "geodesic"}),
    "r_mode": ("centroid", {"pr", "geodesic"}),
    "relevant_min_size": (3, set()),
    "overlap_threshold": (0.5, set()),
    "surface_knn": (4, {"geodesic"}),
    "chunk": (ChunkSpec(window=0.5, persistence=0.6), set()),
    "metrics": ({**default_configs(), MetricId.W3: MetricConfig(MetricId.W3, RegulatorSet(2.0), 0.5)}, set()),
}


def test_store_keys_cover_every_setting_each_table_reads(narrow_content, tmp_path, monkeypatch):
    # a setting a table reads but its key leaves out would be a stale hit: a table unequal to a run without a store
    assert set(SETTING_READERS) == {f.name for f in fields(ContentSettings)}, "classify each new setting"
    metrics, frames = [MetricId.OVERLAP, MetricId.W3], [0, 3]
    metric_matrices(replace(narrow_content, store_dir=str(tmp_path / "seed")), metrics, frames)
    computed = []
    for name, kind in (("derive_pr", "pr"), ("overlap_matrix", "overlap"), ("geodesic_gaze", "geodesic")):
        real = getattr(viewsim.pipeline, name)
        monkeypatch.setattr(viewsim.pipeline, name,
                            lambda *a, real=real, kind=kind, **kw: computed.append(kind) or real(*a, **kw))
    for f in fields(ContentSettings):
        value, readers = SETTING_READERS[f.name]
        store_dir = tmp_path / f.name
        shutil.copytree(tmp_path / "seed", store_dir)
        stored = replace(narrow_content, store_dir=str(store_dir), **{f.name: value})
        memory = replace(narrow_content, **{f.name: value})
        metric_matrices(memory, metrics, frames)
        computed.clear()
        metric_matrices(stored, metrics, frames)
        assert set(computed) <= readers, f.name
        for kind in ("pr", "overlap", "features", "geodesic"):
            assert len(_stored(stored, kind)) == len(frames), (f.name, kind)
            for a, b in zip(_stored(stored, kind), _stored(memory, kind)):
                _same_bytes(a, b)


def test_stored_tables_hold_only_their_arrays(narrow_content, tmp_path):
    pc = replace(narrow_content, store_dir=str(tmp_path))
    metric_matrices(pc, [MetricId.OVERLAP, MetricId.W3], frames=[0])
    members = {}
    for path in tmp_path.glob("**/*.npz"):
        with np.load(path) as npz:
            members[path.name] = set(npz.files)
    # NaN in the values marks an invalid pair: no mask is stored beside them
    assert members == {
        "pr-000000.npz": {"key", "p", "r", "off"},
        "overlap-000000.npz": {"key", "values"},
        "geodesic-000000.npz": {"key", "gaze_geo"},
    }


def test_cold_overlap_pass_reads_each_cloud_once(disk_content, tmp_path, monkeypatch):
    reads = []
    real = viewsim.ply.read_ply
    monkeypatch.setattr(viewsim.ply, "read_ply", lambda path: reads.append(path) or real(path))
    # one read serves the frame's store key and its matrix
    overlaps(replace(disk_content, store_dir=str(tmp_path)))
    assert sorted(reads) == disk_content.clouds.paths


def _deforming_disk_content(root):
    """A 4-frame content on disk whose every frame's points differ."""
    from viewsim.ply import read_ply, write_ply

    write_scenario(three_orbit_groups(seed=5, users_per_group=2, n_frames=4, points_per_frame=300), root)
    (cm,) = load_manifest(root / "manifest.json")
    for k, path in enumerate(sorted((root / "clouds").glob("*.ply"))):
        write_ply(path, read_ply(path) * (1 + 0.01 * k))
    return prepare(cm)


def _count_reads(monkeypatch):
    reads = []
    real = viewsim.ply.read_ply
    monkeypatch.setattr(viewsim.ply, "read_ply", lambda path: reads.append(path) or real(path))
    return reads


def test_geodesic_pass_reads_each_distinct_cloud_once(tmp_path, monkeypatch):
    pc = _deforming_disk_content(tmp_path)
    reads = _count_reads(monkeypatch)
    builds = _count_calls(monkeypatch, "build_surface_graph")
    for metrics in ([MetricId.W3], [MetricId.W1, MetricId.W3, MetricId.OVERLAP]):
        for store_dir in (None, str(tmp_path / "out" / str(len(metrics)))):
            reads.clear()
            builds.clear()
            # one read serves the frame's digest, its store keys, its rays, its overlap and its graph
            metric_matrices(replace(pc, store_dir=store_dir), metrics)
            assert sorted(reads) == pc.clouds.paths
            assert len(builds) == 4


@pytest.mark.parametrize("run", [
    lambda pc: overlaps(pc),
    lambda pc: overlaps(pc, frames=[2]),
    lambda pc: metric_matrices(pc, [MetricId.W1]),
    lambda pc: metric_matrices(pc, [MetricId.W3]),
    lambda pc: metric_matrices(pc, [MetricId.W7]),
    lambda pc: metric_matrices(pc, list(MetricId), frames=[3, 1]),
    lambda pc: evaluate_content(pc, [MetricId.W5], mode="chunk"),
    lambda pc: calibrate_contents([pc]),
], ids=["overlap", "overlap-frame", "features", "geodesic", "w7", "all", "evaluate", "calibrate"])
def test_no_pass_keeps_a_cloud_or_graph(disk_content, tmp_path, run):
    for store_dir in (None, str(tmp_path)):
        pc = replace(disk_content, store_dir=store_dir)
        run(pc)
        assert "cloud" not in pc.tables and "graph" not in pc.tables


@pytest.fixture(scope="module")
def large_disk_content(tmp_path_factory):
    root = tmp_path_factory.mktemp("large-disk")
    write_scenario(three_orbit_groups(seed=6, users_per_group=2, n_frames=4, points_per_frame=20000), root)
    (cm,) = load_manifest(root / "manifest.json")
    return prepare(cm)


def test_overlap_pass_memory_is_one_frame_deep(large_disk_content):
    def peak(frames) -> int:
        pc = replace(large_disk_content)
        tracemalloc.start()
        try:
            overlaps(pc, frames=frames)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one = peak([0])
    assert peak(range(4)) <= 1.25 * one


@pytest.mark.parametrize("scan", ["overlap_matrix", "derive_pr"])
def test_frame_scan_memory_is_one_block_deep(scan):
    def peak(n_points) -> int:
        rng = np.random.default_rng(25)
        cloud = PointCloudFrame(0, rng.uniform(-1.0, 1.0, (n_points, 3)))
        a = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
        x = 2.5 * np.stack([np.cos(a), np.zeros(8), np.sin(a)], axis=1)
        view, off = -x, np.zeros(8, dtype=bool)
        tracemalloc.start()
        try:
            if scan == "overlap_matrix":
                overlap_matrix(tuple("abcdefgh"), x, view, off, cloud, FrustumParams(0.5, 0.5))
            else:
                derive_pr(x, view, off, cloud)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one = peak(2**16)
    assert peak(2**18) <= 1.25 * one


def test_overlap_route_via_metric_matrices(narrow_content):
    pc, ds = narrow_content, narrow_content.dataset
    direct = []
    for k in range(ds.n_frames):
        off = gaze_targets(pc, k)[2]
        direct.append(overlap_matrix(ds.users, ds.x[:, k], ds.view[:, k], off, pc.clouds[k], pc.frustum))
    _matrices_equal(metric_matrices(replace(pc), [MetricId.OVERLAP])[MetricId.OVERLAP].values, np.stack(direct))


@pytest.mark.parametrize("frames", [None, [4, 1, 2]])
def test_each_stack_is_the_frame_functions_results_bit_for_bit(narrow_content, frames):
    pc, ds = narrow_content, narrow_content.dataset
    metrics = [*MetricId]
    got = metric_matrices(replace(pc), metrics, frames)
    ks = list(range(ds.n_frames)) if frames is None else frames
    for metric in metrics:
        m = got[metric]
        assert (m.frames, m.users, m.metric) == (tuple(ks), ds.users, metric)
        assert m.values.shape == (len(ks), len(ds.users), len(ds.users))
    for i, k in enumerate(ks):
        p, r, off = gaze_targets(pc, k)
        ov = overlap_matrix(ds.users, ds.x[:, k], ds.view[:, k], off, pc.clouds[k], pc.frustum)
        assert got[MetricId.OVERLAP].values[i].tobytes() == ov.tobytes()
        feats = geodesic_features(ds.users, ds.x[:, k], p, r, off, ds.view[:, k],
                                  build_surface_graph(pc.clouds[k], k=pc.surface_knn))
        for metric in PROXY_METRICS + (MetricId.DOF3,):
            want = feats.metric_matrix(metric, pc.metrics[metric].regulators)
            assert got[metric].values[i].tobytes() == want.tobytes(), (k, metric)


def _same_matrices(a, b):
    assert (a.frames, a.users, a.metric, a.values.tobytes()) == (b.frames, b.users, b.metric, b.values.tobytes())


@pytest.mark.parametrize("metrics, frames", [
    (list(MetricId), None),
    ([MetricId.W7, MetricId.OVERLAP, MetricId.W1, MetricId.W3], None),
    ([MetricId.W2, MetricId.OVERLAP, MetricId.W2], None),
    ([MetricId.W5, MetricId.OVERLAP, MetricId.W8], [4, 1, 2]),
], ids=["all", "reordered", "repeated", "frames"])
def test_one_pass_over_several_metrics_matches_one_pass_per_metric(narrow_content, metrics, frames):
    together = metric_matrices(replace(narrow_content), metrics, frames)
    assert list(together) == list(dict.fromkeys(metrics))
    for metric in metrics:
        alone = metric_matrices(replace(narrow_content), [metric], frames)[metric]
        assert alone.frames == (tuple(frames) if frames else tuple(range(6)))
        _same_matrices(together[metric], alone)


def test_evaluate_content_applies_each_frames_kernels_once(narrow_content, monkeypatch):
    from viewsim.metrics import PairFeatures

    applied = []
    real = PairFeatures.metric_matrix
    pc = replace(narrow_content)

    def frame_of(f):  # the stored feature table whose arrays f carries
        return next(k for k in range(6) if pc.tables[("features", k)].pos_dist is f.pos_dist)

    monkeypatch.setattr(PairFeatures, "metric_matrix", lambda f, m, reg: applied.append((frame_of(f), m)) or real(f, m, reg))
    for mode in ("frame", "chunk", "frame"):  # cold, then from the stored tables
        applied.clear()
        evaluate_content(pc, [MetricId.W7], mode=mode)
        assert applied == [(k, MetricId.W7) for k in range(6)], mode
    applied.clear()
    evaluate_content(pc, [MetricId.OVERLAP], mode="chunk")
    assert applied == []


# ---------------------------------------------------------------- clustering


def test_cluster_counts_frame_vs_chunk(narrow_content):
    frames = cluster_content(narrow_content, MetricId.OVERLAP, mode="frame")
    chunks = cluster_content(narrow_content, MetricId.OVERLAP, mode="chunk")
    assert len(frames) == 6
    # 6 frames at 30 fps inside a 1 s window: a single trailing chunk
    assert len(chunks) == 1
    assert chunks[0].users == narrow_content.dataset.users


def test_cluster_mode_validated(narrow_content):
    with pytest.raises(InvalidParamsError):
        cluster_content(narrow_content, MetricId.W1, mode="video")
    with pytest.raises(InvalidParamsError):
        evaluate_content(narrow_content, [MetricId.W1], mode="video")


def test_w7_recovers_planted_groups(narrow_content):
    labels = planted_labels(
        three_orbit_groups(seed=11, users_per_group=3, n_frames=6, points_per_frame=2500)
    )
    # single-frame noise can break one frame; the persistence window absorbs it
    per_frame = [
        adjusted_rand_index(dict(zip(result.users, result.labels.tolist())), labels)
        for result in cluster_content(narrow_content, MetricId.W7, mode="frame")
    ]
    assert sum(a == 1.0 for a in per_frame) >= 5
    (chunk,) = cluster_content(narrow_content, MetricId.W7, mode="chunk")
    assert adjusted_rand_index(dict(zip(chunk.users, chunk.labels.tolist())), labels) == 1.0


def _scores(triple):
    """A ``(results, perfs, summary)`` triple as plain values, NaN equal to NaN under ``assert_equal``."""
    results, perfs, summary = triple
    return [(r.ident, r.users, r.labels.tolist()) for r in results], perfs, {f: astuple(s) for f, s in summary.items()}


@pytest.mark.parametrize("mode", ["chunk", "frame"])
def test_evaluate_content_scores_several_metrics_from_one_pass(tmp_path, monkeypatch, mode):
    pc = _deforming_disk_content(tmp_path)
    metrics = [MetricId.W1, MetricId.W3, MetricId.OVERLAP]
    reads = _count_reads(monkeypatch)
    builds = _count_calls(monkeypatch, "build_surface_graph")
    together = evaluate_content(replace(pc), metrics, mode)
    # cold: one read of each PLY and one graph per frame serve every metric and the ground truth
    assert sorted(reads) == pc.clouds.paths
    assert len(builds) == 4
    assert list(together) == metrics
    for metric in metrics:
        np.testing.assert_equal(_scores(together[metric]), _scores(evaluate_content(replace(pc), [metric], mode)[metric]))


def test_evaluate_content_returns_aligned_triples(narrow_content):
    results, perfs, summary = evaluate_content(narrow_content, [MetricId.W7], mode="frame")[MetricId.W7]
    assert len(results) == len(perfs) == 6
    assert [r.ident for r in results] == list(range(6))
    assert all(tuple(p) == tuple(summary) == ("overlap_ratio", "relevant_population", "precision") for p in perfs)
    assert summary["relevant_population"].n_valid == 6


# -------------------------------------------------------------------- sweeps


def test_run_ablation_uses_reference_contents_only():
    from viewsim.geometry import FrustumParams

    sc_a = three_orbit_groups(seed=31, users_per_group=1, n_frames=2, points_per_frame=200)
    sc_b = three_orbit_groups(seed=32, users_per_group=1, n_frames=2, points_per_frame=200)
    # the narrow frustum collapses the extra content's exact overlap, so
    # including it must move the averaged figures
    ref = prepare_scenario(sc_a)
    extra = prepare_scenario(sc_b, frustum=FrustumParams(hfov=0.4, vfov=0.4), reference=False)
    only_ref = run_ablation([ref, extra], MetricId.W2, grid=(0.1, 1.0))
    alone = run_ablation([ref], MetricId.W2, grid=(0.1, 1.0))
    assert repr(only_ref) == repr(alone)
    both = run_ablation([ref, extra], MetricId.W2, grid=(0.1, 1.0), reference_only=False)
    assert repr(both) != repr(alone)


def test_run_ablation_falls_back_when_nothing_is_marked():
    sc = three_orbit_groups(seed=33, users_per_group=1, n_frames=2, points_per_frame=200)
    pc = prepare_scenario(sc, reference=False)
    records = run_ablation([pc], MetricId.W2, grid=(0.5,))
    assert len(records) == 1


def test_run_ablation_default_threshold_comes_from_config(narrow_content):
    records = run_ablation([narrow_content], MetricId.W3, grid=(0.1,))
    explicit = run_ablation([narrow_content], MetricId.W3, grid=(0.1,), threshold=0.63)
    assert repr(records) == repr(explicit)


@pytest.fixture(scope="module")
def sweep_contents(narrow_content):
    """Three contents in manifest order zeta, mid, alpha: ids out of order, overlap_threshold, relevant_min_size and thresholds differ."""
    from viewsim.geometry import FrustumParams

    narrow = FrustumParams(hfov=0.5, vfov=0.5)
    mid = prepare_scenario(three_orbit_groups(seed=41, users_per_group=3, n_frames=5, points_per_frame=1500),
                           frustum=narrow, overlap_threshold=0.6, relevant_min_size=2, reference=False)
    alpha = prepare_scenario(three_orbit_groups(seed=42, users_per_group=3, n_frames=4, points_per_frame=1500),
                             frustum=FrustumParams(hfov=0.7, vfov=0.6), overlap_threshold=0.7,
                             relevant_min_size=3)
    zeta = replace(narrow_content, content_id="zeta", overlap_threshold=0.2, relevant_min_size=2)
    thresholds = {MetricId.W2: 0.7, MetricId.W3: 0.5, MetricId.W7: 0.45}
    return [zeta.with_thresholds(thresholds), replace(mid, content_id="mid"), replace(alpha, content_id="alpha")]


SWEEPS = [
    (MetricId.W7, (0.0, 0.25, 1.0), {"beta": 0.5}, None, True),
    (MetricId.W7, (0.0, 0.1, 0.5, 2.0), {"beta": 0.5}, None, False),
    (MetricId.W2, (0.0, 0.05, 0.5, 2.0), None, None, False),
    (MetricId.W3, (0.0, 0.5, 1.0), None, 0.3, True),
    (MetricId.W3, (0.0, 0.2, 1.0), None, None, False),
    (MetricId.W5, (0.0, 1.0), {"gamma": 0.5}, 0.4, False),
]


@pytest.mark.parametrize("metric, grid, fixed, threshold, reference_only", SWEEPS)
def test_run_ablation_matches_ablate_oracle(sweep_contents, metric, grid, fixed, threshold, reference_only):
    from oracles import ablate_oracle

    swept = [pc for pc in sweep_contents if pc.reference or not reference_only]
    first = swept[0]  # manifest order: zeta, whose id sorts last
    tables = {pc.content_id: (pc.dataset.users, list(zip(_frame_features(pc, metric.needs_geodesic), overlaps(pc))))
              for pc in swept}
    want = ablate_oracle(tables, metric, grid=grid, fixed=fixed,
                         threshold=first.metrics[metric].threshold if threshold is None else threshold,
                         o_th=first.overlap_threshold, min_size=first.relevant_min_size)
    got = run_ablation(sweep_contents, metric, grid=grid, fixed=fixed, threshold=threshold,
                       reference_only=reference_only)
    assert repr(got) == repr(want)


def _frame_features(pc, geodesic):
    """Each frame's pair features from the frame functions, with a graph built afresh when asked for."""
    from viewsim.geometry import build_surface_graph

    ds = pc.dataset
    out = []
    for k in range(ds.n_frames):
        p, r, off = gaze_targets(pc, k)
        columns = (ds.users, ds.x[:, k], p, r, off)
        out.append(geodesic_features(*columns, ds.view[:, k], build_surface_graph(pc.clouds[k], k=pc.surface_knn))
                   if geodesic else compute_pair_features(*columns, view=ds.view[:, k]))
    return out


def test_run_ablation_averages_in_content_id_order(sweep_contents, monkeypatch):
    from viewsim.evaluation import FIGURES, AggregateStats

    # (0.1 + 0.2) + 0.3 and (0.3 + 0.2) + 0.1 round apart, so the summation order shows
    figures = {"alpha": 0.1, "mid": 0.2, "zeta": 0.3}
    seen = []

    def evaluate(pc, metrics, mode):
        (metric,) = metrics
        seen.append((pc.content_id, pc.overlap_threshold, pc.relevant_min_size, pc.metrics[metric].threshold, mode))
        return {metric: ([], [], {f: AggregateStats(figures[pc.content_id], 0.0, 1, 0) for f in FIGURES})}

    monkeypatch.setattr(viewsim.pipeline, "evaluate_content", evaluate)
    (record,) = run_ablation(sweep_contents, MetricId.W2, grid=(0.5,), reference_only=False)
    assert record.figures["overlap_ratio"] == record.figures["precision"] == np.mean([0.1, 0.2, 0.3]) != np.mean([0.3, 0.2, 0.1])
    # threshold, overlap_threshold and relevant_min_size of zeta, the first content in manifest order
    assert seen == [(cid, 0.2, 2, 0.7, "frame") for cid in ("alpha", "mid", "zeta")]


def test_run_ablation_refuses_before_any_table_work(narrow_content):
    pc = replace(narrow_content)
    with pytest.raises(InvalidParamsError):
        run_ablation([pc], MetricId.OVERLAP, grid=(0.1,))
    with pytest.raises(InvalidParamsError):
        run_ablation([pc], MetricId.W2, grid=(0.1,), fixed={"beta": 0.5})
    assert pc.tables == {}


def test_stored_tables_match_direct_run(narrow_content):
    pc = replace(narrow_content)
    ovs = metric_matrices(pc, [MetricId.OVERLAP, MetricId.W1])[MetricId.OVERLAP]
    features = _stored(pc, "features")
    assert len(features) == len(ovs.values) == 6
    # later requests, whole or partial, get the stored feature tables and overlap arrays back
    metric_matrices(pc, [MetricId.W2])
    assert all(a is b for a, b in zip(features, _stored(pc, "features")))
    stored = pc.tables[("overlap", 4)][0]
    assert overlaps(pc, frames=[4])[0].tobytes() == ovs.values[4].tobytes() and pc.tables[("overlap", 4)][0] is stored
    np.testing.assert_array_equal(
        features[0].metric_matrix(MetricId.W1, pc.metrics[MetricId.W1].regulators),
        metric_matrices(replace(pc), [MetricId.W1], frames=[0])[MetricId.W1].values[0],
    )


def test_with_thresholds_clones_configs(narrow_content):
    clone = narrow_content.with_thresholds({MetricId.W1: 0.5})
    assert clone.metrics[MetricId.W1].threshold == 0.5
    assert narrow_content.metrics[MetricId.W1].threshold != 0.5
    assert clone.metrics[MetricId.W2] == narrow_content.metrics[MetricId.W2]
    # the table store (graphs included) is shared, not rebuilt
    assert clone.tables is narrow_content.tables


def test_a_copy_with_other_viewing_settings_computes_its_own_tables():
    sc = three_orbit_groups(seed=3, users_per_group=2, n_frames=3, points_per_frame=800)
    narrow, wide = FrustumParams(hfov=0.5, vfov=0.5), FrustumParams()
    pc = prepare_scenario(sc, frustum=narrow)
    before = overlaps(pc)
    # a replace copy starts with an empty store: its overlaps are its own frustum's
    copy = replace(pc, frustum=wide)
    assert copy.tables == {}
    _matrices_equal(overlaps(copy), overlaps(prepare_scenario(sc, frustum=wide)))
    assert not all(np.array_equal(a, b, equal_nan=True) for a, b in zip(overlaps(copy), before))
    _matrices_equal(overlaps(pc), before)


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(viewsim.pipeline, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(viewsim.pipeline, name, counted)
    return calls


def test_each_table_computed_once_across_metrics(narrow_content, monkeypatch):
    pc = replace(narrow_content)
    overlaps = _count_calls(monkeypatch, "overlap_matrix")
    graphs = _count_calls(monkeypatch, "build_surface_graph")
    features = _count_calls(monkeypatch, "compute_pair_features")
    for metric in MetricId:
        evaluate_content(pc, [metric], mode="chunk")
    n_frames = pc.dataset.n_frames
    clouds = {id(pc.clouds[k].points) for k in range(n_frames)}

    def frame_of(x):  # the frame whose positions a frame function was given (args[1]); no two frames share them
        return next(k for k in range(n_frames) if np.array_equal(x, pc.dataset.x[:, k]))

    assert sorted(frame_of(args[1]) for args in overlaps) == list(range(n_frames))
    assert len(graphs) == len(clouds)
    assert sorted(frame_of(args[1]) for args in features) == list(range(n_frames))
    # a calibrated copy shares the store: evaluating again computes nothing
    done = (len(overlaps), len(graphs), len(features))
    clone = pc.with_thresholds({MetricId.W7: 0.5})
    for metric in MetricId:
        evaluate_content(clone, [metric], mode="frame")
    assert (len(overlaps), len(graphs), len(features)) == done


def test_readme_library_snippet_runs_verbatim(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme[readme.index("## Library use"):]
    namespace = {}
    for snippet in re.findall(r"```python\n(.*?)```", section, re.S):
        exec(compile(snippet, "README.md", "exec"), namespace)
    assert float(capsys.readouterr().out.strip()) == 1.0
    pc = namespace["pc"]
    # the printed precision could fail: the content has both label classes, and a weaker metric scores below 1
    ovs = overlaps(pc)
    _, labels = pair_samples([ovs], [ovs], pc.overlap_threshold)
    assert 0 < labels.sum() < labels.size
    assert evaluate_content(pc, [MetricId.W2], mode="chunk")[MetricId.W2][2]["precision"].mean < 1.0
    # the frame-function snippet reproduces the stored frame-0 tables
    (stored_ov,), stored_feats = pc.tables[("overlap", 0)], pc.tables[("features", 0)]
    np.testing.assert_array_equal(namespace["ov"], stored_ov)
    np.testing.assert_array_equal(namespace["feats"].pos_dist, stored_feats.pos_dist)
    # the ROC snippet selects the point calibrate selects
    assert namespace["point"] == calibrate_contents([pc], [MetricId.W7])[MetricId.W7][1]
    assert namespace["area"] == pytest.approx(auc_oracle(namespace["values"], namespace["labels"]), rel=0, abs=1e-12)


def test_readme_entry_points_import_from_package():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    listed = re.search(r"Lower\s+level entry points \(([^)]*)\)", readme).group(1)
    names = re.findall(r"`(\w+)`", listed)
    assert len(names) >= 5
    # each name is listed under the module to import it from: the package root re-exports nothing
    in_module = [(m, n) for m, group in re.findall(r"`(viewsim\.\w+)`:([^;]*)", listed) for n in re.findall(r"`(\w+)`", group)]
    assert [n for _, n in in_module] == names
    assert [f"{m}.{n}" for m, n in in_module if not hasattr(importlib.import_module(m), n)] == []


@pytest.mark.parametrize("bare", [MetricId.W7, "w7"], ids=["MetricId", "str"])
def test_a_bare_metric_is_refused_before_any_table_work(narrow_content, bare):
    # a MetricId is a str: iterated, it would be its characters
    pc = replace(narrow_content)
    for call in (lambda: metric_matrices(pc, bare), lambda: evaluate_content(pc, bare),
                 lambda: calibrate_contents([pc], bare)):
        with pytest.raises(TypeError, match="a list such as"):
            call()
    assert pc.tables == {}
