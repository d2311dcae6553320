"""Dataset-level drivers tying ingestion, metrics, clustering and scoring.

Everything here operates on PreparedContent: one content item's aligned
dataset plus its processing parameters.  Frame-level work is independent
across frames, so the drivers fan out over a thread pool and reassemble in
frame order; results are identical for any --threads value.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .calibration import (
    DEFAULT_OVERLAP_LABEL_THRESHOLD,
    DEFAULT_TARGET_TPR,
    FPR_ADVISORY_CEILING,
    ablate,
    calibrate_threshold,
    pair_samples,
)
from .clustering import (
    ChunkSpec,
    build_adjacency,
    check_clique_size,
    chunk_adjacency,
    chunk_frame_ranges,
    clique_clustering,
    mean_matrix,
    persistence_scores,
)
from .errors import DegenerateLabelsError, InvalidParamsError
from .evaluation import evaluate_result, summarize_performance, aggregate
from .geometry import FrustumParams, build_surface_graph
from .manifest import ContentManifest
from .metrics import (
    MetricId,
    SimilarityMatrix,
    compute_pair_features,
    default_configs,
    overlap_matrix,
)
from .ply import DirectoryCloudSequence
from .synth import SynthScenario, generate_cloud, generate_trajectories
from .trajectories import SessionDataset, align_to_frames, derive_pr, load_trajectories


@dataclass
class PreparedContent:
    """One content item ready for batch processing.

    ``tables`` is the per-content store: each overlap matrix, feature table
    and surface graph is computed on first request and shared afterwards by
    every metric, every command and every ``with_thresholds`` copy.  It is
    filled only from the calling thread; worker threads only compute.
    """

    content_id: str
    dataset: SessionDataset
    configs: dict = field(default_factory=default_configs)
    knn: int = 8
    o_th: float = DEFAULT_OVERLAP_LABEL_THRESHOLD
    min_size: int = 3
    chunk: ChunkSpec = field(default_factory=ChunkSpec)
    reference: bool = True
    tables: dict = field(default_factory=dict, repr=False, compare=False)

    def config(self, metric: MetricId):
        return self.configs[metric]

    def with_thresholds(self, thresholds: dict) -> "PreparedContent":
        """Copy with per-metric thresholds replaced (calibration output)."""
        configs = dict(self.configs)
        for metric, th in thresholds.items():
            configs[metric] = replace(configs[metric], threshold=float(th))
        return replace(self, configs=configs)

    def surface_graph(self, frame: int):
        """Graph for one frame; identical point arrays share one graph."""
        cloud = self.dataset.clouds[frame]
        key = ("graph", id(cloud.points))
        hit = self.tables.get(key)
        if hit is None:
            hit = (cloud.points, build_surface_graph(cloud, k=self.knn))
            self.tables[key] = hit
        return hit[1]


def prepare(cm: ContentManifest) -> PreparedContent:
    """Load, align, and derive one manifest entry."""
    clouds = DirectoryCloudSequence(cm.cloud_dir)
    raw = load_trajectories(cm.trajectory_csv)
    span = min(int(round(tr.samples[-1].t * cm.fps)) + 1 for tr in raw)
    aligned = align_to_frames(raw, cm.fps, n_frames=min(span, len(clouds)))
    derived = [
        tr if tr.has_pr else derive_pr(tr, clouds, cm.frustum, cm.cone_half_angle, cm.r_mode)
        for tr in aligned
    ]
    dataset = SessionDataset(
        content_id=cm.content_id,
        fps=cm.fps,
        trajectories=derived,
        clouds=clouds,
        frustum=cm.frustum,
    )
    return PreparedContent(
        content_id=cm.content_id,
        dataset=dataset,
        configs=dict(cm.metrics),
        knn=cm.surface_knn,
        o_th=cm.overlap_threshold,
        min_size=cm.relevant_min_size,
        chunk=cm.chunk,
        reference=cm.reference,
    )


def prepare_scenario(scenario: SynthScenario, **overrides) -> PreparedContent:
    """In-memory PreparedContent from a synthetic scenario."""
    clouds = generate_cloud(scenario)
    trajs = generate_trajectories(scenario, clouds)
    pc_kwargs = {
        k: overrides.pop(k)
        for k in ("configs", "knn", "o_th", "min_size", "chunk", "reference")
        if k in overrides
    }
    frustum = overrides.pop("frustum", None)
    cone = overrides.pop("cone_half_angle", None)
    r_mode = overrides.pop("r_mode", "viewport")
    if overrides:
        raise InvalidParamsError(f"unknown overrides {sorted(overrides)}")
    if frustum is None:
        frustum = FrustumParams()
    derive_kwargs = {} if cone is None else {"cone": cone}
    derived = [derive_pr(tr, clouds, frustum, r_mode=r_mode, **derive_kwargs) for tr in trajs]
    dataset = SessionDataset(
        content_id=scenario.content_id,
        fps=scenario.fps,
        trajectories=derived,
        clouds=clouds,
        frustum=frustum,
    )
    return PreparedContent(content_id=scenario.content_id, dataset=dataset, **pc_kwargs)


def _frame_samples(pc: PreparedContent, k: int):
    users = pc.dataset.users
    samples = [tr.samples[k] for tr in pc.dataset.trajectories]
    return users, samples


def _store(pc: PreparedContent, kind: str, frames: list, todo: list, task, threads: int) -> list:
    """Compute the ``todo`` frames on the pool, store them from this thread, return ``frames``."""
    if threads <= 1 or len(todo) <= 1:
        computed = [task(k) for k in todo]
    else:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            computed = list(ex.map(task, todo))
    pc.tables.update(((kind, k), table) for k, table in zip(todo, computed))
    return [pc.tables[(kind, k)] for k in frames]


def overlap_matrices(pc: PreparedContent, frames=None, threads: int = 1) -> list:
    """Exact ground-truth matrices, one per requested frame."""
    frames = list(range(pc.dataset.n_frames) if frames is None else frames)

    def task(k: int) -> SimilarityMatrix:
        users, samples = _frame_samples(pc, k)
        return overlap_matrix(k, users, samples, pc.dataset.clouds[k], pc.dataset.frustum)

    todo = [k for k in frames if ("overlap", k) not in pc.tables]
    return _store(pc, "overlap", frames, todo, task, threads)


def feature_tables(pc: PreparedContent, need_geodesic: bool = True, frames=None, threads: int = 1) -> list:
    """Per-frame pair features; geodesic distances only when asked for.

    A stored geodesic table also serves non-geodesic requests; a stored
    non-geodesic one is rebuilt once, when geodesics are first asked for.
    """
    frames = list(range(pc.dataset.n_frames) if frames is None else frames)
    stored = [pc.tables.get(("features", k)) for k in frames]
    todo = [k for k, f in zip(frames, stored) if f is None or (need_geodesic and f.gaze_geo is None)]
    # sequential: populates the shared store safely
    graphs = {k: pc.surface_graph(k) for k in todo} if need_geodesic else {}

    def task(k: int):
        users, samples = _frame_samples(pc, k)
        return compute_pair_features(k, users, samples, graph=graphs.get(k))

    return _store(pc, "features", frames, todo, task, threads)


def metric_matrices(
    pc: PreparedContent,
    metric: MetricId,
    frames=None,
    threads: int = 1,
) -> list:
    """Per-frame matrices for one proxy metric (or the exact ground truth)."""
    if metric.is_overlap:
        return overlap_matrices(pc, frames=frames, threads=threads)
    features = feature_tables(pc, need_geodesic=metric.needs_geodesic, frames=frames, threads=threads)
    return [f.metric_matrix(metric, pc.config(metric).regulators) for f in features]


def cluster_content(
    pc: PreparedContent,
    metric: MetricId,
    mode: str = "frame",
    threads: int = 1,
) -> list:
    """ClusteringResults per frame, or per chunk when mode='chunk'."""
    if mode not in ("frame", "chunk"):
        raise InvalidParamsError(f"mode must be frame|chunk, got '{mode}'")
    check_clique_size(len(pc.dataset.users))
    config = pc.config(metric)
    mats = metric_matrices(pc, metric, threads=threads)
    if mode == "frame":
        return [clique_clustering(build_adjacency(m, config), tie_matrix=m) for m in mats]
    ranges = chunk_frame_ranges(len(mats), pc.chunk.frames_per_chunk(pc.dataset.fps))
    out = []
    for ci, rng in enumerate(ranges):
        window = [mats[k] for k in rng]
        graph = chunk_adjacency(window, config, pc.chunk, ci)
        out.append(clique_clustering(graph, tie_matrix=mean_matrix(window)))
    return out


def evaluate_content(
    pc: PreparedContent,
    metric: MetricId,
    mode: str = "chunk",
    threads: int = 1,
):
    """Cluster with a metric and score against the exact ground truth.

    Returns (results, performances, summary).  In chunk mode the per-pair
    ground truth is the mean overlap over the chunk, and precision labels
    are persistence scores thresholded exactly like chunk adjacency, so an
    OVERLAP-driven clustering scores precision 1.0 identically.
    """
    results = cluster_content(pc, metric, mode=mode, threads=threads)
    ovs = overlap_matrices(pc, threads=threads)
    perfs = []
    if mode == "frame":
        for result, ov in zip(results, ovs):
            perfs.append(
                evaluate_result(result, ov, label_threshold=pc.o_th, min_size=pc.min_size)
            )
    else:
        ranges = chunk_frame_ranges(len(ovs), pc.chunk.frames_per_chunk(pc.dataset.fps))
        for result, rng in zip(results, ranges):
            window = [ovs[k] for k in rng]
            perfs.append(
                evaluate_result(
                    result,
                    mean_matrix(window),
                    labels=persistence_scores(window, pc.o_th),
                    label_threshold=pc.chunk.persistence,
                    min_size=pc.min_size,
                )
            )
    return results, perfs, summarize_performance(perfs)


def calibrate_contents(
    pcs: list,
    metrics=None,
    target_tpr: float = DEFAULT_TARGET_TPR,
    threads: int = 1,
) -> dict:
    """ROC-select a threshold per metric over all given contents' pairs.

    Label balance is checked on the exact overlaps before any surface graph
    or feature table is built.  Returns {metric: {"threshold", "tpr",
    "fpr", "fpr_ok", "roc"}}; the FPR ceiling (0.4) is advisory and only
    reported.
    """
    if metrics is None:
        metrics = [m for m in MetricId if not m.is_overlap]
    o_th = pcs[0].o_th
    ovs = [ov for pc in pcs for ov in overlap_matrices(pc, threads=threads)]
    _, labels = pair_samples(ovs, ovs, o_th)
    for kind, count in (("positive", labels.sum()), ("negative", labels.size - labels.sum())):
        if count == 0:
            raise DegenerateLabelsError(f"0 {kind} labels out of {labels.size} valid pair-frames at o_th={o_th}")
    need_geo = any(m.needs_geodesic for m in metrics)
    features = [(pc, f) for pc in pcs for f in feature_tables(pc, need_geodesic=need_geo, threads=threads)]
    out = {}
    for metric in metrics:
        mats = [f.metric_matrix(metric, pc.config(metric).regulators) for pc, f in features]
        roc, point = calibrate_threshold(mats, ovs, target_tpr=target_tpr, o_th=o_th)
        out[metric] = {
            "threshold": point.threshold,
            "tpr": point.tpr,
            "fpr": point.fpr,
            "fpr_ok": point.fpr < FPR_ADVISORY_CEILING,
            "roc": roc,
        }
    return out


def run_ablation(
    pcs: list,
    metric: MetricId,
    grid,
    fixed: dict | None = None,
    threads: int = 1,
    threshold: float | None = None,
    reference_only: bool = True,
) -> list:
    """Regulator sweep over the reference contents (all, if none is marked)."""
    chosen = [pc for pc in pcs if pc.reference] if reference_only else list(pcs)
    if not chosen:
        chosen = list(pcs)
    check_clique_size(max(len(pc.dataset.users) for pc in chosen))
    th = threshold if threshold is not None else chosen[0].config(metric).threshold
    tables = {}
    for pc in chosen:
        features = feature_tables(pc, need_geodesic=metric.needs_geodesic, threads=threads)
        tables[pc.content_id] = list(zip(features, overlap_matrices(pc, threads=threads)))
    return ablate(
        tables,
        metric,
        grid=grid,
        fixed=fixed,
        threshold=th,
        o_th=chosen[0].o_th,
        min_size=chosen[0].min_size,
    )


def summarize_across_contents(per_content: dict) -> dict:
    """All-content row: aggregate of per-content means, field by field."""
    fields = ("overlap_ratio", "relevant_population", "precision")
    return {
        f: aggregate([summary[f].mean for summary in per_content.values()], allow_empty=True)
        for f in fields
    }
