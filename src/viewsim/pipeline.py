"""Dataset-level drivers tying ingestion, metrics, clustering and scoring.

Everything here operates on PreparedContent: one content item's aligned
dataset plus its processing parameters.  Every per-frame table (gaze
targets, exact overlap, pair features, geodesic gaze distances) is looked
up or computed on the calling thread by one table pass, ``metric_matrices``:
it visits the frames in the order asked and makes every requested metric's
matrix from a frame's tables before the next frame's, so one cloud and at
most one surface graph are alive at once, and no pass reads a cloud twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from . import store
from .calibration import DEFAULT_TARGET_TPR, ablate, calibrate_threshold, pair_samples
from .clustering import (
    build_adjacency,
    check_clique_size,
    chunk_adjacency,
    chunk_frame_ranges,
    clique_clustering,
    mean_matrix,
    persistence_scores,
)
from .errors import DegenerateLabelsError, InvalidParamsError
from .evaluation import FIGURES, aggregate, evaluate_result, summarize_performance
from .geometry import build_surface_graph
from .manifest import ContentManifest, ContentSettings
from .metrics import PROXY_METRICS, MetricConfig, MetricId, compute_pair_features, geodesic_gaze, overlap_matrix
from .ply import DirectoryCloudSequence
from .synth import SynthScenario, generate_cloud, generate_trajectories
from .trajectories import COLUMNS, SessionDataset, align_to_frames, derive_pr, load_trajectories


@dataclass
class PreparedContent(ContentSettings):
    """One content item ready for batch processing.

    Its settings are the manifest's (``ContentSettings``), checked as a
    manifest checks them.  ``dataset`` holds the aligned poses and
    ``clouds`` the frames' clouds; with the viewing model (``frustum``,
    ``cone_half_angle``, ``r_mode``) they are all a frame's tables are
    computed from.  ``tables`` is the per-content store: each frame's gaze
    targets (``gaze_targets``), overlap matrix, feature table and geodesic
    gaze distance matrix is computed on first request and shared afterwards
    by every metric, every command and every ``with_thresholds`` copy, and
    so is each frame's cloud digest.  During a pass it also holds the latest
    cloud read and the latest surface graph built, one of each, so
    consecutive frames with equal points share one graph; the pass drops
    both when it ends.

    With a ``store_dir``, every table also persists on disk
    (``viewsim.store``), so later processes read it back instead of
    recomputing; ``None`` keeps everything in memory.
    """

    content_id: str
    dataset: SessionDataset
    clouds: object
    tables: dict = field(default_factory=dict, repr=False, compare=False)
    store_dir: str | None = None

    def with_thresholds(self, thresholds: dict) -> "PreparedContent":
        """Copy with per-metric thresholds replaced (calibration output)."""
        metrics = dict(self.metrics)
        for metric, th in thresholds.items():
            metrics[metric] = replace(metrics[metric], threshold=float(th))
        return replace(self, metrics=metrics)

    def cloud(self, frame: int):
        """One frame's cloud; only the latest is kept, and it is dropped before the next is read."""
        if self.tables.get("cloud", (None,))[0] != frame:
            self.tables.pop("cloud", None)
            self.tables["cloud"] = (frame, self.clouds[frame])
        return self.tables["cloud"][1]

    def cloud_digest(self, frame: int) -> str:
        """Digest of one frame's cloud points, computed once per frame."""
        key = ("digest", frame)
        if key not in self.tables:
            self.tables[key] = store.digest(self.cloud(frame).points)
        return self.tables[key]

    def surface_graph(self, frame: int):
        """Graph for one frame; only the latest is kept, and it is dropped before the next is built."""
        key = (self.cloud_digest(frame), self.surface_knn)
        if self.tables.get("graph", (None,))[0] != key:
            self.tables.pop("graph", None)
            self.tables["graph"] = (key, build_surface_graph(self.cloud(frame), k=self.surface_knn))
        return self.tables["graph"][1]


def prepare(cm: ContentManifest) -> PreparedContent:
    """Load and align one manifest entry; reads no cloud."""
    clouds = DirectoryCloudSequence(cm.cloud_dir)
    aligned = align_to_frames(load_trajectories(cm.trajectory_csv), cm.fps)
    n = min(aligned.n_frames, len(clouds))  # frame k's row does not depend on the frame count
    return PreparedContent(
        content_id=cm.content_id,
        dataset=replace(aligned, **{name: getattr(aligned, name)[:, :n] for name in COLUMNS}),
        clouds=clouds,
        **{f.name: getattr(cm, f.name) for f in fields(ContentSettings)},
    )


def prepare_scenario(scenario: SynthScenario, **settings) -> PreparedContent:
    """In-memory PreparedContent from a synthetic scenario; ``settings`` are ContentSettings keywords."""
    clouds = generate_cloud(scenario)
    return PreparedContent(scenario.content_id, generate_trajectories(scenario, clouds), clouds, **settings)


def _table(pc: PreparedContent, kind: str, k: int, compute, reads):
    """Frame ``k``'s table from memory, else from the disk tier, else ``compute()`` and saved.

    ``reads()`` is what ``compute()`` reads beside the user ids: the
    table's store key.
    """
    if (kind, k) not in pc.tables:
        table = None
        if pc.store_dir is not None:
            path = store.table_path(pc.store_dir, pc.content_id, kind, k)
            key = store.table_key(kind, pc.dataset.users, *reads())
            table = store.load(path, key, kind, k, pc.dataset.users)
        if table is None:
            table = compute()
            if pc.store_dir is not None:
                store.save(path, key, kind, table)
        pc.tables[(kind, k)] = table
    return pc.tables[(kind, k)]


def gaze_targets(pc: PreparedContent, k: int) -> tuple:
    """Frame ``k``'s ``(view, p, r, off)``, one row per user.

    A trajectory CSV that supplies p/r is used as given; otherwise the
    targets are ray cast (``derive_pr``) and kept as the frame's "pr" table.
    """
    ds = pc.dataset
    if ds.pr_given:
        return ds.view[:, k], ds.p[:, k], ds.r[:, k], ds.off[:, k]
    return _table(
        pc, "pr", k,
        lambda: derive_pr(ds.x[:, k], ds.view[:, k], ds.off[:, k], pc.cloud(k), pc.cone_half_angle, pc.r_mode),
        lambda: (pc.cloud_digest(k), ds.x[:, k], ds.view[:, k], ds.off[:, k], pc.cone_half_angle, pc.r_mode),
    )


def _overlap(pc: PreparedContent, k: int):
    ds = pc.dataset
    view, _, _, off = gaze_targets(pc, k)
    return _table(
        pc, "overlap", k,
        lambda: overlap_matrix(k, ds.users, ds.x[:, k], view, off, pc.cloud(k), pc.frustum),
        lambda: (pc.cloud_digest(k), ds.x[:, k], view, off, pc.frustum),
    )


def _features(pc: PreparedContent, k: int, need_geodesic: bool):
    ds = pc.dataset
    _, p, r, off = gaze_targets(pc, k)
    plain = _table(
        pc, "features", k,
        lambda: compute_pair_features(k, ds.users, ds.x[:, k], p, r, off),
        lambda: (ds.x[:, k], p, r, off),
    )
    if not need_geodesic:
        return plain
    geo = _table(
        pc, "geodesic", k,
        lambda: geodesic_gaze(p, r, pc.surface_graph(k)),
        lambda: (pc.cloud_digest(k), p, r, pc.surface_knn),
    )
    return replace(plain, gaze_geo=geo)


def metric_matrices(pc: PreparedContent, metrics, frames=None) -> dict:
    """``{metric: [SimilarityMatrix per requested frame]}`` for proxies and the exact ground truth.

    Each frame's tables are looked up and every metric's matrix made from
    them before the next frame's, so they share one cloud read; the pass
    then drops the last cloud and graph.
    """
    out = {metric: [] for metric in metrics}
    proxies = [m for m in out if not m.is_overlap]
    geodesic = any(m.needs_geodesic for m in proxies)
    for k in range(pc.dataset.n_frames) if frames is None else frames:
        if MetricId.OVERLAP in out:
            out[MetricId.OVERLAP].append(_overlap(pc, k))
        if proxies:
            features = _features(pc, k, geodesic)
            for m in proxies:
                out[m].append(features.metric_matrix(m, pc.metrics[m].regulators))
    pc.tables.pop("cloud", None)
    pc.tables.pop("graph", None)
    return out


def _cluster(pc: PreparedContent, metric: MetricId, mats: list, mode: str) -> list:
    config = pc.metrics[metric]
    if mode == "frame":
        return [clique_clustering(build_adjacency(m, config), tie_matrix=m) for m in mats]
    ranges = chunk_frame_ranges(len(mats), pc.chunk.frames_per_chunk(pc.dataset.fps))
    out = []
    for ci, rng in enumerate(ranges):
        window = [mats[k] for k in rng]
        graph = chunk_adjacency(window, config, pc.chunk, ci)
        out.append(clique_clustering(graph, tie_matrix=mean_matrix(window)))
    return out


def _check_clustering(pc: PreparedContent, mode: str) -> None:
    """Refuse an unknown mode, then a content too large for the clique search, before any table is read."""
    if mode not in ("frame", "chunk"):
        raise InvalidParamsError(f"mode must be frame|chunk, got '{mode}'")
    check_clique_size(len(pc.dataset.users))


def cluster_content(
    pc: PreparedContent,
    metric: MetricId,
    mode: str = "frame",
) -> list:
    """ClusteringResults per frame, or per chunk when mode='chunk'."""
    _check_clustering(pc, mode)
    return _cluster(pc, metric, metric_matrices(pc, [metric])[metric], mode)


def evaluate_content(
    pc: PreparedContent,
    metric: MetricId,
    mode: str = "chunk",
):
    """Cluster with a metric and score against the exact ground truth.

    Returns (results, performances, summary).  In chunk mode the per-pair
    ground truth is the mean overlap over the chunk, and precision labels
    are persistence scores thresholded exactly like chunk adjacency, so an
    OVERLAP-driven clustering scores precision 1.0 identically.
    """
    _check_clustering(pc, mode)
    return _evaluate(pc, metric, metric_matrices(pc, [metric, MetricId.OVERLAP]), mode)


def _evaluate(pc: PreparedContent, metric: MetricId, mats: dict, mode: str):
    """``evaluate_content`` from a table pass's ``mats``, which hold ``metric`` and the overlap."""
    results = _cluster(pc, metric, mats[metric], mode)
    ovs = mats[MetricId.OVERLAP]
    perfs = []
    if mode == "frame":
        for result, ov in zip(results, ovs):
            perfs.append(
                evaluate_result(
                    result, ov, label_threshold=pc.overlap_threshold, min_size=pc.relevant_min_size
                )
            )
    else:
        ranges = chunk_frame_ranges(len(ovs), pc.chunk.frames_per_chunk(pc.dataset.fps))
        for result, rng in zip(results, ranges):
            window = [ovs[k] for k in rng]
            perfs.append(
                evaluate_result(
                    result,
                    mean_matrix(window),
                    labels=persistence_scores(window, pc.overlap_threshold),
                    label_threshold=pc.chunk.persistence,
                    min_size=pc.relevant_min_size,
                )
            )
    return results, perfs, summarize_performance(perfs)


def calibrate_contents(
    pcs: list,
    metrics=PROXY_METRICS,
    target_tpr: float = DEFAULT_TARGET_TPR,
) -> dict:
    """ROC-select a threshold per metric over all given contents' pairs.

    Every pair is labelled at one ``overlap_threshold``, so contents whose
    ``overlap_threshold`` differ are refused.  That and ``target_tpr`` are
    checked before any table work, and label balance on the exact overlaps
    before any surface graph or feature table is built, so a geodesic
    metric's pass reads the clouds again.  Each metric then has a pass of its own, so one metric's
    matrices are alive at a time.  Returns ``{metric: (roc, RocPoint)}``
    as ``calibrate_threshold`` gives them.
    """
    if not target_tpr > 0:
        raise InvalidParamsError(f"target_tpr must be > 0, got {target_tpr}")
    if len({pc.overlap_threshold for pc in pcs}) > 1:
        named = ", ".join(f"'{pc.content_id}' {pc.overlap_threshold}" for pc in pcs)
        raise InvalidParamsError(f"calibrate labels every content at one overlap_threshold; the contents have {named}")
    o_th = pcs[0].overlap_threshold
    ovs = [ov for pc in pcs for ov in metric_matrices(pc, [MetricId.OVERLAP])[MetricId.OVERLAP]]
    _, labels = pair_samples(ovs, ovs, o_th)
    for kind, count in (("positive", labels.sum()), ("negative", labels.size - labels.sum())):
        if count == 0:
            raise DegenerateLabelsError(f"0 {kind} labels out of {labels.size} valid pair-frames at o_th={o_th}")
    out = {}
    for metric in metrics:
        mats = [m for pc in pcs for m in metric_matrices(pc, [metric])[metric]]
        out[metric] = calibrate_threshold(mats, ovs, target_tpr=target_tpr, o_th=o_th)
    return out


def run_ablation(
    pcs: list,
    metric: MetricId,
    grid,
    fixed: dict | None = None,
    threshold: float | None = None,
    reference_only: bool = True,
) -> list:
    """Regulator sweep: frame-mode evaluation at a fixed threshold, one AblationRecord per grid combination.

    Sweeps the reference contents (all, if none is marked).  The threshold
    (unless given), overlap_threshold and relevant_min_size come from the
    first swept content in manifest order; per-content summaries are
    averaged in content-id order.  Records come out in grid order.
    """
    chosen = ([pc for pc in pcs if pc.reference] if reference_only else []) or list(pcs)
    check_clique_size(max(len(pc.dataset.users) for pc in chosen))
    first = chosen[0]
    # private copies sharing each content's tables; a combination swaps only the metric's config
    swept = [
        replace(pc, metrics=dict(pc.metrics), overlap_threshold=first.overlap_threshold,
                relevant_min_size=first.relevant_min_size)
        for pc in sorted(chosen, key=lambda pc: pc.content_id)
    ]

    def score(reg) -> dict:
        th = threshold if threshold is not None else first.metrics[metric].threshold
        summaries = {}
        for pc in swept:
            pc.metrics[metric] = MetricConfig(metric, reg, th)
            summaries[pc.content_id] = evaluate_content(pc, metric, mode="frame")[2]
        overall = summarize_across_contents(summaries)
        return {f: overall[f].mean for f in FIGURES}

    return ablate(metric, grid, score, fixed)


def summarize_across_contents(per_content: dict) -> dict:
    """All-content row: aggregate of per-content means, for each of the FIGURES."""
    return {
        f: aggregate([summary[f].mean for summary in per_content.values()])
        for f in FIGURES
    }
