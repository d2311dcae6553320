"""Dataset-level drivers tying ingestion, metrics, clustering and scoring.

Everything here operates on PreparedContent: one content item's aligned
dataset plus its processing parameters.  Every per-frame table (gaze
targets, exact overlap, pair features, geodesic gaze distances) is looked
up or computed on the calling thread by one table pass, ``metric_matrices``:
it visits the frames in the order asked and fills every requested metric's
frame from a frame's tables before the next frame's, so one cloud and at
most one surface graph are alive at once, and no pass reads a cloud twice.
Each metric's frames come out as one ``(frames, n, n)`` stack, and
clustering, scoring and the ROC read that stack and its slices.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING

import numpy as np

from . import store
from .calibration import DEFAULT_TARGET_TPR, FIGURES, ablate, pair_samples, roc_curve, select_threshold
from .clustering import (
    check_clique_size,
    chunk_adjacency,
    chunk_frame_ranges,
    clique_clustering,
    mean_matrix,
    persistence_scores,
)
from .errors import DegenerateLabelsError, InvalidParamsError
from .evaluation import evaluate_result, summarize_performance
from .geometry import build_surface_graph
from .manifest import ContentManifest, ContentSettings
from .metrics import (
    PROXY_METRICS, MetricConfig, MetricId, SimilarityMatrix, compute_pair_features, geodesic_gaze, overlap_matrix,
)
from .ply import DirectoryCloudSequence
from .trajectories import COLUMNS, SessionDataset, align_to_frames, derive_pr, load_trajectories

if TYPE_CHECKING:  # synth loads only when a scenario is prepared
    from .synth import SynthScenario


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
    so is each frame's cloud digest; a ``replace`` copy starts empty.  During
    a pass it also holds the latest cloud read and the latest surface graph
    built, one of each, so consecutive frames with equal points share one
    graph; the pass drops both when it ends.

    With a ``store_dir``, the tables that read the cloud also persist on
    disk (``viewsim.store``), so later processes read them back instead of
    recomputing; ``None`` keeps everything in memory.
    """

    content_id: str
    dataset: SessionDataset
    clouds: object
    tables: dict = field(init=False, default_factory=dict, repr=False, compare=False)
    store_dir: str | None = None

    def _sharing(self, **changes) -> "PreparedContent":
        copy = replace(self, **changes)  # only for changes that no table reads: the copy shares the store
        copy.tables = self.tables
        return copy

    def with_thresholds(self, thresholds: dict) -> "PreparedContent":
        """Copy with per-metric thresholds replaced (calibration output), sharing the store."""
        metrics = dict(self.metrics)
        for metric, th in thresholds.items():
            metrics[metric] = replace(metrics[metric], threshold=float(th))
        return self._sharing(metrics=metrics)

    def cloud(self, frame: int):
        """One frame's cloud, kept by ``_latest``."""
        return _latest(self, "cloud", frame, lambda: self.clouds[frame])

    def cloud_digest(self, frame: int) -> str:
        """Digest of one frame's cloud points, a memory-only table."""
        return _table(self, "digest", frame, lambda: store.digest(self.cloud(frame).points))

    def surface_graph(self, frame: int):
        """Graph for one frame, kept by ``_latest`` under its cloud digest and ``surface_knn``."""
        key = (self.cloud_digest(frame), self.surface_knn)
        return _latest(self, "graph", key, lambda: build_surface_graph(self.cloud(frame), k=self.surface_knn))


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
    from .synth import generate_cloud, generate_trajectories

    clouds = generate_cloud(scenario)
    return PreparedContent(scenario.content_id, generate_trajectories(scenario, clouds), clouds, **settings)


def _latest(pc: PreparedContent, slot: str, key, make):
    """``tables[slot]``'s value if made for ``key``, else ``make()`` in its place, the old value dropped first."""
    if pc.tables.get(slot, (None,))[0] != key:
        pc.tables.pop(slot, None)
        pc.tables[slot] = (key, make())
    return pc.tables[slot][1]


def _table(pc: PreparedContent, kind: str, k: int, compute, reads=None):
    """Frame ``k``'s table from memory, else from the disk tier, else ``compute()`` and saved.

    ``reads()`` is what ``compute()`` reads beside the user ids: the
    table's store key.  Without ``reads``, the table is kept in memory only.
    """
    if (kind, k) not in pc.tables:
        table = None
        on_disk = pc.store_dir is not None and reads is not None
        if on_disk:
            path = store.table_path(pc.store_dir, pc.content_id, kind, k)
            key = store.table_key(kind, pc.dataset.users, *reads())
            table = store.load(path, key, kind, len(pc.dataset.users))
        if table is None:
            table = compute()
            if on_disk:
                store.save(path, key, kind, table)
        pc.tables[(kind, k)] = table
    return pc.tables[(kind, k)]


def gaze_targets(pc: PreparedContent, k: int) -> tuple:
    """Frame ``k``'s ``(p, r, off)``, one row per user.

    A trajectory CSV that supplies p/r is used as given; otherwise the
    targets are ray cast (``derive_pr``) and kept as the frame's "pr" table.
    """
    ds = pc.dataset
    if ds.pr_given:
        return ds.p[:, k], ds.r[:, k], ds.off[:, k]
    return _table(
        pc, "pr", k,
        lambda: derive_pr(ds.x[:, k], ds.view[:, k], ds.off[:, k], pc.cloud(k), pc.cone_half_angle, pc.r_mode),
        lambda: (pc.cloud_digest(k), ds.x[:, k], ds.view[:, k], ds.off[:, k], pc.cone_half_angle, pc.r_mode),
    )


def _overlap(pc: PreparedContent, k: int):
    ds, off = pc.dataset, gaze_targets(pc, k)[2]
    return _table(
        pc, "overlap", k,
        lambda: (overlap_matrix(ds.users, ds.x[:, k], ds.view[:, k], off, pc.cloud(k), pc.frustum),),
        lambda: (pc.cloud_digest(k), ds.x[:, k], ds.view[:, k], off, pc.frustum),
    )[0]


def _features(pc: PreparedContent, k: int, need_geodesic: bool):
    ds = pc.dataset
    p, r, off = gaze_targets(pc, k)
    plain = _table(
        pc, "features", k, lambda: compute_pair_features(ds.users, ds.x[:, k], p, r, off, view=ds.view[:, k])
    )
    if not need_geodesic:
        return plain
    geo, = _table(
        pc, "geodesic", k,
        lambda: (geodesic_gaze(p, r, pc.surface_graph(k)),),
        lambda: (pc.cloud_digest(k), p, r, pc.surface_knn),
    )
    return replace(plain, gaze_geo=geo)


def _refuse_bare_metric(metrics) -> None:
    """A bare ``MetricId`` is a str: iterating it would yield its characters, not one metric."""
    if isinstance(metrics, str):
        raise TypeError(f"metrics must be a list such as [MetricId.W7], not the bare metric {metrics!r}")


def metric_matrices(pc: PreparedContent, metrics, frames=None) -> dict:
    """``{metric: SimilarityMatrix}`` over the requested frames, for proxies and the exact ground truth.

    Each record's ``values`` is one ``(len(frames), n, n)`` stack.  Each
    frame's tables are looked up and every metric's frame filled from them
    before the next frame's, so they share one cloud read; the pass then
    drops the last cloud and graph.
    """
    _refuse_bare_metric(metrics)
    ds = pc.dataset
    frames = tuple(range(ds.n_frames) if frames is None else frames)
    n = len(ds.users)
    out = {m: SimilarityMatrix(frames, ds.users, m, np.empty((len(frames), n, n))) for m in metrics}
    proxies = [m for m in out if not m.is_overlap]
    geodesic = any(m.needs_geodesic for m in proxies)
    for i, k in enumerate(frames):
        if MetricId.OVERLAP in out:
            out[MetricId.OVERLAP].values[i] = _overlap(pc, k)
        if proxies:
            features = _features(pc, k, geodesic)
            for m in proxies:
                out[m].values[i] = features.metric_matrix(m, pc.metrics[m].regulators)
    pc.tables.pop("cloud", None)
    pc.tables.pop("graph", None)
    return out


def _windows(pc: PreparedContent, values):
    """The (w, n, n) chunk windows of a stack, as views."""
    return [values[r.start:r.stop] for r in chunk_frame_ranges(len(values), pc.chunk.frames_per_chunk(pc.dataset.fps))]


def _cluster(pc: PreparedContent, mat: SimilarityMatrix, mode: str) -> list:
    config, users = pc.metrics[mat.metric], mat.users
    if mode == "frame":
        return [clique_clustering(v >= config.threshold, users, k, tie=v) for k, v in zip(mat.frames, mat.values)]
    return [
        clique_clustering(chunk_adjacency(w, config, pc.chunk), users, ci, tie=mean_matrix(w))
        for ci, w in enumerate(_windows(pc, mat.values))
    ]


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
    """ClusteringResults (label rows) per frame, or per chunk when mode='chunk'."""
    _check_clustering(pc, mode)
    return _cluster(pc, metric_matrices(pc, [metric])[metric], mode)


def evaluate_content(pc: PreparedContent, metrics, mode: str = "chunk") -> dict:
    """Cluster with each metric and score it against the exact ground truth.

    Returns ``{metric: (results, performances, summary)}`` in the order the
    metrics are given: one ClusteringResult (a label row) and one
    ``{figure: value}`` dict keyed by ``FIGURES`` per frame or chunk, and
    ``summarize_performance`` of the dicts.  One table pass serves every
    metric and the overlap, and the ground truth is built once.  In chunk
    mode the per-pair ground truth is the mean overlap over the chunk, and
    precision labels are persistence scores thresholded exactly like chunk
    adjacency, so an OVERLAP-driven clustering scores precision 1.0
    identically.
    """
    _refuse_bare_metric(metrics)
    _check_clustering(pc, mode)
    mats = metric_matrices(pc, [*metrics, MetricId.OVERLAP])
    ovs = mats[MetricId.OVERLAP].values
    # per result: ground truth, the values precision thresholds, and its threshold
    if mode == "frame":
        truths = [(ov, ov, pc.overlap_threshold) for ov in ovs]
    else:
        truths = [(mean_matrix(w), persistence_scores(w, pc.overlap_threshold), pc.chunk.persistence)
                  for w in _windows(pc, ovs)]
    out = {}
    for metric in metrics:
        results = _cluster(pc, mats[metric], mode)
        perfs = [
            evaluate_result(r, ov, ref, label_threshold=th, min_size=pc.relevant_min_size)
            for r, (ov, ref, th) in zip(results, truths)
        ]
        out[metric] = results, perfs, summarize_performance(perfs)
    return out


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
    matrices are alive at a time.  Returns ``{metric: (roc, RocPoint)}``:
    ``roc_curve``'s ``(threshold, tpr, fpr)`` arrays and the point
    ``select_threshold`` picks from them.
    """
    _refuse_bare_metric(metrics)
    if not target_tpr > 0:
        raise InvalidParamsError(f"target_tpr must be > 0, got {target_tpr}")
    if len({pc.overlap_threshold for pc in pcs}) > 1:
        named = ", ".join(f"'{pc.content_id}' {pc.overlap_threshold}" for pc in pcs)
        raise InvalidParamsError(f"calibrate labels every content at one overlap_threshold; the contents have {named}")
    o_th = pcs[0].overlap_threshold
    ovs = [metric_matrices(pc, [MetricId.OVERLAP])[MetricId.OVERLAP].values for pc in pcs]
    _, labels = pair_samples(ovs, ovs, o_th)
    for kind, count in (("positive", labels.sum()), ("negative", labels.size - labels.sum())):
        if count == 0:
            raise DegenerateLabelsError(f"0 {kind} labels out of {labels.size} valid pair-frames at o_th={o_th}")
    out = {}
    for metric in metrics:
        mats = [metric_matrices(pc, [metric])[metric].values for pc in pcs]
        roc = roc_curve(*pair_samples(mats, ovs, o_th))
        out[metric] = roc, select_threshold(roc, target_tpr)
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
        pc._sharing(metrics=dict(pc.metrics), overlap_threshold=first.overlap_threshold,
                    relevant_min_size=first.relevant_min_size)
        for pc in sorted(chosen, key=lambda pc: pc.content_id)
    ]

    def score(reg) -> dict:
        th = threshold if threshold is not None else first.metrics[metric].threshold
        summaries = {}
        for pc in swept:
            pc.metrics[metric] = MetricConfig(metric, reg, th)
            summaries[pc.content_id] = evaluate_content(pc, [metric], mode="frame")[metric][2]
        overall = summarize_across_contents(summaries)
        return {f: overall[f].mean for f in FIGURES}

    return ablate(metric, grid, score, fixed)


def summarize_across_contents(per_content: dict) -> dict:
    """All-content row: ``summarize_performance`` over the per-content means."""
    return summarize_performance([{f: summary[f].mean for f in FIGURES} for summary in per_content.values()])
