"""Clustering quality measured against the exact overlap ground truth.

Three figures per frame or chunk:

* overlap ratio: mean exact overlap across unordered member pairs, averaged
  over the relevant clusters (size >= min_size);
* relevant population: fraction of users sitting in a relevant cluster;
* precision: among same-cluster pairs, the fraction whose ground-truth
  label is positive (overlap at least the ground-truth threshold).

Undefined values are NaN and are excluded (but counted) by aggregation;
they are never coerced to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calibration import DEFAULT_OVERLAP_LABEL_THRESHOLD
from .clustering import DEFAULT_RELEVANT_MIN_SIZE, Cluster, ClusteringResult
from .errors import PreconditionError
from .metrics import SimilarityMatrix, pair_indices

FIGURES = ("overlap_ratio", "relevant_population", "precision")


@dataclass(frozen=True)
class AggregateStats:
    """Mean and population standard deviation over the valid entries."""

    mean: float
    std: float
    n_valid: int
    n_invalid: int


@dataclass(frozen=True)
class ClusterPerformance:
    """Evaluation of one clustering result; NaN marks undefined fields."""

    ident: int
    overlap_ratio: float
    relevant_population: float
    precision: float
    n_relevant: int


def overlap_per_cluster(cluster: Cluster, overlap: SimilarityMatrix) -> float:
    """Mean pairwise ground-truth overlap inside one cluster.

    NaN when every member pair is invalid in the overlap matrix.
    """
    if cluster.size < 2:
        raise PreconditionError("per-cluster overlap needs at least two members")
    index = {u: i for i, u in enumerate(overlap.users)}
    try:
        idx = np.array([index[u] for u in cluster.members])
    except KeyError as e:
        raise PreconditionError(f"cluster member {e} missing from overlap matrix")
    a, b = pair_indices(len(idx))  # row-major a < b, as a pair loop
    vals = overlap.values[idx[a], idx[b]]
    vals = vals[~np.isnan(vals)]
    return float(np.mean(vals)) if vals.size else math.nan


def relevant_population(
    result: ClusteringResult, min_size: int = DEFAULT_RELEVANT_MIN_SIZE
) -> float:
    """Fraction of users belonging to a cluster of at least min_size."""
    if not result.users:
        raise PreconditionError("relevant population of an empty user set is undefined")
    members = sum(c.size for c in result.relevant_clusters(min_size))
    return members / len(result.users)


def precision(result: ClusteringResult, reference: SimilarityMatrix, threshold: float) -> float:
    """Fraction of same-cluster pairs whose reference value is >= threshold.

    Pairs invalid in the reference matrix are excluded.  NaN when no valid
    same-cluster pair exists.
    """
    owner = result.labels()
    if not owner.keys() <= set(reference.users):
        raise PreconditionError("cluster members missing from reference matrix")
    label = np.array([owner.get(u, -1) for u in reference.users])
    a, b = pair_indices(len(label))
    same = (label[a] == label[b]) & (label[a] >= 0) & reference.valid[a, b]
    total = int(np.count_nonzero(same))
    tp = int(np.count_nonzero(reference.values[a[same], b[same]] >= threshold))
    return tp / total if total else math.nan


def evaluate_result(
    result: ClusteringResult,
    overlap: SimilarityMatrix,
    labels: SimilarityMatrix | None = None,
    *,
    label_threshold: float = DEFAULT_OVERLAP_LABEL_THRESHOLD,
    min_size: int = DEFAULT_RELEVANT_MIN_SIZE,
) -> ClusterPerformance:
    """All three performance figures for one frame or chunk.

    ``overlap`` supplies the per-pair ground truth values (per-frame matrix,
    or the per-pair mean over a chunk).  ``labels`` supplies the matrix that
    precision thresholds; it defaults to ``overlap`` itself with
    ``label_threshold`` (per-chunk callers pass persistence scores instead).
    """
    relevant = result.relevant_clusters(min_size)
    per_cluster = [overlap_per_cluster(c, overlap) for c in relevant]
    defined = [v for v in per_cluster if not math.isnan(v)]
    mean_overlap = float(np.mean(defined)) if defined else math.nan
    ref = labels if labels is not None else overlap
    return ClusterPerformance(
        ident=result.ident,
        overlap_ratio=mean_overlap,
        relevant_population=relevant_population(result, min_size),
        precision=precision(result, ref, label_threshold),
        n_relevant=len(relevant),
    )


def aggregate(values) -> AggregateStats:
    """Mean +- population std over the non-NaN entries of a series; NaN when there is none."""
    arr = np.asarray(list(values), dtype=np.float64)
    ok = ~np.isnan(arr)
    n_valid = int(ok.sum())
    n_invalid = int(arr.size - n_valid)
    if n_valid == 0:
        return AggregateStats(math.nan, math.nan, 0, n_invalid)
    kept = arr[ok]
    return AggregateStats(float(kept.mean()), float(kept.std(ddof=0)), n_valid, n_invalid)


def summarize_performance(perfs: list) -> dict:
    """AggregateStats for each of the FIGURES across frames or chunks."""
    return {f: aggregate([getattr(p, f) for p in perfs]) for f in FIGURES}
