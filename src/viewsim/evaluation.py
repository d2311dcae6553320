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

from .clustering import DEFAULT_RELEVANT_MIN_SIZE, Cluster, ClusteringResult, pair_indices
from .errors import EmptySeriesError, PreconditionError
from .metrics import SimilarityMatrix


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
    i, j = idx[a], idx[b]
    vals = overlap.values[i, j][overlap.valid[i, j]]
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
    label_threshold: float = 0.75,
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


def aggregate(values, allow_empty: bool = False) -> AggregateStats:
    """Mean +- population std over the non-NaN entries of a series."""
    arr = np.asarray(list(values), dtype=np.float64)
    ok = ~np.isnan(arr)
    n_valid = int(ok.sum())
    n_invalid = int(arr.size - n_valid)
    if n_valid == 0:
        if allow_empty:
            return AggregateStats(math.nan, math.nan, 0, n_invalid)
        raise EmptySeriesError("aggregation over an empty or all-invalid series")
    kept = arr[ok]
    return AggregateStats(float(kept.mean()), float(kept.std(ddof=0)), n_valid, n_invalid)


def summarize_performance(perfs: list) -> dict:
    """AggregateStats for each performance field across frames or chunks."""
    return {
        "overlap_ratio": aggregate([p.overlap_ratio for p in perfs], allow_empty=True),
        "relevant_population": aggregate([p.relevant_population for p in perfs], allow_empty=True),
        "precision": aggregate([p.precision for p in perfs], allow_empty=True),
    }


def adjusted_rand_index(labels_a: dict, labels_b: dict) -> float:
    """Chance-corrected agreement between two partitions of the same users.

    1.0 for identical partitions (including the all-singletons edge case
    where the correction denominator vanishes).
    """
    if set(labels_a) != set(labels_b):
        raise PreconditionError("partitions must cover the same users")
    users = sorted(labels_a)
    n = len(users)
    if n == 0:
        raise PreconditionError("adjusted rand index of zero users is undefined")
    pairs: dict = {}
    count_a: dict = {}
    count_b: dict = {}
    for u in users:
        a, b = labels_a[u], labels_b[u]
        pairs[(a, b)] = pairs.get((a, b), 0) + 1
        count_a[a] = count_a.get(a, 0) + 1
        count_b[b] = count_b.get(b, 0) + 1
    sum_pairs = sum(math.comb(c, 2) for c in pairs.values())
    sum_a = sum(math.comb(c, 2) for c in count_a.values())
    sum_b = sum(math.comb(c, 2) for c in count_b.values())
    total = math.comb(n, 2)
    if total == 0:
        return 1.0
    expected = sum_a * sum_b / total
    maximum = (sum_a + sum_b) / 2.0
    if maximum == expected:
        return 1.0
    return (sum_pairs - expected) / (maximum - expected)
