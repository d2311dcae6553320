"""Clustering quality measured against the exact overlap ground truth.

Three figures per frame or chunk:

* overlap ratio: mean exact overlap across unordered member pairs, averaged
  over the relevant clusters (size >= min_size);
* relevant population: fraction of users sitting in a relevant cluster;
* precision: among same-cluster pairs, the fraction whose ground-truth
  label is positive (overlap at least the ground-truth threshold).

Each is read off a clustering's label row: an n × n array's values at its
same-cluster pairs, in ``metrics.pair_indices`` order, and the cluster
sizes.  ``evaluate_result`` returns them keyed by their ``FIGURES`` name.
Undefined values are NaN and are excluded (but counted) by aggregation;
they are never coerced to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calibration import DEFAULT_OVERLAP_LABEL_THRESHOLD, FIGURES
from .clustering import DEFAULT_RELEVANT_MIN_SIZE, ClusteringResult
from .errors import PreconditionError
from .metrics import pair_indices


@dataclass(frozen=True)
class AggregateStats:
    """Mean and population standard deviation over the valid entries."""

    mean: float
    std: float
    n_valid: int
    n_invalid: int


def _same_cluster_pairs(result: ClusteringResult, matrix: np.ndarray) -> tuple:
    """``matrix``'s valid values at the same-cluster pairs a < b, in ``pair_indices`` order, and each pair's cluster."""
    n = len(result.users)
    if np.shape(matrix) != (n, n):
        raise PreconditionError(f"the matrix must be ({n}, {n}), one row and column per clustered user")
    a, b = pair_indices(n)
    values = matrix[a, b]
    keep = (result.labels[a] == result.labels[b]) & ~np.isnan(values)
    return values[keep], result.labels[a[keep]]


def overlap_ratio(
    result: ClusteringResult, overlap: np.ndarray, min_size: int = DEFAULT_RELEVANT_MIN_SIZE
) -> float:
    """Mean over the relevant clusters of each one's mean valid pairwise overlap.

    A cluster whose member pairs are all invalid is left out; NaN when no
    relevant cluster is left.
    """
    if min_size < 2:
        raise PreconditionError(f"overlap ratio needs clusters of at least two members, got min_size={min_size}")
    values, cluster = _same_cluster_pairs(result, overlap)
    # one np.mean per cluster, then one over the clusters: a single weighted sum rounds differently
    relevant = np.flatnonzero(result.sizes >= min_size)
    means = [float(np.mean(v)) for k in relevant if (v := values[cluster == k]).size]
    return float(np.mean(means)) if means else math.nan


def relevant_population(
    result: ClusteringResult, min_size: int = DEFAULT_RELEVANT_MIN_SIZE
) -> float:
    """Fraction of users belonging to a cluster of at least min_size."""
    if not result.users:
        raise PreconditionError("relevant population of an empty user set is undefined")
    sizes = result.sizes
    return int(sizes[sizes >= min_size].sum()) / len(result.users)


def precision(result: ClusteringResult, reference: np.ndarray, threshold: float) -> float:
    """Fraction of same-cluster pairs whose n × n reference value is >= threshold.

    Pairs invalid (NaN) in the reference are excluded.  NaN when no valid
    same-cluster pair exists.
    """
    values, _ = _same_cluster_pairs(result, reference)
    return int(np.count_nonzero(values >= threshold)) / values.size if values.size else math.nan


def evaluate_result(
    result: ClusteringResult,
    overlap: np.ndarray,
    reference: np.ndarray | None = None,
    *,
    label_threshold: float = DEFAULT_OVERLAP_LABEL_THRESHOLD,
    min_size: int = DEFAULT_RELEVANT_MIN_SIZE,
) -> dict:
    """All three performance figures for one frame or chunk, ``{figure: value}`` in FIGURES order.

    ``overlap`` supplies the n × n per-pair ground truth values (a frame's
    overlap, or the per-pair mean over a chunk).  ``reference`` supplies the
    values that precision thresholds; it defaults to ``overlap`` itself with
    ``label_threshold`` (per-chunk callers pass persistence scores instead).
    NaN marks an undefined figure.
    """
    return dict(zip(FIGURES, (
        overlap_ratio(result, overlap, min_size),
        relevant_population(result, min_size),
        precision(result, overlap if reference is None else reference, label_threshold),
    )))


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
    return {f: aggregate([p[f] for p in perfs]) for f in FIGURES}
