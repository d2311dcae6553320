"""Similarity metrics between users navigating the same content frame.

The exact ground truth is the viewport overlap ratio: the Jaccard index of
the two sets of cloud points falling inside each user's frustum.  The eight
proxy metrics (w1..w8) combine up to three pose-level features instead:

* E(x)  Euclidean distance between user positions;
* |Δr|  absolute difference of viewing distances, or a tanh-of-distance
        weighting for w7/w8;
* gaze  distance between viewport centres, geodesic on the content surface
        (w3, w5, w7) or Euclidean (w4, w6, w8).

``METRICS`` is where a metric is declared; what else the code knows of a
metric (its regulators, its surface-graph need, its matrix) derives from its row.

Features enter through the exponential kernel ``exp(-a*d)`` with
non-negative regulators, so every proxy except w7/w8 lives in [0, 1];
w7/w8 live in [0, 2*beta].  A pair missing a required feature (a user
off-content or without a gaze target) is invalid: its value is NaN, not
zero.  A geodesic metric without a surface graph raises MissingGraphError.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidParamsError, MissingGraphError
from .geometry import FrustumParams, SurfaceGraph, contains_points, frusta, geodesic_rows, point_blocks


class MetricId(str, Enum):
    W1 = "w1"
    W2 = "w2"
    W3 = "w3"
    W4 = "w4"
    W5 = "w5"
    W6 = "w6"
    W7 = "w7"
    W8 = "w8"
    OVERLAP = "overlap"

    @property
    def is_overlap(self) -> bool:
        return self is MetricId.OVERLAP

    @property
    def terms(self) -> tuple:
        """The metric's factors from ``METRICS``: (PairFeatures field, RegulatorSet field, KERNELS key) each."""
        return METRICS[self][0]

    @property
    def regulator_names(self) -> tuple:
        """The regulators the metric's terms read, in term order; none for overlap."""
        return tuple(name for _, name, _ in self.terms)

    @property
    def needs_geodesic(self) -> bool:
        return any(feature == "gaze_geo" for feature, _, _ in self.terms)


PROXY_METRICS = tuple(m for m in MetricId if m is not MetricId.OVERLAP)


@dataclass(frozen=True)
class RegulatorSet:
    """Non-negative kernel regulators; a metric reads those its ``METRICS`` terms name."""

    alpha: float
    beta: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise InvalidParamsError(f"{name} must be finite and >= 0, got {v}")

    def as_tuple(self) -> tuple:
        return (self.alpha, self.beta, self.gamma)


@dataclass(frozen=True)
class MetricConfig:
    """A metric together with its regulators and decision threshold."""

    metric: MetricId
    regulators: RegulatorSet | None
    threshold: float

    def __post_init__(self):
        if not math.isfinite(self.threshold):
            raise InvalidParamsError(f"threshold must be finite, got {self.threshold}")
        if self.metric.is_overlap:
            if self.regulators is not None:
                raise InvalidParamsError("overlap takes no regulators")
        elif self.regulators is None:
            raise InvalidParamsError(f"{self.metric.value} needs regulators")


# Each metric's terms, default regulators and default threshold.  The terms multiply
# left to right from the first term's array: their order fixes the rounding.
METRICS = {
    MetricId.W1: ((("pos_dist", "alpha", "exp"),), RegulatorSet(1.0), 0.64),
    MetricId.W2: ((("range_diff", "alpha", "exp"),), RegulatorSet(1.0), 0.80),
    MetricId.W3: ((("gaze_geo", "alpha", "exp"),), RegulatorSet(1.0), 0.63),
    MetricId.W4: ((("gaze_euc", "alpha", "exp"),), RegulatorSet(1.0), 0.84),
    MetricId.W5: ((("pos_dist", "alpha", "exp"), ("range_diff", "beta", "exp"), ("gaze_geo", "gamma", "exp")),
                  RegulatorSet(0.1, 0.5, 1.0), 0.54),
    MetricId.W6: ((("pos_dist", "alpha", "exp"), ("range_diff", "beta", "exp"), ("gaze_euc", "gamma", "exp")),
                  RegulatorSet(0.1, 0.125, 0.2), 0.87),
    MetricId.W7: ((("pos_dist", "alpha", "exp"), ("eta_sum", "beta", "linear"), ("gaze_geo", "gamma", "exp")),
                  RegulatorSet(0.25, 0.5, 0.5), 0.60),
    MetricId.W8: ((("pos_dist", "alpha", "exp"), ("eta_sum", "beta", "linear"), ("gaze_euc", "gamma", "exp")),
                  RegulatorSet(0.5, 0.5, 0.5), 0.62),
    MetricId.OVERLAP: ((), None, 0.75),
}


def default_configs() -> dict:
    """Per-metric regulators and thresholds used when a run overrides nothing: ``METRICS``'s defaults."""
    return {m: MetricConfig(m, regulators, threshold) for m, (_, regulators, threshold) in METRICS.items()}


def exp_kernel(alpha: float, d: np.ndarray) -> np.ndarray:
    """exp(-alpha * d) elementwise for d >= 0, with d = +inf mapped to 0.

    The infinity rule comes first so a zero regulator still kills
    unreachable pairs instead of producing 0 * inf = nan.  NaN entries
    (invalid pairs) propagate.
    """
    inf = np.isinf(d)
    out = np.exp(-alpha * np.where(inf, 0.0, d))
    out[inf] = 0.0
    return out


KERNELS = {"exp": exp_kernel, "linear": np.multiply}  # a term's factor from (regulator, feature)


@dataclass
class SimilarityMatrix:
    """Symmetric per-frame (or per-chunk) pair values; NaN marks the diagonal and every invalid pair."""

    frame: int
    users: tuple
    metric: MetricId
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.n, self.n):
            raise ValueError("matrix shape must be (n_users, n_users)")

    @property
    def n(self) -> int:
        return len(self.users)

    @property
    def valid(self) -> np.ndarray:
        """Where a pair has a value: ``~np.isnan(values)``, computed on each access."""
        return ~np.isnan(self.values)


@functools.lru_cache
def pair_indices(k: int) -> tuple:
    """Read-only index arrays (a, b) of the pairs a < b of k items, in row-major order."""
    a, b = np.triu_indices(k, 1)
    a.flags.writeable = b.flags.writeable = False
    return a, b


@dataclass
class PairFeatures:
    """Per-frame pair feature matrices shared by all proxy metrics.

    Regulators factor out of the features, so a parameter sweep computes
    this once per frame and reapplies kernels per grid point.  A feature is
    NaN for every pair it does not exist for: ``pos_dist`` where either user
    is off content, the others also where either user has no gaze target.
    ``gaze_geo`` is None when no surface graph was supplied.
    """

    frame: int
    users: tuple
    pos_dist: np.ndarray
    range_diff: np.ndarray
    gaze_euc: np.ndarray
    eta_sum: np.ndarray
    gaze_geo: np.ndarray | None = None

    def metric_matrix(self, metric: MetricId, reg: RegulatorSet) -> SimilarityMatrix:
        """Multiply one metric's terms over the precomputed features; NaN features give NaN values."""
        if metric.is_overlap:
            raise InvalidParamsError("overlap is not derived from pair features")
        if metric.needs_geodesic and self.gaze_geo is None:
            raise MissingGraphError(f"{metric.value} needs a surface graph")
        factors = (KERNELS[k](getattr(reg, r), getattr(self, f)) for f, r, k in metric.terms)
        values = next(factors)  # a fresh array each term, so the product is taken in place
        for factor in factors:
            values *= factor
        np.fill_diagonal(values, np.nan)
        return SimilarityMatrix(frame=self.frame, users=self.users, metric=metric, values=values)


def compute_pair_features(frame_index: int, users: tuple, x, p, r, off, graph: SurfaceGraph | None = None) -> PairFeatures:
    """Build the feature matrices for one aligned frame.

    ``x`` and ``p`` are n×3, ``r`` and ``off`` length n, one row per user;
    p and r are NaN for a user without a gaze target.  An off-content
    user's x, p and r are taken as NaN.  With a ``graph``, ``gaze_geo`` is
    ``geodesic_gaze(p, r, graph)``.
    """
    n = len(users)
    # contiguous, like stacked rows: numpy may pick another (SIMD) loop, with other rounding, for strided input
    xs, ps, rs = (np.ascontiguousarray(a, dtype=np.float64) for a in (x, p, r))
    present = ~np.asarray(off, dtype=bool)
    if xs.shape != (n, 3) or ps.shape != (n, 3) or rs.shape != (n,) or present.shape != (n,):
        raise ValueError("one row per user required")
    xs, ps = (np.where(present[:, None], a, np.nan) for a in (xs, ps))
    rs = np.where(present, rs, np.nan)
    diff = xs[:, None, :] - xs[None, :, :]
    pos_dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    range_diff = np.abs(rs[:, None] - rs[None, :])
    pdiff = ps[:, None, :] - ps[None, :, :]
    gaze_euc = np.sqrt(np.einsum("ijk,ijk->ij", pdiff, pdiff))
    eta = np.tanh(rs)
    eta_sum = eta[:, None] + eta[None, :]
    return PairFeatures(
        frame=frame_index,
        users=users,
        pos_dist=pos_dist,
        range_diff=range_diff,
        gaze_euc=gaze_euc,
        eta_sum=eta_sum,
        gaze_geo=None if graph is None else geodesic_gaze(ps, rs, graph),
    )


def geodesic_gaze(p, r, graph: SurfaceGraph) -> np.ndarray:
    """Geodesic distances between users' gaze targets on the content surface.

    ``p`` is n×3 and ``r`` length n, one row per user; a user whose r is
    NaN has no gaze target, and its row and column are NaN.  Distances are
    taken between graph vertices nearest each p, one shortest-path sweep
    per distinct source vertex but the largest; the row of the smaller
    vertex index is used for both orientations so the matrix is symmetric
    by construction.
    """
    ps, rs = (np.ascontiguousarray(a, dtype=np.float64) for a in (p, r))
    n = len(rs)
    gaze_geo = np.full((n, n), np.nan)
    on_idx = np.flatnonzero(~np.isnan(rs))
    if on_idx.size:
        snapped = np.array([graph.nearest_index(ps[i]) for i in on_idx])
        uniq, inv = np.unique(snapped, return_inverse=True)
        dist = np.zeros((uniq.size, uniq.size))
        dist[:-1] = geodesic_rows(graph, uniq[:-1], uniq)  # the largest vertex's row is never read
        gaze_geo[np.ix_(on_idx, on_idx)] = dist[np.minimum.outer(inv, inv), np.maximum.outer(inv, inv)]
    return gaze_geo


def overlap_matrix(frame_index: int, users: tuple, x, view, off, cloud, params: FrustumParams) -> SimilarityMatrix:
    """Exact pairwise viewport overlap for one frame.

    ``x`` and ``view`` are n×3 and ``off`` length n, one row per user.  Every
    present user's frustum is built in one ``frusta`` call; the cloud is
    scanned in ``point_blocks``, and intersection counts add up one
    integer-exact product per block.  It holds one reused n × block float32
    mask buffer, plus the n × n float64 counts.  A pair is invalid when its
    union is empty or either user is off-content for the frame.
    """
    n = len(users)
    present = ~np.asarray(off, dtype=bool)
    if np.shape(x) != (n, 3) or np.shape(view) != (n, 3) or present.shape != (n,):
        raise ValueError("one row per user required")
    rows = np.flatnonzero(present)
    planes = list(zip(rows, *frusta(np.asarray(x)[rows], np.asarray(view)[rows], params)))
    blocks = list(point_blocks(cloud.points.shape[0]))
    buffer = np.zeros((n, blocks[0].stop), dtype=np.float32)  # the first block is the longest; absent users' rows stay 0
    inter = np.zeros((n, n))
    for s in blocks:
        masks, points = buffer[:, :s.stop - s.start], cloud.points[s]
        for k, normals, offsets in planes:
            masks[k] = contains_points((normals, offsets), points)
        inter += masks @ masks.T  # exact in any order: a block's counts are at most 2**16 < 2**24
    sizes = np.diag(inter).copy()
    union = sizes[:, None] + sizes[None, :] - inter
    valid = (union > 0) & present[:, None] & present[None, :] & ~np.eye(n, dtype=bool)
    values = np.full((n, n), np.nan)
    values[valid] = inter[valid] / union[valid]
    return SimilarityMatrix(frame=frame_index, users=users, metric=MetricId.OVERLAP, values=values)


def _fmt(v: float) -> str:
    """A number as every CSV writes it: the shortest repr that reads back to the same float."""
    return repr(float(v))


def write_csv(path, header: list, rows) -> None:
    """The header row, then ``rows``, each line ending in ``\\n``: how every CSV output is written."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def write_matrices_csv(path, matrices: list) -> None:
    """Long-form pair rows: frame,user_i,user_j,metric,value,valid, one per pair a < b of each matrix."""

    def rows(m: SimilarityMatrix):
        a, b = pair_indices(m.n)
        for i, j, value in zip(a.tolist(), b.tolist(), m.values[a, b].tolist()):
            yield [m.frame, m.users[i], m.users[j], m.metric.value, _fmt(value), int(not math.isnan(value))]

    write_csv(path, ["frame", "user_i", "user_j", "metric", "value", "valid"], (r for m in matrices for r in rows(m)))
