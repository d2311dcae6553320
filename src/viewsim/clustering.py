"""Thresholded similarity graphs and exact clique-based clustering.

Per frame (or per chunk) the similarity matrix becomes an undirected graph:
an edge joins two users whose similarity is valid and at least the metric's
threshold.  Clustering repeatedly extracts an exact maximum clique until no
edges remain; leftover users become singletons.  The search runs on 64-bit
neighbour bitsets built once per graph (San Segundo et al., 2011); each
extraction clears the chosen clique's bits.  Ties between maximum cliques are
broken by higher mean pairwise similarity, then by the lexicographically
smallest member list, so results are reproducible across runs and platforms.

Chunk mode aggregates a window of frames first: a pair is connected iff its
per-frame condition holds in at least a persistence fraction of the frames
where the pair is valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParamsError, PreconditionError, SizeLimitError
from .metrics import MetricConfig, SimilarityMatrix, pair_indices

MAX_CLIQUE_USERS = 64
DEFAULT_RELEVANT_MIN_SIZE = 3


@dataclass
class SimilarityGraph:
    """Boolean adjacency over a fixed user tuple; no self loops."""

    ident: int
    users: tuple
    adjacency: np.ndarray

    def __post_init__(self):
        n = len(self.users)
        a = np.asarray(self.adjacency, dtype=bool)
        if a.shape != (n, n):
            raise ValueError(f"adjacency must be ({n}, {n})")
        if np.any(a != a.T):
            raise ValueError("adjacency must be symmetric")
        if np.any(np.diag(a)):
            raise ValueError("adjacency must have a zero diagonal")
        self.adjacency = a

    @property
    def n(self) -> int:
        return len(self.users)


@dataclass(frozen=True)
class Cluster:
    members: tuple

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(sorted(self.members)))

    @property
    def size(self) -> int:
        return len(self.members)

    def is_relevant(self, min_size: int = DEFAULT_RELEVANT_MIN_SIZE) -> bool:
        return self.size >= min_size


@dataclass
class ClusteringResult:
    """Partition of the users of one frame or chunk.

    Clusters appear in extraction order (largest first by construction),
    then singletons in user-id order.
    """

    ident: int
    users: tuple
    clusters: list

    def __post_init__(self):
        seen: list = []
        for c in self.clusters:
            seen.extend(c.members)
        if sorted(seen) != sorted(self.users):
            raise ValueError("clusters must partition the user set")

    def relevant_clusters(self, min_size: int = DEFAULT_RELEVANT_MIN_SIZE) -> list:
        return [c for c in self.clusters if c.is_relevant(min_size)]

    def labels(self) -> dict:
        """user id -> cluster index (extraction order)."""
        return {u: k for k, c in enumerate(self.clusters) for u in c.members}


@dataclass(frozen=True)
class ChunkSpec:
    """Chunk length in seconds and the edge persistence fraction."""

    window: float = 1.0
    persistence: float = 0.8

    def __post_init__(self):
        if not (self.window > 0.0 and math.isfinite(self.window)):
            raise InvalidParamsError(f"window must be positive, got {self.window}")
        if not (0.0 < self.persistence <= 1.0):
            raise InvalidParamsError(f"persistence must lie in (0, 1], got {self.persistence}")

    def frames_per_chunk(self, fps: float) -> int:
        return max(1, int(round(self.window * fps)))


def build_adjacency(matrix: SimilarityMatrix, config: MetricConfig) -> SimilarityGraph:
    """Edge iff the pair's similarity >= threshold: a NaN (invalid) pair compares False."""
    if config.metric is not matrix.metric:
        raise InvalidParamsError(
            f"config is for {config.metric.value}, matrix holds {matrix.metric.value}"
        )
    adj = (matrix.values >= config.threshold) & ~np.eye(matrix.n, dtype=bool)
    return SimilarityGraph(ident=matrix.frame, users=matrix.users, adjacency=adj)


def mean_matrix(matrices: list) -> SimilarityMatrix:
    """Per-pair mean over the frames where the pair is valid (not NaN); NaN where none is."""
    if not matrices:
        raise PreconditionError("mean over an empty frame window")
    users = matrices[0].users
    metric = matrices[0].metric
    for m in matrices:
        if m.users != users or m.metric is not metric:
            raise InvalidParamsError("all matrices in a window must share users and metric")
    vals = np.stack([m.values for m in matrices])
    count = np.count_nonzero(~np.isnan(vals), axis=0)
    mean = np.divide(np.nansum(vals, axis=0), count, out=np.full(count.shape, np.nan), where=count > 0)
    return SimilarityMatrix(frame=matrices[0].frame, users=users, metric=metric, values=mean)


def persistence_scores(matrices: list, threshold: float) -> SimilarityMatrix:
    """Fraction of a pair's valid frames whose value is >= threshold: the mean of 0/1 indicators, NaN kept."""
    return mean_matrix([replace(m, values=np.where(np.isnan(m.values), np.nan, m.values >= threshold)) for m in matrices])


def chunk_adjacency(
    matrices: list, config: MetricConfig, spec: ChunkSpec, chunk_id: int
) -> SimilarityGraph:
    """Persistence-filtered adjacency over one window of frame matrices."""
    scores = replace(persistence_scores(matrices, config.threshold), frame=chunk_id)
    return build_adjacency(scores, replace(config, threshold=spec.persistence))


def check_clique_size(n: int) -> None:
    """Raise SizeLimitError when n users exceed the exact search's bitset width."""
    if n > MAX_CLIQUE_USERS:
        raise SizeLimitError(f"exact clique search supports up to {MAX_CLIQUE_USERS} users, got {n}")


def _neighbor_masks(adj: np.ndarray) -> list:
    """Row i as a Python int with bit j set iff users i and j are adjacent."""
    bits = np.left_shift(np.uint64(1), np.arange(adj.shape[0], dtype=np.uint64))
    return np.bitwise_or.reduce(np.where(adj, bits, np.uint64(0)), axis=1).tolist()


def _mask_members(mask: int) -> list:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _maximum_clique_masks(nbr: list, p_mask: int) -> list:
    """All maximum cliques among the users of ``p_mask`` (Bron-Kerbosch, pivoting, pruned)."""
    best_size = 0
    best: list = []

    def expand(r_mask: int, r_size: int, p_mask: int, x_mask: int) -> None:
        nonlocal best_size, best
        if p_mask == 0 and x_mask == 0:
            if r_size > best_size:
                best_size, best = r_size, [r_mask]
            elif r_size == best_size:
                best.append(r_mask)
            return
        if r_size + p_mask.bit_count() < best_size:
            return
        # pivot on the vertex covering most of P
        scan = p_mask | x_mask
        pivot_nbrs = -1
        best_cover = -1
        while scan:
            low = scan & -scan
            u = low.bit_length() - 1
            scan ^= low
            cover = (p_mask & nbr[u]).bit_count()
            if cover > best_cover:
                best_cover = cover
                pivot_nbrs = nbr[u]
        cand = p_mask & ~pivot_nbrs
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            expand(r_mask | low, r_size + 1, p_mask & nbr[v], x_mask & nbr[v])
            p_mask ^= low
            x_mask |= low
            if r_size + p_mask.bit_count() < best_size:
                return

    expand(0, 0, p_mask, 0)
    return best


def _rank_cliques(users: tuple, masks: list, tie_matrix: SimilarityMatrix | None) -> list:
    """Maximum cliques best first: highest mean tie value, then smallest member ids."""
    if len(masks) == 1:
        return masks

    def key(mask: int):
        idx = _mask_members(mask)
        if tie_matrix is not None and len(idx) >= 2:
            a, b = pair_indices(len(idx))
            members = np.array(idx)
            mean = float(np.mean(tie_matrix.values[members[a], members[b]]))
        else:
            mean = 0.0
        return (-mean, tuple(users[i] for i in idx))

    return sorted(masks, key=key)


def max_clique(graph: SimilarityGraph, tie_matrix: SimilarityMatrix | None = None) -> Cluster:
    """Exact maximum clique with deterministic tie-breaking.

    Among maximum cliques, prefers the highest mean pairwise value in
    ``tie_matrix`` (0 when absent or for singletons), then the smallest
    member-id list.  Limited to 64 users.
    """
    n = graph.n
    if n == 0:
        raise PreconditionError("maximum clique of an empty graph is undefined")
    check_clique_size(n)
    masks = _maximum_clique_masks(_neighbor_masks(graph.adjacency), (1 << n) - 1)
    chosen = _rank_cliques(graph.users, masks, tie_matrix)[0]
    return Cluster(members=tuple(graph.users[i] for i in _mask_members(chosen)))


def clique_clustering(
    graph: SimilarityGraph, tie_matrix: SimilarityMatrix | None = None
) -> ClusteringResult:
    """Partition by repeated maximum-clique extraction; users left without an edge become singletons."""
    check_clique_size(graph.n)
    users = graph.users
    nbr = _neighbor_masks(graph.adjacency)
    remaining = (1 << graph.n) - 1
    clusters, ranked = [], []
    while ranked or any(nbr[i] & remaining for i in _mask_members(remaining)):
        # maximum cliques the last extraction left intact are still maximum
        ranked = ranked or _rank_cliques(users, _maximum_clique_masks(nbr, remaining), tie_matrix)
        chosen = ranked.pop(0)
        clusters.append(Cluster(members=tuple(users[i] for i in _mask_members(chosen))))
        remaining &= ~chosen
        ranked = [m for m in ranked if not m & chosen]
    clusters.extend(Cluster(members=(users[i],)) for i in _mask_members(remaining))
    return ClusteringResult(ident=graph.ident, users=users, clusters=clusters)


def chunk_frame_ranges(n_frames: int, frames_per_chunk: int) -> list:
    """Consecutive frame windows; the trailing partial chunk is kept."""
    if frames_per_chunk < 1:
        raise InvalidParamsError("frames_per_chunk must be >= 1")
    return [
        range(start, min(start + frames_per_chunk, n_frames))
        for start in range(0, n_frames, frames_per_chunk)
    ]
