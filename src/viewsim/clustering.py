"""Thresholded similarity graphs and exact clique-based clustering.

Per frame (or per chunk) the n × n similarity values become a boolean
adjacency, ``values >= threshold``: an edge joins two users whose
similarity is valid and at least the metric's threshold, as a NaN
(invalid) pair compares False.  Clustering repeatedly extracts an exact
maximum clique until no edges remain; leftover users become singletons.
The partition is one integer label row (``ClusteringResult``).  The
search runs on 64-bit neighbour bitsets built once per adjacency (San
Segundo et al., 2011); each extraction clears the chosen clique's bits.
Ties between maximum cliques are broken by higher mean pairwise
similarity, then by the lexicographically smallest member list, so
results are reproducible across runs and platforms.

Chunk mode aggregates a window of frames, one (w, n, n) slice of a
metric's stack, first: a pair is connected iff its per-frame condition
holds in at least a persistence fraction of the frames where the pair
is valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParamsError, PreconditionError, SizeLimitError
from .metrics import MetricConfig, pair_indices

MAX_CLIQUE_USERS = 64
DEFAULT_RELEVANT_MIN_SIZE = 3


@dataclass
class ClusteringResult:
    """Partition of the users of one frame or chunk as one label row.

    ``labels[i]`` is the cluster of ``users[i]``.  Clusters are numbered in
    extraction order (largest first by construction), then each leftover
    user is a singleton, numbered in user order.
    """

    ident: int
    users: tuple
    labels: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.labels)
        if a.shape != (len(self.users),) or (a.size and a.dtype.kind not in "iu"):
            raise ValueError(f"labels must hold one integer per user, {len(self.users)} in all")
        a = a.astype(np.intp)
        if a.size and (a.min() < 0 or not np.bincount(a).all()):
            raise ValueError("labels must number the clusters 0..k-1, none of them empty")
        a.flags.writeable = False
        self.labels = a

    @property
    def sizes(self) -> np.ndarray:
        """Member count of each cluster, in cluster order."""
        return np.bincount(self.labels)

    @property
    def clusters(self) -> list:
        """Each cluster's member ids, sorted, in cluster order."""
        labels = self.labels.tolist()
        return [tuple(sorted(u for u, c in zip(self.users, labels) if c == k)) for k in range(len(self.sizes))]


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


def mean_matrix(values: np.ndarray) -> np.ndarray:
    """Per-pair mean over a (w, n, n) window's frames where the pair is valid (not NaN); NaN where none is."""
    if not len(values):
        raise PreconditionError("mean over an empty frame window")
    count = np.count_nonzero(~np.isnan(values), axis=0)
    return np.divide(np.nansum(values, axis=0), count, out=np.full(count.shape, np.nan), where=count > 0)


def persistence_scores(values: np.ndarray, threshold: float) -> np.ndarray:
    """Fraction of a pair's valid frames whose value is >= threshold: the mean of 0/1 indicators, NaN kept."""
    return mean_matrix(np.where(np.isnan(values), np.nan, values >= threshold))


def chunk_adjacency(values: np.ndarray, config: MetricConfig, spec: ChunkSpec) -> np.ndarray:
    """Persistence-filtered adjacency over one (w, n, n) window of a metric's frames."""
    return persistence_scores(values, config.threshold) >= spec.persistence


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


def _check_adjacency(adjacency, users: tuple) -> np.ndarray:
    """``adjacency`` as a boolean n × n array over ``users``: symmetric, with a zero diagonal."""
    n = len(users)
    a = np.asarray(adjacency, dtype=bool)
    if a.shape != (n, n):
        raise ValueError(f"adjacency must be ({n}, {n})")
    if np.any(a != a.T):
        raise ValueError("adjacency must be symmetric")
    if np.any(np.diag(a)):
        raise ValueError("adjacency must have a zero diagonal")
    return a


def _rank_cliques(users: tuple, masks: list, tie: np.ndarray | None) -> list:
    """Maximum cliques best first: highest mean tie value, then smallest member ids."""
    if len(masks) == 1:
        return masks

    def key(mask: int):
        idx = _mask_members(mask)
        if tie is not None and len(idx) >= 2:
            a, b = pair_indices(len(idx))
            members = np.array(idx)
            mean = float(np.mean(tie[members[a], members[b]]))
        else:
            mean = 0.0
        return (-mean, tuple(users[i] for i in idx))

    return sorted(masks, key=key)


def max_clique(adjacency, users: tuple, tie: np.ndarray | None = None) -> tuple:
    """Exact maximum clique of a boolean n × n adjacency over ``users``, as its sorted member ids.

    Among maximum cliques, prefers the highest mean pairwise value in the
    n × n ``tie`` values (0 when absent or for singletons), then the
    smallest member-id list.  Limited to 64 users.
    """
    adjacency = _check_adjacency(adjacency, users)
    n = len(users)
    if n == 0:
        raise PreconditionError("maximum clique of an empty graph is undefined")
    check_clique_size(n)
    masks = _maximum_clique_masks(_neighbor_masks(adjacency), (1 << n) - 1)
    chosen = _rank_cliques(users, masks, tie)[0]
    return tuple(sorted(users[i] for i in _mask_members(chosen)))


def clique_clustering(adjacency, users: tuple, ident: int = 0, tie: np.ndarray | None = None) -> ClusteringResult:
    """Partition a boolean n × n adjacency over ``users`` by repeated maximum-clique extraction.

    Users left without an edge become singletons; ``tie`` breaks ties as in
    ``max_clique``, and ``ident`` names the frame or chunk in the result.
    """
    adjacency = _check_adjacency(adjacency, users)
    n = len(users)
    check_clique_size(n)
    nbr = _neighbor_masks(adjacency)
    remaining = (1 << n) - 1
    labels = np.empty(n, dtype=np.intp)
    k, ranked = 0, []
    while ranked or any(nbr[i] & remaining for i in _mask_members(remaining)):
        # maximum cliques the last extraction left intact are still maximum
        ranked = ranked or _rank_cliques(users, _maximum_clique_masks(nbr, remaining), tie)
        chosen = ranked.pop(0)
        labels[_mask_members(chosen)] = k
        k += 1
        remaining &= ~chosen
        ranked = [m for m in ranked if not m & chosen]
    labels[_mask_members(remaining)] = np.arange(k, k + remaining.bit_count())  # singletons, in user order
    return ClusteringResult(ident=ident, users=users, labels=labels)


def chunk_frame_ranges(n_frames: int, frames_per_chunk: int) -> list:
    """Consecutive frame windows; the trailing partial chunk is kept."""
    if frames_per_chunk < 1:
        raise InvalidParamsError("frames_per_chunk must be >= 1")
    return [
        range(start, min(start + frames_per_chunk, n_frames))
        for start in range(0, n_frames, frames_per_chunk)
    ]
