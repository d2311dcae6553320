"""Independent reference implementations the test suite checks against.

Everything here is deliberately written the slow, obvious way (pure Python
loops, Fractions, exhaustive enumeration) and shares no code with the
package beyond reading its public data structures.  The exceptions:
``geodesic_distance`` snaps with ``SurfaceGraph.nearest_index`` and
measures with the package's ``geodesic_rows`` (checked against closed
forms by criterion 4 and against ``dijkstra_oracle``), and ``metric_value``
measures graph distances with it; ``clique_clustering_oracle`` searches
each sub-graph with the package's ``max_clique`` (checked against
exhaustive enumeration by criterion 5).  ``ablate_oracle`` is the
regulator sweep's former separate loop: it checks what the sweep averages,
in which order and with which parameters, and clusters and scores with the
package's functions (checked by criteria 5 and 6 and their oracles).
``adjusted_rand_index`` scores recovered partitions for criterion 6 and is
itself checked against ``ari_oracle``.  ``overlap_product_oracle`` is the
unchunked overlap: one n × N float64 mask product over
``frustum_planes_oracle`` and ``contains_points_oracle``, sharing no kernel
with the package, the reference for the point-blocked ``overlap_matrix``.
``frustum_planes_oracle``, ``contains_points_oracle`` and
``ray_cast_center_oracle`` build one viewer's frustum alone, test
containment with one (N, 6) sum and reduction, and cast a gaze ray with
``np.linalg.norm``; they pin ``frusta``, ``contains_points`` and
``ray_cast_center`` bit for bit.
"""

import csv
import heapq
import itertools
import math
from fractions import Fraction

import numpy as np

from viewsim.calibration import (
    DEFAULT_GRID,
    DEFAULT_OVERLAP_LABEL_THRESHOLD,
    AblationRecord,
    regulator_grid,
)
from viewsim.clustering import (
    SimilarityGraph,
    build_adjacency,
    clique_clustering,
    max_clique,
)
from viewsim.errors import InvalidParamsError, MissingGraphError, PreconditionError
from viewsim.evaluation import aggregate, evaluate_result
from viewsim.geometry import DEFAULT_CONE_HALF_ANGLE, geodesic_rows
from viewsim.metrics import MetricConfig, MetricId, SimilarityMatrix
from viewsim.trajectories import Trace


def unit_oracle(v) -> np.ndarray:
    """A vector divided by its ``np.linalg.norm``; a zero norm, or one that overflows, is refused."""
    a = np.asarray(v, dtype=np.float64)
    with np.errstate(over="ignore"):  # an overflowing norm is refused below
        n = float(np.linalg.norm(a))
    if not 0.0 < n < math.inf:
        raise ValueError("cannot normalize a zero vector or one whose norm overflows")
    return a / n


def read_ascii_ply_oracle(path) -> np.ndarray:
    """x, y, z of a well-formed ASCII PLY's vertex rows, one ``float()`` per coordinate token.

    Each element before ``vertex`` is skipped a line per row; each vertex
    row must hold one token per property, and only its coordinate tokens
    are parsed.
    """
    with open(path, "rb") as fh:
        elements = []  # (name, count, property names), in declared order
        for raw in fh:
            parts = raw.split()
            if parts[0] == b"end_header":
                break
            if parts[0] == b"element":
                elements.append((parts[1], int(parts[2]), []))
            elif parts[0] == b"property":
                elements[-1][2].append(parts[-1])
        for name, count, props in elements:
            rows = [fh.readline() for _ in range(count)]
            if name != b"vertex":
                continue
            cols = [props.index(c) for c in (b"x", b"y", b"z")]
            out = np.empty((count, 3), dtype=np.float64)
            for i, raw in enumerate(rows):
                toks = raw.split()
                if len(toks) != len(props):
                    raise ValueError(f"vertex row {i} has {len(toks)} values, expected {len(props)}")
                for j, c in enumerate(cols):
                    out[i, j] = float(toks[c])
            return out
    raise ValueError("no vertex element")


def load_trajectories_oracle(path):
    """``{user_id: Trace}`` of a well-formed trajectory CSV, one row at a time.

    Each quaternion is divided by its ``np.linalg.norm``, its rotation matrix
    is built from Python floats, and the matrix's -Z image is normalised with
    ``unit_oracle``.  Users come out sorted and each user's rows in time order.
    """
    by_user = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        with_pr = len(next(reader)) > 9
        for row in reader:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            t, *x = (float(v) for v in row[1:5])
            q = np.array([float(v) for v in row[5:9]])
            w, qx, qy, qz = (float(c) for c in q / np.linalg.norm(q))
            rot = np.array([
                [1 - 2 * (qy * qy + qz * qz), 2 * (qx * qy - w * qz), 2 * (qx * qz + w * qy)],
                [2 * (qx * qy + w * qz), 1 - 2 * (qx * qx + qz * qz), 2 * (qy * qz - w * qx)],
                [2 * (qx * qz - w * qy), 2 * (qy * qz + w * qx), 1 - 2 * (qx * qx + qy * qy)],
            ])
            view = unit_oracle(rot @ np.array([0.0, 0.0, -1.0]))
            given = with_pr and bool(row[9].strip())
            p = np.array([float(v) for v in row[9:12]]) if given else np.full(3, np.nan)
            r = float(row[12]) if given else math.nan
            by_user.setdefault(row[0].strip(), []).append((t, x, view, p, r, with_pr and not given))
    out = {}
    for uid in sorted(by_user):
        samples = sorted(by_user[uid], key=lambda s: s[0])
        out[uid] = Trace(*(np.array(col) for col in zip(*samples)))
    return out


def align_to_frames_oracle(traces, fps, n_frames=None):
    """Nearest raw sample per user and frame, one frame at a time.

    Returns {name: U×F array} for x, view, p, r and off, users in dict order.
    """
    if n_frames is None:
        n_frames = min(int(round(float(tr.t[-1]) * fps)) + 1 for tr in traces.values())
    half = 0.5 / fps
    out = {name: [] for name in ("x", "view", "p", "r", "off")}
    for tr in traces.values():
        times = tr.t
        rows = {name: [] for name in out}
        for k in range(n_frames):
            tk = k / fps
            j = int(np.searchsorted(times, tk))
            if j == len(times):
                j -= 1
            elif j > 0 and tk - times[j - 1] <= times[j] - tk:
                j -= 1  # earlier sample on exact ties
            off = bool(abs(times[j] - tk) > half + 1e-12 or tr.off[j])
            rows["x"].append(tr.x[j].copy())
            rows["view"].append(unit_oracle(tr.view[j]))
            rows["p"].append(np.full(3, np.nan) if off else tr.p[j].copy())
            rows["r"].append(math.nan if off else float(tr.r[j]))
            rows["off"].append(off)
        for name, col in rows.items():
            out[name].append(col)
    return {name: np.array(col) for name, col in out.items()}


def viewport_set_oracle(planes, points):
    """Per-point six-plane containment, one plane inequality at a time.

    ``planes`` is a ``(normals, offsets)`` pair as ``frustum_planes`` returns.
    """
    planes = [(float(n[0]), float(n[1]), float(n[2]), float(d)) for n, d in zip(*planes)]
    out = set()
    for idx in range(len(points)):
        x, y, z = (float(points[idx][0]), float(points[idx][1]), float(points[idx][2]))
        inside = True
        for a, b, c, d in planes:
            if a * x + b * y + c * z + d < 0.0:
                inside = False
        if inside:
            out.add(idx)
    return out


def frustum_planes_oracle(position, view, params) -> tuple:
    """One viewer's six inward planes, built alone: a ``unit_oracle`` basis and a 6 × 3 ``einsum`` for the offsets.

    The right axis is horizontal under world up +Y, or under +Z when
    ``np.dot(forward, +Y)`` is beyond 1 - 1e-9 in magnitude.
    """
    a = np.asarray(position, dtype=np.float64)
    f = unit_oracle(view)
    up = [0.0, 1.0, 0.0] if abs(float(np.dot(f, [0.0, 1.0, 0.0]))) <= 1.0 - 1e-9 else [0.0, 0.0, 1.0]
    r = unit_oracle(np.cross(f, up))
    u = np.cross(r, f)
    ch, sh = math.cos(params.hfov / 2.0), math.sin(params.hfov / 2.0)
    cv, sv = math.cos(params.vfov / 2.0), math.sin(params.vfov / 2.0)
    normals = np.array([f, -f, r * ch + f * sh, -r * ch + f * sh, u * cv + f * sv, -u * cv + f * sv])
    anchors = np.array([a + params.near * f, a + params.far * f, a, a, a, a])
    return normals, -np.einsum("ij,ij->i", normals, anchors)


def contains_points_oracle(planes, points) -> np.ndarray:
    """Containment as one (N, 6) sum and reduction: ``np.all(points @ normals.T + offsets >= 0.0, axis=1)``."""
    normals, offsets = planes
    return np.all(np.asarray(points, dtype=np.float64) @ normals.T + offsets >= 0.0, axis=1)


def ray_cast_center_oracle(position, view, cloud, cone_half_angle=DEFAULT_CONE_HALF_ANGLE):
    """The gaze ray cast over the whole cloud at once, each offset's norm from ``np.linalg.norm(axis=1)``.

    Returns ``(p, r)`` for the in-cone point of smallest depth, the first
    index on equal depths, or None when no point is in the cone.
    """
    pos = np.asarray(position, dtype=np.float64)
    f = unit_oracle(view)
    rel = cloud.points - pos
    depth = rel @ f
    hits = np.flatnonzero((depth > 0.0) & (depth >= np.linalg.norm(rel, axis=1) * math.cos(cone_half_angle)))
    if not hits.size:
        return None
    p = cloud.points[hits[int(np.argmin(depth[hits]))]].copy()
    return p, float(np.linalg.norm(p - pos))


def overlap_product_oracle(x, view, off, cloud, params) -> np.ndarray:
    """Overlap values of one frame from a whole n × N float64 mask and one product, NaN where invalid."""
    n = len(off)
    present = ~np.asarray(off, dtype=bool)
    masks = np.zeros((n, cloud.points.shape[0]), dtype=np.float64)
    for k in np.flatnonzero(present):
        masks[k] = contains_points_oracle(frustum_planes_oracle(x[k], view[k], params), cloud.points)
    inter = masks @ masks.T
    sizes = np.diag(inter).copy()
    union = sizes[:, None] + sizes[None, :] - inter
    valid = (union > 0) & present[:, None] & present[None, :] & ~np.eye(n, dtype=bool)
    values = np.full((n, n), np.nan)
    values[valid] = inter[valid] / union[valid]
    return values


def jaccard_fraction(set_i, set_j) -> Fraction:
    si, sj = set(set_i), set(set_j)
    union = si | sj
    if not union:
        raise ValueError("undefined for two empty sets")
    return Fraction(len(si & sj), len(union))


def graph_edges(graph):
    """(i, j, w) triples of a SurfaceGraph's sparse adjacency, i < j."""
    coo = graph.adjacency.tocoo()
    seen = {}
    for i, j, w in zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()):
        if i < j:
            key = (i, j)
            seen[key] = min(w, seen[key]) if key in seen else w
    return [(i, j, w) for (i, j), w in sorted(seen.items())]


def surface_adjacency_oracle(points, k):
    """Union-symmetrized kNN adjacency by sorting and deduplicating edge pairs.

    Each undirected pair keeps the weight its lower-index endpoint measured;
    self pairs (duplicates outnumbering k) are dropped, zero weights kept.
    """
    from scipy.sparse import csr_matrix
    from scipy.spatial import cKDTree

    n = points.shape[0]
    kq = min(k + 1, n)
    dist, idx = cKDTree(points).query(points, k=kq)
    if kq == 1:
        dist = dist[:, None]
        idx = idx[:, None]
    src = np.repeat(np.arange(n), kq - 1) if kq > 1 else np.empty(0, dtype=np.int64)
    dst = idx[:, 1:].reshape(-1) if kq > 1 else np.empty(0, dtype=np.int64)
    w = dist[:, 1:].reshape(-1) if kq > 1 else np.empty(0)
    keep = src != dst
    src, dst, w = src[keep], dst[keep], w[keep]
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    order = np.lexsort((hi, lo))
    lo, hi, w = lo[order], hi[order], w[order]
    if lo.size:
        first = np.ones(lo.size, dtype=bool)
        first[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
        lo, hi, w = lo[first], hi[first], w[first]
    rows = np.concatenate([lo, hi])
    cols = np.concatenate([hi, lo])
    adj = csr_matrix((np.concatenate([w, w]), (rows, cols)), shape=(n, n))
    adj.sort_indices()
    return adj


def dijkstra_oracle(n_vertices, edges, source):
    """Binary-heap Dijkstra over an undirected weighted edge list."""
    adj = [[] for _ in range(n_vertices)]
    for i, j, w in edges:
        adj[i].append((j, w))
        adj[j].append((i, w))
    dist = [math.inf] * n_vertices
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def geodesic_distance(graph, a, b) -> float:
    """Shortest-path length between the vertices nearest a and b; +inf across components."""
    ia, ib = graph.nearest_index(a), graph.nearest_index(b)
    return 0.0 if ia == ib else float(geodesic_rows(graph, [ia], [ib])[0, 0])


def max_cliques_oracle(adj):
    """All maximum cliques of a boolean adjacency matrix, by enumeration.

    Exponential; callers keep n <= ~15.  Returns (size, set of member
    tuples).  The empty graph on n >= 1 vertices has max cliques of size 1.
    """
    n = adj.shape[0]
    nbr = [int(sum(1 << j for j in range(n) if adj[i, j])) for i in range(n)]
    best_size = 0
    best = set()
    for mask in range(1, 1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        ok = all(mask & ~(nbr[i] | (1 << i)) == 0 for i in members)
        if not ok:
            continue
        if len(members) > best_size:
            best_size = len(members)
            best = {tuple(members)}
        elif len(members) == best_size:
            best.add(tuple(members))
    return best_size, best


def pick_clique_oracle(cliques, tie_values, users):
    """Mean-tie-value argmax, then lexicographically smallest user tuple."""
    def key(members):
        pairs = list(itertools.combinations(members, 2))
        if pairs:
            vals = [tie_values[i, j] for i, j in pairs]
            vals = [v for v in vals if not math.isnan(v)]
            mean = sum(vals) / len(vals) if vals else -math.inf
        else:
            mean = -math.inf
        return (-mean, tuple(users[i] for i in members))
    return min(cliques, key=key)


def clique_clustering_oracle(graph, tie_matrix=None):
    """Repeated extraction on rebuilt sub-graphs, one max_clique per step, as a label row.

    ``labels[i]`` is the cluster of ``graph.users[i]``: cliques numbered in
    extraction order, then each leftover user a singleton, in user order.
    """
    users = graph.users
    index = {u: i for i, u in enumerate(users)}
    remaining = list(range(len(users)))
    labels = [None] * len(users)
    n_clusters = 0
    while remaining:
        sub_adj = graph.adjacency[np.ix_(remaining, remaining)]
        if not sub_adj.any():
            break
        sub_users = tuple(users[i] for i in remaining)
        sub_graph = SimilarityGraph(ident=graph.ident, users=sub_users, adjacency=sub_adj)
        sub_tie = None
        if tie_matrix is not None:
            sub_tie = SimilarityMatrix(
                frame=tie_matrix.frame,
                users=sub_users,
                metric=tie_matrix.metric,
                values=tie_matrix.values[np.ix_(remaining, remaining)],
            )
        taken = {index[u] for u in max_clique(sub_graph, sub_tie)}
        for i in taken:
            labels[i] = n_clusters
        n_clusters += 1
        remaining = [i for i in remaining if i not in taken]
    for i in remaining:
        labels[i] = n_clusters
        n_clusters += 1
    return labels


def overlap_per_cluster_oracle(members, overlap):
    """Mean over the valid member pairs, visited a < b in the matrix's index order."""
    index = {u: i for i, u in enumerate(overlap.users)}
    idx = sorted(index[u] for u in members)
    vals = []
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            i, j = idx[a], idx[b]
            if overlap.valid[i, j]:
                vals.append(float(overlap.values[i, j]))
    return float(np.mean(vals)) if vals else math.nan


def precision_oracle(result, reference, threshold):
    """Hits over valid same-cluster pairs, counted pair by pair."""
    index = {u: i for i, u in enumerate(reference.users)}
    tp = 0
    total = 0
    for members in result.clusters:
        idx = [index[u] for u in members]
        for a in range(len(idx)):
            for b in range(a + 1, len(idx)):
                i, j = idx[a], idx[b]
                if not reference.valid[i, j]:
                    continue
                total += 1
                if reference.values[i, j] >= threshold:
                    tp += 1
    return tp / total if total else math.nan


def roc_oracle(values, labels):
    """(threshold, tpr, fpr) rows by direct counting per candidate."""
    values = [float(v) for v in values]
    labels = [bool(b) for b in labels]
    n_pos = sum(labels)
    n_neg = len(labels) - n_pos
    candidates = sorted(set(values) | {0.0, 1.0})
    rows = []
    for th in candidates:
        tp = sum(1 for v, b in zip(values, labels) if b and v >= th)
        fp = sum(1 for v, b in zip(values, labels) if not b and v >= th)
        rows.append((th, tp / n_pos, fp / n_neg))
    return rows


def ari_oracle(labels_a, labels_b):
    """Adjusted Rand index from the contingency table, comb arithmetic."""
    keys = sorted(labels_a)
    assert sorted(labels_b) == keys
    ca = sorted({labels_a[k] for k in keys})
    cb = sorted({labels_b[k] for k in keys})
    table = np.zeros((len(ca), len(cb)), dtype=np.int64)
    for k in keys:
        table[ca.index(labels_a[k]), cb.index(labels_b[k])] += 1

    def comb2(x):
        return x * (x - 1) // 2

    sum_ij = sum(comb2(int(v)) for v in table.ravel())
    sum_a = sum(comb2(int(v)) for v in table.sum(axis=1))
    sum_b = sum(comb2(int(v)) for v in table.sum(axis=0))
    total = comb2(len(keys))
    expected = Fraction(sum_a * sum_b, total) if total else Fraction(0)
    max_index = Fraction(sum_a + sum_b, 2)
    if max_index == expected:
        return 1.0
    return float((sum_ij - expected) / (max_index - expected))


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


def orbit_position(radius, angular_speed, phase, height, t):
    a = phase + angular_speed * t
    return np.array([radius * math.cos(a), height, radius * math.sin(a)])


def _kernel(alpha, d):
    """exp(-alpha * d), with d = +inf mapped to 0 so a zero alpha cannot bridge it."""
    return 0.0 if math.isinf(d) else math.exp(-alpha * d)


def _euclid(a, b):
    return float(np.linalg.norm(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)))


def metric_value(metric, reg, si, sj, graph=None):
    """One proxy similarity for a pair of samples, one scalar at a time.

    The scalar twin of ``PairFeatures.metric_matrix``.  NaN when the pair is
    invalid for the metric (a user off-content, or a required p/r missing).
    """
    if si.off_content or sj.off_content:
        return math.nan
    pos_kernel = _kernel(reg.alpha, _euclid(si.x, sj.x))
    if metric is MetricId.W1:
        return pos_kernel
    geodesic = metric in (MetricId.W3, MetricId.W5, MetricId.W7)  # written out, not read from metrics.METRICS
    if geodesic and graph is None:
        raise MissingGraphError(f"{metric.value} needs a surface graph")
    if si.p is None or sj.p is None:
        return math.nan
    if metric is MetricId.W2:
        return _kernel(reg.alpha, abs(si.r - sj.r))
    if geodesic:
        gaze = geodesic_distance(graph, si.p, sj.p)
    else:
        gaze = _euclid(si.p, sj.p)
    if metric in (MetricId.W3, MetricId.W4):
        return _kernel(reg.alpha, gaze)
    if metric in (MetricId.W5, MetricId.W6):
        return pos_kernel * _kernel(reg.beta, abs(si.r - sj.r)) * _kernel(reg.gamma, gaze)
    if metric in (MetricId.W7, MetricId.W8):
        return pos_kernel * (reg.beta * (math.tanh(si.r) + math.tanh(sj.r))) * _kernel(reg.gamma, gaze)
    raise ValueError(f"no scalar form for {metric}")


def feature_validity_oracle(r, off):
    """``(pos_valid, pr_valid)``: the pair masks pair features were once stored with.

    A pair has a position feature when both users are on content, and a
    gaze feature when, in addition, both have a viewing distance r.
    """
    present = ~np.asarray(off, dtype=bool)
    on = ~np.isnan(np.asarray(r, dtype=np.float64))
    pos_valid = present[:, None] & present[None, :]
    return pos_valid, pos_valid & on[:, None] & on[None, :]


def metric_validity_oracle(metric, r, off):
    """Where a proxy metric's matrix holds a value: w1 reads positions only, every other proxy p/r too."""
    pos_valid, pr_valid = feature_validity_oracle(r, off)
    valid = pos_valid if metric is MetricId.W1 else pr_valid
    return valid & ~np.eye(len(valid), dtype=bool)


def overlap_validity_oracle(viewports, off):
    """Where an overlap matrix holds a value: two distinct on-content users whose viewport sets are not both empty."""
    n = len(viewports)
    return np.array([
        [i != j and not off[i] and not off[j] and bool(viewports[i] | viewports[j]) for j in range(n)]
        for i in range(n)
    ])


def persistence_scores_oracle(matrices: list, threshold: float) -> SimilarityMatrix:
    """Fraction of a pair's valid frames whose value is >= threshold, counted as hits over valid frames.

    NaN (invalid) for pairs valid in no frame of the window.
    """
    if not matrices:
        raise PreconditionError("persistence over an empty frame window")
    users = matrices[0].users
    metric = matrices[0].metric
    for m in matrices:
        if m.users != users or m.metric is not metric:
            raise InvalidParamsError("all matrices in a chunk must share users and metric")
    vals = np.stack([m.values for m in matrices])
    valid = np.stack([m.valid for m in matrices])
    with np.errstate(invalid="ignore"):
        hits = ((vals >= threshold) & valid).sum(axis=0)
    count = valid.sum(axis=0)
    n = len(users)
    out = np.full((n, n), np.nan)
    ok = count > 0
    out[ok] = hits[ok] / count[ok]
    return SimilarityMatrix(frame=matrices[0].frame, users=users, metric=metric, values=out)


def chunk_adjacency_oracle(matrices: list, config, spec, chunk_id: int) -> SimilarityGraph:
    """Persistence-filtered adjacency over one window of frame matrices."""
    scores = persistence_scores_oracle(matrices, config.threshold)
    with np.errstate(invalid="ignore"):
        adj = scores.valid & (scores.values >= spec.persistence)
    adj &= ~np.eye(scores.n, dtype=bool)
    return SimilarityGraph(ident=chunk_id, users=scores.users, adjacency=adj)


def ablate_oracle(
    content_tables: dict,
    metric: MetricId,
    grid=DEFAULT_GRID,
    fixed: dict | None = None,
    *,
    threshold: float,
    o_th: float = DEFAULT_OVERLAP_LABEL_THRESHOLD,
    min_size: int = 3,
) -> list:
    """One AblationRecord per regulator combination.

    ``content_tables`` maps content id to a list of per-frame pairs
    ``(features, overlap_matrix)``; features are reused across the whole
    grid since regulators factor out of them.  Each combination runs
    frame-based clustering at the metric's fixed ``threshold``; the three
    performance figures are averaged over frames per content, then across
    contents.  Records come out in grid order.
    """
    if metric.is_overlap:
        raise InvalidParamsError("the ground-truth metric is not subject to ablation")
    combos = regulator_grid(metric, grid, fixed)
    records = []
    for reg in combos:
        config = MetricConfig(metric=metric, regulators=reg, threshold=threshold)
        content_means: dict = {"overlap_ratio": [], "relevant_population": [], "precision": []}
        for cid in sorted(content_tables):
            perfs = []
            for features, overlap in content_tables[cid]:
                matrix = features.metric_matrix(metric, reg)
                graph = build_adjacency(matrix, config)
                result = clique_clustering(graph, tie_matrix=matrix)
                perfs.append(
                    evaluate_result(
                        result, overlap, label_threshold=o_th, min_size=min_size
                    )
                )
            for field in content_means:
                stats = aggregate([p[field] for p in perfs])
                content_means[field].append(stats.mean)
        finals = {
            field: aggregate(vals).mean
            for field, vals in content_means.items()
        }
        records.append(AblationRecord(reg, finals))
    return records
