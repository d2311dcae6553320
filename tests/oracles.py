"""Independent reference implementations the test suite checks against.

Everything here is deliberately written the slow, obvious way (pure Python
loops, Fractions, exhaustive enumeration) and shares no code with the
package beyond reading its public data structures.  Two exceptions:
``metric_value`` measures graph distances with the package's
``geodesic_distance`` (checked against closed forms by criterion 4), and
``clique_clustering_oracle`` searches each sub-graph with the package's
``max_clique`` (checked against exhaustive enumeration by criterion 5).
"""

import heapq
import itertools
import math
from fractions import Fraction

import numpy as np

from viewsim.clustering import Cluster, ClusteringResult, SimilarityGraph, max_clique
from viewsim.errors import MissingGraphError
from viewsim.geometry import geodesic_distance
from viewsim.metrics import MetricId, SimilarityMatrix


def viewport_set_oracle(frustum, points):
    """Per-point six-plane containment, one plane inequality at a time."""
    planes = [
        (float(n[0]), float(n[1]), float(n[2]), float(d))
        for n, d in zip(frustum.normals, frustum.offsets)
    ]
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
    """Repeated extraction on rebuilt sub-graphs, one max_clique per step."""
    users = graph.users
    index = {u: i for i, u in enumerate(users)}
    remaining = list(range(len(users)))
    clusters = []
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
                valid=tie_matrix.valid[np.ix_(remaining, remaining)],
            )
        clique = max_clique(sub_graph, sub_tie)
        clusters.append(clique)
        taken = {index[u] for u in clique.members}
        remaining = [i for i in remaining if i not in taken]
    for i in remaining:
        clusters.append(Cluster(members=(users[i],)))
    return ClusteringResult(ident=graph.ident, users=users, clusters=clusters)


def overlap_per_cluster_oracle(cluster, overlap):
    """Mean over the valid member pairs, visited a < b in member order."""
    index = {u: i for i, u in enumerate(overlap.users)}
    idx = [index[u] for u in cluster.members]
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
    for cluster in result.clusters:
        idx = [index[u] for u in cluster.members]
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
    if metric.needs_geodesic and graph is None:
        raise MissingGraphError(f"{metric.value} needs a surface graph")
    if si.p is None or sj.p is None:
        return math.nan
    if metric is MetricId.W2:
        return _kernel(reg.alpha, abs(si.r - sj.r))
    if metric.needs_geodesic:
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
