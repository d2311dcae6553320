"""View frusta, gaze ray casting, and point-cloud surface distances.

Conventions used throughout the package:

* a viewer is a position plus a viewing direction, nothing else: frusta
  are roll-free, their right axis horizontal under world up +Y (+Z when
  the view is vertical);
* quaternions are scalar-first ``(w, x, y, z)`` and unit length; the
  viewing direction is their local −Z axis and their roll is discarded;
* the frustum boundary is closed: a point exactly on a plane is inside;
* geodesic distances live on a k-nearest-neighbour surface graph and are
  ``+inf`` between disconnected components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidParamsError, MissingGraphError

if TYPE_CHECKING:  # scipy loads only when a surface graph is built or searched
    from scipy.sparse import csr_matrix
    from scipy.spatial import cKDTree

DEFAULT_HFOV = 1.5708
DEFAULT_VFOV = 1.5708
DEFAULT_NEAR = 0.05
DEFAULT_FAR = 100.0
DEFAULT_CONE_HALF_ANGLE = 0.035
DEFAULT_SURFACE_KNN = 8

_WORLD_UP = np.array([0.0, 1.0, 0.0])
_WORLD_UP_FALLBACK = np.array([0.0, 0.0, 1.0])
_SWEEP_CELLS = 1 << 20  # distances one batch of shortest-path sweeps may hold
_SCAN_BLOCK = 1 << 16  # cloud points one per-frame scan holds per user at once
_ZERO = 5e-324  # a zero edge weight while scipy's maximum, which prunes zeros, runs; a distance is 0 or >= 2e-162


def as_vec3(v) -> np.ndarray:
    """Coerce to a finite float64 vector of shape (3,)."""
    a = np.asarray(v, dtype=np.float64).reshape(-1)
    if a.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {np.asarray(v).shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"non-finite 3-vector: {a}")
    return a


def unit(v) -> np.ndarray:
    """A 3-vector divided by its norm: ``unit_rows`` of ``as_vec3(v)``."""
    return unit_rows(as_vec3(v))


def norms(v) -> np.ndarray:
    """The norm of every vector along the last axis, kept as a length-1 axis, bit for bit.

    The norm is a per-row dot product, ``v[..., None, :] @ v[..., :, None]``,
    because matmul runs the one-vector ``np.linalg.norm``'s dot kernel on each row;
    ``norm(axis=-1)``, ``einsum`` and ``(v * v).sum(-1)`` round differently in the last bit.
    A norm whose square overflows is ``inf``, without a warning.
    """
    v = np.ascontiguousarray(v, dtype=np.float64)
    with np.errstate(over="ignore"):
        return np.sqrt(v[..., None, :] @ v[..., :, None])[..., 0]


def unit_rows(v: np.ndarray) -> np.ndarray:
    """Every vector along the last axis divided by its ``norms``; a zero, non-finite or overflowing norm is refused."""
    n = norms(v)
    if not np.all((n > 0.0) & (n < math.inf)):  # a NaN or infinite row has a NaN or infinite norm
        raise ValueError("cannot normalize a zero or non-finite vector or one whose norm overflows")
    return v / n


def quat_to_matrix(q) -> np.ndarray:
    """Rotation matrices of unit quaternions (w, x, y, z) along the last axis: (..., 4) to (..., 3, 3)."""
    w, x, y, z = np.moveaxis(np.asarray(q, dtype=np.float64), -1, 0)
    return np.stack(
        [
            1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
            2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
            2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
        ],
        axis=-1,
    ).reshape(np.shape(w) + (3, 3))


def quat_from_matrix(rot: np.ndarray) -> np.ndarray:
    """Unit quaternion (w, x, y, z) of a rotation matrix, w >= 0."""
    m = np.asarray(rot, dtype=np.float64)
    t = float(np.trace(m))
    if t > 0.0:
        s = math.sqrt(t + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s]
        )
    else:
        i = int(np.argmax(np.diag(m)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = math.sqrt(max(m[i, i] - m[j, j] - m[k, k], 0.0) + 1.0) * 2.0
        q = np.empty(4)
        q[0] = (m[k, j] - m[j, k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (m[j, i] + m[i, j]) / s
        q[1 + k] = (m[k, i] + m[i, k]) / s
    if q[0] < 0.0:
        q = -q
    return unit_rows(q)


def view_basis(view) -> tuple:
    """Roll-free camera axes ``(forward, right, up)`` of a viewing direction, or of each row of an (n, 3) array.

    ``forward`` is ``unit(view)`` (``unit_rows`` for rows).  ``right`` is
    horizontal under world up +Y; +Z stands in for world up when ``forward``
    is within 1e-9 of parallel to +Y (its y component is ``forward · +Y``, bit for bit).
    """
    f = unit(view) if np.ndim(view) == 1 else unit_rows(view)
    vertical = np.abs(f[..., 1:2]) > 1.0 - 1e-9
    r = unit_rows(np.cross(f, np.where(vertical, _WORLD_UP_FALLBACK, _WORLD_UP)))
    return f, r, np.cross(r, f)


def view_quaternion(view) -> np.ndarray:
    """Unit quaternion whose local −Z axis is ``view``, roll-free."""
    f, r, u = view_basis(view)
    # Columns are the world images of camera right (+X), up (+Y), back (+Z).
    return quat_from_matrix(np.column_stack([r, u, -f]))


@dataclass(frozen=True)
class FrustumParams:
    """Symmetric perspective frustum angles and clip distances."""

    hfov: float = DEFAULT_HFOV
    vfov: float = DEFAULT_VFOV
    near: float = DEFAULT_NEAR
    far: float = DEFAULT_FAR

    def __post_init__(self):
        if not (0.0 < self.hfov < math.pi) or not (0.0 < self.vfov < math.pi):
            raise InvalidParamsError(
                f"field of view must lie in (0, pi): hfov={self.hfov} vfov={self.vfov}"
            )
        if not (0.0 < self.near < self.far) or not math.isfinite(self.far):
            raise InvalidParamsError(f"need 0 < near < far, got near={self.near} far={self.far}")


def frusta(x, view, params: FrustumParams = FrustumParams()) -> tuple:
    """Six inward planes of every viewer at once: (n, 6, 3) ``normals`` and (n, 6) ``offsets``.

    Row k is the frustum with apex ``x[k]`` opening along ``view[k]``: a point
    p is inside iff ``normals[k] @ p + offsets[k] >= 0`` for every plane.  A
    non-finite row is refused with ``as_vec3``'s error for the first viewer
    holding one, position before view.
    """
    a, v = np.asarray(x, dtype=np.float64), np.asarray(view, dtype=np.float64)
    bad = ~(np.isfinite(a).all(axis=1) & np.isfinite(v).all(axis=1))
    if bad.any():  # as_vec3 raises for the first such viewer
        k = int(np.argmax(bad))
        as_vec3(a[k])
        as_vec3(v[k])
    f, r, u = view_basis(v)
    ch, sh = math.cos(params.hfov / 2.0), math.sin(params.hfov / 2.0)
    cv, sv = math.cos(params.vfov / 2.0), math.sin(params.vfov / 2.0)
    normals = np.stack(
        [
            f,                    # near
            -f,                   # far
            r * ch + f * sh,      # left (inward)
            -r * ch + f * sh,     # right
            u * cv + f * sv,      # bottom
            -u * cv + f * sv,     # top
        ],
        axis=1,
    )
    anchors = np.stack([a + params.near * f, a + params.far * f, a, a, a, a], axis=1)
    offsets = -np.einsum("kij,kij->ki", normals, anchors)
    return normals, offsets


def frustum_planes(position, view, params: FrustumParams = FrustumParams()) -> tuple:
    """One viewer's six inward planes ``(normals, offsets)``: the one-row case of ``frusta``."""
    normals, offsets = frusta(as_vec3(position)[None], as_vec3(view)[None], params)
    return normals[0], offsets[0]


def point_blocks(n: int):
    """Consecutive slices covering ``range(n)``, each of at most ``_SCAN_BLOCK`` points: how every cloud scan walks a cloud."""
    return (slice(lo, min(lo + _SCAN_BLOCK, n)) for lo in range(0, n, _SCAN_BLOCK))


def contains_points(planes: tuple, points: np.ndarray) -> np.ndarray:
    """Closed-boundary containment mask of an (N, 3) array in ``(normals, offsets)``.

    With the (6, N) product ``d = normals @ points.T``, a point is inside iff
    ``d[j] >= -offsets[j]`` for every plane j, each test reading one contiguous
    row.  That is ``np.all(d.T + offsets >= 0.0, axis=1)`` bit for bit, since
    rounding keeps the sign of a sum: fl(d + o) >= 0 iff d >= -o.
    """
    normals, offsets = planes
    d = normals @ np.asarray(points, dtype=np.float64).T
    inside = d[0] >= -offsets[0]
    for j in range(1, len(offsets)):
        inside &= d[j] >= -offsets[j]
    return inside


@dataclass(frozen=True)
class PointCloudFrame:
    """One frame of content: an (N, 3) float64 array plus its centroid."""

    frame_index: int
    points: np.ndarray
    centroid: np.ndarray = field(init=False)

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=np.float64))
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] == 0:
            raise ValueError(f"points must be a non-empty (N, 3) array, got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("point cloud contains non-finite coordinates")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "centroid", pts.mean(axis=0))

    def __len__(self) -> int:
        return self.points.shape[0]


def ray_cast_center(
    position, view, cloud: PointCloudFrame, cone_half_angle: float = DEFAULT_CONE_HALF_ANGLE
):
    """Viewport centre on the content, or None when the gaze misses it.

    Among cloud points lying within ``cone_half_angle`` of the forward ray,
    picks the one with the smallest depth along the ray (first index on
    exact ties) and returns ``(p, r)`` with ``r = |p - position|``.  The
    ray starts at ``position`` and runs along ``unit(view)``.  The cloud is
    scanned in ``point_blocks``, so at most one block's temporaries are held:
    its offsets from ``position``, squared in place, and a few per-point
    rows.  Each offset's norm is ``np.sqrt((sq[:, 0] + sq[:, 1]) + sq[:, 2])``
    with ``sq = rel * rel``: the sum ``np.linalg.norm(rel, axis=1)`` takes,
    bit for bit.
    """
    if not (0.0 < cone_half_angle <= math.pi / 4.0):
        raise InvalidParamsError(f"cone_half_angle must lie in (0, pi/4], got {cone_half_angle}")
    pos = as_vec3(position)
    f = unit(view)
    cos = math.cos(cone_half_angle)
    best, best_depth = -1, math.inf
    buffer = np.empty((min(len(cloud), _SCAN_BLOCK), 3))  # one block's offsets from pos, then their squares
    for s in point_blocks(len(cloud)):
        rel = np.subtract(cloud.points[s], pos, out=buffer[:s.stop - s.start])
        depth = rel @ f
        sq = np.multiply(rel, rel, out=rel)  # rel is not read again
        # angle <= half_angle  <=>  depth >= |rel| * cos(half_angle), depth > 0
        hits = np.flatnonzero((depth > 0.0) & (depth >= np.sqrt((sq[:, 0] + sq[:, 1]) + sq[:, 2]) * cos))
        if hits.size:
            i = hits[int(np.argmin(depth[hits]))]
            if depth[i] < best_depth:  # strict, so an earlier block keeps an equal depth
                best, best_depth = s.start + int(i), depth[i]
    if best < 0:
        return None
    p = cloud.points[best].copy()
    return p, float(np.linalg.norm(p - pos))


@dataclass
class SurfaceGraph:
    """k-NN graph over one cloud frame for geodesic distance queries."""

    adjacency: csr_matrix
    _tree: cKDTree

    @property
    def n_points(self) -> int:
        return self.adjacency.shape[0]

    def nearest(self, points) -> np.ndarray:
        """The graph vertex closest to each row of the m×3 ``points``, from one tree query (snap for queries)."""
        return self._tree.query(points)[1]


def build_surface_graph(cloud: PointCloudFrame, k: int = DEFAULT_SURFACE_KNN) -> SurfaceGraph:
    """Union-symmetrized k-nearest-neighbour graph with Euclidean weights.

    Duplicate points produce explicit zero-weight edges, which the sparse
    shortest-path backend honours as true zero-length links.  The tree is
    queried in ``point_blocks``; besides the tree, at most the directed kNN
    edges, their transpose and scipy's union buffer are held at once, and the
    stored arrays hold exactly the graph's entries.
    """
    from scipy.sparse import csr_matrix
    from scipy.spatial import cKDTree

    if k < 1:
        raise InvalidParamsError(f"k must be >= 1, got {k}")
    pts = cloud.points
    n = pts.shape[0]
    tree = cKDTree(pts)
    itype = np.int32 if 2 * n * k <= np.iinfo(np.int32).max else np.int64  # scipy's index type for the union's buffer
    indptr = np.zeros(n + 1, dtype=itype)
    weights, cols = [], []
    for s in point_blocks(n):
        dist, idx = tree.query(pts[s], k=min(k + 1, n))
        dist, idx = dist.reshape(s.stop - s.start, -1)[:, 1:], idx.reshape(s.stop - s.start, -1)[:, 1:]
        # Drop self pairs that sneak in when duplicates outnumber k.
        keep = idx != np.arange(s.start, s.stop)[:, None]
        indptr[s.start + 1:s.stop + 1] = keep.sum(axis=1)
        weights.append(dist[keep])
        cols.append(idx[keep].astype(itype))
        del dist, idx, keep  # this block's query buffers are not held through the union
    w = np.concatenate(weights)
    del weights
    w[w == 0.0] = _ZERO  # kept through the union: scipy's maximum prunes explicit zeros
    directed = csr_matrix((w, np.concatenate(cols), np.cumsum(indptr, out=indptr)), shape=(n, n))
    del w, cols
    # A pair found from both ends carries bit-equal weights, so the union's maximum is either.
    union = directed.maximum(directed.T.tocsr())
    del directed
    union.sort_indices()
    data = union.data.copy()  # exact-size: scipy's union buffer is sized for both operands
    data[data == _ZERO] = 0.0
    adj = csr_matrix((data, union.indices.copy(), union.indptr), shape=(n, n))
    return SurfaceGraph(adjacency=adj, _tree=tree)


def geodesic_rows(graph: SurfaceGraph, sources, targets) -> np.ndarray:
    """Shortest-path distances from each source vertex (rows) to each target vertex (columns).

    Sources are swept in batches whose full rows hold at most _SWEEP_CELLS
    distances; only the target columns of each batch are kept.
    """
    if graph is None:
        raise MissingGraphError("geodesic distance requested without a surface graph")
    from scipy.sparse.csgraph import dijkstra

    src = np.asarray(sources, dtype=np.int64)
    cols = np.asarray(targets, dtype=np.int64)
    out = np.empty((src.size, cols.size))
    step = max(1, _SWEEP_CELLS // graph.n_points)
    for lo in range(0, src.size, step):
        # one expression, so a batch's full rows are freed before the next batch is swept
        out[lo:lo + step] = np.atleast_2d(
            dijkstra(graph.adjacency, directed=True, indices=src[lo:lo + step])  # the adjacency is symmetric
        )[:, cols]
    return out
