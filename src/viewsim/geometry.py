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
    """Roll-free camera axes ``(forward, right, up)`` of a viewing direction.

    ``forward`` is ``unit(view)``.  ``right`` is horizontal under world up
    +Y; +Z stands in for world up when the view is parallel to +Y.
    """
    f = unit(view)
    hint = _WORLD_UP if abs(float(np.dot(f, _WORLD_UP))) <= 1.0 - 1e-9 else _WORLD_UP_FALLBACK
    r = unit(np.cross(f, hint))
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


def frustum_planes(position, view, params: FrustumParams = FrustumParams()) -> tuple:
    """Six inward planes ``(normals, offsets)``: apex at ``position``, opening along ``view``.

    x is inside iff ``normals @ x + offsets >= 0`` for every plane.
    """
    a = as_vec3(position)
    f, r, u = view_basis(view)
    ch, sh = math.cos(params.hfov / 2.0), math.sin(params.hfov / 2.0)
    cv, sv = math.cos(params.vfov / 2.0), math.sin(params.vfov / 2.0)
    normals = np.array(
        [
            f,                    # near
            -f,                   # far
            r * ch + f * sh,      # left (inward)
            -r * ch + f * sh,     # right
            u * cv + f * sv,      # bottom
            -u * cv + f * sv,     # top
        ]
    )
    anchors = np.array([a + params.near * f, a + params.far * f, a, a, a, a])
    offsets = -np.einsum("ij,ij->i", normals, anchors)
    return normals, offsets


def contains_points(planes: tuple, points: np.ndarray) -> np.ndarray:
    """Closed-boundary containment mask of an (N, 3) array in ``(normals, offsets)``."""
    normals, offsets = planes
    return np.all(np.asarray(points, dtype=np.float64) @ normals.T + offsets >= 0.0, axis=1)


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
    ray starts at ``position`` and runs along ``unit(view)``.
    """
    if not (0.0 < cone_half_angle <= math.pi / 4.0):
        raise InvalidParamsError(f"cone_half_angle must lie in (0, pi/4], got {cone_half_angle}")
    pos = as_vec3(position)
    f = unit(view)
    rel = cloud.points - pos
    depth = rel @ f
    norm = np.linalg.norm(rel, axis=1)
    # angle <= half_angle  <=>  depth >= |rel| * cos(half_angle), depth > 0
    mask = (depth > 0.0) & (depth >= norm * math.cos(cone_half_angle))
    if not np.any(mask):
        return None
    hits = np.flatnonzero(mask)
    best = hits[int(np.argmin(depth[hits]))]
    p = cloud.points[best].copy()
    return p, float(np.linalg.norm(p - pos))


@dataclass
class SurfaceGraph:
    """k-NN graph over one cloud frame for geodesic distance queries."""

    points: np.ndarray
    adjacency: csr_matrix
    _tree: cKDTree

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    def nearest_index(self, point) -> int:
        """Graph vertex closest to an arbitrary point (snap for queries)."""
        _, idx = self._tree.query(as_vec3(point))
        return int(idx)


def build_surface_graph(cloud: PointCloudFrame, k: int = DEFAULT_SURFACE_KNN) -> SurfaceGraph:
    """Union-symmetrized k-nearest-neighbour graph with Euclidean weights.

    Duplicate points produce explicit zero-weight edges, which the sparse
    shortest-path backend honours as true zero-length links.
    """
    from scipy.sparse import csr_matrix
    from scipy.spatial import cKDTree

    if k < 1:
        raise InvalidParamsError(f"k must be >= 1, got {k}")
    pts = cloud.points
    n = pts.shape[0]
    tree = cKDTree(pts)
    dist, idx = tree.query(pts, k=min(k + 1, n))
    dist, idx = dist.reshape(n, -1)[:, 1:], idx.reshape(n, -1)[:, 1:]
    # Drop self pairs that sneak in when duplicates outnumber k.
    keep = idx != np.arange(n)[:, None]
    w = dist[keep]
    # Directed edges carry ids 1..E; the union keeps either id of a pair (both name bit-equal
    # weights), and no id is zero, so no edge is pruned, zero-weight ones included.
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    ids = csr_matrix((np.arange(1, w.size + 1), idx[keep], indptr), shape=(n, n))
    union = ids.maximum(ids.T.tocsr())
    union.sort_indices()
    adj = csr_matrix((w[union.data - 1], union.indices, union.indptr), shape=(n, n))
    return SurfaceGraph(points=pts, adjacency=adj, _tree=tree)


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
