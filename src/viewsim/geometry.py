"""Rigid poses, view frusta, gaze ray casting, and point-cloud distances.

Conventions used throughout the package:

* quaternions are scalar-first ``(w, x, y, z)`` and unit length;
* the viewing direction is the local −Z axis of the orientation;
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


def as_vec3(v) -> np.ndarray:
    """Coerce to a finite float64 vector of shape (3,)."""
    a = np.asarray(v, dtype=np.float64).reshape(-1)
    if a.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {np.asarray(v).shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"non-finite 3-vector: {a}")
    return a


def unit(v) -> np.ndarray:
    a = as_vec3(v)
    n = float(np.linalg.norm(a))
    if n == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return a / n


def quat_to_matrix(q) -> np.ndarray:
    """Rotation matrix of a unit quaternion (w, x, y, z)."""
    w, x, y, z = (float(c) for c in np.asarray(q, dtype=np.float64).reshape(4))
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


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
    return q / np.linalg.norm(q)


@dataclass(frozen=True)
class Pose:
    """Viewer position plus unit orientation quaternion (w, x, y, z)."""

    position: np.ndarray
    orientation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position", as_vec3(self.position))
        q = np.asarray(self.orientation, dtype=np.float64).reshape(-1)
        if q.shape != (4,):
            raise ValueError("orientation must be a quaternion (w, x, y, z)")
        if not np.all(np.isfinite(q)):
            raise ValueError("non-finite quaternion")
        n = float(np.linalg.norm(q))
        if abs(n - 1.0) > 1e-6:
            raise ValueError(f"quaternion norm {n} is not 1 within 1e-6")
        object.__setattr__(self, "orientation", q / n)

    def rotation(self) -> np.ndarray:
        return quat_to_matrix(self.orientation)

    def forward(self) -> np.ndarray:
        """Viewing direction: local −Z in world coordinates."""
        return self.rotation() @ np.array([0.0, 0.0, -1.0])

    def up(self) -> np.ndarray:
        return self.rotation() @ np.array([0.0, 1.0, 0.0])

    def right(self) -> np.ndarray:
        return self.rotation() @ np.array([1.0, 0.0, 0.0])


def look_at(position, target, up=None) -> Pose:
    """Pose at ``position`` whose −Z axis points at ``target``.

    Falls back to an alternate up hint when the view direction is parallel
    to the requested up vector.
    """
    pos = as_vec3(position)
    f = unit(as_vec3(target) - pos)
    hint = _WORLD_UP if up is None else unit(up)
    if abs(float(np.dot(f, hint))) > 1.0 - 1e-9:
        hint = _WORLD_UP_FALLBACK if up is None else _WORLD_UP
        if abs(float(np.dot(f, hint))) > 1.0 - 1e-9:
            hint = np.array([1.0, 0.0, 0.0])
    r = unit(np.cross(f, hint))
    u = np.cross(r, f)
    # Columns are the world images of camera right (+X), up (+Y), back (+Z).
    rot = np.column_stack([r, u, -f])
    return Pose(pos, quat_from_matrix(rot))


def pose_from_view(position, view, up=None) -> Pose:
    """Pose looking along a given direction; roll fixed by the up hint."""
    pos = as_vec3(position)
    return look_at(pos, pos + unit(view), up=up)


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


@dataclass(frozen=True)
class Frustum:
    """Six inward-facing planes; x is inside iff normals @ x + offsets >= 0."""

    apex: np.ndarray
    normals: np.ndarray
    offsets: np.ndarray

    def signed_distances(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.normals.T + self.offsets


def build_frustum(pose: Pose, params: FrustumParams | None = None) -> Frustum:
    """Frustum with apex at the pose position, opening along −Z of the pose."""
    if params is None:
        params = FrustumParams()
    a = pose.position
    f, u, r = pose.forward(), pose.up(), pose.right()
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
    return Frustum(apex=a.copy(), normals=normals, offsets=offsets)


def contains(frustum: Frustum, point) -> bool:
    """Closed-boundary containment test for a single point."""
    d = frustum.signed_distances(as_vec3(point)[None, :])
    return bool(np.all(d >= 0.0))


def contains_points(frustum: Frustum, points: np.ndarray) -> np.ndarray:
    """Boolean mask over an (N, 3) array."""
    return np.all(frustum.signed_distances(points) >= 0.0, axis=1)


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


def viewport_set(frustum: Frustum, cloud: PointCloudFrame) -> np.ndarray:
    """Sorted indices of cloud points inside the frustum."""
    return np.flatnonzero(contains_points(frustum, cloud.points)).astype(np.int64)


def ray_cast_center(
    pose: Pose, cloud: PointCloudFrame, cone_half_angle: float = DEFAULT_CONE_HALF_ANGLE
):
    """Viewport centre on the content, or None when the gaze misses it.

    Among cloud points lying within ``cone_half_angle`` of the forward ray,
    picks the one with the smallest depth along the ray (first index on
    exact ties) and returns ``(p, r)`` with ``r = |p - position|``.
    """
    if not (0.0 < cone_half_angle <= math.pi / 4.0):
        raise InvalidParamsError(f"cone_half_angle must lie in (0, pi/4], got {cone_half_angle}")
    f = pose.forward()
    rel = cloud.points - pose.position
    depth = rel @ f
    norm = np.linalg.norm(rel, axis=1)
    # angle <= half_angle  <=>  depth >= |rel| * cos(half_angle), depth > 0
    mask = (depth > 0.0) & (depth >= norm * math.cos(cone_half_angle))
    if not np.any(mask):
        return None
    hits = np.flatnonzero(mask)
    best = hits[int(np.argmin(depth[hits]))]
    p = cloud.points[best].copy()
    return p, float(np.linalg.norm(p - pose.position))


def euclidean_distance(a, b) -> float:
    return float(np.linalg.norm(as_vec3(a) - as_vec3(b)))


@dataclass
class SurfaceGraph:
    """k-NN graph over one cloud frame for geodesic distance queries."""

    points: np.ndarray
    k: int
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
    kq = min(k + 1, n)
    dist, idx = tree.query(pts, k=kq)
    if kq == 1:
        dist = dist[:, None]
        idx = idx[:, None]
    src = np.repeat(np.arange(n), kq - 1) if kq > 1 else np.empty(0, dtype=np.int64)
    dst = idx[:, 1:].reshape(-1) if kq > 1 else np.empty(0, dtype=np.int64)
    w = dist[:, 1:].reshape(-1) if kq > 1 else np.empty(0)
    # Drop self pairs that sneak in when duplicates outnumber k.
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
    data = np.concatenate([w, w])
    adj = csr_matrix((data, (rows, cols)), shape=(n, n))
    # csr_matrix construction drops nothing here, but make the zero-weight
    # duplicate edges explicit so csgraph keeps them as edges.
    adj.sort_indices()
    return SurfaceGraph(points=pts, k=k, adjacency=adj, _tree=tree)


def geodesic_distance(graph: SurfaceGraph, a, b) -> float:
    """Shortest-path length between the vertices nearest a and b.

    Returns +inf when the two snapped vertices lie in different connected
    components.
    """
    if graph is None:
        raise MissingGraphError("geodesic distance requested without a surface graph")
    ia, ib = graph.nearest_index(a), graph.nearest_index(b)
    if ia == ib:
        return 0.0
    return float(geodesic_rows(graph, np.array([ia]))[0, ib])


def geodesic_rows(graph: SurfaceGraph, sources: np.ndarray) -> np.ndarray:
    """Shortest-path distances from each source vertex to every vertex."""
    if graph is None:
        raise MissingGraphError("geodesic distance requested without a surface graph")
    from scipy.sparse.csgraph import dijkstra

    src = np.asarray(sources, dtype=np.int64)
    if src.size == 0:
        return np.empty((0, graph.n_points))
    out = dijkstra(graph.adjacency, directed=False, indices=src)
    return np.atleast_2d(out)
