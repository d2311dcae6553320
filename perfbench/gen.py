"""Seeded inputs for the session benchmark, written without viewsim.

The generator uses numpy alone.  It writes binary-little-endian PLY clouds,
the trajectory CSV and the run manifest itself, so a change to
``viewsim.synth`` or ``viewsim.ply`` cannot change what the benchmark
feeds the program.  The same seed gives the same bytes.

Every workload views a sphere of radius 0.9 centred on the origin through
a 0.5 x 0.5 rad frustum, as a real capture's manifest would declare it.
Users come in groups of four that share a motion anchor; each member keeps
a constant offset inside a 2 cm ball, so a group sees nearly one patch and
separate groups see different ones.  Both label classes of calibration are
therefore present.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

FRUSTUM = {"hfov": 0.5, "vfov": 0.5}
SPHERE_RADIUS = 0.9
GROUP_SIZE = 4
MEMBER_JITTER = 0.02
GAZE_JITTER = 0.05
WALK_STEP = 0.01


@dataclass(frozen=True)
class Shape:
    """Size of one workload's content and session."""

    groups: int
    points: int
    frames: int
    fps: float
    deforming: bool = False
    crowd: bool = False

    @property
    def users(self) -> int:
        return self.groups * GROUP_SIZE


@dataclass
class Scene:
    """Generated inputs, kept in memory for the benchmark's own checks."""

    content_id: str
    shape: Shape
    users: list       # user ids, sorted as the program sorts them
    clouds: list      # per frame, (N, 3) float64 holding the float32 values written
    positions: np.ndarray  # (U, F, 3)
    views: np.ndarray      # (U, F, 3) unit gaze directions
    fps: float


def _sphere(rng, n: int) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    return SPHERE_RADIUS * v / np.linalg.norm(v, axis=1, keepdims=True)


def _rotation(axis: np.ndarray, angle: float) -> np.ndarray:
    x, y, z = axis / np.linalg.norm(axis)
    c, s = math.cos(angle), math.sin(angle)
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + s * k + (1.0 - c) * (k @ k)


def _clouds(rng, shape: Shape) -> list:
    base = _sphere(rng, shape.points)
    if not shape.deforming:
        pts = base.astype("<f4").astype(np.float64)
        return [pts] * shape.frames
    axis = rng.normal(size=3)
    out = []
    for k in range(shape.frames):
        scale = 1.0 + 0.03 * math.sin(0.7 * k + 0.3)
        pts = (base @ _rotation(axis, 0.05 * (k + 1)).T) * scale
        out.append(pts.astype("<f4").astype(np.float64))
    return out


def _ball(rng, radius: float) -> np.ndarray:
    while True:
        v = rng.uniform(-1.0, 1.0, size=3)
        if v @ v <= 1.0:
            return v * radius


def _anchor_paths(rng, shape: Shape, times: np.ndarray) -> list:
    """One (F, 3) path per group: orbits, or for a crowd orbit/static/walk."""
    paths = []
    for g in range(shape.groups):
        # The layout is fixed and the seed only perturbs it, so that every
        # seed costs about the same.
        kind = ("orbit", "static", "walk")[g % 3] if shape.crowd else "orbit"
        azimuth = 2.0 * math.pi * g / shape.groups + rng.uniform(-0.05, 0.05)
        radius = 2.2 + rng.uniform(-0.05, 0.05)
        height = 0.25 * (g % 3 - 1) + rng.uniform(-0.02, 0.02)
        if kind == "orbit":
            speed = (-1.0) ** g * (0.3 + rng.uniform(-0.02, 0.02))
            a = azimuth + speed * times
            path = np.column_stack([radius * np.cos(a), np.full(times.size, height), radius * np.sin(a)])
        else:
            start = np.array([radius * math.cos(azimuth), height, radius * math.sin(azimuth)])
            path = np.repeat(start[None, :], times.size, axis=0)
            if kind == "walk":
                steps = rng.normal(scale=WALK_STEP, size=(times.size, 3))
                steps[0] = 0.0
                path = path + np.cumsum(steps, axis=0)
        paths.append(path)
    return paths


def scene(name: str, shape: Shape, seed: int) -> Scene:
    rng = np.random.default_rng([seed, sum(name.encode())])
    clouds = _clouds(rng, shape)
    times = np.arange(shape.frames) / shape.fps
    positions, views = [], []
    for g, path in enumerate(_anchor_paths(rng, shape, times)):
        for m in range(GROUP_SIZE):
            x = path + _ball(rng, MEMBER_JITTER)
            aim = -x / np.linalg.norm(x, axis=1, keepdims=True)
            if shape.crowd and m % 2:  # half of a crowd's users jitter their gaze
                aim = aim + rng.normal(scale=GAZE_JITTER, size=aim.shape)
            positions.append(x)
            views.append(aim / np.linalg.norm(aim, axis=1, keepdims=True))
    width = max(2, len(str(shape.users - 1)))
    return Scene(
        content_id=name,
        shape=shape,
        users=[f"u{i:0{width}d}" for i in range(shape.users)],
        clouds=clouds,
        positions=np.stack(positions),
        views=np.stack(views),
        fps=shape.fps,
    )


def view_quaternion(v: np.ndarray) -> np.ndarray:
    """Scalar-first unit quaternion turning local -Z onto ``v`` (shortest arc)."""
    q = np.array([1.0 - v[2], v[1], -v[0], 0.0])
    n = np.linalg.norm(q)
    if n < 1e-12:  # v is +Z: half turn about Y
        return np.array([0.0, 0.0, 1.0, 0.0])
    return q / n


def _write_ply(path: str, pts: np.ndarray) -> None:
    header = (
        "ply\nformat binary_little_endian 1.0\n"
        f"element vertex {pts.shape[0]}\n"
        "property float x\nproperty float y\nproperty float z\nend_header\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(pts.astype("<f4").tobytes())


def write(sc: Scene, out_dir: str) -> str:
    """Write clouds, trajectories and manifest; return the manifest path."""
    cloud_dir = os.path.join(out_dir, "clouds")
    os.makedirs(cloud_dir, exist_ok=True)
    for k, pts in enumerate(sc.clouds):
        _write_ply(os.path.join(cloud_dir, f"frame_{k:06d}.ply"), pts)
    lines = ["user_id,t,pos_x,pos_y,pos_z,quat_w,quat_x,quat_y,quat_z"]
    for u, uid in enumerate(sc.users):
        for k in range(sc.shape.frames):
            vals = [k / sc.fps, *sc.positions[u, k], *view_quaternion(sc.views[u, k])]
            lines.append(",".join([uid] + [repr(float(v)) for v in vals]))
    with open(os.path.join(out_dir, "trajectories.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    manifest = {
        "content_id": sc.content_id,
        "cloud_dir": "clouds",
        "trajectory_csv": "trajectories.csv",
        "fps": sc.fps,
        "frustum": FRUSTUM,
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
