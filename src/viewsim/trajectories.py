"""User navigation traces and their alignment to the content frame clock.

A session is a users × frames table.  For user i at frame k (time k / fps)
it holds the position ``x[i, k]``, the unit viewing direction
``view[i, k]``, the viewport centre ``p[i, k]`` (a point on the content
surface) and the viewing distance ``r[i, k]``.  ``off[i, k]`` marks a frame
whose gaze misses the content or that falls in a capture gap after
alignment; p and r are NaN there, and wherever the trajectory CSV did not
supply them (``derive_pr`` casts them for one frame).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DataError, EmptyTrajectoryError, InvalidParamsError, ParseError
from .geometry import (
    DEFAULT_CONE_HALF_ANGLE,
    norms,
    quat_to_matrix,
    ray_cast_center,
    unit_rows,
    view_quaternion,
)
from .metrics import _fmt, write_csv

_BASE_COLUMNS = [
    "user_id",
    "t",
    "pos_x",
    "pos_y",
    "pos_z",
    "quat_w",
    "quat_x",
    "quat_y",
    "quat_z",
]
_PR_COLUMNS = ["p_x", "p_y", "p_z", "r"]
COLUMNS = ("x", "view", "p", "r", "off")


class Trace(NamedTuple):
    """One user's raw samples in time order, as arrays of n rows."""

    t: np.ndarray
    x: np.ndarray
    view: np.ndarray
    p: np.ndarray
    r: np.ndarray
    off: np.ndarray


@dataclass
class SessionDataset:
    """One content's aligned session as users × frames arrays.

    ``x``, ``view`` and ``p`` are U×F×3, ``r`` and ``off`` are U×F; row i
    belongs to ``users[i]``, which are kept sorted.
    """

    fps: float
    users: tuple
    x: np.ndarray
    view: np.ndarray
    p: np.ndarray
    r: np.ndarray
    off: np.ndarray

    def __post_init__(self):
        users = tuple(self.users)
        if len(set(users)) != len(users):
            raise DataError("duplicate user ids in dataset")
        order = sorted(range(len(users)), key=users.__getitem__)
        self.users = tuple(users[i] for i in order)
        n_frames = np.shape(self.r)[1] if np.ndim(self.r) == 2 else -1
        for name in COLUMNS:
            a = np.asarray(getattr(self, name), dtype=bool if name == "off" else np.float64)
            shape = (len(users), n_frames) + ((3,) if name in ("x", "view", "p") else ())
            if a.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
            setattr(self, name, a[order])
        absent = np.isnan(self.r)
        if np.any(absent != np.isnan(self.p).any(axis=2)) or np.any(self.off & ~absent):
            raise ValueError("p and r must be set together, and never on an off-content frame")

    @property
    def n_frames(self) -> int:
        return self.r.shape[1]

    @cached_property
    def pr_given(self) -> bool:
        """Whether the trajectory CSV supplied p/r: then they are used as given, else cast per frame."""
        return not np.isnan(self.r).all()


def _parse_float(tok, path, line, col):
    try:
        v = float(tok)
    except ValueError:
        raise ParseError(f"bad float '{tok}' in column {col}", path=path, line=line)
    if not math.isfinite(v):
        raise ParseError(f"non-finite value in column {col}", path=path, line=line)
    return v


def load_trajectories(path) -> dict:
    """Read per-user traces from CSV into ``{user_id: Trace}``, users sorted.

    Columns: ``user_id,t,pos_x,pos_y,pos_z,quat_w,quat_x,quat_y,quat_z`` with
    optional trailing ``p_x,p_y,p_z,r``.  Rows are grouped by user and sorted
    by time; duplicate (user, t) pairs are rejected.  Quaternions are
    normalized on load; a row whose quaternion norm is zero or overflows is
    rejected.  Empty p/r fields on a row with the optional columns present
    mark that sample off-content.
    """
    uids, rows, lines = [], [], []
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty trajectory file", path=path, line=1)
        header = [h.strip() for h in header]
        if header[: len(_BASE_COLUMNS)] != _BASE_COLUMNS:
            raise ParseError(
                f"header must start with {','.join(_BASE_COLUMNS)}", path=path, line=1
            )
        extra = header[len(_BASE_COLUMNS):]
        if extra not in ([], _PR_COLUMNS):
            raise ParseError(
                f"optional columns must be exactly {','.join(_PR_COLUMNS)}", path=path, line=1
            )
        with_pr = bool(extra)
        ncols = len(header)
        for lineno, row in enumerate(reader, start=2):  # checks and collects floats; arrays come after
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != ncols:
                raise ParseError(f"expected {ncols} fields, got {len(row)}", path=path, line=lineno)
            uid = row[0].strip()
            if not uid:
                raise ParseError("empty user_id", path=path, line=lineno)
            t = _parse_float(row[1], path, lineno, "t")
            if t < 0.0:
                raise ParseError(f"negative timestamp {t}", path=path, line=lineno)
            vals = [t] + [_parse_float(row[i], path, lineno, header[i]) for i in range(2, 9)]
            if not any(c * c for c in vals[4:]):  # exactly np.linalg.norm(q) == 0, underflow included
                raise ParseError("zero-norm quaternion", path=path, line=lineno)
            if with_pr:
                pr = [row[i].strip() for i in range(9, 13)]
                if all(pr):
                    vals += [_parse_float(v, path, lineno, c) for v, c in zip(pr, _PR_COLUMNS)]
                    if vals[-1] < 0.0:
                        raise ParseError(f"negative r {vals[-1]}", path=path, line=lineno)
                elif any(pr):
                    raise ParseError("p_x,p_y,p_z,r must be all present or all empty", path=path, line=lineno)
            uids.append(uid)
            lines.append(lineno)
            rows.append(vals + [math.nan] * (12 - len(vals)))  # p/r NaN where not given
    if not rows:
        raise ParseError("trajectory file has no data rows", path=path)
    users = sorted(set(uids))
    rank = dict(zip(users, range(len(users))))
    a, g = np.array(rows), np.array([rank[u] for u in uids])
    overflow = np.isinf(norms(a[:, 4:8]))[:, 0]  # checked once all rows are read, like duplicate timestamps
    if overflow.any():
        raise ParseError("quaternion norm overflows", path=path, line=lines[np.argmax(overflow)])
    order = np.lexsort((a[:, 0], g))  # by user, then by time
    a, g = a[order], g[order]
    t, r = a[:, 0], a[:, 11]
    same_user = g[1:] == g[:-1]
    dup = same_user & (t[1:] == t[:-1])
    if dup.any():
        raise ParseError(f"duplicate timestamps for user '{users[g[np.argmax(dup)]]}'", path=path)
    view = unit_rows(quat_to_matrix(unit_rows(a[:, 4:8])) @ np.array([0.0, 0.0, -1.0]))
    columns = (t, a[:, 1:4], view, a[:, 8:11], r, np.isnan(r) & with_pr)
    splits = [np.split(np.ascontiguousarray(c), np.flatnonzero(~same_user) + 1) for c in columns]
    return {uid: Trace(*fields) for uid, fields in zip(users, zip(*splits))}


def align_to_frames(traces: dict, fps: float, n_frames: int | None = None) -> SessionDataset:
    """Resample every user's trace onto the shared frame clock k / fps.

    Nearest-sample-in-time selection, no interpolation; on an exact tie the
    earlier sample wins.  A frame farther than half a frame period from
    every raw sample is marked off-content.  The frame count defaults to
    the shortest trace's span; frame k's row never depends on it.
    """
    if fps <= 0.0 or not np.isfinite(fps):
        raise InvalidParamsError(f"fps must be positive, got {fps}")
    for uid, tr in traces.items():
        if not tr.t.size:
            raise EmptyTrajectoryError(f"user '{uid}' has no samples")
    if n_frames is None:
        n_frames = min(int(round(float(tr.t[-1]) * fps)) + 1 for tr in traces.values())
    if n_frames < 1:
        raise EmptyTrajectoryError("trajectories span less than one frame interval")
    tk = np.arange(n_frames) / fps
    half = 0.5 / fps
    cols = {name: [] for name in COLUMNS}
    for tr in traces.values():
        j = np.searchsorted(tr.t, tk)
        prev = np.maximum(j - 1, 0)
        nearer_prev = tk - tr.t[prev] <= tr.t[np.minimum(j, tr.t.size - 1)] - tk
        j = np.where((j == tr.t.size) | ((j > 0) & nearer_prev), prev, j)
        off = (np.abs(tr.t[j] - tk) > half + 1e-12) | tr.off[j]
        cols["x"].append(tr.x[j])
        cols["view"].append(unit_rows(tr.view[j]))
        cols["p"].append(np.where(off[:, None], np.nan, tr.p[j]))
        cols["r"].append(np.where(off, np.nan, tr.r[j]))
        cols["off"].append(off)
    arrays = {name: np.stack(col) for name, col in cols.items()}
    return SessionDataset(fps=fps, users=tuple(traces), **arrays)


def derive_pr(x, view, off, cloud, cone: float = DEFAULT_CONE_HALF_ANGLE, r_mode: str = "viewport") -> tuple:
    """One frame's gaze targets ``(p, r, off)``, casting every on-content user's gaze ray into ``cloud``.

    ``x``, ``view`` and ``off`` hold one row per user.  ``r_mode='viewport'``
    sets r = |x - p|; ``'centroid'`` measures to the cloud centroid instead
    (p is still the ray hit).  A ray that misses the cone marks the user
    off-content.  Rays are cast one user at a time, each scanning the cloud
    in ``point_blocks``, so at once it holds one block's temporaries.
    """
    if r_mode not in ("viewport", "centroid"):
        raise InvalidParamsError(f"unknown r_mode '{r_mode}'")
    p, r, off = np.full(np.shape(x), np.nan), np.full(len(off), np.nan), off.copy()
    for i in np.flatnonzero(~off):
        hit = ray_cast_center(x[i], view[i], cloud, cone_half_angle=cone)
        if hit is None:
            off[i] = True
            continue
        p[i], r[i] = hit
        if r_mode == "centroid":
            r[i] = float(np.linalg.norm(x[i] - cloud.centroid))
    return p, r, off


def write_trajectories(path, ds: SessionDataset, with_pr: bool = False) -> None:
    """Write a session back to CSV (inverse of load, quaternions roll-free)."""

    def row(i: int, k: int) -> list:
        q = view_quaternion(ds.view[i, k])
        out = [ds.users[i], _fmt(k / ds.fps)] + [_fmt(v) for v in ds.x[i, k]] + [_fmt(v) for v in q]
        if with_pr:
            out += ["", "", "", ""] if np.isnan(ds.r[i, k]) else [_fmt(v) for v in ds.p[i, k]] + [_fmt(ds.r[i, k])]
        return out

    rows = (row(i, k) for i in range(len(ds.users)) for k in range(ds.n_frames))
    write_csv(path, _BASE_COLUMNS + (_PR_COLUMNS if with_pr else []), rows)
