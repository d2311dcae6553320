"""The benchmark's own checks of command outputs, independent of viewsim.

The exact overlap is recomputed from the generated scene with a per-point
plane test written here and exact integer counts; ``contains_points`` and
``overlap_matrix`` are never called.  The frustum follows viewsim's
documented conventions: the view axis is local -Z, roll is fixed by world
up (+Y, or +Z when looking straight up or down), the boundary is closed,
and near/far are the defaults 0.05/100 because the manifest sets neither.
A user is on the content at a frame when some point lies within the 0.035
rad gaze cone.  Points within ``EPS`` of a plane or of the cone make their
rows undecidable here; such rows are skipped and counted.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

NEAR, FAR = 0.05, 100.0
CONE = 0.035
EPS = 1e-9
O_TH = 0.75  # overlap label threshold of calibration and evaluation
PROXIES = ("w1", "w2", "w3", "w4", "w5", "w6", "w7", "w8")
OVERLAP_HEADER = ["frame", "user_i", "user_j", "metric", "value", "valid"]


def _basis(view: np.ndarray):
    f = view / np.linalg.norm(view)
    up = np.array([0.0, 1.0, 0.0])
    if abs(f @ up) > 1.0 - 1e-9:
        up = np.array([0.0, 0.0, 1.0])
    r = np.cross(f, up)
    r /= np.linalg.norm(r)
    return f, r, np.cross(r, f)


def _viewport(points, x, view, hfov, vfov):
    """(inside, undecided) masks; slack is the distance to the nearest plane."""
    f, r, u = _basis(view)
    rel = points - x
    depth = rel @ f
    slack = np.minimum.reduce([
        depth - NEAR,
        FAR - depth,
        math.sin(hfov / 2) * depth - math.cos(hfov / 2) * np.abs(rel @ r),
        math.sin(vfov / 2) * depth - math.cos(vfov / 2) * np.abs(rel @ u),
    ])
    return slack > EPS, np.abs(slack) <= EPS


def _on_content(points, x, view):
    """True / False when the gaze cone surely hits / misses, else None."""
    f = view / np.linalg.norm(view)
    rel = points - x
    depth = rel @ f
    margin = np.minimum(depth, depth - np.linalg.norm(rel, axis=1) * math.cos(CONE))
    if np.any(margin > EPS):
        return True
    if np.all(margin < -EPS):
        return False
    return None


class Truth:
    """Exact overlap of every pair-frame of a scene, or None where undecidable."""

    def __init__(self, sc, hfov: float, vfov: float):
        self.users = {u: i for i, u in enumerate(sc.users)}
        n, frames = len(sc.users), sc.shape.frames
        self.values = {}  # (k, i, j) -> float, math.nan when invalid, None when undecidable
        for k in range(frames):
            pts = sc.clouds[k]
            masks, unsure, present = [], [], []
            for i in range(n):
                x, v = sc.positions[i, k], sc.views[i, k]
                inside, amb = _viewport(pts, x, v, hfov, vfov)
                masks.append(inside)
                unsure.append(bool(amb.any()))
                present.append(_on_content(pts, x, v))
            for i in range(n):
                for j in range(i + 1, n):
                    if present[i] is None or present[j] is None:
                        value = None
                    elif not (present[i] and present[j]):
                        value = math.nan
                    elif unsure[i] or unsure[j]:
                        value = None
                    else:
                        inter = int(np.count_nonzero(masks[i] & masks[j]))
                        union = int(np.count_nonzero(masks[i] | masks[j]))
                        value = inter / union if union else math.nan
                    self.values[(k, i, j)] = value

    @property
    def undecided(self) -> int:
        return sum(v is None for v in self.values.values())

    def label_counts(self) -> tuple:
        """(positives, negatives) among decided valid pair-frames."""
        vals = [v for v in self.values.values() if v is not None and not math.isnan(v)]
        pos = sum(v >= O_TH for v in vals)
        return pos, len(vals) - pos


def _rows(path: str) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def check_overlap(path: str, truth: Truth) -> list:
    """Every row of an overlap CSV against the recomputed Jaccard."""
    rows = _rows(path)
    if not rows or rows[0] != OVERLAP_HEADER:
        return [f"{os.path.basename(path)}: bad header"]
    errors, seen = [], set()
    for row in rows[1:]:
        frame, ui, uj, metric, value, valid = row
        key = (int(frame), *sorted((truth.users.get(ui, -1), truth.users.get(uj, -1))))
        if metric != "overlap" or valid not in ("0", "1") or key not in truth.values or key in seen:
            errors.append(f"unexpected overlap row {row}")
            continue
        seen.add(key)
        want = truth.values[key]
        if want is None:
            continue
        got, ok = float(value), valid == "1"
        if math.isnan(want) == ok or (ok and got != want):
            errors.append(f"overlap frame {frame} {ui}/{uj}: got {value} valid={valid}, want {want!r}")
    if len(seen) != len(truth.values):
        errors.append(f"overlap rows cover {len(seen)} of {len(truth.values)} pair-frames")
    return errors[:5]


def expected_files(content_id: str) -> dict:
    """Output files of each command."""
    return {
        "overlap": [f"overlap_{content_id}.csv"],
        "metrics": [f"metrics_{content_id}.csv"],
        "calibrate": ["roc.csv", "calibration.json"],
        "evaluate": ["evaluation.csv"],
        "ablate": ["ablation_w7.csv", "parameter_sets_w7.json"],
    }


def check_command(command: str, out_dir: str, content_id: str, truth: Truth) -> list:
    """Checks of one command's outputs beyond its exit code."""
    paths = [os.path.join(out_dir, f) for f in expected_files(content_id)[command]]
    missing = [os.path.basename(p) for p in paths if not os.path.isfile(p)]
    if missing:
        return [f"{command}: missing {missing}"]
    try:
        return _check_outputs(command, paths, truth)
    except (ValueError, KeyError, IndexError) as e:  # JSONDecodeError is a ValueError
        return [f"{command}: malformed output ({e!r})"]


def _check_outputs(command: str, paths: list, truth: Truth) -> list:
    pair_frames = len(truth.values)
    if command == "overlap":
        return check_overlap(paths[0], truth)
    if command == "metrics":
        rows = _rows(paths[0])[1:]
        metrics = sorted({r[3] for r in rows})
        if len(rows) != 8 * pair_frames or metrics != list(PROXIES):
            return [f"metrics: {len(rows)} rows of {metrics}, want {8 * pair_frames} of {list(PROXIES)}"]
    if command == "calibrate":
        pos, neg = truth.label_counts()
        curves = {r[0] for r in _rows(paths[0])[1:]}
        with open(paths[1]) as fh:
            thresholds = json.load(fh).get("metrics", {})
        if not (pos and neg) or curves != set(PROXIES) or set(thresholds) != set(PROXIES):
            return [f"calibrate: labels +{pos}/-{neg}, curves {sorted(curves)}, thresholds {sorted(thresholds)}"]
    if command == "evaluate":
        rows = _rows(paths[0])
        by_metric = {r[1]: dict(zip(rows[0], r)) for r in rows[1:]}
        if sorted(by_metric) != sorted(PROXIES + ("overlap",)):
            return [f"evaluate: rows for {sorted(by_metric)}"]
        if float(by_metric["overlap"]["precision_mean"]) != 1.0:
            return [f"evaluate: overlap precision_mean {by_metric['overlap']['precision_mean']}, want 1.0"]
    if command == "ablate":
        rows = _rows(paths[0])[1:]
        if len(rows) != 81:
            return [f"ablate: {len(rows)} grid rows, want 81"]
    return []
