"""JSON inputs: run manifests, calibration thresholds, and their checkers.

A manifest is either one content object or ``{"contents": [...]}``.  Keys
are validated strictly (unknown keys are rejected, referenced paths must
exist) so a typo cannot silently fall back to a default.  Relative paths
resolve against the manifest file's directory.  The checkers below also
read ``synth --scenario`` files; every malformed value is a ManifestError
that names its key.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field

from .clustering import ChunkSpec
from .errors import InvalidParamsError, ManifestError
from .geometry import DEFAULT_CONE_HALF_ANGLE, DEFAULT_SURFACE_KNN, FrustumParams
from .metrics import MetricConfig, MetricId, RegulatorSet, default_configs
from .store import safe_name

_CONTENT_KEYS = {
    "content_id",
    "cloud_dir",
    "trajectory_csv",
    "fps",
    "reference",
    "frustum",
    "cone_half_angle",
    "r_mode",
    "relevant_min_size",
    "overlap_threshold",
    "surface_knn",
    "chunk",
    "metrics",
}
_FRUSTUM_KEYS = {"hfov", "vfov", "near", "far"}
_CHUNK_KEYS = {"window", "persistence"}
_METRIC_KEYS = {"alpha", "beta", "gamma", "threshold"}


@dataclass
class ContentManifest:
    content_id: str
    cloud_dir: str
    trajectory_csv: str
    fps: float = 30.0
    reference: bool = True
    frustum: FrustumParams = field(default_factory=FrustumParams)
    cone_half_angle: float = DEFAULT_CONE_HALF_ANGLE
    r_mode: str = "viewport"
    relevant_min_size: int = 3
    overlap_threshold: float = 0.75
    surface_knn: int = DEFAULT_SURFACE_KNN
    chunk: ChunkSpec = field(default_factory=ChunkSpec)
    metrics: dict = field(default_factory=default_configs)


def _require(cond: bool, msg: str):
    if not cond:
        raise ManifestError(msg)


def read_json(path, what: str):
    """The JSON document at ``path``; ``what`` names the file in errors."""
    path = os.fspath(path)
    if not os.path.isfile(path):
        raise ManifestError(f"{what} not found: {path}")
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as e:  # JSONDecodeError or UnicodeDecodeError
            raise ManifestError(f"{what} is not valid JSON: {e}")


def write_json(path, payload) -> None:
    """``payload`` as indented JSON with sorted keys and a final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _number(v) -> bool:
    return not isinstance(v, bool) and isinstance(v, (int, float)) and math.isfinite(v)


def read_float(d, key, default, where):
    v = d.get(key, default)
    _require(_number(v), f"{where}.{key} must be a finite number, got {v!r}")
    return float(v)


def read_int(d, key, default, where):
    v = d.get(key, default)
    _require(not isinstance(v, bool) and isinstance(v, int), f"{where}.{key} must be an integer, got {v!r}")
    return v


def read_vec3(d, key, default, where):
    v = d.get(key, default)
    ok = isinstance(v, (list, tuple)) and len(v) == 3 and all(_number(c) for c in v)
    _require(ok, f"{where}.{key} must be a list of 3 finite numbers, got {v!r}")
    return tuple(float(c) for c in v)


def check_keys(d, allowed, where):
    _require(isinstance(d, dict), f"{where} must be an object")
    unknown = set(d) - set(allowed)
    _require(not unknown, f"unknown keys {sorted(unknown)} in {where}")


def require_keys(d, required, where):
    _require(isinstance(d, dict), f"{where} must be an object")
    missing = [k for k in required if k not in d]
    _require(not missing, f"missing keys {missing} in {where}")


@contextmanager
def valid_params(where: str):
    """Report a value object's InvalidParamsError as a ManifestError at ``where``."""
    try:
        yield
    except InvalidParamsError as e:
        raise ManifestError(f"{where}: {e}") from None


def _parse_metrics(d: dict, where: str) -> dict:
    configs = default_configs()
    check_keys(d, {m.value for m in MetricId}, where)
    for name, override in d.items():
        metric, at = MetricId(name), f"{where}.{name}"
        check_keys(override, {"threshold"} if metric.is_overlap else _METRIC_KEYS, at)
        base = configs[metric]
        regulators = None
        if not metric.is_overlap:
            reg = base.regulators
            with valid_params(at):
                regulators = RegulatorSet(
                    alpha=read_float(override, "alpha", reg.alpha, at),
                    beta=read_float(override, "beta", reg.beta, at),
                    gamma=read_float(override, "gamma", reg.gamma, at),
                )
        configs[metric] = MetricConfig(metric, regulators, read_float(override, "threshold", base.threshold, at))
    return configs


def _parse_content(d: dict, base_dir: str, where: str) -> ContentManifest:
    check_keys(d, _CONTENT_KEYS, where)
    for key in ("content_id", "cloud_dir", "trajectory_csv"):
        _require(isinstance(d.get(key), str) and d[key], f"{where}.{key} is required")
    cloud_dir = os.path.join(base_dir, d["cloud_dir"])
    trajectory_csv = os.path.join(base_dir, d["trajectory_csv"])
    _require(os.path.isdir(cloud_dir), f"{where}: cloud_dir not found: {cloud_dir}")
    _require(os.path.isfile(trajectory_csv), f"{where}: trajectory_csv not found: {trajectory_csv}")
    fr = d.get("frustum", {})
    check_keys(fr, _FRUSTUM_KEYS, f"{where}.frustum")
    with valid_params(f"{where}.frustum"):
        frustum = FrustumParams(
            hfov=read_float(fr, "hfov", FrustumParams().hfov, f"{where}.frustum"),
            vfov=read_float(fr, "vfov", FrustumParams().vfov, f"{where}.frustum"),
            near=read_float(fr, "near", FrustumParams().near, f"{where}.frustum"),
            far=read_float(fr, "far", FrustumParams().far, f"{where}.frustum"),
        )
    ch = d.get("chunk", {})
    check_keys(ch, _CHUNK_KEYS, f"{where}.chunk")
    with valid_params(f"{where}.chunk"):
        chunk = ChunkSpec(
            window=read_float(ch, "window", 1.0, f"{where}.chunk"),
            persistence=read_float(ch, "persistence", 0.8, f"{where}.chunk"),
        )
    r_mode = d.get("r_mode", "viewport")
    _require(r_mode in ("viewport", "centroid"), f"{where}.r_mode must be viewport|centroid")
    reference = d.get("reference", True)
    _require(isinstance(reference, bool), f"{where}.reference must be a boolean")
    surface_knn = read_int(d, "surface_knn", DEFAULT_SURFACE_KNN, where)
    _require(surface_knn >= 1, f"{where}.surface_knn must be >= 1, got {surface_knn}")
    fps = read_float(d, "fps", 30.0, where)
    _require(fps > 0.0, f"{where}.fps must be > 0, got {fps}")
    cone = read_float(d, "cone_half_angle", DEFAULT_CONE_HALF_ANGLE, where)
    _require(0.0 < cone <= math.pi / 4.0, f"{where}.cone_half_angle must lie in (0, pi/4], got {cone}")
    min_size = read_int(d, "relevant_min_size", 3, where)
    _require(min_size >= 2, f"{where}.relevant_min_size must be >= 2, got {min_size}")
    o_th = read_float(d, "overlap_threshold", 0.75, where)
    _require(0.0 <= o_th <= 1.0, f"{where}.overlap_threshold must lie in [0, 1], got {o_th}")
    return ContentManifest(
        content_id=d["content_id"],
        cloud_dir=cloud_dir,
        trajectory_csv=trajectory_csv,
        fps=fps,
        reference=reference,
        frustum=frustum,
        cone_half_angle=cone,
        r_mode=r_mode,
        relevant_min_size=min_size,
        overlap_threshold=o_th,
        surface_knn=surface_knn,
        chunk=chunk,
        metrics=_parse_metrics(d.get("metrics", {}), f"{where}.metrics"),
    )


def load_manifest(path) -> list:
    """Parse a manifest file into one ContentManifest per content."""
    doc = read_json(path, "manifest")
    base_dir = os.path.dirname(os.path.abspath(path))
    if isinstance(doc, dict) and "contents" in doc:
        check_keys(doc, {"contents"}, "manifest")
        contents = doc["contents"]
        _require(isinstance(contents, list) and contents, "manifest.contents must be a non-empty list")
        parsed = [
            _parse_content(c, base_dir, f"contents[{i}]") for i, c in enumerate(contents)
        ]
    elif isinstance(doc, dict):
        parsed = [_parse_content(doc, base_dir, "manifest")]
    else:
        raise ManifestError("manifest must be a JSON object")
    names = [safe_name(c.content_id) for c in parsed]  # a content's outputs and stored tables are named by it
    for c, name in zip(parsed, names):
        first = parsed[names.index(name)]
        _require(first is c, f"duplicate content_id in manifest: {first.content_id!r} and {c.content_id!r} name the same files")
    return parsed


def load_thresholds(path) -> dict:
    """Per-metric thresholds from a calibration file (``calibrate``'s calibration.json)."""
    doc = read_json(path, "calibration file")
    require_keys(doc, ("metrics",), "calibration")
    check_keys(doc["metrics"], {m.value for m in MetricId}, "calibration.metrics")
    thresholds = {}
    for name, entry in doc["metrics"].items():
        require_keys(entry, ("threshold",), f"calibration.metrics.{name}")
        thresholds[MetricId(name)] = read_float(entry, "threshold", None, f"calibration.metrics.{name}")
    return thresholds
