"""Run manifests: JSON descriptions of content plus processing parameters.

A manifest is either one content object or ``{"contents": [...]}``.  Keys
are validated strictly (unknown keys are rejected, referenced paths must
exist) so a typo cannot silently fall back to a default.  Relative paths
resolve against the manifest file's directory.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

from .clustering import ChunkSpec
from .errors import ManifestError
from .geometry import DEFAULT_CONE_HALF_ANGLE, DEFAULT_SURFACE_KNN, FrustumParams
from .metrics import MetricConfig, MetricId, RegulatorSet, default_configs

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

    def config(self, metric: MetricId) -> MetricConfig:
        return self.metrics[metric]


def _require(cond: bool, msg: str):
    if not cond:
        raise ManifestError(msg)


def _float(d, key, default, where):
    v = d.get(key, default)
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(float(v)):
        raise ManifestError(f"{where}.{key} must be a finite number, got {v!r}")
    return float(v)


def _int(d, key, default, where):
    v = d.get(key, default)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ManifestError(f"{where}.{key} must be an integer, got {v!r}")
    return v


def _check_keys(d, allowed, where):
    if not isinstance(d, dict):
        raise ManifestError(f"{where} must be an object")
    unknown = set(d) - allowed
    if unknown:
        raise ManifestError(f"unknown keys {sorted(unknown)} in {where}")


def _parse_metrics(d: dict, where: str) -> dict:
    configs = default_configs()
    if not d:
        return configs
    _check_keys(d, {m.value for m in MetricId}, where)
    for name, override in d.items():
        metric = MetricId(name)
        _check_keys(override, _METRIC_KEYS, f"{where}.{name}")
        base = configs[metric]
        threshold = _float(override, "threshold", base.threshold, f"{where}.{name}")
        if metric.is_overlap:
            if set(override) - {"threshold"}:
                raise ManifestError(f"{where}.{name} accepts only 'threshold'")
            configs[metric] = MetricConfig(metric, None, threshold)
            continue
        reg = base.regulators
        regulators = RegulatorSet(
            alpha=_float(override, "alpha", reg.alpha, f"{where}.{name}"),
            beta=_float(override, "beta", reg.beta, f"{where}.{name}"),
            gamma=_float(override, "gamma", reg.gamma, f"{where}.{name}"),
        )
        configs[metric] = MetricConfig(metric, regulators, threshold)
    return configs


def _parse_content(d: dict, base_dir: str, where: str) -> ContentManifest:
    _check_keys(d, _CONTENT_KEYS, where)
    for key in ("content_id", "cloud_dir", "trajectory_csv"):
        _require(isinstance(d.get(key), str) and d[key], f"{where}.{key} is required")
    cloud_dir = os.path.join(base_dir, d["cloud_dir"])
    trajectory_csv = os.path.join(base_dir, d["trajectory_csv"])
    _require(os.path.isdir(cloud_dir), f"{where}: cloud_dir not found: {cloud_dir}")
    _require(os.path.isfile(trajectory_csv), f"{where}: trajectory_csv not found: {trajectory_csv}")
    fr = d.get("frustum", {})
    _check_keys(fr, _FRUSTUM_KEYS, f"{where}.frustum")
    frustum = FrustumParams(
        hfov=_float(fr, "hfov", FrustumParams().hfov, f"{where}.frustum"),
        vfov=_float(fr, "vfov", FrustumParams().vfov, f"{where}.frustum"),
        near=_float(fr, "near", FrustumParams().near, f"{where}.frustum"),
        far=_float(fr, "far", FrustumParams().far, f"{where}.frustum"),
    )
    ch = d.get("chunk", {})
    _check_keys(ch, _CHUNK_KEYS, f"{where}.chunk")
    chunk = ChunkSpec(
        window=_float(ch, "window", 1.0, f"{where}.chunk"),
        persistence=_float(ch, "persistence", 0.8, f"{where}.chunk"),
    )
    r_mode = d.get("r_mode", "viewport")
    _require(r_mode in ("viewport", "centroid"), f"{where}.r_mode must be viewport|centroid")
    reference = d.get("reference", True)
    _require(isinstance(reference, bool), f"{where}.reference must be a boolean")
    surface_knn = _int(d, "surface_knn", DEFAULT_SURFACE_KNN, where)
    _require(surface_knn >= 1, f"{where}.surface_knn must be >= 1, got {surface_knn}")
    return ContentManifest(
        content_id=d["content_id"],
        cloud_dir=cloud_dir,
        trajectory_csv=trajectory_csv,
        fps=_float(d, "fps", 30.0, where),
        reference=reference,
        frustum=frustum,
        cone_half_angle=_float(d, "cone_half_angle", DEFAULT_CONE_HALF_ANGLE, where),
        r_mode=r_mode,
        relevant_min_size=_int(d, "relevant_min_size", 3, where),
        overlap_threshold=_float(d, "overlap_threshold", 0.75, where),
        surface_knn=surface_knn,
        chunk=chunk,
        metrics=_parse_metrics(d.get("metrics", {}), f"{where}.metrics"),
    )


def load_manifest(path) -> list:
    """Parse a manifest file into one ContentManifest per content."""
    path = os.fspath(path)
    if not os.path.isfile(path):
        raise ManifestError(f"manifest not found: {path}")
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise ManifestError(f"manifest is not valid JSON: {e}")
    base_dir = os.path.dirname(os.path.abspath(path))
    if isinstance(doc, dict) and "contents" in doc:
        _check_keys(doc, {"contents"}, "manifest")
        contents = doc["contents"]
        _require(isinstance(contents, list) and contents, "manifest.contents must be a non-empty list")
        parsed = [
            _parse_content(c, base_dir, f"contents[{i}]") for i, c in enumerate(contents)
        ]
    elif isinstance(doc, dict):
        parsed = [_parse_content(doc, base_dir, "manifest")]
    else:
        raise ManifestError("manifest must be a JSON object")
    ids = [c.content_id for c in parsed]
    _require(len(set(ids)) == len(ids), "duplicate content_id in manifest")
    return parsed
