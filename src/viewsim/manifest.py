"""JSON inputs: run manifests, calibration thresholds, and the one object reader.

A manifest is either one content object or ``{"contents": [...]}``.  Keys
are validated strictly (unknown keys are rejected, referenced paths must
exist) so a typo cannot silently fall back to a default.  Relative paths
resolve against the manifest file's directory.  Every JSON object, the
``synth --scenario`` file's included, is read by ``read_object`` into the
dataclass whose fields are its keys; every malformed value is a
ManifestError that names its key.
"""

from __future__ import annotations

import functools
import json
import math
import os
import typing
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace

from .calibration import DEFAULT_OVERLAP_LABEL_THRESHOLD
from .clustering import DEFAULT_RELEVANT_MIN_SIZE, ChunkSpec
from .errors import InvalidParamsError, ManifestError
from .geometry import DEFAULT_CONE_HALF_ANGLE, DEFAULT_SURFACE_KNN, FrustumParams
from .metrics import MetricId, RegulatorSet, default_configs
from .store import safe_name


@dataclass(kw_only=True)
class ContentSettings:
    """A content's processing settings, each with its manifest key, default and domain."""

    reference: bool = True
    frustum: FrustumParams = field(default_factory=FrustumParams)
    cone_half_angle: float = DEFAULT_CONE_HALF_ANGLE
    r_mode: str = "viewport"
    relevant_min_size: int = DEFAULT_RELEVANT_MIN_SIZE
    overlap_threshold: float = DEFAULT_OVERLAP_LABEL_THRESHOLD
    surface_knn: int = DEFAULT_SURFACE_KNN
    chunk: ChunkSpec = field(default_factory=ChunkSpec)
    metrics: dict = field(default_factory=default_configs)

    def __post_init__(self):
        for ok, msg in (
            (0.0 < self.cone_half_angle <= math.pi / 4.0, f"cone_half_angle must lie in (0, pi/4], got {self.cone_half_angle}"),
            (self.r_mode in ("viewport", "centroid"), f"r_mode must be viewport|centroid, got {self.r_mode!r}"),
            (self.relevant_min_size >= 2, f"relevant_min_size must be >= 2, got {self.relevant_min_size}"),
            (0.0 <= self.overlap_threshold <= 1.0, f"overlap_threshold must lie in [0, 1], got {self.overlap_threshold}"),
            (self.surface_knn >= 1, f"surface_knn must be >= 1, got {self.surface_knn}"),
        ):
            if not ok:
                raise InvalidParamsError(msg)


@dataclass
class ContentManifest(ContentSettings):
    content_id: str
    cloud_dir: str
    trajectory_csv: str
    fps: float = 30.0

    def __post_init__(self):
        if not self.fps > 0.0:
            raise InvalidParamsError(f"fps must be > 0, got {self.fps}")
        super().__post_init__()


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


def read_float(v, at: str) -> float:
    _require(_number(v), f"{at} must be a finite number, got {v!r}")
    return float(v)


def read_int(v, at: str) -> int:
    _require(not isinstance(v, bool) and isinstance(v, int), f"{at} must be an integer, got {v!r}")
    return v


def read_bool(v, at: str) -> bool:
    _require(isinstance(v, bool), f"{at} must be a boolean, got {v!r}")
    return v


def read_str(v, at: str) -> str:
    _require(isinstance(v, str) and v != "", f"{at} must be a non-empty string, got {v!r}")
    return v


def read_vec3(v, at: str) -> tuple:
    ok = isinstance(v, (list, tuple)) and len(v) == 3 and all(_number(c) for c in v)
    _require(ok, f"{at} must be a list of 3 finite numbers, got {v!r}")
    return tuple(float(c) for c in v)


_READERS = {float: read_float, int: read_int, bool: read_bool, str: read_str, tuple: read_vec3}


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


def read_object(cls, d, where: str, base=None, **readers):
    """The ``cls`` that JSON object ``d`` describes, its keys being ``cls``'s fields.

    Unknown keys are refused, then keys whose field has no default are
    required (a ``base`` gives every field).  Each present key is read in
    field order by ``readers[name](value, at)`` if given, where ``at`` is
    the key's path ``<where>.<name>`` that errors name; else as a nested
    object for a dataclass-typed field; else by its type's reader.  An
    absent key takes ``base``'s value, else the field default, and ``cls``
    checks its own domain: its InvalidParamsError is reported at ``where``.
    """
    params = fields(cls)
    check_keys(d, [f.name for f in params], where)
    if base is None:
        require_keys(d, [f.name for f in params if f.default is MISSING and f.default_factory is MISSING], where)
    types = typing.get_type_hints(cls)  # the annotations are strings
    values = {}
    for f in params:
        if f.name in d:
            t = types[f.name]
            read = readers.get(f.name) or (functools.partial(read_object, t) if is_dataclass(t) else _READERS[t])
            values[f.name] = read(d[f.name], f"{where}.{f.name}")
    with valid_params(where):
        return cls(**values) if base is None else replace(base, **values)


def _parse_metrics(d, where: str) -> dict:
    configs = default_configs()
    check_keys(d, {m.value for m in MetricId}, where)
    for name, override in d.items():
        metric, at = MetricId(name), f"{where}.{name}"
        base = configs[metric]
        check_keys(override, {"threshold", *metric.regulator_names}, at)
        regulators = {k: v for k, v in override.items() if k != "threshold"}
        configs[metric] = replace(
            base,
            regulators=read_object(RegulatorSet, regulators, at, base.regulators) if regulators else base.regulators,
            threshold=read_float(override.get("threshold", base.threshold), f"{at}.threshold"),
        )
    return configs


def _parse_content(d, base_dir: str, where: str) -> ContentManifest:
    cm = read_object(ContentManifest, d, where, metrics=_parse_metrics)
    for key, exists in (("cloud_dir", os.path.isdir), ("trajectory_csv", os.path.isfile)):
        path = os.path.join(base_dir, getattr(cm, key))
        _require(exists(path), f"{where}: {key} not found: {path}")
        setattr(cm, key, path)
    return cm


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
        thresholds[MetricId(name)] = read_float(entry["threshold"], f"calibration.metrics.{name}.threshold")
    return thresholds
