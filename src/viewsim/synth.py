"""Deterministic synthetic content and trajectories with planted structure.

Every generated byte is a pure function of the scenario (including its
seed).  Randomness comes from an explicit splitmix-style 64-bit generator,
never from platform RNGs, so outputs are stable across machines and runs.
Groups of users share a motion anchor (orbit, static point, or a seeded
random walk) with an optional per-member offset inside a small ball; gaze
models aim at the content centroid, a fixed direction, or a jittered
centroid aim.  Each motion and gaze model is one frozen dataclass registered
under its scenario-JSON ``kind``, with its fields as its JSON keys.  The
planted partition is the generator's own group split, used to score
recovered clusters.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .errors import InvalidParamsError, ManifestError
from .geometry import PointCloudFrame, norms, unit, unit_rows
from .manifest import read_object, require_keys, write_json
from .ply import write_ply
from .trajectories import SessionDataset, write_trajectories

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """Tiny deterministic RNG; the whole sequence is pinned by the seed."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN_GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return (z ^ (z >> 31)) & _MASK64

    def uniform(self) -> float:
        """[0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def gauss(self) -> float:
        """Box-Muller; one fresh pair per call, cosine branch only."""
        u1 = self.uniform()
        while u1 == 0.0:
            u1 = self.uniform()
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def gauss_vec3(self, sigma: float) -> np.ndarray:
        return np.array([self.gauss() * sigma for _ in range(3)])

    def uniform_ball(self, radius: float) -> np.ndarray:
        """Rejection-sampled point in the closed ball of given radius."""
        while True:
            v = np.array([2.0 * self.uniform() - 1.0 for _ in range(3)])
            if float(v @ v) <= 1.0:
                return v * radius


def _fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for b in text.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & _MASK64
    return h


def derive_stream(seed: int, *tags) -> SplitMix64:
    """Independent substream for one (user, purpose) pair."""
    return SplitMix64((seed & _MASK64) ^ _fnv1a64("/".join(str(t) for t in tags)))


MOTIONS: dict = {}  # JSON kind -> motion class; a motion's path(times, offset, rng) is F x 3
GAZES: dict = {}  # JSON kind -> gaze class; a gaze's aim(x, centroid, rng) is one direction


def _register(registry: dict, kind: str):
    """Class decorator: the class is the primitive that ``{"kind": kind, ...}`` describes."""

    def register(cls):
        cls.kind = kind
        registry[kind] = cls
        return cls

    return register


def _nonzero(v: np.ndarray) -> np.ndarray:
    return v if norms(v)[0] != 0.0 else np.array([0.0, 0.0, -1.0])


@_register(MOTIONS, "orbit")
@dataclass(frozen=True)
class OrbitMotion:
    """Circular path in the horizontal plane around the content centre."""

    radius: float
    angular_speed: float
    phase: float = 0.0
    height: float = 0.0

    def __post_init__(self):
        if not self.radius > 0.0:
            raise InvalidParamsError(f"orbit radius must be > 0, got {self.radius}")

    def path(self, times, offset: np.ndarray, rng: SplitMix64) -> np.ndarray:
        rows = []
        for t in times:
            a = self.phase + self.angular_speed * t
            rows.append(np.array([self.radius * math.cos(a), self.height, self.radius * math.sin(a)]) + offset)
        return np.stack(rows)


@_register(MOTIONS, "static")
@dataclass(frozen=True)
class StaticMotion:
    position: tuple

    def path(self, times, offset: np.ndarray, rng: SplitMix64) -> np.ndarray:
        return np.tile(np.asarray(self.position, dtype=np.float64) + offset, (len(times), 1))


@_register(MOTIONS, "random_walk")
@dataclass(frozen=True)
class RandomWalkMotion:
    """Gaussian steps per frame from a fixed start (per-member stream)."""

    step_sigma: float
    start: tuple = (0.0, 0.0, 2.5)

    def __post_init__(self):
        if not self.step_sigma >= 0.0:
            raise InvalidParamsError(f"step_sigma must be >= 0, got {self.step_sigma}")

    def path(self, times, offset: np.ndarray, rng: SplitMix64) -> np.ndarray:
        pos = np.empty((len(times), 3))
        cur = np.asarray(self.start, dtype=np.float64) + offset
        for k in range(len(times)):
            pos[k] = cur
            cur = cur + rng.gauss_vec3(self.step_sigma)
        return pos


@_register(GAZES, "at-centroid")
@dataclass(frozen=True)
class AtCentroidGaze:
    def aim(self, x: np.ndarray, centroid: np.ndarray, rng: SplitMix64) -> np.ndarray:
        return unit(_nonzero(centroid - x))


@_register(GAZES, "fixed-direction")
@dataclass(frozen=True)
class FixedDirectionGaze:
    direction: tuple

    def __post_init__(self):
        if not 0.0 < norms(self.direction)[0] < math.inf:  # the norm ``aim``'s ``unit`` divides by
            raise InvalidParamsError(f"direction must be a non-zero vector with a finite norm, got {self.direction}")

    def aim(self, x: np.ndarray, centroid: np.ndarray, rng: SplitMix64) -> np.ndarray:
        return unit(np.asarray(self.direction, dtype=np.float64))


@_register(GAZES, "jittered")
@dataclass(frozen=True)
class JitteredGaze:
    """Centroid aim plus a per-frame Gaussian offset of given sigma."""

    sigma: float

    def __post_init__(self):
        if not self.sigma >= 0.0:
            raise InvalidParamsError(f"sigma must be >= 0, got {self.sigma}")

    def aim(self, x: np.ndarray, centroid: np.ndarray, rng: SplitMix64) -> np.ndarray:
        aim = unit(_nonzero(centroid - x))
        if self.sigma > 0.0:
            aim = unit(_nonzero(aim + rng.gauss_vec3(self.sigma)))
        return aim


@dataclass(frozen=True)
class GroupSpec:
    """A block of users sharing one motion anchor and gaze model.

    ``jitter`` is the radius of the per-member constant offset ball, so
    intra-group position distances stay bounded by 2 * jitter.
    """

    size: int
    motion: object
    gaze: object
    jitter: float = 0.0

    def __post_init__(self):
        if self.size < 1:
            raise InvalidParamsError(f"group size must be >= 1, got {self.size}")
        if self.jitter < 0.0:
            raise InvalidParamsError(f"jitter must be >= 0, got {self.jitter}")


@dataclass(frozen=True)
class SynthScenario:
    seed: int
    cloud_kind: str
    points_per_frame: int
    n_frames: int
    fps: float
    groups: tuple

    def __post_init__(self):
        if self.cloud_kind not in CLOUDS:
            raise InvalidParamsError(f"unknown cloud_kind '{self.cloud_kind}'")
        if self.points_per_frame < 1 or self.n_frames < 1:
            raise InvalidParamsError("points_per_frame and n_frames must be >= 1")
        if not (self.fps > 0.0 and math.isfinite(self.fps)):
            raise InvalidParamsError(f"fps must be positive, got {self.fps}")
        if not self.groups:
            raise InvalidParamsError("scenario needs at least one group")
        object.__setattr__(self, "groups", tuple(self.groups))

    @property
    def n_users(self) -> int:
        return sum(g.size for g in self.groups)

    @property
    def content_id(self) -> str:
        return f"synth-{self.cloud_kind}-{self.seed}"


_BODY_RADIUS = 0.9  # 1.8 m extent, human-body scale


def _fibonacci_sphere(n: int, radius: float) -> np.ndarray:
    i = np.arange(n, dtype=np.float64)
    y = 1.0 - 2.0 * (i + 0.5) / n
    rho = np.sqrt(np.maximum(0.0, 1.0 - y * y))
    theta = math.pi * (3.0 - math.sqrt(5.0)) * i
    return radius * np.column_stack([rho * np.cos(theta), y, rho * np.sin(theta)])


def _cylinder(n: int, radius: float, half_height: float) -> np.ndarray:
    i = np.arange(n, dtype=np.float64)
    y = -half_height + 2.0 * half_height * (i + 0.5) / n
    theta = math.pi * (3.0 - math.sqrt(5.0)) * i
    return np.column_stack([radius * np.cos(theta), y, radius * np.sin(theta)])


def _low_discrepancy(n: int, dim: int = 3) -> np.ndarray:
    # Additive recurrence on powers of the plastic constant.
    g = 1.32471795724474602596
    alphas = np.array([(1.0 / g) ** (d + 1) for d in range(dim)])
    i = np.arange(1, n + 1, dtype=np.float64)
    return np.mod(0.5 + np.outer(i, alphas), 1.0)


def _box(n: int, lo, hi) -> np.ndarray:
    u = _low_discrepancy(n)
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    return lo + u * (hi - lo)


def _humanoid_blocks(n: int) -> np.ndarray:
    # Crude body: two legs, torso, head; 1.8 m tall, centred on the origin.
    shares = [
        (0.15, (-0.18, -0.9, -0.10), (-0.02, 0.0, 0.10)),   # left leg
        (0.15, (0.02, -0.9, -0.10), (0.18, 0.0, 0.10)),     # right leg
        (0.40, (-0.22, 0.0, -0.12), (0.22, 0.6, 0.12)),     # torso
        (0.10, (-0.42, 0.25, -0.08), (-0.22, 0.55, 0.08)),  # left arm
        (0.10, (0.22, 0.25, -0.08), (0.42, 0.55, 0.08)),    # right arm
    ]
    blocks = []
    used = 0
    for share, lo, hi in shares:
        cnt = int(round(share * n))
        blocks.append(_box(cnt, lo, hi))
        used += cnt
    head = max(n - used, 0)
    if head:
        sphere = _fibonacci_sphere(head, 0.15)
        sphere[:, 1] += 0.75
        blocks.append(sphere)
    pts = np.concatenate(blocks, axis=0)
    return pts[:n]


CLOUDS = {  # scenario cloud_kind -> the content's points, given their number
    "sphere": lambda n: _fibonacci_sphere(n, _BODY_RADIUS),
    "cylinder": lambda n: _cylinder(n, 0.3, _BODY_RADIUS),
    "humanoid-blocks": _humanoid_blocks,
}


def generate_cloud(scenario: SynthScenario) -> list:
    """Rigid content repeated across frames (one shared coordinate array)."""
    pts = CLOUDS[scenario.cloud_kind](scenario.points_per_frame)
    return [PointCloudFrame(frame_index=k, points=pts) for k in range(scenario.n_frames)]


def generate_trajectories(scenario: SynthScenario, clouds: list | None = None) -> SessionDataset:
    """Aligned session over the clouds (one sample per frame); p/r left underived."""
    if clouds is None:
        clouds = generate_cloud(scenario)
    if len(clouds) < scenario.n_frames:
        raise InvalidParamsError("cloud sequence shorter than the scenario")
    times = np.arange(scenario.n_frames) / scenario.fps
    x, view = [], []
    for gi, group in enumerate(scenario.groups):
        for mi in range(group.size):
            offset = np.zeros(3)
            if group.jitter > 0.0:
                offset = derive_stream(scenario.seed, "offset", gi, mi).uniform_ball(group.jitter)
            path = group.motion.path(times, offset, derive_stream(scenario.seed, "walk", gi, mi))
            rng = derive_stream(scenario.seed, "gaze", gi, mi)
            x.append(path)
            view.append([group.gaze.aim(xk, cloud.centroid, rng) for xk, cloud in zip(path, clouds)])
    x = np.stack(x)
    return SessionDataset(
        fps=scenario.fps,
        users=tuple(planted_labels(scenario)),
        x=x,
        view=unit_rows(np.array(view)),
        p=np.full_like(x, np.nan),
        r=np.full(x.shape[:2], np.nan),
        off=np.zeros(x.shape[:2], dtype=bool),
    )


def planted_labels(scenario: SynthScenario) -> dict:
    """user id -> group index; the partition holds at every frame."""
    width = max(2, len(str(scenario.n_users - 1)))
    labels = {}
    uid = 0
    for gi, group in enumerate(scenario.groups):
        for _ in range(group.size):
            labels[f"u{uid:0{width}d}"] = gi
            uid += 1
    return labels


def scenario_to_json(value):
    """A scenario as JSON data, field by field: each dataclass an object (a
    motion or gaze with its ``kind`` too), each tuple a list."""
    if is_dataclass(value):
        doc = {"kind": value.kind} if hasattr(value, "kind") else {}
        return doc | {f.name: scenario_to_json(getattr(value, f.name)) for f in fields(value)}
    return [scenario_to_json(v) for v in value] if isinstance(value, tuple) else value


def _primitive_from_json(registry: dict, d, where: str):
    """The registered primitive ``d`` names by kind, each other key read as one of its fields."""
    require_keys(d, ("kind",), where)
    cls = registry.get(str(d["kind"]))
    if cls is None:
        raise ManifestError(f"{where}.kind must be one of {sorted(registry)}, got {d['kind']!r}")
    return read_object(cls, {k: v for k, v in d.items() if k != "kind"}, where)


def _groups_from_json(groups, where: str) -> tuple:
    if not (isinstance(groups, list) and groups):
        raise ManifestError(f"{where} must be a non-empty list, got {groups!r}")
    motion, gaze = functools.partial(_primitive_from_json, MOTIONS), functools.partial(_primitive_from_json, GAZES)
    return tuple(read_object(GroupSpec, g, f"{where}[{i}]", motion=motion, gaze=gaze) for i, g in enumerate(groups))


def scenario_from_json(d) -> SynthScenario:
    """The scenario a JSON document describes; a malformed value is a ManifestError naming its key."""
    return read_object(SynthScenario, d, "scenario", groups=_groups_from_json)


def orbit_groups(sizes, jitter: float, **scenario) -> SynthScenario:
    """Groups of the given sizes orbiting the content at evenly spaced phases,
    each member offset within ``jitter``; ``scenario`` gives the other
    ``SynthScenario`` fields."""
    groups = tuple(
        GroupSpec(
            size=size,
            motion=OrbitMotion(radius=2.0, angular_speed=0.25, phase=g * 2.0 * math.pi / len(sizes)),
            gaze=AtCentroidGaze(),
            jitter=jitter,
        )
        for g, size in enumerate(sizes)
    )
    return SynthScenario(groups=groups, **scenario)


def three_orbit_groups(
    seed: int = 7,
    users_per_group: int = 4,
    n_frames: int = 60,
    points_per_frame: int = 4000,
    fps: float = 30.0,
    cloud_kind: str = "sphere",
) -> SynthScenario:
    """Three well-separated orbiting groups; the standard planted scenario."""
    return orbit_groups(
        (users_per_group,) * 3, 0.02,
        seed=seed, cloud_kind=cloud_kind, points_per_frame=points_per_frame, n_frames=n_frames, fps=fps,
    )


def write_scenario(scenario: SynthScenario, out_dir) -> dict:
    """Materialize clouds (PLY), trajectories (CSV), labels, and a manifest.

    Returns the manifest dictionary (also written as manifest.json).  All
    is generated before any directory or file is made, so a scenario that
    fails to generate leaves ``out_dir`` untouched.
    """
    clouds = generate_cloud(scenario)
    dataset = generate_trajectories(scenario, clouds)
    out_dir = os.fspath(out_dir)
    cloud_dir = os.path.join(out_dir, "clouds")
    os.makedirs(cloud_dir, exist_ok=True)
    for c in clouds:
        write_ply(os.path.join(cloud_dir, f"frame_{c.frame_index:06d}.ply"), c.points)
    write_trajectories(os.path.join(out_dir, "trajectories.csv"), dataset)
    write_json(os.path.join(out_dir, "labels.json"), {"groups": planted_labels(scenario)})
    write_json(os.path.join(out_dir, "scenario.json"), scenario_to_json(scenario))
    manifest = {
        "content_id": scenario.content_id,
        "cloud_dir": "clouds",
        "trajectory_csv": "trajectories.csv",
        "fps": scenario.fps,
        # narrower than the default 90 degrees so the preset's overlaps span o_th
        "frustum": {"hfov": 0.5, "vfov": 0.5},
    }
    write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest
