import dataclasses
import math
import sys
from typing import NamedTuple

import numpy as np
import pytest

sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))

from viewsim.geometry import FrustumParams, PointCloudFrame, unit
from viewsim.metrics import MetricId, compute_pair_features, geodesic_gaze

# One line per acceptance criterion, printed after the run.
ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


def record_criterion(number, name, ok, detail=""):
    status = "PASS" if ok is True else ("SKIP" if ok is None else "FAIL")
    suffix = f"  ({detail})" if detail else ""
    ACCEPTANCE_LINES.append(f"criterion {number:>2} {name:<28} {status}{suffix}")
    # also emit inline for -s runs / captured logs
    print(ACCEPTANCE_LINES[-1])


def random_viewer(rng):
    """A random (position, view) pair."""
    position = rng.uniform(-3.0, 3.0, 3)
    view = rng.normal(size=3)
    while np.linalg.norm(view) < 1e-6:
        view = rng.normal(size=3)
    # avoid the world-up singularity; the loader never produces it either
    if abs(view[1]) / np.linalg.norm(view) > 0.999:
        view[0] += 0.1
    return position, view


class Sample(NamedTuple):
    """One user at one frame, built by hand; p and r are None when absent."""

    x: np.ndarray
    view: np.ndarray
    p: np.ndarray | None
    r: float | None
    off_content: bool


def make_sample(x, view=None, p=None, r=None, off_content=False):
    x = np.asarray(x, dtype=np.float64)
    if view is None:
        view = -x if np.linalg.norm(x) > 1e-9 else np.array([0.0, 0.0, -1.0])
    if (p is None) != (r is None) or (off_content and p is not None):
        raise ValueError("p and r go together, and never on an off-content sample")
    p = None if p is None else np.asarray(p, dtype=np.float64)
    return Sample(x=x, view=unit(view), p=p, r=r, off_content=off_content)


def feature_columns(samples):
    """(x, p, r, off, view) frame arrays for compute_pair_features, NaN where p/r is absent."""
    x = np.stack([s.x for s in samples])
    p = np.stack([np.full(3, np.nan) if s.p is None else s.p for s in samples])
    r = np.array([np.nan if s.r is None else s.r for s in samples])
    return x, p, r, np.array([s.off_content for s in samples]), np.stack([s.view for s in samples])


def geodesic_features(users, x, p, r, off, view, graph):
    """``compute_pair_features`` with ``gaze_geo`` from ``geodesic_gaze``, joined as the table pass joins them.

    An off-content user's r is taken as NaN, as ``compute_pair_features`` takes it.
    """
    feats = compute_pair_features(users, x, p, r, off, view=view)
    return dataclasses.replace(feats, gaze_geo=geodesic_gaze(p, np.where(off, np.nan, r), graph))


def overlap_columns(samples):
    """(x, view, off) frame arrays for overlap_matrix."""
    return np.stack([s.x for s in samples]), np.stack([s.view for s in samples]), np.array([s.off_content for s in samples])


def square_matrix(values):
    """A float64 copy of a plain value grid with a NaN diagonal; NaN marks invalid."""
    out = np.array(values, dtype=np.float64)
    np.fill_diagonal(out, np.nan)
    return out


def valid(values):
    """Where an array of pair values holds a value: ``~np.isnan``."""
    return ~np.isnan(values)


def overlaps(pc, frames=None):
    """A content's exact overlap stack, one (n, n) table per requested frame."""
    from viewsim.pipeline import metric_matrices

    return metric_matrices(pc, [MetricId.OVERLAP], frames)[MetricId.OVERLAP].values


@pytest.fixture(scope="session")
def unit_sphere_cloud():
    from viewsim.synth import _fibonacci_sphere

    return PointCloudFrame(0.0, _fibonacci_sphere(20000, 1.0))


@pytest.fixture(scope="session")
def small_cloud():
    rng = np.random.default_rng(42)
    return PointCloudFrame(0.0, rng.uniform(-1.0, 1.0, (300, 3)))


@pytest.fixture(scope="session")
def narrow_content():
    """Prepared content whose frusta clip the object: non-trivial overlaps."""
    from viewsim.pipeline import prepare_scenario
    from viewsim.synth import three_orbit_groups

    scenario = three_orbit_groups(seed=11, users_per_group=3, n_frames=6, points_per_frame=2500)
    return prepare_scenario(scenario, frustum=FrustumParams(hfov=0.5, vfov=0.5))


@pytest.fixture(scope="session")
def default_params():
    return FrustumParams()


def assert_close(a, b, tol=1e-12, rel=False):
    a, b = float(a), float(b)
    if math.isnan(a) and math.isnan(b):
        return
    err = abs(a - b) / max(abs(b), 1e-300) if rel else abs(a - b)
    assert err <= tol, f"{a} vs {b} (err {err:g} > {tol:g})"
