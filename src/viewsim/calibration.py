"""Threshold calibration against ground truth, and the regulator sweep.

Calibration builds an exact empirical ROC over all valid pair-frames:
ground-truth labels are "overlap >= o_th", predictions are "metric >=
threshold", and candidate thresholds are every distinct observed value plus
0 and 1.  The selected threshold is the largest one whose TPR still reaches
the target: among thresholds meeting the TPR floor, the largest has the
lowest FPR.

The regulator sweep (``ablate``) yields one AblationRecord per regulator
combination; ``pipeline.run_ablation`` scores each one by frame-mode
evaluation at a fixed threshold.  Three named selections come out of the
records: set 1 maximizes overlap ratio, set 2 relevant population, set 3
precision.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateLabelsError,
    InvalidParamsError,
    PreconditionError,
    UnattainableTargetError,
)
from .metrics import MetricId, RegulatorSet, pair_indices

DEFAULT_GRID = (0.0, 0.05, 0.1, 0.125, 0.2, 0.25, 0.5, 1.0, 2.0)
DEFAULT_TARGET_TPR = 0.75
DEFAULT_OVERLAP_LABEL_THRESHOLD = 0.75
FPR_ADVISORY_CEILING = 0.4


@dataclass(frozen=True)
class RocPoint:
    threshold: float
    tpr: float
    fpr: float


@dataclass(frozen=True)
class AblationRecord:
    """Averaged clustering performance of one regulator combination."""

    metric: MetricId
    regulators: RegulatorSet
    overlap_ratio: float
    relevant_population: float
    precision: float


@dataclass(frozen=True)
class ParameterSets:
    """Argmax selections: set1 overlap, set2 population, set3 precision."""

    set1: AblationRecord
    set2: AblationRecord
    set3: AblationRecord


def roc_curve(values, labels) -> list:
    """Exact empirical ROC, one point per candidate threshold (ascending).

    ``values`` are metric similarities over valid pair-frames, ``labels``
    their boolean ground truth.  Needs both classes present.
    """
    v = np.asarray(values, dtype=np.float64)
    y = np.asarray(labels, dtype=bool)
    if v.shape != y.shape or v.ndim != 1:
        raise ValueError("values and labels must be parallel 1-D arrays")
    if v.size and not np.all(np.isfinite(v)):
        raise ValueError("metric values must be finite (filter invalid pairs first)")
    n_pos = int(y.sum())
    n_neg = int(v.size - n_pos)
    if n_pos == 0:
        raise DegenerateLabelsError("no positive labels: every overlap is below the threshold")
    if n_neg == 0:
        raise DegenerateLabelsError("no negative labels: every overlap reaches the threshold")
    # np.unique's sort-and-compare on finite values, without importing numpy.ma
    candidates = np.sort(np.concatenate([v, [0.0, 1.0]]))
    candidates = candidates[np.concatenate([[True], candidates[1:] != candidates[:-1]])]
    pos_sorted = np.sort(v[y])
    neg_sorted = np.sort(v[~y])
    # predictions at threshold t are "value >= t"
    tp = n_pos - np.searchsorted(pos_sorted, candidates, side="left")
    fp = n_neg - np.searchsorted(neg_sorted, candidates, side="left")
    return [
        RocPoint(threshold=float(t), tpr=int(a) / n_pos, fpr=int(b) / n_neg)
        for t, a, b in zip(candidates, tp, fp)
    ]


def select_threshold(roc: list, target_tpr: float = DEFAULT_TARGET_TPR) -> RocPoint:
    """Largest-threshold ROC point whose TPR is at least the target."""
    if not target_tpr > 0:
        raise InvalidParamsError(f"target_tpr must be > 0, got {target_tpr}")
    if not roc:
        raise PreconditionError("cannot select a threshold from an empty ROC")
    eligible = [pt for pt in roc if pt.tpr >= target_tpr]
    if not eligible:
        best = max(pt.tpr for pt in roc)
        raise UnattainableTargetError(
            f"no threshold reaches TPR {target_tpr} (best achievable {best:.4f})"
        )
    return max(eligible, key=lambda pt: pt.threshold)


def pair_samples(matrices: list, overlaps: list, o_th: float = DEFAULT_OVERLAP_LABEL_THRESHOLD):
    """Flatten per-frame matrices into (values, labels) over valid pairs.

    A pair-frame enters the sample iff it is valid for both the metric and
    the ground truth.
    """
    values = []
    labels = []
    for m, o in zip(matrices, overlaps):
        if m.users != o.users:
            raise InvalidParamsError("metric and overlap matrices must share users")
        iu = pair_indices(m.n)
        keep = m.valid[iu] & o.valid[iu]
        values.append(m.values[iu][keep])
        labels.append(o.values[iu][keep] >= o_th)
    if values:
        return np.concatenate(values), np.concatenate(labels)
    return np.empty(0), np.empty(0, dtype=bool)


def calibrate_threshold(
    matrices: list,
    overlaps: list,
    target_tpr: float = DEFAULT_TARGET_TPR,
    o_th: float = DEFAULT_OVERLAP_LABEL_THRESHOLD,
):
    """ROC plus the selected operating point for one metric."""
    values, labels = pair_samples(matrices, overlaps, o_th)
    roc = roc_curve(values, labels)
    return roc, select_threshold(roc, target_tpr)


def regulator_grid(metric: MetricId, grid, fixed: dict | None = None) -> list:
    """All regulator combinations for a metric over a value grid.

    A metric sweeps the regulators its terms read
    (``MetricId.regulator_names``) as a full product.  ``fixed`` pins named
    regulators to a single value (partial sweeps, e.g. a published slice).
    The ground-truth metric has no regulators and is refused.
    """
    if metric.is_overlap:
        raise InvalidParamsError("the ground-truth metric is not subject to ablation")
    pts = tuple(float(g) for g in grid)
    if not pts:
        raise PreconditionError("regulator grid must be non-empty")
    fixed = dict(fixed or {})
    names = metric.regulator_names
    for name in fixed:
        if name not in names:
            raise InvalidParamsError(f"{metric.value} does not sweep '{name}'")
    axes = [(fixed[name],) if name in fixed else pts for name in names]
    return [RegulatorSet(**dict(zip(names, combo))) for combo in itertools.product(*axes)]


def ablate(metric: MetricId, grid, score, fixed: dict | None = None) -> list:
    """One AblationRecord per regulator combination, in grid order.

    ``score(regulators)`` returns the averaged figures of one combination
    as a mapping of ``evaluation.FIGURES`` to floats.  The ground-truth
    metric and an invalid grid are refused before anything is scored.
    """
    return [AblationRecord(metric, reg, **score(reg)) for reg in regulator_grid(metric, grid, fixed)]


def _argmax_record(records: list, field: str) -> AblationRecord:
    defined = [r for r in records if not math.isnan(getattr(r, field))]
    if not defined:
        raise PreconditionError(f"no record defines {field}; cannot select a parameter set")
    best = max(getattr(r, field) for r in defined)
    tied = [r for r in defined if getattr(r, field) == best]
    return min(tied, key=lambda r: r.regulators.as_tuple())


def select_parameter_sets(records: list) -> ParameterSets:
    """Per-criterion argmax with the lexicographic regulator tie-break."""
    if not records:
        raise PreconditionError("cannot select parameter sets from zero records")
    return ParameterSets(
        set1=_argmax_record(records, "overlap_ratio"),
        set2=_argmax_record(records, "relevant_population"),
        set3=_argmax_record(records, "precision"),
    )
