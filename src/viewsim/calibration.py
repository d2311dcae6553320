"""Threshold calibration against ground truth, and the regulator sweep.

Calibration builds an exact empirical ROC over all valid pair-frames:
ground-truth labels are "overlap >= o_th", predictions are "metric >=
threshold", and candidate thresholds are every distinct observed value plus
0 and 1.  The ROC is three parallel float64 arrays, ``(threshold, tpr,
fpr)``, thresholds ascending.  The selected threshold is the largest one
whose TPR still reaches the target: among thresholds meeting the TPR floor,
the largest has the lowest FPR.  It alone becomes a ``RocPoint``.

The regulator sweep (``ablate``) yields one AblationRecord per regulator
combination; ``pipeline.run_ablation`` scores each one by frame-mode
evaluation at a fixed threshold.  ``FIGURES`` names the three figures
evaluation scores, once.  Three named selections come out of the records:
set k maximizes ``FIGURES[k-1]`` (overlap ratio, relevant population,
precision).
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
FIGURES = ("overlap_ratio", "relevant_population", "precision")
FPR_ADVISORY_CEILING = 0.4


@dataclass(frozen=True)
class RocPoint:
    threshold: float
    tpr: float
    fpr: float


@dataclass(frozen=True)
class AblationRecord:
    """Averaged clustering performance of one regulator combination, ``{figure: value}`` in FIGURES order."""

    regulators: RegulatorSet
    figures: dict


def roc_curve(values, labels) -> tuple:
    """Exact empirical ROC as ``(threshold, tpr, fpr)`` arrays, thresholds ascending.

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
    return candidates, tp / n_pos, fp / n_neg


def select_threshold(roc: tuple, target_tpr: float = DEFAULT_TARGET_TPR) -> RocPoint:
    """The largest-threshold point of ``roc_curve``'s arrays whose TPR is at least the target."""
    if not target_tpr > 0:
        raise InvalidParamsError(f"target_tpr must be > 0, got {target_tpr}")
    threshold, tpr, fpr = roc
    if not len(threshold):
        raise PreconditionError("cannot select a threshold from an empty ROC")
    eligible = np.flatnonzero(tpr >= target_tpr)
    if not eligible.size:
        raise UnattainableTargetError(f"no threshold reaches TPR {target_tpr} (best achievable {tpr.max():.4f})")
    i = eligible[np.argmax(threshold[eligible])]
    return RocPoint(threshold=float(threshold[i]), tpr=float(tpr[i]), fpr=float(fpr[i]))


def auc(roc: tuple) -> float:
    """Area under ``roc_curve``'s ROC: the trapezoid over FPR ascending, from (0, 0) to (1, 1)."""
    _, tpr, fpr = roc
    return float(np.trapezoid(np.r_[0.0, tpr[::-1], 1.0], np.r_[0.0, fpr[::-1], 1.0]))


def pair_samples(matrices: list, overlaps: list, o_th: float = DEFAULT_OVERLAP_LABEL_THRESHOLD):
    """Flatten parallel lists of (frames, n, n) stacks, one per content, into (values, labels) over valid pairs.

    A pair-frame enters the sample iff it is valid (not NaN) for both the
    metric and the ground truth; samples run content by content, frame by
    frame, pair by pair in ``pair_indices`` order.
    """
    values = []
    labels = []
    for m, o in zip(matrices, overlaps, strict=True):
        if m.shape != o.shape or m.ndim != 3:
            raise InvalidParamsError(f"metric and overlap stacks must share a (frames, n, n) shape: {m.shape} {o.shape}")
        a, b = pair_indices(m.shape[-1])
        mv, ov = m[:, a, b], o[:, a, b]
        keep = ~np.isnan(mv) & ~np.isnan(ov)
        values.append(mv[keep])
        labels.append(ov[keep] >= o_th)
    if values:
        return np.concatenate(values), np.concatenate(labels)
    return np.empty(0), np.empty(0, dtype=bool)


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
    as a mapping of ``FIGURES`` to floats.  The ground-truth
    metric and an invalid grid are refused before anything is scored.
    """
    return [AblationRecord(reg, score(reg)) for reg in regulator_grid(metric, grid, fixed)]


def _argmax_record(records: list, figure: str) -> AblationRecord:
    defined = [r for r in records if not math.isnan(r.figures[figure])]
    if not defined:
        raise PreconditionError(f"no record defines {figure}; cannot select a parameter set")
    best = max(r.figures[figure] for r in defined)
    tied = [r for r in defined if r.figures[figure] == best]
    return min(tied, key=lambda r: r.regulators.as_tuple())


def select_parameter_sets(records: list) -> dict:
    """``{"set1": …, "set2": …, "set3": …}``: set k is the argmax of ``FIGURES[k-1]``, ties to the least regulators."""
    if not records:
        raise PreconditionError("cannot select parameter sets from zero records")
    return {f"set{k}": _argmax_record(records, figure) for k, figure in enumerate(FIGURES, 1)}
