"""ROC construction, threshold selection, and the regulator sweep (``run_ablation``)."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viewsim.calibration import (
    DEFAULT_GRID,
    AblationRecord,
    ParameterSets,
    RocPoint,
    calibrate_threshold,
    pair_samples,
    regulator_grid,
    roc_curve,
    select_parameter_sets,
    select_threshold,
)
from viewsim.errors import (
    DegenerateLabelsError,
    InvalidParamsError,
    PreconditionError,
    UnattainableTargetError,
)
from viewsim.metrics import MetricId, RegulatorSet
from viewsim.pipeline import calibrate_contents, metric_matrices, run_ablation

from conftest import assert_close, overlaps, square_matrix
from oracles import roc_oracle


def _labelled(seed, n=200, ties=True):
    rng = np.random.default_rng(seed)
    values = rng.random(n)
    if ties:
        values = np.round(values, 2)
    labels = rng.random(n) < 0.4
    # force both classes
    labels[0], labels[1] = True, False
    return values, labels


# ---------------------------------------------------------------- roc_curve


@pytest.mark.parametrize("seed", range(8))
def test_roc_matches_oracle(seed):
    values, labels = _labelled(seed)
    pts = roc_curve(values, labels)
    rows = roc_oracle(values, labels)
    assert len(pts) == len(rows)
    for pt, (th, tpr, fpr) in zip(pts, rows):
        assert pt.threshold == th
        assert pt.tpr == tpr
        assert pt.fpr == fpr


def test_roc_thresholds_are_sorted_unique_with_endpoints():
    values, labels = _labelled(3)
    pts = roc_curve(values, labels)
    ths = [pt.threshold for pt in pts]
    assert ths == sorted(set(ths))
    assert 0.0 in ths and 1.0 in ths


def test_roc_rates_monotone_in_threshold():
    values, labels = _labelled(5, n=400)
    pts = roc_curve(values, labels)
    for a, b in zip(pts, pts[1:]):
        assert b.tpr <= a.tpr
        assert b.fpr <= a.fpr
    assert pts[0].tpr == 1.0 and pts[0].fpr == 1.0  # threshold 0 accepts all


def test_roc_tie_values_counted_together():
    values = [0.5, 0.5, 0.5, 0.2]
    labels = [True, True, False, False]
    by_th = {pt.threshold: pt for pt in roc_curve(values, labels)}
    assert by_th[0.5].tpr == 1.0
    assert by_th[0.5].fpr == 0.5
    assert by_th[1.0].tpr == 0.0


def test_roc_rejects_single_class():
    with pytest.raises(DegenerateLabelsError):
        roc_curve([0.1, 0.9], [True, True])
    with pytest.raises(DegenerateLabelsError):
        roc_curve([0.1, 0.9], [False, False])


def test_roc_rejects_nan_and_shape_mismatch():
    with pytest.raises(ValueError):
        roc_curve([0.1, np.nan], [True, False])
    with pytest.raises(ValueError):
        roc_curve([0.1, 0.2, 0.3], [True, False])


@settings(max_examples=60, deadline=None)
@given(
    vals=st.lists(st.floats(min_value=0.0, max_value=1.0, width=32), min_size=2, max_size=40),
    flips=st.integers(min_value=1, max_value=39),
)
def test_roc_oracle_agreement_property(vals, flips):
    labels = [i < flips % len(vals) for i in range(len(vals))]
    if all(labels) or not any(labels):
        labels[0] = not labels[0]
    pts = roc_curve(vals, labels)
    rows = roc_oracle(vals, labels)
    assert [(p.threshold, p.tpr, p.fpr) for p in pts] == rows


# ---------------------------------------------------------- select_threshold


def test_select_largest_threshold_meeting_target():
    pts = [
        RocPoint(threshold=0.0, tpr=1.0, fpr=1.0),
        RocPoint(threshold=0.3, tpr=0.9, fpr=0.5),
        RocPoint(threshold=0.6, tpr=0.8, fpr=0.2),
        RocPoint(threshold=0.9, tpr=0.4, fpr=0.0),
    ]
    assert select_threshold(pts, target_tpr=0.75).threshold == 0.6
    assert select_threshold(pts, target_tpr=0.95).threshold == 0.0
    assert select_threshold(pts, target_tpr=0.4).threshold == 0.9


def test_select_unattainable_target():
    pts = [RocPoint(threshold=0.5, tpr=0.7, fpr=0.1)]
    with pytest.raises(UnattainableTargetError):
        select_threshold(pts, target_tpr=1.1)


@pytest.mark.parametrize("target", [-0.5, 0.0, math.nan])
def test_non_positive_target_tpr_refused_before_any_table(narrow_content, target):
    with pytest.raises(InvalidParamsError, match="target_tpr"):
        select_threshold([RocPoint(threshold=0.5, tpr=0.7, fpr=0.1)], target_tpr=target)
    pc = replace(narrow_content, tables={})
    with pytest.raises(InvalidParamsError, match="target_tpr"):
        calibrate_contents([pc], target_tpr=target)
    assert pc.tables == {}


def test_select_empty_roc():
    with pytest.raises(PreconditionError):
        select_threshold([])


def test_select_self_consistent_labels():
    # labels derived from the values themselves: the cut is recovered exactly
    rng = np.random.default_rng(17)
    values = np.round(rng.random(500), 3)
    labels = values >= 0.6
    if not labels.any() or labels.all():
        pytest.fail("bad draw")
    point = select_threshold(roc_curve(values, labels), target_tpr=1.0)
    assert point.tpr == 1.0
    assert point.fpr == 0.0
    assert point.threshold == min(values[labels])


# -------------------------------------------------------------- pair_samples


def test_pair_samples_filters_to_jointly_valid():
    nan = float("nan")
    m = square_matrix([[nan, 0.9, nan], [0.9, nan, 0.4], [nan, 0.4, nan]])
    o = square_matrix([[nan, 0.8, 0.5], [0.8, nan, nan], [0.5, nan, nan]], metric=MetricId.OVERLAP)
    values, labels = pair_samples([m], [o], o_th=0.75)
    # only (0,1) is valid in both matrices
    assert values.tolist() == [0.9]
    assert labels.tolist() == [True]


def test_pair_samples_labels_threshold_inclusive():
    m = square_matrix([[float("nan"), 0.5], [0.5, float("nan")]])
    o = square_matrix([[float("nan"), 0.75], [0.75, float("nan")]], metric=MetricId.OVERLAP)
    _, labels = pair_samples([m], [o], o_th=0.75)
    assert labels.tolist() == [True]


def test_pair_samples_concatenates_frames():
    m0 = square_matrix([[float("nan"), 0.2], [0.2, float("nan")]], frame=0)
    m1 = square_matrix([[float("nan"), 0.7], [0.7, float("nan")]], frame=1)
    o0 = square_matrix([[float("nan"), 0.1], [0.1, float("nan")]], frame=0, metric=MetricId.OVERLAP)
    o1 = square_matrix([[float("nan"), 0.9], [0.9, float("nan")]], frame=1, metric=MetricId.OVERLAP)
    values, labels = pair_samples([m0, m1], [o0, o1])
    assert values.tolist() == [0.2, 0.7]
    assert labels.tolist() == [False, True]


def test_pair_samples_user_mismatch():
    m = square_matrix([[float("nan"), 0.5], [0.5, float("nan")]], users=("a", "b"))
    o = square_matrix([[float("nan"), 0.5], [0.5, float("nan")]], users=("a", "c"),
                      metric=MetricId.OVERLAP)
    with pytest.raises(InvalidParamsError):
        pair_samples([m], [o])


def test_pair_samples_empty():
    values, labels = pair_samples([], [])
    assert values.size == 0 and labels.size == 0


# -------------------------------------------------------- end-to-end content


def test_calibrate_threshold_meets_target_on_content(narrow_content):
    pc = narrow_content
    mats = metric_matrices(pc, [MetricId.W1])[MetricId.W1]
    ovs = overlaps(pc)
    roc, point = calibrate_threshold(mats, ovs, target_tpr=0.75)
    assert point.tpr >= 0.75
    assert any(pt.threshold == point.threshold for pt in roc)


def test_calibrate_contents_reports_all_requested_metrics(narrow_content):
    out = calibrate_contents([narrow_content], metrics=[MetricId.W1, MetricId.W2])
    assert set(out) == {MetricId.W1, MetricId.W2}
    for roc, point in out.values():
        assert point.tpr >= 0.75
        assert isinstance(point, RocPoint) and isinstance(roc[0], RocPoint)


# ------------------------------------------------------------ regulator_grid


def test_grid_single_feature_sweeps_alpha_only():
    combos = regulator_grid(MetricId.W1, (0.1, 0.5, 1.0))
    assert [c.as_tuple() for c in combos] == [(0.1, 0.0, 0.0), (0.5, 0.0, 0.0), (1.0, 0.0, 0.0)]


def test_grid_multi_feature_full_product_in_order():
    pts = (0.1, 0.5)
    combos = regulator_grid(MetricId.W7, pts)
    expect = [RegulatorSet(a, b, g).as_tuple() for a, b, g in itertools.product(pts, pts, pts)]
    assert [c.as_tuple() for c in combos] == expect


def test_grid_default_size():
    assert len(regulator_grid(MetricId.W7, DEFAULT_GRID)) == 729
    assert len(regulator_grid(MetricId.W3, DEFAULT_GRID)) == 9


def test_grid_fixed_pins_one_axis():
    combos = regulator_grid(MetricId.W8, (0.1, 0.5), fixed={"beta": 2.0})
    assert len(combos) == 4
    assert all(c.beta == 2.0 for c in combos)


def test_grid_fixed_unknown_name():
    with pytest.raises(InvalidParamsError):
        regulator_grid(MetricId.W2, (0.1,), fixed={"beta": 1.0})


def test_grid_empty_rejected():
    with pytest.raises(PreconditionError):
        regulator_grid(MetricId.W1, ())


# ------------------------------------------------------------------- ablate


def test_ablate_records_in_grid_order(narrow_content):
    grid = (0.1, 0.5)
    records = run_ablation([narrow_content], MetricId.W2, grid=grid, threshold=0.8)
    assert [r.regulators.alpha for r in records] == [0.1, 0.5]
    assert all(r.metric is MetricId.W2 for r in records)


def test_ablate_deterministic(narrow_content):
    grid = (0.1, 0.5)
    a = run_ablation([narrow_content], MetricId.W7, grid=grid, threshold=0.6)
    b = run_ablation([narrow_content], MetricId.W7, grid=grid, threshold=0.6)
    assert len(a) == 8
    assert repr(a) == repr(b)


def test_ablate_fields_in_unit_range(narrow_content):
    for r in run_ablation([narrow_content], MetricId.W4, grid=(0.0, 1.0), threshold=0.84):
        for field in ("overlap_ratio", "relevant_population", "precision"):
            v = getattr(r, field)
            assert math.isnan(v) or 0.0 <= v <= 1.0


def test_ablate_refuses_ground_truth_metric(narrow_content):
    with pytest.raises(InvalidParamsError):
        run_ablation([narrow_content], MetricId.OVERLAP, grid=(0.1,), threshold=0.75)


# ------------------------------------------------------ select_parameter_sets


def _rec(alpha, ov, pop, prec, beta=0.0, gamma=0.0):
    return AblationRecord(
        metric=MetricId.W7,
        regulators=RegulatorSet(alpha, beta, gamma),
        overlap_ratio=ov,
        relevant_population=pop,
        precision=prec,
    )


def test_sets_argmax_per_field():
    records = [
        _rec(0.1, ov=0.5, pop=0.9, prec=0.2),
        _rec(0.5, ov=0.8, pop=0.1, prec=0.3),
        _rec(1.0, ov=0.2, pop=0.4, prec=0.9),
    ]
    sets = select_parameter_sets(records)
    assert sets.set1.regulators.alpha == 0.5
    assert sets.set2.regulators.alpha == 0.1
    assert sets.set3.regulators.alpha == 1.0


def test_sets_tie_breaks_lexicographically():
    records = [
        _rec(0.5, ov=0.8, pop=0.5, prec=0.5, beta=0.5),
        _rec(0.5, ov=0.8, pop=0.5, prec=0.5, beta=0.1),
        _rec(0.1, ov=0.8, pop=0.5, prec=0.5, beta=2.0),
    ]
    sets = select_parameter_sets(records)
    assert sets.set1.regulators.as_tuple() == (0.1, 2.0, 0.0)


def test_sets_skip_nan_fields():
    records = [
        _rec(0.1, ov=float("nan"), pop=0.9, prec=0.5),
        _rec(0.5, ov=0.3, pop=float("nan"), prec=0.1),
    ]
    sets = select_parameter_sets(records)
    assert sets.set1.regulators.alpha == 0.5
    assert sets.set2.regulators.alpha == 0.1


def test_sets_all_nan_field_rejected():
    records = [_rec(0.1, ov=float("nan"), pop=0.5, prec=0.5)]
    with pytest.raises(PreconditionError):
        select_parameter_sets(records)


def test_sets_empty_rejected():
    with pytest.raises(PreconditionError):
        select_parameter_sets([])


def test_superset_grid_never_selects_worse(narrow_content):
    small = run_ablation([narrow_content], MetricId.W3, grid=(0.1, 1.0), threshold=0.63)
    big = run_ablation([narrow_content], MetricId.W3, grid=(0.1, 0.5, 1.0), threshold=0.63)
    s, b = select_parameter_sets(small), select_parameter_sets(big)
    assert b.set1.overlap_ratio >= s.set1.overlap_ratio
    assert b.set2.relevant_population >= s.set2.relevant_population
    assert b.set3.precision >= s.set3.precision
