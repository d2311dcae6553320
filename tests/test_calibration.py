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
    FIGURES,
    AblationRecord,
    RocPoint,
    auc,
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
from oracles import auc_oracle, roc_oracle


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


def _rows(roc):
    """The ROC arrays as (threshold, tpr, fpr) rows of Python floats."""
    return list(zip(*(a.tolist() for a in roc)))


def _roc(rows):
    """Three float64 arrays from (threshold, tpr, fpr) rows."""
    return tuple(np.array(col, dtype=np.float64) for col in zip(*rows))


@pytest.mark.parametrize("seed", range(8))
def test_roc_matches_oracle(seed):
    values, labels = _labelled(seed)
    roc = roc_curve(values, labels)
    assert len(roc) == 3
    for a in roc:
        assert isinstance(a, np.ndarray) and a.dtype == np.float64 and a.shape == roc[0].shape
    assert _rows(roc) == roc_oracle(values, labels)


SAMPLES = pytest.mark.parametrize("values, labels", [
    (np.round(np.random.default_rng(0).random(500), 1), np.random.default_rng(1).random(500) < 0.3),
    (np.random.default_rng(2).random(300) * 2.0, np.random.default_rng(3).random(300) < 0.5),
    (np.full(50, 0.4), np.arange(50) < 20),
    (np.random.default_rng(4).random(60), np.arange(60) == 17),
], ids=["heavy-ties", "above-one", "all-equal", "single-positive"])


@SAMPLES
def test_roc_matches_oracle_bit_for_bit(values, labels):
    # w7/w8 reach 2*beta, so values above 1 must keep their own candidates
    got = [tuple(np.float64(x).tobytes() for x in row) for row in _rows(roc_curve(values, labels))]
    want = [tuple(np.float64(x).tobytes() for x in row) for row in roc_oracle(values, labels)]
    assert got == want


@SAMPLES
def test_auc_is_the_rank_statistic(values, labels):
    assert auc(roc_curve(values, labels)) == pytest.approx(auc_oracle(values, labels), rel=0, abs=1e-12)


def test_auc_of_a_constant_metric_is_one_half_and_of_a_separating_one_is_one():
    labels = np.arange(50) < 20
    for value in (0.0, 0.4, 1.0, 1.7):
        assert auc(roc_curve(np.full(50, value), labels)) == 0.5
    assert auc(roc_curve(np.where(labels, 1.5, 0.2), labels)) == 1.0
    assert auc(roc_curve(np.where(labels, 0.2, 1.5), labels)) == 0.0


def test_roc_thresholds_are_sorted_unique_with_endpoints():
    values, labels = _labelled(3)
    ths = roc_curve(values, labels)[0]
    assert np.all(np.diff(ths) > 0)
    assert 0.0 in ths and 1.0 in ths


def test_roc_rates_monotone_in_threshold():
    values, labels = _labelled(5, n=400)
    _, tpr, fpr = roc_curve(values, labels)
    assert np.all(np.diff(tpr) <= 0) and np.all(np.diff(fpr) <= 0)
    assert tpr[0] == 1.0 and fpr[0] == 1.0  # threshold 0 accepts all


def test_roc_tie_values_counted_together():
    values = [0.5, 0.5, 0.5, 0.2]
    labels = [True, True, False, False]
    by_th = {th: (tpr, fpr) for th, tpr, fpr in _rows(roc_curve(values, labels))}
    assert by_th[0.5] == (1.0, 0.5)
    assert by_th[1.0][0] == 0.0


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
    assert _rows(roc_curve(vals, labels)) == roc_oracle(vals, labels)


# ---------------------------------------------------------- select_threshold


def test_select_largest_threshold_meeting_target():
    roc = _roc([(0.0, 1.0, 1.0), (0.3, 0.9, 0.5), (0.6, 0.8, 0.2), (0.9, 0.4, 0.0)])
    assert select_threshold(roc, target_tpr=0.75) == RocPoint(threshold=0.6, tpr=0.8, fpr=0.2)
    assert select_threshold(roc, target_tpr=0.95).threshold == 0.0
    assert select_threshold(roc, target_tpr=0.4).threshold == 0.9
    # the point holds Python floats, so a JSON writer takes its fields and comparisons
    point = select_threshold(roc, target_tpr=0.75)
    assert all(type(v) is float for v in (point.threshold, point.tpr, point.fpr))
    assert type(point.fpr < 0.4) is bool


def test_select_unattainable_target():
    roc = _roc([(0.5, 0.7, 0.1)])
    with pytest.raises(UnattainableTargetError, match=r"no threshold reaches TPR 1.1 \(best achievable 0.7000\)"):
        select_threshold(roc, target_tpr=1.1)


@pytest.mark.parametrize("target", [-0.5, 0.0, math.nan])
def test_non_positive_target_tpr_refused_before_any_table(narrow_content, target):
    with pytest.raises(InvalidParamsError, match="target_tpr"):
        select_threshold(_roc([(0.5, 0.7, 0.1)]), target_tpr=target)
    pc = replace(narrow_content)
    with pytest.raises(InvalidParamsError, match="target_tpr"):
        calibrate_contents([pc], target_tpr=target)
    assert pc.tables == {}


def test_select_empty_roc():
    with pytest.raises(PreconditionError, match="empty ROC"):
        select_threshold((np.empty(0), np.empty(0), np.empty(0)))


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
    o = square_matrix([[nan, 0.8, 0.5], [0.8, nan, nan], [0.5, nan, nan]])
    values, labels = pair_samples([m[None]], [o[None]], o_th=0.75)
    # only (0,1) is valid in both matrices
    assert values.tolist() == [0.9]
    assert labels.tolist() == [True]


def test_pair_samples_labels_threshold_inclusive():
    m = square_matrix([[float("nan"), 0.5], [0.5, float("nan")]])
    o = square_matrix([[float("nan"), 0.75], [0.75, float("nan")]])
    _, labels = pair_samples([m[None]], [o[None]], o_th=0.75)
    assert labels.tolist() == [True]


def test_pair_samples_concatenates_frames():
    m0 = square_matrix([[float("nan"), 0.2], [0.2, float("nan")]])
    m1 = square_matrix([[float("nan"), 0.7], [0.7, float("nan")]])
    o0 = square_matrix([[float("nan"), 0.1], [0.1, float("nan")]])
    o1 = square_matrix([[float("nan"), 0.9], [0.9, float("nan")]])
    values, labels = pair_samples([np.stack([m0, m1])], [np.stack([o0, o1])])
    assert values.tolist() == [0.2, 0.7]
    assert labels.tolist() == [False, True]
    # one stack per content: content by content, then frame by frame
    values, labels = pair_samples([m1[None], np.stack([m0, m1])], [o1[None], np.stack([o0, o1])])
    assert values.tolist() == [0.7, 0.2, 0.7]
    assert labels.tolist() == [True, False, True]


def test_pair_samples_user_mismatch():
    # the metric's stack and the ground truth's must have one shape: users and frames alike
    m = square_matrix([[float("nan"), 0.5], [0.5, float("nan")]])
    o = square_matrix(np.full((3, 3), 0.5))
    for ms, os_ in (([m[None]], [o[None]]), ([m[None]], [np.stack([m, m])]), ([m], [m])):
        with pytest.raises(InvalidParamsError):
            pair_samples(ms, os_)


def test_pair_samples_empty():
    values, labels = pair_samples([], [])
    assert values.size == 0 and labels.size == 0


# -------------------------------------------------------- end-to-end content


def test_calibrate_threshold_meets_target_on_content(narrow_content):
    pc = narrow_content
    roc, point = calibrate_contents([pc], [MetricId.W1], target_tpr=0.75)[MetricId.W1]
    assert point.tpr >= 0.75
    # the point is the ROC's largest threshold reaching the target, and it matches the oracle's row
    ths, tpr, fpr = roc
    assert point.threshold == ths[tpr >= 0.75].max()
    values, labels = pair_samples([metric_matrices(pc, [MetricId.W1])[MetricId.W1].values], [overlaps(pc)],
                                  pc.overlap_threshold)
    assert (point.threshold, point.tpr, point.fpr) in roc_oracle(values, labels)


def test_calibrate_contents_reports_all_requested_metrics(narrow_content):
    out = calibrate_contents([narrow_content], metrics=[MetricId.W1, MetricId.W2])
    assert set(out) == {MetricId.W1, MetricId.W2}
    for roc, point in out.values():
        assert point.tpr >= 0.75
        assert isinstance(point, RocPoint)
        assert len(roc) == 3 and all(isinstance(a, np.ndarray) and a.dtype == np.float64 for a in roc)


def test_calibrate_contents_builds_one_point_per_metric(narrow_content, monkeypatch):
    import viewsim.calibration as calibration

    built = []

    def counting(**fields):
        built.append(fields)
        return RocPoint(**fields)

    monkeypatch.setattr(calibration, "RocPoint", counting)
    metrics = [MetricId.W1, MetricId.W2, MetricId.W7]
    out = calibrate_contents([narrow_content], metrics)
    # one per selected threshold, none per candidate
    assert len(built) == len(metrics) and all(len(roc[0]) > 2 for roc, _ in out.values())


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
    assert all(tuple(r.figures) == FIGURES for r in records)


def test_ablate_deterministic(narrow_content):
    grid = (0.1, 0.5)
    a = run_ablation([narrow_content], MetricId.W7, grid=grid, threshold=0.6)
    b = run_ablation([narrow_content], MetricId.W7, grid=grid, threshold=0.6)
    assert len(a) == 8
    assert repr(a) == repr(b)


def test_ablate_fields_in_unit_range(narrow_content):
    for r in run_ablation([narrow_content], MetricId.W4, grid=(0.0, 1.0), threshold=0.84):
        for field in ("overlap_ratio", "relevant_population", "precision"):
            v = r.figures[field]
            assert math.isnan(v) or 0.0 <= v <= 1.0


def test_ablate_refuses_ground_truth_metric(narrow_content):
    with pytest.raises(InvalidParamsError):
        run_ablation([narrow_content], MetricId.OVERLAP, grid=(0.1,), threshold=0.75)


# ------------------------------------------------------ select_parameter_sets


def _rec(alpha, ov, pop, prec, beta=0.0, gamma=0.0):
    return AblationRecord(
        regulators=RegulatorSet(alpha, beta, gamma),
        figures={"overlap_ratio": ov, "relevant_population": pop, "precision": prec},
    )


def test_sets_argmax_per_field():
    records = [
        _rec(0.1, ov=0.5, pop=0.9, prec=0.2),
        _rec(0.5, ov=0.8, pop=0.1, prec=0.3),
        _rec(1.0, ov=0.2, pop=0.4, prec=0.9),
    ]
    sets = select_parameter_sets(records)
    assert list(sets) == ["set1", "set2", "set3"]
    assert sets["set1"].regulators.alpha == 0.5
    assert sets["set2"].regulators.alpha == 0.1
    assert sets["set3"].regulators.alpha == 1.0


def test_sets_tie_breaks_lexicographically():
    records = [
        _rec(0.5, ov=0.8, pop=0.5, prec=0.5, beta=0.5),
        _rec(0.5, ov=0.8, pop=0.5, prec=0.5, beta=0.1),
        _rec(0.1, ov=0.8, pop=0.5, prec=0.5, beta=2.0),
    ]
    sets = select_parameter_sets(records)
    assert sets["set1"].regulators.as_tuple() == (0.1, 2.0, 0.0)


def test_sets_skip_nan_fields():
    records = [
        _rec(0.1, ov=float("nan"), pop=0.9, prec=0.5),
        _rec(0.5, ov=0.3, pop=float("nan"), prec=0.1),
    ]
    sets = select_parameter_sets(records)
    assert sets["set1"].regulators.alpha == 0.5
    assert sets["set2"].regulators.alpha == 0.1


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
    assert b["set1"].figures["overlap_ratio"] >= s["set1"].figures["overlap_ratio"]
    assert b["set2"].figures["relevant_population"] >= s["set2"].figures["relevant_population"]
    assert b["set3"].figures["precision"] >= s["set3"].figures["precision"]


def test_3dof_scores_users_who_look_the_same_way_alike_and_reads_auc_one_half():
    # users side by side, all looking down -z at the sphere: the exact overlap tells near
    # pairs from far ones, the view angle is 0 for every pair (6-DoF against 3-DoF)
    from viewsim.geometry import FrustumParams
    from viewsim.pipeline import prepare_scenario
    from viewsim.synth import FixedDirectionGaze, GroupSpec, StaticMotion, SynthScenario

    groups = tuple(
        GroupSpec(size=1, motion=StaticMotion((x, 0.0, 2.5)), gaze=FixedDirectionGaze((0.0, 0.0, -1.0)))
        for x in (-0.6, -0.45, -0.3, -0.15, 0.0, 0.15, 0.3, 0.45, 0.6)
    )
    sc = SynthScenario(seed=4, cloud_kind="sphere", points_per_frame=3000, n_frames=2, fps=10.0, groups=groups)
    pc = prepare_scenario(sc, frustum=FrustumParams(hfov=0.5, vfov=0.5))
    mats = metric_matrices(pc, [MetricId.DOF3, MetricId.OVERLAP])
    values, labels = pair_samples([mats[MetricId.DOF3].values], [mats[MetricId.OVERLAP].values], pc.overlap_threshold)
    assert values.size == 2 * 36 and 0 < labels.sum() < labels.size
    assert set(values.tolist()) == {1.0}
    report = calibrate_contents([pc], [MetricId.DOF3, MetricId.W1])
    assert auc(report[MetricId.DOF3][0]) == 0.5
    assert auc(report[MetricId.W1][0]) > 0.9  # where the users stand tells them apart
