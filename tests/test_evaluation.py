"""Performance figures, aggregation, and partition agreement."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viewsim.clustering import ClusteringResult
from viewsim.errors import PreconditionError
from viewsim.evaluation import (
    FIGURES,
    aggregate,
    evaluate_result,
    overlap_ratio,
    precision,
    relevant_population,
    summarize_performance,
)
from viewsim.metrics import MetricId
from viewsim.pipeline import evaluate_content

from conftest import assert_close, square_matrix
from oracles import adjusted_rand_index, ari_oracle, overlap_per_cluster_oracle, precision_oracle

NAN = float("nan")


def _result(groups, ident=0, users=None):
    """A clustering of ``groups`` (cluster k is ``groups[k]``) over ``users``, default sorted ids."""
    users = tuple(sorted(u for g in groups for u in g)) if users is None else users
    cluster = {u: k for k, g in enumerate(groups) for u in g}
    return ClusteringResult(ident=ident, users=users, labels=np.array([cluster[u] for u in users], dtype=int))


# ------------------------------------------------------------- overlap_ratio


def test_cluster_overlap_is_pair_mean():
    o = square_matrix(
        [[NAN, 0.9, 0.5], [0.9, NAN, 0.7], [0.5, 0.7, NAN]]
    )
    c = _result([("u00", "u01", "u02")])
    assert_close(overlap_ratio(c, o, min_size=2), (0.9 + 0.5 + 0.7) / 3)


def test_cluster_overlap_skips_invalid_pairs():
    o = square_matrix(
        [[NAN, 0.9, NAN], [0.9, NAN, 0.7], [NAN, 0.7, NAN]]
    )
    assert_close(overlap_ratio(_result([("u00", "u01", "u02")]), o, min_size=2), 0.8)


def test_cluster_overlap_all_invalid_is_nan():
    o = square_matrix([[NAN, NAN], [NAN, NAN]])
    assert math.isnan(overlap_ratio(_result([("u00", "u01")]), o, min_size=2))


def test_cluster_overlap_needs_two_members():
    o = square_matrix([[NAN, 0.5], [0.5, NAN]])
    with pytest.raises(PreconditionError):
        overlap_ratio(_result([("u00",), ("u01",)]), o, min_size=1)


def test_overlap_ratio_refuses_min_size_below_two_without_a_singleton():
    o = square_matrix([[NAN, 0.5], [0.5, NAN]])
    for min_size in (1, 0):
        with pytest.raises(PreconditionError):
            overlap_ratio(_result([("u00", "u01")]), o, min_size=min_size)


def test_cluster_overlap_unknown_member():
    o = square_matrix([[NAN, 0.5], [0.5, NAN]])
    with pytest.raises(PreconditionError):
        overlap_ratio(_result([("u00", "u01", "zz")]), o, min_size=2)  # three users, a 2 × 2 matrix


# -------------------------------------------------------- relevant_population


def test_population_counts_members_of_large_clusters():
    r = _result([("a", "b", "c"), ("d", "e"), ("f",)])
    assert_close(relevant_population(r, min_size=3), 0.5)
    assert_close(relevant_population(r, min_size=2), 5 / 6)
    assert_close(relevant_population(r, min_size=1), 1.0)


def test_population_zero_when_all_small():
    r = _result([("a",), ("b",)])
    assert relevant_population(r, min_size=3) == 0.0


def test_population_empty_rejected():
    r = ClusteringResult(ident=0, users=(), labels=[])
    with pytest.raises(PreconditionError):
        relevant_population(r)


# ------------------------------------------------------------------ precision


def test_precision_counts_same_cluster_hits():
    ref = square_matrix(
        [
            [NAN, 0.9, 0.2, NAN],
            [0.9, NAN, 0.8, NAN],
            [0.2, 0.8, NAN, NAN],
            [NAN, NAN, NAN, NAN],
        ],
    )
    r = _result([("a", "b", "c"), ("d",)])
    assert_close(precision(r, ref, threshold=0.75), 2 / 3)
    assert_close(precision(r, ref, threshold=0.85), 1 / 3)


def test_precision_excludes_invalid_pairs_from_denominator():
    ref = square_matrix(
        [[NAN, 0.9, NAN], [0.9, NAN, NAN], [NAN, NAN, NAN]],
    )
    r = _result([("a", "b", "c")])
    assert_close(precision(r, ref, threshold=0.75), 1.0)


def test_precision_nan_without_valid_pairs():
    ref = square_matrix([[NAN, NAN], [NAN, NAN]])
    assert math.isnan(precision(_result([("a", "b")]), ref, threshold=0.5))


def test_precision_threshold_inclusive():
    ref = square_matrix([[NAN, 0.75], [0.75, NAN]])
    assert precision(_result([("a", "b")]), ref, threshold=0.75) == 1.0


def test_precision_missing_member_rejected():
    ref = square_matrix([[NAN, 0.9], [0.9, NAN]])
    with pytest.raises(PreconditionError):
        precision(_result([("a", "b", "c")]), ref, threshold=0.5)


def test_scoring_matches_pair_loop_oracles():
    # exact equality: the array versions sum the same values in the same order
    rng = np.random.default_rng(5)
    for trial in range(200):
        n = int(rng.integers(1, 30))
        vals = rng.random((n, n))
        vals = np.triu(vals, 1) + np.triu(vals, 1).T
        vals[np.triu(rng.random((n, n)) < 0.2, 1)] = NAN
        vals = np.minimum(vals, vals.T)  # keep invalid pairs symmetric
        users = tuple(f"u{k:02d}" for k in rng.permutation(n))  # index order != id order
        ref = square_matrix(vals)
        labels = rng.integers(-1 if trial % 2 else 0, max(1, n // 3), n)  # -1: not clustered
        groups = [[u for u, g in zip(users, labels) if g == k] for k in sorted(set(labels) - {-1})]
        groups += [[u] for u, g in zip(users, labels) if g == -1]  # a user not clustered is a singleton
        result = _result(groups, ident=trial, users=users)
        th = float(rng.choice([0.25, 0.5, 0.75]))
        got, want = precision(result, ref, th), precision_oracle(result, ref, th)
        assert got == want or (math.isnan(got) and math.isnan(want)), trial
        for min_size in (2, 3):
            per_cluster = [overlap_per_cluster_oracle(c, users, ref) for c in result.clusters if len(c) >= min_size]
            defined = [v for v in per_cluster if not math.isnan(v)]
            want = float(np.mean(defined)) if defined else math.nan
            got = overlap_ratio(result, ref, min_size)
            assert got == want or (math.isnan(got) and math.isnan(want)), trial


# ------------------------------------------------------------ evaluate_result


def _demo_overlap():
    return square_matrix(
        [
            [NAN, 0.9, 0.8, 0.1],
            [0.9, NAN, 0.85, 0.1],
            [0.8, 0.85, NAN, 0.1],
            [0.1, 0.1, 0.1, NAN],
        ],
    )


def test_evaluate_result_defaults_labels_to_overlap():
    r = _result([("a", "b", "c"), ("d",)])
    perf = evaluate_result(r, _demo_overlap(), label_threshold=0.75, min_size=3)
    assert tuple(perf) == FIGURES
    assert_close(perf["overlap_ratio"], (0.9 + 0.8 + 0.85) / 3)
    assert_close(perf["relevant_population"], 0.75)
    assert perf["precision"] == 1.0


def test_evaluate_result_separate_label_matrix():
    labels = square_matrix(
        [
            [NAN, 1.0, 0.0, 0.0],
            [1.0, NAN, 0.0, 0.0],
            [0.0, 0.0, NAN, 0.0],
            [0.0, 0.0, 0.0, NAN],
        ],
    )
    r = _result([("a", "b", "c"), ("d",)])
    perf = evaluate_result(r, _demo_overlap(), reference=labels, label_threshold=0.5, min_size=3)
    # overlap ratio still from the overlap matrix, precision from labels
    assert_close(perf["overlap_ratio"], (0.9 + 0.8 + 0.85) / 3)
    assert_close(perf["precision"], 1 / 3)


def test_evaluate_result_no_relevant_clusters():
    r = _result([("a", "b"), ("c", "d")])
    perf = evaluate_result(r, _demo_overlap(), min_size=3)
    assert math.isnan(perf["overlap_ratio"])
    assert perf["relevant_population"] == 0.0
    # precision still ranges over same-cluster pairs of every size
    assert_close(perf["precision"], 0.5)


def test_evaluate_result_refuses_users_that_differ_from_the_matrix():
    # a user missing and a user extra: the 4 × 4 matrix has no row for each clustered user
    for users in (("a", "b", "c"), ("a", "b", "c", "d", "e")):
        with pytest.raises(PreconditionError):
            evaluate_result(_result([users], users=users), _demo_overlap(), min_size=3)
    other = square_matrix(np.full((3, 3), 0.5))
    with pytest.raises(PreconditionError):
        evaluate_result(_result([("a", "b", "c"), ("d",)]), _demo_overlap(), reference=other, min_size=3)


# ------------------------------------------------------------------ aggregate


def test_aggregate_population_std():
    stats = aggregate([1.0, 2.0, 4.0])
    arr = np.array([1.0, 2.0, 4.0])
    assert_close(stats.mean, arr.mean())
    assert_close(stats.std, arr.std(ddof=0))
    assert stats.n_valid == 3 and stats.n_invalid == 0


def test_aggregate_excludes_but_counts_nan():
    stats = aggregate([1.0, NAN, 3.0, NAN])
    assert_close(stats.mean, 2.0)
    assert stats.n_valid == 2 and stats.n_invalid == 2


def test_aggregate_of_no_valid_entry_is_nan():
    for values, n_invalid in (([], 0), ([NAN], 1), ([NAN, NAN], 2)):
        stats = aggregate(values)
        assert math.isnan(stats.mean) and math.isnan(stats.std)
        assert stats.n_valid == 0 and stats.n_invalid == n_invalid


def test_summarize_performance_fields():
    perfs = [
        evaluate_result(_result([("a", "b", "c"), ("d",)]), _demo_overlap(), min_size=3),
        evaluate_result(_result([("a", "b"), ("c",), ("d",)]), _demo_overlap(), min_size=3),
    ]
    summary = summarize_performance(perfs)
    assert set(summary) == {"overlap_ratio", "relevant_population", "precision"}
    assert summary["overlap_ratio"].n_valid == 1
    assert summary["overlap_ratio"].n_invalid == 1
    assert summary["relevant_population"].n_valid == 2


# -------------------------------------------------------- adjusted rand index


def test_ari_identical_partition():
    labels = {"a": 0, "b": 0, "c": 1}
    assert adjusted_rand_index(labels, labels) == 1.0


def test_ari_label_names_irrelevant():
    a = {"a": 0, "b": 0, "c": 1, "d": 1}
    b = {"a": "x", "b": "x", "c": "y", "d": "y"}
    assert adjusted_rand_index(a, b) == 1.0


def test_ari_all_singletons_against_itself():
    a = {u: i for i, u in enumerate("abcd")}
    assert adjusted_rand_index(a, a) == 1.0


def test_ari_disagreement_is_below_one():
    a = {"a": 0, "b": 0, "c": 1, "d": 1}
    b = {"a": 0, "b": 1, "c": 0, "d": 1}
    assert adjusted_rand_index(a, b) < 0.5


def test_ari_mismatched_users():
    with pytest.raises(PreconditionError):
        adjusted_rand_index({"a": 0}, {"b": 0})
    with pytest.raises(PreconditionError):
        adjusted_rand_index({}, {})


@pytest.mark.parametrize("seed", range(10))
def test_ari_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    users = [f"u{k:02d}" for k in range(12)]
    a = {u: int(rng.integers(0, 4)) for u in users}
    b = {u: int(rng.integers(0, 4)) for u in users}
    assert_close(adjusted_rand_index(a, b), ari_oracle(a, b), tol=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    la=st.lists(st.integers(0, 3), min_size=2, max_size=16),
    shift=st.integers(0, 3),
)
def test_ari_permutation_invariance(la, shift):
    users = [f"u{k}" for k in range(len(la))]
    a = dict(zip(users, la))
    b = {u: (v + shift) % 4 for u, v in a.items()}
    assert adjusted_rand_index(a, b) == 1.0


# --------------------------------------------- ground-truth self-consistency


def test_overlap_clustering_scores_perfect_precision_per_frame(narrow_content):
    results, perfs, summary = evaluate_content(narrow_content, [MetricId.OVERLAP], mode="frame")[MetricId.OVERLAP]
    assert len(results) == len(perfs) == 6
    assert any((r.sizes >= narrow_content.relevant_min_size).any() for r in results)
    for p in perfs:
        assert math.isnan(p["precision"]) or p["precision"] == 1.0
        # clique edges require overlap >= threshold, so the cluster mean does too
        assert math.isnan(p["overlap_ratio"]) or p["overlap_ratio"] >= narrow_content.overlap_threshold
    assert summary["precision"].mean == 1.0


def test_overlap_clustering_scores_perfect_precision_per_chunk(narrow_content):
    results, perfs, summary = evaluate_content(narrow_content, [MetricId.OVERLAP], mode="chunk")[MetricId.OVERLAP]
    assert len(results) == len(perfs) >= 1
    for p in perfs:
        assert math.isnan(p["precision"]) or p["precision"] == 1.0
    assert summary["precision"].mean == 1.0
