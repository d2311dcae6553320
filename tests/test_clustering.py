import math

import numpy as np
import pytest

from viewsim.clustering import (
    ChunkSpec,
    ClusteringResult,
    chunk_adjacency,
    chunk_frame_ranges,
    clique_clustering,
    max_clique,
    mean_matrix,
    persistence_scores,
)
from viewsim.errors import InvalidParamsError, PreconditionError, SizeLimitError
from viewsim.metrics import MetricConfig, MetricId, RegulatorSet

from conftest import square_matrix, valid
from oracles import (
    chunk_adjacency_oracle,
    clique_clustering_oracle,
    max_cliques_oracle,
    persistence_scores_oracle,
    pick_clique_oracle,
)


def _config(threshold, metric=MetricId.W1):
    return MetricConfig(metric=metric, regulators=RegulatorSet(1.0, 0.0, 0.0), threshold=threshold)


def _users(n):
    return tuple(f"u{k:02d}" for k in range(n))


def test_adjacency_thresholding_inclusive():
    mat = square_matrix(
        [
            [np.nan, 0.80, 0.79, np.nan],
            [0.80, np.nan, 0.90, 0.10],
            [0.79, 0.90, np.nan, 0.80],
            [np.nan, 0.10, 0.80, np.nan],
        ]
    )
    g = mat >= _config(0.80).threshold  # frame mode's adjacency
    want = np.array(
        [
            [0, 1, 0, 0],
            [1, 0, 1, 0],
            [0, 1, 0, 1],
            [0, 0, 1, 1, ],
        ],
        dtype=bool,
    )
    want[3, 3] = False
    np.testing.assert_array_equal(g, want)
    clique_clustering(g, _users(4))  # the NaN diagonal compares False: a valid adjacency


def test_adjacency_invalid_pairs_never_edge():
    mat = square_matrix([[np.nan, np.nan], [np.nan, np.nan]])
    g = mat >= _config(0.0).threshold
    assert not g.any()


def test_adjacency_monotone_in_threshold():
    rng = np.random.default_rng(0)
    vals = rng.uniform(0, 1, (8, 8))
    vals = (vals + vals.T) / 2
    np.fill_diagonal(vals, np.nan)
    mat = square_matrix(vals)
    prev = None
    for th in (0.1, 0.3, 0.5, 0.7, 0.9):
        adj = mat >= _config(th).threshold
        if prev is not None:
            assert np.all(adj <= prev)  # raising the bar only removes edges
        prev = adj


def test_graph_validation():
    for fn in (clique_clustering, max_clique):
        with pytest.raises(ValueError):
            fn([[0, 1], [0, 0]], _users(2))  # asymmetric
        with pytest.raises(ValueError):
            fn([[1, 1], [1, 0]], _users(2))  # self loop
        with pytest.raises(ValueError):
            fn(np.zeros((2, 2), dtype=bool), _users(3))  # not one row per user


def test_max_clique_triangle_plus_pendant():
    adj = np.zeros((4, 4), dtype=bool)
    for i, j in [(0, 1), (0, 2), (1, 2), (2, 3)]:
        adj[i, j] = adj[j, i] = True
    clique = max_clique(adj, _users(4))
    assert clique == ("u00", "u01", "u02")


def test_max_clique_matches_exhaustive_enumeration():
    rng = np.random.default_rng(1)
    for trial in range(120):
        n = int(rng.integers(1, 13))
        p = rng.choice([0.2, 0.5, 0.8])
        adj = rng.random((n, n)) < p
        adj = np.triu(adj, 1)
        adj = adj | adj.T
        tie = rng.uniform(0, 1, (n, n))
        tie = (tie + tie.T) / 2
        np.fill_diagonal(tie, np.nan)
        users = tuple(f"u{k:02d}" for k in range(n))
        size, cliques = max_cliques_oracle(adj)
        got = max_clique(adj, users, tie=square_matrix(tie))
        assert len(got) == size
        got_idx = tuple(users.index(u) for u in got)
        assert got_idx in cliques
        want = pick_clique_oracle(cliques, tie, users)
        assert got_idx == want, f"trial {trial}: {got_idx} vs {want}"


def test_tie_breaks_by_mean_then_lex():
    # two disjoint triangles; the second has larger similarity values
    adj = np.zeros((6, 6), dtype=bool)
    for i, j in [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]:
        adj[i, j] = adj[j, i] = True
    vals = np.full((6, 6), np.nan)
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        vals[i, j] = vals[j, i] = 0.7
    for i, j in [(3, 4), (3, 5), (4, 5)]:
        vals[i, j] = vals[j, i] = 0.9
    clique = max_clique(adj, _users(6), tie=square_matrix(vals))
    assert clique == ("u03", "u04", "u05")
    # equal means: lexicographically smaller member tuple wins
    for i, j in [(3, 4), (3, 5), (4, 5)]:
        vals[i, j] = vals[j, i] = 0.7
    clique = max_clique(adj, _users(6), tie=square_matrix(vals))
    assert clique == ("u00", "u01", "u02")


def test_max_clique_without_tie_matrix_is_lexicographic():
    adj = np.zeros((6, 6), dtype=bool)
    for i, j in [(0, 5), (1, 4)]:
        adj[i, j] = adj[j, i] = True
    clique = max_clique(adj, _users(6))
    assert clique == ("u00", "u05")


def test_clique_clustering_partitions_and_orders():
    # clique of 4, triangle, an edge, and an isolated vertex
    n = 10
    adj = np.zeros((n, n), dtype=bool)
    quads = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    tris = [(4, 5), (4, 6), (5, 6)]
    for i, j in quads + tris + [(7, 8)]:
        adj[i, j] = adj[j, i] = True
    result = clique_clustering(adj, _users(n))
    assert result.sizes.tolist() == [4, 3, 2, 1]
    assert result.clusters[0] == ("u00", "u01", "u02", "u03")
    assert result.clusters[1] == ("u04", "u05", "u06")
    assert result.clusters[2] == ("u07", "u08")
    assert result.clusters[3] == ("u09",)
    assert result.labels.tolist() == [0, 0, 0, 0, 1, 1, 1, 2, 2, 3]
    assert not result.labels.flags.writeable


def test_clique_clustering_clusters_are_cliques():
    rng = np.random.default_rng(2)
    for _ in range(40):
        n = int(rng.integers(2, 14))
        adj = rng.random((n, n)) < 0.4
        adj = np.triu(adj, 1)
        adj = adj | adj.T
        result = clique_clustering(adj, _users(n))
        seen = []
        prev_size = None
        for c in result.clusters:
            idx = [int(u[1:]) for u in c]
            seen.extend(idx)
            for a in range(len(idx)):
                for b in range(a + 1, len(idx)):
                    assert adj[idx[a], idx[b]]
            if len(c) > 1:
                if prev_size is not None:
                    assert len(c) <= prev_size  # extraction can only shrink
                prev_size = len(c)
        assert sorted(seen) == list(range(n))


def test_clique_clustering_matches_subgraph_oracle():
    # planted equal-size cliques and tie values drawn from a few levels make
    # maximum cliques tie on size and on mean, so both tie-break keys decide
    rng = np.random.default_rng(3)
    for trial in range(150):
        n = int(rng.integers(1, 25))
        adj = np.triu(rng.random((n, n)) < rng.choice([0.1, 0.3, 0.6]), 1)
        size = int(rng.integers(2, 5))
        order = rng.permutation(n)
        for g in range(min(int(rng.integers(0, 4)), n // size)):
            members = order[g * size:(g + 1) * size]
            adj[np.ix_(members, members)] = True
        adj = np.triu(adj, 1)
        adj = adj | adj.T
        tie = rng.integers(0, 3, (n, n)) / 4.0
        tie = np.triu(tie, 1) + np.triu(tie, 1).T
        np.fill_diagonal(tie, np.nan)
        ids = rng.permutation(n) if trial % 2 else np.arange(n)  # index order != id order
        users = tuple(f"u{k:02d}" for k in ids)
        tie_m = square_matrix(tie) if trial % 3 else None
        want = clique_clustering_oracle(adj, users, tie_m)
        got = clique_clustering(adj, users, tie=tie_m)
        assert got.labels.tolist() == want, trial


def test_singletons_come_last_in_id_order():
    adj = np.zeros((5, 5), dtype=bool)
    adj[2, 4] = adj[4, 2] = True
    result = clique_clustering(adj, _users(5))
    assert result.clusters == [
        ("u02", "u04"),
        ("u00",),
        ("u01",),
        ("u03",),
    ]


def test_clustering_result_refuses_a_malformed_label_row():
    users = ("a", "b", "c")
    for labels in ([0, 0], [0, 0, 0, 1], [[0, 1, 2]], [0, -1, 1], [0, 2, 2], [1, 1, 1], [0.0, 1.0, 1.0]):
        with pytest.raises(ValueError):
            ClusteringResult(ident=0, users=users, labels=labels)
    given = np.array([1, 0, 1])
    result = ClusteringResult(ident=0, users=users, labels=given)
    assert result.sizes.tolist() == [1, 2] and result.clusters == [("b",), ("a", "c")]
    with pytest.raises(ValueError):
        result.labels[0] = 0  # the row is read-only; the caller's array is not
    given[0] = 0


def test_size_limit_enforced():
    n = 65
    with pytest.raises(SizeLimitError):
        clique_clustering(np.zeros((n, n), dtype=bool), _users(n))
    # 64 users is still fine
    clique_clustering(np.zeros((64, 64), dtype=bool), _users(64))


def test_persistence_fraction_counts_valid_frames_only():
    def frame(v01, valid=True):
        vals = np.full((2, 2), np.nan)
        if valid:
            vals[0, 1] = vals[1, 0] = v01
        return square_matrix(vals)

    # 24 hits of 30 valid frames is exactly the 0.8 default
    mats = np.stack([frame(0.9)] * 24 + [frame(0.1)] * 6)
    scores = persistence_scores(mats, threshold=0.8)
    assert scores[0, 1] == 24 / 30
    assert 24 / 30 >= 0.8  # binary-exact boundary
    g = chunk_adjacency(mats, _config(0.8), ChunkSpec())
    assert g[0, 1]
    # one hit fewer and the edge disappears
    mats = np.stack([frame(0.9)] * 23 + [frame(0.1)] * 7)
    assert not chunk_adjacency(mats, _config(0.8), ChunkSpec())[0, 1]
    # invalid frames leave the denominator
    mats = np.stack([frame(0.9)] * 8 + [frame(0.0, valid=False)] * 20 + [frame(0.1)] * 2)
    scores = persistence_scores(mats, threshold=0.8)
    assert scores[0, 1] == 0.8
    # a pair with no valid frame at all is invalid
    mats = np.stack([frame(0.0, valid=False)] * 5)
    scores = persistence_scores(mats, threshold=0.8)
    assert not valid(scores)[0, 1]


@pytest.mark.parametrize("seed", range(8))
def test_persistence_and_chunk_adjacency_match_oracle(seed):
    # values on a coarse grid, so some sit exactly at the threshold and some
    # fractions exactly at the persistence; NaN pairs and a pair invalid in every frame
    rng = np.random.default_rng(seed)
    n, frames = int(rng.integers(2, 8)), int(rng.integers(1, 9))
    mats = []
    for k in range(frames):
        vals = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], (n, n))
        vals = np.triu(vals, 1) + np.triu(vals, 1).T
        drop = rng.random((n, n)) < 0.3
        drop |= drop.T
        drop[0, 1] = drop[1, 0] = True
        vals[drop] = np.nan
        mats.append(square_matrix(vals))
    config, spec = _config(0.5), ChunkSpec(persistence=float(rng.choice([0.5, 0.75, 1.0])))
    window = np.stack(mats)
    got, want = persistence_scores(window, 0.5), persistence_scores_oracle(mats, 0.5)
    assert got.tobytes() == want.tobytes() and valid(got).tobytes() == valid(want).tobytes()
    assert not valid(got)[0, 1] and np.isnan(got[0, 1])
    g, w = chunk_adjacency(window, config, spec), chunk_adjacency_oracle(mats, config, spec)
    np.testing.assert_array_equal(g, w)


def test_persistence_empty_window_rejected():
    for fn in (mean_matrix, lambda w: persistence_scores(w, threshold=0.8)):
        with pytest.raises(PreconditionError):
            fn(np.empty((0, 2, 2)))


def test_mean_matrix_ignores_invalid_frames():
    def frame(v, valid=True):
        vals = np.full((2, 2), np.nan)
        if valid:
            vals[0, 1] = vals[1, 0] = v
        return square_matrix(vals)

    mats = np.stack([frame(0.2), frame(0.6), frame(0.0, valid=False)])
    mm = mean_matrix(mats)
    assert mm[0, 1] == pytest.approx(0.4)
    assert valid(mm)[0, 1]


def test_chunk_spec_validation_and_frame_count():
    assert ChunkSpec().frames_per_chunk(30.0) == 30
    assert ChunkSpec(window=0.5).frames_per_chunk(25.0) == 12
    assert ChunkSpec(window=0.01).frames_per_chunk(30.0) == 1
    with pytest.raises(InvalidParamsError):
        ChunkSpec(window=0.0)
    with pytest.raises(InvalidParamsError):
        ChunkSpec(persistence=0.0)
    with pytest.raises(InvalidParamsError):
        ChunkSpec(persistence=1.2)


def test_chunk_frame_ranges_cover_all_frames():
    assert chunk_frame_ranges(300, 30) == [range(k * 30, (k + 1) * 30) for k in range(10)]
    ranges = chunk_frame_ranges(65, 30)
    assert [list(r)[0] for r in ranges] == [0, 30, 60]
    assert list(ranges[-1]) == [60, 61, 62, 63, 64]  # trailing partial chunk kept
    assert chunk_frame_ranges(5, 30) == [range(0, 5)]
