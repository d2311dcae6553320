"""End-to-end command line runs in subprocesses."""

import csv
import json
import subprocess
import sys

import pytest


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "viewsim.cli", *map(str, argv)],
        capture_output=True,
        text=True,
    )


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """CLI-generated dataset: 9 users in three orbit groups, 4 frames."""
    root = tmp_path_factory.mktemp("cli-data")
    proc = run_cli(
        "--seed", 11, "--out", root, "synth",
        "--users-per-group", 3, "--frames", 4, "--points", 300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "synth-sphere-11" in proc.stdout
    return root


@pytest.fixture(scope="module")
def narrow_manifest(dataset):
    """Same dataset viewed through a narrow frustum: non-trivial overlaps."""
    doc = json.loads((dataset / "manifest.json").read_text())
    doc["frustum"] = {"hfov": 0.5, "vfov": 0.5}
    path = dataset / "narrow.json"
    path.write_text(json.dumps(doc))
    return path


# ---------------------------------------------------------------- synth


def test_synth_is_deterministic(dataset, tmp_path):
    proc = run_cli(
        "--seed", 11, "--out", tmp_path, "synth",
        "--users-per-group", 3, "--frames", 4, "--points", 300,
    )
    assert proc.returncode == 0
    for name in ("manifest.json", "trajectories.csv", "clouds/frame_000003.ply"):
        assert (tmp_path / name).read_bytes() == (dataset / name).read_bytes()


def test_synth_from_scenario_file(tmp_path):
    doc = {
        "seed": 2,
        "cloud_kind": "sphere",
        "points_per_frame": 60,
        "n_frames": 2,
        "fps": 10.0,
        "groups": [
            {
                "size": 2,
                "motion": {"kind": "orbit", "radius": 2.0, "angular_speed": 0.3},
                "gaze": {"kind": "at-centroid"},
            }
        ],
    }
    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps(doc))
    proc = run_cli("--out", tmp_path / "ds", "synth", "--scenario", scen)
    assert proc.returncode == 0
    labels = json.loads((tmp_path / "ds" / "labels.json").read_text())
    assert labels["groups"] == {"u00": 0, "u01": 0}


# -------------------------------------------------------------- overlap


def test_overlap_row_count_and_schema(dataset, tmp_path):
    proc = run_cli("--manifest", dataset / "manifest.json", "--out", tmp_path, "overlap")
    assert proc.returncode == 0, proc.stderr
    rows = read_csv(tmp_path / "overlap_synth-sphere-11.csv")
    assert rows[0] == ["frame", "user_i", "user_j", "metric", "value", "valid"]
    body = rows[1:]
    assert len(body) == 4 * 36  # frames x unordered pairs
    assert {r[3] for r in body} == {"overlap"}
    assert {r[0] for r in body} == {"0", "1", "2", "3"}
    for r in body:
        assert r[5] in ("0", "1")
        if r[5] == "1":
            assert 0.0 <= float(r[4]) <= 1.0


def test_overlap_threads_do_not_change_output(dataset, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    p1 = run_cli("--manifest", dataset / "manifest.json", "--threads", 1, "--out", a, "overlap")
    p2 = run_cli("--manifest", dataset / "manifest.json", "--threads", 3, "--out", b, "overlap")
    assert p1.returncode == p2.returncode == 0
    name = "overlap_synth-sphere-11.csv"
    assert (a / name).read_bytes() == (b / name).read_bytes()


def test_overlap_frame_range(dataset, tmp_path):
    proc = run_cli(
        "--manifest", dataset / "manifest.json", "--out", tmp_path, "overlap", "--frames", "1:3"
    )
    assert proc.returncode == 0
    rows = read_csv(tmp_path / "overlap_synth-sphere-11.csv")[1:]
    assert {r[0] for r in rows} == {"1", "2"}


# -------------------------------------------------------------- metrics


def test_metrics_selected_subset(dataset, tmp_path):
    proc = run_cli(
        "--manifest", dataset / "manifest.json", "--out", tmp_path,
        "metrics", "--metric", "w1", "--metric", "w7",
    )
    assert proc.returncode == 0, proc.stderr
    rows = read_csv(tmp_path / "metrics_synth-sphere-11.csv")[1:]
    assert len(rows) == 2 * 4 * 36
    assert {r[3] for r in rows} == {"w1", "w7"}


# ------------------------------------------------------------ calibrate


def test_calibrate_writes_thresholds(narrow_manifest, tmp_path):
    proc = run_cli(
        "--manifest", narrow_manifest, "--out", tmp_path,
        "calibrate", "--metric", "w1", "--metric", "w7",
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / "calibration.json").read_text())
    assert set(doc["metrics"]) == {"w1", "w7"}
    for entry in doc["metrics"].values():
        assert entry["tpr"] >= doc["target_tpr"]
        assert 0.0 <= entry["threshold"] <= 1.0
    rows = read_csv(tmp_path / "roc.csv")
    assert rows[0] == ["metric", "threshold", "tpr", "fpr"]
    assert {r[0] for r in rows[1:]} == {"w1", "w7"}


def test_calibrate_degenerate_labels_exit_4(tmp_path):
    doc = {
        "seed": 0,
        "cloud_kind": "sphere",
        "points_per_frame": 200,
        "n_frames": 2,
        "fps": 10.0,
        "groups": [
            {
                "size": 3,
                "motion": {"kind": "static", "position": [0.0, 0.0, 2.0]},
                "gaze": {"kind": "at-centroid"},
            }
        ],
    }
    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps(doc))
    ds = tmp_path / "ds"
    assert run_cli("--out", ds, "synth", "--scenario", scen).returncode == 0
    # identical viewers: every pair overlaps fully, labels are one-class
    proc = run_cli("--manifest", ds / "manifest.json", "--out", tmp_path, "calibrate", "--metric", "w1")
    assert proc.returncode == 4
    assert "compute error" in proc.stderr


def test_calibrate_checks_label_balance_before_graphs(dataset, tmp_path, monkeypatch, capsys):
    # the default 90-degree frustum sees the whole small sphere from every
    # orbit, so no valid pair overlaps below o_th
    import viewsim.pipeline
    from viewsim.cli import main

    manifest = str(dataset / "manifest.json")
    assert main(["--manifest", manifest, "--out", str(tmp_path), "overlap"]) == 0
    rows = read_csv(tmp_path / "overlap_synth-sphere-11.csv")[1:]
    valid = [float(r[4]) for r in rows if r[5] == "1"]
    assert valid and min(valid) >= 0.75
    capsys.readouterr()

    built = []
    for name in ("build_surface_graph", "compute_pair_features"):
        monkeypatch.setattr(viewsim.pipeline, name, lambda *a, name=name, **k: built.append(name))
    assert main(["--manifest", manifest, "--out", str(tmp_path), "calibrate"]) == 4
    err = capsys.readouterr().err
    assert f"0 negative labels out of {len(valid)} valid pair-frames" in err
    assert built == []


def test_clique_limit_checked_before_tables(tmp_path, monkeypatch, capsys):
    # 3 groups x 22 = 66 users, over the 64-user bitset search
    import viewsim.pipeline
    from viewsim.cli import main

    data = tmp_path / "data"
    assert main(["--seed", "5", "--out", str(data), "synth",
                 "--users-per-group", "22", "--frames", "2", "--points", "100"]) == 0
    built = []
    for name in ("overlap_matrix", "compute_pair_features", "build_surface_graph"):
        monkeypatch.setattr(viewsim.pipeline, name, lambda *a, name=name, **k: built.append(name))
    capsys.readouterr()
    manifest = str(data / "manifest.json")
    for command in (["cluster", "--metric", "w7"], ["ablate", "--metric", "w7", "--fix", "beta=0.5"]):
        assert main(["--manifest", manifest, "--out", str(tmp_path), *command]) == 4
        assert "up to 64 users, got 66" in capsys.readouterr().err
    assert built == []


def test_overlap_run_never_imports_scipy(dataset, tmp_path):
    code = (
        "import sys, viewsim.cli\n"
        f"assert viewsim.cli.main(['--manifest', {str(dataset / 'manifest.json')!r}, "
        f"'--out', {str(tmp_path)!r}, 'overlap']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


# --------------------------------------------------------------- ablate


def test_ablate_single_feature_sweep(narrow_manifest, tmp_path):
    proc = run_cli(
        "--manifest", narrow_manifest, "--out", tmp_path,
        "ablate", "--metric", "w3", "--grid", "0,0.5,1", "--threshold", "0.63",
    )
    assert proc.returncode == 0, proc.stderr
    rows = read_csv(tmp_path / "ablation_w3.csv")
    assert rows[0] == [
        "metric", "alpha", "beta", "gamma",
        "overlap_ratio", "relevant_population", "precision",
    ]
    assert [r[1] for r in rows[1:]] == ["0.0", "0.5", "1.0"]
    assert {r[2] for r in rows[1:]} == {"0.0"}  # beta not swept
    sets = json.loads((tmp_path / "parameter_sets_w3.json").read_text())
    assert set(sets["sets"]) == {"set1", "set2", "set3"}
    assert len(sets["sets"]["set1"]["regulators"]) == 3


def test_ablate_fix_pins_regulator(narrow_manifest, tmp_path):
    proc = run_cli(
        "--manifest", narrow_manifest, "--out", tmp_path,
        "ablate", "--metric", "w7", "--grid", "0.1,0.5", "--fix", "beta=0.5", "--fix", "gamma=0.5",
    )
    assert proc.returncode == 0, proc.stderr
    rows = read_csv(tmp_path / "ablation_w7.csv")[1:]
    assert len(rows) == 2
    assert {(r[2], r[3]) for r in rows} == {("0.5", "0.5")}


def test_ablate_deterministic_across_runs_and_threads(narrow_manifest, tmp_path):
    out = []
    for sub, threads in (("a", 1), ("b", 3), ("c", 1)):
        proc = run_cli(
            "--manifest", narrow_manifest, "--threads", threads, "--out", tmp_path / sub,
            "ablate", "--metric", "w7", "--grid", "0.25,0.5",
        )
        assert proc.returncode == 0, proc.stderr
        out.append((tmp_path / sub / "ablation_w7.csv").read_bytes())
    assert out[0] == out[1] == out[2]


def test_ablate_rejects_overlap_metric(narrow_manifest, tmp_path):
    proc = run_cli("--manifest", narrow_manifest, "--out", tmp_path, "ablate", "--metric", "overlap")
    assert proc.returncode == 2
    assert "usage error" in proc.stderr


# -------------------------------------------------------------- cluster


def test_cluster_csv_partitions_users(narrow_manifest, tmp_path):
    proc = run_cli(
        "--manifest", narrow_manifest, "--out", tmp_path,
        "cluster", "--metric", "overlap", "--mode", "frame",
    )
    assert proc.returncode == 0, proc.stderr
    rows = read_csv(tmp_path / "clusters_synth-sphere-11.csv")
    assert rows[0] == ["chunk_or_frame", "user_id", "cluster_id", "cluster_size"]
    by_frame = {}
    for frame, user, cid, size in rows[1:]:
        by_frame.setdefault(frame, []).append(user)
    assert set(by_frame) == {"0", "1", "2", "3"}
    for users in by_frame.values():
        assert sorted(users) == [f"u{k:02d}" for k in range(9)]
    doc = json.loads((tmp_path / "clusters_synth-sphere-11.json").read_text())
    assert doc["mode"] == "frame"
    assert len(doc["results"]) == 4


def test_cluster_accepts_calibration_file(narrow_manifest, tmp_path):
    run_cli("--manifest", narrow_manifest, "--out", tmp_path, "calibrate", "--metric", "w1")
    proc = run_cli(
        "--manifest", narrow_manifest, "--out", tmp_path,
        "cluster", "--metric", "w1", "--calibration", tmp_path / "calibration.json",
    )
    assert proc.returncode == 0, proc.stderr


def test_cluster_rejects_missing_calibration(narrow_manifest, tmp_path):
    proc = run_cli(
        "--manifest", narrow_manifest, "--out", tmp_path,
        "cluster", "--metric", "w1", "--calibration", tmp_path / "ghost.json",
    )
    assert proc.returncode == 3
    assert "ghost.json" in proc.stderr


# ------------------------------------------------------------- evaluate


def test_evaluate_two_contents_adds_all_row(dataset, tmp_path):
    doc = json.loads((dataset / "manifest.json").read_text())
    doc["frustum"] = {"hfov": 0.5, "vfov": 0.5}
    combo = {
        "contents": [
            dict(doc, content_id="first"),
            dict(doc, content_id="second"),
        ]
    }
    combo_path = dataset / "combo.json"
    combo_path.write_text(json.dumps(combo))
    proc = run_cli(
        "--manifest", combo_path, "--out", tmp_path,
        "evaluate", "--metric", "w1", "--metric", "overlap", "--mode", "frame",
    )
    assert proc.returncode == 0, proc.stderr
    rows = read_csv(tmp_path / "evaluation.csv")
    assert rows[0] == [
        "content_id", "metric", "mode",
        "overlap_mean", "overlap_std",
        "relevant_population_mean", "relevant_population_std",
        "precision_mean", "precision_std", "n_windows",
    ]
    body = rows[1:]
    assert [(r[0], r[1]) for r in body] == [
        ("first", "w1"), ("first", "overlap"),
        ("second", "w1"), ("second", "overlap"),
        ("ALL", "w1"), ("ALL", "overlap"),
    ]
    for r in body:
        assert r[2] == "frame"
        if r[1] == "overlap":
            assert float(r[7]) == 1.0  # ground truth against itself
        if r[0] == "ALL":
            assert r[9] == "2"
        else:
            assert r[9] == "4"
    # identical inputs: the two contents agree, and ALL averages them
    assert body[0][3:] == body[2][3:]


def test_evaluate_single_content_has_no_all_row(narrow_manifest, tmp_path):
    proc = run_cli(
        "--manifest", narrow_manifest, "--out", tmp_path,
        "evaluate", "--metric", "overlap", "--mode", "chunk",
    )
    assert proc.returncode == 0, proc.stderr
    rows = read_csv(tmp_path / "evaluation.csv")[1:]
    assert len(rows) == 1
    assert rows[0][0] == "synth-sphere-11"


# ---------------------------------------------------------------- bench


def test_bench_writes_report(tmp_path):
    proc = run_cli(
        "--seed", 3, "--out", tmp_path, "bench",
        "--n-points", 2000, "--n-users", 6, "--pairs", 1, "--repeats", 1,
        "--amortize-frames", 10,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / "bench.json").read_text())
    assert doc["n_points"] == 2000 and doc["n_users"] == 6
    labels = {row["label"] for row in doc["rows"]}
    assert "naive-overlap" in " ".join(sorted(labels)) or len(labels) >= 3
    assert doc["min_speedup"] > 0


# ------------------------------------------------------------ exit codes


def test_unknown_flag_exits_2(dataset):
    proc = run_cli("--manifest", dataset / "manifest.json", "overlap", "--bogus")
    assert proc.returncode == 2


def test_missing_manifest_flag_exits_2():
    proc = run_cli("overlap")
    assert proc.returncode == 2
    assert "--manifest" in proc.stderr


def test_nonexistent_manifest_exits_3(tmp_path):
    proc = run_cli("--manifest", tmp_path / "nope.json", "overlap")
    assert proc.returncode == 3
    assert "nope.json" in proc.stderr


def test_bad_frames_spec_exits_2(dataset):
    proc = run_cli("--manifest", dataset / "manifest.json", "overlap", "--frames", "x-y")
    assert proc.returncode == 2
    assert "usage error" in proc.stderr


def test_unknown_metric_exits_2(dataset):
    proc = run_cli("--manifest", dataset / "manifest.json", "metrics", "--metric", "w99")
    assert proc.returncode == 2
    assert "w99" in proc.stderr


def test_help_exits_0():
    proc = run_cli("--help")
    assert proc.returncode == 0
    assert "viewsim" in proc.stdout
