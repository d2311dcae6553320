"""End-to-end command line runs in subprocesses."""

import csv
import json
import re
import shlex
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from test_ply import _HEADER, BAD_THIRD_ROW
from test_synth import MALFORMED_SCENARIOS, mutated_scenario


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


# ----------------------------------------------------------- README flow

# The only edits to the README's lines: smaller sizes, so the flow runs in seconds.
SMALLER = {
    "synth": {"--frames": "30", "--points": "1000"},
    "bench": {"--n-points": "2000", "--n-users": "6", "--pairs": "1", "--repeats": "1"},
}


def readme_cli_lines():
    """Every ``viewsim`` line of the README's CLI block, continuations joined."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("then run the pipeline on it:\n\n```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines() if line.startswith("viewsim ")]


def test_readme_cli_flow_runs_in_order(tmp_path, monkeypatch, capsys):
    from viewsim.cli import main

    monkeypatch.chdir(tmp_path)
    lines = readme_cli_lines()
    commands = ("synth", "overlap", "metrics", "calibrate", "cluster", "evaluate", "ablate", "bench")
    assert [arg for argv in lines for arg in argv if arg in commands] == list(commands)
    for argv in lines:
        args = argv[1:]
        sizes = next((v for command, v in SMALLER.items() if command in args), {})
        for i, arg in enumerate(args[:-1]):
            if arg in sizes:
                args[i + 1] = sizes[arg]
        assert main(args) == 0, f"{shlex.join(argv)}: {capsys.readouterr().err}"


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


def test_readme_scenario_example_runs(tmp_path, capsys):
    from viewsim.cli import main

    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    example = text.split("## Scenario files", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    (tmp_path / "scenario.json").write_text(example)
    assert main(["--out", str(tmp_path / "data"), "synth", "--scenario", str(tmp_path / "scenario.json")]) == 0
    written = json.loads((tmp_path / "data" / "scenario.json").read_text())
    assert written["groups"][0]["motion"] == dict(json.loads(example)["groups"][0]["motion"], phase=0.0, height=0.0)
    assert main(["--manifest", str(tmp_path / "data" / "manifest.json"), "--out", str(tmp_path / "results"), "overlap"]) == 0
    rows = read_csv(tmp_path / "results" / "overlap_synth-humanoid-blocks-7.csv")[1:]
    assert len(rows) == 10 * 36  # frames x unordered pairs of the 9 users
    assert any(r[5] == "1" and float(r[4]) > 0.5 for r in rows)


def test_readme_run_manifest_example_runs(dataset, tmp_path, capsys):
    from viewsim.cli import main
    from viewsim.manifest import load_manifest
    from viewsim.metrics import MetricId, RegulatorSet

    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    example = text.split("## Run manifests", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    path = dataset / "lab.json"  # beside the synth dataset's clouds and trajectories
    path.write_text(example)
    (cm,) = load_manifest(path)
    assert cm.content_id == "lab-capture-01" and cm.fps == 30.0
    assert (cm.frustum.hfov, cm.frustum.vfov) == (0.5, 0.5)
    assert (cm.chunk.window, cm.chunk.persistence) == (1.0, 0.8)
    assert cm.metrics[MetricId.W7].regulators == RegulatorSet(0.25, 0.5, 0.5)
    assert cm.metrics[MetricId.W7].threshold == 0.6
    assert main(["--manifest", str(path), "--out", str(tmp_path), "overlap"]) == 0
    rows = read_csv(tmp_path / "overlap_lab-capture-01.csv")[1:]
    assert len(rows) == 4 * 36  # frames x unordered pairs of the 9 users


@pytest.mark.parametrize("path, value, message", MALFORMED_SCENARIOS)
def test_malformed_scenario_file_exits_3(tmp_path, capsys, path, value, message):
    from viewsim.cli import main

    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps(mutated_scenario(path, value)))
    assert main(["--out", str(tmp_path / "ds"), "synth", "--scenario", str(scen)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and re.search(message, err), err
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize("path", [("groups", 2, "gaze", "sigma"), ("groups", 0, "motion", "radius")])
def test_overflowing_scenario_fails_before_writing(tmp_path, capsys, path):
    from viewsim.cli import main

    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps(mutated_scenario(path, 1e200)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning would fail the run
        assert main(["--out", str(tmp_path / "ds"), "synth", "--scenario", str(scen)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "ds").exists()


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


def test_overlap_runs_on_the_main_thread(dataset, tmp_path, monkeypatch, capsys):
    import threading

    import viewsim.pipeline
    from viewsim.cli import main

    on_main = []
    real = viewsim.pipeline.overlap_matrix

    def watched(*args, **kwargs):
        on_main.append(threading.current_thread() is threading.main_thread())
        return real(*args, **kwargs)

    monkeypatch.setattr(viewsim.pipeline, "overlap_matrix", watched)
    assert main(["--manifest", str(dataset / "manifest.json"), "--threads", "3", "--out", str(tmp_path), "overlap"]) == 0
    assert on_main == [True] * 4


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
    import numpy as np

    from viewsim.calibration import auc

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
        assert entry["fpr_ok"] == (entry["fpr"] < 0.4)
    rows = read_csv(tmp_path / "roc.csv")
    assert rows[0] == ["metric", "threshold", "tpr", "fpr"]
    assert {r[0] for r in rows[1:]} == {"w1", "w7"}
    # stdout gives each metric's AUC, the area under its roc.csv rows
    for metric in ("w1", "w7"):
        roc = tuple(np.array([float(r[col]) for r in rows[1:] if r[0] == metric]) for col in (1, 2, 3))
        assert re.search(rf"^{metric}: threshold=.* auc=(\S+)", proc.stdout, re.M).group(1) == f"{auc(roc):.4f}"


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


def _two_contents(dataset, name, thresholds):
    """A manifest beside the dataset naming it twice, as contents 'a' and 'b' with these overlap thresholds."""
    doc = json.loads((dataset / "manifest.json").read_text())
    doc["frustum"] = {"hfov": 0.5, "vfov": 0.5}
    contents = [dict(doc, content_id=cid, overlap_threshold=th) for cid, th in zip("ab", thresholds)]
    path = dataset / name
    path.write_text(json.dumps({"contents": contents}))
    return path


def test_calibrate_refuses_contents_with_different_overlap_thresholds(dataset, tmp_path, monkeypatch, capsys):
    from viewsim.cli import main

    reads, _ = _count_geometry(monkeypatch)
    manifest = _two_contents(dataset, "two-thresholds.json", (0.5, 0.9))
    assert main(["--manifest", str(manifest), "--out", str(tmp_path), "calibrate"]) == 4
    err = capsys.readouterr().err
    assert "compute error" in err and "'a' 0.5" in err and "'b' 0.9" in err
    # refused before any table work: no cloud read, no store file
    assert reads == [] and list(tmp_path.iterdir()) == []


def test_calibrate_two_contents_at_one_overlap_threshold(dataset, tmp_path, capsys):
    from viewsim.cli import main

    manifest = _two_contents(dataset, "one-threshold.json", (0.7, 0.7))
    assert main(["--manifest", str(manifest), "--out", str(tmp_path / "two"), "calibrate", "--metric", "w1"]) == 0
    doc = json.loads((dataset / "manifest.json").read_text())
    doc.update(frustum={"hfov": 0.5, "vfov": 0.5}, overlap_threshold=0.7)
    (dataset / "one-content.json").write_text(json.dumps(doc))
    assert main(["--manifest", str(dataset / "one-content.json"), "--out", str(tmp_path / "one"),
                 "calibrate", "--metric", "w1"]) == 0
    capsys.readouterr()
    # the same content twice: every pair-frame counted twice, so the same ROC and threshold
    two, one = (json.loads((tmp_path / d / "calibration.json").read_text()) for d in ("two", "one"))
    assert two["o_th"] == 0.7 and two == one
    assert (tmp_path / "two" / "roc.csv").read_bytes() == (tmp_path / "one" / "roc.csv").read_bytes()


def test_calibrate_checks_label_balance_before_graphs(dataset, tmp_path, monkeypatch, capsys):
    # the default 90-degree frustum sees the whole small sphere from every
    # orbit, so no valid pair overlaps below o_th
    import viewsim.pipeline
    from viewsim.cli import main

    doc = json.loads((dataset / "manifest.json").read_text())
    doc["frustum"] = {"hfov": 1.5708, "vfov": 1.5708}
    (dataset / "wide.json").write_text(json.dumps(doc))
    manifest = str(dataset / "wide.json")
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
    import viewsim.ply
    import viewsim.trajectories
    from viewsim.cli import main

    data = tmp_path / "data"
    assert main(["--seed", "5", "--out", str(data), "synth",
                 "--users-per-group", "22", "--frames", "2", "--points", "100"]) == 0
    built = []
    for module, name in ((viewsim.pipeline, "overlap_matrix"), (viewsim.pipeline, "compute_pair_features"),
                         (viewsim.pipeline, "build_surface_graph"), (viewsim.ply, "read_ply"),
                         (viewsim.trajectories, "ray_cast_center")):
        monkeypatch.setattr(module, name, lambda *a, name=name, **k: built.append(name))
    capsys.readouterr()
    manifest = str(data / "manifest.json")
    for command in (["cluster", "--metric", "w7"], ["evaluate", "--metric", "w7"],
                    ["ablate", "--metric", "w7", "--fix", "beta=0.5"]):
        assert main(["--manifest", manifest, "--out", str(tmp_path), *command]) == 4
        assert "up to 64 users, got 66" in capsys.readouterr().err
    assert built == []


def test_ablate_checks_only_swept_contents(tmp_path):
    # a 66-user content outside the sweep does not stop ablate
    from viewsim.cli import main

    for name, per_group in (("big", 22), ("small", 3)):
        assert main(["--seed", "5", "--out", str(tmp_path / name), "synth",
                     "--users-per-group", str(per_group), "--frames", "2", "--points", "100"]) == 0
    docs = []
    for name, reference in (("big", False), ("small", True)):
        doc = json.loads((tmp_path / name / "manifest.json").read_text())
        docs.append(dict(doc, content_id=name, reference=reference,
                         cloud_dir=str(tmp_path / name / doc["cloud_dir"]),
                         trajectory_csv=str(tmp_path / name / doc["trajectory_csv"])))
    combo = tmp_path / "combo.json"
    combo.write_text(json.dumps({"contents": docs}))
    args = ["--manifest", str(combo), "--out", str(tmp_path / "out"), "ablate", "--metric", "w1", "--grid", "1"]
    assert main(args) == 0
    assert main(args + ["--all-contents"]) == 4


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


# ----------------------------------------------------------- table store

# The README flow; "{cal}" is the calibration.json that calibrate wrote.
SESSION = [
    ["overlap"],
    ["metrics", "--metric", "w7", "--frames", "0:2"],
    ["metrics"],
    ["calibrate"],
    ["cluster", "--metric", "w7", "--calibration", "{cal}"],
    ["evaluate", "--mode", "chunk", "--calibration", "{cal}"],
    ["ablate", "--metric", "w7", "--fix", "beta=0.5"],
]


def run_in(capsys, manifest, out, argv, threads=2, cal=None):
    """One in-process command; its stdout with the --out path normalised."""
    from viewsim.cli import main

    argv = [str(cal) if a == "{cal}" else a for a in argv]
    code = main(["--manifest", str(manifest), "--out", str(out), "--threads", str(threads), *argv])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out.replace(str(out), "<OUT>")


def outputs(out):
    """Every output file in ``out`` (the store's directory aside) by name."""
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}


@pytest.mark.parametrize("threads", [1, 3])
def test_warm_session_matches_cold_commands(narrow_manifest, tmp_path, capsys, threads):
    warm = tmp_path / "warm"
    cal = warm / "calibration.json"
    for i, argv in enumerate(SESSION):
        said = run_in(capsys, narrow_manifest, warm, argv, threads, cal)
        after = outputs(warm)
        cold = tmp_path / f"cold{i}"
        assert run_in(capsys, narrow_manifest, cold, argv, threads, cal) == said, argv
        written = outputs(cold)
        assert written and {name: after[name] for name in written} == written, argv
    assert sorted(p.name for p in (warm / ".viewsim-store" / "synth-sphere-11").iterdir()) == [
        f"{kind}-{k:06d}.npz" for kind in ("geodesic", "overlap", "pr") for k in range(4)
    ]


@pytest.mark.parametrize("command", ["metrics", "calibrate", "evaluate"])
def test_a_metric_named_twice_counts_once(narrow_manifest, tmp_path, capsys, command):
    argv = [command, "--metric", "w7", "--metric", "w1"]
    once = run_in(capsys, narrow_manifest, tmp_path / "once", argv)
    twice = run_in(capsys, narrow_manifest, tmp_path / "twice", [*argv, "--metric", "w7"])
    assert twice == once
    assert outputs(tmp_path / "twice") == outputs(tmp_path / "once")


@pytest.fixture
def own_dataset(dataset, tmp_path):
    """A private copy of the narrow-frustum dataset that a test may edit."""
    import shutil

    root = tmp_path / "data"
    shutil.copytree(dataset, root, ignore=shutil.ignore_patterns("*.json"))
    doc = json.loads((dataset / "manifest.json").read_text())
    doc["frustum"] = {"hfov": 0.5, "vfov": 0.5}
    (root / "manifest.json").write_text(json.dumps(doc))
    return root


def _warm_then_edit(capsys, data, tmp_path, edit):
    """Outputs of overlap+metrics in an --out warmed before ``edit``, and in a fresh one."""
    manifest = data / "manifest.json"
    warm = tmp_path / "warm"
    for argv in (["overlap"], ["metrics"]):
        run_in(capsys, manifest, warm, argv)
    before = outputs(warm)
    edit()
    runs = {}
    for name in ("warm", "fresh"):
        said = [run_in(capsys, manifest, tmp_path / name, argv) for argv in (["overlap"], ["metrics"])]
        runs[name] = (said, outputs(tmp_path / name))
    return before, runs["warm"], runs["fresh"]


def test_store_misses_when_inputs_change(own_dataset, tmp_path, capsys, monkeypatch):
    import viewsim.store
    from viewsim.ply import read_ply, write_ply

    manifest = own_dataset / "manifest.json"
    trajectories = own_dataset / "trajectories.csv"
    saved = []
    real_save = viewsim.store.save
    monkeypatch.setattr(viewsim.store, "save", lambda path, *a: saved.append(Path(path)) or real_save(path, *a))

    def narrow_frustum():
        doc = json.loads(manifest.read_text())
        doc["frustum"] = {"hfov": 0.4, "vfov": 0.4}
        manifest.write_text(json.dumps(doc))

    def rewrite_ply():
        path = own_dataset / "clouds" / "frame_000002.ply"
        write_ply(path, read_ply(path) * 1.25)

    def move_row():
        rows = read_csv(trajectories)
        col = rows[0].index("pos_x")
        rows[5][col] = repr(float(rows[5][col]) + 0.5)
        with open(trajectories, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)

    def fewer_neighbours():
        doc = json.loads(manifest.read_text())
        doc["surface_knn"] = 5
        manifest.write_text(json.dumps(doc))

    def wider_cone():
        doc = json.loads(manifest.read_text())
        doc["cone_half_angle"] = 0.3
        manifest.write_text(json.dumps(doc))

    def centroid_range():
        doc = json.loads(manifest.read_text())
        doc["r_mode"] = "centroid"
        manifest.write_text(json.dumps(doc))

    backup = {p: p.read_bytes() for p in (manifest, trajectories, own_dataset / "clouds" / "frame_000002.ply")}
    edits = (narrow_frustum, rewrite_ply, move_row, wider_cone, centroid_range, fewer_neighbours)
    rewritten = {}
    for i, edit in enumerate(edits):
        for path, data in backup.items():
            path.write_bytes(data)
        before, warm, fresh = _warm_then_edit(capsys, own_dataset, tmp_path / str(i), lambda: saved.clear() or edit())
        assert warm == fresh, edit.__name__
        assert warm[1] != before, edit.__name__  # the edit changed the outputs
        rewritten[edit.__name__] = sorted(p.name for p in saved if tmp_path / str(i) / "warm" in p.parents)
    # the frustum keys only the overlap tables and the graph's k only the geodesic ones:
    # the warm store rewrote those and no other file
    assert rewritten["narrow_frustum"] == [f"overlap-{k:06d}.npz" for k in range(4)]
    assert rewritten["fewer_neighbours"] == [f"geodesic-{k:06d}.npz" for k in range(4)]


def test_cold_evaluate_computes_and_writes_each_table_once(narrow_manifest, tmp_path, capsys, monkeypatch):
    import viewsim.pipeline
    import viewsim.store

    computed, saved = [], []
    real_features, real_save = viewsim.pipeline.compute_pair_features, viewsim.store.save
    monkeypatch.setattr(viewsim.pipeline, "compute_pair_features",
                        lambda users, x, *a, **kw: computed.append(x.tobytes()) or real_features(users, x, *a, **kw))
    monkeypatch.setattr(viewsim.store, "save", lambda path, *a: saved.append(Path(path).name) or real_save(path, *a))
    run_in(capsys, narrow_manifest, tmp_path, ["evaluate", "--mode", "chunk"])
    # one call per frame: the 4 frames' positions, each once
    assert len(computed) == len(set(computed)) == 4
    # feature tables are kept in memory only
    assert sorted(saved) == [f"{kind}-{k:06d}.npz" for kind in ("geodesic", "overlap", "pr") for k in range(4)]


def test_evaluate_builds_each_chunks_ground_truth_once(narrow_manifest, tmp_path, capsys, monkeypatch):
    import viewsim.pipeline
    from viewsim.metrics import PROXY_METRICS, MetricId

    windows = []
    real = viewsim.pipeline.persistence_scores
    monkeypatch.setattr(viewsim.pipeline, "persistence_scores", lambda w, th: windows.append(len(w)) or real(w, th))
    run_in(capsys, narrow_manifest, tmp_path, ["evaluate", "--mode", "chunk"])
    # the default scores every proxy and then the overlap, all against one ground truth per chunk
    rows = read_csv(tmp_path / "evaluation.csv")[1:]
    assert [row[1] for row in rows] == [m.value for m in (*PROXY_METRICS, MetricId.OVERLAP)]
    assert windows == [4]  # one window of the session's 4 frames
    assert {row[-1] for row in rows} == {"1"}


@pytest.mark.parametrize("metrics, applied", [
    ([], [f"w{i}" for i in range(1, 9)] * 4),  # the default: every metric, overlap included
    (["w1", "w3", "w1", "overlap"], ["w1", "w3"] * 4),
], ids=["all", "repeated"])
def test_evaluate_applies_each_kernel_once(narrow_manifest, tmp_path, capsys, monkeypatch, metrics, applied):
    from viewsim.metrics import PairFeatures

    calls = []
    real = PairFeatures.metric_matrix
    monkeypatch.setattr(PairFeatures, "metric_matrix", lambda f, m, reg: calls.append(m.value) or real(f, m, reg))
    for _ in ("cold", "warm"):
        calls.clear()
        run_in(capsys, narrow_manifest, tmp_path, ["evaluate", *(a for m in metrics for a in ("--metric", m))])
        assert sorted(calls) == sorted(applied)


def test_cold_plain_metric_reads_each_cloud_once(narrow_manifest, tmp_path, capsys, monkeypatch):
    import viewsim.ply

    reads = []
    real = viewsim.ply.read_ply
    monkeypatch.setattr(viewsim.ply, "read_ply", lambda path: reads.append(Path(path).name) or real(path))
    run_in(capsys, narrow_manifest, tmp_path, ["cluster", "--metric", "w1"])
    # ray casting reads each cloud once; a plain feature table reads none
    assert sorted(reads) == sorted(p.name for p in (narrow_manifest.parent / "clouds").glob("*.ply"))


@pytest.fixture
def deforming_manifest(own_dataset):
    """The private narrow-frustum copy with every frame's points moved: no two frames share a cloud."""
    from viewsim.ply import read_ply, write_ply

    for k, path in enumerate(sorted((own_dataset / "clouds").glob("*.ply"))):
        write_ply(path, read_ply(path) * (1 + 0.01 * k))
    return own_dataset / "manifest.json"


def test_cold_metrics_reads_each_cloud_once(deforming_manifest, tmp_path, capsys, monkeypatch):
    reads, _ = _count_geometry(monkeypatch)
    run_in(capsys, deforming_manifest, tmp_path, ["metrics"])
    # one feature pass serves every proxy: a frame's read feeds its rays, its digest and its graph
    assert sorted(reads) == [f"frame_{k:06d}.ply" for k in range(4)]


@pytest.mark.parametrize("metrics, kinds, n_reads", [
    (["overlap"], ["overlap", "pr"], 4),
    (["w1", "overlap"], ["overlap", "pr"], 4),  # one pass looks up a frame's overlap and features
    (["w1", "w3"], ["geodesic", "pr"], 4),  # feature tables are kept in memory only
], ids=["overlap", "plain", "geodesic"])
def test_metrics_computes_only_the_tables_its_metrics_read(deforming_manifest, tmp_path, capsys, monkeypatch,
                                                           metrics, kinds, n_reads):
    reads, _ = _count_geometry(monkeypatch)
    run_in(capsys, deforming_manifest, tmp_path, ["metrics", *(a for m in metrics for a in ("--metric", m))])
    assert sorted({p.name.split("-")[0] for p in (tmp_path / ".viewsim-store").glob("*/*.npz")}) == kinds
    assert len(reads) == n_reads


@pytest.mark.parametrize("argv, n_reads", [
    (["evaluate", "--mode", "chunk"], 4),
    (["ablate", "--metric", "w7", "--fix", "beta=0.5", "--grid", "0.25,1"], 4),
    # label balance is checked on the overlaps before any feature table: the geodesic pass reads the clouds again
    (["calibrate"], 8),
], ids=["evaluate", "ablate", "calibrate"])
def test_cold_commands_read_each_cloud_once_per_pass_over_all_their_tables(deforming_manifest, tmp_path, capsys,
                                                                          monkeypatch, argv, n_reads):
    reads, _ = _count_geometry(monkeypatch)
    run_in(capsys, deforming_manifest, tmp_path, argv)
    assert len(reads) == n_reads and set(reads) == {f"frame_{k:06d}.ply" for k in range(4)}


def _count_geometry(monkeypatch):
    """Names of the PLY files read, and frames of the gaze rays cast, in this process from now on."""
    import viewsim.ply
    import viewsim.trajectories

    reads, casts = [], []
    real_read, real_cast = viewsim.ply.read_ply, viewsim.trajectories.ray_cast_center
    monkeypatch.setattr(viewsim.ply, "read_ply", lambda path: reads.append(Path(path).name) or real_read(path))
    monkeypatch.setattr(viewsim.trajectories, "ray_cast_center",
                        lambda x, view, cloud, **k: casts.append(cloud.frame_index) or real_cast(x, view, cloud, **k))
    return reads, casts


def test_cold_overlap_reads_each_cloud_once(narrow_manifest, tmp_path, capsys, monkeypatch):
    reads, casts = _count_geometry(monkeypatch)
    run_in(capsys, narrow_manifest, tmp_path, ["overlap"])
    # one read serves the frame's digest, its gaze rays and its matrix
    assert sorted(reads) == [f"frame_{k:06d}.ply" for k in range(4)]
    assert sorted(set(casts)) == [0, 1, 2, 3]


@pytest.mark.parametrize("points, message", [
    ([], "no vertices"),
    ([[0.0, 0.0, 1.0], [float("nan"), 0.0, 0.0]], "non-finite vertex coordinate"),
], ids=["empty", "nan"])
def test_malformed_cloud_exits_3_naming_the_file(own_dataset, tmp_path, capsys, points, message):
    import numpy as np

    from viewsim.cli import main
    from viewsim.ply import write_ply

    path = own_dataset / "clouds" / "frame_000001.ply"
    write_ply(path, np.array(points, dtype=np.float64).reshape(-1, 3))
    assert main(["--manifest", str(own_dataset / "manifest.json"), "--out", str(tmp_path / "out"), "overlap"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and message in err and str(path) in err


def _write_clouds(clouds, names):
    """Replace the clouds by ``names``; the k-th holds frame 0's points but its first k, so sizes tell them apart."""
    from viewsim.ply import read_ply, write_ply

    paths = sorted(clouds.iterdir())
    points = read_ply(paths[0])
    for path in paths:
        path.unlink()
    for k, name in enumerate(names):
        write_ply(clouds / name, points[k:])
    return len(points)


def test_clouds_out_of_frame_order_exit_3_before_any_output(own_dataset, tmp_path, capsys):
    from viewsim.cli import main

    # as text, frame_10 sorts before frame_2: it would be served as frame 1
    _write_clouds(own_dataset / "clouds", ["frame_1.ply", "frame_2.ply", "frame_10.ply"])
    assert main(["--manifest", str(own_dataset / "manifest.json"), "--out", str(tmp_path / "out"), "overlap"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: frame_10.ply sorts before frame_2.ply in ") and "zero-pad" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("names", [
    ["frame_01.ply", "frame_02.ply", "frame_10.ply"],
    ["first.ply", "second.ply", "third.ply"],  # no numbers: text order is frame order
], ids=["zero-padded", "no-digits"])
def test_clouds_in_frame_order_load_in_name_order(own_dataset, tmp_path, capsys, names):
    from viewsim.ply import DirectoryCloudSequence

    n = _write_clouds(own_dataset / "clouds", names)
    seq = DirectoryCloudSequence(own_dataset / "clouds")
    assert [len(seq[k].points) for k in range(len(seq))] == [n, n - 1, n - 2]
    run_in(capsys, own_dataset / "manifest.json", tmp_path / "out", ["overlap"])


@pytest.mark.parametrize("binary", [False, True], ids=["ascii", "binary"])
def test_cloud_declaring_more_vertices_than_it_holds_exits_3(own_dataset, tmp_path, capsys, binary):
    import numpy as np

    from viewsim.cli import main
    from viewsim.ply import write_ply

    # 10**11 vertices: the file's size refuses the count before anything that large is allocated
    path = own_dataset / "clouds" / "frame_000001.ply"
    write_ply(path, np.zeros((2, 3)), binary=binary)
    path.write_bytes(path.read_bytes().replace(b"element vertex 2\n", b"element vertex 100000000000\n", 1))
    assert main(["--manifest", str(own_dataset / "manifest.json"), "--out", str(tmp_path / "out"), "overlap"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "file truncated inside element 'vertex'" in err and str(path) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("variant", BAD_THIRD_ROW)
def test_bad_ascii_cloud_row_exits_3_naming_its_row(own_dataset, tmp_path, capsys, variant):
    from viewsim.cli import main

    extra, body = BAD_THIRD_ROW[variant]
    path = own_dataset / "clouds" / "frame_000001.ply"
    path.write_text(_HEADER.format(n=3) + extra + "end_header\n" + body)
    assert main(["--manifest", str(own_dataset / "manifest.json"), "--out", str(tmp_path / "out"), "overlap"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: bad row 3 in element 'vertex'") and str(path) in err


def test_frame_range_casts_only_its_frames(narrow_manifest, tmp_path, capsys, monkeypatch):
    reads, casts = _count_geometry(monkeypatch)
    run_in(capsys, narrow_manifest, tmp_path, ["overlap", "--frames", "1:3"])
    assert sorted(set(casts)) == [1, 2] and len(casts) <= 2 * 9
    assert sorted(reads) == ["frame_000001.ply", "frame_000002.ply"]
    assert sorted(p.name for p in (tmp_path / ".viewsim-store" / "synth-sphere-11").iterdir()) == [
        "overlap-000001.npz", "overlap-000002.npz", "pr-000001.npz", "pr-000002.npz"
    ]


@pytest.mark.parametrize("argv", [
    ["calibrate"],
    ["evaluate", "--mode", "chunk"],
    ["ablate", "--metric", "w7", "--fix", "beta=0.5"],
    ["cluster", "--metric", "w7"],
], ids=["calibrate", "evaluate", "ablate", "cluster"])
def test_warm_commands_cast_no_ray_and_read_each_cloud_at_most_once(narrow_manifest, tmp_path, capsys, monkeypatch, argv):
    for warm_up in (["overlap"], ["metrics"]):
        run_in(capsys, narrow_manifest, tmp_path, warm_up)
    reads, casts = _count_geometry(monkeypatch)
    run_in(capsys, narrow_manifest, tmp_path, argv)
    assert casts == []
    assert len(reads) == len(set(reads)) <= 4


def test_trajectories_with_pr_are_used_as_given(narrow_manifest, tmp_path, capsys, monkeypatch):
    import numpy as np

    from viewsim.manifest import load_manifest
    from viewsim.pipeline import gaze_targets, prepare
    from viewsim.trajectories import write_trajectories

    (cm,) = load_manifest(narrow_manifest)
    pc = prepare(cm)
    targets = [gaze_targets(pc, k) for k in range(pc.dataset.n_frames)]
    p, r, off = (np.stack(column, axis=1) for column in zip(*targets))
    ds = replace(pc.dataset, p=p, r=r, off=off)
    write_trajectories(tmp_path / "with_pr.csv", ds, with_pr=True)
    doc = json.loads(narrow_manifest.read_text())
    doc.update(trajectory_csv=str(tmp_path / "with_pr.csv"), cloud_dir=str(narrow_manifest.parent / doc["cloud_dir"]))
    manifest = tmp_path / "with_pr.json"
    manifest.write_text(json.dumps(doc))
    reads, casts = _count_geometry(monkeypatch)
    out = tmp_path / "out"
    for argv in (["overlap"], ["metrics"]):
        run_in(capsys, manifest, out, argv)
    assert casts == []
    stored = sorted(p.name for p in (out / ".viewsim-store" / "synth-sphere-11").iterdir())
    assert stored and not [name for name in stored if name.startswith("pr-")]
    # the frame functions get the CSV's own p
    (cm,) = load_manifest(manifest)
    given = prepare(cm)
    assert gaze_targets(given, 0)[0].tobytes() == given.dataset.p[:, 0].tobytes()
    np.testing.assert_array_equal(given.dataset.p[:, 0][~off[:, 0]], p[:, 0][~off[:, 0]])


def test_store_misses_when_sources_change(narrow_manifest, tmp_path, capsys, monkeypatch):
    import viewsim.pipeline
    import viewsim.store

    warm = tmp_path / "warm"
    for argv in (["overlap"], ["metrics"]):
        run_in(capsys, narrow_manifest, warm, argv)
    before = outputs(warm)
    calls = []
    for name in ("overlap_matrix", "derive_pr"):
        real = getattr(viewsim.pipeline, name)
        counted = lambda *a, real=real, name=name, **k: calls.append(name) or real(*a, **k)  # noqa: E731
        monkeypatch.setattr(viewsim.pipeline, name, counted)
    monkeypatch.setattr(viewsim.store, "environment_digest", lambda: "edited sources")
    for argv in (["overlap"], ["metrics"]):
        run_in(capsys, narrow_manifest, warm, argv)
    assert sorted(calls) == ["derive_pr"] * 4 + ["overlap_matrix"] * 4
    assert outputs(warm) == before
    calls.clear()
    run_in(capsys, narrow_manifest, warm, ["calibrate"])  # the rewritten files now hit
    assert calls == []


@pytest.mark.parametrize("content_id", ["..", "."])
def test_dots_only_content_id_keeps_its_tables_in_its_store_directory(narrow_manifest, tmp_path, capsys, content_id):
    doc = json.loads(narrow_manifest.read_text())
    doc.update(content_id=content_id, cloud_dir=str(narrow_manifest.parent / doc["cloud_dir"]),
               trajectory_csv=str(narrow_manifest.parent / doc["trajectory_csv"]))
    manifest = tmp_path / "dots.json"
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "out"
    for argv in (["overlap"], ["metrics", "--metric", "w3"]):
        run_in(capsys, manifest, out, argv)
    name = "-" * len(content_id)
    written = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
    stored = {f for f in written if f.startswith(f".viewsim-store/{name}/")}
    assert written - stored == {f"overlap_{name}.csv", f"metrics_{name}.csv"}
    assert {f.split("/")[-1].split("-")[0] for f in stored} == {"geodesic", "overlap", "pr"}


def test_readme_store_section_names_every_stored_kind():
    from viewsim import store

    readme = (Path(__file__).parents[1] / "README.md").read_text()
    assert set(re.findall(r"`(\w+)-<frame>\.npz`", readme)) == set(store._FIELDS)


def test_damaged_store_files_are_misses(narrow_manifest, tmp_path, capsys):
    import numpy as np

    warm, fresh = tmp_path / "warm", tmp_path / "fresh"
    for argv in (["overlap"], ["metrics"]):
        run_in(capsys, narrow_manifest, warm, argv)
    store = warm / ".viewsim-store" / "synth-sphere-11"
    truncated = store / "geodesic-000000.npz"
    truncated.write_bytes(truncated.read_bytes()[: truncated.stat().st_size // 2])
    (store / "geodesic-000001.npz").write_bytes(b"\x93NUMPY garbage" * 40)
    (store / "overlap-000002.npz").write_bytes(b"")
    (store / "pr-000003.npz").write_bytes(b"")

    def rekeyed(path, **members):
        """Rewrite a store file under its own key with some members replaced."""
        with np.load(path) as npz:
            arrays = dict(npz)
        np.savez(path, **dict(arrays, **members))
        return arrays

    # right key, wrong shape or dtype
    values = rekeyed(store / "overlap-000000.npz", values=np.zeros((3, 3)))["values"]
    rekeyed(store / "geodesic-000002.npz", gaze_geo=np.zeros(values.shape, dtype=np.float32))
    rekeyed(store / "pr-000000.npz", p=np.zeros((9, 2)))
    rekeyed(store / "pr-000001.npz", off=np.zeros(9))
    # a member saved as an object array: loading it must not run its unpickling
    marker = tmp_path / "unpickled"
    payload = np.empty(1, dtype=object)
    payload[0] = _Unpickles(str(marker))
    poisoned = store / "overlap-000003.npz"
    rekeyed(poisoned, values=payload)

    said = [run_in(capsys, narrow_manifest, d, ["calibrate"]) for d in (warm, fresh)]
    assert said[0] == said[1]
    for name in ("roc.csv", "calibration.json"):
        assert (warm / name).read_bytes() == (fresh / name).read_bytes()
    assert not marker.exists()
    with np.load(poisoned, allow_pickle=False) as npz:
        assert npz["values"].dtype == np.float64  # rewritten by the calibrate run


class _Unpickles:
    """Unpickling this creates a file: the proof that a load ran pickle."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (open, (self.path, "w"))


def test_warm_commands_compute_no_tables_and_never_import_scipy(narrow_manifest, tmp_path, capsys):
    for argv in (["overlap"], ["metrics"]):
        run_in(capsys, narrow_manifest, tmp_path, argv)
    # no stored table is recomputed: no ray, overlap, surface graph or geodesic
    # (feature tables are computed in memory by every command)
    code = (
        "import sys, viewsim.cli, viewsim.pipeline\n"
        "called = []\n"
        "for name in ('derive_pr', 'overlap_matrix', 'build_surface_graph', 'geodesic_gaze'):\n"
        "    setattr(viewsim.pipeline, name, lambda *a, name=name, **k: called.append(name))\n"
        "base = ['--manifest', sys.argv[1], '--out', sys.argv[2]]\n"
        "for argv in (['calibrate'], ['evaluate', '--mode', 'chunk'],\n"
        "             ['ablate', '--metric', 'w7', '--fix', 'beta=0.5']):\n"
        "    assert viewsim.cli.main(base + argv) == 0, argv\n"
        "print(called)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(narrow_manifest), str(tmp_path)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["[]", "[]"]


def _viewsim_modules(code, *argv):
    """The viewsim submodules a fresh process has loaded once it has run ``code``."""
    code = f"import sys\n{code}\nprint(*sorted(m for m in sys.modules if m.startswith('viewsim.')))\n"
    proc = subprocess.run([sys.executable, "-c", code, *map(str, argv)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_each_process_loads_only_the_modules_it_runs(dataset, tmp_path):
    # the package root re-exports nothing
    assert _viewsim_modules("import viewsim") == set()
    # synth and bench load only in the commands that use them
    command = _viewsim_modules(
        "import viewsim.cli\n"
        "assert viewsim.cli.main(['--manifest', sys.argv[1], '--out', sys.argv[2], 'overlap']) == 0",
        dataset / "manifest.json", tmp_path,
    )
    assert "viewsim.cli" in command and not command & {"viewsim.synth", "viewsim.bench"}
    # a benchmark's setup process: load the manifest and prepare every content
    setup = _viewsim_modules(
        "from viewsim.manifest import load_manifest\n"
        "from viewsim.pipeline import prepare\n"
        "for cm in load_manifest(sys.argv[1]):\n"
        "    prepare(cm)",
        dataset / "manifest.json",
    )
    assert "viewsim.pipeline" in setup and "viewsim.synth" not in setup


def test_warm_commands_never_import_numpy_ma(narrow_manifest, tmp_path, capsys):
    for argv in (["overlap"], ["metrics"]):
        run_in(capsys, narrow_manifest, tmp_path, argv)
    code = (
        "import sys, viewsim.cli\n"
        "base = ['--manifest', sys.argv[1], '--out', sys.argv[2]]\n"
        "for argv in (['overlap'], ['calibrate'], ['evaluate', '--mode', 'chunk'],\n"
        "             ['ablate', '--metric', 'w7', '--fix', 'beta=0.5']):\n"
        "    assert viewsim.cli.main(base + argv) == 0, argv\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(narrow_manifest), str(tmp_path)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


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


def _no_constants(name):
    raise AssertionError(f"bench.json holds {name}, which is not JSON")


def test_bench_json_is_strict_json(tmp_path):
    from viewsim.cli import main

    argv = ["--seed", "3", "--out", str(tmp_path), "bench", "--n-points", "500", "--n-users", "4"]
    assert main([*argv, "--repeats", "0"]) == 2
    assert not (tmp_path / "bench.json").exists()
    # no naive pair timed: the naive row is null, and no speedup is claimed
    assert main([*argv, "--repeats", "1", "--pairs", "0"]) == 0
    with open(tmp_path / "bench.json") as fh:
        doc = json.load(fh, parse_constant=_no_constants)
    (naive,) = [row for row in doc["rows"] if row["label"] == "overlap_naive"]
    assert naive["per_pair_s"] is None and naive["pairs_timed"] == 0
    assert doc["speedups"] == {} and "min_speedup" not in doc


# ------------------------------------------------------------ exit codes


def test_unknown_flag_exits_2(dataset):
    proc = run_cli("--manifest", dataset / "manifest.json", "overlap", "--bogus")
    assert proc.returncode == 2


def test_evaluate_clusters_flag_exits_2_before_any_output(dataset, tmp_path):
    # cluster files come from `cluster --metric M`, one metric per file
    proc = run_cli("--manifest", dataset / "manifest.json", "--out", tmp_path, "evaluate", "--clusters")
    assert proc.returncode == 2 and "--clusters" in proc.stderr
    assert list(tmp_path.iterdir()) == []


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


def test_frames_range_past_a_session_exits_2_before_any_output(dataset, tmp_path):
    from viewsim.cli import main

    proc = run_cli("--manifest", dataset / "manifest.json", "--out", tmp_path / "out", "overlap", "--frames", "10:20")
    assert proc.returncode == 2
    assert "holds no frame of the 4-frame session" in proc.stderr
    # a range the first content holds but the second, 2-frame content does not
    assert main(["--seed", "5", "--out", str(tmp_path / "short"), "synth",
                 "--users-per-group", "2", "--frames", "2", "--points", "100"]) == 0
    docs = []
    for root, cid in ((dataset, "long"), (tmp_path / "short", "short")):
        doc = json.loads((root / "manifest.json").read_text())
        docs.append(dict(doc, content_id=cid, cloud_dir=str(root / doc["cloud_dir"]),
                         trajectory_csv=str(root / doc["trajectory_csv"])))
    (tmp_path / "both.json").write_text(json.dumps({"contents": docs}))
    for command in ("overlap", "metrics"):
        proc = run_cli("--manifest", tmp_path / "both.json", "--out", tmp_path / "out", command, "--frames", "2:4")
        assert proc.returncode == 2
        assert "holds no frame of the 2-frame session" in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    (["synth", "--frames", "0"], "--frames must be at least 1, got 0"),
    (["synth", "--points", "0"], "--points must be at least 1, got 0"),
    (["synth", "--users-per-group", "0"], "--users-per-group must be at least 1, got 0"),
    (["bench", "--n-points", "0"], "--n-points must be at least 1, got 0"),
    (["bench", "--n-users", "0"], "--n-users must be at least 1, got 0"),
    (["bench", "--amortize-frames", "0"], "--amortize-frames must be at least 1, got 0"),
    (["bench", "--pairs", "-1"], "--pairs must be at least 0, got -1"),
    (["bench", "--repeats", "0"], "--repeats must be at least 1, got 0"),
])
def test_out_of_range_size_flag_exits_2_before_any_work(tmp_path, monkeypatch, capsys, argv, message):
    import viewsim.bench
    import viewsim.synth
    from viewsim.cli import main

    # the commands import these at call time, so they are patched where they are defined
    for module, name in ((viewsim.bench, "run_bench"), (viewsim.synth, "write_scenario")):
        monkeypatch.setattr(module, name, lambda *a, name=name, **k: pytest.fail(f"{name} ran"))
    assert main(["--out", str(tmp_path / "out"), *argv]) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_run_bench_refuses_out_of_range_sizes():
    from viewsim.bench import run_bench
    from viewsim.errors import InvalidParamsError

    for bad in ({"amortize_frames": 0}, {"naive_pairs": -1}, {"n_users": 0}, {"n_points": 0}, {"repeats": 0}):
        with pytest.raises(InvalidParamsError):
            run_bench(**{"n_users": 2, "n_points": 50, **bad})


def test_zero_threads_exits_2(dataset, tmp_path):
    proc = run_cli("--manifest", dataset / "manifest.json", "--threads", 0, "--out", tmp_path, "overlap")
    assert proc.returncode == 2
    assert "--threads must be at least 1" in proc.stderr


@pytest.mark.parametrize("flags, code", [
    (["--grid", "0.1,x"], 2),
    (["--grid", "0.1,,1"], 2),
    (["--fix", "beta=abc"], 2),
    (["--fix", "beta"], 2),
    (["--fix", "delta=0.5"], 2),  # w7 sweeps no delta
    (["--grid", "0.1,-1"], 2),  # regulators are non-negative
    (["--threshold", "nan"], 2),
    (["--fix", "alpha=1", "--fix", "alpha=2"], 2),  # one value per regulator
    (["--grid", "nan"], 2),
    (["--grid=-1,0.5"], 2),
    (["--fix", "beta=-1"], 2),
    (["--fix", "beta=inf"], 2),
    (["--metric", "w1", "--fix", "beta=1"], 2),  # w1 sweeps alpha only
    (["--grid", ""], 2),  # an empty grid is not the default one
])
def test_bad_sweep_refused_before_any_content_is_loaded(dataset, tmp_path, monkeypatch, capsys, flags, code):
    import viewsim.cli

    loaded = []
    monkeypatch.setattr(viewsim.cli, "prepare", lambda *a, **k: loaded.append(a))
    argv = ["--manifest", str(dataset / "manifest.json"), "--out", str(tmp_path), "ablate", "--metric", "w7", *flags]
    assert viewsim.cli.main(argv) == code
    assert ("usage error" if code == 2 else "compute error") in capsys.readouterr().err
    assert loaded == []


@pytest.mark.parametrize("flags, message", [
    (["--metric", "overlap"], "proxy metrics only"),
    (["--target-tpr", "-0.5"], "--target-tpr must be in (0, 1]"),
    (["--target-tpr", "1.5"], "--target-tpr must be in (0, 1]"),
])
def test_bad_calibration_refused_before_any_content_is_loaded(dataset, tmp_path, monkeypatch, capsys, flags, message):
    import viewsim.cli

    loaded = []
    monkeypatch.setattr(viewsim.cli, "prepare", lambda *a, **k: loaded.append(a))
    argv = ["--manifest", str(dataset / "manifest.json"), "--out", str(tmp_path), "calibrate", *flags]
    assert viewsim.cli.main(argv) == 2
    assert message in capsys.readouterr().err
    assert loaded == []


@pytest.mark.parametrize("doc, message", [
    ([], "calibration must be an object"),
    ({"o_th": 0.75}, r"missing keys \['metrics'\] in calibration"),
    ({"metrics": []}, "calibration.metrics must be an object"),
    ({"metrics": "w1"}, "calibration.metrics must be an object"),
    ({"metrics": {"w99": {"threshold": 0.5}}}, r"unknown keys \['w99'\] in calibration.metrics"),
    ({"metrics": {"w1": 0.5}}, "calibration.metrics.w1 must be an object"),
    ({"metrics": {"w1": {"tpr": 0.5}}}, r"missing keys \['threshold'\] in calibration.metrics.w1"),
    ({"metrics": {"w1": {"threshold": "0.5"}}}, "calibration.metrics.w1.threshold"),
    ({"metrics": {"w1": {"threshold": True}}}, "calibration.metrics.w1.threshold"),
    ({"metrics": {"w1": {"threshold": float("nan")}}}, "calibration.metrics.w1.threshold"),
])
def test_malformed_calibration_file_exits_3_before_any_content_is_loaded(dataset, tmp_path, monkeypatch, capsys, doc, message):
    import viewsim.cli

    loaded = []
    monkeypatch.setattr(viewsim.cli, "prepare", lambda *a, **k: loaded.append(a))
    cal = tmp_path / "calibration.json"
    cal.write_text(json.dumps(doc))
    for command in (["cluster", "--metric", "w1"], ["evaluate"]):
        argv = ["--manifest", str(dataset / "manifest.json"), "--out", str(tmp_path), *command, "--calibration", str(cal)]
        assert viewsim.cli.main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and re.search(message, err), err
    assert loaded == []


@pytest.mark.parametrize("extra, message", [
    ({"relevant_min_size": 1}, "relevant_min_size"),
    ({"overlap_threshold": 1.5}, "overlap_threshold"),
    ({"fps": -1}, "fps"),
    ({"cone_half_angle": 2}, "cone_half_angle"),
    ({"frustum": {"hfov": 4}}, "hfov"),
    ({"metrics": {"w7": {"alpha": -1}}}, "metrics.w7: alpha"),
    ({"chunk": {"window": 0}}, "chunk: window"),
])
def test_meaningless_manifest_value_exits_3_before_any_cloud_is_read(dataset, tmp_path, monkeypatch, capsys, extra, message):
    import viewsim.cli
    import viewsim.ply

    reads = []
    monkeypatch.setattr(viewsim.ply, "read_ply", reads.append)
    doc = json.loads((dataset / "manifest.json").read_text())
    doc = dict(doc, cloud_dir=str(dataset / "clouds"), trajectory_csv=str(dataset / "trajectories.csv"), **extra)
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    for command in (["evaluate", "--metric", "w1"], ["overlap"]):
        assert viewsim.cli.main(["--manifest", str(tmp_path / "bad.json"), "--out", str(tmp_path / "out"), *command]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and message in err, err
    assert reads == []
    assert not (tmp_path / "out").exists()


def test_unknown_metric_exits_2(dataset):
    proc = run_cli("--manifest", dataset / "manifest.json", "metrics", "--metric", "w99")
    assert proc.returncode == 2
    assert "w99" in proc.stderr


def test_help_exits_0():
    proc = run_cli("--help")
    assert proc.returncode == 0
    assert "viewsim" in proc.stdout


def test_metrics_writes_the_opt_in_3dof_rows(narrow_manifest, tmp_path, capsys):
    out = run_in(capsys, narrow_manifest, tmp_path, ["metrics", "--metric", "3dof"])
    rows = read_csv(tmp_path / "metrics_synth-sphere-11.csv")
    assert rows[0] == ["frame", "user_i", "user_j", "metric", "value", "valid"]
    assert len(rows) == 1 + 4 * 36 and {row[3] for row in rows[1:]} == {"3dof"}
    assert [row[0] for row in rows[1::36]] == ["0", "1", "2", "3"]
    values = [float(row[4]) for row in rows[1:] if row[5] == "1"]
    assert values and all(0.0 < v <= 1.0 for v in values)
    assert "(1 metrics x 4 frames, 144 pair rows)" in out
