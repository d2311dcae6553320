"""Invalid pairs end to end: a content where many pairs have no answer.

Three groups of four users over a small sphere: an orbit group looking at it
through jittered gazes, a static group looking away from it (every ray
misses: off content), and a random-walk group beyond the frustum's far plane
with widely jittered gazes (rays hit, viewports are empty, some rays miss).
Two users lose three frames of samples to a capture gap.  A second content
holds the same session with the gaze targets supplied in the CSV.
"""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from viewsim.cli import main
from viewsim.manifest import load_manifest
from viewsim.pipeline import gaze_targets, prepare
from viewsim.synth import scenario_from_json, write_scenario
from viewsim.trajectories import write_trajectories

from conftest import overlaps

SCENARIO = {
    "seed": 5,
    "cloud_kind": "sphere",
    "points_per_frame": 600,
    "n_frames": 6,
    "fps": 30.0,
    "groups": [
        {"size": 4, "motion": {"kind": "orbit", "radius": 2.5, "angular_speed": 0.3},
         "gaze": {"kind": "jittered", "sigma": 0.05}, "jitter": 0.1},
        {"size": 4, "motion": {"kind": "static", "position": [0.0, 0.0, -2.5]},
         "gaze": {"kind": "fixed-direction", "direction": [0.0, 0.0, -1.0]}, "jitter": 0.3},
        {"size": 4, "motion": {"kind": "random_walk", "step_sigma": 0.05, "start": [4.5, 0.5, 1.5]},
         "gaze": {"kind": "jittered", "sigma": 0.1}, "jitter": 0.2},
    ],
}
GAP_USERS, GAP_FRAMES = ("u00", "u09"), (2, 3, 4)

COMMANDS = [
    ["overlap"],
    ["metrics"],
    ["evaluate", "--mode", "frame"],
    ["evaluate", "--mode", "chunk"],
    ["cluster", "--metric", "w7"],
    ["cluster", "--metric", "w3", "--mode", "frame"],
    ["calibrate"],
    ["ablate", "--metric", "w7", "--fix", "beta=0.5"],
]

# sha256 of each command's outputs, taken while validity masks were still
# stored beside the values; 294 of the 396 overlap rows and 2,136 of the
# 3,168 metric rows are invalid
PINNED = {
    "overlap": {
        "overlap_invalid-cast.csv": "4cb7036409ef88b47f12c4cb86283f639a861766c3fb8da65f71990f880f3a48",
        "overlap_invalid-given.csv": "4cb7036409ef88b47f12c4cb86283f639a861766c3fb8da65f71990f880f3a48",
    },
    "metrics": {
        "metrics_invalid-cast.csv": "5bd3f7887703d615d71534a04bc0bdfa8dee288c2e88f519de3d35180588258a",
        "metrics_invalid-given.csv": "5bd3f7887703d615d71534a04bc0bdfa8dee288c2e88f519de3d35180588258a",
    },
    "evaluate --mode frame": {
        "evaluation.csv": "87ffa2fe6345474b08f3c954be2883cb09da118e30bdaf8c81eca71cb5da41da",
    },
    "evaluate --mode chunk": {
        "evaluation.csv": "416afcdeb5d37b6865c2660205804dfa61edb606dd366b6cce3cde8e86487c4a",
    },
    "cluster --metric w7": {
        "clusters_invalid-cast.csv": "085db83e18fbe8f65c5a1271e600324af5fd756525b0468f151d40d74486817c",
        "clusters_invalid-cast.json": "761f22884df2c4f99bbcfa57106ed882b69755f8ba641dd716046963b746a7da",
        "clusters_invalid-given.csv": "085db83e18fbe8f65c5a1271e600324af5fd756525b0468f151d40d74486817c",
        "clusters_invalid-given.json": "b5c078206cfa284dc67f9378a829be51a32ce276d2d9f2a338b2930f89c00f5b",
    },
    "cluster --metric w3 --mode frame": {
        "clusters_invalid-cast.csv": "2b34e098e83c30efb3c09cc33d76fb4c230ec5e0549dcb07495b71e5cd343b9c",
        "clusters_invalid-cast.json": "958e2da27f30cee82ad21722c39bd86f38614e515d88c92f5c1c1e5022407cdc",
        "clusters_invalid-given.csv": "2b34e098e83c30efb3c09cc33d76fb4c230ec5e0549dcb07495b71e5cd343b9c",
        "clusters_invalid-given.json": "f626ff862b28e562d92a9148e9b65861434b4dc31dd26a87e21cfc7aa61cbe9f",
    },
    # calibrate and ablate: taken before every CSV was written through metrics.write_csv
    "calibrate": {
        "calibration.json": "60d25d5c93ecd489c6de2819d2faddb7f3a2c1c785953ada5c58b96d4c07f184",
        "roc.csv": "c501da1dd97e7cda55af17fceae8204807d69093daea036af09c03a9ca1cf1ca",
    },
    "ablate --metric w7 --fix beta=0.5": {
        "ablation_w7.csv": "cf4f5d5a54bf2edb262877fed19bc4d20c608ad3d941c1223d86b2082c6cfc5d",
        "parameter_sets_w7.json": "e1f53bfe0f71c594373b83d1bcc4b1a97dfa2cef955fdcfaf3b1e90e8604e53d",
    },
}


@pytest.fixture(scope="module")
def invalid_manifest(tmp_path_factory):
    root = tmp_path_factory.mktemp("invalid-pairs")
    write_scenario(scenario_from_json(SCENARIO), root)
    csv_path = root / "trajectories.csv"
    lines = csv_path.read_text().splitlines(keepends=True)
    gap_times = {repr(k / SCENARIO["fps"]) for k in GAP_FRAMES}
    csv_path.write_text("".join(
        line for line in lines if not (line.split(",")[0] in GAP_USERS and line.split(",")[1] in gap_times)
    ))
    cast = {
        "content_id": "invalid-cast",
        "cloud_dir": "clouds",
        "trajectory_csv": "trajectories.csv",
        "fps": SCENARIO["fps"],
        "frustum": {"hfov": 0.5, "vfov": 0.5, "far": 3.5},
        "chunk": {"window": 0.1},
        "relevant_min_size": 2,
    }
    (root / "cast.json").write_text(json.dumps(cast))
    # the same session with its gaze targets written out: used as given
    pc = prepare(*load_manifest(root / "cast.json"))
    p, r, off = (np.stack(col, axis=1) for col in zip(*(gaze_targets(pc, k) for k in range(pc.dataset.n_frames))))
    write_trajectories(root / "trajectories_pr.csv", replace(pc.dataset, p=p, r=r, off=off), with_pr=True)
    given = dict(cast, content_id="invalid-given", trajectory_csv="trajectories_pr.csv")
    (root / "manifest.json").write_text(json.dumps({"contents": [cast, given]}))
    return root / "manifest.json"


def test_content_has_every_kind_of_invalid_pair(invalid_manifest):
    for cm in load_manifest(invalid_manifest):
        pc = prepare(cm)
        offs = np.stack([gaze_targets(pc, k)[2] for k in range(pc.dataset.n_frames)], axis=1)
        assert offs[0, list(GAP_FRAMES)].all() and not offs[0, :2].any()  # the capture gap
        assert offs[4:8].all()  # the group looking away
        assert not offs[1:4].any() and offs[8:].any() and not offs[8:].all()
        # beyond the far plane: rays hit, but a pair's viewport union is empty
        ov = overlaps(pc, frames=[0])[0]
        assert not offs[8, 0] and not offs[10, 0] and np.isnan(ov[8, 10])


def test_invalid_pair_outputs_match_pinned_digests(invalid_manifest, tmp_path, capsys):
    got = {}
    for argv in COMMANDS:  # one --out, so later commands read the stored tables
        code = main(["--manifest", str(invalid_manifest), "--out", str(tmp_path), *argv])
        assert code == 0, capsys.readouterr().err
        got[" ".join(argv)] = written = {}
        for path in sorted(p for p in tmp_path.iterdir() if p.is_file()):
            written[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
            path.unlink()
    capsys.readouterr()
    assert got == PINNED
