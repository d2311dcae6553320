"""Session benchmark of the five viewsim analysis commands.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
``src/``.  Each run generates its inputs from the seed (``gen.py``), then
plays a closed-loop session as a user following the README would, one
client and one command at a time, each command in a fresh process with
``--threads 2``:

    overlap; metrics; calibrate; evaluate --mode chunk;
    ablate --metric w7 --fix beta=0.5

``--trace 0`` repeats the session until ``--seconds`` have passed (at least
three times) and reports the end-to-end metrics, each a median over the
sessions: ``setup_s`` (a fresh process imports viewsim, loads the manifest
and prepares the content; measured before every session), one wall time per
command from spawn to exit, ``session_s`` (their sum) and ``peak_rss_mb``
(the largest ``ru_maxrss`` of a command's process).

``--trace 1`` runs two untraced sessions and then two traced ones
(``child.py``), and reports per-layer totals over a session.  Tracing must
not change outputs, and the two traced sessions must do identical work.

Every command invocation is one op.  An op fails on a non-zero exit or on
any failed check: expected files and row counts, every overlap row against
the Jaccard recomputed by ``check.py``, the overlap row of evaluation.csv
at precision 1.0, both label classes present for calibration, and output
digests identical across the sessions of a run.

Which layer should move which end-to-end metric, and where:

* ``geometry.contains_points.*`` and ``metrics.overlap_matrix.*``: overlap,
  calibrate, evaluate and ablate on the large workloads, hardly on crowd.
* ``geometry.pose_from_view.*``: every command on crowd (per-sample Python
  cost of 36 users); barely the large workloads.
* ``trajectories.derive_pr``, ``geometry.ray_cast_center.*`` and
  ``ply.read_ply.*``: setup_s, and through it every command, on the large
  workloads.
* ``geometry.build_surface_graph.*``, ``geometry.geodesic_rows.*`` and
  ``pipeline.graph_reuse_ratio``: metrics, calibrate, evaluate, ablate and
  peak_rss_mb on the large workloads.  Reuse keyed by content can move them
  on rigid-large only; on deforming-large the prediction is no change.
* ``clustering.*`` and ``evaluation.evaluate_result.*``: ablate and
  evaluate on crowd; negligible on the large workloads.
* ``calibration.roc_curve.*``: calibrate on crowd.
* ``metrics.write_matrices_csv.*`` and ``cli.self_s``: overlap, metrics and
  calibrate on crowd, the workload that writes the most per point.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import gen  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
THREADS = 2
MIN_SESSIONS = 3
MAX_SESSIONS = 8
UNTRACED_IN_TRACE = 2
RUN_LIMIT_S = 160.0  # processes still running then are killed and their ops fail

# Sizes keep one run near 35 s on two cores, so that the many runs a
# comparison of two commits needs stay affordable.
SHAPES = {
    "rigid-large": gen.Shape(groups=3, points=10_000, frames=4, fps=2.0),
    "deforming-large": gen.Shape(groups=3, points=10_000, frames=4, fps=2.0, deforming=True),
    "crowd": gen.Shape(groups=9, points=2_000, frames=4, fps=2.0, crowd=True),
}
WHY = {
    "rigid-large": "12 users orbit one static sphere: geometry dominates and every frame's cloud is identical",
    "deforming-large": "as rigid-large, but each frame's cloud is a distinct rotated, rescaled copy: reuse across frames is bypassed",
    "crowd": "36 users over a small sphere: clique search, scoring, ROC, per-sample pose cost and large CSVs dominate",
}

COMMANDS = {
    "overlap": ["overlap"],
    "metrics": ["metrics"],
    "calibrate": ["calibrate"],
    "evaluate": ["evaluate", "--mode", "chunk"],
    "ablate": ["ablate", "--metric", "w7", "--fix", "beta=0.5"],
}

# Work counts that must repeat exactly between two traced sessions.
WORK_KEYS = (
    "calls", "points", "vertices", "sources", "rows", "bytes", "samples", "combos",
    "pairs", "positives", "negatives",
)

# per-layer metric -> (layer, field, unit, better)
LAYER_METRICS = {}
for _layer, _fields in {
    "ply.read_ply": ("calls", "bytes", "self_s"),
    "trajectories.load_trajectories": ("self_s",),
    "trajectories.align_to_frames": ("self_s",),
    "trajectories.derive_pr": ("self_s",),
    "geometry.pose_from_view": ("calls", "self_s"),
    "geometry.ray_cast_center": ("calls", "self_s"),
    "geometry.contains_points": ("calls", "points", "self_s"),
    "geometry.build_surface_graph": ("calls", "vertices", "self_s"),
    "geometry.geodesic_rows": ("calls", "sources", "self_s"),
    "metrics.overlap_matrix": ("calls", "self_s", "us_per_pair"),
    "metrics.compute_pair_features": ("calls", "self_s", "us_per_pair"),
    "metrics.metric_matrix": ("calls", "self_s"),
    "metrics.write_matrices_csv": ("rows", "self_s"),
    "pipeline.prepare": ("self_s",),
    "pipeline.surface_graph": ("calls",),
    "clustering.clique_clustering": ("calls", "self_s"),
    "clustering.max_clique": ("calls", "self_s"),
    "clustering.chunk_adjacency": ("self_s",),
    "calibration.roc_curve": ("samples", "positives", "negatives", "self_s"),
    "calibration.ablate": ("combos", "self_s"),
    "evaluation.evaluate_result": ("calls", "self_s"),
    "cli": ("self_s", "output_bytes"),
}.items():
    for _f in _fields:
        _unit = {"self_s": "s", "us_per_pair": "us", "bytes": "B", "output_bytes": "B"}.get(_f, "count")
        _better = "higher" if _f in ("rows", "samples", "positives", "negatives", "combos") else "lower"
        LAYER_METRICS[f"{_layer}.{_f}"] = (_layer, _f, _unit, _better)
LAYER_METRICS["pipeline.graph_reuse_ratio"] = (None, None, "ratio", "higher")
LAYER_METRICS["trace.overhead_s"] = (None, None, "s", "lower")

E2E_UNITS = {
    "setup_s": "s",
    **{f"{c}_s": "s" for c in COMMANDS},
    "session_s": "s",
    "peak_rss_mb": "MB",
}


class Op:
    """One command invocation and the outcome of its checks."""

    def __init__(self, command: str, rc: int, wall_s: float, maxrss_kb: int):
        self.command = command
        self.rc = rc
        self.wall_s = wall_s
        self.maxrss_kb = maxrss_kb
        self.errors = [] if rc == 0 else [f"{command}: exit code {rc}"]
        self.digests = {}
        self.output_bytes = 0


def spawn(argv: list, cwd: str, log_path: str, timeout: float) -> tuple:
    """Run a process; return (exit code, wall seconds spawn to exit, maxrss kB)."""
    env = dict(os.environ, PERFBENCH_SRC=SRC)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=log)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Run:
    """Inputs of one workload and seed, and the sessions played on them."""

    def __init__(self, workload: str, seed: int, work_dir: str):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.scene = gen.scene(workload, SHAPES[workload], seed)
        self.manifest = gen.write(self.scene, os.path.join(work_dir, "input"))
        self.input_bytes = sum(
            os.path.getsize(os.path.join(d, f))
            for d, _, files in os.walk(os.path.join(work_dir, "input"))
            for f in files
        )
        self.truth = check.Truth(self.scene, gen.FRUSTUM["hfov"], gen.FRUSTUM["vfov"])
        self.files = check.expected_files(self.scene.content_id)
        self.reference = None  # command -> digests of the first session
        self.calls_per_command = None  # traced runs: command -> layer -> calls
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self._n = 0

    def _spawn(self, argv: list, tag: str) -> tuple:
        self._n += 1
        log = os.path.join(self.work_dir, f"{self._n:04d}-{tag}.log")
        return log, spawn(argv, self.work_dir, log, max(1.0, self.deadline - time.monotonic()))

    def setup(self) -> float:
        argv = [sys.executable, os.path.join(HERE, "child.py"), "setup", self.manifest]
        log, (rc, wall, _) = self._spawn(argv, "setup")
        if rc != 0:
            with open(log) as fh:
                raise RuntimeError(f"set-up failed with exit code {rc}: {fh.read()[-2000:]}")
        return wall

    def session(self, traced: bool) -> tuple:
        """Play the five commands; return (ops, per-command layer totals)."""
        self._n += 1
        out_dir = os.path.join(self.work_dir, f"out-{self._n:04d}")
        os.makedirs(out_dir)
        base = ["--manifest", self.manifest, "--out", out_dir, "--threads", str(THREADS)]
        ops, layers = [], {}
        for command, args in COMMANDS.items():
            if traced:
                spans = os.path.join(out_dir, f".{command}.spans.json")
                argv = [sys.executable, os.path.join(HERE, "child.py"), "trace", spans, "--"]
            else:
                argv = [sys.executable, "-m", "viewsim.cli"]
            op = Op(command, *self._spawn(argv + base + args, command)[1])
            if op.rc == 0:
                op.errors += check.check_command(command, out_dir, self.scene.content_id, self.truth)
            for name in self.files[command]:
                path = os.path.join(out_dir, name)
                if os.path.isfile(path):
                    op.digests[name] = _sha256(path)
                    op.output_bytes += os.path.getsize(path)
            ref = (self.reference or {}).get(command)
            if ref is not None and op.digests != ref:
                op.errors.append(f"{command}: outputs differ from the first session")
            if traced:
                layers[command] = _read_spans(spans, op)
            ops.append(op)
        if self.reference is None:
            self.reference = {op.command: op.digests for op in ops if not op.errors}
        shutil.rmtree(out_dir)
        return ops, layers


def _read_spans(path: str, op: Op) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        op.errors.append(f"{op.command}: no trace written")
        return {}
    layers = doc["layers"]
    if any(agg.get("work_errors") for agg in layers.values()):
        op.errors.append(f"{op.command}: a traced layer's signature changed")
    return layers


def _stats(values: list) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q[0], "q3": q[2]}


def untraced_metrics(run: Run, seconds: float) -> tuple:
    run.setup()  # warm-up: byte-compiles viewsim and fills the page cache
    setups, sessions = [], []
    start = time.perf_counter()
    while len(sessions) < MAX_SESSIONS:
        elapsed = time.perf_counter() - start
        if len(sessions) >= MIN_SESSIONS and elapsed * (len(sessions) + 1) / len(sessions) > seconds:
            break  # one more session would end after --seconds
        setups.append(run.setup())
        sessions.append(run.session(traced=False)[0])
    samples = {"setup_s": setups}
    for command in COMMANDS:
        samples[f"{command}_s"] = [op.wall_s for ops in sessions for op in ops if op.command == command]
    samples["session_s"] = [sum(op.wall_s for op in ops) for ops in sessions]
    samples["peak_rss_mb"] = [max(op.maxrss_kb for op in ops) / 1024.0 for ops in sessions]
    return [op for ops in sessions for op in ops], samples


def _work(layers: dict) -> dict:
    return {
        (command, layer, key): value
        for command, per in layers.items()
        for layer, agg in per.items()
        for key, value in agg.items()
        if key in WORK_KEYS
    }


def traced_metrics(run: Run) -> tuple:
    run.setup()  # warm-up, as in an untraced run
    base = [run.session(traced=False)[0] for _ in range(UNTRACED_IN_TRACE)]
    untraced_s = statistics.median(sum(op.wall_s for op in ops) for ops in base)
    traced = [run.session(traced=True) for _ in range(2)]
    (_, layers1), (ops2, layers2) = traced
    work1, work2 = _work(layers1), _work(layers2)
    for op in ops2:
        if any(work1.get(k) != work2.get(k) for k in set(work1) | set(work2) if k[0] == op.command):
            op.errors.append(f"{op.command}: work counts differ between traced sessions")
    samples: dict = {}
    for ops, layers in traced:
        roc = layers.get("calibrate", {}).get("calibration.roc_curve", {})
        if not (roc.get("positives") and roc.get("negatives")):
            next(op for op in ops if op.command == "calibrate").errors.append(
                "calibrate: roc_curve did not see both label classes"
            )
        for name, value in _layer_values(_totals(layers), ops, untraced_s).items():
            samples.setdefault(name, []).append(value)
    run.calls_per_command = {
        command: {layer: agg["calls"] for layer, agg in sorted(per.items())}
        for command, per in layers1.items()
    }
    return [op for ops in base for op in ops] + traced[0][0] + ops2, samples


def _totals(layers: dict) -> dict:
    """Per-layer sums over the commands of a session."""
    out: dict = {}
    for per in layers.values():
        for layer, agg in per.items():
            tot = out.setdefault(layer, {})
            for key, value in agg.items():
                tot[key] = tot.get(key, 0) + value
    return out


def _layer_values(totals: dict, ops: list, untraced_s: float) -> dict:
    out = {}
    for name, (layer, field, _, _) in LAYER_METRICS.items():
        agg = totals.get(layer, {})
        if field == "us_per_pair":
            out[name] = 1e6 * agg["incl_s"] / agg["pairs"] if agg.get("pairs") else 0.0
        elif field is not None:
            out[name] = float(agg.get(field, 0))
    out["cli.output_bytes"] = float(sum(op.output_bytes for op in ops))
    asked = totals.get("pipeline.surface_graph", {}).get("calls", 0)
    built = totals.get("geometry.build_surface_graph", {}).get("calls", 0)
    out["pipeline.graph_reuse_ratio"] = 1.0 - built / asked if asked else 0.0
    out["trace.overhead_s"] = sum(op.wall_s for op in ops) - untraced_s
    return out


def describe(run: Run, seconds: int, trace: int) -> dict:
    import numpy
    import scipy

    sh = run.scene.shape
    return {
        "workload": run.workload,
        "why": WHY[run.workload],
        "seed": run.seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "threads": THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "shape": {"users": sh.users, "points": sh.points, "frames": sh.frames, "fps": sh.fps,
                  "deforming": sh.deforming, "crowd": sh.crowd},
        "input_bytes": run.input_bytes,
        "overlap_rows_undecided": run.truth.undecided,
        "output_digests": run.reference,
        "calls_per_command": run.calls_per_command,
    }


def run_benchmark(workload: str, seed: int, seconds: int, trace: int) -> dict:
    if not os.path.isfile(os.path.join(SRC, "viewsim", "__init__.py")):
        raise FileNotFoundError(f"no viewsim sources under {SRC}")
    os.makedirs(WORK, exist_ok=True)
    work_dir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        run = Run(workload, seed, work_dir)
        ops, samples = traced_metrics(run) if trace else untraced_metrics(run, seconds)
        units = {n: v[2] for n, v in LAYER_METRICS.items()} if trace else E2E_UNITS
        report = describe(run, seconds, trace)
        report["metrics"] = {n: {"unit": units[n], **_stats(v)} for n, v in samples.items()}
        report["errors"] = [e for op in ops for e in op.errors]
        failed = sum(bool(op.errors) for op in ops)
        report["result"] = {
            "correct": failed == 0,
            "attempted": len(ops),
            "failed": failed,
            "metrics": {n: {"value": s["median"], "unit": s["unit"]} for n, s in report["metrics"].items()},
        }
        return report
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)  # only when no other run is using it


def print_report(report: dict) -> None:
    sh = report["shape"]
    print(
        f"perfbench {report['workload']} seed={report['seed']} trace={report['trace']} "
        f"nproc={report['nproc']} threads={report['threads']} python={report['python']} "
        f"numpy={report['numpy']} scipy={report['scipy']}"
    )
    print(f"  {report['why']}")
    print(f"  ops={report['result']['attempted']} failed_ops={report['result']['failed']}")
    print(
        f"  users={sh['users']} points={sh['points']} frames={sh['frames']} fps={sh['fps']} "
        f"input_bytes={report['input_bytes']}"
    )
    for name, s in report["metrics"].items():
        print(
            f"  {name:<44} {s['median']:>14.6g} {s['unit']:<6} "
            f"n={s['n']} q1={s['q1']:.6g} q3={s['q3']:.6g}"
        )
    m = report["metrics"]
    if "metrics.overlap_matrix.us_per_pair" in m:
        exact = m["metrics.overlap_matrix.us_per_pair"]["median"]
        proxy = m["metrics.compute_pair_features.us_per_pair"]["median"]
        ratio = f"{exact / proxy:.2f}x" if proxy else "n/a"
        print(f"  per pair: exact overlap {exact:.3f} us, proxy features {proxy:.3f} us, exact/proxy {ratio}")
    for name, digest in sorted(
        (f"{c}/{f}", d) for c, files in (report["output_digests"] or {}).items() for f, d in files.items()
    ):
        print(f"  sha256 {digest} {name}")
    for err in report["errors"][:20]:
        print(f"  FAILED {err}")
    print("report " + json.dumps({k: v for k, v in report.items() if k != "result"}, sort_keys=True))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(SHAPES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        report = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    except (FileNotFoundError, RuntimeError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print_report(report)
    print(json.dumps(report["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
