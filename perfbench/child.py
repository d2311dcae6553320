"""One benchmark process: set up contents, or run a traced CLI command.

    python3 perfbench/child.py setup MANIFEST
    python3 perfbench/child.py trace SPANS_JSON -- VIEWSIM_ARGS...

``setup`` imports viewsim, loads the manifest and prepares every content:
the cost each command pays before its own work.

``trace`` wraps the public functions in ``TARGETS`` in every ``viewsim``
module namespace that binds them (methods on their class), then calls
``viewsim.cli.main``.  The program is not edited: spans are recorded from
outside it.  Each span records name, start, end, thread and parent, the
parent being the innermost open span on the same thread or else the
command span.  A span's self time is its duration minus the union of the
intervals its children cover.  For a span whose children all run on its
own thread that is the time its children cover on that thread; the
command span also adopts spans from pool threads, so its self time is
command time outside every traced child.  Per-layer totals are written to
SPANS_JSON as the process exits.
"""

from __future__ import annotations

import inspect
import itertools
import json
import os
import sys
import threading
import time


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


def _label_counts(labels) -> dict:
    import numpy as np

    y = np.asarray(labels, dtype=bool)
    pos = int(np.count_nonzero(y))
    return {"samples": int(y.size), "positives": pos, "negatives": int(y.size) - pos}


# layer name -> (module, attribute, work counted from (bound args, result))
TARGETS = {
    "ply.read_ply": ("viewsim.ply", "read_ply", lambda a, r: {"bytes": os.path.getsize(a["path"])}),
    "trajectories.load_trajectories": ("viewsim.trajectories", "load_trajectories", None),
    "trajectories.align_to_frames": ("viewsim.trajectories", "align_to_frames", None),
    "trajectories.derive_pr": ("viewsim.trajectories", "derive_pr", None),
    "geometry.pose_from_view": ("viewsim.geometry", "pose_from_view", None),
    "geometry.ray_cast_center": ("viewsim.geometry", "ray_cast_center", None),
    "geometry.contains_points": (
        "viewsim.geometry", "contains_points", lambda a, r: {"points": len(a["points"])}
    ),
    "geometry.build_surface_graph": (
        "viewsim.geometry", "build_surface_graph", lambda a, r: {"vertices": len(a["cloud"].points)}
    ),
    "geometry.geodesic_rows": (
        "viewsim.geometry", "geodesic_rows", lambda a, r: {"sources": len(a["sources"])}
    ),
    "metrics.overlap_matrix": (
        "viewsim.metrics", "overlap_matrix", lambda a, r: {"pairs": _pairs(len(a["users"]))}
    ),
    "metrics.compute_pair_features": (
        "viewsim.metrics", "compute_pair_features", lambda a, r: {"pairs": _pairs(len(a["users"]))}
    ),
    "metrics.metric_matrix": ("viewsim.metrics", "PairFeatures.metric_matrix", None),
    "metrics.write_matrices_csv": (
        "viewsim.metrics", "write_matrices_csv",
        lambda a, r: {"rows": sum(_pairs(len(m.users)) for m in a["matrices"])},
    ),
    "pipeline.prepare": ("viewsim.pipeline", "prepare", None),
    "pipeline.surface_graph": ("viewsim.pipeline", "PreparedContent.surface_graph", None),
    "clustering.clique_clustering": ("viewsim.clustering", "clique_clustering", None),
    "clustering.max_clique": ("viewsim.clustering", "max_clique", None),
    "clustering.chunk_adjacency": ("viewsim.clustering", "chunk_adjacency", None),
    "calibration.roc_curve": ("viewsim.calibration", "roc_curve", lambda a, r: _label_counts(a["labels"])),
    "calibration.ablate": ("viewsim.calibration", "ablate", lambda a, r: {"combos": len(r)}),
    "evaluation.evaluate_result": ("viewsim.evaluation", "evaluate_result", None),
}
COMMAND = "cli"


class Tracer:
    """In-memory spans; parents are tracked per thread."""

    def __init__(self):
        self.spans = []  # (name, start, end, thread, parent, id, work)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, fn, work):
        sig = inspect.signature(fn) if work else None

        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else 0
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            counts = {}
            if work:
                try:
                    counts = work(sig.bind(*args, **kwargs).arguments, result)
                except (KeyError, TypeError, AttributeError):
                    counts = {"work_errors": 1}  # the layer's signature changed
            self.spans.append((name, start, end, threading.get_ident(), parent, sid, counts))
            return result

        return traced

    def summary(self, start: float, end: float) -> dict:
        """Per-layer calls, inclusive and self seconds and work counts."""
        root = (COMMAND, start, end, threading.get_ident(), -1, 0, {})
        spans = [root] + self.spans
        children: dict = {}
        for s in spans[1:]:
            children.setdefault(s[4], []).append((s[1], s[2]))
        out: dict = {}
        for name, s0, s1, _, _, sid, counts in spans:
            covered, reach = 0.0, s0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, reach), min(c1, s1)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            agg = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["incl_s"] += s1 - s0
            agg["self_s"] += (s1 - s0) - covered
            for key, value in counts.items():
                agg[key] = agg.get(key, 0) + value
        return out


def install(tracer: Tracer) -> list:
    """Wrap every target wherever viewsim binds it; return the names found."""
    import importlib

    resolved = []
    for name, (module, attr, work) in TARGETS.items():
        try:
            owner = importlib.import_module(module)
        except ImportError:
            continue
        *cls_path, fn_name = attr.split(".")
        for part in cls_path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, fn_name, None) if owner is not None else None
        if fn is not None:
            resolved.append((name, owner, cls_path, fn_name, fn, work))
    modules = [m for n, m in sorted(sys.modules.items()) if n == "viewsim" or n.startswith("viewsim.")]
    found = []
    for name, owner, cls_path, fn_name, fn, work in resolved:
        traced = tracer.wrap(name, fn, work)
        if cls_path:
            setattr(owner, fn_name, traced)
        else:
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, traced)
        found.append(name)
    return found


def _check_source(src_dir: str) -> None:
    import viewsim

    if not os.path.abspath(viewsim.__file__).startswith(os.path.abspath(src_dir) + os.sep):
        sys.exit(f"viewsim imported from {viewsim.__file__}, not from {src_dir}")


def main(argv: list) -> int:
    src_dir = os.environ["PERFBENCH_SRC"]
    mode = argv[0]
    if mode == "setup":
        _check_source(src_dir)
        from viewsim.manifest import load_manifest
        from viewsim.pipeline import prepare

        for cm in load_manifest(argv[1]):
            prepare(cm)
        return 0
    if mode == "trace":
        out_path, sep, cli_args = argv[1], argv[2], argv[3:]
        if sep != "--":
            sys.exit("usage: child.py trace SPANS_JSON -- VIEWSIM_ARGS...")
        _check_source(src_dir)
        import viewsim.cli

        tracer = Tracer()
        found = install(tracer)
        start = time.perf_counter()
        try:
            rc = viewsim.cli.main(cli_args)
        finally:
            end = time.perf_counter()
            with open(out_path, "w") as fh:
                json.dump({"layers": tracer.summary(start, end), "found": found}, fh, sort_keys=True)
        return rc
    sys.exit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
