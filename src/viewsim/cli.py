"""Command line entry point.

Subcommands: overlap, metrics, calibrate, ablate, cluster, evaluate,
synth, bench.  Global flags: --manifest, --seed, --threads, --out.
Exit codes: 0 success, 2 usage, 3 data error, 4 compute error.

All outputs are deterministic given the same manifest, inputs, and seed.
Every command runs on one thread; --threads is accepted and has no effect.
Randomness (synth, bench scenarios) flows exclusively from --seed.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from dataclasses import asdict, replace

from .calibration import DEFAULT_GRID, DEFAULT_TARGET_TPR, FIGURES, FPR_ADVISORY_CEILING, auc, regulator_grid, select_parameter_sets
from .clustering import check_clique_size
from .errors import InvalidParamsError, ToolError, UsageError
from .manifest import load_manifest, load_thresholds, read_json, write_json
from .metrics import MetricId, PROXY_METRICS, _fmt, write_csv, write_matrices_csv
from .pipeline import (
    calibrate_contents,
    cluster_content,
    evaluate_content,
    metric_matrices,
    prepare,
    run_ablation,
    summarize_across_contents,
)
from .store import safe_name


def _out_path(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _contents(args, clique_searched: bool = False) -> list:
    # a --calibration file is read, and refused, before the manifest
    thresholds = load_thresholds(args.calibration) if getattr(args, "calibration", None) else {}
    if not args.manifest:
        raise UsageError("this command requires --manifest PATH")
    # per-frame tables persist in --out and serve later commands there
    pcs = [replace(prepare(cm), store_dir=args.out).with_thresholds(thresholds) for cm in load_manifest(args.manifest)]
    if clique_searched:  # refuse a content too large for the clique search before any cloud is read
        check_clique_size(max(len(pc.dataset.users) for pc in pcs))
    return pcs


def _parse_metric(name: str) -> MetricId:
    try:
        return MetricId(name)
    except ValueError:
        raise UsageError(f"unknown metric '{name}' (choose from {[m.value for m in MetricId]})")


def _parse_metrics(names, default) -> list:
    """The metrics ``--metric`` names, each once in first-seen order; ``default`` when none is named."""
    return list(dict.fromkeys(map(_parse_metric, names))) if names else list(default)


def _parse_frames(spec: str | None, n_frames: int):
    if spec is None:
        return None
    m = re.fullmatch(r"(\d*):(\d*)", spec)
    if not m:
        raise UsageError(f"--frames must look like A:B, got '{spec}'")
    lo = int(m.group(1)) if m.group(1) else 0
    hi = int(m.group(2)) if m.group(2) else n_frames
    if lo >= hi:
        raise UsageError(f"empty frame range '{spec}'")
    if lo >= n_frames:
        raise UsageError(f"frame range '{spec}' holds no frame of the {n_frames}-frame session")
    return range(lo, min(hi, n_frames))


def _number(text: str, flag: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise UsageError(f"{flag} takes numbers, got '{text}'")


def _write_matrices(args, metrics: list, prefix: str) -> int:
    """``<prefix>_<content>.csv`` of each content's ``metrics``, in metric order, over the ``--frames`` range."""
    pcs = _contents(args)
    # every content's range is checked before any output is written
    for pc, frames in zip(pcs, [_parse_frames(args.frames, pc.dataset.n_frames) for pc in pcs]):
        by_metric = metric_matrices(pc, metrics, frames)
        path = _out_path(args, f"{prefix}_{safe_name(pc.content_id)}.csv")
        write_matrices_csv(path, [by_metric[metric] for metric in metrics])
        n_frames, n = by_metric[metrics[0]].values.shape[:2]
        print(f"{pc.content_id}: wrote {path} ({len(metrics)} metrics x {n_frames} frames, "
              f"{len(metrics) * n_frames * (n * (n - 1) // 2)} pair rows)")
    return 0


def cmd_overlap(args) -> int:
    return _write_matrices(args, [MetricId.OVERLAP], "overlap")


def cmd_metrics(args) -> int:
    return _write_matrices(args, _parse_metrics(args.metric, PROXY_METRICS), "metrics")


def cmd_calibrate(args) -> int:
    metrics = _parse_metrics(args.metric, PROXY_METRICS)
    if any(m.is_overlap for m in metrics):
        raise UsageError("calibrate applies to proxy metrics only")
    if not 0 < args.target_tpr <= 1:
        raise UsageError(f"--target-tpr must be in (0, 1], got {args.target_tpr}")
    pcs = _contents(args)
    report = calibrate_contents(pcs, metrics, target_tpr=args.target_tpr)
    roc_path = _out_path(args, "roc.csv")
    write_csv(roc_path, ["metric", "threshold", "tpr", "fpr"], (
        [metric.value, *map(_fmt, row)]
        for metric in metrics for row in zip(*(a.tolist() for a in report[metric][0]))
    ))
    payload = {
        "target_tpr": args.target_tpr,
        "o_th": pcs[0].overlap_threshold,
        "metrics": {
            m.value: {**asdict(pt), "fpr_ok": pt.fpr < FPR_ADVISORY_CEILING} for m, (_, pt) in report.items()
        },
    }
    json_path = _out_path(args, "calibration.json")
    write_json(json_path, payload)
    for m in metrics:
        roc, pt = report[m]
        flag = "" if pt.fpr < FPR_ADVISORY_CEILING else "  [fpr above 0.4]"
        print(f"{m.value}: threshold={pt.threshold:.6g} tpr={pt.tpr:.4f} fpr={pt.fpr:.4f} auc={auc(roc):.4f}{flag}")
    print(f"wrote {roc_path} and {json_path}")
    return 0


def cmd_ablate(args) -> int:
    metric = _parse_metric(args.metric)
    if metric.is_overlap:
        raise UsageError("ablate applies to proxy metrics only")
    grid = list(DEFAULT_GRID) if args.grid is None else [_number(g, "--grid") for g in args.grid.split(",")]
    fixed = {}
    for item in args.fix or []:
        if "=" not in item:
            raise UsageError(f"--fix expects name=value, got '{item}'")
        name, _, value = item.partition("=")
        if name.strip() in fixed:
            raise UsageError(f"--fix {name.strip()} given twice")
        fixed[name.strip()] = _number(value, "--fix")
    if args.threshold is not None and not math.isfinite(args.threshold):
        raise UsageError(f"--threshold must be finite, got {args.threshold}")
    try:  # refuse a bad sweep before any content is loaded
        regulator_grid(metric, grid, fixed)
    except InvalidParamsError as e:
        raise UsageError(str(e)) from None
    pcs = _contents(args)
    records = run_ablation(
        pcs,
        metric,
        grid=grid,
        fixed=fixed or None,
        threshold=args.threshold,
        reference_only=not args.all_contents,
    )
    csv_path = _out_path(args, f"ablation_{metric.value}.csv")
    write_csv(csv_path, ["metric", "alpha", "beta", "gamma", *FIGURES], (
        [metric.value] + [_fmt(v) for v in r.regulators.as_tuple()] + [_fmt(r.figures[f]) for f in FIGURES]
        for r in records
    ))
    sets = select_parameter_sets(records)
    payload = {
        "metric": metric.value,
        "grid": grid,
        "sets": {name: {"regulators": list(rec.regulators.as_tuple()), **rec.figures} for name, rec in sets.items()},
    }
    json_path = _out_path(args, f"parameter_sets_{metric.value}.json")
    write_json(json_path, payload)
    print(f"{metric.value}: {len(records)} records -> {csv_path}")
    for name, rec in sets.items():
        print(f"  {name}: regulators={list(rec.regulators.as_tuple())}")
    return 0


def cmd_cluster(args) -> int:
    metric = _parse_metric(args.metric)
    for pc in _contents(args, clique_searched=True):
        results = cluster_content(pc, metric, mode=args.mode)
        csv_path = _out_path(args, f"clusters_{safe_name(pc.content_id)}.csv")
        write_csv(csv_path, ["chunk_or_frame", "user_id", "cluster_id", "cluster_size"], (
            [res.ident, user, cid, len(members)]
            for res in results for cid, members in enumerate(res.clusters) for user in members
        ))
        payload = {
            "content_id": pc.content_id,
            "mode": args.mode,
            "results": [
                {
                    "id": res.ident,
                    "clusters": [{"cluster_id": cid, "members": list(m)} for cid, m in enumerate(res.clusters)],
                }
                for res in results
            ],
        }
        write_json(_out_path(args, f"clusters_{safe_name(pc.content_id)}.json"), payload)
        n_rel = sum(int((r.sizes >= pc.relevant_min_size).sum()) for r in results)
        print(
            f"{pc.content_id}: {len(results)} {args.mode}s, {n_rel} relevant clusters -> {csv_path}"
        )
    return 0


def _summary_cells(summary: dict) -> list:
    """Mean and std of each of the FIGURES, as evaluation.csv writes them."""
    return [_fmt(v) for f in FIGURES for v in (summary[f].mean, summary[f].std)]


def cmd_evaluate(args) -> int:
    requested = _parse_metrics(args.metric, [*PROXY_METRICS, MetricId.OVERLAP])
    rows = []
    for pc in _contents(args, clique_searched=True):
        scored = evaluate_content(pc, requested, args.mode)
        rows += [(pc.content_id, metric, summary, len(perfs)) for metric, (_, perfs, summary) in scored.items()]
    table = [[cid, metric.value, args.mode] + _summary_cells(summary) + [n] for cid, metric, summary, n in rows]
    for metric in requested:
        per_content = {cid: summary for cid, m, summary, _ in rows if m is metric}
        if len(per_content) >= 2:
            overall = summarize_across_contents(per_content)
            table.append(["ALL", metric.value, args.mode] + _summary_cells(overall) + [len(per_content)])
    path = _out_path(args, "evaluation.csv")
    write_csv(path, [
        "content_id", "metric", "mode", "overlap_mean", "overlap_std", "relevant_population_mean",
        "relevant_population_std", "precision_mean", "precision_std", "n_windows",
    ], table)
    for content_id, metric, summary, _ in rows:
        print(
            f"{content_id} {metric.value}: "
            f"overlap={summary['overlap_ratio'].mean:.4f}+-{summary['overlap_ratio'].std:.4f} "
            f"population={summary['relevant_population'].mean:.4f}+-{summary['relevant_population'].std:.4f} "
            f"precision={summary['precision'].mean:.4f}+-{summary['precision'].std:.4f}"
        )
    print(f"wrote {path}")
    return 0


def cmd_synth(args) -> int:
    from .synth import scenario_from_json, three_orbit_groups, write_scenario

    if args.scenario:
        scenario = scenario_from_json(read_json(args.scenario, "scenario file"))
    else:
        scenario = three_orbit_groups(
            seed=args.seed,
            users_per_group=args.users_per_group,
            n_frames=args.frames,
            points_per_frame=args.points,
        )
    write_scenario(scenario, args.out)
    print(
        f"wrote scenario '{scenario.content_id}' to {args.out} "
        f"({scenario.n_users} users, {scenario.n_frames} frames, "
        f"{scenario.points_per_frame} points/frame); manifest: "
        f"{os.path.join(args.out, 'manifest.json')}"
    )
    return 0


def cmd_bench(args) -> int:
    from .bench import run_bench

    report = run_bench(
        n_users=args.n_users,
        n_points=args.n_points,
        naive_pairs=args.pairs,
        repeats=args.repeats,
        seed=args.seed,
        amortize_frames=args.amortize_frames,
    )
    path = _out_path(args, "bench.json")
    write_json(path, report)
    print(
        f"{report['n_users']} users, {report['n_points']} points, "
        f"{report['n_pairs_per_frame']} pairs/frame"
    )
    for row in report["rows"]:
        cv = f" cv={row['cv']:.3f}" if row.get("cv") is not None else ""
        per = row["per_pair_s"]
        per_txt = "n/a" if per is None else f"{per:.6f}s"
        print(f"  {row['label']:<20} per-pair {per_txt}{cv}")
    if "min_speedup" in report:
        print(f"minimum proxy speedup vs naive oracle: {report['min_speedup']:.1f}x")
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="viewsim",
        description="Viewport-overlap ground truth, proxy similarity metrics, and "
        "clique clustering for 6-DoF navigation traces.",
    )
    p.add_argument("--manifest", help="run manifest (JSON)")
    p.add_argument("--seed", type=int, default=0, help="seed for synthetic generation")
    p.add_argument("--threads", type=int, default=1, help="accepted and ignored: every command runs on one thread")
    p.add_argument("--out", default=".", help="output directory")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("overlap", help="exact per-frame overlap matrices")
    s.add_argument("--frames", help="frame range A:B (half-open)")
    s.set_defaults(func=cmd_overlap)

    s = sub.add_parser("metrics", help="proxy similarity matrices")
    s.add_argument("--metric", action="append", help="metric id (repeatable; default all proxies)")
    s.add_argument("--frames", help="frame range A:B (half-open)")
    s.set_defaults(func=cmd_metrics)

    s = sub.add_parser("calibrate", help="ROC threshold selection per metric")
    s.add_argument("--metric", action="append", help="metric id (repeatable; default all proxies)")
    s.add_argument("--target-tpr", type=float, default=DEFAULT_TARGET_TPR)
    s.set_defaults(func=cmd_calibrate)

    s = sub.add_parser("ablate", help="regulator grid sweep")
    s.add_argument("--metric", required=True)
    s.add_argument("--grid", help="comma-separated values (default: published grid)")
    s.add_argument("--fix", action="append", help="pin a regulator, e.g. --fix beta=0.5")
    s.add_argument("--threshold", type=float, help="override the metric's fixed threshold")
    s.add_argument("--all-contents", action="store_true", help="sweep all contents, not just reference ones")
    s.set_defaults(func=cmd_ablate)

    s = sub.add_parser("cluster", help="per-frame or per-chunk clustering")
    s.add_argument("--metric", required=True)
    s.add_argument("--mode", choices=("frame", "chunk"), default="chunk")
    s.add_argument("--calibration", help="calibration.json with thresholds to apply")
    s.set_defaults(func=cmd_cluster)

    s = sub.add_parser("evaluate", help="cluster and score against ground truth")
    s.add_argument("--metric", action="append", help="metric id (repeatable; default all)")
    s.add_argument("--mode", choices=("frame", "chunk"), default="chunk")
    s.add_argument("--calibration", help="calibration.json with thresholds to apply")
    s.set_defaults(func=cmd_evaluate)

    s = sub.add_parser("synth", help="generate a synthetic dataset + manifest")
    s.add_argument("--scenario", help="scenario JSON (default: built-in orbit preset)")
    s.add_argument("--users-per-group", type=int, default=4)
    s.add_argument("--frames", type=int, default=60)
    s.add_argument("--points", type=int, default=4000)
    s.set_defaults(func=cmd_synth)

    s = sub.add_parser("bench", help="naive oracle vs proxy timing")
    s.add_argument("--n-points", type=int, default=100_000)
    s.add_argument("--n-users", type=int, default=16)
    s.add_argument("--pairs", type=int, default=6, help="pairs timed with the naive oracle")
    s.add_argument("--repeats", type=int, default=3)
    s.add_argument("--amortize-frames", type=int, default=300)
    s.set_defaults(func=cmd_bench)
    return p


# the least value of each integer flag, checked before any command runs
_AT_LEAST = {
    "threads": 1, "users_per_group": 1, "frames": 1, "points": 1,
    "n_points": 1, "n_users": 1, "pairs": 0, "repeats": 1, "amortize_frames": 1,
}
_PREFIX = {2: "usage error", 3: "data error", 4: "compute error"}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        for name, low in _AT_LEAST.items():  # a --frames A:B range is a string, checked by its command
            value = getattr(args, name, low)
            if isinstance(value, int) and value < low:
                raise UsageError(f"--{name.replace('_', '-')} must be at least {low}, got {value}")
        return args.func(args)
    except ToolError as e:
        print(f"{_PREFIX[e.exit_code]}: {e}", file=sys.stderr)
        return e.exit_code
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
