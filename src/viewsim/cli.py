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
import csv
import json
import math
import os
import re
import sys
from dataclasses import replace

from .bench import run_bench
from .calibration import DEFAULT_GRID, DEFAULT_TARGET_TPR, regulator_grid, select_parameter_sets
from .clustering import check_clique_size
from .errors import DataError, ToolError, UsageError
from .evaluation import FIGURES
from .manifest import load_manifest, load_thresholds, read_json
from .metrics import MetricId, PROXY_METRICS, _fmt, write_matrices_csv
from .pipeline import (
    PreparedContent,
    align_content,
    calibrate_contents,
    cluster_content,
    evaluate_content,
    metric_matrices,
    overlap_matrices,
    prepare,
    run_ablation,
    summarize_across_contents,
    swept_contents,
)
from .store import safe_name
from .synth import scenario_from_json, three_orbit_groups, write_scenario


def _out_path(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _write_json(path: str, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _contents(args, clique_searched=lambda cms: []) -> list:
    if not args.manifest:
        raise UsageError("this command requires --manifest PATH")
    cms = load_manifest(args.manifest)
    aligned = [align_content(cm) for cm in cms]
    # refuse a content too large for the clique search before any cloud is read
    searched = {cm.content_id for cm in clique_searched(cms)}
    check_clique_size(max((len(ds.users) for ds in aligned if ds.content_id in searched), default=0))
    # per-frame tables persist in --out and serve later commands there
    return [replace(prepare(cm, ds), store_dir=args.out) for cm, ds in zip(cms, aligned)]


def _parse_metric(name: str) -> MetricId:
    try:
        return MetricId(name)
    except ValueError:
        raise UsageError(f"unknown metric '{name}' (choose from {[m.value for m in MetricId]})")


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


def cmd_overlap(args) -> int:
    pcs = _contents(args)
    # every content's range is checked before any output is written
    for pc, frames in zip(pcs, [_parse_frames(args.frames, pc.dataset.n_frames) for pc in pcs]):
        mats = overlap_matrices(pc, frames=frames)
        path = _out_path(args, f"overlap_{safe_name(pc.content_id)}.csv")
        write_matrices_csv(path, mats)
        pairs = sum(m.n * (m.n - 1) // 2 for m in mats)
        print(f"{pc.content_id}: wrote {path} ({len(mats)} frames, {pairs} pair rows)")
    return 0


def cmd_metrics(args) -> int:
    metrics = [_parse_metric(m) for m in args.metric] if args.metric else list(PROXY_METRICS)
    pcs = _contents(args)
    for pc, frames in zip(pcs, [_parse_frames(args.frames, pc.dataset.n_frames) for pc in pcs]):
        mats = [m for metric in metrics for m in metric_matrices(pc, metric, frames=frames)]
        path = _out_path(args, f"metrics_{safe_name(pc.content_id)}.csv")
        write_matrices_csv(path, mats)
        print(f"{pc.content_id}: wrote {path} ({len(metrics)} metrics x {len(mats) // len(metrics)} frames)")
    return 0


def cmd_calibrate(args) -> int:
    metrics = [_parse_metric(m) for m in args.metric] if args.metric else list(PROXY_METRICS)
    if any(m.is_overlap for m in metrics):
        raise UsageError("calibrate applies to proxy metrics only")
    if not 0 < args.target_tpr <= 1:
        raise UsageError(f"--target-tpr must be in (0, 1], got {args.target_tpr}")
    pcs = _contents(args)
    report = calibrate_contents(pcs, metrics, target_tpr=args.target_tpr)
    roc_path = _out_path(args, "roc.csv")
    with open(roc_path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["metric", "threshold", "tpr", "fpr"])
        for metric in metrics:
            for pt in report[metric]["roc"]:
                w.writerow([metric.value, _fmt(pt.threshold), _fmt(pt.tpr), _fmt(pt.fpr)])
    payload = {
        "target_tpr": args.target_tpr,
        "o_th": pcs[0].o_th,
        "metrics": {
            m.value: {
                "threshold": report[m]["threshold"],
                "tpr": report[m]["tpr"],
                "fpr": report[m]["fpr"],
                "fpr_ok": report[m]["fpr_ok"],
            }
            for m in metrics
        },
    }
    json_path = _out_path(args, "calibration.json")
    _write_json(json_path, payload)
    for m in metrics:
        e = report[m]
        flag = "" if e["fpr_ok"] else "  [fpr above 0.4]"
        print(f"{m.value}: threshold={e['threshold']:.6g} tpr={e['tpr']:.4f} fpr={e['fpr']:.4f}{flag}")
    print(f"wrote {roc_path} and {json_path}")
    return 0


def cmd_ablate(args) -> int:
    metric = _parse_metric(args.metric)
    if metric.is_overlap:
        raise UsageError("ablate applies to proxy metrics only")
    grid = [_number(g, "--grid") for g in args.grid.split(",")] if args.grid else list(DEFAULT_GRID)
    fixed = {}
    for item in args.fix or []:
        if "=" not in item:
            raise UsageError(f"--fix expects name=value, got '{item}'")
        name, _, value = item.partition("=")
        fixed[name.strip()] = _number(value, "--fix")
    if args.threshold is not None and not math.isfinite(args.threshold):
        raise UsageError(f"--threshold must be finite, got {args.threshold}")
    regulator_grid(metric, grid, fixed)  # refuse a bad sweep before any content is loaded
    pcs = _contents(args, lambda cms: swept_contents(cms, not args.all_contents))
    records = run_ablation(
        pcs,
        metric,
        grid=grid,
        fixed=fixed or None,
        threshold=args.threshold,
        reference_only=not args.all_contents,
    )
    csv_path = _out_path(args, f"ablation_{metric.value}.csv")
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["metric", "alpha", "beta", "gamma", *FIGURES])
        for r in records:
            w.writerow(
                [metric.value]
                + [_fmt(v) for v in r.regulators.as_tuple()]
                + [_fmt(getattr(r, f)) for f in FIGURES]
            )
    sets = select_parameter_sets(records)
    payload = {
        "metric": metric.value,
        "grid": grid,
        "sets": {
            name: {
                "regulators": list(getattr(sets, name).regulators.as_tuple()),
                **{f: getattr(getattr(sets, name), f) for f in FIGURES},
            }
            for name in ("set1", "set2", "set3")
        },
    }
    json_path = _out_path(args, f"parameter_sets_{metric.value}.json")
    _write_json(json_path, payload)
    print(f"{metric.value}: {len(records)} records -> {csv_path}")
    for name in ("set1", "set2", "set3"):
        rec = getattr(sets, name)
        print(f"  {name}: regulators={list(rec.regulators.as_tuple())}")
    return 0


def _write_clusters(args, pc: PreparedContent, results: list, mode: str) -> tuple:
    csv_path = _out_path(args, f"clusters_{safe_name(pc.content_id)}.csv")
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["chunk_or_frame", "user_id", "cluster_id", "cluster_size"])
        for res in results:
            for cid, cluster in enumerate(res.clusters):
                for user in cluster.members:
                    w.writerow([res.ident, user, cid, cluster.size])
    json_path = _out_path(args, f"clusters_{safe_name(pc.content_id)}.json")
    payload = {
        "content_id": pc.content_id,
        "mode": mode,
        "results": [
            {
                "id": res.ident,
                "clusters": [
                    {"cluster_id": cid, "members": list(c.members)}
                    for cid, c in enumerate(res.clusters)
                ],
            }
            for res in results
        ],
    }
    _write_json(json_path, payload)
    return csv_path, json_path


def cmd_cluster(args) -> int:
    metric = _parse_metric(args.metric)
    thresholds = load_thresholds(args.calibration) if args.calibration else None
    for pc in _contents(args, list):
        if thresholds:
            pc = pc.with_thresholds(thresholds)
        results = cluster_content(pc, metric, mode=args.mode)
        csv_path, _ = _write_clusters(args, pc, results, args.mode)
        n_rel = sum(len(r.relevant_clusters(pc.min_size)) for r in results)
        print(
            f"{pc.content_id}: {len(results)} {args.mode}s, {n_rel} relevant clusters -> {csv_path}"
        )
    return 0


def _summary_cells(summary: dict) -> list:
    """Mean and std of each of the FIGURES, as evaluation.csv writes them."""
    return [_fmt(getattr(summary[f], stat)) for f in FIGURES for stat in ("mean", "std")]


def cmd_evaluate(args) -> int:
    requested = [_parse_metric(m) for m in args.metric] if args.metric else list(MetricId)
    thresholds = load_thresholds(args.calibration) if args.calibration else None
    rows = []
    per_metric_contents: dict = {m: {} for m in requested}
    for pc in _contents(args, list):
        if thresholds:
            pc = pc.with_thresholds(thresholds)
        for metric in requested:
            results, perfs, summary = evaluate_content(pc, metric, mode=args.mode)
            per_metric_contents[metric][pc.content_id] = summary
            rows.append((pc.content_id, metric, summary, len(perfs)))
            if args.clusters:
                _write_clusters(args, pc, results, args.mode)
    path = _out_path(args, "evaluation.csv")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(
            [
                "content_id",
                "metric",
                "mode",
                "overlap_mean",
                "overlap_std",
                "relevant_population_mean",
                "relevant_population_std",
                "precision_mean",
                "precision_std",
                "n_windows",
            ]
        )
        for content_id, metric, summary, n_windows in rows:
            w.writerow([content_id, metric.value, args.mode] + _summary_cells(summary) + [n_windows])
        for metric in requested:  # a metric asked for twice gets two rows, like its content rows
            per_content = per_metric_contents[metric]
            if len(per_content) >= 2:
                overall = summarize_across_contents(per_content)
                w.writerow(["ALL", metric.value, args.mode] + _summary_cells(overall) + [len(per_content)])
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
    if args.scenario:
        scenario = scenario_from_json(read_json(args.scenario, "scenario file"))
    else:
        scenario = three_orbit_groups(
            seed=args.seed,
            users_per_group=args.users_per_group,
            n_frames=args.frames,
            points_per_frame=args.points,
        )
    os.makedirs(args.out, exist_ok=True)
    write_scenario(scenario, args.out)
    print(
        f"wrote scenario '{scenario.content_id}' to {args.out} "
        f"({scenario.n_users} users, {scenario.n_frames} frames, "
        f"{scenario.points_per_frame} points/frame); manifest: "
        f"{os.path.join(args.out, 'manifest.json')}"
    )
    return 0


def cmd_bench(args) -> int:
    if args.repeats < 1:
        raise UsageError(f"--repeats must be at least 1, got {args.repeats}")
    report = run_bench(
        n_users=args.n_users,
        n_points=args.n_points,
        naive_pairs=args.pairs,
        repeats=args.repeats,
        seed=args.seed,
        amortize_frames=args.amortize_frames,
    )
    path = _out_path(args, "bench.json")
    _write_json(path, report)
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
    s.add_argument("--clusters", action="store_true", help="also write per-content cluster files")
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        if args.threads < 1:
            raise UsageError(f"--threads must be at least 1, got {args.threads}")
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except ToolError as e:
        print(f"compute error: {e}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
