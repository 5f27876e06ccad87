"""`scalelaw export-plot`: export plot-ready CSV data."""

from __future__ import annotations

from .. import bslaw, frontier, laws, runlog
from . import add_json_flag, emit
from ._runs import (
    add_contour_flags,
    add_filter_flags,
    check_contour_flags,
    contour_levels,
    filtered_runs,
    write_csv,
)


def add_arguments(p) -> None:
    p.add_argument("--runs", required=True, help="input run log (JSONL)")
    p.add_argument(
        "--kind",
        required=True,
        choices=["envelope", "contour", "curves"],
        help="envelope: loss vs FLOPs lower envelope; contour: iso-loss "
        "batch/token contours; curves: per-run loss curves",
    )
    p.add_argument("--out", required=True, help="output CSV path")
    add_contour_flags(p)
    p.add_argument(
        "--raw", action="store_true", help="curves: export unsmoothed points"
    )
    add_filter_flags(p)
    add_json_flag(p)


def _curve_rows(runset, raw: bool):
    """Each run's (run_id, step, tokens, loss) rows, a block of checkpoints at a time."""
    for run in runset:
        for rows in runlog._row_blocks((run if raw else runlog.smooth_run(run)).points):
            for row in rows:
                yield (run.run_id, *row)


def run(args) -> None:
    if args.kind == "contour":
        check_contour_flags(args)
    runset = filtered_runs(args)
    if args.kind == "envelope":
        envelope = frontier.compute_envelope(runset)
        header = ["flops", "loss", "run_id"]
        rows = [[s.C, s.loss, s.run_id] for s in envelope]
    elif args.kind == "contour":
        smoothed: dict = {}
        levels = contour_levels(args, runset, smoothed)
        scheme = laws.LrScheme(args.scheme) if args.scheme else None
        contours = bslaw.iso_loss_contour(
            runset, levels, lr_policy=args.policy, scheme=scheme, smoothed=smoothed
        )
        header = ["loss_level", "batch_size_tokens", "tokens_required"]
        rows = [
            [pt.loss_level, pt.B, pt.D_required]
            for level in levels
            for pt in contours[level]
        ]
    else:
        header = ["run_id", "step", "tokens", "loss"]
        rows = _curve_rows(runset, args.raw)
    count = write_csv(args.out, header, rows)
    emit(args, [f"wrote {count} rows to {args.out}"], {
        "verb": "export-plot",
        "kind": args.kind,
        "rows": count,
        "out": args.out,
    })
