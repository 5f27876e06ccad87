"""`scalelaw ingest`: validate a JSONL run log and optionally normalize it."""

from __future__ import annotations

from .. import runlog
from . import add_json_flag, emit


def add_arguments(p) -> None:
    p.add_argument("--runs", required=True, help="input run log (JSONL)")
    p.add_argument("--out", help="write a normalized copy here")
    p.add_argument(
        "--lenient",
        action="store_true",
        help="collect bad lines instead of failing on the first",
    )
    add_json_flag(p)


def run(args) -> None:
    runset = runlog.read_runs(args.runs, strict=not args.lenient)
    if args.out:
        runlog.write_runs(args.out, runset)
    lines, payload = _summary(runset, args.out)
    emit(args, lines, payload)


def _summary(runset, out) -> tuple[list[str], dict]:
    """The text lines and --json payload of a read's runs and rejected lines."""
    models = runset.model_sizes()
    batches = sorted({run.batch_size_tokens for run in runset})
    n_points = sum(len(run.points) for run in runset)
    rejected = runset.rejected
    lines = [
        f"{len(runset)} runs, {len(models)} model sizes, {n_points} curve points",
        "model sizes: " + ", ".join(f"{m:g}" for m in models),
        "batch sizes: " + ", ".join(f"{b:g}" for b in batches),
    ]
    if rejected:
        lines.append(f"rejected {len(rejected)} lines:")
        lines.extend(f"  line {line_no}: {msg}" for line_no, msg in rejected[:5])
        if len(rejected) > 5:
            lines.append(f"  ... and {len(rejected) - 5} more")
    if out:
        lines.append(f"wrote normalized runs to {out}")
    return lines, {
        "verb": "ingest",
        "runs": len(runset),
        "model_sizes": models,
        "batch_sizes": batches,
        "points": n_points,
        "rejected": [[line_no, msg] for line_no, msg in rejected],
        "out": out,
    }
