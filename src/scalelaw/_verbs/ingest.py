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
    strict = not args.lenient
    if args.out:
        runset = runlog.read_runs(args.runs, strict=strict)
        runlog.write_runs(args.out, runset)
        counts, rejected = runlog._run_counts(runset), runset.rejected
    else:
        # a cache hit reads the counts from the entry, without building a run
        counts, rejected = runlog._read_counts(args.runs, strict=strict)
    lines, payload = _summary(counts, rejected, args.out)
    emit(args, lines, payload)


def _summary(counts, rejected, out) -> tuple[list[str], dict]:
    """The text lines and --json payload of the runs' (n_params,
    batch_size_tokens, point count) and the rejected lines."""
    models: list[float] = []
    for n_params, _, _ in counts:
        if n_params not in models:
            models.append(n_params)
    batches = sorted({batch for _, batch, _ in counts})
    n_points = sum(n for _, _, n in counts)
    lines = [
        f"{len(counts)} runs, {len(models)} model sizes, {n_points} curve points",
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
        "runs": len(counts),
        "model_sizes": models,
        "batch_sizes": batches,
        "points": n_points,
        "rejected": [[line_no, msg] for line_no, msg in rejected],
        "out": out,
    }
