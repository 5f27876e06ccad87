"""What the verbs that read a run log share: the filtered read, the laws
file to update, the CSV writer and their common options."""

from __future__ import annotations

import errno
import io
import math
import os
from pathlib import Path
from typing import Iterable, Sequence

from .. import __version__, artifact, bslaw, laws, runlog
from .._atomic import write_atomic
from ..errors import InsufficientDataError, ValidationError
from . import check_positive, csv_floats


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> int:
    """Write the header and rows to path as CSV, and count the rows.

    The rows are taken as they come and handed to write_atomic as text every
    _ROWS_PER_CHUNK rows (runlog's block), so the writer holds one block of
    text, not the file.
    """
    import csv  # only the verbs that write CSV files pay for it

    count = 0

    def chunks():
        nonlocal count
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for count, row in enumerate(rows, 1):
            writer.writerow(row)
            if count % runlog._ROWS_PER_CHUNK == 0:
                yield buf.getvalue()
                # a fresh buffer: one emptied by truncate() grows 4 bytes a character
                buf = io.StringIO()
                writer = csv.writer(buf, lineterminator="\n")
        yield buf.getvalue()

    write_atomic(path, chunks())
    return count


def laws_to_update(path: str) -> artifact.LawArtifact:
    """The laws document at path, or a new one if there is none.

    A fit verb calls this before it reads its run log, so a laws file that
    does not load, a directory, or a path in a missing directory fails
    before the fit, not after it.
    """
    target = Path(path)
    if target.exists():
        return artifact.LawArtifact.load(target)
    parent = target.parent
    if not parent.is_dir():
        # the error the atomic write of the file would meet
        code = errno.ENOTDIR if parent.exists() else errno.ENOENT
        raise OSError(code, os.strerror(code), path)
    return artifact.LawArtifact(presets=laws.Presets(), provenance=f"scalelaw {__version__}")


def filtered_runs(args):
    """The runs of the log args.runs that the verb's filter flags keep."""
    model_size = getattr(args, "model_size", None)
    batch = getattr(args, "batch", None)
    for flag, value in (("--model-size", model_size), ("--batch", batch)):
        if value is not None:
            check_positive(flag, [value])
    scheme = laws.LrScheme(args.only_scheme) if getattr(args, "only_scheme", None) else None
    seen = 0  # runs keep is asked about: none when the log holds none

    def keep(n_params: float, batch_size_tokens: float, lr_scheme: laws.LrScheme) -> bool:
        nonlocal seen
        seen += 1
        return (
            (model_size is None or math.isclose(n_params, model_size, rel_tol=1e-6))
            and (batch is None or math.isclose(batch_size_tokens, batch, rel_tol=1e-6))
            and (scheme is None or lr_scheme == scheme)
        )

    runset = runlog.read_runs(args.runs, keep=keep)
    if not len(runset):
        if seen:
            raise ValidationError("no runs match the requested filters")
        raise InsufficientDataError(f"{args.runs} holds no runs")
    return runset


def check_contour_flags(args) -> None:
    """Refuse a bad --levels, or without it a bad --n-levels, before the run
    log is read; --levels overrides --n-levels."""
    if args.levels is None:
        bslaw._check_n_levels(args.n_levels)
    else:
        check_positive("--levels", args.levels)


def contour_levels(args, runset, smoothed: dict) -> list[float]:
    """--levels, or without it the default levels of the runs; ``smoothed``
    keeps the curves smoothed for them, for the contours to reuse."""
    if args.levels is not None:
        return args.levels
    return bslaw.default_loss_levels(runset, args.n_levels, smoothed)


def add_fit_io_flags(parser, runs_help: str = "input run log (JSONL)") -> None:
    parser.add_argument("--runs", required=True, help=runs_help)
    parser.add_argument("--laws", required=True, help="law artifact to update (created if absent)")


def add_filter_flags(parser) -> None:
    parser.add_argument(
        "--model-size", type=float, help="keep only runs of this model size (params)"
    )
    parser.add_argument(
        "--batch", type=float, help="keep only runs with this batch size (tokens)"
    )
    parser.add_argument(
        "--only-scheme",
        choices=[s.value for s in laws.LrScheme],
        help="keep only runs trained under this LR scheme",
    )


def add_contour_flags(parser) -> None:
    parser.add_argument(
        "--levels", type=csv_floats, help="comma-separated iso-loss levels"
    )
    parser.add_argument(
        "--n-levels",
        type=int,
        default=bslaw.DEFAULT_N_LEVELS,
        help="number of automatic loss levels without --levels "
        f"(default {bslaw.DEFAULT_N_LEVELS})",
    )
    parser.add_argument(
        "--policy",
        choices=["best_of_schemes", "fixed_scheme"],
        default="best_of_schemes",
        help="which LR variants feed each contour",
    )
    parser.add_argument(
        "--scheme",
        choices=[s.value for s in laws.LrScheme],
        help="LR scheme to hold fixed (with --policy fixed_scheme)",
    )
