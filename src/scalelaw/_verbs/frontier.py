"""`scalelaw frontier`: extract the compute frontier and fit its power laws."""

from __future__ import annotations

from .. import frontier
from .._record import replace
from . import add_json_flag, emit
from ._runs import add_filter_flags, add_fit_io_flags, filtered_runs, laws_to_update


def add_arguments(p) -> None:
    add_fit_io_flags(p)
    add_filter_flags(p)
    add_json_flag(p)


def run(args) -> None:
    doc = laws_to_update(args.laws)
    runset = filtered_runs(args)
    report = frontier.frontier_report(runset)
    replace(doc, frontier=report).save(args.laws)
    lines = []
    for name in ("L_opt", "N_opt", "D_opt", "S_opt", "B_opt"):
        law = getattr(report, name)
        lines.append(
            f"{name}(C) = {law.k:.6g} * C^{law.p:.6g}"
            f"   (C in [{law.x_min:.3g}, {law.x_max:.3g}])"
        )
    lines.append(
        f"{len(report.points)} frontier points; identity residuals: "
        + ", ".join(f"{k} {v:.3g}" for k, v in sorted(report.consistency_residuals.items()))
    )
    if report.excluded:
        lines.append(
            "excluded model sizes: " + ", ".join(f"{m:g}" for m in report.excluded)
        )
    lines.append(f"updated {args.laws}")
    summary = report.to_dict()
    # the laws file keeps the frontier points; the summary reports only their count
    summary.pop("points", None)
    emit(args, lines, {"verb": "frontier", **summary, "laws": args.laws})
