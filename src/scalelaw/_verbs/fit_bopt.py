"""`scalelaw fit-bopt`: fit the two-regime batch-size law B_opt(D) for one model size."""

from __future__ import annotations

from .. import bslaw, laws
from .._record import replace
from ..errors import check_positive
from . import add_json_flag, emit
from ._runs import (
    add_contour_flags,
    add_filter_flags,
    add_fit_io_flags,
    check_contour_flags,
    contour_levels,
    filtered_runs,
    laws_to_update,
)


def add_arguments(p) -> None:
    add_fit_io_flags(p, runs_help="input run log (JSONL, one model size)")
    add_contour_flags(p)
    p.add_argument(
        "--s-floor", type=float, help="known minimum useful step count, if any"
    )
    add_filter_flags(p)
    add_json_flag(p)


def run(args) -> None:
    if args.s_floor is not None:
        check_positive("s_floor_hint", args.s_floor)
    check_contour_flags(args)
    doc = laws_to_update(args.laws)
    runset = filtered_runs(args)
    scheme = laws.LrScheme(args.scheme) if args.scheme else None
    law, vertices = bslaw.bopt_law_from_runs(
        runset,
        loss_levels=contour_levels(args, runset),
        lr_policy=args.policy,
        scheme=scheme,
        s_floor_hint=args.s_floor,
    )
    replace(doc, bopt=law).save(args.laws)
    lines = [
        f"B_opt(D) = D/{law.s_floor:.6g} for D < {law.crossover_D:.6g}",
        (
            f"B_opt(D) = {law.k:.6g} * D^{law.p:.6g} beyond"
            if law.power_fitted
            else "no power regime fitted (all levels step-floor limited)"
        ),
        f"fitted over D in [{law.d_min:.3g}, {law.d_max:.3g}]"
        f" from {len(vertices)} contour vertices",
        f"updated {args.laws}",
    ]
    emit(args, lines, {
        "verb": "fit-bopt",
        "bopt": law.to_dict(),
        "vertices": [v.to_dict() for v in vertices],
        "laws": args.laws,
    })
