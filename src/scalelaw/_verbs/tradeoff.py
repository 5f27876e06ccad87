"""`scalelaw tradeoff`: print the iso-loss steps/data trade-off table."""

from __future__ import annotations

from .. import noisescale
from . import add_json_flag, csv_floats, emit


def add_arguments(p) -> None:
    p.add_argument("--gamma", type=float, default=1.0, help="trade-off constant")
    p.add_argument(
        "--b-ratios",
        type=csv_floats,
        help="comma-separated B/B_crit ratios (default: the classic seven columns)",
    )
    p.add_argument("--csv", action="store_true", help="emit CSV instead of a table")
    add_json_flag(p)


def run(args) -> None:
    ratios = args.b_ratios if args.b_ratios is not None else list(noisescale.TABLE_B_RATIOS)
    rows = noisescale.tradeoff_table(args.gamma, ratios)
    if args.csv:
        lines = ["b_ratio,e_ratio,s_ratio"]
        lines.extend(f"{r.b_ratio!r},{r.e_ratio!r},{r.s_ratio!r}" for r in rows)
    else:
        lines = [f"{'B/B_crit':>10}  {'E/E_min':>10}  {'S/S_min':>10}"]
        lines.extend(
            f"{r.b_ratio:>10.4g}  {r.e_ratio:>10.4g}  {r.s_ratio:>10.4g}" for r in rows
        )
    emit(args, lines, {
        "verb": "tradeoff",
        "gamma": args.gamma,
        "rows": [r.to_dict() for r in rows],
    })
