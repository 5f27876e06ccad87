"""`scalelaw fit-lr`: extract LR_opt(B) from an LR sweep and fit its exponent."""

from __future__ import annotations

from .. import lrlaw
from .._record import replace
from ..errors import check_positive
from . import add_json_flag, emit, fmt
from ._runs import add_filter_flags, add_fit_io_flags, filtered_runs, laws_to_update


def add_arguments(p) -> None:
    add_fit_io_flags(p, runs_help="input run log (JSONL, one model size)")
    p.add_argument(
        "--checkpoint-tokens",
        type=float,
        required=True,
        help="token count at which curves are compared",
    )
    p.add_argument(
        "--refinement",
        type=int,
        default=lrlaw.DEFAULT_REFINEMENT,
        help="batch-grid refinement between swept batches",
    )
    p.add_argument(
        "--plateau-tol",
        type=float,
        default=lrlaw.DEFAULT_PLATEAU_TOLERANCE,
        help="relative LR variation treated as the ceiling plateau",
    )
    add_filter_flags(p)
    add_json_flag(p)


def run(args) -> None:
    # the layer's own checks, so a bad flag fails before the run log is read
    check_positive("d_checkpoint", args.checkpoint_tokens)
    check_positive("plateau_tolerance", args.plateau_tol)
    lrlaw._check_refinement(args.refinement)
    doc = laws_to_update(args.laws)
    runset = filtered_runs(args)
    surface = lrlaw.build_surface(runset, args.checkpoint_tokens)
    samples = lrlaw.extract_lr_opt(surface, refinement=args.refinement)
    fit = replace(
        lrlaw.fit_gamma(samples, plateau_tolerance=args.plateau_tol),
        base_lr=surface.base_lr,
        d_checkpoint=args.checkpoint_tokens,
    )
    replace(doc, lr_law=fit).save(args.laws)
    lines = [f"LR_opt(B) ~ B^{fit.gamma:.4g} over {fit.n_fit} batch sizes"]
    if fit.lr_ceiling is not None:
        lines.append(
            f"ceiling {fit.lr_ceiling:.4g} from B ~ {fmt(fit.plateau_onset_B, 4)}"
        )
    else:
        lines.append("no LR ceiling detected in the swept range")
    lines.append(f"updated {args.laws}")
    emit(args, lines, {
        "verb": "fit-lr",
        "lr_law": fit.to_dict(),
        "samples": [
            {"B": s.B, "lr_opt": s.lr_opt, "loss": s.loss_at_opt, "boundary": s.boundary}
            for s in samples
        ],
        "laws": args.laws,
    })
