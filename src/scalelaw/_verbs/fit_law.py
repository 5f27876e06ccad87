"""`scalelaw fit-law`: fit the parametric loss law L(N, D) to a run log."""

from __future__ import annotations

from .. import artifact, lawfit
from .._record import replace
from ..errors import ValidationError, check_positive
from . import add_json_flag, emit
from ._runs import add_filter_flags, add_fit_io_flags, filtered_runs, laws_to_update


def add_arguments(p) -> None:
    add_fit_io_flags(p)
    p.add_argument(
        "--constrain",
        help="'frontier' to tie (A, alpha) to the artifact's frontier block, "
        "or four numbers 'a,b,p,q'",
    )
    p.add_argument(
        "--delta", type=float, default=lawfit.DEFAULT_HUBER_DELTA,
        help="Huber delta on log-loss residuals",
    )
    p.add_argument(
        "--raw", action="store_true", help="fit raw curve points (skip smoothing)"
    )
    add_filter_flags(p)
    add_json_flag(p)


def _constraint_from_artifact(doc: artifact.LawArtifact) -> lawfit.FrontierConstraint:
    if doc.frontier is None:
        raise ValidationError(
            "--constrain frontier needs a laws file with a frontier block; "
            "run the frontier verb first"
        )
    return lawfit.FrontierConstraint(
        a=doc.frontier.N_opt.p,
        b=doc.frontier.D_opt.p,
        p=doc.frontier.N_opt.k,
        q=doc.frontier.D_opt.k,
    )


def run(args) -> None:
    check_positive("delta", args.delta)
    doc = laws_to_update(args.laws)
    constraint = None
    if args.constrain is not None:
        if args.constrain == "frontier":
            constraint = _constraint_from_artifact(doc)
        else:
            try:
                parts = [float(v) for v in args.constrain.split(",")]
            except ValueError:
                parts = []
            if len(parts) != 4:
                raise ValidationError(
                    "--constrain takes 'frontier' or four numbers 'a,b,p,q', "
                    f"got {args.constrain!r}"
                )
            constraint = lawfit.FrontierConstraint(*parts)
    samples = lawfit.samples_from_runs(filtered_runs(args), smooth=not args.raw)
    report = lawfit.fit_loss_law(samples, constraint=constraint, delta=args.delta)
    replace(doc, loss_law=report.law, loss_fit=report.to_dict()).save(args.laws)
    law = report.law
    lines = [
        f"loss law: {law.E:.6g} + {law.A:.6g}/N^{law.alpha:.6g}"
        f" + {law.Bcoef:.6g}/D^{law.beta:.6g}",
        f"r_squared (log space): {report.r_squared:.6g}"
        f" on {report.n_points} samples (huber delta {report.huber_delta:g})",
    ]
    if constraint is not None:
        lines.append(
            f"constrained: alpha/beta tied to b/a = {constraint.b:g}/{constraint.a:g}"
        )
    lines.append(f"updated {args.laws}")
    emit(args, lines, {
        "verb": "fit-law",
        "params": law.to_dict(),
        "fit": report.to_dict(),
        "laws": args.laws,
    })
