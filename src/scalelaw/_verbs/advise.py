"""`scalelaw advise`: turn a compute or data budget into a training configuration."""

from __future__ import annotations

from .. import advisor, artifact
from ..errors import ValidationError
from . import add_json_flag, emit, fmt


def add_arguments(p) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--compute", type=float, help="compute budget in FLOPs")
    group.add_argument("--data", type=float, help="token budget")
    p.add_argument(
        "--model-size", type=float, help="model size in params (with --data only)"
    )
    p.add_argument(
        "--laws",
        default="reference",
        help="law artifact path, or 'reference' for the built-in published constants",
    )
    p.add_argument(
        "--scheme",
        choices=["linear", "sqrt", "none"],
        default="linear",
        help="LR scaling rule used to move the preset LR to the advised batch",
    )
    add_json_flag(p)


def _load_laws(spec: str) -> artifact.LawArtifact:
    if spec == "reference":
        return artifact.reference_artifact()
    return artifact.LawArtifact.load(spec)


def run(args) -> None:
    doc = _load_laws(args.laws)
    if args.compute is not None:
        if args.model_size is not None:
            raise ValidationError(
                "--model-size only applies to --data; a compute budget pins the model size"
            )
        if doc.frontier is None:
            raise ValidationError(
                f"{args.laws}: no frontier block; --compute needs one (run the frontier verb)"
            )
        rec = advisor.advise_compute(
            doc.frontier,
            args.compute,
            loss_law=doc.loss_law,
            presets=doc.presets,
            lr_law=doc.lr_law,
            lr_scheme=args.scheme,
        )
    else:
        if doc.bopt is None:
            raise ValidationError(
                f"{args.laws}: no batch-size law block; --data needs one (run fit-bopt)"
            )
        rec = advisor.advise_data(
            doc.bopt,
            args.data,
            n_params=args.model_size,
            loss_law=doc.loss_law,
            presets=doc.presets,
            lr_law=doc.lr_law,
            lr_scheme=args.scheme,
        )
    lines = []
    for field, value, unit in (
        ("model size N", rec.N, "params"),
        ("tokens D", rec.D, "tokens"),
        ("steps S", rec.S, "steps"),
        ("batch size B", rec.B, "tokens/step"),
        ("compute C", rec.C, "FLOPs"),
        ("peak LR", rec.LR, ""),
        ("predicted loss", rec.predicted_loss, ""),
        ("loss cross-check", rec.loss_crosscheck, ""),
    ):
        if value is None:
            continue
        lines.append(f"{field:>16}: {fmt(value)} {unit}".rstrip())
    if rec.lr_anchor:
        lines.append(f"{'LR anchor':>16}: {rec.lr_anchor}")
    for field, msg in sorted(rec.flags.items()):
        lines.append(f"warning: {field}: {msg}")
    emit(args, lines, {"verb": "advise", **rec.to_dict()})
