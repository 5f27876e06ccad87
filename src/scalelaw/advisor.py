"""Turn fitted laws into training-configuration recommendations.

Two budget modes: a compute budget is allocated through the frontier power
laws, and a fixed data budget through the batch-size law.  Both anchor the
learning rate to the preset of the nearest model size, scaled to the
recommended batch.  Derived fields are reconciled so the identities
C = 6*N*D and D = S*B hold exactly even though fitted coefficients are
rounded.
"""

from __future__ import annotations

import math
import sys

from ._record import Record, field
from .errors import ValidationError, check_positive
from .laws import (
    FLOPS_PER_PARAM_TOKEN,
    BoptLaw,
    ChinchillaLaw,
    FrontierReport,
    LrLawFit,
    Presets,
    scale_lr,
)


class Recommendation(Record, frozen=True):
    """A recommended training configuration with per-field provenance.

    provenance names the law or identity each field came from;
    flags carries per-field validity warnings (extrapolation, regime).
    N is None when a data budget comes without a model size.
    """

    N: float | None
    D: float
    S: float
    B: float
    C: float | None = None
    LR: float | None = None
    lr_anchor: str | None = None
    predicted_loss: float | None = None
    loss_crosscheck: float | None = None
    provenance: dict[str, str] = field(default_factory=dict)
    flags: dict[str, str] = field(default_factory=dict)


def _anchor_lr(
    n_params: float,
    B: float,
    presets: Presets,
    lr_law: LrLawFit | None,
    scheme: str,
) -> tuple[float, str, str | None]:
    """Preset LR scaled to batch B, capped at the fitted ceiling if known."""
    row = presets.lookup(n_params)
    lr = scale_lr(row.max_lr, row.batch_size, B, scheme)
    anchor = (
        f"preset {row.label} ({row.max_lr:g} at {row.batch_size:g} tokens), "
        f"{scheme} scaling to {B:g}"
    )
    warning = None
    if lr_law is not None and lr_law.lr_ceiling is not None and lr > lr_law.lr_ceiling:
        lr = lr_law.lr_ceiling
        anchor += f", capped at ceiling {lr_law.lr_ceiling:g}"
        warning = "scaled LR exceeds the fitted stability ceiling; capped"
    return lr, anchor, warning


def advise_compute(
    frontier: FrontierReport,
    C: float,
    loss_law: ChinchillaLaw | None = None,
    presets: Presets | None = None,
    lr_law: LrLawFit | None = None,
    lr_scheme: str = "linear",
) -> Recommendation:
    """Allocate a compute budget: model size, tokens, steps, batch, LR.

    N and S come from their fitted laws; D and B are back-solved from the
    identities C = 6*N*D and D = S*B so the returned configuration is
    exactly self-consistent.  The loss forecast uses the frontier loss law,
    cross-checked against the parametric law when one is supplied.
    """
    check_positive("C", C)
    presets = presets or Presets()
    n = frontier.N_opt(C)
    d = C / (FLOPS_PER_PARAM_TOKEN * n)
    s = frontier.S_opt(C)
    b = d / s
    provenance = {
        "N": "N_opt(C) power law",
        "D": "C/(6N) identity",
        "S": "S_opt(C) power law",
        "B": "D/S identity",
        "predicted_loss": "L_opt(C) power law",
    }
    flags: dict[str, str] = {}
    if frontier.N_opt.extrapolates(C):
        flags["N"] = "C outside the fitted range of N_opt"
    if frontier.S_opt.extrapolates(C):
        flags["S"] = "C outside the fitted range of S_opt"
    if C < frontier.B_opt.x_min:
        flags["B"] = (
            "C below the batch law's validity floor "
            f"({frontier.B_opt.x_min:.3g} FLOPs); batch guidance unreliable"
        )
    elif frontier.B_opt.extrapolates(C):
        flags["B"] = "C outside the fitted range of B_opt"

    predicted = frontier.L_opt(C)
    crosscheck = None
    if loss_law is not None:
        crosscheck = loss_law.eval(n, d)

    lr, anchor, warning = _anchor_lr(n, b, presets, lr_law, lr_scheme)
    provenance["LR"] = anchor
    if warning:
        flags["LR"] = warning
    return Recommendation(
        N=n,
        D=d,
        S=s,
        B=b,
        C=C,
        LR=lr,
        lr_anchor=anchor,
        predicted_loss=predicted,
        loss_crosscheck=crosscheck,
        provenance=provenance,
        flags=flags,
    )


def advise_data(
    bopt: BoptLaw,
    D: float,
    n_params: float | None = None,
    loss_law: ChinchillaLaw | None = None,
    presets: Presets | None = None,
    lr_law: LrLawFit | None = None,
    lr_scheme: str = "linear",
) -> Recommendation:
    """Pick batch size, steps, and LR for a fixed token budget.

    The model size is whatever the caller brings (the data budget does not
    pin it); LR guidance needs one to anchor a preset.
    """
    check_positive("D", D)
    if n_params is not None:
        check_positive("n_params", n_params)
    C = None if n_params is None else FLOPS_PER_PARAM_TOKEN * n_params * D
    if C is not None and not sys.float_info.min <= C < math.inf:
        how = "overflows" if C > 1 else "underflows"
        raise ValidationError(
            f"compute C = 6*N*D {how} a float for N = {n_params:g} and D = {D:g}"
        )
    presets = presets or Presets()
    b = bopt.eval(D)
    if b < sys.float_info.min:
        raise ValidationError(f"D = {D:g} is too small: the advised batch size {b:g} underflows")
    s = D / b
    provenance = {
        "B": f"B_opt(D) {bopt.regime(D)} regime",
        "S": "D/B identity",
    }
    flags: dict[str, str] = {}
    if bopt.extrapolates(D):
        flags["B"] = "D outside the fitted range of the batch law"

    lr = None
    anchor = None
    predicted = None
    if n_params is not None:
        lr, anchor, warning = _anchor_lr(n_params, b, presets, lr_law, lr_scheme)
        provenance["LR"] = anchor
        if warning:
            flags["LR"] = warning
        if loss_law is not None:
            predicted = loss_law.eval(n_params, D)
            provenance["predicted_loss"] = "parametric loss law at (N, D)"
    else:
        flags["LR"] = "no model size given; preset anchoring skipped"

    return Recommendation(
        N=n_params,
        D=D,
        S=s,
        B=b,
        C=C,
        LR=lr,
        lr_anchor=anchor,
        predicted_loss=predicted,
        provenance=provenance,
        flags=flags,
    )
