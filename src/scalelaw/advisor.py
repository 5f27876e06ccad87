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
from dataclasses import asdict, dataclass, field

from .bslaw import BoptLaw
from .errors import ValidationError
from .frontier import FrontierReport
from .lawfit import ChinchillaLaw
from .lrlaw import LrLawFit, scale_lr
from .runlog import FLOPS_PER_PARAM_TOKEN, read_field


@dataclass(frozen=True)
class PresetRow:
    """Tuned defaults for one model size: global batch, peak LR, schedule."""

    n_params: float
    label: str
    batch_size: float
    max_lr: float
    warmup_steps: int
    decay_steps: int

    def __post_init__(self) -> None:
        if min(self.n_params, self.batch_size, self.max_lr) <= 0:
            raise ValidationError("preset sizes and rates must be positive")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "PresetRow":
        return cls(
            n_params=read_field(d, "n_params", float),
            label=read_field(d, "label", str),
            batch_size=read_field(d, "batch_size", float),
            max_lr=read_field(d, "max_lr", float),
            warmup_steps=read_field(d, "warmup_steps", int),
            decay_steps=read_field(d, "decay_steps", int),
        )


DEFAULT_PRESETS: tuple[PresetRow, ...] = (
    PresetRow(1.25e8, "125M", 5e5, 6.0e-4, 715, 500000),
    PresetRow(3.5e8, "350M", 5e5, 3.0e-4, 715, 500000),
    PresetRow(7.6e8, "760M", 5e5, 2.5e-4, 715, 500000),
    PresetRow(1.3e9, "1.3B", 1e6, 2.0e-4, 350, 300000),
    PresetRow(2.6e9, "2.6B", 1e6, 1.6e-4, 350, 300000),
)


@dataclass(frozen=True)
class Presets:
    """Preset table, extensible with user rows."""

    rows: tuple[PresetRow, ...] = DEFAULT_PRESETS

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValidationError("preset table must not be empty")

    def with_row(self, row: PresetRow) -> "Presets":
        return Presets(rows=self.rows + (row,))

    def lookup(self, n_params: float) -> PresetRow:
        """Nearest row by log model size; ties go to the larger model."""
        if not (math.isfinite(n_params) and n_params > 0):
            raise ValidationError(f"n_params must be finite and positive, got {n_params}")
        return min(
            self.rows,
            key=lambda r: (abs(math.log(n_params) - math.log(r.n_params)), -r.n_params),
        )

    def to_dict(self) -> dict:
        return {"rows": [r.to_dict() for r in self.rows]}

    @classmethod
    def from_dict(cls, d: dict) -> "Presets":
        return cls(rows=tuple(PresetRow.from_dict(r) for r in d["rows"]))


def preset_lookup(n_params: float, presets: Presets | None = None) -> PresetRow:
    """Nearest preset row for a model size (default table unless given)."""
    return (presets or Presets()).lookup(n_params)


@dataclass(frozen=True)
class Recommendation:
    """A recommended training configuration with per-field provenance.

    provenance names the law or identity each field came from;
    flags carries per-field validity warnings (extrapolation, regime).
    """

    N: float
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

    def to_dict(self) -> dict:
        return asdict(self)


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
    if not (math.isfinite(C) and C > 0):
        raise ValidationError(f"C must be finite and positive, got {C}")
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
    if not (math.isfinite(D) and D > 0):
        raise ValidationError(f"D must be finite and positive, got {D}")
    if n_params is not None and not (math.isfinite(n_params) and n_params > 0):
        raise ValidationError(f"n_params must be finite and positive, got {n_params}")
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
        N=n_params if n_params is not None else math.nan,
        D=D,
        S=s,
        B=b,
        C=FLOPS_PER_PARAM_TOKEN * n_params * D if n_params is not None else None,
        LR=lr,
        lr_anchor=anchor,
        predicted_loss=predicted,
        provenance=provenance,
        flags=flags,
    )


@dataclass(frozen=True)
class CompressionResult:
    """Iso-loss model shrink: same predicted loss from a smaller model."""

    N_small: float
    inference_ratio: float
    loss: float


def compress_query(
    law: ChinchillaLaw, reference: tuple[float, float], candidate_D: float
) -> CompressionResult:
    """How far the model shrinks at equal loss when trained on more data.

    Evaluates the law at the reference (N, D), then solves for the model
    size reaching the same loss at candidate_D tokens.
    """
    n0, d0 = reference
    if n0 <= 0 or d0 <= 0:
        raise ValidationError("reference N and D must be positive")
    if candidate_D < d0:
        raise ValidationError("candidate_D must be at least the reference D")
    target = law.eval(n0, d0)
    n_small = law.n_for_loss(target, candidate_D)
    return CompressionResult(N_small=n_small, inference_ratio=n0 / n_small, loss=target)
