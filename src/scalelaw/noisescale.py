"""Gradient-noise-scale relations between batch size, learning rate, and
the steps/data trade-off.

All functions are closed-form in the noise parameters; nothing here is
estimated from gradients.  Batch sizes are in tokens.
"""

from __future__ import annotations

import math
from typing import Sequence

from ._record import Record
from .errors import ValidationError, check_positive

# the classic seven-column trade-off grid; 1/9 prints as the familiar
# (e = 1.1, s = 10) column
TABLE_B_RATIOS = (1.0 / 9.0, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0)


class NoiseParams(Record, frozen=True):
    """Noise-scale parameters of one optimizer family.

    SGD-style and Adam-style updates use different effective (eta_max,
    B_noise) values; keep separate instances per family rather than
    converting between them.
    """

    eta_max: float
    B_noise: float
    dL_max: float = 1.0
    gamma_tradeoff: float = 1.0

    def __post_init__(self) -> None:
        for name in ("eta_max", "B_noise", "dL_max", "gamma_tradeoff"):
            check_positive(name, getattr(self, name))


class TradeoffRow(Record, frozen=True):
    """One point on the iso-loss steps/data trade-off curve."""

    e_ratio: float  # E/E_min: data overhead
    s_ratio: float  # S/S_min: step overhead
    b_ratio: float  # B/B_crit


def eta_opt_sgd(B: float, params: NoiseParams) -> float:
    """Optimal SGD-style learning rate at batch size B: eta_max/(1 + B_noise/B)."""
    check_positive("B", B)
    return params.eta_max / (1.0 + params.B_noise / B)


def eta_opt_adam(B: float, params: NoiseParams) -> float:
    """Optimal sign-style (Adam-family) learning rate at batch size B.

    eta_max / (0.5*(sqrt(B_noise/B) + sqrt(B/B_noise))); peaks at exactly
    B = B_noise and falls off with +-1/2 log-log slope far from it.
    """
    check_positive("B", B)
    r = params.B_noise / B
    return params.eta_max / (0.5 * (math.sqrt(r) + 1.0 / math.sqrt(r)))


def solve_tradeoff(b_ratio: float, gamma: float = 1.0) -> TradeoffRow:
    """Data and step overheads of training at B = b_ratio * B_crit.

    Fixing the batch size closes the trade-off (s - 1)(e - 1) = gamma with
    s = e/b, giving the quadratic e^2 - (1+b)e + b(1-gamma) = 0; the larger
    root is the physical branch (e > 1 and e > b for any gamma > 0).
    """
    if not (0 < b_ratio < math.inf and 0 < gamma < math.inf):
        raise ValidationError(
            f"b_ratio and gamma must be positive and finite, got ({b_ratio}, {gamma})"
        )
    b = b_ratio
    # the discriminant equals (1-b)^2 + 4*b*gamma > 0, so only overflow or
    # rounding (e = 1 + b*gamma to first order as b -> 0) breaks the bounds
    try:
        disc = (1.0 + b) ** 2 - 4.0 * b * (1.0 - gamma)
        e = 0.5 * ((1.0 + b) + math.sqrt(disc))
    except OverflowError:
        e = math.inf
    if not (1.0 < e < math.inf and e > b):
        raise ValidationError(f"trade-off root out of float range at b_ratio={b}, gamma={gamma}")
    return TradeoffRow(e_ratio=e, s_ratio=e / b, b_ratio=b)


def tradeoff_table(
    gamma: float, b_ratios: Sequence[float] = TABLE_B_RATIOS
) -> list[TradeoffRow]:
    """One trade-off row per B/B_crit ratio, in the given order."""
    return [solve_tradeoff(b, gamma) for b in b_ratios]

