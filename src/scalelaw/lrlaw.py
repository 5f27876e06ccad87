"""Optimal learning rate versus batch size.

A sweep over (batch size, LR scale factor) at one model size is read out at
a token checkpoint into a loss surface on (log B, log LR).  The per-batch
argmin traces the LR_opt curve, which typically rises as a power of B and
then hits a stability ceiling; the exponent and ceiling are fitted here.
"""

from __future__ import annotations

import math
import warnings
from typing import Sequence

from ._lazy import np
from ._record import Record
from .errors import (
    GammaUndefinedError,
    InsufficientDataError,
    InsufficientGridError,
    NoMinimumError,
    ValidationError,
)
from .frontier import fit_power_law, interp_in_range, longest_stretch, parabola_vertex
from .laws import LrLawFit
from .runlog import RunSet, has_divergence, smooth_run

DEFAULT_PLATEAU_TOLERANCE = 0.05
# A flat suffix only counts as the ceiling plateau if it spans enough of the
# batch axis to be distinguishable from a shallow slope.
PLATEAU_MIN_SPAN = 1.5
DEFAULT_REFINEMENT = 4


def _check_positive(name: str, value: float) -> None:
    # "not 0 < v < inf" also rejects NaN, which fails every comparison
    if not 0 < value < math.inf:
        raise ValidationError(f"{name} must be positive and finite, got {value!r}")


def _check_refinement(refinement: int) -> None:
    if refinement < 1:
        raise ValidationError("refinement must be >= 1")


class LossSurface(Record, frozen=True, eq=False):
    """Losses at one token checkpoint over a (batch, LR-factor) grid.

    grid_LR holds scale factors relative to base_lr; cells from diverged or
    too-short runs are NaN.  column_at blends the LR column between batch
    rows linearly in log B; the LR axis is only read at its grid nodes.
    """

    d_checkpoint: float
    grid_B: np.ndarray
    grid_LR: np.ndarray
    losses: np.ndarray
    base_lr: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid_B", np.asarray(self.grid_B, dtype=float))
        object.__setattr__(self, "grid_LR", np.asarray(self.grid_LR, dtype=float))
        object.__setattr__(self, "losses", np.asarray(self.losses, dtype=float))
        for name in ("d_checkpoint", "base_lr"):
            _check_positive(name, getattr(self, name))
        for grid in (self.grid_B, self.grid_LR):
            if grid.ndim != 1 or grid.size < 2:
                raise ValidationError("grids must be 1-D with at least 2 values")
            if np.any(grid <= 0) or np.any(np.diff(grid) <= 0):
                raise ValidationError("grids must be positive and strictly increasing")
        if self.losses.shape != (self.grid_B.size, self.grid_LR.size):
            raise ValidationError("losses must be shaped (len(grid_B), len(grid_LR))")
        with np.errstate(invalid="ignore"):
            if np.any(self.losses <= 0):
                raise ValidationError("losses must be positive (NaN for missing)")
        filled = np.isfinite(self.losses)
        windows = np.lib.stride_tricks.sliding_window_view
        if min(filled.shape) < 3 or not windows(filled, (3, 3)).all(axis=(2, 3)).any():
            raise InsufficientGridError("no fully observed 3x3 subgrid in the sweep")

    def column_at(self, b: float) -> np.ndarray:
        """Losses at every LR grid node for batch b, blended along log B.

        Values are NaN where either supporting row is missing, and all NaN
        when b lies off the batch grid.
        """
        axis = np.log(self.grid_B)
        log_b = math.log(b)
        if not axis[0] <= log_b <= axis[-1]:
            return np.full(self.grid_LR.size, np.nan)
        i = min(int(np.searchsorted(axis, log_b, side="right") - 1), axis.size - 2)
        t = (log_b - axis[i]) / (axis[i + 1] - axis[i])
        return (1.0 - t) * self.losses[i] + t * self.losses[i + 1]


class LrSample(Record, frozen=True):
    """Optimal absolute LR at one batch size, read off the surface."""

    B: float
    lr_opt: float
    loss_at_opt: float
    boundary: bool = False


def _loss_at_checkpoint(run, d_checkpoint: float) -> float:
    """Smoothed loss at d_checkpoint tokens; NaN for diverged/short runs."""
    if has_divergence(run.points):
        return math.nan
    tokens = run.points.tokens
    if tokens.size < 2 or tokens[-1] < d_checkpoint or tokens[0] > d_checkpoint:
        return math.nan
    smoothed = smooth_run(run).points
    target = np.array([math.log(d_checkpoint)])
    return float(interp_in_range(target, np.log(smoothed.tokens), smoothed.loss)[0])


def build_surface(runset: RunSet, d_checkpoint: float) -> LossSurface:
    """Loss surface of a (B, LR-factor) sweep at one model size.

    Each run contributes the cell (batch_size_tokens, lr_scale); its value
    is the smoothed loss at d_checkpoint, or NaN when the run diverged or
    ended early.  All runs must share one model size and one base LR
    (lr_peak / lr_scale).

    Raises:
        InsufficientGridError: no fully observed 3x3 subgrid remains.
    """
    runs = list(runset)
    if not runs:
        raise InsufficientDataError("empty run set")
    sizes = {run.model.n_params for run in runs}
    if len(sizes) != 1:
        raise ValidationError(f"surface needs a single model size, got {len(sizes)}")
    bases = [run.lr_peak / run.lr_scale for run in runs]
    base_lr = bases[0]
    if any(abs(b / base_lr - 1.0) > 1e-9 for b in bases):
        raise ValidationError("runs disagree on the base learning rate")

    grid_b = sorted({run.batch_size_tokens for run in runs})
    grid_lr = sorted({run.lr_scale for run in runs})
    losses = np.full((len(grid_b), len(grid_lr)), np.nan)
    seen = set()
    for run in runs:
        cell = (grid_b.index(run.batch_size_tokens), grid_lr.index(run.lr_scale))
        if cell in seen:
            raise ValidationError(
                f"duplicate sweep cell B={run.batch_size_tokens:.3g}, "
                f"scale={run.lr_scale:.3g}"
            )
        seen.add(cell)
        value = _loss_at_checkpoint(run, d_checkpoint)
        if math.isnan(value):
            warnings.warn(f"run {run.run_id} missing at checkpoint; cell left empty")
        losses[cell] = value
    return LossSurface(
        d_checkpoint=d_checkpoint,
        grid_B=np.asarray(grid_b),
        grid_LR=np.asarray(grid_lr),
        losses=losses,
        base_lr=base_lr,
    )


def extract_lr_opt(surface: LossSurface, refinement: int = DEFAULT_REFINEMENT) -> list[LrSample]:
    """LR_opt(B) samples: per-batch argmin over LR with quadratic refinement.

    The batch axis is refined `refinement`-fold between grid rows; at each
    refined B the discrete minimum over LR grid nodes is polished by fitting
    a parabola in log LR through its neighbors.  Minima on the edge of the
    observed LR span are flagged boundary (the true optimum may lie outside
    the sweep).
    """
    _check_refinement(refinement)
    log_b_nodes = np.log(surface.grid_B)
    n_cells = surface.grid_B.size - 1
    refined = np.sort(
        np.concatenate(
            [
                np.linspace(log_b_nodes[i], log_b_nodes[i + 1], refinement + 1)
                for i in range(n_cells)
            ]
        )
    )
    # np.unique's result (the shared nodes once) without np.unique, which
    # loads numpy.ma on first use (numpy 2.x)
    refined = refined[np.concatenate(([True], np.diff(refined) != 0))]
    log_lr = np.log(surface.grid_LR)
    samples = []
    for lb in refined:
        column = surface.column_at(math.exp(lb))
        # work within the longest consecutive stretch of observed cells
        segment = longest_stretch(np.flatnonzero(np.isfinite(column)))
        if len(segment) < 2:
            continue
        vals = column[segment]
        k = int(np.argmin(vals))
        j = segment[k]
        if k == 0 or k == len(segment) - 1:
            samples.append(
                LrSample(
                    B=float(math.exp(lb)),
                    lr_opt=float(surface.base_lr * surface.grid_LR[j]),
                    loss_at_opt=float(vals[k]),
                    boundary=True,
                )
            )
            continue
        try:
            log_opt, loss_opt = parabola_vertex(log_lr[j - 1 : j + 2], column[j - 1 : j + 2])
        except NoMinimumError:
            log_opt, loss_opt = float(log_lr[j]), float(column[j])
        samples.append(
            LrSample(
                B=float(math.exp(lb)),
                lr_opt=float(surface.base_lr * math.exp(log_opt)),
                loss_at_opt=loss_opt,
                boundary=False,
            )
        )
    if not samples:
        raise InsufficientDataError("no usable LR columns in the surface")
    return samples


def fit_gamma(
    samples: Sequence[LrSample],
    plateau_tolerance: float = DEFAULT_PLATEAU_TOLERANCE,
) -> LrLawFit:
    """Power-law exponent of LR_opt(B) before the ceiling binds.

    The plateau is the maximal suffix of samples whose LR_opt varies less
    than plateau_tolerance while spanning at least PLATEAU_MIN_SPAN in B;
    gamma is the log-log slope over the remaining prefix.

    Raises:
        InsufficientDataError: fewer than 4 non-boundary samples.
        GammaUndefinedError: everything is plateau; carries the ceiling.
    """
    _check_positive("plateau_tolerance", plateau_tolerance)
    usable = sorted(
        (s for s in samples if not s.boundary), key=lambda s: s.B
    )
    if len(usable) < 4:
        raise InsufficientDataError(
            f"need at least 4 non-boundary samples, got {len(usable)}"
        )
    lrs = np.array([s.lr_opt for s in usable])
    bs = np.array([s.B for s in usable])

    plateau_start = None
    for j in range(len(usable) - 1):
        tail = lrs[j:]
        if bs[-1] / bs[j] < PLATEAU_MIN_SPAN:
            break
        if tail.max() / tail.min() - 1.0 < plateau_tolerance:
            plateau_start = j
            break

    if plateau_start is None:
        prefix = slice(None)
        lr_ceiling = None
        onset = None
    else:
        prefix = slice(0, plateau_start)
        lr_ceiling = float(lrs[plateau_start:].mean())
        onset = float(bs[plateau_start])
        if plateau_start < 2:
            raise GammaUndefinedError(
                "all batch sizes sit in the LR plateau", lr_ceiling=lr_ceiling
            )
    return LrLawFit(
        gamma=fit_power_law(bs[prefix], lrs[prefix]).p,
        lr_ceiling=lr_ceiling,
        plateau_onset_B=onset,
        n_fit=int(bs[prefix].size),
    )
