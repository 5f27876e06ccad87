"""Optimal learning rate versus batch size.

A sweep over (batch size, LR scale factor) at one model size is read out at
a token checkpoint into a loss surface on (log B, log LR).  The per-batch
argmin traces the LR_opt curve, which typically rises as a power of B and
then hits a stability ceiling; the exponent and ceiling are fitted here.
"""

from __future__ import annotations

import math
import warnings
from array import array
from bisect import bisect_right
from typing import Sequence

from ._lazy import np
from ._record import Record
from .errors import (
    GammaUndefinedError,
    InsufficientDataError,
    InsufficientGridError,
    NoMinimumError,
    ValidationError,
    check_positive,
)
from .frontier import fit_power_law, interp_in_range, linspace, longest_stretch, parabola_vertex
from .laws import LrLawFit
from .runlog import RunSet, has_divergence

DEFAULT_PLATEAU_TOLERANCE = 0.05
# A flat suffix only counts as the ceiling plateau if it spans enough of the
# batch axis to be distinguishable from a shallow slope.
PLATEAU_MIN_SPAN = 1.5
DEFAULT_REFINEMENT = 4


def _check_refinement(refinement: int) -> None:
    if refinement < 1:
        raise ValidationError("refinement must be >= 1")


class LossSurface(Record, frozen=True, eq=False):
    """Losses at one token checkpoint over a (batch, LR-factor) grid.

    grid_LR holds scale factors relative to base_lr; cells from diverged or
    too-short runs are NaN.  column_at reads the LR column at a swept batch
    and blends it between batch rows linearly in log B elsewhere; the LR
    axis is only read at its grid nodes.

    Its ``buffers`` are grid_B, grid_LR and losses as read-only float64
    memoryviews (losses 2-D), which the readout reads as Python floats.  A
    field given as a C-contiguous float64 memoryview is kept; any other (a
    numpy array, a list) is converted once by numpy.  The fields themselves
    are read-only numpy views of the buffers, each built when first read,
    so a process that never reads one never loads numpy.
    """

    d_checkpoint: float
    grid_B: np.ndarray
    grid_LR: np.ndarray
    losses: np.ndarray
    base_lr: float

    def __post_init__(self) -> None:
        grid_b, grid_lr, losses = buffers = tuple(
            _float_buffer(self.__dict__.pop(name)) for name in _SURFACE_FIELDS
        )
        self.__dict__["buffers"] = buffers
        for name in ("d_checkpoint", "base_lr"):
            check_positive(name, getattr(self, name))
        for grid in (grid_b, grid_lr):
            if grid.ndim != 1 or len(grid) < 2:
                raise ValidationError("grids must be 1-D with at least 2 values")
            values = grid.tolist()
            if not (values[0] > 0 and all(a < b for a, b in zip(values, values[1:]))):
                raise ValidationError("grids must be positive and strictly increasing")
        if losses.shape != (len(grid_b), len(grid_lr)):
            raise ValidationError("losses must be shaped (len(grid_B), len(grid_LR))")
        rows = losses.tolist()
        if any(value <= 0 for row in rows for value in row):
            raise ValidationError("losses must be positive (NaN for missing)")
        filled = [[math.isfinite(value) for value in row] for row in rows]
        if not any(
            all(all(row[j : j + 3]) for row in filled[i : i + 3])
            for i in range(len(filled) - 2)
            for j in range(len(filled[0]) - 2)
        ):
            raise InsufficientGridError("no fully observed 3x3 subgrid in the sweep")

    def __getattr__(self, name: str):
        # called only for an attribute not in __dict__: a field whose array
        # has not been read yet, which becomes a view of its buffer
        if name in _SURFACE_FIELDS and "buffers" in self.__dict__:
            view = np.asarray(self.buffers[_SURFACE_FIELDS.index(name)])
            self.__dict__[name] = view
            return view
        raise AttributeError(f"{type(self).__qualname__!r} object has no attribute {name!r}")

    def __reduce__(self):
        # memoryviews do not pickle; a surface pickles as its arrays
        return LossSurface, (self.d_checkpoint, self.grid_B, self.grid_LR, self.losses, self.base_lr)

    def column_at(self, b: float) -> list[float]:
        """Losses at every LR grid node for batch b.

        At a swept batch this is its row, holes included.  Between two swept
        batches the rows are blended along log B, and a value is NaN where
        either row is missing.  Off the batch grid every value is NaN.
        """
        grid_b, grid_lr, losses = self.buffers
        axis = [math.log(value) for value in grid_b]
        log_b = math.log(b)
        if not axis[0] <= log_b <= axis[-1]:
            return [math.nan] * len(grid_lr)
        i = bisect_right(axis, log_b) - 1
        rows = losses.tolist()
        if axis[i] == log_b:
            return rows[i]
        t = (log_b - axis[i]) / (axis[i + 1] - axis[i])
        return [(1.0 - t) * lo + t * hi for lo, hi in zip(rows[i], rows[i + 1])]


# a surface's array fields, in the order of its buffers
_SURFACE_FIELDS = ("grid_B", "grid_LR", "losses")


def _float_buffer(value) -> memoryview:
    """value as a read-only C-contiguous float64 memoryview."""
    if not (isinstance(value, memoryview) and value.format == "d" and value.c_contiguous):
        value = memoryview(np.asarray(value, dtype=float, order="C"))
    return value.toreadonly()


class LrSample(Record, frozen=True):
    """Optimal absolute LR at one batch size, read off the surface."""

    B: float
    lr_opt: float
    loss_at_opt: float
    boundary: bool = False


def _loss_at_checkpoint(runset: RunSet, run, d_checkpoint: float) -> float:
    """Smoothed loss at d_checkpoint tokens; NaN for diverged/short runs."""
    if has_divergence(run.points):
        return math.nan
    tokens = run.points.columns[1]
    if len(tokens) < 2 or tokens[-1] < d_checkpoint or tokens[0] > d_checkpoint:
        return math.nan
    _, tokens, loss = runset.smoothed(run.run_id).columns
    return interp_in_range([d_checkpoint], 1.0, tokens, loss)[0]


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
    losses = array("d", [math.nan]) * (len(grid_b) * len(grid_lr))
    seen = set()
    for run in runs:
        cell = (grid_b.index(run.batch_size_tokens), grid_lr.index(run.lr_scale))
        if cell in seen:
            raise ValidationError(
                f"duplicate sweep cell B={run.batch_size_tokens:.3g}, "
                f"scale={run.lr_scale:.3g}"
            )
        seen.add(cell)
        value = _loss_at_checkpoint(runset, run, d_checkpoint)
        if math.isnan(value):
            warnings.warn(f"run {run.run_id} missing at checkpoint; cell left empty")
        losses[cell[0] * len(grid_lr) + cell[1]] = value
    return LossSurface(
        d_checkpoint=d_checkpoint,
        grid_B=memoryview(array("d", grid_b)),
        grid_LR=memoryview(array("d", grid_lr)),
        losses=memoryview(losses).cast("B").cast("d", (len(grid_b), len(grid_lr))),
        base_lr=base_lr,
    )


def extract_lr_opt(surface: LossSurface, refinement: int = DEFAULT_REFINEMENT) -> list[LrSample]:
    """LR_opt(B) samples: per-batch argmin over LR with quadratic refinement.

    The batch axis is refined `refinement`-fold between grid rows; at each
    refined B the discrete minimum over LR grid nodes is polished by fitting
    a parabola in log LR through its neighbors.  Minima on the edge of the
    observed LR span are flagged boundary (the true optimum may lie outside
    the sweep).  A sample at a swept batch reads that batch's row and
    reports the batch as swept.
    """
    _check_refinement(refinement)
    grid_b, grid_lr, _ = surface.buffers
    log_b = [math.log(b) for b in grid_b]
    log_lr = [math.log(v) for v in grid_lr]
    # each swept batch, then the refinement - 1 batches that numpy's
    # linspace puts between it and the next one in log B
    batches = []
    for i, b in enumerate(grid_b):
        batches.append(b)
        if i + 1 < len(grid_b):
            interior = linspace(log_b[i], log_b[i + 1], refinement + 1)[1:-1]
            batches.extend(math.exp(value) for value in interior)
    samples = []
    for b in batches:
        column = surface.column_at(b)
        # work within the longest consecutive stretch of observed cells
        segment = longest_stretch([j for j, value in enumerate(column) if math.isfinite(value)])
        if len(segment) < 2:
            continue
        vals = [column[j] for j in segment]
        k = min(range(len(vals)), key=vals.__getitem__)
        j = segment[k]
        if k == 0 or k == len(segment) - 1:
            samples.append(
                LrSample(
                    B=b,
                    lr_opt=float(surface.base_lr * grid_lr[j]),
                    loss_at_opt=vals[k],
                    boundary=True,
                )
            )
            continue
        try:
            log_opt, loss_opt = parabola_vertex(log_lr[j - 1 : j + 2], column[j - 1 : j + 2])
        except NoMinimumError:
            log_opt, loss_opt = log_lr[j], column[j]
        samples.append(
            LrSample(
                B=b,
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
    gamma is the log-log slope over the remaining prefix, and the ceiling
    the plateau's mean LR_opt.

    Raises:
        InsufficientDataError: fewer than 4 non-boundary samples.
        GammaUndefinedError: everything is plateau; carries the ceiling.
    """
    check_positive("plateau_tolerance", plateau_tolerance)
    usable = sorted(
        (s for s in samples if not s.boundary), key=lambda s: s.B
    )
    if len(usable) < 4:
        raise InsufficientDataError(
            f"need at least 4 non-boundary samples, got {len(usable)}"
        )
    lrs = [s.lr_opt for s in usable]
    bs = [s.B for s in usable]

    plateau_start = None
    for j in range(len(usable) - 1):
        tail = lrs[j:]
        if bs[-1] / bs[j] < PLATEAU_MIN_SPAN:
            break
        if max(tail) / min(tail) - 1.0 < plateau_tolerance:
            plateau_start = j
            break

    if plateau_start is None:
        n_fit = len(usable)
        lr_ceiling = None
        onset = None
    else:
        n_fit = plateau_start
        lr_ceiling = math.fsum(lrs[plateau_start:]) / (len(lrs) - plateau_start)
        onset = bs[plateau_start]
        if plateau_start < 2:
            raise GammaUndefinedError(
                "all batch sizes sit in the LR plateau", lr_ceiling=lr_ceiling
            )
    return LrLawFit(
        gamma=fit_power_law(bs[:n_fit], lrs[:n_fit]).p,
        lr_ceiling=lr_ceiling,
        plateau_onset_B=onset,
        n_fit=n_fit,
    )
