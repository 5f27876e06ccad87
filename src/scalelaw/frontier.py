"""Compute-efficient frontier: envelope of loss-vs-FLOPs curves across model
sizes, per-model optimal-compute points, and the power laws tying loss,
parameters, tokens, steps, and batch size to compute.

The N and S laws are regressed freely; D and B are derived from them so the
identities C = 6*N*D and D = S*B hold exactly in the reported law set.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from typing import Sequence

from ._gauss import solve
from ._record import Record
from .errors import (
    EmptyEnvelopeError,
    InsufficientDataError,
    InsufficientFrontierError,
    NoMinimumError,
    ValidationError,
)
from .laws import FLOPS_PER_PARAM_TOKEN, FrontierPoint, FrontierReport, PowerLaw
from .runlog import RunSet, finite_prefix

GRID_POINTS_PER_DECADE = 64
# heavier smoothing than the per-run default: envelope winners are decided
# by shallow crossings between adjacent model sizes, where raw checkpoint
# noise flips the winner back and forth
ENVELOPE_HALF_LIFE_FRACTION = 0.05


class EnvelopeSample(Record, frozen=True):
    """One grid point of the frontier envelope."""

    C: float
    loss: float
    run_id: str


def _run_curve(runset: RunSet, run, smooth: bool = False) -> tuple[float, Sequence, Sequence]:
    """(scale, tokens, loss) of a run's points before its first non-finite
    loss (runlog.finite_prefix), where scale * tokens is the compute,
    optionally smoothed by the set (RunSet.smoothed).

    A curve of fewer than 2 such points gives empty buffers.
    """
    try:
        curve = (
            runset.smoothed(run.run_id, ENVELOPE_HALF_LIFE_FRACTION)
            if smooth else finite_prefix(run.points)
        )
    except InsufficientDataError:
        return 0.0, (), ()
    _, tokens, loss = curve.columns
    if len(loss) < 2:
        return 0.0, (), ()
    return FLOPS_PER_PARAM_TOKEN * run.model.n_params, tokens, loss


def linspace(lo: float, hi: float, n: int) -> list[float]:
    """np.linspace(lo, hi, n) of two floats, bit for bit, as Python floats.

    numpy adds lo to i * step, or to i / (n - 1) * (hi - lo) when the step
    underflows to zero, and sets the last value to hi.
    """
    if n == 1:
        return [0.0 * (hi - lo) + lo]
    step = (hi - lo) / (n - 1)
    if step == 0:
        values = [i / (n - 1) * (hi - lo) + lo for i in range(n)]
    else:
        values = [i * step + lo for i in range(n)]
    values[-1] = hi
    return values


def interp_in_range(
    cs: Sequence[float], scale: float, tokens: Sequence, loss: Sequence
) -> list[float]:
    """The loss at each compute c in cs of a curve whose compute is
    scale * tokens, piecewise linear in (log C, loss); NaN outside the
    curve's compute range.

    Each c's bracketing checkpoints are found by bisecting the tokens, and
    only they are taken the log of.
    """
    values = [math.nan] * len(cs)
    if not len(tokens):
        return values
    c_first, c_last = scale * tokens[0], scale * tokens[-1]
    key, log = scale.__mul__, math.log
    for i, c in enumerate(cs):
        if c_first <= c <= c_last:
            j = bisect_right(tokens, c, key=key) - 1
            log_c, log_lo = log(c), log(scale * tokens[j])
            if log_c == log_lo:  # at a checkpoint, the last one included
                values[i] = loss[j]
            else:
                slope = (loss[j + 1] - loss[j]) / (log(scale * tokens[j + 1]) - log_lo)
                values[i] = slope * (log_c - log_lo) + loss[j]
    return values


def default_grid(runset: RunSet) -> list[float]:
    """Log-spaced compute grid covering the union of the runs' C ranges.

    A run's range spans its raw points before its first non-finite loss
    (runlog.finite_prefix).  The grid is numpy's geomspace of the union,
    computed in Python floats.
    """
    c_lo = math.inf
    c_hi = 0.0
    for run in runset:
        tokens = finite_prefix(run.points).columns[1]
        if len(tokens) >= 2:
            scale = FLOPS_PER_PARAM_TOKEN * run.model.n_params
            c_lo = min(c_lo, scale * tokens[0])
            c_hi = max(c_hi, scale * tokens[-1])
    if not c_hi > 0 or not math.isfinite(c_lo):
        raise InsufficientDataError("no run has two finite curve points")
    n = max(2, int(math.ceil(math.log10(c_hi / c_lo) * GRID_POINTS_PER_DECADE)) + 1)
    interior = linspace(math.log10(c_lo), math.log10(c_hi), n)[1:-1]
    return [c_lo, *(10.0**exponent for exponent in interior), c_hi]


def compute_envelope(
    runset: RunSet, grid: Sequence[float] | None = None, smooth: bool = True
) -> list[EnvelopeSample]:
    """Pointwise minimum of all per-run loss curves on a log-C grid.

    Each run's curve is smoothed (unless smooth=False) and interpolated in
    (log C, loss); grid points covered by no run are omitted.  Ties go to
    the run appearing first in the set.  The smoothed curves are the set's
    (RunSet.smoothed), kept for extract_frontier_points on the same set.
    """
    if len(runset) == 0:
        raise InsufficientDataError("empty run set")
    grid = default_grid(runset) if grid is None else [float(c) for c in grid]
    if any(c <= 0 for c in grid):
        raise ValidationError("grid values must be positive")
    best = [math.inf] * len(grid)
    winner: list[str | None] = [None] * len(grid)
    for run in runset:
        for i, value in enumerate(interp_in_range(grid, *_run_curve(runset, run, smooth))):
            if value < best[i]:  # NaN never wins
                best[i], winner[i] = value, run.run_id
    samples = [
        EnvelopeSample(C=c, loss=loss, run_id=run_id)
        for c, loss, run_id in zip(grid, best, winner)
        if run_id is not None
    ]
    if not samples:
        raise EmptyEnvelopeError("no run covers any grid point")
    return samples


def longest_stretch(indices: Sequence[int]) -> list[int]:
    """The longest stretch of consecutive indices; the first on ties."""
    best: list[int] = []
    start = 0
    for end in range(1, len(indices) + 1):
        if end == len(indices) or indices[end] != indices[end - 1] + 1:
            if end - start > len(best):
                best = list(indices[start:end])
            start = end
    return best


def extract_frontier_points(
    envelope: Sequence[EnvelopeSample], runset: RunSet, smooth: bool = True
) -> list[FrontierPoint]:
    """One compute-optimal point per model size that wins somewhere.

    A model's C* is the geometric mean of its winning interval's endpoints;
    loss is read from the model's own curve (pointwise min across its runs,
    smoothed the same way as the envelope) at C*, and B from the run
    achieving that minimum.  Models that never win are skipped with a
    warning.
    """
    if not envelope:
        raise EmptyEnvelopeError("empty envelope")
    curves = {run.run_id: _run_curve(runset, run, smooth) for run in runset}
    model_of_run = {run.run_id: run.model.n_params for run in runset}
    win_model = [model_of_run[s.run_id] for s in envelope]
    model_runs: dict[float, list] = {}
    for run in runset:
        model_runs.setdefault(run.model.n_params, []).append(run)

    def covered(n_params: float, i: int) -> bool:
        # whether the model has data at grid point i, to tell competitive
        # losses from absent data
        c = [envelope[i].C]
        return any(
            not math.isnan(interp_in_range(c, *curves[run.run_id])[0])
            for run in model_runs[n_params]
        )

    points = []
    for n_params in model_runs:
        indices = [i for i, m in enumerate(win_model) if m == n_params]
        if not indices:
            warnings.warn(
                f"model {n_params:.3g} never wins the envelope; excluded from the frontier"
            )
            continue
        interval = longest_stretch(indices)
        if len(interval) < len(indices):
            warnings.warn(
                f"model {n_params:.3g} wins a fragmented set; using the longest interval"
            )
        i_lo, i_hi = interval[0], interval[-1]
        c_star = math.sqrt(envelope[i_lo].C * envelope[i_hi].C)
        clipped_low = i_lo == 0 or not covered(n_params, i_lo - 1)
        clipped_high = i_hi == len(envelope) - 1 or not covered(n_params, i_hi + 1)

        # model curve readout at C*: min across this model's runs
        best_loss = math.inf
        best_run = None
        for run in model_runs[n_params]:
            val = interp_in_range([c_star], *curves[run.run_id])[0]
            if not math.isnan(val) and val < best_loss:
                best_loss = val
                best_run = run
        if best_run is None:
            warnings.warn(f"model {n_params:.3g}: no run covers C* = {c_star:.3g}; skipped")
            continue
        d_star = c_star / (FLOPS_PER_PARAM_TOKEN * n_params)
        b = best_run.batch_size_tokens
        points.append(
            FrontierPoint(
                C=c_star,
                loss=best_loss,
                N=n_params,
                D=d_star,
                S=d_star / b,
                B=b,
                edge_clipped=clipped_low or clipped_high,
            )
        )
    return points


def fit_power_law(x, y) -> PowerLaw:
    """Least-squares power law through (x, y): log y regressed on log x.

    The line is fitted in closed form on log x and log y centred at their
    means, in Python floats, so it needs at least 2 distinct x.
    """
    xs = [float(v) for v in x]
    ys = [float(v) for v in y]
    if len(xs) != len(ys) or len(xs) < 2:
        raise InsufficientDataError("need at least 2 (x, y) points")
    if not all(0 < v < math.inf for v in xs + ys):
        raise ValidationError("power-law fits need positive finite values")
    log_x = [math.log(v) for v in xs]
    log_y = [math.log(v) for v in ys]
    distinct = len(set(log_x))
    if distinct < 2:
        raise InsufficientDataError(f"need at least 2 distinct x values, got {distinct}")
    mean_x = math.fsum(log_x) / len(log_x)
    mean_y = math.fsum(log_y) / len(log_y)
    u = [v - mean_x for v in log_x]
    slope = math.fsum(a * (b - mean_y) for a, b in zip(u, log_y)) / math.fsum(a * a for a in u)
    try:
        k = math.exp(mean_y - slope * mean_x)
    except OverflowError:  # numpy's inf, which PowerLaw refuses with a ValidationError
        k = math.inf
    return PowerLaw(
        k=k,
        p=slope,
        x_min=min(xs),
        x_max=max(xs),
    )


def parabola_vertex(x, y) -> tuple[float, float]:
    """(x, y) at the minimum of the least-squares parabola through (x, y);
    NoMinimumError when the parabola is flat or concave.

    The 3x3 normal equations of the quadratic in x centred at its mean are
    solved in floats, so the fit needs at least 3 distinct x.
    """
    xs = [float(v) for v in x]
    ys = [float(v) for v in y]
    if len(xs) != len(ys) or len(xs) < 3:
        raise InsufficientDataError("need at least 3 (x, y) points")
    distinct = len(set(xs))
    if distinct < 3:
        raise InsufficientDataError(f"need at least 3 distinct x values, got {distinct}")
    mean = math.fsum(xs) / len(xs)
    u = [v - mean for v in xs]
    u2 = [v * v for v in u]
    s1, s2 = math.fsum(u), math.fsum(u2)
    s3 = math.fsum(a * b for a, b in zip(u, u2))
    s4 = math.fsum(v * v for v in u2)
    moments = [math.fsum(ys)] + [math.fsum(a * b for a, b in zip(w, ys)) for w in (u, u2)]
    c0, c1, c2 = solve([[len(xs), s1, s2], [s1, s2, s3], [s2, s3, s4]], moments)
    if not c2 > 0:
        raise NoMinimumError(f"no interior minimum (curvature {c2:.3g})")
    uv = -c1 / (2.0 * c2)
    return mean + uv, c0 + c1 * uv + c2 * uv * uv


def frontier_laws(
    points: Sequence[FrontierPoint], excluded: Sequence[float] = ()
) -> FrontierReport:
    """Regress the five power laws of compute from frontier points.

    N_opt and S_opt are fitted; D_opt = C/(6*N_opt) and B_opt = D_opt/S_opt
    are derived so the compute and step identities hold exactly.  The
    consistency residuals record the worst relative gap between each
    derived law and the extracted point values.  Edge-clipped points are
    excluded when at least 3 clean points remain.
    """
    pts = list(points)
    if len(pts) < 3:
        raise InsufficientFrontierError(f"need at least 3 frontier points, got {len(pts)}")
    clean = [pt for pt in pts if not pt.edge_clipped]
    usable = clean if len(clean) >= 3 else pts

    c = [pt.C for pt in usable]
    l_opt = fit_power_law(c, [pt.loss for pt in usable])
    n_opt = fit_power_law(c, [pt.N for pt in usable])
    s_opt = fit_power_law(c, [pt.S for pt in usable])

    d_opt = PowerLaw(
        k=1.0 / (FLOPS_PER_PARAM_TOKEN * n_opt.k),
        p=1.0 - n_opt.p,
        x_min=n_opt.x_min,
        x_max=n_opt.x_max,
    )
    b_k = d_opt.k / s_opt.k
    b_p = d_opt.p - s_opt.p
    # the batch law is only meaningful above the smallest batch the data
    # actually contains; push x_min up to where it crosses that floor.
    # the crossing amplifies coefficient noise by exp(1/p), so a law this
    # close to flat (single-batch sweeps) keeps the data range instead
    b_x_min = d_opt.x_min
    b_floor = min(pt.B for pt in usable)
    if b_p > 0.01:
        crossing = (b_floor / b_k) ** (1.0 / b_p)
        b_x_min = max(b_x_min, min(crossing, d_opt.x_max))
    b_opt = PowerLaw(k=b_k, p=b_p, x_min=b_x_min, x_max=d_opt.x_max)

    # a free fit of a derived quantity equals the derived law exactly
    # (least squares is linear in log space), so residuals compare the
    # derived laws against the extracted point values instead
    residuals = {
        "D_opt": max(abs(d_opt(pt.C) / pt.D - 1.0) for pt in usable),
        "B_opt": max(abs(b_opt(pt.C) / pt.B - 1.0) for pt in usable),
    }
    return FrontierReport(
        points=tuple(pts),
        L_opt=l_opt,
        N_opt=n_opt,
        D_opt=d_opt,
        S_opt=s_opt,
        B_opt=b_opt,
        consistency_residuals=residuals,
        excluded=tuple(excluded),
    )


def frontier_report(
    runset: RunSet, grid: Sequence[float] | None = None, smooth: bool = True
) -> FrontierReport:
    """Full pipeline: envelope, per-model points, fitted laws.

    Both stages read each run's smoothed curve from ``runset.smoothed``,
    so each run is smoothed once for the life of the set.
    """
    envelope = compute_envelope(runset, grid, smooth)
    points = extract_frontier_points(envelope, runset, smooth)
    present = {pt.N for pt in points}
    excluded = [m for m in runset.model_sizes() if m not in present]
    return frontier_laws(points, excluded=excluded)
