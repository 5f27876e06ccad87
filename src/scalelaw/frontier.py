"""Compute-efficient frontier: envelope of loss-vs-FLOPs curves across model
sizes, per-model optimal-compute points, and the power laws tying loss,
parameters, tokens, steps, and batch size to compute.

The N and S laws are regressed freely; D and B are derived from them so the
identities C = 6*N*D and D = S*B hold exactly in the reported law set.
"""

from __future__ import annotations

import math
import warnings
from typing import Sequence

from ._gauss import solve
from ._lazy import np
from ._record import Record
from .errors import (
    EmptyEnvelopeError,
    InsufficientDataError,
    InsufficientFrontierError,
    NoMinimumError,
    ValidationError,
)
from .laws import FLOPS_PER_PARAM_TOKEN, FrontierPoint, FrontierReport, PowerLaw
from .runlog import RunSet, smooth_run

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


def _run_curve_log(run, smooth: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(log C, loss) arrays of a run's finite points, optionally smoothed."""
    if smooth:
        try:
            run = smooth_run(run, half_life_fraction=ENVELOPE_HALF_LIFE_FRACTION)
        except InsufficientDataError:
            return np.empty(0), np.empty(0)
    curve = run.points
    finite = np.isfinite(curve.loss)
    if np.count_nonzero(finite) < 2:
        return np.empty(0), np.empty(0)
    log_c = np.log(FLOPS_PER_PARAM_TOKEN * run.model.n_params * curve.tokens[finite])
    return log_c, curve.loss[finite]


def _run_curves(runset: RunSet, smooth: bool) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Every run's (log C, loss) arrays, keyed by run id; one smoothing per run."""
    return {run.run_id: _run_curve_log(run, smooth) for run in runset}


def interp_in_range(x: np.ndarray, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """Piecewise-linear fp(xp) at each x; NaN outside [xp[0], xp[-1]]."""
    if xp.size == 0:
        return np.full(x.shape, np.nan)
    vals = np.interp(x, xp, fp)
    vals[(x < xp[0]) | (x > xp[-1])] = np.nan
    return vals


def default_grid(runset: RunSet) -> np.ndarray:
    """Log-spaced compute grid covering the union of the runs' C ranges."""
    c_lo = math.inf
    c_hi = 0.0
    for run in runset:
        log_c, _ = _run_curve_log(run)
        if log_c.size:
            c_lo = min(c_lo, math.exp(log_c[0]))
            c_hi = max(c_hi, math.exp(log_c[-1]))
    if not c_hi > 0 or not math.isfinite(c_lo):
        raise InsufficientDataError("no run has two finite curve points")
    n = max(2, int(math.ceil(math.log10(c_hi / c_lo) * GRID_POINTS_PER_DECADE)) + 1)
    return np.geomspace(c_lo, c_hi, n)


def _envelope(
    runset: RunSet,
    grid: Sequence[float] | None,
    curves: dict[str, tuple[np.ndarray, np.ndarray]],
) -> list[EnvelopeSample]:
    """compute_envelope on the runs' precomputed curves."""
    if len(runset) == 0:
        raise InsufficientDataError("empty run set")
    grid_arr = np.asarray(grid, dtype=float) if grid is not None else default_grid(runset)
    if np.any(grid_arr <= 0):
        raise ValidationError("grid values must be positive")
    log_grid = np.log(grid_arr)
    best = np.full(grid_arr.shape, np.inf)
    winner = np.full(grid_arr.shape, -1, dtype=int)
    run_ids = []
    for idx, run in enumerate(runset):
        run_ids.append(run.run_id)
        vals = interp_in_range(log_grid, *curves[run.run_id])
        better = vals < best  # NaN never wins
        best[better] = vals[better]
        winner[better] = idx
    covered = winner >= 0
    if not covered.any():
        raise EmptyEnvelopeError("no run covers any grid point")
    return [
        EnvelopeSample(C=float(grid_arr[i]), loss=float(best[i]), run_id=run_ids[winner[i]])
        for i in np.nonzero(covered)[0]
    ]


def compute_envelope(
    runset: RunSet, grid: Sequence[float] | None = None, smooth: bool = True
) -> list[EnvelopeSample]:
    """Pointwise minimum of all per-run loss curves on a log-C grid.

    Each run's curve is smoothed (unless smooth=False) and interpolated in
    (log C, loss); grid points covered by no run are omitted.  Ties go to
    the run appearing first in the set.
    """
    return _envelope(runset, grid, _run_curves(runset, smooth))


def longest_stretch(indices) -> list[int]:
    """The longest stretch of consecutive indices as Python ints; the first on ties."""
    stretches = np.split(indices, np.flatnonzero(np.diff(indices) > 1) + 1)
    return max(stretches, key=len).tolist()


def _frontier_points(
    envelope: Sequence[EnvelopeSample],
    runset: RunSet,
    curves: dict[str, tuple[np.ndarray, np.ndarray]],
) -> list[FrontierPoint]:
    """extract_frontier_points on a non-empty envelope and precomputed curves."""
    model_of_run = {run.run_id: run.model.n_params for run in runset}
    win_model = [model_of_run[s.run_id] for s in envelope]

    # per-model grid coverage, to tell competitive losses from absent data
    log_grid = np.log([s.C for s in envelope])
    coverage: dict[float, np.ndarray] = {}
    model_runs: dict[float, list] = {}
    for run in runset:
        model_runs.setdefault(run.model.n_params, []).append(run)
    for n_params, runs in model_runs.items():
        cov = np.zeros(log_grid.shape, dtype=bool)
        for run in runs:
            cov |= ~np.isnan(interp_in_range(log_grid, *curves[run.run_id]))
        coverage[n_params] = cov

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

        cov = coverage[n_params]
        clipped_low = i_lo == 0 or not cov[i_lo - 1]
        clipped_high = i_hi == len(envelope) - 1 or not cov[i_hi + 1]

        # model curve readout at C*: min across this model's runs
        best_loss = math.inf
        best_run = None
        for run in model_runs[n_params]:
            val = interp_in_range(np.asarray([math.log(c_star)]), *curves[run.run_id])[0]
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
    return _frontier_points(envelope, runset, _run_curves(runset, smooth))


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

    c = np.array([pt.C for pt in usable])
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
        "D_opt": float(np.max(np.abs(d_opt(c) / np.array([pt.D for pt in usable]) - 1.0))),
        "B_opt": float(np.max(np.abs(b_opt(c) / np.array([pt.B for pt in usable]) - 1.0))),
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

    Each run is smoothed once and its curve shared by both stages.
    """
    curves = _run_curves(runset, smooth)
    envelope = _envelope(runset, grid, curves)
    points = _frontier_points(envelope, runset, curves)
    present = {pt.N for pt in points}
    excluded = [m for m in runset.model_sizes() if m not in present]
    return frontier_laws(points, excluded=excluded)
