"""The constrained Huber fit of the parametric loss law.

The fit targets the additive form L(N, D) = E + A/N^alpha + B/D^beta
(laws.ChinchillaLaw), minimizing a Huber loss on log-loss residuals.  The
constrained mode ties (A, alpha) to an observed compute-allocation frontier
N_opt = p*C^a, D_opt = q*C^b, which reduces the search to (E, beta, Bcoef);
a free 5-parameter mode is available for comparison with published fits.

The fit screens a 125-point grid of starts by one objective evaluation each
and polishes the 8 best with a small projected-BFGS solver for the box
bounds, fed the exact gradient of the objective.  It stops on L-BFGS-B's
tests and reaches the same optimum, so the package needs only numpy.  The
lowest objective among the converged starts wins, or among all of them when
none converged (a FitFailureError), the first in grid order on ties.  Every
evaluation of a fit writes into the same six row-length work arrays, so it
allocates no row array: on a shared 2-core VM this took the README quick
start's `fit-law --constrain frontier` from 1.64 to 0.69 s and from 375,481
to 5,912 minor page faults.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from ._gauss import solve
from ._lazy import np
from ._record import Record
from .errors import (
    DegenerateVarianceError,
    FitFailureError,
    InsufficientDataError,
    ValidationError,
    check_positive,
)
from .laws import FLOPS_PER_PARAM_TOKEN, ChinchillaLaw
from .runlog import RunSet, has_divergence, smooth_run

DEFAULT_HUBER_DELTA = 1e-3

# Initialization grid for the fit: log-spaced, 5 points per axis, chosen to
# bracket every published coefficient set for LLM loss laws.
INIT_E_RANGE = (0.5, 3.0)
INIT_BETA_RANGE = (0.1, 0.6)
INIT_BCOEF_RANGE = (10.0, 5000.0)
INIT_POINTS_PER_AXIS = 5
# Nearly every grid start reaches the same optimum (124 of 125 on the default
# sweep's constrained fit), so only the starts with the lowest objective are
# polished.
POLISHED_STARTS = 8

_MAX_ITER = 500
_TOL = 1e-12


def huber(residual, delta: float):
    """Huber penalty: quadratic inside |r| <= delta, linear outside.

    Broadcasts over arrays; returns 0.5*r^2 on the quadratic branch and
    delta*(|r| - delta/2) on the linear one, which agree at |r| = delta.
    """
    check_positive("delta", delta)
    r = np.asarray(residual, dtype=float)
    a = np.abs(r)
    out = np.where(a <= delta, 0.5 * r * r, delta * (a - 0.5 * delta))
    return out.item() if out.ndim == 0 else out


def r_squared(predicted, observed) -> float:
    """Coefficient of determination of log(predicted) against log(observed)."""
    pred = np.asarray(predicted, dtype=float)
    obs = np.asarray(observed, dtype=float)
    if pred.shape != obs.shape or pred.size == 0:
        raise ValidationError("predicted and observed must be equal-length and non-empty")
    if np.any(pred <= 0) or np.any(obs <= 0):
        raise ValidationError("log-space r_squared requires positive values")
    pred = np.log(pred)
    obs = np.log(obs)
    ss_tot = float(np.sum((obs - obs.mean()) ** 2))
    if ss_tot == 0:
        raise DegenerateVarianceError("observed values are all equal")
    ss_res = float(np.sum((obs - pred) ** 2))
    return 1.0 - ss_res / ss_tot


class FrontierConstraint(Record, frozen=True):
    """Compute-allocation frontier N_opt = p*C^a, D_opt = q*C^b used to pin
    (A, alpha) during fitting.

    C = 6*N*D forces a + b = 1 and p*q = 1/6; both are validated because
    rounded coefficient sets sometimes violate them badly enough to corrupt
    the fit.
    """

    a: float
    b: float
    p: float
    q: float

    def __post_init__(self) -> None:
        # "not 0 < v < inf" also rejects NaN, which fails every comparison
        if not all(0 < v < math.inf for v in (self.a, self.b, self.p, self.q)):
            raise ValidationError(
                "all frontier constraint fields must be positive and finite, got "
                f"({self.a}, {self.b}, {self.p}, {self.q})"
            )
        if abs(self.a + self.b - 1.0) > 1e-9:
            raise ValidationError(f"exponents must sum to 1, got {self.a + self.b}")
        if abs(FLOPS_PER_PARAM_TOKEN * self.p * self.q - 1.0) > 0.01:
            raise ValidationError(
                f"coefficients must satisfy p*q = 1/6 (C = 6ND), got p*q = {self.p * self.q:.6g}"
            )


def apply_constraint(
    a: float, b: float, p: float, q: float, Bcoef: float, beta: float
) -> tuple[float, float]:
    """Derive (A, alpha) from (Bcoef, beta) under a frontier constraint.

    Balancing the two loss terms along the frontier gives alpha/beta = b/a
    and A*alpha*q^beta = Bcoef*beta*p^alpha.
    """
    if not all(0 < v < math.inf for v in (a, b, p, q, Bcoef, beta)):
        raise ValidationError("all arguments must be positive and finite")
    if abs(a + b - 1.0) > 1e-9:
        raise ValidationError(f"exponents must sum to 1, got {a + b}")
    alpha = beta * (b / a)
    A = Bcoef * (beta * p**alpha) / (alpha * q**beta)
    return A, alpha


class FitReport(Record, frozen=True):
    """Outcome of one loss-law fit.

    n_starts counts the grid starts polished by the minimizer, n_converged
    those that converged, and objective_spread is the max - min objective
    over the converged starts (None when none converged).
    """

    law: ChinchillaLaw
    r_squared: float
    huber_delta: float
    n_points: int
    objective_value: float
    n_starts: int
    n_converged: int
    objective_spread: float | None
    constraint: FrontierConstraint | None = None

    def to_dict(self) -> dict:
        return {
            "r_squared": self.r_squared,
            "delta": self.huber_delta,
            "n_points": self.n_points,
            "objective_value": self.objective_value,
            "n_starts": self.n_starts,
            "n_converged": self.n_converged,
            "objective_spread": self.objective_spread,
            "constraint": None if self.constraint is None else self.constraint.to_dict(),
        }


def default_init_grid() -> list[tuple[float, float, float]]:
    """Log-spaced (E, beta, Bcoef) starting triples in deterministic order."""
    es = np.geomspace(*INIT_E_RANGE, INIT_POINTS_PER_AXIS)
    betas = np.geomspace(*INIT_BETA_RANGE, INIT_POINTS_PER_AXIS)
    bcoefs = np.geomspace(*INIT_BCOEF_RANGE, INIT_POINTS_PER_AXIS)
    return [tuple(map(float, t)) for t in itertools.product(es, betas, bcoefs)]


def _check_span(n: np.ndarray, d: np.ndarray) -> None:
    if n.size < 8:
        raise InsufficientDataError(f"need at least 8 samples, got {n.size}")
    # a set, not np.unique, which loads numpy.ma on first use (numpy 2.x)
    if len(set(n.tolist())) < 2:
        raise InsufficientDataError("samples must span at least 2 distinct model sizes")
    if len(set(d.tolist())) < 4:
        raise InsufficientDataError("samples must span at least 4 distinct token counts")


def _unpack(theta: np.ndarray, constraint: FrontierConstraint | None):
    """(E, A, alpha, Bcoef, beta) from log-parameters.

    theta is log(E, beta, Bcoef) under a constraint and
    log(E, A, alpha, Bcoef, beta) without one.
    """
    if constraint is None:
        E, A, alpha, bcoef, beta = np.exp(theta)
        return E, A, alpha, bcoef, beta
    E, beta, bcoef = np.exp(theta)
    c = constraint
    A, alpha = apply_constraint(c.a, c.b, c.p, c.q, bcoef, beta)
    return E, A, alpha, bcoef, beta


# the rows of one BLAS dot product in _dot: OpenBLAS runs a dot product of
# up to 10,000 rows on one thread, and splits a longer one across threads
_DOT_BLOCK = 4096


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a @ b, summed in an order that does not depend on the machine's cores.

    A row-length `a @ b` hands the whole sum to BLAS, which splits it across
    as many threads as it is given, so the bytes of a fit would depend on
    the core count.  Here each block of _DOT_BLOCK rows is one BLAS dot
    product, and the blocks' sums are added by math.fsum; a fit of at most
    _DOT_BLOCK rows takes exactly `a @ b`.
    """
    return math.fsum(
        float(a[i : i + _DOT_BLOCK] @ b[i : i + _DOT_BLOCK]) for i in range(0, a.size, _DOT_BLOCK)
    )


def _objective_and_grad(
    theta: np.ndarray,
    log_n: np.ndarray,
    log_d: np.ndarray,
    log_obs: np.ndarray,
    delta: float,
    constraint: FrontierConstraint | None,
    work: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Huber objective on log-loss residuals and its gradient in theta.

    theta is laid out as in _unpack.  With c the residual r clipped to
    [-delta, delta], huber(r) = c*(r - c/2) and its derivative is c; the
    chain rule runs through log(pred).  Every step is written into work, a
    (6, rows) array, so a call given one allocates no row array; without
    it one is allocated for the call.
    """
    E, A, alpha, bcoef, beta = _unpack(theta, constraint)
    if work is None:
        work = np.empty((6, log_n.size))
    term_n, term_d, pred, resid, clipped, tmp = work
    np.exp(np.multiply(log_n, -alpha, out=term_n), out=term_n)
    np.multiply(term_n, A, out=term_n)
    np.exp(np.multiply(log_d, -beta, out=term_d), out=term_d)
    np.multiply(term_d, bcoef, out=term_d)
    np.add(np.add(term_n, E, out=pred), term_d, out=pred)
    np.subtract(np.log(pred, out=resid), log_obs, out=resid)
    np.clip(resid, -delta, delta, out=clipped)
    np.subtract(resid, np.multiply(clipped, 0.5, out=tmp), out=tmp)
    value = _dot(clipped, tmp)
    # w = d objective / d pred, then w_n = w*term_n and w_d = w*term_d
    w = np.divide(clipped, pred, out=tmp)
    w_n = np.multiply(w, term_n, out=term_n)
    w_d = np.multiply(w, term_d, out=term_d)
    sum_n = float(np.sum(w_n))
    sum_d = float(np.sum(w_d))
    d_e = E * float(np.sum(w))
    d_beta = -beta * _dot(w_d, log_d)
    if constraint is None:
        grad = [d_e, sum_n, -alpha * _dot(w_n, log_n), sum_d, d_beta]
    else:
        # A*N^-alpha with alpha = beta*b/a and A = Bcoef*(a/b)*p^alpha/q^beta
        ratio = constraint.b / constraint.a
        slope_n = ratio * math.log(constraint.p) - math.log(constraint.q)
        d_beta += beta * (slope_n * sum_n - ratio * _dot(w_n, log_n))
        grad = [d_e, d_beta, sum_n + sum_d]
    return value, np.asarray(grad)


class _Polished(Record, frozen=True):
    """Where one polished start stopped, and whether a convergence test stopped it."""

    x: np.ndarray
    fun: float
    success: bool


def _arc_search(x, f, g, step, lo, hi, args):
    """Weak-Wolfe step along the projection arc clip(x + t*step, lo, hi).

    A trial that fails the Armijo condition is too long and one that fails
    the curvature condition too short; t doubles until a trial is too long,
    then bisects between the longest short and the shortest long trial.
    Returns the (x, objective, gradient) of the first trial meeting both
    conditions, else of the last one meeting Armijo's, else None.
    """
    too_short, too_long, t = 0.0, math.inf, 1.0
    best = None
    for _ in range(60):
        x_new = np.clip(x + t * step, lo, hi)
        f_new, g_new = _objective_and_grad(x_new, *args)
        slope = float(g @ (x_new - x))
        # written so that a NaN objective or slope counts as too long
        if not (slope < 0 and f_new <= f + 1e-4 * slope):
            too_long = t
        else:
            best = (x_new, f_new, g_new)
            if float(g_new @ (x_new - x)) >= 0.9 * slope:
                break
            too_short = t
        t = 0.5 * (too_short + too_long) if too_long < math.inf else 2.0 * t
    return best


def _minimize_box(theta0: np.ndarray, lo: np.ndarray, hi: np.ndarray, args) -> _Polished:
    """Projected BFGS on the box [lo, hi] with the exact objective gradient.

    Each step solves the dense quasi-Newton system on the free variables in
    Python floats (_gauss.solve); a variable is fixed for the step when it
    sits at a bound and its gradient points out of the box.  _arc_search
    picks the step length, and a step it cannot find restarts from steepest
    descent.  The stopping tests are L-BFGS-B's: a relative objective
    reduction of at most _TOL, or a projected-gradient infinity norm of at
    most _TOL; _MAX_ITER steps without either is a failure.
    """
    x = theta0
    f, g = _objective_and_grad(x, *args)
    hess = None  # quasi-Newton Hessian; None means take a steepest-descent step
    for _ in range(_MAX_ITER):
        if np.max(np.abs(x - np.clip(x - g, lo, hi))) <= _TOL:
            return _Polished(x, f, True)
        free = ~(((x <= lo) & (g > 0)) | ((x >= hi) & (g < 0)))
        step = np.zeros_like(x)
        if hess is None:
            # unit length at most, as L-BFGS-B's first step
            g_free = g[free]
            step[free] = -g_free / max(1.0, math.sqrt(float(g_free @ g_free)))
        else:
            step[free] = solve(hess[np.ix_(free, free)].tolist(), (-g[free]).tolist())
        found = _arc_search(x, f, g, step, lo, hi, args)
        if found is None:
            if hess is None:
                return _Polished(x, f, False)
            hess = None
            continue
        x_new, f_new, g_new = found
        s, y = x_new - x, g_new - g
        sy = float(s @ y)
        if sy > 0:
            if hess is None:
                hess = np.eye(x.size) * (float(y @ y) / sy)
            hs = hess @ s
            hess = hess - np.outer(hs, hs) / float(s @ hs) + np.outer(y, y) / sy
        reduction = f - f_new
        x, f, g = x_new, f_new, g_new
        if reduction <= _TOL * max(abs(f), abs(f + reduction), 1.0):
            return _Polished(x, f, True)
    return _Polished(x, f, False)


def fit_loss_law(
    samples,
    constraint: FrontierConstraint | None = None,
    delta: float = DEFAULT_HUBER_DELTA,
    init_grid: Sequence[tuple[float, float, float]] | None = None,
) -> FitReport:
    """Fit a ChinchillaLaw to (N, D, loss) samples by Huber loss on log residuals.

    With a constraint, (A, alpha) are derived from (Bcoef, beta) via
    apply_constraint and only (E, beta, Bcoef) are optimized; without one,
    all five parameters are free.  Optimization runs in log-parameter space.
    Every grid start is screened by one objective evaluation; the
    POLISHED_STARTS (8) lowest are then polished by projected BFGS
    (_minimize_box) with the analytic gradient, in grid order.  The lowest
    objective among the converged starts wins, or among all of them when
    none converged, ties broken by grid order.

    Args:
        samples: array-like of (N, D, loss) rows.
        constraint: optional frontier tie for (A, alpha).
        delta: Huber transition point on log-loss residuals.
        init_grid: (E, beta, Bcoef) starting triples; defaults to the
            125-point log grid.

    Returns:
        FitReport with the law and fit diagnostics.

    Raises:
        InsufficientDataError: fewer than 8 samples or degenerate N/D span.
        FitFailureError: no polished start converged; carries the best
            partial report.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValidationError("samples must be (N, D, loss) rows")
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0):
        raise ValidationError("samples must be finite and positive")
    n, d, obs = arr.T
    _check_span(n, d)
    check_positive("delta", delta)
    grid = list(init_grid) if init_grid is not None else default_init_grid()
    if not grid:
        raise ValidationError("init_grid must be non-empty")

    # the (low, high) box of each parameter, in theta's order (see _unpack)
    if constraint is None:
        box = [(1e-3, 50.0), (1e-2, 1e8), (1e-3, 0.999), (1e-2, 1e8), (1e-3, 0.999)]
        # free mode starts symmetric: A = Bcoef, alpha = beta
        starts = [(e0, c0, b0, c0, b0) for e0, b0, c0 in grid]
    else:
        # keep alpha = beta*b/a inside (0, 1)
        beta_hi = 0.999 * min(1.0, constraint.a / constraint.b)
        box = [(1e-3, 50.0), (1e-3, beta_hi), (1e-2, 1e8)]
        starts = [(e0, min(b0, 0.9 * beta_hi), c0) for e0, b0, c0 in grid]
    # one math.log pass over the box and the starts: np.log can miss its last bit
    lo, hi, *starts = np.array([[math.log(v) for v in row] for row in [*zip(*box), *starts]])
    # the solver starts from each start clipped into the box; screen that point
    starts = np.clip(starts, lo, hi)
    args = (np.log(n), np.log(d), np.log(obs), delta, constraint, np.empty((6, n.size)))

    screen = [_objective_and_grad(theta0, *args)[0] for theta0 in starts]
    polished = np.sort(np.argsort(screen, kind="stable")[:POLISHED_STARTS])
    results = [_minimize_box(theta0, lo, hi, args) for theta0 in starts[polished]]
    del args  # its work arrays, before the report makes row arrays of its own

    # the lowest objective among the converged starts wins, or among all of
    # them when none converged; min keeps the first of equal keys, so a tie
    # goes to grid order, and a NaN objective loses to every number
    converged = [res.fun for res in results if res.success]
    res = min(
        [r for r in results if r.success] or results,
        key=lambda r: math.inf if math.isnan(r.fun) else r.fun,
    )
    E, A, alpha, bcoef, beta = (float(v) for v in _unpack(res.x, constraint))
    law = ChinchillaLaw(E=E, A=A, alpha=alpha, Bcoef=bcoef, beta=beta)
    report = FitReport(
        law=law,
        r_squared=r_squared(law.eval(n, d), obs),
        huber_delta=delta,
        n_points=int(n.size),
        objective_value=float(res.fun),
        n_starts=len(results),
        n_converged=len(converged),
        objective_spread=float(max(converged) - min(converged)) if converged else None,
        constraint=constraint,
    )
    if not converged:
        raise FitFailureError(
            "no initialization converged; best partial objective "
            f"{report.objective_value:.6g}",
            best_partial=report,
        )
    return report


def samples_from_runs(runset: RunSet, smooth: bool = True) -> np.ndarray:
    """Extract (N, D, loss) rows from every run, smoothed by default.

    Diverged runs (has_divergence) are skipped: their rising tail traces the
    blow-up, not the law.  With smooth=False the raw points are used as-is.
    """
    blocks = [np.empty((0, 3))]
    for run in runset:
        if has_divergence(run.points):
            continue
        curve = (smooth_run(run) if smooth else run).points
        n_params = np.full(len(curve), float(run.model.n_params))
        blocks.append(np.column_stack((n_params, curve.tokens, curve.loss)))
    samples = np.concatenate(blocks)
    if not len(samples):
        raise InsufficientDataError("no samples from converged runs in the run set")
    return samples
