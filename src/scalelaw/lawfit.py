"""Parametric loss laws and the constrained Huber fit.

Two law families are supported: the additive Chinchilla form
L(N, D) = E + A/N^alpha + B/D^beta and the older Kaplan form
[(Nc/N)^(alpha_N/alpha_D) + Dc/D]^alpha_D.  Fitting targets the Chinchilla
form, minimizing a Huber loss on log-loss residuals.  The constrained mode
ties (A, alpha) to an observed compute-allocation frontier N_opt = p*C^a,
D_opt = q*C^b, which reduces the search to (E, beta, Bcoef); a free
5-parameter mode is available for comparison with published fits.

The fit screens a 125-point grid of starts by one objective evaluation each
and polishes the 8 best with L-BFGS-B, fed the exact gradient of the
objective.  scipy.optimize is imported only when a fit runs, so the rest of
the package starts without it.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import asdict, dataclass, fields
from typing import Sequence

from ._numpy import np
from .errors import (
    DegenerateVarianceError,
    FitFailureError,
    InfeasibleTargetError,
    InsufficientDataError,
    ValidationError,
)
from .runlog import RunSet, has_divergence, read_field, smooth_run

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


@dataclass(frozen=True)
class ChinchillaLaw:
    """Additive-form loss law L(N, D) = E + A/N^alpha + Bcoef/D^beta.

    E is the irreducible loss in nats; A and Bcoef scale the parameter- and
    data-limited terms.
    """

    E: float
    A: float
    alpha: float
    Bcoef: float
    beta: float

    def __post_init__(self) -> None:
        if self.E < 0:
            raise ValidationError(f"E must be non-negative, got {self.E}")
        if self.A <= 0 or self.Bcoef <= 0:
            raise ValidationError("A and Bcoef must be positive")
        if not (0 < self.alpha < 1 and 0 < self.beta < 1):
            raise ValidationError(
                f"alpha and beta must lie in (0, 1), got ({self.alpha}, {self.beta})"
            )

    def eval(self, n, d):
        """Loss at n parameters and d tokens; broadcasts over arrays."""
        if type(n) in (float, int) and type(d) in (float, int):
            with contextlib.suppress(OverflowError):  # numpy returns inf instead
                n, d = float(n), float(d)
                if n <= 0 or d <= 0:
                    raise ValidationError("n and d must be positive")
                return self.E + self.A * n ** (-self.alpha) + self.Bcoef * d ** (-self.beta)
        n_arr = np.asarray(n, dtype=float)
        d_arr = np.asarray(d, dtype=float)
        if np.any(n_arr <= 0) or np.any(d_arr <= 0):
            raise ValidationError("n and d must be positive")
        out = self.E + self.A * n_arr ** (-self.alpha) + self.Bcoef * d_arr ** (-self.beta)
        return out.item() if out.ndim == 0 else out

    def floor_at_n(self, n: float) -> float:
        """Loss floor for a fixed model size as data grows without bound."""
        return self.E + self.A * n ** (-self.alpha)

    def floor_at_d(self, d: float) -> float:
        """Loss floor for a fixed token budget as model size grows without bound."""
        return self.E + self.Bcoef * d ** (-self.beta)

    def n_for_loss(self, target_loss: float, d: float) -> float:
        """Smallest model size reaching target_loss at d tokens (closed form)."""
        if d <= 0:
            raise ValidationError("d must be positive")
        floor = self.floor_at_d(d)
        remainder = target_loss - floor
        if remainder <= 0:
            raise InfeasibleTargetError(
                f"target loss {target_loss} is at or below the floor {floor:.6g} "
                f"reachable with {d:.4g} tokens",
                floor=floor,
            )
        return (self.A / remainder) ** (1.0 / self.alpha)

    def d_for_loss(self, target_loss: float, n: float) -> float:
        """Token budget at which a model of size n reaches target_loss."""
        if n <= 0:
            raise ValidationError("n must be positive")
        floor = self.floor_at_n(n)
        remainder = target_loss - floor
        if remainder <= 0:
            raise InfeasibleTargetError(
                f"target loss {target_loss} is at or below the floor {floor:.6g} "
                f"reachable with {n:.4g} parameters",
                floor=floor,
            )
        return (self.Bcoef / remainder) ** (1.0 / self.beta)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, params: dict) -> "ChinchillaLaw":
        return cls(**{f.name: read_field(params, f.name, float) for f in fields(cls)})


# Published fit of the 125M-2.6B batch-size study: the reference artifact's
# loss law and the synthetic generator's planted truth.
REFERENCE_LOSS_LAW = ChinchillaLaw(E=1.48, A=314.35, alpha=0.331, Bcoef=460.51, beta=0.286)


@dataclass(frozen=True)
class KaplanLaw:
    """Power-form loss law [(Nc/N)^(alpha_N/alpha_D) + Dc/D]^alpha_D."""

    Nc: float
    Dc: float
    alpha_N: float
    alpha_D: float

    def __post_init__(self) -> None:
        if min(self.Nc, self.Dc, self.alpha_N, self.alpha_D) <= 0:
            raise ValidationError("all KaplanLaw fields must be positive")

    @classmethod
    def from_exponent_ratio(
        cls, Nc: float, ratio: float, Dc: float, alpha_D: float
    ) -> "KaplanLaw":
        """Build from the (Nc, alpha_N/alpha_D, Dc, alpha_D) quadruple."""
        return cls(Nc=Nc, Dc=Dc, alpha_N=ratio * alpha_D, alpha_D=alpha_D)

    def eval(self, n, d):
        """Loss at n parameters and d tokens; broadcasts over arrays."""
        n_arr = np.asarray(n, dtype=float)
        d_arr = np.asarray(d, dtype=float)
        if np.any(n_arr <= 0) or np.any(d_arr <= 0):
            raise ValidationError("n and d must be positive")
        inner = (self.Nc / n_arr) ** (self.alpha_N / self.alpha_D) + self.Dc / d_arr
        out = inner**self.alpha_D
        return out.item() if out.ndim == 0 else out

    def limit_at_n(self, n: float) -> float:
        """Infinite-data limit (Nc/n)^alpha_N."""
        return (self.Nc / n) ** self.alpha_N

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, params: dict) -> "KaplanLaw":
        return cls(**{f.name: read_field(params, f.name, float) for f in fields(cls)})


def _check_delta(delta: float) -> None:
    # NaN passes a plain "<= 0" test and would poison every objective
    if not 0 < delta < math.inf:
        raise ValidationError(f"delta must be positive and finite, got {delta!r}")


def huber(residual, delta: float):
    """Huber penalty: quadratic inside |r| <= delta, linear outside.

    Broadcasts over arrays; returns 0.5*r^2 on the quadratic branch and
    delta*(|r| - delta/2) on the linear one, which agree at |r| = delta.
    """
    _check_delta(delta)
    r = np.asarray(residual, dtype=float)
    a = np.abs(r)
    out = np.where(a <= delta, 0.5 * r * r, delta * (a - 0.5 * delta))
    return out.item() if out.ndim == 0 else out


def r_squared(predicted, observed, log_space: bool = True) -> float:
    """Coefficient of determination, by default on log values.

    Residuals and total variance are computed on log(predicted) and
    log(observed) unless log_space is False.
    """
    pred = np.asarray(predicted, dtype=float)
    obs = np.asarray(observed, dtype=float)
    if pred.shape != obs.shape or pred.size == 0:
        raise ValidationError("predicted and observed must be equal-length and non-empty")
    if log_space:
        if np.any(pred <= 0) or np.any(obs <= 0):
            raise ValidationError("log-space r_squared requires positive values")
        pred = np.log(pred)
        obs = np.log(obs)
    ss_tot = float(np.sum((obs - obs.mean()) ** 2))
    if ss_tot == 0:
        raise DegenerateVarianceError("observed values are all equal")
    ss_res = float(np.sum((obs - pred) ** 2))
    return 1.0 - ss_res / ss_tot


@dataclass(frozen=True)
class FrontierConstraint:
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
        if min(self.a, self.b, self.p, self.q) <= 0:
            raise ValidationError("all frontier constraint fields must be positive")
        if abs(self.a + self.b - 1.0) > 1e-9:
            raise ValidationError(f"exponents must sum to 1, got {self.a + self.b}")
        if abs(6.0 * self.p * self.q - 1.0) > 0.01:
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
    if min(a, b, p, q, Bcoef, beta) <= 0:
        raise ValidationError("all arguments must be positive")
    if abs(a + b - 1.0) > 1e-9:
        raise ValidationError(f"exponents must sum to 1, got {a + b}")
    alpha = beta * (b / a)
    A = Bcoef * (beta * p**alpha) / (alpha * q**beta)
    return A, alpha


@dataclass(frozen=True)
class FitReport:
    """Outcome of one loss-law fit.

    n_starts counts the grid starts polished by the minimizer, n_converged
    those that converged, and objective_spread is the max - min objective
    over the converged starts (None when none converged).
    """

    law: ChinchillaLaw
    r_squared: float
    huber_delta: float
    n_points: int
    init_grid_winner: tuple[float, float, float]
    objective_value: float
    n_starts: int
    n_converged: int
    objective_spread: float | None
    constraint: FrontierConstraint | None = None

    def to_dict(self) -> dict:
        fit = {
            "r_squared": self.r_squared,
            "delta": self.huber_delta,
            "n_points": self.n_points,
            "objective_value": self.objective_value,
            "init_grid_winner": list(self.init_grid_winner),
            "n_starts": self.n_starts,
            "n_converged": self.n_converged,
            "objective_spread": self.objective_spread,
            "constraint": None,
        }
        if self.constraint is not None:
            c = self.constraint
            fit["constraint"] = {"a": c.a, "b": c.b, "p": c.p, "q": c.q}
        return fit


def default_init_grid() -> list[tuple[float, float, float]]:
    """Log-spaced (E, beta, Bcoef) starting triples in deterministic order."""
    es = np.geomspace(*INIT_E_RANGE, INIT_POINTS_PER_AXIS)
    betas = np.geomspace(*INIT_BETA_RANGE, INIT_POINTS_PER_AXIS)
    bcoefs = np.geomspace(*INIT_BCOEF_RANGE, INIT_POINTS_PER_AXIS)
    return [tuple(map(float, t)) for t in itertools.product(es, betas, bcoefs)]


def _check_span(n: np.ndarray, d: np.ndarray) -> None:
    if n.size < 8:
        raise InsufficientDataError(f"need at least 8 samples, got {n.size}")
    if np.unique(n).size < 2:
        raise InsufficientDataError("samples must span at least 2 distinct model sizes")
    if np.unique(d).size < 4:
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


def _objective_and_grad(
    theta: np.ndarray,
    log_n: np.ndarray,
    log_d: np.ndarray,
    log_obs: np.ndarray,
    delta: float,
    constraint: FrontierConstraint | None,
) -> tuple[float, np.ndarray]:
    """Huber objective on log-loss residuals and its gradient in theta.

    theta is laid out as in _unpack.  With c the residual r clipped to
    [-delta, delta], huber(r) = c*(r - c/2) and its derivative is c; the
    chain rule runs through log(pred).
    """
    E, A, alpha, bcoef, beta = _unpack(theta, constraint)
    term_n = A * np.exp(-alpha * log_n)
    term_d = bcoef * np.exp(-beta * log_d)
    pred = E + term_n + term_d
    resid = np.log(pred) - log_obs
    clipped = np.clip(resid, -delta, delta)
    value = float(clipped @ (resid - 0.5 * clipped))
    # w = d objective / d pred
    w = clipped / pred
    w_n = w * term_n
    w_d = w * term_d
    sum_n = float(np.sum(w_n))
    sum_d = float(np.sum(w_d))
    d_e = E * float(np.sum(w))
    d_beta = -beta * float(w_d @ log_d)
    if constraint is None:
        grad = [d_e, sum_n, -alpha * float(w_n @ log_n), sum_d, d_beta]
    else:
        # A*N^-alpha with alpha = beta*b/a and A = Bcoef*(a/b)*p^alpha/q^beta
        ratio = constraint.b / constraint.a
        slope_n = ratio * math.log(constraint.p) - math.log(constraint.q)
        d_beta += beta * (slope_n * sum_n - ratio * float(w_n @ log_n))
        grad = [d_e, d_beta, sum_n + sum_d]
    return value, np.asarray(grad)


def _polish(starts, bounds, args):
    """Run L-BFGS-B with the exact gradient from each start; keep every result."""
    from scipy.optimize import minimize

    return [
        minimize(
            _objective_and_grad,
            theta0,
            args=args,
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options={"maxiter": _MAX_ITER, "ftol": _TOL, "gtol": _TOL},
        )
        for theta0 in starts
    ]


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
    POLISHED_STARTS (8) lowest are then polished by L-BFGS-B with the
    analytic gradient, in grid order.  The converged start with the lowest
    objective wins, ties broken by grid order.

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
    _check_delta(delta)
    grid = list(init_grid) if init_grid is not None else default_init_grid()
    if not grid:
        raise ValidationError("init_grid must be non-empty")

    if constraint is not None:
        # keep alpha = beta*b/a inside (0, 1)
        beta_hi = 0.999 * min(1.0, constraint.a / constraint.b)
        bounds = [
            (math.log(1e-3), math.log(50.0)),
            (math.log(1e-3), math.log(beta_hi)),
            (math.log(1e-2), math.log(1e8)),
        ]
        starts = [
            (math.log(e0), math.log(min(b0, 0.9 * beta_hi)), math.log(c0))
            for e0, b0, c0 in grid
        ]
    else:
        bounds = [
            (math.log(1e-3), math.log(50.0)),
            (math.log(1e-2), math.log(1e8)),
            (math.log(1e-3), math.log(0.999)),
            (math.log(1e-2), math.log(1e8)),
            (math.log(1e-3), math.log(0.999)),
        ]
        # free mode starts symmetric: A = Bcoef, alpha = beta
        starts = [
            (math.log(e0), math.log(c0), math.log(b0), math.log(c0), math.log(b0))
            for e0, b0, c0 in grid
        ]
    # L-BFGS-B clips each start into the bounds; screen the point it starts from
    starts = np.clip(np.asarray(starts), *np.asarray(bounds).T)
    args = (np.log(n), np.log(d), np.log(obs), delta, constraint)

    screen = [_objective_and_grad(theta0, *args)[0] for theta0 in starts]
    polished = np.sort(np.argsort(screen, kind="stable")[:POLISHED_STARTS])
    results = _polish(starts[polished], bounds, args)

    # results are in grid order, so the strict < sends ties to the lowest index
    converged = [res.fun for res in results if res.success]
    best_idx = None
    best_obj = math.inf
    for i, res in enumerate(results):
        if res.success and res.fun < best_obj:
            best_idx = i
            best_obj = res.fun
    failed = best_idx is None
    if failed:
        for i, res in enumerate(results):
            if res.fun < best_obj:
                best_idx = i
                best_obj = res.fun

    res = results[best_idx]
    E, A, alpha, bcoef, beta = (float(v) for v in _unpack(res.x, constraint))
    law = ChinchillaLaw(E=E, A=A, alpha=alpha, Bcoef=bcoef, beta=beta)
    report = FitReport(
        law=law,
        r_squared=r_squared(law.eval(n, d), obs),
        huber_delta=delta,
        n_points=int(n.size),
        init_grid_winner=grid[polished[best_idx]],
        objective_value=float(res.fun),
        n_starts=len(results),
        n_converged=len(converged),
        objective_spread=float(max(converged) - min(converged)) if converged else None,
        constraint=constraint,
    )
    if failed:
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
