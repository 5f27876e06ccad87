"""Optimal batch size as a function of data budget, fitted from iso-loss
contours.

For one model size swept over batch sizes, each loss level defines a contour
of (B, tokens needed to reach the level).  The contour minimum in log-log
space gives that level's optimal batch; the minima trace a two-regime law:
linear B = D/s_floor while the minimum step count binds, then a power law
k * D^p.
"""

from __future__ import annotations

import contextlib
import math
import warnings
from dataclasses import asdict, dataclass, fields
from typing import Literal, Sequence

from ._numpy import np
from .errors import (
    EmptyContourError,
    InsufficientDataError,
    NoMinimumError,
    PreRangeLossError,
    UnreachableLossError,
    ValidationError,
)
from .frontier import PowerLaw, fit_power_law, parabola_vertex
from .runlog import (
    DEFAULT_HALF_LIFE_FRACTION,
    LrScheme,
    RunSet,
    has_divergence,
    read_field,
    smooth_run,
    tokens_at_loss,
)

# Choose default loss levels inside the bulk of final losses.
DEFAULT_N_LEVELS = 8
LEVEL_PERCENTILES = (20.0, 80.0)

# Minimum-step band: contour minima whose implied step count falls at or
# below the top of this band are treated as floor-limited.
S_FLOOR_BAND = (2500.0, 6000.0)
DEFAULT_S_FLOOR = 4000.0


@dataclass(frozen=True)
class ContourPoint:
    """Tokens needed to reach one loss level at one batch size."""

    loss_level: float
    B: float
    D_required: float

    def __post_init__(self) -> None:
        if min(self.loss_level, self.B, self.D_required) <= 0:
            raise ValidationError("all ContourPoint fields must be positive")
        if self.D_required < self.B:
            raise ValidationError("D_required below one batch of tokens")


@dataclass(frozen=True)
class ContourVertex:
    """Minimum of one contour's parabola in (log B, log D) space."""

    loss_level: float
    B_star: float
    D_star: float
    extrapolated: bool


@dataclass(frozen=True)
class BoptLaw:
    """Two-regime optimal batch size: B_opt(D) = min(D/s_floor, k*D^p).

    Below crossover_D the minimum step count s_floor binds and the optimal
    batch grows linearly with data; above it the fitted power branch takes
    over.  power_fitted is False when no contour minima reached the power
    regime, in which case the power branch is a copy of the linear one.
    """

    k: float
    p: float
    s_floor: float
    crossover_D: float
    d_min: float
    d_max: float
    power_fitted: bool = True

    def __post_init__(self) -> None:
        if min(self.k, self.s_floor, self.d_min) <= 0 or self.d_max < self.d_min:
            raise ValidationError("invalid BoptLaw fields")

    def eval(self, d):
        """Optimal batch size in tokens at data budget d."""
        if type(d) in (float, int):
            with contextlib.suppress(OverflowError):  # numpy returns inf instead
                d = float(d)
                if d <= 0:
                    raise ValidationError("d must be positive")
                return min(d / self.s_floor, self.k * d**self.p)
        d_arr = np.asarray(d, dtype=float)
        if np.any(d_arr <= 0):
            raise ValidationError("d must be positive")
        out = np.minimum(d_arr / self.s_floor, self.k * d_arr**self.p)
        return out.item() if out.ndim == 0 else out

    def regime(self, d: float) -> str:
        return "linear" if d < self.crossover_D else "power"

    def extrapolates(self, d: float) -> bool:
        return d < self.d_min or d > self.d_max

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "BoptLaw":
        return cls(
            **{f.name: read_field(d, f.name, float) for f in fields(cls) if f.type == "float"},
            power_fitted=read_field(d, "power_fitted", bool, True),
        )


def default_loss_levels(runset: RunSet, n_levels: int = DEFAULT_N_LEVELS) -> list[float]:
    """Evenly spaced levels between the 20th and 80th percentile of final losses.

    Diverged runs do not vote: their endpoints sit far above anything a
    contour can use, so the window spans only losses that some run actually
    sustained.
    """
    if n_levels < 1:
        raise ValidationError(f"n_levels must be at least 1, got {n_levels}")
    finals = []
    for run in runset:
        if has_divergence(run.points):
            continue
        smoothed = smooth_run(run)
        finals.append(float(smoothed.points.loss[-1]))
    if not finals:
        raise InsufficientDataError("no converged runs to pick loss levels from")
    lo, hi = np.percentile(finals, LEVEL_PERCENTILES)
    return [float(v) for v in np.linspace(lo, hi, n_levels)]


def iso_loss_contour(
    runset: RunSet,
    loss_levels: Sequence[float],
    lr_policy: Literal["best_of_schemes", "fixed_scheme"] = "best_of_schemes",
    scheme: LrScheme | None = None,
    half_life_fraction: float = DEFAULT_HALF_LIFE_FRACTION,
    discard_fraction: float | None = None,
) -> dict[float, list[ContourPoint]]:
    """Iso-loss contours of one model size swept over batch sizes.

    For each (level, batch size), D_required is the tokens at which the
    best curve for that batch reaches the level: the minimum across LR
    variants under best_of_schemes, or the designated scheme's curve under
    fixed_scheme.  Batch sizes that never reach a level are gaps (warned);
    a level reachable at no batch size raises.

    The smoothing knobs pass through to smooth_run.  High loss levels live
    in the discarded head of the curve, so runs without a warm-up transient
    can trade a smaller discard_fraction for contour coverage there.

    Returns:
        Mapping of loss level to its contour points, batch-ascending.
    """
    sizes = {run.model.n_params for run in runset}
    if len(sizes) != 1:
        raise ValidationError(f"contours need a single model size, got {len(sizes)}")
    if lr_policy == "fixed_scheme":
        if scheme is None:
            raise ValidationError("fixed_scheme policy requires a scheme")
        eligible = [run for run in runset if run.lr_scheme == scheme]
    elif lr_policy == "best_of_schemes":
        eligible = list(runset)
    else:
        raise ValidationError(f"unknown lr_policy {lr_policy!r}")

    by_batch: dict[float, list] = {}
    for run in eligible:
        by_batch.setdefault(run.batch_size_tokens, []).append(run)
    if len(by_batch) < 3:
        raise InsufficientDataError(
            f"need at least 3 distinct batch sizes, got {len(by_batch)}"
        )

    # each run is smoothed once; every level then costs one curve inversion
    curves = {
        run.run_id: smooth_run(
            run, half_life_fraction=half_life_fraction, discard_fraction=discard_fraction
        ).points
        for run in eligible
    }
    contours: dict[float, list[ContourPoint]] = {}
    for level in loss_levels:
        if level <= 0:
            raise ValidationError(f"loss level must be positive, got {level}")
        points = []
        for b in sorted(by_batch):
            best = math.inf
            for run in by_batch[b]:
                try:
                    d_req = tokens_at_loss(curves[run.run_id], level)
                except (PreRangeLossError, UnreachableLossError):
                    continue
                best = min(best, d_req)
            if math.isfinite(best):
                points.append(ContourPoint(loss_level=level, B=b, D_required=best))
            else:
                warnings.warn(f"level {level:.4g} unreachable at B = {b:.3g}; gap")
        if not points:
            raise EmptyContourError(
                f"loss level {level:.4g} is unreachable at every batch size", level=level
            )
        contours[level] = points
    return contours


def fit_contour_parabola(points: Sequence[ContourPoint]) -> ContourVertex:
    """Vertex of the least-squares parabola through one contour.

    Fits log D_required as a quadratic in log B and returns the minimizer.
    A vertex outside the observed batch range is flagged extrapolated.

    Raises:
        NoMinimumError: the quadratic is flat or concave in log-log space.
    """
    pts = list(points)
    if len(pts) < 3 or len({pt.B for pt in pts}) < 3:
        raise InsufficientDataError("need at least 3 contour points at distinct batch sizes")
    levels = {pt.loss_level for pt in pts}
    if len(levels) != 1:
        raise ValidationError("contour points must share one loss level")
    log_b = np.log([pt.B for pt in pts])
    log_d = np.log([pt.D_required for pt in pts])
    try:
        log_b_star, log_d_star = parabola_vertex(log_b, log_d)
    except NoMinimumError as exc:
        raise NoMinimumError(f"contour at level {pts[0].loss_level:.4g} has {exc}") from None
    return ContourVertex(
        loss_level=pts[0].loss_level,
        B_star=float(math.exp(log_b_star)),
        D_star=float(math.exp(log_d_star)),
        extrapolated=not (log_b.min() <= log_b_star <= log_b.max()),
    )


def fit_bopt_law(
    vertices: Sequence[ContourVertex],
    s_floor_hint: float | None = None,
    include_extrapolated: bool = False,
) -> BoptLaw:
    """Two-regime B_opt(D) law from contour vertices.

    Vertices whose implied step count D/B sits at or below the minimum-step
    band are floor-limited and set s_floor (median of their step counts, or
    the hint); the rest constrain the power branch.  Extrapolated vertices
    are dropped unless include_extrapolated is set.

    Raises:
        InsufficientDataError: fewer than 4 usable vertices or under one
            decade of D coverage.
    """
    all_vertices = list(vertices)
    usable = [v for v in all_vertices if include_extrapolated or not v.extrapolated]
    if len(usable) < len(all_vertices):
        warnings.warn(
            f"dropping {len(all_vertices) - len(usable)} extrapolated contour vertices"
        )
    if len(usable) < 4:
        raise InsufficientDataError(f"need at least 4 vertices, got {len(usable)}")
    d_vals = np.array([v.D_star for v in usable])
    if d_vals.max() / d_vals.min() < 10.0:
        raise InsufficientDataError("vertices must span at least one decade of D")

    if s_floor_hint is not None and s_floor_hint <= 0:
        raise ValidationError("s_floor_hint must be positive")
    band_top = 1.5 * s_floor_hint if s_floor_hint is not None else S_FLOOR_BAND[1]
    floor_limited = [v for v in usable if v.D_star / v.B_star <= band_top]
    power_regime = [v for v in usable if v not in floor_limited]

    if s_floor_hint is not None:
        s_floor = s_floor_hint
    elif floor_limited:
        s_floor = float(np.median([v.D_star / v.B_star for v in floor_limited]))
    else:
        s_floor = DEFAULT_S_FLOOR

    if power_regime:
        law = fit_power_law(
            [v.D_star for v in power_regime], [v.B_star for v in power_regime]
        )
        k, p = law.k, law.p
        power_fitted = True
    else:
        # nothing constrains the power branch; duplicate the linear one
        k, p = 1.0 / s_floor, 1.0
        power_fitted = False

    if power_fitted and p < 1.0:
        crossover = (k * s_floor) ** (1.0 / (1.0 - p))
    else:
        crossover = math.inf
    return BoptLaw(
        k=float(k),
        p=float(p),
        s_floor=float(s_floor),
        crossover_D=float(crossover),
        d_min=float(d_vals.min()),
        d_max=float(d_vals.max()),
        power_fitted=power_fitted,
    )


def derive_sopt(law: BoptLaw) -> PowerLaw:
    """Optimal step count S_opt(D) = D/B_opt(D) on the power branch.

    Exact by construction: coefficient 1/k, exponent 1 - p.  Below the
    crossover the step count is the constant s_floor instead.
    """
    if not law.power_fitted:
        raise ValidationError("law has no fitted power branch")
    x_min = law.d_min if math.isinf(law.crossover_D) else max(law.d_min, law.crossover_D)
    x_min = min(x_min, law.d_max)
    return PowerLaw(k=1.0 / law.k, p=1.0 - law.p, x_min=x_min, x_max=law.d_max)


def bopt_law_from_runs(
    runset: RunSet,
    loss_levels: Sequence[float] | None = None,
    lr_policy: Literal["best_of_schemes", "fixed_scheme"] = "best_of_schemes",
    scheme: LrScheme | None = None,
    s_floor_hint: float | None = None,
    discard_fraction: float | None = None,
) -> tuple[BoptLaw, list[ContourVertex]]:
    """Full pipeline: contours, parabola vertices, two-regime fit.

    Levels whose contour has no interior minimum are skipped with a warning.
    """
    levels = list(loss_levels) if loss_levels is not None else default_loss_levels(runset)
    contours = iso_loss_contour(
        runset,
        levels,
        lr_policy=lr_policy,
        scheme=scheme,
        discard_fraction=discard_fraction,
    )
    vertices = []
    for level in levels:
        try:
            vertices.append(fit_contour_parabola(contours[level]))
        except (NoMinimumError, InsufficientDataError) as exc:
            warnings.warn(f"skipping level {level:.4g}: {exc}")
    return fit_bopt_law(vertices, s_floor_hint=s_floor_hint), vertices
