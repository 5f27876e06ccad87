"""Optimal batch size as a function of data budget, fitted from iso-loss
contours.

For one model size swept over batch sizes, each loss level defines a contour
of (B, tokens needed to reach the level).  The contour minimum in log-log
space gives that level's optimal batch; the minima trace a two-regime law:
linear B = D/s_floor while the minimum step count binds, then a power law
k * D^p.
"""

from __future__ import annotations

import math
import warnings
from typing import Literal, Sequence

from ._record import Record
from .errors import (
    EmptyContourError,
    InsufficientDataError,
    NoMinimumError,
    PreRangeLossError,
    UnreachableLossError,
    ValidationError,
    check_positive,
)
from .frontier import fit_power_law, linspace, parabola_vertex
from .laws import BoptLaw, LrScheme
from .runlog import DEFAULT_HALF_LIFE_FRACTION, RunSet, has_divergence, loss_inverse

# Choose default loss levels inside the bulk of final losses.
DEFAULT_N_LEVELS = 8
LEVEL_PERCENTILES = (20.0, 80.0)

# Minimum-step band: contour minima whose implied step count falls at or
# below the top of this band are treated as floor-limited.
S_FLOOR_BAND = (2500.0, 6000.0)
DEFAULT_S_FLOOR = 4000.0


class ContourPoint(Record, frozen=True):
    """Tokens needed to reach one loss level at one batch size."""

    loss_level: float
    B: float
    D_required: float

    def __post_init__(self) -> None:
        for name in ("loss_level", "B", "D_required"):
            check_positive(name, getattr(self, name))
        if self.D_required < self.B:
            raise ValidationError("D_required below one batch of tokens")


class ContourVertex(Record, frozen=True):
    """Minimum of one contour's parabola in (log B, log D) space."""

    loss_level: float
    B_star: float
    D_star: float
    extrapolated: bool


def _check_n_levels(n_levels: int) -> None:
    if n_levels < 1:
        raise ValidationError(f"n_levels must be at least 1, got {n_levels}")


def default_loss_levels(runset: RunSet, n_levels: int = DEFAULT_N_LEVELS) -> list[float]:
    """Evenly spaced levels between the 20th and 80th percentile of final losses.

    Diverged runs do not vote: their endpoints sit far above anything a
    contour can use, so the window spans only losses that some run actually
    sustained.  Each run's final loss is read off ``runset.smoothed``, so
    iso_loss_contour at the default settings on the same set reuses the
    curves smoothed here.
    """
    _check_n_levels(n_levels)
    finals = [
        runset.smoothed(run.run_id).columns[2][-1]
        for run in runset
        if not has_divergence(run.points)
    ]
    if not finals:
        raise InsufficientDataError("no converged runs to pick loss levels from")
    lo, hi = (_percentile(finals, q) for q in LEVEL_PERCENTILES)
    return linspace(lo, hi, n_levels)


def _percentile(values: list[float], q: float) -> float:
    """np.percentile(values, q) of finite values, bit for bit, without the
    numpy.ma import that np.percentile's np.unique costs a process.

    numpy's default "linear" method: the virtual index (n - 1) * q/100 falls
    between two sorted values a and b, weight t apart, and the lerp is
    taken from b's side when t >= 0.5 (numpy's ``_lerp``).
    """
    ordered = sorted(values)
    index = (len(ordered) - 1) * (q / 100)
    below = math.floor(index)
    if below >= len(ordered) - 1:
        return ordered[-1]
    a, b = ordered[below], ordered[below + 1]
    t = index - below
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


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
    fixed_scheme, the one policy that takes a scheme.  Batch sizes that
    never reach a level are gaps (warned); a level reachable at no batch
    size raises.

    The smoothing knobs pass through to ``runset.smoothed``, which keeps
    each run's curve by its settings, so default_loss_levels and the
    contours on the same set smooth each run once.  High loss levels live
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
        if scheme is not None:
            raise ValidationError("a scheme needs the fixed_scheme policy")
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

    # each run is smoothed and its running minimum built once; every level
    # then costs one bisection a run
    inverses = {
        run.run_id: loss_inverse(runset.smoothed(run.run_id, half_life_fraction, discard_fraction))
        for run in eligible
    }
    contours: dict[float, list[ContourPoint]] = {}
    for level in loss_levels:
        check_positive("loss level", level)
        points = []
        for b in sorted(by_batch):
            best = math.inf
            for run in by_batch[b]:
                try:
                    d_req = inverses[run.run_id](level)
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
        NoMinimumError: the quadratic is flat or concave in log-log space, or its vertex overflows.
    """
    pts = list(points)
    if len(pts) < 3 or len({pt.B for pt in pts}) < 3:
        raise InsufficientDataError("need at least 3 contour points at distinct batch sizes")
    levels = {pt.loss_level for pt in pts}
    if len(levels) != 1:
        raise ValidationError("contour points must share one loss level")
    log_b = [math.log(pt.B) for pt in pts]
    log_d = [math.log(pt.D_required) for pt in pts]
    try:
        log_b_star, log_d_star = parabola_vertex(log_b, log_d)
        b_star, d_star = math.exp(log_b_star), math.exp(log_d_star)
    except NoMinimumError as exc:
        raise NoMinimumError(f"contour at level {pts[0].loss_level:.4g} has {exc}") from None
    except OverflowError:  # a nearly flat parabola can put its vertex anywhere
        raise NoMinimumError(
            f"contour at level {pts[0].loss_level:.4g} has its minimum past the float range"
        ) from None
    return ContourVertex(
        loss_level=pts[0].loss_level,
        B_star=b_star,
        D_star=d_star,
        extrapolated=not (min(log_b) <= log_b_star <= max(log_b)),
    )


def fit_bopt_law(
    vertices: Sequence[ContourVertex],
    s_floor_hint: float | None = None,
) -> BoptLaw:
    """Two-regime B_opt(D) law from contour vertices.

    Vertices whose implied step count D/B sits at or below the minimum-step
    band are floor-limited and set s_floor (median of their step counts, or
    the hint); the rest constrain the power branch.  Extrapolated vertices
    are dropped.

    Raises:
        InsufficientDataError: fewer than 4 usable vertices or under one
            decade of D coverage.
    """
    if s_floor_hint is not None:
        check_positive("s_floor_hint", s_floor_hint)
    all_vertices = list(vertices)
    usable = [v for v in all_vertices if not v.extrapolated]
    if len(usable) < len(all_vertices):
        warnings.warn(
            f"dropping {len(all_vertices) - len(usable)} extrapolated contour vertices"
        )
    if len(usable) < 4:
        raise InsufficientDataError(f"need at least 4 vertices, got {len(usable)}")
    d_min = min(v.D_star for v in usable)
    d_max = max(v.D_star for v in usable)
    if d_max / d_min < 10.0:
        raise InsufficientDataError("vertices must span at least one decade of D")

    band_top = 1.5 * s_floor_hint if s_floor_hint is not None else S_FLOOR_BAND[1]
    floor_limited = [v for v in usable if v.D_star / v.B_star <= band_top]
    power_regime = [v for v in usable if v not in floor_limited]

    if s_floor_hint is not None:
        s_floor = s_floor_hint
    elif floor_limited:
        s_floor = _median([v.D_star / v.B_star for v in floor_limited])
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
        d_min=d_min,
        d_max=d_max,
        power_fitted=power_fitted,
    )


def _median(values: list[float]) -> float:
    """np.median of positive finite floats, bit for bit: the middle value,
    or the mean (a + b) / 2 of the middle two."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


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
    A bad s_floor_hint is refused before any contour work.  The levels and
    the contours read each run's curve from ``runset.smoothed``, so a run
    is smoothed once per setting for the life of the set.
    """
    if s_floor_hint is not None:
        check_positive("s_floor_hint", s_floor_hint)
    if loss_levels is None:
        levels = default_loss_levels(runset)
    else:
        levels = list(loss_levels)
    contours = iso_loss_contour(
        runset, levels, lr_policy=lr_policy, scheme=scheme, discard_fraction=discard_fraction
    )
    vertices = []
    for level in levels:
        try:
            vertices.append(fit_contour_parabola(contours[level]))
        except (NoMinimumError, InsufficientDataError) as exc:
            warnings.warn(f"skipping level {level:.4g}: {exc}")
    return fit_bopt_law(vertices, s_floor_hint=s_floor_hint), vertices
