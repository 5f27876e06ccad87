"""Training-run records: JSONL ingestion, curve smoothing, FLOP accounting,
and loss-to-tokens inversion.

A run is a loss curve sampled at checkpoint steps, tagged with the model
size and optimizer settings that produced it.  Everything downstream
(law fitting, envelopes, contours, surfaces) consumes these records.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from enum import Enum
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    ConflictError,
    InsufficientDataError,
    ParseError,
    PreRangeLossError,
    UnreachableLossError,
    ValidationError,
)

# Forward-pass-plus-backward cost per parameter per token.
FLOPS_PER_PARAM_TOKEN = 6.0

# Smoothing defaults: EMA half-life as a fraction of the run's total tokens,
# and the minimum leading fraction discarded as optimizer transient.
DEFAULT_HALF_LIFE_FRACTION = 0.01
DEFAULT_DISCARD_FRACTION = 0.01


class LrScheme(str, Enum):
    """How the peak learning rate was chosen relative to a base configuration."""

    ORIGIN = "origin"
    SQRT = "sqrt"
    LINEAR = "linear"


@dataclass(frozen=True)
class ModelSpec:
    """Architecture summary attached to a run.

    ``n_params`` is the non-embedding parameter count including the logits
    head, and is trusted as given; no architecture arithmetic is re-derived
    from the optional shape fields.
    """

    n_params: float
    label: str = ""
    layers: int | None = None
    hidden: int | None = None
    heads: int | None = None
    seq_len: int | None = None

    def __post_init__(self) -> None:
        if not (self.n_params > 0 and math.isfinite(self.n_params)):
            raise ValidationError(f"n_params must be positive and finite, got {self.n_params}")


@dataclass(frozen=True)
class CurvePoint:
    """One checkpoint: optimizer step, cumulative tokens, observed loss."""

    step: int
    tokens: float
    loss: float


@dataclass
class RunRecord:
    """One training run and its loss curve."""

    run_id: str
    model: ModelSpec
    batch_size_tokens: float
    lr_peak: float
    lr_scheme: LrScheme
    warmup_steps: int
    decay_steps: int
    points: tuple[CurvePoint, ...]
    lr_scale: float = 1.0

    def validate(self) -> None:
        if not self.run_id:
            raise ValidationError("run_id must be a non-empty string")
        if not (self.batch_size_tokens > 0 and math.isfinite(self.batch_size_tokens)):
            raise ValidationError(f"run {self.run_id}: batch_size_tokens must be positive")
        if not (self.lr_peak > 0 and math.isfinite(self.lr_peak)):
            raise ValidationError(f"run {self.run_id}: lr_peak must be positive")
        if not (self.lr_scale > 0 and math.isfinite(self.lr_scale)):
            raise ValidationError(
                f"run {self.run_id}: lr_scale must be positive and finite, got {self.lr_scale}"
            )
        if self.warmup_steps < 0 or self.decay_steps < 0:
            raise ValidationError(f"run {self.run_id}: step counts must be non-negative")
        if not self.points:
            raise ValidationError(f"run {self.run_id}: empty loss curve")
        b = self.batch_size_tokens
        last = len(self.points) - 1
        prev: CurvePoint | None = None
        for i, pt in enumerate(self.points):
            if pt.step < 1:
                raise ValidationError(f"run {self.run_id}: step must be >= 1, got {pt.step}")
            if not pt.tokens > 0:
                raise ValidationError(f"run {self.run_id}: tokens must be positive")
            if math.isnan(pt.loss) or pt.loss <= 0:
                raise ValidationError(f"run {self.run_id}: loss must be positive, got {pt.loss}")
            if prev is not None and (pt.step <= prev.step or pt.tokens <= prev.tokens):
                raise ValidationError(
                    f"run {self.run_id}: points must be strictly increasing in step and tokens"
                )
            # tokens track step * batch exactly; the final checkpoint may sit
            # on a partial batch.
            expected = pt.step * b
            slack = b if i == last else max(1e-6 * expected, 1e-9)
            if abs(pt.tokens - expected) > slack:
                raise ValidationError(
                    f"run {self.run_id}: tokens {pt.tokens} inconsistent with "
                    f"step {pt.step} x batch {b}"
                )
            prev = pt

    @property
    def total_tokens(self) -> float:
        return self.points[-1].tokens

    def losses(self) -> list[float]:
        return [p.loss for p in self.points]


@dataclass
class RunSet:
    """An ordered collection of runs with unique ids."""

    runs: dict[str, RunRecord] = field(default_factory=dict)
    source: str | None = None
    ingested_at: str | None = None
    rejected: list[tuple[int, str]] = field(default_factory=list)

    def __iter__(self) -> Iterator[RunRecord]:
        return iter(self.runs.values())

    def __len__(self) -> int:
        return len(self.runs)

    def __contains__(self, run_id: str) -> bool:
        return run_id in self.runs

    def __getitem__(self, run_id: str) -> RunRecord:
        return self.runs[run_id]

    def add(self, run: RunRecord) -> None:
        if run.run_id in self.runs:
            raise ConflictError(f"duplicate run_id {run.run_id!r}")
        run.validate()
        self.runs[run.run_id] = run

    def model_sizes(self) -> list[float]:
        seen: list[float] = []
        for run in self:
            if run.model.n_params not in seen:
                seen.append(run.model.n_params)
        return seen

    def subset(self, run_ids: Iterable[str]) -> "RunSet":
        out = RunSet(source=self.source, ingested_at=self.ingested_at)
        for rid in run_ids:
            out.add(self.runs[rid])
        return out


_REQUIRED_FIELDS = (
    "run_id",
    "n_params",
    "batch_size_tokens",
    "lr_peak",
    "lr_scheme",
    "warmup_steps",
    "decay_steps",
    "points",
)


def _coerce(obj: dict, name: str, kind: type, line_no: int | None, default=None):
    """obj[name] (or the default when absent) as kind; ParseError if it is no number."""
    value = obj.get(name, default)
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(
            f"{name} must be a number, got {value!r}", line_no=line_no, field=name
        ) from None


def _record_from_obj(obj: dict, line_no: int | None) -> RunRecord:
    for name in _REQUIRED_FIELDS:
        if name not in obj:
            raise ParseError("missing required field", line_no=line_no, field=name)
    try:
        scheme = LrScheme(obj["lr_scheme"])
    except ValueError:
        raise ParseError(
            f"unknown lr_scheme {obj['lr_scheme']!r}", line_no=line_no, field="lr_scheme"
        )
    raw_points = obj["points"]
    if not isinstance(raw_points, list) or not raw_points:
        raise ParseError("points must be a non-empty list", line_no=line_no, field="points")
    points = []
    # one try around the whole loop keeps the per-point cost of the happy path
    try:
        for entry in raw_points:
            if not (isinstance(entry, list) and len(entry) == 3):
                raise ParseError(
                    "each point must be a [step, tokens, loss] triple",
                    line_no=line_no,
                    field="points",
                )
            step, tokens, loss = entry
            if isinstance(step, float) and not step.is_integer():
                raise ParseError("step must be an integer", line_no=line_no, field="points")
            points.append(CurvePoint(step=int(step), tokens=float(tokens), loss=float(loss)))
    except (TypeError, ValueError, OverflowError):
        raise ParseError(
            f"point {len(points)} must hold numbers, got {raw_points[len(points)]!r}",
            line_no=line_no,
            field="points",
        ) from None
    model = ModelSpec(
        n_params=_coerce(obj, "n_params", float, line_no),
        label=str(obj.get("label", "")),
        seq_len=obj.get("seq_len"),
    )
    return RunRecord(
        run_id=str(obj["run_id"]),
        model=model,
        batch_size_tokens=_coerce(obj, "batch_size_tokens", float, line_no),
        lr_peak=_coerce(obj, "lr_peak", float, line_no),
        lr_scheme=scheme,
        warmup_steps=_coerce(obj, "warmup_steps", int, line_no),
        decay_steps=_coerce(obj, "decay_steps", int, line_no),
        points=tuple(points),
        lr_scale=_coerce(obj, "lr_scale", float, line_no, default=1.0),
    )


def parse_runs(lines: Iterable[str], source: str | None = None, strict: bool = True) -> RunSet:
    """Parse JSONL run records into a validated RunSet.

    One JSON object per line; blank lines are skipped.  In strict mode the
    first malformed or conflicting line raises.  With ``strict=False`` bad
    lines are skipped and reported in ``RunSet.rejected`` as
    ``(line_no, reason)`` pairs.
    """
    runset = RunSet(source=source, ingested_at=datetime.now(timezone.utc).isoformat())
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            try:
                obj = json.loads(stripped)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON: {exc.msg}", line_no=line_no)
            if not isinstance(obj, dict):
                raise ParseError("each line must be a JSON object", line_no=line_no)
            record = _record_from_obj(obj, line_no)
            if record.run_id in runset:
                raise ConflictError(f"line {line_no}: duplicate run_id {record.run_id!r}")
            record.validate()
            runset.runs[record.run_id] = record
        except (ParseError, ConflictError, ValidationError) as exc:
            if strict:
                raise
            runset.rejected.append((line_no, str(exc)))
    return runset


def serialize_runs(runset: RunSet) -> list[str]:
    """Emit one canonical JSON line per run; inverse of parse_runs."""
    lines = []
    for run in runset:
        obj = {
            "run_id": run.run_id,
            "n_params": run.model.n_params,
            "batch_size_tokens": run.batch_size_tokens,
            "lr_peak": run.lr_peak,
            "lr_scheme": run.lr_scheme.value,
            "lr_scale": run.lr_scale,
            "warmup_steps": run.warmup_steps,
            "decay_steps": run.decay_steps,
            "points": [[p.step, p.tokens, p.loss] for p in run.points],
        }
        if run.model.label:
            obj["label"] = run.model.label
        if run.model.seq_len is not None:
            obj["seq_len"] = run.model.seq_len
        lines.append(json.dumps(obj, sort_keys=True))
    return lines


def flops(n_params: float, tokens: float) -> float:
    """Training compute estimate C = 6 * N * D."""
    if not (n_params > 0 and tokens > 0):
        raise ValidationError("flops() requires positive n_params and tokens")
    return FLOPS_PER_PARAM_TOKEN * n_params * tokens


def finite_prefix(points: Sequence[CurvePoint]) -> tuple[CurvePoint, ...]:
    """The leading span of a curve before the first non-finite loss."""
    for i, p in enumerate(points):
        if not math.isfinite(p.loss):
            return tuple(points[:i])
    return tuple(points)


def has_divergence(points: Sequence[CurvePoint], blowup_ratio: float = 2.0) -> bool:
    """True when the curve has a non-finite loss or ends above blowup_ratio x its start."""
    if any(not math.isfinite(p.loss) for p in points):
        return True
    return points[-1].loss > blowup_ratio * points[0].loss


def smooth_curve(
    points: Sequence[CurvePoint],
    half_life_tokens: float,
    discard_fraction: float = 0.0,
) -> tuple[CurvePoint, ...]:
    """Discard the leading transient and smooth the rest with a token-weighted EMA.

    Points with tokens below ``discard_fraction`` of the final token count are
    dropped.  The remaining losses are replaced by a bias-corrected
    exponential moving average whose weight halves every ``half_life_tokens``
    tokens, so with a half-life much longer than the curve the result tends
    to the running mean.  Steps and token counts are left untouched.

    Args:
        points: strictly increasing checkpoint sequence with finite losses.
        half_life_tokens: token distance at which a sample's weight halves.
        discard_fraction: leading fraction of total tokens to drop.

    Returns:
        A new tuple of CurvePoints with smoothed losses.

    Raises:
        InsufficientDataError: fewer than two points survive the discard.
        ValidationError: non-finite losses or a non-positive half-life.
    """
    if half_life_tokens <= 0:
        raise ValidationError("half_life_tokens must be positive")
    if not 0 <= discard_fraction < 1:
        raise ValidationError("discard_fraction must be in [0, 1)")
    if any(not math.isfinite(p.loss) for p in points):
        raise ValidationError("smooth_curve requires finite losses; trim with finite_prefix")
    cutoff = discard_fraction * points[-1].tokens
    kept = [p for p in points if p.tokens >= cutoff]
    if len(kept) < 2:
        raise InsufficientDataError(
            f"only {len(kept)} points remain after discarding the first "
            f"{discard_fraction:.0%} of tokens; need at least 2"
        )
    out = [kept[0]]
    weighted = kept[0].loss
    weight = 1.0
    prev_tokens = kept[0].tokens
    for cur in kept[1:]:
        tokens = cur.tokens
        decay = 0.5 ** ((tokens - prev_tokens) / half_life_tokens)
        weighted = weighted * decay + cur.loss
        weight = weight * decay + 1.0
        out.append(CurvePoint(cur.step, tokens, weighted / weight))
        prev_tokens = tokens
    return tuple(out)


def smooth_run(
    run: RunRecord,
    half_life_fraction: float = DEFAULT_HALF_LIFE_FRACTION,
    discard_fraction: float | None = None,
) -> RunRecord:
    """Apply the default smoothing policy to one run.

    The half-life is a fraction of the run's total tokens and the discard
    span is the larger of ``DEFAULT_DISCARD_FRACTION`` and the warm-up span.
    Non-finite tails (diverged runs) are trimmed before smoothing.
    """
    points = finite_prefix(run.points)
    if len(points) < 2:
        raise InsufficientDataError(f"run {run.run_id}: fewer than 2 finite points")
    total = points[-1].tokens
    if discard_fraction is None:
        warm_span = run.warmup_steps * run.batch_size_tokens / total
        discard_fraction = min(0.9, max(DEFAULT_DISCARD_FRACTION, warm_span))
    smoothed = smooth_curve(points, half_life_fraction * total, discard_fraction)
    return replace(run, points=smoothed)


def _running_min_arrays(points: Sequence[CurvePoint]) -> tuple[np.ndarray, np.ndarray]:
    """(tokens, running minimum of the loss) of a curve, as float arrays."""
    tokens = np.array([p.tokens for p in points], dtype=float)
    best = np.fmin.accumulate(np.array([p.loss for p in points], dtype=float))
    return tokens, best


def monotone_envelope(points: Sequence[CurvePoint]) -> tuple[CurvePoint, ...]:
    """Running minimum of the loss curve (non-increasing in tokens)."""
    _, best = _running_min_arrays(points)
    return tuple(
        CurvePoint(p.step, p.tokens, loss) for p, loss in zip(points, best.tolist())
    )


def _tokens_at_running_min(tokens: np.ndarray, best: np.ndarray, target_loss: float) -> float:
    """tokens_at_loss on the arrays of _running_min_arrays."""
    if tokens.size < 2:
        raise InsufficientDataError("need at least 2 points to invert a curve")
    if not (target_loss > 0 and math.isfinite(target_loss)):
        raise ValidationError(f"target_loss must be positive and finite, got {target_loss}")
    if target_loss > best[0]:
        raise PreRangeLossError(
            f"target {target_loss} above the first recorded loss {float(best[0])}"
        )
    if target_loss < best[-1]:
        raise UnreachableLossError(
            f"target {target_loss} below the best loss {float(best[-1])} reached by the curve"
        )
    # first checkpoint whose running minimum is at or below the target
    i = int(np.searchsorted(-best, -target_loss, side="left"))
    if i == 0:
        return float(tokens[0])
    prev_loss, cur_loss = float(best[i - 1]), float(best[i])
    prev_tokens, cur_tokens = float(tokens[i - 1]), float(tokens[i])
    frac = (prev_loss - target_loss) / (prev_loss - cur_loss)
    log_tokens = math.log(prev_tokens) + frac * (math.log(cur_tokens) - math.log(prev_tokens))
    return math.exp(log_tokens)


def tokens_at_loss(points: Sequence[CurvePoint], target_loss: float) -> float:
    """Tokens at which the curve's running minimum first reaches target_loss.

    Interpolates piecewise-linearly in (log tokens, loss) on the monotone
    envelope of the curve.  Raises PreRangeLossError when the target sits
    above the first recorded loss and UnreachableLossError when it sits
    below the best loss the curve ever attains.
    """
    return _tokens_at_running_min(*_running_min_arrays(points), target_loss)
