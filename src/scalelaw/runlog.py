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
from enum import Enum
from typing import Iterable, Iterator

from ._numpy import np
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
    head, and is trusted as given.
    """

    n_params: float
    label: str = ""
    seq_len: int | None = None

    def __post_init__(self) -> None:
        if not (self.n_params > 0 and math.isfinite(self.n_params)):
            raise ValidationError(f"n_params must be positive and finite, got {self.n_params}")


@dataclass(frozen=True, eq=False)
class Curve:
    """A loss curve: optimizer steps, cumulative tokens and observed losses.

    The three columns are equal-length 1-D read-only arrays (int64 steps,
    float64 tokens and losses), one entry per checkpoint.
    """

    step: np.ndarray
    tokens: np.ndarray
    loss: np.ndarray

    def __post_init__(self) -> None:
        given_steps = self.step
        for name, dtype in (("step", np.int64), ("tokens", np.float64), ("loss", np.float64)):
            column = np.asarray(getattr(self, name), dtype=dtype).view()
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        if self.step.ndim != 1 or not self.step.shape == self.tokens.shape == self.loss.shape:
            raise ValidationError("curve columns must be 1-D arrays of equal length")
        if not np.array_equal(self.step, given_steps):
            raise ValidationError("curve steps must be whole numbers")

    def __len__(self) -> int:
        return self.loss.size


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
    points: Curve
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
        if not len(self.points):
            raise ValidationError(f"run {self.run_id}: empty loss curve")
        step, tokens, loss = self.points.step, self.points.tokens, self.points.loss
        bad = step < 1
        if bad.any():
            raise ValidationError(
                f"run {self.run_id}: step must be >= 1, got {step[bad.argmax()]}"
            )
        if not np.all(tokens > 0):
            raise ValidationError(f"run {self.run_id}: tokens must be positive")
        bad = np.isnan(loss) | (loss <= 0)
        if bad.any():
            raise ValidationError(
                f"run {self.run_id}: loss must be positive, got {loss[bad.argmax()]}"
            )
        if np.any(step[1:] <= step[:-1]) or np.any(tokens[1:] <= tokens[:-1]):
            raise ValidationError(
                f"run {self.run_id}: points must be strictly increasing in step and tokens"
            )
        # tokens track step * batch exactly; the final checkpoint may sit
        # on a partial batch.
        b = float(self.batch_size_tokens)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = step * b
            slack = np.maximum(1e-6 * expected, 1e-9)
            slack[-1] = b
            bad = np.abs(tokens - expected) > slack
        if bad.any():
            i = bad.argmax()
            raise ValidationError(
                f"run {self.run_id}: tokens {tokens[i]} inconsistent with "
                f"step {step[i]} x batch {b}"
            )


@dataclass
class RunSet:
    """An ordered collection of runs with unique ids."""

    runs: dict[str, RunRecord] = field(default_factory=dict)
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
        out = RunSet()
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


_REQUIRED = object()
_KIND_NAMES = {int: "a whole number", float: "a number", str: "a string", bool: "true or false"}


def read_field(doc: dict, name: str, kind: type, default=_REQUIRED):
    """doc[name] (the default when absent; KeyError if required) as kind.

    int takes whole numbers and float any number, neither a bool; str and
    bool take only their own type.  Any other value, which kind() would
    change silently, is a TypeError naming the field.
    """
    value = doc[name] if default is _REQUIRED else doc.get(name, default)
    if kind in (str, bool):
        ok = type(value) is kind
    elif kind is int:
        ok = type(value) is int or isinstance(value, float) and value.is_integer()
    else:
        ok = type(value) is int or isinstance(value, float)
    if not ok:
        raise TypeError(f"{name} must be {_KIND_NAMES[kind]}, got {value!r}")
    return kind(value)


def _coerce(obj: dict, name: str, kind: type, line_no: int | None, default=_REQUIRED):
    """read_field of a run-log line; ParseError with the line number if refused."""
    try:
        return read_field(obj, name, kind, default)
    except TypeError as exc:
        raise ParseError(str(exc), line_no=line_no, field=name) from None


def _curve_from_rows(rows: list, line_no: int | None) -> Curve:
    """The [step, tokens, loss] rows of a record as a Curve.

    Rows of plain numbers take one array conversion.  Anything else
    (strings, nulls, nested lists, non-integral steps, steps a float cannot
    hold exactly) goes through _scan_rows, which names the first bad point.
    """
    try:
        table = np.array(rows)
        plain = table.dtype.kind in "bif" and table.shape == (len(rows), 3)
    except (TypeError, ValueError, OverflowError):
        plain = False
    if plain and table.dtype.kind == "f":
        step = table[:, 0]
        plain = bool(np.all((np.floor(step) == step) & (np.abs(step) < 2.0**53)))
    return Curve(*table.T) if plain else _scan_rows(rows, line_no)


def _scan_rows(rows: list, line_no: int | None) -> Curve:
    """_curve_from_rows one point at a time, with Python's int() and float()."""
    parsed = []
    try:
        for entry in rows:
            if not (isinstance(entry, list) and len(entry) == 3):
                raise ParseError(
                    "each point must be a [step, tokens, loss] triple",
                    line_no=line_no,
                    field="points",
                )
            step, tokens, loss = entry
            if isinstance(step, float) and not step.is_integer():
                raise ParseError("step must be an integer", line_no=line_no, field="points")
            parsed.append((int(step), float(tokens), float(loss)))
    except (TypeError, ValueError, OverflowError):
        raise ParseError(
            f"point {len(parsed)} must hold numbers, got {rows[len(parsed)]!r}",
            line_no=line_no,
            field="points",
        ) from None
    try:
        return Curve(*zip(*parsed))
    except OverflowError:
        raise ParseError("step must fit in 64 bits", line_no=line_no, field="points") from None


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
    points = _curve_from_rows(raw_points, line_no)
    seq_len = obj.get("seq_len")
    # bool is a subclass of int; JSON true is no sequence length
    if seq_len is not None and not (type(seq_len) is int and seq_len > 0):
        raise ParseError(
            f"seq_len must be null or a positive integer, got {seq_len!r}",
            line_no=line_no,
            field="seq_len",
        )
    model = ModelSpec(
        n_params=_coerce(obj, "n_params", float, line_no),
        label=_coerce(obj, "label", str, line_no, default=""),
        seq_len=seq_len,
    )
    return RunRecord(
        run_id=_coerce(obj, "run_id", str, line_no),
        model=model,
        batch_size_tokens=_coerce(obj, "batch_size_tokens", float, line_no),
        lr_peak=_coerce(obj, "lr_peak", float, line_no),
        lr_scheme=scheme,
        warmup_steps=_coerce(obj, "warmup_steps", int, line_no),
        decay_steps=_coerce(obj, "decay_steps", int, line_no),
        points=points,
        lr_scale=_coerce(obj, "lr_scale", float, line_no, default=1.0),
    )


def parse_runs(lines: Iterable[str], strict: bool = True) -> RunSet:
    """Parse JSONL run records into a validated RunSet.

    One JSON object per line; blank lines are skipped.  In strict mode the
    first malformed or conflicting line raises.  With ``strict=False`` bad
    lines are skipped and reported in ``RunSet.rejected`` as
    ``(line_no, reason)`` pairs.
    """
    runset = RunSet()
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
        pts = run.points
        obj = {
            "run_id": run.run_id,
            "n_params": run.model.n_params,
            "batch_size_tokens": run.batch_size_tokens,
            "lr_peak": run.lr_peak,
            "lr_scheme": run.lr_scheme.value,
            "lr_scale": run.lr_scale,
            "warmup_steps": run.warmup_steps,
            "decay_steps": run.decay_steps,
            "points": list(zip(pts.step.tolist(), pts.tokens.tolist(), pts.loss.tolist())),
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


def _take(curve: Curve, index) -> Curve:
    """The checkpoints of a curve picked by a slice or mask."""
    return Curve(curve.step[index], curve.tokens[index], curve.loss[index])


def finite_prefix(curve: Curve) -> Curve:
    """The leading span of a curve before the first non-finite loss."""
    bad = ~np.isfinite(curve.loss)
    return _take(curve, slice(bad.argmax())) if bad.any() else curve


def has_divergence(curve: Curve) -> bool:
    """True when the curve has a non-finite loss or ends above twice its start."""
    if not len(curve):
        raise InsufficientDataError("an empty curve can neither converge nor diverge")
    loss = curve.loss
    return bool(not np.isfinite(loss).all() or loss[-1] > 2.0 * loss[0])


def smooth_curve(
    curve: Curve,
    half_life_tokens: float,
    discard_fraction: float = 0.0,
) -> Curve:
    """Discard the leading transient and smooth the rest with a token-weighted EMA.

    Points with tokens below ``discard_fraction`` of the final token count are
    dropped.  The remaining losses are replaced by a bias-corrected
    exponential moving average whose weight halves every ``half_life_tokens``
    tokens, so with a half-life much longer than the curve the result tends
    to the running mean.  Steps and token counts are left untouched.  The
    recurrence runs on Python floats, one checkpoint at a time.

    Args:
        curve: strictly increasing checkpoints with finite losses.
        half_life_tokens: token distance at which a sample's weight halves.
        discard_fraction: leading fraction of total tokens to drop.

    Returns:
        A new Curve holding the kept steps and tokens and the smoothed losses.

    Raises:
        InsufficientDataError: fewer than two points survive the discard.
        ValidationError: non-finite losses or a non-positive half-life.
    """
    if half_life_tokens <= 0:
        raise ValidationError("half_life_tokens must be positive")
    if not 0 <= discard_fraction < 1:
        raise ValidationError("discard_fraction must be in [0, 1)")
    if not np.isfinite(curve.loss).all():
        raise ValidationError("smooth_curve requires finite losses; trim with finite_prefix")
    if len(curve):
        curve = _take(curve, curve.tokens >= discard_fraction * curve.tokens[-1])
    if len(curve) < 2:
        raise InsufficientDataError(
            f"only {len(curve)} points remain after discarding the first "
            f"{discard_fraction:.0%} of tokens; need at least 2"
        )
    tokens = curve.tokens.tolist()
    losses = curve.loss.tolist()
    out = [losses[0]]
    weighted = losses[0]
    weight = 1.0
    for prev_tokens, cur_tokens, loss in zip(tokens, tokens[1:], losses[1:]):
        decay = 0.5 ** ((cur_tokens - prev_tokens) / half_life_tokens)
        weighted = weighted * decay + loss
        weight = weight * decay + 1.0
        out.append(weighted / weight)
    return Curve(curve.step, curve.tokens, out)


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
    total = float(points.tokens[-1])
    if discard_fraction is None:
        warm_span = run.warmup_steps * run.batch_size_tokens / total
        discard_fraction = min(0.9, max(DEFAULT_DISCARD_FRACTION, warm_span))
    smoothed = smooth_curve(points, half_life_fraction * total, discard_fraction)
    return replace(run, points=smoothed)


def monotone_envelope(curve: Curve) -> Curve:
    """Running minimum of the loss curve (non-increasing in tokens)."""
    return Curve(curve.step, curve.tokens, np.fmin.accumulate(curve.loss))


def tokens_at_loss(curve: Curve, target_loss: float) -> float:
    """Tokens at which the curve's running minimum first reaches target_loss.

    Interpolates piecewise-linearly in (log tokens, loss) on the monotone
    envelope of ``curve.loss`` against ``curve.tokens``.  Raises
    PreRangeLossError when the target sits above the first recorded loss and
    UnreachableLossError when it sits below the best loss the curve ever
    attains.
    """
    if len(curve) < 2:
        raise InsufficientDataError("need at least 2 points to invert a curve")
    if not (target_loss > 0 and math.isfinite(target_loss)):
        raise ValidationError(f"target_loss must be positive and finite, got {target_loss}")
    tokens = curve.tokens
    best = np.fmin.accumulate(curve.loss)
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
    # exp(log(t)) can round past t; the answer stays inside its bracket so
    # that a lower target never needs fewer tokens
    return min(max(math.exp(log_tokens), prev_tokens), cur_tokens)
