"""The fitted laws: the value types a laws file holds and advice evaluates.

Fitting (lawfit, frontier, bslaw, lrlaw) produces these records, the
artifact module reads and writes them, and the advisor evaluates them with
the preset table, the one block no fit produces.  They depend on nothing
but the error types, the record base and numpy, which they load only
for array arguments, so a process that just reads a laws file and evaluates
it never loads the fitting code.  The readers of outside JSON documents
(run-log lines, laws files, sweep configs) share this module's decoder and
field rules.
"""

from __future__ import annotations

import contextlib
import json
import math
from enum import Enum

from ._lazy import np
from ._record import MISSING, Record, fields
from .errors import (
    InfeasibleTargetError, ParseError, ValidationError, check_non_negative, check_positive,
)

# Forward-pass-plus-backward cost per parameter per token.
FLOPS_PER_PARAM_TOKEN = 6.0


_REQUIRED = object()
_KIND_NAMES = {int: "a whole number", float: "a number", str: "a string", bool: "true or false"}


def read_field(doc: dict, name: str, kind: type, default=_REQUIRED):
    """doc[name] (the default when absent; KeyError if required) as kind.

    int takes whole numbers and float any number, neither a bool; str and
    bool take only their own type.  Any other value, which kind() would
    change silently, is a TypeError naming the field.
    """
    value = doc[name] if default is _REQUIRED else doc.get(name, default)
    return _as_kind(value, name, kind)


def read_items(doc: dict, name: str, kind: type, default=_REQUIRED) -> tuple:
    """doc[name] (the default when absent) as a tuple, each entry held to
    read_field's rules for kind."""
    items = doc[name] if default is _REQUIRED else doc.get(name, default)
    return tuple(_as_kind(value, f"{name} entry", kind) for value in items)


_KINDS = {"float": float, "int": int, "str": str, "bool": bool}


def read_record(cls, doc: dict):
    """A record of class cls from doc, read field by field in order.

    Each field is held to read_field's rules for the kind its annotation
    names: float, int, str or bool.  A field with a default may be absent,
    and a field annotated "<kind> | None" may be null.  A key that no field
    declares is a TypeError, so a misspelt field never takes its default
    silently.  The flat law records below bind it as their from_dict.
    """
    values = {}
    for f in fields(cls):
        kind, _, none = f.type.partition(" | ")
        value = doc[f.name] if f.default is MISSING else doc.get(f.name, f.default)
        values[f.name] = None if value is None and none else _as_kind(value, f.name, _KINDS[kind])
    for key in doc:
        if key not in values:
            raise TypeError(f"unknown field {key!r}")
    return cls(**values)


def _as_kind(value, name: str, kind: type):
    if kind in (str, bool):
        ok = type(value) is kind
    elif kind is int:
        ok = type(value) is int or isinstance(value, float) and value.is_integer()
    else:
        ok = type(value) is int or isinstance(value, float)
    if not ok:
        raise TypeError(f"{name} must be {_KIND_NAMES[kind]}, got {value!r}")
    return kind(value)


def decode_json(text: str, where: int | str):
    """json.loads(text) of an outside document.

    Each way the decoder gives up is a ParseError "invalid JSON: <reason>"
    at line ``where`` (an int) or after the prefix ``where`` (a str): a
    syntax error, nesting past the recursion limit, and an integer past
    the int-string conversion limit.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        reason = exc.msg
    except (RecursionError, ValueError) as exc:
        reason = str(exc)
    if isinstance(where, int):
        raise ParseError(f"invalid JSON: {reason}", line_no=where)
    raise ParseError(f"{where}invalid JSON: {reason}")


@contextlib.contextmanager
def reading(what: str):
    """Context for reading the decoded document named what: a missing key
    or a wrong-typed value inside is a ParseError naming what."""
    try:
        yield
    except KeyError as exc:
        raise ParseError(f"{what} is missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ParseError(f"{what} is malformed: {exc}") from None


class LrScheme(str, Enum):
    """How the peak learning rate was chosen relative to a base configuration."""

    ORIGIN = "origin"
    SQRT = "sqrt"
    LINEAR = "linear"


def scale_lr(base_lr: float, base_B: float, new_B: float, scheme: str | LrScheme = "linear") -> float:
    """Transfer a learning rate across batch sizes.

    linear multiplies by new_B/base_B, sqrt by its square root, none keeps
    the base value.  Run-log scheme tags map onto these rules (origin means
    none).
    """
    for name, value in (("base_lr", base_lr), ("base_B", base_B), ("new_B", new_B)):
        check_positive(name, value)
    if isinstance(scheme, LrScheme):
        scheme = {"origin": "none", "sqrt": "sqrt", "linear": "linear"}[scheme.value]
    if scheme == "linear":
        return base_lr * (new_B / base_B)
    if scheme == "sqrt":
        return base_lr * math.sqrt(new_B / base_B)
    if scheme == "none":
        return base_lr
    raise ValidationError(f"unknown scaling scheme {scheme!r}")


class PowerLaw(Record, frozen=True):
    """y = k * x^p with the regressor range the fit actually covered."""

    k: float
    p: float
    x_min: float
    x_max: float

    def __post_init__(self) -> None:
        if not 0 < self.k < math.inf:
            raise ValidationError(f"coefficient must be positive and finite, got {self.k}")
        if not math.isfinite(self.p):
            raise ValidationError(f"exponent must be finite, got {self.p}")
        if not 0 < self.x_min <= self.x_max:
            raise ValidationError("need 0 < x_min <= x_max")

    def __call__(self, x):
        # plain floats skip numpy; non-positive x and overflow take the
        # numpy path, which returns nan or inf where Python would raise
        if type(x) in (float, int) and x > 0:
            with contextlib.suppress(OverflowError):
                return self.k * float(x) ** self.p
        x_arr = np.asarray(x, dtype=float)
        out = self.k * x_arr**self.p
        return out.item() if out.ndim == 0 else out

    def extrapolates(self, x: float) -> bool:
        return x < self.x_min or x > self.x_max

    from_dict = classmethod(read_record)


class FrontierPoint(Record, frozen=True):
    """The compute-optimal operating point of one model size.

    edge_clipped marks points whose winning interval was cut off by the end
    of the data rather than by a competing model; their C is a lower-quality
    estimate of the true optimum.
    """

    C: float
    loss: float
    N: float
    D: float
    S: float
    B: float
    edge_clipped: bool = False

    def __post_init__(self) -> None:
        for name in ("C", "loss", "N", "D", "S", "B"):
            check_positive(name, getattr(self, name))
        if abs(self.C / (FLOPS_PER_PARAM_TOKEN * self.N * self.D) - 1.0) > 0.005:
            raise ValidationError("C must equal 6*N*D within 0.5%")
        if abs(self.D - self.S * self.B) > self.B:
            raise ValidationError("D must equal S*B within one batch")

    from_dict = classmethod(read_record)


_LAW_NAMES = ("L_opt", "N_opt", "D_opt", "S_opt", "B_opt")


class FrontierReport(Record, frozen=True):
    """Frontier points and the five fitted/derived power laws of compute."""

    points: tuple[FrontierPoint, ...]
    L_opt: PowerLaw
    N_opt: PowerLaw
    D_opt: PowerLaw
    S_opt: PowerLaw
    B_opt: PowerLaw
    consistency_residuals: dict[str, float]
    excluded: tuple[float, ...] = ()

    def to_dict(self) -> dict:
        """Every field; the points only when the report has any."""
        doc = {name: getattr(self, name).to_dict() for name in _LAW_NAMES}
        doc.update(
            consistency_residuals=dict(self.consistency_residuals),
            n_points=len(self.points),
            excluded_model_sizes=list(self.excluded),
        )
        if self.points:
            doc["points"] = [pt.to_dict() for pt in self.points]
        return doc

    @classmethod
    def from_dict(cls, d: dict) -> "FrontierReport":
        residuals = d.get("consistency_residuals", {})
        return cls(
            points=tuple(FrontierPoint.from_dict(pt) for pt in d.get("points", ())),
            **{name: PowerLaw.from_dict(d[name]) for name in _LAW_NAMES},
            # .keys() refuses a list, whose entries would pass as indices
            consistency_residuals={
                key: read_field(residuals, key, float) for key in residuals.keys()
            },
            excluded=read_items(d, "excluded_model_sizes", float, ()),
        )


class ChinchillaLaw(Record, frozen=True):
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
        # "not 0 < v < inf" also rejects NaN, which fails every comparison
        if not 0 <= self.E < math.inf:
            raise ValidationError(f"E must be non-negative and finite, got {self.E}")
        if not (0 < self.A < math.inf and 0 < self.Bcoef < math.inf):
            raise ValidationError(
                f"A and Bcoef must be positive and finite, got ({self.A}, {self.Bcoef})"
            )
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

    from_dict = classmethod(read_record)


# Published fit of the 125M-2.6B batch-size study: the reference artifact's
# loss law and the synthetic generator's planted truth.
REFERENCE_LOSS_LAW = ChinchillaLaw(E=1.48, A=314.35, alpha=0.331, Bcoef=460.51, beta=0.286)


class BoptLaw(Record, frozen=True):
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
        # written so that NaN, which fails every comparison, is rejected;
        # crossover_D is inf when the power branch never undercuts the linear one
        positive = (self.k, self.s_floor, self.d_min, self.d_max)
        if not (
            all(0 < v < math.inf for v in positive)
            and self.d_min <= self.d_max
            and math.isfinite(self.p)
            and 0 <= self.crossover_D <= math.inf
        ):
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

    from_dict = classmethod(read_record)


# Optional LrLawFit fields naming where the law was anchored.
_LR_ANCHOR_KEYS = ("base_lr", "base_B", "d_checkpoint")


class LrLawFit(Record, frozen=True):
    """Fitted LR-vs-batch exponent with its ceiling plateau, if any, and
    optionally where it was anchored (base LR and batch, checkpoint tokens)."""

    gamma: float
    lr_ceiling: float | None
    plateau_onset_B: float | None
    n_fit: int = 0
    base_lr: float | None = None
    base_B: float | None = None
    d_checkpoint: float | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.gamma):
            raise ValidationError(f"gamma must be finite, got {self.gamma}")
        for name in ("lr_ceiling", "plateau_onset_B", *_LR_ANCHOR_KEYS):
            if getattr(self, name) is not None:
                check_positive(name, getattr(self, name))
        check_non_negative("n_fit", self.n_fit)

    def to_dict(self) -> dict:
        """Every field, except anchor fields that are unset."""
        doc = super().to_dict()
        return {k: v for k, v in doc.items() if v is not None or k not in _LR_ANCHOR_KEYS}

    from_dict = classmethod(read_record)


class PresetRow(Record, frozen=True):
    """Tuned defaults for one model size: global batch, peak LR, schedule."""

    n_params: float
    label: str
    batch_size: float
    max_lr: float
    warmup_steps: int
    decay_steps: int

    def __post_init__(self) -> None:
        for name in ("n_params", "batch_size", "max_lr"):
            check_positive(name, getattr(self, name))
        for name in ("warmup_steps", "decay_steps"):
            check_non_negative(name, getattr(self, name))

    from_dict = classmethod(read_record)


DEFAULT_PRESETS: tuple[PresetRow, ...] = (
    PresetRow(1.25e8, "125M", 5e5, 6.0e-4, 715, 500000),
    PresetRow(3.5e8, "350M", 5e5, 3.0e-4, 715, 500000),
    PresetRow(7.6e8, "760M", 5e5, 2.5e-4, 715, 500000),
    PresetRow(1.3e9, "1.3B", 1e6, 2.0e-4, 350, 300000),
    PresetRow(2.6e9, "2.6B", 1e6, 1.6e-4, 350, 300000),
)


class Presets(Record, frozen=True):
    """Preset table, extensible with user rows."""

    rows: tuple[PresetRow, ...] = DEFAULT_PRESETS

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValidationError("preset table must not be empty")

    def lookup(self, n_params: float) -> PresetRow:
        """Nearest row by log model size; ties go to the larger model."""
        check_positive("n_params", n_params)
        return min(
            self.rows,
            key=lambda r: (abs(math.log(n_params) - math.log(r.n_params)), -r.n_params),
        )

    def to_dict(self) -> dict:
        return {"rows": [r.to_dict() for r in self.rows]}

    @classmethod
    def from_dict(cls, d: dict) -> "Presets":
        return cls(rows=tuple(PresetRow.from_dict(r) for r in d["rows"]))
