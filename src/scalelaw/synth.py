"""Synthetic training-run generator with a planted ground truth.

Curves are generated by inverting the steps/data trade-off closure over a
planted loss law: the tokens needed to reach a loss at batch size B equal
the law's own token requirement times the trade-off overhead e(B/B_crit),
and off-optimal learning rates dilute tokens through the quadratic
efficiency 2*rho - rho^2 with rho = lr/eta_opt(B).  Every fitting pipeline
in the package can therefore be checked against known planted laws.  The
generator is an implementer-constructed oracle: real training dynamics are
richer than this closure.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, fields

from ._numpy import np
from .errors import ParseError, ValidationError
from .lawfit import REFERENCE_LOSS_LAW, ChinchillaLaw
from .lrlaw import scale_lr
from .noisescale import NoiseParams, eta_opt_adam, solve_tradeoff
from .runlog import Curve, LrScheme, ModelSpec, RunRecord, RunSet, read_field

# Divergence shaping: per-checkpoint loss growth and the blow-up ratio after
# which the curve is truncated with a single non-finite point.
_DIVERGENCE_GROWTH = 1.5
_DIVERGENCE_CAP = 10.0


@dataclass(frozen=True)
class GroundTruth:
    """Planted generative model for synthetic runs.

    noise holds the sign-update (Adam-family) noise parameters driving
    eta_opt and the trade-off constant gamma.  bcrit_mode "constant" uses
    bcrit_b0 everywhere; "loss_linked" grows the critical batch as the loss
    falls: B_crit(L) = bcrit_b0 * bcrit_loss_ref / L.
    """

    law: ChinchillaLaw
    noise: NoiseParams
    bcrit_mode: str = "constant"
    bcrit_b0: float = 4e6
    bcrit_loss_ref: float = 2.5
    lr_efficiency: bool = True
    observation_noise: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.bcrit_mode not in ("constant", "loss_linked"):
            raise ValidationError(f"unknown bcrit_mode {self.bcrit_mode!r}")
        if self.bcrit_b0 <= 0 or self.bcrit_loss_ref <= 0:
            raise ValidationError("bcrit parameters must be positive")
        if self.observation_noise < 0:
            raise ValidationError("observation_noise must be non-negative")

    def bcrit_at(self, loss: float) -> float:
        """Critical batch size at a given loss level."""
        if self.bcrit_mode == "constant":
            return self.bcrit_b0
        return self.bcrit_b0 * self.bcrit_loss_ref / loss

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "GroundTruth":
        try:
            return cls(
                law=ChinchillaLaw.from_dict(d["law"]),
                noise=NoiseParams(
                    **{f.name: read_field(d["noise"], f.name, float) for f in fields(NoiseParams)}
                ),
                bcrit_mode=read_field(d, "bcrit_mode", str),
                bcrit_b0=read_field(d, "bcrit_b0", float),
                bcrit_loss_ref=read_field(d, "bcrit_loss_ref", float),
                lr_efficiency=read_field(d, "lr_efficiency", bool),
                observation_noise=read_field(d, "observation_noise", float),
                seed=read_field(d, "seed", int),
            )
        except KeyError as exc:
            raise ParseError(f"ground truth document missing field {exc.args[0]!r}")
        except (TypeError, ValueError, AttributeError, OverflowError) as exc:
            raise ParseError(f"ground truth document is malformed: {exc}") from None


@dataclass(frozen=True)
class SynthConfig:
    """Sweep layout: which runs to generate and how densely to checkpoint.

    Every (model, batch, scheme, factor) combination becomes one run whose
    peak LR is the scheme rule applied from (base_batch, base_lr) to the
    run's batch, times the factor.
    """

    models: tuple[ModelSpec, ...]
    batch_sizes: tuple[float, ...]
    schemes: tuple[LrScheme, ...] = (LrScheme.ORIGIN,)
    lr_factors: tuple[float, ...] = (1.0,)
    base_batch: float = 5e5
    base_lr: float = 4.4e-4
    tokens_per_run: float = 3e11
    points_per_run: int = 400

    def __post_init__(self) -> None:
        if not self.models or not self.batch_sizes:
            raise ValidationError("models and batch_sizes must be non-empty")
        # "not 0 < v < inf" also rejects NaN, which fails every comparison
        if not all(0 < v < math.inf for v in (*self.batch_sizes, *self.lr_factors)):
            raise ValidationError("sweep values must be positive and finite")
        if not all(0 < v < math.inf for v in (self.base_batch, self.base_lr, self.tokens_per_run)):
            raise ValidationError("base and budget values must be positive and finite")
        if self.points_per_run < 1:
            raise ValidationError("points_per_run must be at least 1")

    def to_dict(self) -> dict:
        return {
            "models": [{"n_params": m.n_params, "label": m.label} for m in self.models],
            "batch_sizes": list(self.batch_sizes),
            "schemes": [s.value for s in self.schemes],
            "lr_factors": list(self.lr_factors),
            "base_batch": self.base_batch,
            "base_lr": self.base_lr,
            "tokens_per_run": self.tokens_per_run,
            "points_per_run": self.points_per_run,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SynthConfig":
        try:
            return cls(
                models=tuple(
                    ModelSpec(read_field(m, "n_params", float), read_field(m, "label", str, ""))
                    for m in d["models"]
                ),
                batch_sizes=tuple(float(b) for b in d["batch_sizes"]),
                schemes=tuple(LrScheme(s) for s in d["schemes"]),
                lr_factors=tuple(float(f) for f in d["lr_factors"]),
                base_batch=read_field(d, "base_batch", float),
                base_lr=read_field(d, "base_lr", float),
                tokens_per_run=read_field(d, "tokens_per_run", float),
                points_per_run=read_field(d, "points_per_run", int),
            )
        except KeyError as exc:
            raise ParseError(f"sweep config document missing field {exc.args[0]!r}")
        except (TypeError, ValueError, AttributeError, OverflowError) as exc:
            raise ParseError(f"sweep config document is malformed: {exc}") from None


def d_required(gt: GroundTruth, n_params: float, target_loss: float, B: float) -> float:
    """Tokens needed to reach target_loss at batch size B under the planted law.

    The law's own requirement D_min is inflated by the trade-off factor
    e solving (e*B_crit/B - 1)(e - 1) = gamma, the fixed-batch closure of
    the steps/data trade-off.
    """
    if B <= 0:
        raise ValidationError("B must be positive")
    d_min = gt.law.d_for_loss(target_loss, n_params)
    b_ratio = B / gt.bcrit_at(target_loss)
    e = solve_tradeoff(b_ratio, gt.noise.gamma_tradeoff).e_ratio
    return d_min * e


def _loss_at_tokens(gt: GroundTruth, n_params: float, d_eff: float, B: float) -> float:
    """Invert d_required in the loss: the planted loss after d_eff tokens.

    Brackets and bisects on log-loss, which a loss-linked B_crit needs: there
    d_required is no longer a fixed rescaling of the law.
    """
    floor = gt.law.floor_at_n(n_params)
    lo = math.log(floor * (1.0 + 1e-12))
    # an array argument keeps numpy's power, whose last bit can differ
    # from Python's: the generated curves depend on it
    hi = math.log(gt.law.eval(np.asarray(n_params), 1.0))
    while d_required(gt, n_params, math.exp(hi), B) > d_eff:
        hi += math.log(4.0)
        if hi > 50:
            raise ValidationError("loss bracket failed to close")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if d_required(gt, n_params, math.exp(mid), B) > d_eff:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14:
            break
    return math.exp(0.5 * (lo + hi))


def _noise_factor(seed: int, run_id: str, step: int, sigma: float) -> float:
    """Deterministic log-normal factor keyed by (seed, run_id, step)."""
    if sigma == 0.0:
        return 1.0
    digest = hashlib.blake2b(
        f"{seed}|{run_id}|{step}".encode(), digest_size=16
    ).digest()
    u1 = (int.from_bytes(digest[:8], "big") + 0.5) / 2.0**64
    u2 = (int.from_bytes(digest[8:], "big") + 0.5) / 2.0**64
    z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
    return math.exp(sigma * z)


def _checkpoint_steps(total_steps: int, points: int) -> list[int]:
    """Evenly spaced checkpoint steps ending exactly at total_steps."""
    points = min(points, total_steps)
    stride = total_steps / points
    steps = sorted({max(1, round(stride * k)) for k in range(1, points + 1)})
    if steps[-1] != total_steps:
        steps.append(total_steps)
    return steps


def simulate_curve(
    gt: GroundTruth,
    n_params: float,
    B: float,
    lr_peak: float,
    total_tokens: float,
    points: int,
    run_id: str,
    label: str = "",
    scheme: LrScheme = LrScheme.ORIGIN,
    lr_scale: float = 1.0,
) -> RunRecord:
    """One synthetic run: loss checkpoints under the planted generative model.

    The loss at D tokens solves d_required(gt, N, L, B) = D_eff, where
    D_eff = D * (2*rho - rho^2) and rho = lr_peak/eta_opt(B) expresses the
    efficiency cost of an off-optimal learning rate.  rho >= 2 plants a
    divergence: losses grow geometrically and the curve is truncated after
    one non-finite point.  Observation noise is multiplicative log-normal,
    keyed by (seed, run_id, step) so generation order cannot matter.
    """
    if min(n_params, B, lr_peak, total_tokens) <= 0:
        raise ValidationError("n_params, B, lr_peak, total_tokens must be positive")
    total_steps = int(total_tokens // B)
    if total_steps < 1:
        raise ValidationError("total_tokens must cover at least one batch")
    rho = lr_peak / eta_opt_adam(B, gt.noise)
    efficiency = (2.0 * rho - rho * rho) if gt.lr_efficiency else 1.0
    sigma = gt.observation_noise

    if efficiency <= 0.0:
        start = gt.law.eval(np.asarray(n_params), B)  # numpy's power, as above
        steps, losses = [], []
        for i, step in enumerate(_checkpoint_steps(total_steps, points)):
            loss = start * _DIVERGENCE_GROWTH**i
            steps.append(step)
            if loss > _DIVERGENCE_CAP * start:
                losses.append(math.inf)
                break
            losses.append(loss * _noise_factor(gt.seed, run_id, step, sigma))
    else:
        steps = _checkpoint_steps(total_steps, points)
        if gt.bcrit_mode == "constant":
            # a fixed B_crit makes d_required one rescaling of the law's own
            # token requirement, so one trade-off solve covers the whole run
            e = solve_tradeoff(B / gt.bcrit_b0, gt.noise.gamma_tradeoff).e_ratio
            d_eff = np.array(steps, dtype=float) * B * efficiency
            clean = gt.law.eval(n_params, d_eff / e).tolist()
        else:
            clean = [_loss_at_tokens(gt, n_params, step * B * efficiency, B) for step in steps]
        losses = [
            loss * _noise_factor(gt.seed, run_id, step, sigma) for step, loss in zip(steps, clean)
        ]

    return RunRecord(
        run_id=run_id,
        model=ModelSpec(n_params=n_params, label=label),
        batch_size_tokens=B,
        lr_peak=lr_peak,
        lr_scheme=scheme,
        warmup_steps=0,
        decay_steps=0,
        points=Curve(steps, np.array(steps) * B, losses),
        lr_scale=lr_scale,
    )


def _format_batch(b: float) -> str:
    return f"{b / 1e6:g}M"


def simulate_grid(config: SynthConfig, gt: GroundTruth) -> RunSet:
    """All runs of the sweep, deterministic in content and order."""
    runset = RunSet()
    for model in config.models:
        label = model.label or f"{model.n_params:.3g}"
        for b in config.batch_sizes:
            for scheme in config.schemes:
                for factor in config.lr_factors:
                    lr = factor * scale_lr(config.base_lr, config.base_batch, b, scheme)
                    run_id = f"{label}-{_format_batch(b)}-{scheme.value}-x{factor:g}"
                    run = simulate_curve(
                        gt,
                        n_params=model.n_params,
                        B=b,
                        lr_peak=lr,
                        total_tokens=config.tokens_per_run,
                        points=config.points_per_run,
                        run_id=run_id,
                        label=label,
                        scheme=scheme,
                        lr_scale=lr / config.base_lr,
                    )
                    runset.add(run)
    return runset


def default_ground_truth(seed: int = 1, observation_noise: float = 0.005) -> GroundTruth:
    """Planted truth used by the end-to-end oracle tests."""
    return GroundTruth(
        law=REFERENCE_LOSS_LAW,
        noise=NoiseParams(eta_max=1e-3, B_noise=4e6, dL_max=1.0, gamma_tradeoff=1.0),
        bcrit_mode="constant",
        bcrit_b0=4e6,
        lr_efficiency=True,
        observation_noise=observation_noise,
        seed=seed,
    )


def default_sweep_config(
    tokens_per_run: float = 3e11, points_per_run: int = 400
) -> SynthConfig:
    """Five model sizes, seven batch sizes, three LR scaling schemes.

    The base LR is anchored below eta_opt at the base batch so that
    linear-rule runs stay convergent over several doublings.
    """
    return SynthConfig(
        models=(
            ModelSpec(n_params=1.25e8, label="125M"),
            ModelSpec(n_params=3.5e8, label="350M"),
            ModelSpec(n_params=7.6e8, label="760M"),
            ModelSpec(n_params=1.3e9, label="1.3B"),
            ModelSpec(n_params=2.6e9, label="2.6B"),
        ),
        batch_sizes=(5e5, 1e6, 2e6, 4e6, 8e6, 1.6e7, 3.2e7),
        schemes=(LrScheme.ORIGIN, LrScheme.SQRT, LrScheme.LINEAR),
        lr_factors=(1.0,),
        base_batch=5e5,
        base_lr=4.4e-4,
        tokens_per_run=tokens_per_run,
        points_per_run=points_per_run,
    )
