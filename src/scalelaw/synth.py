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

import math
from typing import Iterator

from ._lazy import np
from ._record import Record, fields, replace
from .errors import ValidationError, check_non_negative, check_positive
from .laws import (
    DEFAULT_PRESETS, REFERENCE_LOSS_LAW, ChinchillaLaw, LrScheme, read_field, read_items,
    reading, scale_lr,
)
from .noisescale import NoiseParams, eta_opt_adam, solve_tradeoff
from .runlog import (
    _ROWS_PER_CHUNK, Curve, ModelSpec, RunRecord, RunSet, blake2b, check_new_run_id,
)

# Divergence shaping: per-checkpoint loss growth and the blow-up ratio after
# which the curve is truncated with a single non-finite point.
_DIVERGENCE_GROWTH = 1.5
_DIVERGENCE_CAP = 10.0


class GroundTruth(Record, frozen=True):
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
        check_positive("bcrit_b0", self.bcrit_b0)
        check_positive("bcrit_loss_ref", self.bcrit_loss_ref)
        check_non_negative("observation_noise", self.observation_noise)

    def bcrit_at(self, loss: float) -> float:
        """Critical batch size at a given loss level."""
        if self.bcrit_mode == "constant":
            return self.bcrit_b0
        return self.bcrit_b0 * self.bcrit_loss_ref / loss

    @classmethod
    def from_dict(cls, d: dict) -> "GroundTruth":
        with reading("ground truth document"):
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


class SynthConfig(Record, frozen=True):
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
        for name in ("batch_sizes", "lr_factors"):
            for value in getattr(self, name):
                check_positive(f"{name} entry", value)
        for name in ("base_batch", "base_lr", "tokens_per_run"):
            check_positive(name, getattr(self, name))
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

    def cells(self) -> Iterator[SynthConfig]:
        """One one-run sweep per run of this sweep, in run order."""
        for model in self.models:
            for b in self.batch_sizes:
                for scheme in self.schemes:
                    for factor in self.lr_factors:
                        yield replace(
                            self, models=(model,), batch_sizes=(b,), schemes=(scheme,),
                            lr_factors=(factor,),
                        )

    @classmethod
    def from_dict(cls, d: dict) -> "SynthConfig":
        with reading("sweep config document"):
            return cls(
                models=tuple(
                    ModelSpec(read_field(m, "n_params", float), read_field(m, "label", str, ""))
                    for m in d["models"]
                ),
                batch_sizes=read_items(d, "batch_sizes", float),
                schemes=tuple(LrScheme(s) for s in d["schemes"]),
                lr_factors=read_items(d, "lr_factors", float),
                base_batch=read_field(d, "base_batch", float),
                base_lr=read_field(d, "base_lr", float),
                tokens_per_run=read_field(d, "tokens_per_run", float),
                points_per_run=read_field(d, "points_per_run", int),
            )


def d_required(gt: GroundTruth, n_params: float, target_loss: float, B: float) -> float:
    """Tokens needed to reach target_loss at batch size B under the planted law.

    The law's own requirement D_min is inflated by the trade-off factor
    e solving (e*B_crit/B - 1)(e - 1) = gamma, the fixed-batch closure of
    the steps/data trade-off.
    """
    for name, value in (("n_params", n_params), ("target_loss", target_loss), ("B", B)):
        check_positive(name, value)
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


def _noise_factors(seed: int, run_id: str, steps: np.ndarray, sigma: float) -> np.ndarray:
    """Deterministic log-normal factors of one run, keyed by (seed, run_id, step).

    Each step's key f"{seed}|{run_id}|{step}" is hashed with blake2b; the two
    big-endian halves of its digest become uniforms that a Box-Muller draw
    turns into a standard normal z, and the factor is exp(sigma * z).  The
    factors are made a block of _ROWS_PER_CHUNK steps at a time into one
    array, so the draw holds one block of temporaries, not the run's; each
    key is a copy of the run's hash of f"{seed}|{run_id}|" fed the step,
    which gives the digest of the whole key.  Hashing, sqrt and products
    are exact either way, but numpy's log, cos and exp may differ from the
    C library's in the last bit (they do on AVX-512 builds), so those three
    go through ``math``: the emitted curves are pinned by digest.
    """
    out = np.ones(len(steps))
    if sigma == 0.0:
        return out
    prefix = blake2b(f"{seed}|{run_id}|".encode(), digest_size=16)
    for start in range(0, len(steps), _ROWS_PER_CHUNK):
        block = steps[start : start + _ROWS_PER_CHUNK].tolist()
        digests = []
        for step in block:
            h = prefix.copy()
            h.update(b"%d" % step)
            digests.append(h.digest())
        # uint64 -> float64 rounds to nearest, as Python's int -> float does
        u = (np.frombuffer(b"".join(digests), ">u8").astype(np.float64) + 0.5) / 2.0**64
        log_u1 = np.array(list(map(math.log, u[0::2].tolist())))
        cos_u2 = np.array(list(map(math.cos, (2.0 * math.pi * u[1::2]).tolist())))
        z = np.sqrt(-2.0 * log_u1) * cos_u2
        out[start : start + len(block)] = list(map(math.exp, (sigma * z).tolist()))
    return out


def _checkpoint_steps(total_steps: int, points: int) -> np.ndarray:
    """Evenly spaced checkpoint steps ending exactly at total_steps."""
    points = min(points, total_steps)
    stride = total_steps / points
    # np.round halves to even, as round() does; the steps never decrease,
    # so dropping adjacent repeats leaves each step once
    steps = np.maximum(np.round(stride * np.arange(1, points + 1)), 1).astype(np.int64)
    steps = steps[np.concatenate(([True], steps[1:] != steps[:-1]))]
    if steps[-1] != total_steps:
        steps = np.append(steps, total_steps)
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
    keyed by (seed, run_id, step) so generation order cannot matter; it is
    drawn, and the clean losses made, a block of checkpoints at a time, with
    log, cos and exp taken from ``math`` so the bytes match the
    per-checkpoint definition (see _noise_factors).
    """
    for name, value in (
        ("n_params", n_params), ("B", B), ("lr_peak", lr_peak), ("total_tokens", total_tokens)
    ):
        check_positive(name, value)
    n_batches = total_tokens // B
    if n_batches < 1:
        raise ValidationError("total_tokens must cover at least one batch")
    # checkpoint steps are int64 computed through float64, exact below 2**53
    if n_batches >= 2.0**53:
        raise ValidationError("total_tokens must cover fewer than 2**53 batches")
    total_steps = int(n_batches)
    rho = lr_peak / eta_opt_adam(B, gt.noise)
    efficiency = (2.0 * rho - rho * rho) if gt.lr_efficiency else 1.0
    sigma = gt.observation_noise

    steps = _checkpoint_steps(total_steps, points)
    if efficiency <= 0.0:
        start = gt.law.eval(np.asarray(n_params), B)  # numpy's power, as above
        clean = []
        for i in range(len(steps)):
            loss = start * _DIVERGENCE_GROWTH**i
            if loss > _DIVERGENCE_CAP * start:
                break
            clean.append(loss)
        # the point past the cap, if the grid reaches it, is the non-finite
        # one; the copy lets the rest of the grid go
        steps = steps[: len(clean) + 1].copy()
        noisy = np.array(clean) * _noise_factors(gt.seed, run_id, steps[: len(clean)], sigma)
        losses = np.append(noisy, [math.inf] * (len(steps) - len(clean)))
    else:
        if gt.bcrit_mode == "constant":
            # a fixed B_crit makes d_required one rescaling of the law's own
            # token requirement, so one trade-off solve covers the whole run
            e = solve_tradeoff(B / gt.bcrit_b0, gt.noise.gamma_tradeoff).e_ratio

            def clean(block: np.ndarray) -> np.ndarray:
                return gt.law.eval(n_params, block * B * efficiency / e)
        else:

            def clean(block: np.ndarray) -> np.ndarray:
                return np.array([
                    _loss_at_tokens(gt, n_params, step * B * efficiency, B)
                    for step in block.tolist()
                ])

        # a block of clean losses at a time scales the noise factors in place:
        # a product commutes, so these are the bytes of clean * noise
        losses = _noise_factors(gt.seed, run_id, steps, sigma)
        for start in range(0, len(steps), _ROWS_PER_CHUNK):
            block = slice(start, start + _ROWS_PER_CHUNK)
            losses[block] *= clean(steps[block])

    return RunRecord(
        run_id=run_id,
        model=ModelSpec(n_params=n_params, label=label),
        batch_size_tokens=B,
        lr_peak=lr_peak,
        lr_scheme=scheme,
        warmup_steps=0,
        decay_steps=0,
        points=Curve(steps, steps * B, losses),
        lr_scale=lr_scale,
    )


def _format_batch(b: float) -> str:
    return f"{b / 1e6:g}M"


def _cell_run(cell: SynthConfig, gt: GroundTruth) -> RunRecord:
    """The run of a one-run sweep."""
    (model,), (b,) = cell.models, cell.batch_sizes
    (scheme,), (factor,) = cell.schemes, cell.lr_factors
    label = model.label or f"{model.n_params:.3g}"
    lr = factor * scale_lr(cell.base_lr, cell.base_batch, b, scheme)
    return simulate_curve(
        gt,
        n_params=model.n_params,
        B=b,
        lr_peak=lr,
        total_tokens=cell.tokens_per_run,
        points=cell.points_per_run,
        run_id=f"{label}-{_format_batch(b)}-{scheme.value}-x{factor:g}",
        label=label,
        scheme=scheme,
        lr_scale=lr / cell.base_lr,
    )


def simulate_grid(config: SynthConfig, gt: GroundTruth) -> RunSet:
    """All runs of the sweep, deterministic in content and order."""
    runset = RunSet()
    for cell in config.cells():
        runset.add(_cell_run(cell, gt))
    return runset


def iter_grid(config: SynthConfig, gt: GroundTruth) -> Iterator[RunRecord]:
    """The runs of the sweep one at a time, in simulate_grid's order.

    Each run is simulate_grid of its one-run cell, so it is made and
    validated as in the whole grid, and a run id met before raises
    RunSet.add's ConflictError: a writer can stream the sweep without
    holding it.
    """
    seen: set[str] = set()
    for cell in config.cells():
        (run,) = simulate_grid(cell, gt)
        check_new_run_id(seen, run.run_id)
        seen.add(run.run_id)
        yield run


def default_ground_truth(seed: int = 1, observation_noise: float = 0.005) -> GroundTruth:
    """Planted truth used by the end-to-end oracle tests."""
    return GroundTruth(
        law=REFERENCE_LOSS_LAW,
        noise=NoiseParams(eta_max=1e-3, B_noise=4e6, dL_max=1.0, gamma_tradeoff=1.0),
        observation_noise=observation_noise,
        seed=seed,
    )


def default_sweep_config(
    tokens_per_run: float = SynthConfig.tokens_per_run,
    points_per_run: int = SynthConfig.points_per_run,
) -> SynthConfig:
    """The five preset model sizes, seven batch sizes, three LR scaling
    schemes, and SynthConfig's defaults for the rest.

    The default base LR is anchored below eta_opt at the base batch so that
    linear-rule runs stay convergent over several doublings.
    """
    return SynthConfig(
        models=tuple(ModelSpec(n_params=row.n_params, label=row.label) for row in DEFAULT_PRESETS),
        batch_sizes=(5e5, 1e6, 2e6, 4e6, 8e6, 1.6e7, 3.2e7),
        schemes=(LrScheme.ORIGIN, LrScheme.SQRT, LrScheme.LINEAR),
        tokens_per_run=tokens_per_run,
        points_per_run=points_per_run,
    )
