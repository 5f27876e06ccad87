"""The one positive-and-finite rule: every record field and argument that
must be a positive (or non-negative) finite number refuses NaN, both
infinities, zero where zero is not allowed and negatives, with a
ValidationError that names it."""

import functools
import math

import pytest

from scalelaw import (
    ContourPoint,
    Curve,
    FrontierPoint,
    LossSurface,
    LrLawFit,
    LrSample,
    ModelSpec,
    NoiseParams,
    PresetRow,
    Presets,
    SynthConfig,
    ValidationError,
    advise_compute,
    advise_data,
    bopt_law_from_runs,
    d_required,
    default_ground_truth,
    eta_opt_adam,
    eta_opt_sgd,
    fit_bopt_law,
    fit_gamma,
    fit_loss_law,
    huber,
    iso_loss_contour,
    reference_artifact,
    scale_lr,
    simulate_curve,
    simulate_grid,
    smooth_curve,
)
from scalelaw._record import replace
from scalelaw.errors import check_non_negative, check_positive
from scalelaw.runlog import loss_inverse

GT = default_ground_truth(seed=1, observation_noise=0.0)
NOISE = dict(eta_max=1e-3, B_noise=4e6, dL_max=1.0, gamma_tradeoff=1.0)
# C = 6 * N * D and D = S * B, as a frontier point needs
FRONTIER_POINT = dict(C=1.2e18, loss=3.0, N=1e8, D=2e9, S=1000.0, B=2e6)
PRESET = dict(n_params=1.25e8, label="125M", batch_size=5e5, max_lr=6e-4,
              warmup_steps=715, decay_steps=500000)
SURFACE = dict(d_checkpoint=1e9, grid_B=[1e6, 2e6, 4e6], grid_LR=[0.5, 1.0, 2.0],
               losses=[[2.0] * 3] * 3, base_lr=3e-4)
CURVE = Curve([1, 2, 3], [1e6, 2e6, 3e6], [3.0, 2.9, 2.8])
SIMULATE = dict(n_params=1.25e8, B=5e5, lr_peak=4e-4, total_tokens=1e9)
LR_SAMPLES = [LrSample(B=2.0**k * 1e6, lr_opt=1e-4 * 2.0**k, loss_at_opt=3.0) for k in range(4)]
LAW_SAMPLES = [(n, d, 3.0) for n in (1e8, 1e9) for d in (1e9, 2e9, 4e9, 8e9)]
REFERENCE = reference_artifact()


@functools.cache
def contour_runs():
    sweep = SynthConfig(
        models=(ModelSpec(n_params=1.25e8),), batch_sizes=(5e5, 2e6, 8e6),
        tokens_per_run=3e10, points_per_run=50,
    )
    return simulate_grid(sweep, GT)


def _positive_cases():
    """(test id, field name, call with the field set to a value) of every guarded site."""
    for name in NOISE:
        yield f"NoiseParams.{name}", name, lambda v, name=name: NoiseParams(**{**NOISE, name: v})
    yield "eta_opt_sgd", "B", lambda v: eta_opt_sgd(v, GT.noise)
    yield "eta_opt_adam", "B", lambda v: eta_opt_adam(v, GT.noise)
    for name in ("bcrit_b0", "bcrit_loss_ref"):
        yield f"GroundTruth.{name}", name, lambda v, name=name: replace(GT, **{name: v})
    yield "d_required", "B", lambda v: d_required(GT, 1.25e8, 3.0, v)
    yield "d_required.n_params", "n_params", lambda v: d_required(GT, v, 3.0, 1e6)
    yield "d_required.target_loss", "target_loss", lambda v: d_required(GT, 1.25e8, v, 1e6)
    for name in SIMULATE:
        yield f"simulate_curve.{name}", name, lambda v, name=name: simulate_curve(
            GT, **{**SIMULATE, name: v}, points=10, run_id="r"
        )
    for i, name in enumerate(("base_lr", "base_B", "new_B")):
        yield f"scale_lr.{name}", name, lambda v, i=i: scale_lr(
            *[v if j == i else 1.0 for j in range(3)]
        )
    for name in ("loss_level", "B", "D_required"):
        yield f"ContourPoint.{name}", name, lambda v, name=name: ContourPoint(
            **{"loss_level": 3.0, "B": 1e6, "D_required": 1e7, name: v}
        )
    yield "iso_loss_contour", "loss level", lambda v: iso_loss_contour(contour_runs(), [3.0, v])
    yield "smooth_curve", "half_life_tokens", lambda v: smooth_curve(CURVE, v)
    for name in FRONTIER_POINT:
        yield f"FrontierPoint.{name}", name, lambda v, name=name: FrontierPoint(
            **{**FRONTIER_POINT, name: v}
        )
    for name in ("n_params", "batch_size", "max_lr"):
        yield f"PresetRow.{name}", name, lambda v, name=name: PresetRow(**{**PRESET, name: v})
    yield "Presets.lookup", "n_params", lambda v: Presets().lookup(v)
    yield "advise_compute", "C", lambda v: advise_compute(REFERENCE.frontier, v)
    yield "advise_data.D", "D", lambda v: advise_data(REFERENCE.bopt, v)
    yield "advise_data.n_params", "n_params", lambda v: advise_data(
        REFERENCE.bopt, 1e12, n_params=v
    )
    for name in ("lr_ceiling", "plateau_onset_B", "base_lr", "base_B", "d_checkpoint"):
        yield f"LrLawFit.{name}", name, lambda v, name=name: LrLawFit(
            **{"gamma": 0.5, "lr_ceiling": None, "plateau_onset_B": None, name: v}
        )
    yield "ModelSpec", "n_params", lambda v: ModelSpec(n_params=v)
    yield "loss_inverse", "target_loss", lambda v: loss_inverse(CURVE)(v)
    for name in ("d_checkpoint", "base_lr"):
        yield f"LossSurface.{name}", name, lambda v, name=name: LossSurface(
            **{**SURFACE, name: v}
        )
    yield "fit_gamma", "plateau_tolerance", lambda v: fit_gamma(LR_SAMPLES, plateau_tolerance=v)
    yield "huber", "delta", lambda v: huber(0.1, v)
    yield "fit_loss_law", "delta", lambda v: fit_loss_law(LAW_SAMPLES, delta=v)
    yield "fit_bopt_law", "s_floor_hint", lambda v: fit_bopt_law([], s_floor_hint=v)
    yield "bopt_law_from_runs", "s_floor_hint", lambda v: bopt_law_from_runs(
        contour_runs(), s_floor_hint=v
    )


def _non_negative_cases():
    yield "GroundTruth.observation_noise", "observation_noise", lambda v: replace(
        GT, observation_noise=v
    )
    for name in ("warmup_steps", "decay_steps"):
        yield f"PresetRow.{name}", name, lambda v, name=name: PresetRow(**{**PRESET, name: v})
    yield "LrLawFit.n_fit", "n_fit", lambda v: LrLawFit(
        gamma=0.5, lr_ceiling=None, plateau_onset_B=None, n_fit=v
    )


def _params(cases):
    return [pytest.param(name, call, id=label) for label, name, call in cases]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("name, call", _params(_positive_cases()))
def test_positive_fields_refuse_non_finite_and_non_positive_values(name, call, value):
    with pytest.raises(ValidationError, match=f"^{name} must be positive and finite, got "):
        call(value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
@pytest.mark.parametrize("name, call", _params(_non_negative_cases()))
def test_non_negative_fields_refuse_non_finite_and_negative_values(name, call, value):
    with pytest.raises(ValidationError, match=f"^{name} must be non-negative, got "):
        call(value)


def test_the_valid_values_of_the_cases_pass():
    # each case fails only through the value it is given
    NoiseParams(**NOISE)
    FrontierPoint(**FRONTIER_POINT)
    PresetRow(**PRESET)
    LossSurface(**SURFACE)
    simulate_curve(GT, **SIMULATE, points=10, run_id="r")
    assert d_required(GT, 1.25e8, 3.0, 1e6) > 0
    assert Presets().lookup(1.25e8).n_params == 1.25e8
    advise_compute(REFERENCE.frontier, 1e21)
    advise_data(REFERENCE.bopt, 1e12, n_params=1e9)
    assert ContourPoint(loss_level=3.0, B=1e6, D_required=1e7).B == 1e6
    assert 3.0 in iso_loss_contour(contour_runs(), [3.0])
    assert loss_inverse(CURVE)(2.9) == pytest.approx(2e6, rel=1e-12)
    assert replace(GT, observation_noise=0.0).observation_noise == 0.0


def test_helpers_name_the_value_and_take_the_edges():
    check_positive("x", 5e-324)
    check_positive("x", 1.7976931348623157e308)
    check_non_negative("x", 0.0)
    check_non_negative("x", -0.0)
    with pytest.raises(ValidationError, match=r"^rate must be positive and finite, got nan$"):
        check_positive("rate", math.nan)
    with pytest.raises(ValidationError, match=r"^count must be non-negative, got inf$"):
        check_non_negative("count", math.inf)
