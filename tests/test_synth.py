import hashlib
import math
from dataclasses import replace

import pytest

from scalelaw import (
    ChinchillaLaw,
    FrontierConstraint,
    InfeasibleTargetError,
    LrScheme,
    ModelSpec,
    NoiseParams,
    ParseError,
    ValidationError,
    eta_opt_adam,
    fit_loss_law,
    has_divergence,
    samples_from_runs,
    serialize_runs,
)
from scalelaw.synth import (
    GroundTruth,
    SynthConfig,
    d_required,
    default_ground_truth,
    default_sweep_config,
    simulate_curve,
    simulate_grid,
)

LAW = ChinchillaLaw(E=1.48, A=314.35, alpha=0.331, Bcoef=460.51, beta=0.286)


def quiet_truth(**overrides):
    base = dict(
        law=LAW,
        noise=NoiseParams(eta_max=1e-3, B_noise=4e6, dL_max=1.0, gamma_tradeoff=1.0),
        bcrit_mode="constant",
        bcrit_b0=4e6,
        lr_efficiency=True,
        observation_noise=0.0,
        seed=1,
    )
    base.update(overrides)
    return GroundTruth(**base)


# ---------------------------------------------------------------------------
# d_required: fixed-batch overhead closure


def test_d_required_doubles_at_critical_batch():
    gt = quiet_truth()
    d_min = LAW.d_for_loss(2.6, 3.5e8)
    assert d_required(gt, 3.5e8, 2.6, 4e6) == pytest.approx(2.0 * d_min, rel=1e-12)


def test_d_required_ten_times_critical_costs_eleven():
    gt = quiet_truth()
    d_min = LAW.d_for_loss(2.6, 3.5e8)
    assert d_required(gt, 3.5e8, 2.6, 4e7) == pytest.approx(11.0 * d_min, rel=1e-12)


def test_d_required_vanishing_batch_approaches_minimum():
    gt = quiet_truth()
    d_min = LAW.d_for_loss(2.6, 3.5e8)
    assert d_required(gt, 3.5e8, 2.6, 0.4) == pytest.approx(d_min, rel=1e-6)


def test_d_required_grows_with_batch():
    gt = quiet_truth()
    values = [d_required(gt, 3.5e8, 2.6, b) for b in (1e5, 1e6, 1e7, 1e8)]
    assert values == sorted(values)
    # steps to target shrink as batch grows even though tokens grow
    steps = [d_required(gt, 3.5e8, 2.6, b) / b for b in (1e5, 1e6, 1e7, 1e8)]
    assert steps == sorted(steps, reverse=True)


def test_d_required_infeasible_target_reports_floor():
    gt = quiet_truth()
    with pytest.raises(InfeasibleTargetError) as excinfo:
        d_required(gt, 3.5e8, 1.0, 4e6)
    assert excinfo.value.floor == pytest.approx(LAW.floor_at_n(3.5e8), rel=1e-12)
    with pytest.raises(ValidationError):
        d_required(gt, 3.5e8, 2.6, 0.0)


# ---------------------------------------------------------------------------
# simulate_curve


def rows(run):
    """(step, tokens, loss) per checkpoint, as Python numbers."""
    pts = run.points
    return list(zip(pts.step.tolist(), pts.tokens.tolist(), pts.loss.tolist()))


def test_curve_small_batch_optimal_lr_reduces_to_law():
    gt = quiet_truth(bcrit_b0=1e13)
    lr = eta_opt_adam(1e6, gt.noise)
    run = simulate_curve(
        gt, n_params=3.5e8, B=1e6, lr_peak=lr, total_tokens=2e10, points=50,
        run_id="tiny-b",
    )
    assert len(run.points) == 50
    for step, tokens, loss in rows(run):
        assert tokens == step * 1e6
        assert loss == pytest.approx(LAW.eval(3.5e8, tokens), rel=1e-6)


def test_curve_at_critical_batch_halves_effective_tokens():
    gt = quiet_truth()
    run = simulate_curve(
        gt, n_params=3.5e8, B=4e6, lr_peak=1e-3, total_tokens=4e10, points=40,
        run_id="crit-b",
    )
    for _, tokens, loss in rows(run):
        assert loss == pytest.approx(LAW.eval(3.5e8, tokens / 2.0), rel=1e-9)


def test_curve_satisfies_generator_closure():
    # every checkpoint inverts d_required exactly, in both bcrit modes
    for mode in ("constant", "loss_linked"):
        gt = quiet_truth(bcrit_mode=mode)
        lr = eta_opt_adam(2e6, gt.noise)
        run = simulate_curve(
            gt, n_params=3.5e8, B=2e6, lr_peak=lr, total_tokens=2e10, points=20,
            run_id=f"closure-{mode}",
        )
        for _, tokens, loss in rows(run)[::5]:
            assert d_required(gt, 3.5e8, loss, 2e6) == pytest.approx(tokens, rel=1e-8)


def test_curve_loss_monotone_in_tokens():
    gt = quiet_truth(bcrit_mode="loss_linked")
    run = simulate_curve(
        gt, n_params=1.25e8, B=4e6, lr_peak=8e-4, total_tokens=1e11, points=200,
        run_id="mono",
    )
    losses = run.points.loss.tolist()
    assert all(b <= a for a, b in zip(losses, losses[1:]))


def test_curve_larger_batch_needs_more_tokens_fewer_steps():
    gt = quiet_truth()
    small = simulate_curve(
        gt, 3.5e8, B=1e6, lr_peak=eta_opt_adam(1e6, gt.noise),
        total_tokens=2e10, points=100, run_id="b1",
    )
    large = simulate_curve(
        gt, 3.5e8, B=8e6, lr_peak=eta_opt_adam(8e6, gt.noise),
        total_tokens=2e10, points=100, run_id="b8",
    )
    # same token budget: the smaller batch ends lower
    assert small.points.loss[-1] < large.points.loss[-1]
    # same step count: the larger batch ends lower
    assert large.points.step[-1] < small.points.step[-1]
    step_matched = [loss for step, _, loss in rows(small) if step >= large.points.step[-1]]
    assert step_matched[0] > large.points.loss[-1]


def test_curve_double_lr_plants_divergence():
    gt = quiet_truth()
    run = simulate_curve(
        gt, n_params=3.5e8, B=4e6, lr_peak=2e-3, total_tokens=1e11, points=20,
        run_id="diverged",
    )
    losses = run.points.loss.tolist()
    assert math.isinf(losses[-1])
    finite = losses[:-1]
    # geometric growth from the at-initialization loss until the cap
    assert len(run.points) == 7
    assert finite[0] == pytest.approx(LAW.eval(3.5e8, 4e6), rel=1e-12)
    for a, b in zip(finite, finite[1:]):
        assert b / a == pytest.approx(1.5, rel=1e-12)


def test_curve_just_below_double_lr_converges():
    gt = quiet_truth()
    run = simulate_curve(
        gt, n_params=3.5e8, B=4e6, lr_peak=1.95e-3, total_tokens=1e10, points=20,
        run_id="barely",
    )
    assert all(math.isfinite(loss) for loss in run.points.loss)
    losses = run.points.loss.tolist()
    assert all(b <= a for a, b in zip(losses, losses[1:]))


def test_curve_checkpoint_cadence():
    gt = quiet_truth()
    run = simulate_curve(
        gt, 3.5e8, B=1e6, lr_peak=6e-4, total_tokens=2e9, points=100, run_id="cad"
    )
    assert len(run.points) == 100
    assert run.points.tokens[-1] == 2e9
    short = simulate_curve(
        gt, 3.5e8, B=1e6, lr_peak=6e-4, total_tokens=5e6, points=100, run_id="short"
    )
    assert short.points.step.tolist() == [1, 2, 3, 4, 5]


def test_curve_input_validation():
    gt = quiet_truth()
    with pytest.raises(ValidationError, match="positive"):
        simulate_curve(gt, 3.5e8, B=-1e6, lr_peak=6e-4, total_tokens=1e9,
                       points=10, run_id="bad")
    with pytest.raises(ValidationError, match="at least one batch"):
        simulate_curve(gt, 3.5e8, B=1e6, lr_peak=6e-4, total_tokens=5e5,
                       points=10, run_id="bad")


# ---------------------------------------------------------------------------
# ground truth parameters


def test_bcrit_modes():
    constant = quiet_truth()
    assert constant.bcrit_at(3.5) == 4e6
    assert constant.bcrit_at(2.0) == 4e6
    linked = quiet_truth(bcrit_mode="loss_linked", bcrit_loss_ref=2.5)
    assert linked.bcrit_at(2.5) == pytest.approx(4e6, rel=1e-12)
    assert linked.bcrit_at(1.25) == pytest.approx(8e6, rel=1e-12)


def test_lr_efficiency_flag_disables_dilution():
    gt = quiet_truth(lr_efficiency=False)
    run = simulate_curve(
        gt, 3.5e8, B=4e6, lr_peak=5e-3, total_tokens=4e10, points=10, run_id="flat-lr"
    )
    for _, tokens, loss in rows(run):
        assert loss == pytest.approx(LAW.eval(3.5e8, tokens / 2.0), rel=1e-9)


def test_ground_truth_validation():
    with pytest.raises(ValidationError, match="bcrit_mode"):
        quiet_truth(bcrit_mode="adaptive")
    with pytest.raises(ValidationError, match="positive"):
        quiet_truth(bcrit_b0=0.0)
    with pytest.raises(ValidationError, match="non-negative"):
        quiet_truth(observation_noise=-0.1)


def test_ground_truth_dict_round_trip():
    gt = default_ground_truth(seed=7, observation_noise=0.01)
    doc = gt.to_dict()
    assert doc["seed"] == 7
    assert GroundTruth.from_dict(doc) == gt
    missing = {k: v for k, v in doc.items() if k != "seed"}
    with pytest.raises(ParseError, match="seed"):
        GroundTruth.from_dict(missing)


def test_sweep_config_dict_round_trip():
    cfg = default_sweep_config()
    doc = cfg.to_dict()
    assert SynthConfig.from_dict(doc) == cfg
    missing = {k: v for k, v in doc.items() if k != "batch_sizes"}
    with pytest.raises(ParseError, match="batch_sizes"):
        SynthConfig.from_dict(missing)


def test_sweep_config_validation():
    with pytest.raises(ValidationError, match="non-empty"):
        SynthConfig(models=(), batch_sizes=(1e6,))
    with pytest.raises(ValidationError, match="positive"):
        SynthConfig(models=(ModelSpec(n_params=1e8),), batch_sizes=(-1e6,))
    with pytest.raises(ValidationError, match="points_per_run"):
        SynthConfig(
            models=(ModelSpec(n_params=1e8),), batch_sizes=(1e6,), points_per_run=0
        )
    # NaN fails every comparison, so it must be rejected explicitly
    for bad in ({"batch_sizes": (math.nan,)}, {"batch_sizes": (math.inf,)},
                {"lr_factors": (1.0, math.nan)}, {"base_batch": math.nan},
                {"base_lr": math.inf}, {"tokens_per_run": math.nan}):
        with pytest.raises(ValidationError, match="positive and finite"):
            SynthConfig(**{"models": (ModelSpec(n_params=1e8),), "batch_sizes": (1e6,), **bad})


# ---------------------------------------------------------------------------
# simulate_grid


def test_grid_single_combination():
    cfg = SynthConfig(
        models=(ModelSpec(n_params=3.5e8, label="350M"),),
        batch_sizes=(5e5,),
        tokens_per_run=1e9,
        points_per_run=10,
    )
    runset = simulate_grid(cfg, quiet_truth())
    assert len(runset) == 1
    assert "350M-0.5M-origin-x1" in runset


def test_grid_default_sweep_is_105_runs():
    cfg = default_sweep_config(tokens_per_run=1e9, points_per_run=3)
    runset = simulate_grid(cfg, quiet_truth())
    assert len(runset) == 5 * 7 * 3
    assert sorted(runset.model_sizes()) == [1.25e8, 3.5e8, 7.6e8, 1.3e9, 2.6e9]
    schemes = {run.lr_scheme for run in runset}
    assert schemes == {LrScheme.ORIGIN, LrScheme.SQRT, LrScheme.LINEAR}


def test_grid_is_deterministic():
    cfg = SynthConfig(
        models=(ModelSpec(n_params=1.25e8, label="125M"),),
        batch_sizes=(5e5, 2e6),
        lr_factors=(0.5, 1.0),
        tokens_per_run=2e9,
        points_per_run=25,
    )
    gt = default_ground_truth(seed=11, observation_noise=0.01)
    first = simulate_grid(cfg, gt)
    second = simulate_grid(cfg, gt)
    assert list(first.runs) == list(second.runs)
    for run_id in first.runs:
        assert replace(first[run_id], points=None) == replace(second[run_id], points=None)
        assert rows(first[run_id]) == rows(second[run_id])


def test_grid_seed_changes_losses_not_grids():
    cfg = SynthConfig(
        models=(ModelSpec(n_params=1.25e8, label="125M"),),
        batch_sizes=(5e5,),
        tokens_per_run=2e9,
        points_per_run=25,
    )
    run_a = next(iter(simulate_grid(cfg, default_ground_truth(seed=1))))
    run_b = next(iter(simulate_grid(cfg, default_ground_truth(seed=2))))
    assert run_a.points.step.tolist() == run_b.points.step.tolist()
    assert run_a.points.tokens.tolist() == run_b.points.tokens.tolist()
    assert any(a != b for a, b in zip(run_a.points.loss, run_b.points.loss))


def test_grid_scheme_sets_peak_lr():
    cfg = SynthConfig(
        models=(ModelSpec(n_params=1.25e8, label="125M"),),
        batch_sizes=(2e6,),
        schemes=(LrScheme.ORIGIN, LrScheme.SQRT, LrScheme.LINEAR),
        base_batch=5e5,
        base_lr=4.4e-4,
        tokens_per_run=1e9,
        points_per_run=5,
    )
    runset = simulate_grid(cfg, quiet_truth())
    assert runset["125M-2M-origin-x1"].lr_peak == pytest.approx(4.4e-4, rel=1e-12)
    assert runset["125M-2M-sqrt-x1"].lr_peak == pytest.approx(8.8e-4, rel=1e-12)
    assert runset["125M-2M-linear-x1"].lr_peak == pytest.approx(1.76e-3, rel=1e-12)


# ---------------------------------------------------------------------------
# oracle closure with the law fitter


def planted_constraint(law):
    share = law.beta / (law.alpha + law.beta)
    gain = (law.alpha * law.A / (law.beta * law.Bcoef)) ** (1.0 / (law.alpha + law.beta))
    p = gain * 6.0 ** (-share)
    q = (1.0 / gain) * 6.0 ** (share - 1.0)
    return FrontierConstraint(a=share, b=1.0 - share, p=p, q=q)


def test_noise_free_grid_recovers_planted_law():
    gt = quiet_truth(bcrit_b0=1e14, lr_efficiency=False)
    cfg = SynthConfig(
        models=tuple(
            ModelSpec(n_params=n) for n in (1.25e8, 3.5e8, 7.6e8, 1.3e9, 2.6e9)
        ),
        batch_sizes=(5e5, 4e6),
        tokens_per_run=3e10,
        points_per_run=60,
    )
    samples = samples_from_runs(simulate_grid(cfg, gt), smooth=False)
    report = fit_loss_law(samples, constraint=planted_constraint(LAW))
    assert report.law.E == pytest.approx(LAW.E, rel=1e-3)
    assert report.law.alpha == pytest.approx(LAW.alpha, abs=1e-3)
    assert report.law.beta == pytest.approx(LAW.beta, abs=1e-3)
    assert report.r_squared > 0.9999


# ---------------------------------------------------------------------------
# generator bytes: any change to the emitted curves shows up as a new digest.
# The digests were recorded from the per-checkpoint scalar generator, so they
# also pin the vectorised constant-B_crit path to the same float results.

GOLDEN_SWEEP = SynthConfig(
    models=(ModelSpec(n_params=1.25e8, label="125M"), ModelSpec(n_params=7.6e8, label="760M")),
    batch_sizes=(5e5, 4e6, 3.2e7),
    schemes=(LrScheme.ORIGIN, LrScheme.LINEAR),
    lr_factors=(1.0, 2.5),
    tokens_per_run=2e10,
    points_per_run=60,
)
GOLDEN_LOSS_LINKED_SWEEP = SynthConfig(
    models=(ModelSpec(n_params=1.25e8, label="125M"),),
    batch_sizes=(5e5, 4e6, 3.2e7),
    tokens_per_run=2e10,
    points_per_run=20,
)


def _digest(runset) -> str:
    return hashlib.sha256("\n".join(serialize_runs(runset)).encode()).hexdigest()


@pytest.mark.parametrize(
    "config, truth, digest",
    [
        (
            GOLDEN_SWEEP,
            default_ground_truth(seed=3),
            "04cd0591f578ebf386db0c7920b0a7ae47f8af1e718728a0990b70596b42bfbd",
        ),
        (
            GOLDEN_SWEEP,
            default_ground_truth(seed=3, observation_noise=0.0),
            "0556d52f9ee8f731bdab2e7bde2fc725776202f4f17090ce06a074f09ddc25f0",
        ),
        (
            GOLDEN_LOSS_LINKED_SWEEP,
            replace(default_ground_truth(seed=3), bcrit_mode="loss_linked"),
            "1ab6cbd56c5afe49db03228ea3916fdddaff55d59574d1b4227881849c351e86",
        ),
    ],
    ids=["noisy", "noise-free", "loss-linked"],
)
def test_grid_bytes_are_pinned(config, truth, digest):
    runset = simulate_grid(config, truth)
    # the sweep must keep exercising every generator branch it pins
    assert any(has_divergence(run.points) for run in runset) == (config is GOLDEN_SWEEP)
    assert _digest(runset) == digest
