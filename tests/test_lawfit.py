import math
import random

import numpy as np
import pytest

from scalelaw import (
    ChinchillaLaw,
    DegenerateVarianceError,
    FitFailureError,
    FrontierConstraint,
    InfeasibleTargetError,
    KaplanLaw,
    ValidationError,
    apply_constraint,
    fit_loss_law,
    has_divergence,
    huber,
    r_squared,
    samples_from_runs,
)
from scalelaw import lawfit
from scalelaw.lawfit import default_init_grid

CHINCHILLA_PUBLISHED = ChinchillaLaw(E=1.69, A=406.4, alpha=0.34, Bcoef=410.7, beta=0.28)


# ---------------------------------------------------------------------------
# additive law evaluation


def test_eval_limits_recover_irreducible_term(ref_law):
    assert ref_law.eval(1e40, 1e40) == pytest.approx(ref_law.E, abs=1e-6)
    assert ref_law.E == 1.48


def test_eval_large_model_one_trillion_tokens(ref_law):
    assert ref_law.eval(2.6e9, 1e12) == pytest.approx(1.89, abs=0.005)


def test_eval_small_model_with_more_data_matches(ref_law):
    assert ref_law.eval(1e9, 1.5e13) == pytest.approx(1.89, abs=0.01)


def test_eval_chinchilla_published_limit():
    assert CHINCHILLA_PUBLISHED.eval(1e40, 1e40) == pytest.approx(1.69, abs=1e-6)


def test_eval_broadcasts_over_grids(ref_law):
    n = np.array([1e8, 1e9])
    d = np.array([1e10, 1e11])
    out = ref_law.eval(n[:, None], d[None, :])
    assert out.shape == (2, 2)
    assert out[0, 0] == pytest.approx(ref_law.eval(1e8, 1e10))


def test_eval_rejects_nonpositive(ref_law):
    with pytest.raises(ValidationError):
        ref_law.eval(-1e8, 1e10)


def test_law_parameter_validation():
    with pytest.raises(ValidationError):
        ChinchillaLaw(E=1.5, A=100.0, alpha=1.2, Bcoef=100.0, beta=0.3)
    with pytest.raises(ValidationError):
        ChinchillaLaw(E=-0.1, A=100.0, alpha=0.3, Bcoef=100.0, beta=0.3)


# ---------------------------------------------------------------------------
# power-form law

GPT3_ROW = KaplanLaw.from_exponent_ratio(Nc=8.8e13, ratio=0.8, Dc=5.4e13, alpha_D=0.095)


def test_kaplan_infinite_data_limit():
    n = 1e9
    assert GPT3_ROW.eval(n, 1e30) == pytest.approx((8.8e13 / n) ** GPT3_ROW.alpha_N, rel=1e-9)
    assert GPT3_ROW.limit_at_n(n) == pytest.approx((8.8e13 / n) ** 0.076, rel=1e-12)


def test_kaplan_at_both_scale_constants():
    assert GPT3_ROW.eval(8.8e13, 5.4e13) == pytest.approx(2**0.095, rel=1e-12)


def test_kaplan_collapses_to_one():
    assert GPT3_ROW.eval(8.8e13, 1e30) == pytest.approx(1.0, abs=1e-9)


def test_kaplan_exponent_ratio_construction():
    assert GPT3_ROW.alpha_N == pytest.approx(0.076)
    assert GPT3_ROW.alpha_D == 0.095


# ---------------------------------------------------------------------------
# huber penalty


def test_huber_zero():
    assert huber(0.0, 1e-3) == 0.0


def test_huber_branch_boundary():
    delta = 1e-3
    quad = 0.5 * delta * delta
    lin = delta * (delta - 0.5 * delta)
    assert quad == lin
    assert huber(delta, delta) == pytest.approx(quad, rel=1e-15)


def test_huber_linear_branch_value():
    assert huber(2e-3, 1e-3) == pytest.approx(1.5e-6, rel=1e-12)


def test_huber_even_and_monotone():
    rng = random.Random(5)
    for _ in range(50):
        r = rng.uniform(-0.1, 0.1)
        assert huber(r, 1e-3) == huber(-r, 1e-3)
    rs = np.linspace(0, 0.05, 200)
    out = huber(rs, 1e-3)
    assert np.all(np.diff(out) >= 0)


def test_huber_rejects_bad_delta():
    for delta in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(ValidationError, match="delta must be positive and finite"):
            huber(0.1, delta)


# ---------------------------------------------------------------------------
# frontier-constrained exponent tie


def test_apply_constraint_published_exponents():
    A, alpha = apply_constraint(0.464, 0.536, 0.297, 0.561, Bcoef=460.51, beta=0.286)
    assert alpha == pytest.approx(0.286 * (0.536 / 0.464), rel=1e-12)
    assert alpha == pytest.approx(0.3304, abs=5e-4)
    # consistent with the independently fitted exponent to two decimals
    assert round(alpha, 2) == round(0.331, 2)


def test_apply_constraint_symmetric_frontier():
    A, alpha = apply_constraint(0.5, 0.5, 0.4, 1 / 2.4, Bcoef=300.0, beta=0.29)
    assert alpha == pytest.approx(0.29, rel=1e-12)


def test_apply_constraint_tie_identity():
    rng = random.Random(17)
    for _ in range(25):
        a = rng.uniform(0.3, 0.7)
        b = 1.0 - a
        p = rng.uniform(0.1, 1.0)
        q = 1.0 / (6.0 * p)
        Bcoef = rng.uniform(50, 2000)
        beta = rng.uniform(0.1, 0.6)
        A, alpha = apply_constraint(a, b, p, q, Bcoef=Bcoef, beta=beta)
        assert A * alpha * q**beta == pytest.approx(Bcoef * beta * p**alpha, rel=1e-12)


def test_frontier_constraint_validation():
    with pytest.raises(ValidationError, match="sum to 1"):
        FrontierConstraint(a=0.4, b=0.5, p=0.297, q=0.561)
    with pytest.raises(ValidationError, match="1/6"):
        FrontierConstraint(a=0.464, b=0.536, p=0.297, q=0.3)


# ---------------------------------------------------------------------------
# goodness of fit


def test_r_squared_perfect():
    assert r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0


def test_r_squared_mean_predictor_is_zero():
    obs = [1.0, 2.0, 3.0]
    mean = sum(math.log(v) for v in obs) / 3
    pred = [math.exp(mean)] * 3
    assert r_squared(pred, obs) == pytest.approx(0.0, abs=1e-12)


def test_r_squared_hand_computed_linear():
    obs = [1.0, 2.0, 3.0]
    pred = [1.0, 2.0, 4.0]
    assert r_squared(pred, obs, log_space=False) == pytest.approx(1 - 1.0 / 2.0, rel=1e-12)
    # log-space variant recomputed directly
    lo = np.log(obs)
    lp = np.log(pred)
    expect = 1 - np.sum((lo - lp) ** 2) / np.sum((lo - lo.mean()) ** 2)
    assert r_squared(pred, obs) == pytest.approx(expect, rel=1e-12)


def test_r_squared_degenerate_variance():
    with pytest.raises(DegenerateVarianceError):
        r_squared([1.0, 1.1], [2.0, 2.0])


# ---------------------------------------------------------------------------
# fitting

CONSTRAINT = FrontierConstraint(a=0.464, b=0.536, p=0.297, q=0.561)


def grid_samples(law, sigma=0.0, seed=0):
    rng = random.Random(seed)
    rows = []
    for n in np.geomspace(1.25e8, 2.6e9, 5):
        for d in np.geomspace(1e9, 3e11, 8):
            loss = law.eval(n, d)
            if sigma:
                loss *= 1.0 + rng.uniform(-sigma, sigma)
            rows.append((n, d, loss))
    return rows


def continuum_constraint(law):
    """The allocation frontier the law itself implies under C = 6ND."""
    a = law.beta / (law.alpha + law.beta)
    k_big = law.Bcoef * 6.0**law.beta
    p = (law.alpha * law.A / (law.beta * k_big)) ** (1.0 / (law.alpha + law.beta))
    return FrontierConstraint(a=a, b=1.0 - a, p=p, q=1.0 / (6.0 * p))


def test_continuum_constraint_rounds_to_published(ref_law):
    con = continuum_constraint(ref_law)
    assert round(con.a, 3) == 0.464
    assert round(con.b, 3) == 0.536
    assert round(con.p, 3) == 0.297
    assert con.q == pytest.approx(0.561, rel=2e-3)


def test_fit_noiseless_grid_recovers_planted(ref_law):
    report = fit_loss_law(grid_samples(ref_law), constraint=continuum_constraint(ref_law))
    assert report.law.E == pytest.approx(ref_law.E, abs=1e-3)
    assert report.law.alpha == pytest.approx(ref_law.alpha, abs=1e-3)
    assert report.law.beta == pytest.approx(ref_law.beta, abs=1e-3)
    assert report.law.A == pytest.approx(ref_law.A, rel=1e-3)
    assert report.r_squared >= 0.9999
    assert report.n_points == 40


def test_fit_with_rounded_constraint_absorbs_rounding(ref_law):
    # three-decimal tie constants are consistent with the planted law only
    # to ~0.2%, and the tie pushes that mismatch into E and beta
    report = fit_loss_law(grid_samples(ref_law), constraint=CONSTRAINT)
    assert report.law.E == pytest.approx(ref_law.E, abs=0.01)
    assert report.law.alpha == pytest.approx(ref_law.alpha, abs=5e-3)
    assert report.law.beta == pytest.approx(ref_law.beta, abs=5e-3)
    assert report.r_squared >= 0.9999


def test_fit_noisy_grid_recovers_exponents(ref_law):
    report = fit_loss_law(grid_samples(ref_law, sigma=0.005, seed=42), constraint=CONSTRAINT)
    assert report.law.alpha == pytest.approx(ref_law.alpha, abs=0.02)
    assert report.law.beta == pytest.approx(ref_law.beta, abs=0.02)


def test_fit_unconstrained_noiseless(ref_law):
    report = fit_loss_law(grid_samples(ref_law))
    assert report.law.E == pytest.approx(ref_law.E, abs=5e-3)
    assert report.law.alpha == pytest.approx(ref_law.alpha, abs=5e-3)
    assert report.law.beta == pytest.approx(ref_law.beta, abs=5e-3)
    assert report.constraint is None


def test_fit_respects_constraint_tie(ref_law):
    report = fit_loss_law(grid_samples(ref_law, sigma=0.005, seed=3), constraint=CONSTRAINT)
    law = report.law
    assert law.alpha == pytest.approx(law.beta * CONSTRAINT.b / CONSTRAINT.a, rel=1e-9)
    lhs = law.A * law.alpha * CONSTRAINT.q**law.beta
    rhs = law.Bcoef * law.beta * CONSTRAINT.p**law.alpha
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_fit_report_round_trips_to_dict(ref_law):
    report = fit_loss_law(grid_samples(ref_law), constraint=CONSTRAINT)
    block = report.to_dict()
    assert block["n_points"] == 40
    assert block["constraint"]["a"] == 0.464
    assert 0 <= block["r_squared"] <= 1


def test_fit_report_start_diagnostics(ref_law):
    report = fit_loss_law(grid_samples(ref_law), constraint=CONSTRAINT)
    assert report.n_starts == lawfit.POLISHED_STARTS == 8
    assert 1 <= report.n_converged <= report.n_starts
    # converged starts reach the same optimum on a noise-free grid
    assert 0.0 <= report.objective_spread <= 1e-9 * report.objective_value + 1e-15
    block = report.to_dict()
    assert block["n_starts"] == report.n_starts
    assert block["n_converged"] == report.n_converged
    assert block["objective_spread"] == report.objective_spread

    few = fit_loss_law(grid_samples(ref_law), init_grid=default_init_grid()[:3])
    assert few.n_starts == 3


def test_fit_failure_reports_start_diagnostics(ref_law, monkeypatch):
    monkeypatch.setattr(lawfit, "_MAX_ITER", 1)
    with pytest.raises(FitFailureError) as exc_info:
        fit_loss_law(grid_samples(ref_law), constraint=CONSTRAINT)
    block = exc_info.value.best_partial.to_dict()
    assert block["n_starts"] == 8
    assert block["n_converged"] == 0
    assert block["objective_spread"] is None


@pytest.mark.parametrize("seed", [1, 7, 42])
@pytest.mark.parametrize("constraint", [CONSTRAINT, None], ids=["constrained", "free"])
def test_prescreen_matches_single_start_fits(ref_law, seed, constraint):
    samples = grid_samples(ref_law, sigma=0.005, seed=seed)
    best_single = math.inf
    for start in default_init_grid()[::8]:
        try:
            single = fit_loss_law(samples, constraint=constraint, init_grid=[start])
        except FitFailureError as exc:
            single = exc.best_partial
        best_single = min(best_single, single.objective_value)
    report = fit_loss_law(samples, constraint=constraint)
    assert report.objective_value <= (1.0 + 1e-9) * best_single


def _central_diff(fun, theta, step=1e-6):
    grad = np.empty_like(theta)
    for j in range(theta.size):
        e = np.zeros_like(theta)
        e[j] = step
        grad[j] = (fun(theta + e) - fun(theta - e)) / (2.0 * step)
    return grad


@pytest.mark.parametrize(
    "constraint, params",
    [
        (CONSTRAINT, (1.5, 0.29, 460.0)),
        (CONSTRAINT, (1.2, 0.35, 300.0)),
        (CONSTRAINT, (2.0, 0.2, 1000.0)),
        (None, (1.5, 314.0, 0.33, 460.0, 0.29)),
        (None, (1.2, 200.0, 0.4, 300.0, 0.35)),
        (None, (1.6, 500.0, 0.3, 800.0, 0.25)),
    ],
)
def test_objective_gradient_matches_central_differences(ref_law, constraint, params):
    n, d, obs = np.asarray(grid_samples(ref_law, sigma=0.005, seed=0)).T
    theta = np.log(params)
    E, A, alpha, bcoef, beta = lawfit._unpack(theta, constraint)
    resid = np.log(E + A * n ** (-alpha) + bcoef * d ** (-beta)) - np.log(obs)
    # a delta at the median |residual| puts samples on both Huber branches
    delta = float(np.median(np.abs(resid)))
    assert np.any(np.abs(resid) < delta) and np.any(np.abs(resid) > delta)
    data = (np.log(n), np.log(d), np.log(obs), delta, constraint)

    value, grad = lawfit._objective_and_grad(theta, *data)
    assert value == pytest.approx(float(np.sum(huber(resid, delta))), rel=1e-12)
    numeric = _central_diff(lambda th: lawfit._objective_and_grad(th, *data)[0], theta)
    np.testing.assert_allclose(grad, numeric, rtol=1e-6)


def test_fit_requires_span(ref_law):
    from scalelaw import InsufficientDataError

    rows = [(1e9, d, ref_law.eval(1e9, d)) for d in np.geomspace(1e9, 1e11, 12)]
    with pytest.raises(InsufficientDataError):
        fit_loss_law(rows)


# ---------------------------------------------------------------------------
# closed-form inversions


def test_n_for_loss_published_anchor(ref_law):
    n = ref_law.n_for_loss(1.89, 1.5e13)
    assert n == pytest.approx(1e9, rel=0.05)


def test_n_for_loss_round_trip(ref_law):
    rng = random.Random(23)
    for _ in range(20):
        n0 = 10 ** rng.uniform(7.5, 10.5)
        d = 10 ** rng.uniform(9, 13)
        target = ref_law.eval(n0, d)
        assert ref_law.n_for_loss(target, d) == pytest.approx(n0, rel=1e-9)


def test_n_for_loss_near_floor_feasible(ref_law):
    floor = ref_law.floor_at_d(1e12)
    assert floor == pytest.approx(1.650, abs=1e-3)
    n = ref_law.n_for_loss(1.88, 1e12)
    assert ref_law.eval(n, 1e12) == pytest.approx(1.88, rel=1e-9)


def test_n_for_loss_infeasible(ref_law):
    floor = ref_law.floor_at_d(1e12)
    with pytest.raises(InfeasibleTargetError) as exc_info:
        ref_law.n_for_loss(floor - 0.01, 1e12)
    assert exc_info.value.floor == pytest.approx(floor)


def test_d_for_loss_round_trip(ref_law):
    rng = random.Random(29)
    for _ in range(20):
        n = 10 ** rng.uniform(8, 10)
        d0 = 10 ** rng.uniform(9, 13)
        target = ref_law.eval(n, d0)
        assert ref_law.d_for_loss(target, n) == pytest.approx(d0, rel=1e-9)


def test_law_dict_round_trip(ref_law):
    assert ChinchillaLaw.from_dict(ref_law.to_dict()) == ref_law
    assert KaplanLaw.from_dict(GPT3_ROW.to_dict()) == GPT3_ROW


@pytest.mark.parametrize("smooth", [True, False], ids=["smoothed", "raw"])
def test_samples_skip_diverged_runs(master_runs, smooth):
    converged = [run.run_id for run in master_runs if not has_divergence(run.points)]
    assert 0 < len(converged) < len(master_runs)
    np.testing.assert_array_equal(
        samples_from_runs(master_runs, smooth=smooth),
        samples_from_runs(master_runs.subset(converged), smooth=smooth),
    )
