import json
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalelaw import (
    Curve,
    EmptyEnvelopeError,
    FrontierPoint,
    FrontierReport,
    InsufficientDataError,
    InsufficientFrontierError,
    LrScheme,
    ModelSpec,
    NoMinimumError,
    PowerLaw,
    RunRecord,
    RunSet,
    ValidationError,
    compute_envelope,
    default_grid,
    eta_opt_adam,
    extract_frontier_points,
    fit_power_law,
    frontier_laws,
    frontier_report,
)
import scalelaw.runlog
from scalelaw import frontier
from scalelaw.frontier import parabola_vertex
from scalelaw.runlog import smooth_run
from scalelaw.synth import SynthConfig, default_ground_truth, simulate_curve, simulate_grid

GRID_CELL = 10 ** (1 / 64)  # one step of the default envelope grid

PUBLISHED = {
    "L": (23.00, -0.050),
    "N": (0.297, 0.464),
    "D": (0.561, 0.536),
    "S": (8.74e-5, 0.434),
    "B": (6.42e3, 0.102),
}


def loglinear_run(run_id, n_params, intercept, slope, c_lo, c_hi, batch=4e6, n_pts=60):
    """Run whose curve is exactly loss = intercept - slope*log10(C/1e18)."""
    s_lo = c_lo / (6.0 * n_params * batch)
    s_hi = c_hi / (6.0 * n_params * batch)
    steps = np.unique(np.geomspace(max(1, s_lo), s_hi, n_pts).astype(int))
    tokens = steps * batch
    losses = [intercept - slope * math.log10(6.0 * n_params * t / 1e18) for t in tokens.tolist()]
    return RunRecord(
        run_id=run_id,
        model=ModelSpec(n_params=n_params),
        batch_size_tokens=batch,
        lr_peak=3e-4,
        lr_scheme=LrScheme.ORIGIN,
        warmup_steps=0,
        decay_steps=0,
        points=Curve(steps, tokens, losses),
    )


def published_points(cs, floor=None):
    """Frontier points lying exactly on the reference law set."""
    pts = []
    for c in cs:
        n = PUBLISHED["N"][0] * c ** PUBLISHED["N"][1]
        d = c / (6.0 * n)
        b = PUBLISHED["B"][0] * c ** PUBLISHED["B"][1]
        if floor is not None:
            b = max(floor, b)
        pts.append(
            FrontierPoint(
                C=c,
                loss=PUBLISHED["L"][0] * c ** PUBLISHED["L"][1],
                N=n,
                D=d,
                S=d / b,
                B=b,
            )
        )
    return pts


# ---------------------------------------------------------------------------
# PowerLaw


def test_power_law_call_and_solve():
    law = PowerLaw(k=2.0, p=0.5, x_min=1.0, x_max=1e6)
    assert law(4.0) == pytest.approx(4.0, rel=1e-12)
    vec = law(np.array([1.0, 100.0]))
    assert vec == pytest.approx([2.0, 20.0], rel=1e-12)


def test_power_law_extrapolation_flag():
    law = PowerLaw(k=1.0, p=1.0, x_min=10.0, x_max=100.0)
    assert law.extrapolates(5.0)
    assert law.extrapolates(1e3)
    assert not law.extrapolates(50.0)


def test_power_law_validation():
    with pytest.raises(ValidationError):
        PowerLaw(k=-1.0, p=0.5, x_min=1.0, x_max=2.0)
    with pytest.raises(ValidationError):
        PowerLaw(k=1.0, p=0.5, x_min=5.0, x_max=2.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="coefficient"):
            PowerLaw(k=bad, p=0.5, x_min=1.0, x_max=2.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match="exponent"):
            PowerLaw(k=1.0, p=bad, x_min=1.0, x_max=2.0)


def test_power_law_dict_round_trip():
    law = PowerLaw(k=6.42e3, p=0.102, x_min=3.5e18, x_max=1e23)
    assert PowerLaw.from_dict(law.to_dict()) == law


# ---------------------------------------------------------------------------
# fit_power_law


def test_fit_exact_data_recovered():
    x = np.geomspace(1.0, 1e8, 12)
    law = fit_power_law(x, 2.0 * x**0.5)
    assert law.k == pytest.approx(2.0, rel=1e-12)
    assert law.p == pytest.approx(0.5, abs=1e-12)
    assert (law.x_min, law.x_max) == (1.0, 1e8)


def test_fit_two_points_is_exact():
    law = fit_power_law([1.0, 100.0], [1.0, 10.0])
    assert law.k == pytest.approx(1.0, rel=1e-12)
    assert law.p == pytest.approx(0.5, abs=1e-12)


def test_fit_under_one_percent_noise():
    for seed in range(25):
        rng = random.Random(seed)
        x = np.geomspace(1e18, 1e21, 8)
        y = [23.00 * c**-0.050 * (1 + rng.uniform(-0.01, 0.01)) for c in x]
        law = fit_power_law(x, y)
        assert law.p == pytest.approx(-0.050, abs=0.005)
        assert law.k == pytest.approx(23.00, rel=0.10)


def test_fit_rejects_degenerate_input():
    with pytest.raises(InsufficientDataError):
        fit_power_law([1.0], [2.0])
    with pytest.raises(ValidationError):
        fit_power_law([1.0, -2.0], [1.0, 2.0])
    with pytest.raises(ValidationError):
        fit_power_law([1.0, 2.0], [0.0, 2.0])
    # a coefficient beyond the float range is refused, as numpy's inf was
    with pytest.raises(ValidationError, match="coefficient"):
        fit_power_law([1e10, 2e10], [1.0, 1e-300])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_fit_rejects_non_finite_values(bad):
    with pytest.raises(ValidationError, match="positive finite"):
        fit_power_law([1.0, bad, 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValidationError, match="positive finite"):
        fit_power_law([1.0, 2.0, 3.0], [1.0, bad, 3.0])


def test_fit_needs_two_distinct_x():
    # a line through one x is undetermined; a least-squares solver still
    # returned a law for this input (k = 1.348, p = 0.431)
    with pytest.raises(InsufficientDataError, match="2 distinct x values, got 1"):
        fit_power_law([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


def test_parabola_needs_three_distinct_x():
    # a parabola through two x is undetermined; a least-squares solver still
    # reported a curvature of -0.607 for this input
    with pytest.raises(InsufficientDataError, match="3 distinct x values, got 2"):
        parabola_vertex([1.0, 1.0, 2.0], [3.0, 2.0, 1.0])
    with pytest.raises(InsufficientDataError, match="at least 3"):
        parabola_vertex([1.0, 2.0], [3.0, 2.0])
    with pytest.raises(NoMinimumError, match="curvature"):
        parabola_vertex([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])


def _spread(rng, lo, span, n):
    """n jittered, evenly spread, distinct points over [lo, lo + span]."""
    return lo + span * (np.arange(n) + rng.uniform(-0.3, 0.3, n)) / max(n - 1, 1)


# sizes and ranges of the callers: 3 to 20 frontier points, contour vertices
# or LR samples, log x from 0 (LR) to 50 (FLOPs); log-log slopes within +-2
@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 20),
    lo=st.floats(0.0, 50.0),
    span=st.floats(1.0, 10.0),
    slope=st.floats(-2.0, 2.0),
    log_k=st.floats(-45.0, 45.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_matches_least_squares_reference(n, lo, span, slope, log_k, seed):
    """The closed-form line is np.polyfit's within 1e-12: the slope relative to
    its O(1) scale, log k relative to the terms it is the difference of."""
    rng = np.random.default_rng(seed)
    log_x = _spread(rng, lo, span, n)
    log_y = log_k + slope * log_x + 0.05 * rng.standard_normal(n)
    law = fit_power_law(np.exp(log_x), np.exp(log_y))
    ref_slope, ref_intercept = np.polyfit(np.log(np.exp(log_x)), log_y, 1)
    assert abs(law.p - ref_slope) <= 1e-12 * max(abs(ref_slope), 1.0)
    scale = max(abs(ref_intercept), abs(ref_slope) * float(np.abs(log_x).max()), 1.0)
    assert abs(math.log(law.k) - ref_intercept) <= 1e-12 * scale


# contours fit log D against 3 to 12 log batch sizes (about 11 to 18), the
# LR readout loss against 3 log learning rates (about -10 to -5)
@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    n=st.integers(3, 12),
    lo=st.floats(-12.0, 18.0),
    span=st.floats(0.5, 5.0),
    where=st.floats(0.1, 0.9),
    curvature=st.floats(0.05, 5.0),
    floor=st.floats(-30.0, 30.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_parabola_matches_least_squares_reference(n, lo, span, where, curvature, floor, seed):
    """The vertex of the centred normal-equation fit is np.polyfit's within
    1e-12: x relative to its scale, y relative to the largest term of the
    reference's polynomial at its vertex."""
    rng = np.random.default_rng(seed)
    x = _spread(rng, lo, span, n)
    y = floor + curvature * (x - lo - where * span) ** 2
    y += 1e-3 * curvature * span**2 * rng.standard_normal(n)
    x_star, y_star = parabola_vertex(x, y)
    c2, c1, c0 = np.polyfit(x, y, 2)
    ref_x = -c1 / (2.0 * c2)
    ref_y = c0 + c1 * ref_x + c2 * ref_x**2
    assert abs(x_star - ref_x) <= 1e-12 * max(abs(ref_x), 1.0)
    assert abs(y_star - ref_y) <= 1e-12 * max(abs(c0), abs(c1 * ref_x), abs(c2 * ref_x**2), 1.0)


# ---------------------------------------------------------------------------
# envelope


def test_envelope_single_run_is_own_curve():
    run = loglinear_run("solo", 1e8, 4.0, 0.2, 1e17, 1e22)
    runset = RunSet(runs={run.run_id: run})
    grid = [6.0 * 1e8 * t for t in run.points.tokens[5:40].tolist()]
    env = compute_envelope(runset, grid=grid, smooth=False)
    assert len(env) == len(grid)
    for sample, loss in zip(env, run.points.loss[5:40]):
        assert sample.run_id == "solo"
        assert sample.loss == pytest.approx(loss, rel=1e-12)


def test_envelope_dominated_run_never_wins():
    lead = loglinear_run("lead", 1e8, 4.0, 0.2, 1e17, 1e22)
    trail = loglinear_run("trail", 1e9, 4.1, 0.2, 1e17, 1e22)
    runset = RunSet(runs={r.run_id: r for r in (lead, trail)})
    env = compute_envelope(runset, grid=np.geomspace(1e18, 1e21, 40), smooth=False)
    assert {s.run_id for s in env} == {"lead"}


def test_envelope_winner_switches_at_crossing():
    # lines 4.0 - 0.2*x and 7.0 - 0.81*x (x = log10 C/1e18) cross at
    # x = 3/0.61, between the 10^22.9 and 10^23.0 grid points
    a = loglinear_run("a", 1e8, 4.0, 0.2, 1e18, 1e26)
    b = loglinear_run("b", 1e9, 7.0, 0.81, 1e18, 1e26)
    runset = RunSet(runs={r.run_id: r for r in (a, b)})
    grid = np.geomspace(1e19, 1e26, 71)
    env = compute_envelope(runset, grid=grid, smooth=False)

    lo, hi = 0.0, 8.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if 4.0 - 0.2 * mid > 7.0 - 0.81 * mid:
            hi = mid
        else:
            lo = mid
    c_cross = 1e18 * 10**lo
    assert c_cross == pytest.approx(1e18 * 10 ** (3 / 0.61), rel=1e-9)

    last_a = max(s.C for s in env if s.run_id == "a")
    first_b = min(s.C for s in env if s.run_id == "b")
    assert last_a < c_cross < first_b
    assert first_b / last_a == pytest.approx(10 ** (7 / 70), rel=1e-9)


def test_envelope_error_paths():
    with pytest.raises(InsufficientDataError):
        compute_envelope(RunSet())
    run = loglinear_run("r", 1e8, 4.0, 0.2, 1e18, 1e20)
    runset = RunSet(runs={run.run_id: run})
    with pytest.raises(EmptyEnvelopeError):
        compute_envelope(runset, grid=[1e25, 1e26], smooth=False)
    with pytest.raises(ValidationError):
        compute_envelope(runset, grid=[-1.0, 1e19], smooth=False)


def test_default_grid_covers_all_runs():
    a = loglinear_run("a", 1e8, 4.0, 0.2, 1e17, 1e21)
    b = loglinear_run("b", 1e9, 7.0, 0.81, 1e19, 1e24)
    runset = RunSet(runs={r.run_id: r for r in (a, b)})
    grid = default_grid(runset)
    c_lo = 6.0 * 1e8 * a.points.tokens[0]
    c_hi = 6.0 * 1e9 * b.points.tokens[-1]
    assert (grid[0], grid[-1]) == (c_lo, c_hi)
    decades = math.log10(c_hi / c_lo)
    assert len(grid) == max(2, int(math.ceil(decades * 64)) + 1)
    # numpy's geomspace, whose vectorised pow may round the other way
    np.testing.assert_allclose(grid, np.geomspace(c_lo, c_hi, len(grid)), rtol=4e-16)


def test_interp_in_range_matches_numpy_interp():
    # the numpy reference interpolates in the log of every point's compute
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(2, 40)
        tokens = [1e6 * 1.3**i * rng.uniform(1.0, 1.2) for i in range(n)]
        loss = [rng.uniform(2.0, 4.0) for _ in tokens]
        scale = 6.0 * 10 ** rng.uniform(7, 10)
        log_c = np.log(scale * np.array(tokens))
        cs = [scale * t for t in tokens] + [
            math.exp(rng.uniform(log_c[0] - 1.0, log_c[-1] + 1.0)) for _ in range(40)
        ]
        x = np.log(cs)
        want = np.interp(x, log_c, loss)
        want[(x < log_c[0]) | (x > log_c[-1])] = np.nan
        got = frontier.interp_in_range(cs, scale, tokens, loss)
        assert got[:n] == loss  # at a checkpoint, its own loss
        np.testing.assert_allclose(got, want, rtol=1e-13)


# ---------------------------------------------------------------------------
# frontier point extraction


def test_extract_midpoint_and_curve_readout():
    a = loglinear_run("a", 1e8, 3.0, 0.2, 1e16, 1e23)
    b = loglinear_run("b", 1e9, 26.0, 8.0, 1e19, 10**21.2)
    runset = RunSet(runs={r.run_id: r for r in (a, b)})
    env = compute_envelope(runset, grid=[1e18, 1e19, 1e20, 1e21], smooth=False)
    assert [s.run_id for s in env] == ["a", "a", "a", "b"]

    points = extract_frontier_points(env, runset, smooth=False)
    by_n = {pt.N: pt for pt in points}
    pt_a = by_n[1e8]
    assert pt_a.C == pytest.approx(1e19, rel=1e-9)
    assert pt_a.loss == pytest.approx(3.0 - 0.2 * 1.0, rel=1e-12)
    assert pt_a.D == pytest.approx(1e19 / 6e8, rel=1e-9)
    assert pt_a.B == 4e6
    assert pt_a.S == pytest.approx(pt_a.D / 4e6, rel=1e-9)
    assert pt_a.edge_clipped  # grid truncates its winning interval

    pt_b = by_n[1e9]
    assert pt_b.C == pytest.approx(1e21, rel=1e-9)
    assert pt_b.edge_clipped


def test_extract_warns_on_dominated_model():
    a = loglinear_run("a", 1e8, 3.0, 0.2, 1e16, 1e23)
    c = loglinear_run("c", 5e9, 3.5, 0.2, 1e16, 1e23)
    runset = RunSet(runs={r.run_id: r for r in (a, c)})
    env = compute_envelope(runset, grid=[1e18, 1e19, 1e20], smooth=False)
    with pytest.warns(UserWarning, match="never wins"):
        points = extract_frontier_points(env, runset, smooth=False)
    assert [pt.N for pt in points] == [1e8]


def test_extract_empty_envelope_rejected():
    run = loglinear_run("r", 1e8, 4.0, 0.2, 1e18, 1e20)
    with pytest.raises(EmptyEnvelopeError):
        extract_frontier_points([], RunSet(runs={run.run_id: run}))


def test_extract_matches_dense_scan_on_clean_sweep():
    # noise-free single-batch sweep: the per-model optimum from the default
    # grid must land within one grid cell of a dense independent scan
    gt = default_ground_truth(seed=1, observation_noise=0.0)
    cfg = SynthConfig(
        models=tuple(ModelSpec(n_params=n) for n in (1.25e8, 3.5e8, 7.6e8, 1.3e9, 2.6e9)),
        batch_sizes=(5e5,),
        schemes=(LrScheme.ORIGIN,),
    )
    runs = simulate_grid(cfg, gt)
    report = frontier_report(runs, smooth=False)
    pipeline_c = {pt.N: pt.C for pt in report.points}
    assert len(pipeline_c) == 5

    curves = {}
    for run in runs:
        finite = np.isfinite(run.points.loss)
        log_c = np.log(6.0 * run.model.n_params * run.points.tokens[finite])
        curves[run.model.n_params] = (log_c, run.points.loss[finite])
    lo = min(lc[0] for lc, _ in curves.values())
    hi = max(lc[-1] for lc, _ in curves.values())
    dense = np.linspace(lo, hi, int((hi - lo) / math.log(10) * 2048) + 1)
    models = sorted(curves)
    losses = np.full((len(models), dense.size), np.inf)
    for i, m in enumerate(models):
        log_c, loss = curves[m]
        vals = np.interp(dense, log_c, loss)
        vals[(dense < log_c[0]) | (dense > log_c[-1])] = np.inf
        losses[i] = vals
    winner = np.argmin(losses, axis=0)

    for i, m in enumerate(models):
        idx = np.nonzero(winner == i)[0]
        c_oracle = math.exp(0.5 * (dense[idx[0]] + dense[idx[-1]]))
        assert abs(math.log(pipeline_c[m] / c_oracle)) <= math.log(GRID_CELL)


# ---------------------------------------------------------------------------
# law regression


def test_laws_recover_reference_constants():
    report = frontier_laws(published_points(np.geomspace(1e18, 1e23, 9)))
    # the directly regressed laws reproduce the planted constants exactly
    for name, law in [("L", report.L_opt), ("N", report.N_opt)]:
        k, p = PUBLISHED[name]
        assert law.k == pytest.approx(k, rel=1e-6), name
        assert law.p == pytest.approx(p, abs=1e-9), name
    # S, D, B involve quantities derived from the three-decimal constants,
    # so their coefficients agree only to the rounding those constants carry
    for name, law in [("S", report.S_opt), ("D", report.D_opt), ("B", report.B_opt)]:
        k, p = PUBLISHED[name]
        assert law.k == pytest.approx(k, rel=0.01), name
        assert law.p == pytest.approx(p, abs=0.005), name
    assert report.D_opt.k == pytest.approx(1.0 / (6.0 * 0.297), rel=1e-9)
    assert report.S_opt.k == pytest.approx(1.0 / (6.0 * 0.297 * 6.42e3), rel=1e-9)
    assert report.S_opt.p == pytest.approx(0.434, abs=1e-9)
    assert report.consistency_residuals["D_opt"] < 1e-9
    assert report.consistency_residuals["B_opt"] < 1e-9


def test_laws_identities_hold_exactly():
    pts = published_points(np.geomspace(1e19, 1e22, 7))
    # jitter loss and batch so the identities are tested off the
    # exact-recovery path; S moves with B to keep D = S*B intact
    rng = random.Random(5)
    noisy = []
    for pt in pts:
        b = pt.B * (1 + rng.uniform(-0.2, 0.2))
        noisy.append(
            FrontierPoint(
                C=pt.C,
                loss=pt.loss * (1 + rng.uniform(-0.03, 0.03)),
                N=pt.N,
                D=pt.D,
                S=pt.D / b,
                B=b,
            )
        )
    report = frontier_laws(noisy)
    assert report.N_opt.p + report.D_opt.p == pytest.approx(1.0, abs=1e-12)
    assert report.N_opt.k * report.D_opt.k == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert report.S_opt.p + report.B_opt.p == pytest.approx(report.D_opt.p, abs=1e-12)
    assert report.S_opt.k * report.B_opt.k == pytest.approx(report.D_opt.k, rel=1e-12)


def test_laws_batch_floor_sets_x_min():
    # the published batch law 6.42e3 * C^0.102 reaches the 5e5 floor here
    assert (5e5 / 6.42e3) ** (1 / 0.102) == pytest.approx(3.4953e18, rel=1e-3)
    report = frontier_laws(published_points(np.geomspace(1e18, 1e23, 11), floor=5e5))
    x_min = report.B_opt.x_min
    assert 1.5e18 < x_min < 1e19
    assert report.B_opt(x_min) == pytest.approx(5e5, rel=1e-9)
    assert report.D_opt.x_min == 1e18  # only the batch law is floored


def test_laws_flat_batch_keeps_data_range():
    pts = []
    for c in np.geomspace(1e19, 1e22, 6):
        n = 0.297 * c**0.464
        d = c / (6.0 * n)
        pts.append(
            FrontierPoint(C=c, loss=23.0 * c**-0.05, N=n, D=d, S=d / 4e6, B=4e6)
        )
    report = frontier_laws(pts)
    assert report.B_opt.p == pytest.approx(0.0, abs=1e-12)
    assert report.B_opt.k == pytest.approx(4e6, rel=1e-9)
    assert report.B_opt.x_min == report.D_opt.x_min


def test_laws_prefer_clean_points():
    clean = published_points(np.geomspace(1e19, 1e22, 4))
    warped = [
        FrontierPoint(
            C=pt.C, loss=pt.loss * 1.5, N=pt.N, D=pt.D, S=pt.S, B=pt.B, edge_clipped=True
        )
        for pt in published_points([3e18, 5e22])
    ]
    report = frontier_laws(clean + warped)
    assert report.L_opt.p == pytest.approx(-0.050, abs=1e-9)
    assert len(report.points) == 6  # all points are kept in the report itself


def test_laws_fall_back_to_all_points_when_too_few_clean():
    pts = published_points(np.geomspace(1e19, 1e22, 4))
    flagged = [
        FrontierPoint(C=p.C, loss=p.loss, N=p.N, D=p.D, S=p.S, B=p.B, edge_clipped=True)
        for p in pts[:2]
    ] + pts[2:]
    report = frontier_laws(flagged)
    assert report.L_opt.p == pytest.approx(-0.050, abs=1e-9)


def test_laws_require_three_points():
    with pytest.raises(InsufficientFrontierError):
        frontier_laws(published_points([1e19, 1e20]))


def test_frontier_point_validation():
    with pytest.raises(ValidationError, match="6"):
        FrontierPoint(C=1e20, loss=2.0, N=1e9, D=1e11, S=1e4, B=1e7)
    with pytest.raises(ValidationError, match="S"):
        FrontierPoint(C=6e20, loss=2.0, N=1e9, D=1e11, S=1e3, B=1e7)
    with pytest.raises(ValidationError, match="positive"):
        FrontierPoint(C=6e20, loss=-2.0, N=1e9, D=1e11, S=1e4, B=1e7)


def test_report_from_dict_and_to_dict():
    laws = {
        f"{name}_opt": PowerLaw(k=k, p=p, x_min=1e18, x_max=1e23)
        for name, (k, p) in PUBLISHED.items()
    }
    report = FrontierReport(points=(), consistency_residuals={}, **laws)
    d = report.to_dict()
    assert d["n_points"] == 0
    assert d["N_opt"]["p"] == 0.464
    assert d["excluded_model_sizes"] == []
    assert "points" not in d
    assert FrontierReport.from_dict(d).to_dict() == d


def test_report_dict_keeps_points_residuals_and_exclusions():
    report = frontier_laws(published_points(np.geomspace(1e19, 1e22, 4)), excluded=[7.6e8])
    d = report.to_dict()
    assert d["n_points"] == 4 and len(d["points"]) == 4
    back = FrontierReport.from_dict(json.loads(json.dumps(d)))
    assert back.points == report.points
    assert back.consistency_residuals == report.consistency_residuals
    assert back.excluded == (7.6e8,)
    assert back.to_dict() == d


# ---------------------------------------------------------------------------
# full pipeline


def test_report_excludes_dominated_model():
    gt = default_ground_truth(seed=1, observation_noise=0.0)
    cfg = SynthConfig(
        models=tuple(ModelSpec(n_params=n) for n in (1.25e8, 3.5e8, 7.6e8, 1.3e9, 2.6e9)),
        batch_sizes=(5e5,),
        schemes=(LrScheme.ORIGIN,),
    )
    runs = simulate_grid(cfg, gt)
    starved = simulate_curve(
        gt,
        n_params=2.5e8,
        B=5e5,
        lr_peak=0.05 * eta_opt_adam(5e5, gt.noise),
        total_tokens=3e11,
        points=400,
        run_id="starved",
    )
    combined = RunSet(runs={**{r.run_id: r for r in runs}, "starved": starved})
    with pytest.warns(UserWarning, match="never wins"):
        report = frontier_report(combined, smooth=False)
    assert report.excluded == (2.5e8,)
    assert len(report.points) == 5


def test_report_smooths_each_run_once(monkeypatch):
    cfg = SynthConfig(
        models=tuple(ModelSpec(n_params=n) for n in (1.25e8, 3.5e8, 7.6e8, 1.3e9)),
        batch_sizes=(5e5, 2e6),
        schemes=(LrScheme.ORIGIN,),
        points_per_run=100,
    )
    runs = simulate_grid(cfg, default_ground_truth(seed=2))
    calls = Counter()

    def counting_smooth_run(run, *args, **kwargs):
        calls[run.run_id] += 1
        return smooth_run(run, *args, **kwargs)

    monkeypatch.setattr(scalelaw.runlog, "smooth_run", counting_smooth_run)
    report = frontier_report(runs)
    assert calls == Counter(dict.fromkeys(runs.runs, 1))

    # the shared curves give what the public stages give one by one
    envelope = compute_envelope(runs)
    points = extract_frontier_points(envelope, runs)
    excluded = [m for m in runs.model_sizes() if m not in {pt.N for pt in points}]
    assert report == frontier_laws(points, excluded=excluded)
