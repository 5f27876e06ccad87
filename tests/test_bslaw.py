import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scalelaw import (
    BoptLaw,
    ContourPoint,
    ContourVertex,
    EmptyContourError,
    InsufficientDataError,
    LrScheme,
    ModelSpec,
    NoMinimumError,
    RunSet,
    ValidationError,
    default_loss_levels,
    eta_opt_adam,
    fit_bopt_law,
    fit_contour_parabola,
    fit_power_law,
    iso_loss_contour,
    solve_tradeoff,
)
import scalelaw.bslaw
from scalelaw.cli import main
from scalelaw.runlog import smooth_run
from scalelaw.synth import SynthConfig, default_ground_truth, simulate_curve, simulate_grid

GT0 = default_ground_truth(seed=1, observation_noise=0.0)

PUBLISHED_K = 3.24e3
PUBLISHED_P = 0.264


def published_vertices(d_values, level0=3.0):
    return [
        ContourVertex(
            loss_level=level0 - 0.05 * i,
            B_star=PUBLISHED_K * d**PUBLISHED_P,
            D_star=d,
            extrapolated=False,
        )
        for i, d in enumerate(d_values)
    ]


def lr_well_d_required(level, B, n_params=1.25e8, lr=4.4e-4, bcrit=4e6):
    """Tokens to reach level at batch B under a fixed peak LR.

    Mirrors the generator closure: the law's token requirement, inflated by
    the trade-off overhead e(B/B_crit) and by the quadratic LR-efficiency
    penalty of holding the peak LR fixed while eta_opt moves with B.
    """
    d_min = GT0.law.d_for_loss(level, n_params)
    e = solve_tradeoff(B / bcrit, GT0.noise.gamma_tradeoff).e_ratio
    rho = lr / eta_opt_adam(B, GT0.noise)
    efficiency = 2.0 * rho - rho * rho
    return d_min * e / efficiency if efficiency > 0 else math.inf


# ---------------------------------------------------------------------------
# contour construction


def test_contour_point_validation():
    with pytest.raises(ValidationError, match="one batch"):
        ContourPoint(loss_level=3.0, B=1e7, D_required=1e6)
    with pytest.raises(ValidationError, match="positive"):
        ContourPoint(loss_level=-3.0, B=1e6, D_required=1e7)


def optimal_lr_runs(batches, n_params=3.5e8):
    """Noise-free runs at eta_opt, so the gamma=1 closure holds exactly."""
    runs = [
        simulate_curve(
            GT0,
            n_params=n_params,
            B=b,
            lr_peak=eta_opt_adam(b, GT0.noise),
            total_tokens=3e11,
            points=400,
            run_id=f"b{int(b)}",
        )
        for b in batches
    ]
    return RunSet(runs={r.run_id: r for r in runs})


def test_contour_matches_tradeoff_closure():
    # at the optimal LR, D_required(L, B) = D_min(L) * (1 + B/B_crit)
    runset = optimal_lr_runs((1e6, 4e6, 1.6e7))
    contours = iso_loss_contour(
        runset, [2.6, 2.8], half_life_fraction=1e-9, discard_fraction=0.0
    )
    for level, points in contours.items():
        d_min = GT0.law.d_for_loss(level, 3.5e8)
        assert [pt.B for pt in points] == [1e6, 4e6, 1.6e7]
        for pt in points:
            expected = d_min * (1.0 + pt.B / GT0.bcrit_b0)
            assert pt.D_required == pytest.approx(expected, rel=0.005)


@pytest.mark.parametrize("policy, scheme", [("best_of_schemes", None), ("fixed_scheme", "sqrt")])
def test_contour_smooths_each_run_once(monkeypatch, policy, scheme):
    cfg = SynthConfig(
        models=(ModelSpec(n_params=1.25e8),),
        batch_sizes=(5e5, 2e6, 8e6),
        schemes=(LrScheme.ORIGIN, LrScheme.SQRT),
        tokens_per_run=3e10,
        points_per_run=100,
    )
    runset = simulate_grid(cfg, GT0)
    calls = Counter()

    def counting_smooth_run(run, *args, **kwargs):
        calls[run.run_id] += 1
        return smooth_run(run, *args, **kwargs)

    monkeypatch.setattr(scalelaw.bslaw, "smooth_run", counting_smooth_run)
    scheme = LrScheme(scheme) if scheme else None
    contours = iso_loss_contour(
        runset, [3.1, 3.3, 3.5, 3.7], lr_policy=policy, scheme=scheme
    )
    assert len(contours) == 4
    eligible = [run.run_id for run in runset if scheme is None or run.lr_scheme == scheme]
    assert calls == Counter(dict.fromkeys(eligible, 1))


def _counting_smooth_run(monkeypatch) -> Counter:
    """The smooth_run calls of bslaw, by (run id, discard_fraction)."""
    calls = Counter()

    def counting_smooth_run(run, *args, **kwargs):
        calls[run.run_id, kwargs.get("discard_fraction")] += 1
        return smooth_run(run, *args, **kwargs)

    monkeypatch.setattr(scalelaw.bslaw, "smooth_run", counting_smooth_run)
    return calls


@pytest.mark.filterwarnings("ignore:level .* unreachable")
def test_default_levels_and_contours_share_each_smoothed_run(monkeypatch):
    runset = simulate_grid(
        SynthConfig(
            models=(ModelSpec(n_params=1.25e8),),
            batch_sizes=(5e5, 2e6, 8e6),
            tokens_per_run=3e10,
            points_per_run=100,
        ),
        GT0,
    )
    levels = default_loss_levels(runset)
    expect = iso_loss_contour(runset, levels)
    calls = _counting_smooth_run(monkeypatch)
    smoothed = {}
    assert default_loss_levels(runset, smoothed=smoothed) == levels
    assert iso_loss_contour(runset, levels, smoothed=smoothed) == expect
    assert calls == Counter(dict.fromkeys(((rid, None) for rid in runset.runs), 1))
    # another discard is another smoothing, kept beside the first
    calls.clear()
    iso_loss_contour(runset, levels[:1], discard_fraction=0.05, smoothed=smoothed)
    assert calls == Counter(dict.fromkeys(((rid, 0.05) for rid in runset.runs), 1))


@pytest.mark.filterwarnings("ignore:level .* unreachable")
def test_contour_export_at_default_levels_smooths_each_run_once(monkeypatch, tmp_path, write_runs):
    runset = simulate_grid(
        SynthConfig(
            models=(ModelSpec(n_params=1.25e8),),
            batch_sizes=(5e5, 2e6, 8e6),
            tokens_per_run=3e10,
            points_per_run=100,
        ),
        GT0,
    )
    runs = str(write_runs(runset))
    calls = _counting_smooth_run(monkeypatch)
    assert main(["export-plot", "--runs", runs, "--kind", "contour",
                 "--out", str(tmp_path / "contour.csv")]) == 0
    assert calls == Counter(dict.fromkeys(((rid, None) for rid in runset.runs), 1))


def test_contour_gap_is_warned_not_fatal():
    # level chosen so the largest batch cannot reach it inside the budget
    runset = optimal_lr_runs((1e6, 4e6, 1.6e7, 3.2e7))
    with pytest.warns(UserWarning, match="unreachable at B"):
        contours = iso_loss_contour(
            runset, [2.35], half_life_fraction=1e-9, discard_fraction=0.0
        )
    assert [pt.B for pt in contours[2.35]] == [1e6, 4e6, 1.6e7]


def test_contour_level_below_floor_raises():
    runset = optimal_lr_runs((1e6, 4e6, 1.6e7))
    with pytest.warns(UserWarning, match="unreachable"):
        with pytest.raises(EmptyContourError):
            iso_loss_contour(runset, [1.9], half_life_fraction=1e-9, discard_fraction=0.0)


def test_contour_best_of_schemes_dominates_fixed():
    cfg = SynthConfig(
        models=(ModelSpec(n_params=3.5e8),),
        batch_sizes=(5e5, 1e6, 2e6),
        schemes=(LrScheme.ORIGIN, LrScheme.LINEAR),
    )
    runset = simulate_grid(cfg, GT0)
    kwargs = dict(half_life_fraction=1e-9, discard_fraction=0.0)
    best = iso_loss_contour(runset, [2.8, 3.0], **kwargs)
    for scheme in (LrScheme.ORIGIN, LrScheme.LINEAR):
        fixed = iso_loss_contour(
            runset, [2.8, 3.0], lr_policy="fixed_scheme", scheme=scheme, **kwargs
        )
        for level in (2.8, 3.0):
            fixed_by_b = {pt.B: pt.D_required for pt in fixed[level]}
            for pt in best[level]:
                if pt.B in fixed_by_b:
                    assert pt.D_required <= fixed_by_b[pt.B] * (1 + 1e-12)


def test_contour_input_validation():
    runset = optimal_lr_runs((1e6, 4e6, 1.6e7))
    with pytest.raises(ValidationError, match="scheme"):
        iso_loss_contour(runset, [2.8], lr_policy="fixed_scheme")
    with pytest.raises(ValidationError, match="lr_policy"):
        iso_loss_contour(runset, [2.8], lr_policy="worst_of_schemes")
    with pytest.raises(ValidationError, match="positive"):
        iso_loss_contour(runset, [-2.8], half_life_fraction=1e-9, discard_fraction=0.0)

    two = optimal_lr_runs((1e6, 4e6))
    with pytest.raises(InsufficientDataError, match="3 distinct batch"):
        iso_loss_contour(two, [2.8])

    mixed_runs = list(optimal_lr_runs((1e6, 4e6))) + list(
        optimal_lr_runs((1.6e7,), n_params=7.6e8)
    )
    mixed = RunSet(runs={r.run_id: r for r in mixed_runs})
    with pytest.raises(ValidationError, match="single model size"):
        iso_loss_contour(mixed, [2.8])


def test_default_loss_levels_span_final_loss_percentiles(master_runs):
    levels = default_loss_levels(master_runs)
    assert len(levels) == 8
    assert all(a < b for a, b in zip(levels, levels[1:]))
    gaps = np.diff(levels)
    assert gaps == pytest.approx(gaps[0], rel=1e-9)
    assert default_loss_levels(master_runs, n_levels=4)[0] == pytest.approx(levels[0])
    with pytest.raises(InsufficientDataError):
        default_loss_levels(RunSet())
    for n_levels in (0, -1):
        with pytest.raises(ValidationError, match="n_levels must be at least 1"):
            default_loss_levels(master_runs, n_levels=n_levels)


def _percentile_cases():
    rng = np.random.default_rng(19)
    for n in (1, 2, 3, 5, 7, 10, 33, 105):
        yield rng.normal(2.6, 0.2, n)  # unsorted
        yield np.round(rng.normal(2.6, 0.2, n), 1)  # ties
        yield np.sort(rng.uniform(1.5, 4.0, n))[::-1]  # descending
    yield np.full(4, 2.5)
    yield np.array([3.0, 1.0, 3.0, 1.0, 2.0])
    # with 7 values the weights are 0.2 at q = 20 and 0.8 at q = 80; on
    # these draws the lerp from the wrong end differs in the last bit
    yield np.random.default_rng(10).uniform(1.5, 4.0, 7)
    yield np.random.default_rng(14).uniform(1.5, 4.0, 7)


@pytest.mark.parametrize("values", list(_percentile_cases()), ids=lambda v: f"n{v.size}")
def test_percentile_matches_numpy_bit_for_bit(values):
    for q in (*scalelaw.bslaw.LEVEL_PERCENTILES, 0.0, 50.0, 37.5, 100.0):
        got = scalelaw.bslaw._percentile(values.tolist(), q)
        assert got == float(np.percentile(values, q)), (q, values)
        assert type(got) is float


_floats = st.floats(min_value=-1e300, max_value=1e300)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(lo=_floats, hi=_floats, n=st.integers(min_value=1, max_value=40))
@example(lo=2.5, hi=2.5, n=8)
@example(lo=0.0, hi=5e-324, n=4)  # a step that underflows to zero
@example(lo=-0.0, hi=-5e-324, n=1)
@example(lo=1.0, hi=math.nextafter(1.0, 2.0), n=5)
def test_linspace_matches_numpy_bit_for_bit(lo, hi, n):
    got = scalelaw.bslaw._linspace(lo, hi, n)
    assert np.array(got).tobytes() == np.linspace(lo, hi, n).tobytes(), (lo, hi, n)
    assert all(type(v) is float for v in got)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(values=st.lists(
    st.one_of(st.floats(min_value=5e-324, max_value=1e300), st.sampled_from([1500.0, 4000.0])),
    min_size=1,
    max_size=30,
))
def test_median_of_step_counts_matches_numpy_bit_for_bit(values):
    got = scalelaw.bslaw._median(values)
    assert np.float64(got).tobytes() == np.median(values).tobytes(), values


def _numpy_power_law(x, y) -> tuple[float, float]:
    """(k, p) of fit_power_law with numpy's log and exp."""
    log_x, log_y = np.log(x).tolist(), np.log(y).tolist()
    mean_x, mean_y = math.fsum(log_x) / len(log_x), math.fsum(log_y) / len(log_y)
    u = [v - mean_x for v in log_x]
    slope = math.fsum(a * (b - mean_y) for a, b in zip(u, log_y)) / math.fsum(a * a for a in u)
    return float(np.exp(mean_y - slope * mean_x)), slope


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    log_x=st.lists(st.floats(min_value=10.0, max_value=30.0), min_size=2, max_size=16,
                   unique=True).filter(lambda v: max(v) - min(v) > 1.0),
    p=st.floats(min_value=-2.0, max_value=2.0),
    log_k=st.floats(min_value=-20.0, max_value=20.0),
    noise=st.lists(st.floats(min_value=-0.3, max_value=0.3), min_size=16, max_size=16),
)
def test_power_law_in_python_floats_stays_within_1e_13_of_numpy(log_x, p, log_k, noise):
    x = [math.exp(v) for v in log_x]
    y = [math.exp(log_k + p * v + e) for v, e in zip(log_x, noise)]
    law = fit_power_law(x, y)
    k, slope = _numpy_power_law(x, y)
    assert math.isclose(law.k, k, rel_tol=1e-13)
    assert math.isclose(law.p, slope, rel_tol=1e-13, abs_tol=1e-13)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    log_b=st.lists(st.floats(min_value=11.0, max_value=17.0), min_size=3, max_size=12,
                   unique=True).filter(lambda v: max(v) - min(v) > 1.0),
    curvature=st.floats(min_value=0.2, max_value=3.0),
    noise=st.lists(st.floats(min_value=-0.05, max_value=0.05), min_size=12, max_size=12),
)
def test_contour_parabola_in_python_floats_stays_within_1e_13_of_numpy(log_b, curvature, noise):
    centre = (min(log_b) + max(log_b)) / 2
    points = [
        ContourPoint(2.8, math.exp(v), math.exp(22.0 + curvature * (v - centre) ** 2 + e))
        for v, e in zip(log_b, noise)
    ]
    vertex = fit_contour_parabola(points)
    b_star, d_star = scalelaw.frontier.parabola_vertex(
        np.log([pt.B for pt in points]), np.log([pt.D_required for pt in points])
    )
    assert math.isclose(vertex.B_star, math.exp(b_star), rel_tol=1e-13)
    assert math.isclose(vertex.D_star, math.exp(d_star), rel_tol=1e-13)


# ---------------------------------------------------------------------------
# parabola vertex


def test_parabola_exact_quadratic_vertex():
    offsets = (-1.0, -0.5, 0.0, 0.5, 1.0)
    pts = [
        ContourPoint(
            loss_level=2.8,
            B=4e6 * math.exp(x),
            D_required=1e11 * math.exp(x * x),
        )
        for x in offsets
    ]
    vertex = fit_contour_parabola(pts)
    assert vertex.B_star == pytest.approx(4e6, rel=1e-9)
    assert vertex.D_star == pytest.approx(1e11, rel=1e-9)
    assert not vertex.extrapolated
    assert vertex.loss_level == 2.8


def test_parabola_one_sided_points_flagged_extrapolated():
    pts = [
        ContourPoint(loss_level=2.8, B=4e6 * math.exp(x), D_required=1e11 * math.exp(x * x))
        for x in (0.5, 1.0, 1.5, 2.0)
    ]
    vertex = fit_contour_parabola(pts)
    assert vertex.extrapolated
    assert vertex.B_star == pytest.approx(4e6, rel=1e-9)


def test_parabola_concave_has_no_minimum():
    pts = [
        ContourPoint(loss_level=2.8, B=4e6 * math.exp(x), D_required=1e11 * math.exp(-x * x))
        for x in (-1.0, 0.0, 1.0)
    ]
    with pytest.raises(NoMinimumError, match="no interior minimum"):
        fit_contour_parabola(pts)


def test_parabola_vertex_past_the_float_range_has_no_minimum(monkeypatch):
    """A convex but nearly flat contour puts its vertex past the float
    range: that is no minimum, and the pipeline skips its level."""
    pts = [
        ContourPoint(
            loss_level=2.8, B=math.exp(x), D_required=math.exp(30 - 0.5 * x + 1e-9 * (x - 13) ** 2)
        )
        for x in (12.0, 13.0, 14.0)
    ]
    with pytest.raises(NoMinimumError, match="past the float range"):
        fit_contour_parabola(pts)
    monkeypatch.setattr(scalelaw.bslaw, "iso_loss_contour", lambda *args, **kwargs: {2.8: pts})
    with pytest.warns(UserWarning, match="skipping level 2.8: .* past the float range"):
        with pytest.raises(InsufficientDataError):
            scalelaw.bslaw.bopt_law_from_runs(RunSet(), [2.8])


def test_parabola_monotone_closure_vertex_is_extrapolated():
    # the pure trade-off contour rises monotonically in B, so its parabola
    # bottoms out left of the data
    d_min = GT0.law.d_for_loss(2.8, 3.5e8)
    pts = [
        ContourPoint(loss_level=2.8, B=b, D_required=d_min * (1.0 + b / 4e6))
        for b in (2e6, 4e6, 8e6, 1.6e7, 3.2e7)
    ]
    vertex = fit_contour_parabola(pts)
    assert vertex.extrapolated
    assert vertex.B_star < 2e6


def test_parabola_input_validation():
    pts = [
        ContourPoint(loss_level=2.8, B=b, D_required=d)
        for b, d in ((1e6, 1e10), (2e6, 9e9))
    ]
    with pytest.raises(InsufficientDataError):
        fit_contour_parabola(pts)
    dup = [
        ContourPoint(loss_level=2.8, B=b, D_required=d)
        for b, d in ((1e6, 1e10), (1e6, 9e9), (2e6, 8e9))
    ]
    with pytest.raises(InsufficientDataError):
        fit_contour_parabola(dup)
    mixed = [
        ContourPoint(loss_level=2.8, B=1e6, D_required=1e10),
        ContourPoint(loss_level=2.9, B=2e6, D_required=9e9),
        ContourPoint(loss_level=2.8, B=4e6, D_required=8e9),
    ]
    with pytest.raises(ValidationError, match="one loss level"):
        fit_contour_parabola(mixed)


def test_parabola_vertex_tracks_brute_force_minimum():
    # fixed-LR well sampled near its bottom: the fitted vertex must sit
    # within 3% of a dense scan of the same closure
    dense = np.geomspace(6e4, 2e6, 6000)
    d_vals = np.array([lr_well_d_required(2.8, b) for b in dense])
    idx = int(np.argmin(d_vals))
    assert 0 < idx < dense.size - 1  # interior minimum
    b_oracle, d_oracle = dense[idx], d_vals[idx]

    batches = np.geomspace(1.37e5, 2.74e5, 7)
    pts = [
        ContourPoint(loss_level=2.8, B=b, D_required=lr_well_d_required(2.8, b))
        for b in batches
    ]
    vertex = fit_contour_parabola(pts)
    assert not vertex.extrapolated
    assert vertex.B_star == pytest.approx(b_oracle, rel=0.03)
    assert vertex.D_star == pytest.approx(d_oracle, rel=0.005)


# ---------------------------------------------------------------------------
# two-regime law


def test_bopt_fit_recovers_published_constants():
    law = fit_bopt_law(published_vertices(np.geomspace(1e10, 1e12, 6)))
    assert law.power_fitted
    assert law.k == pytest.approx(PUBLISHED_K, rel=1e-9)
    assert law.p == pytest.approx(PUBLISHED_P, abs=1e-9)
    assert law.s_floor == 4000.0  # no floor-limited vertices: default
    assert (law.d_min, law.d_max) == (1e10, 1e12)


def test_bopt_law_published_evaluations():
    law = fit_bopt_law(published_vertices(np.geomspace(1e10, 1e12, 6)))
    assert law.eval(1e12) == pytest.approx(4.7e6, rel=0.02)
    assert law.eval(1e13) == pytest.approx(8.7e6, rel=0.01)
    assert law.eval(2e11) == pytest.approx(3.12e6, rel=0.005)
    assert law.extrapolates(1e13)
    assert not law.extrapolates(2e11)


def test_bopt_crossover_and_continuity():
    vertices = published_vertices(np.geomspace(1e10, 1e12, 5)) + [
        ContourVertex(loss_level=3.1 + 0.05 * i, B_star=d / 4000.0, D_star=d, extrapolated=False)
        for i, d in enumerate((1e8, 3e8, 1e9))
    ]
    law = fit_bopt_law(vertices)
    assert law.s_floor == pytest.approx(4000.0, rel=1e-12)
    assert law.crossover_D == pytest.approx(4.6117e9, rel=1e-3)
    at_cross = law.crossover_D
    assert at_cross / law.s_floor == pytest.approx(law.k * at_cross**law.p, rel=1e-9)
    assert law.regime(at_cross / 2) == "linear"
    assert law.regime(at_cross * 2) == "power"


def test_bopt_eval_is_min_of_branches_and_monotone():
    law = fit_bopt_law(published_vertices(np.geomspace(1e10, 1e12, 6)))
    grid = np.geomspace(1e7, 1e13, 300)
    vals = law.eval(grid)
    expected = np.minimum(grid / law.s_floor, law.k * grid**law.p)
    assert vals == pytest.approx(expected, rel=1e-12)
    assert np.all(np.diff(vals) > 0)
    with pytest.raises(ValidationError):
        law.eval(0.0)


def test_bopt_floor_hint_overrides_band():
    vertices = published_vertices(np.geomspace(1e10, 1e12, 6))
    law = fit_bopt_law(vertices, s_floor_hint=1500.0)
    assert law.s_floor == 1500.0
    with pytest.raises(ValidationError):
        fit_bopt_law(vertices, s_floor_hint=-1.0)


@pytest.mark.parametrize("hint", [0.0, -1.0, math.nan, math.inf])
def test_bopt_floor_hint_must_be_positive_and_finite(hint):
    vertices = published_vertices(np.geomspace(1e10, 1e12, 6))
    with pytest.raises(ValidationError, match="^s_floor_hint must be positive and finite, got "):
        fit_bopt_law(vertices, s_floor_hint=hint)
    # the hint is checked before the vertices
    with pytest.raises(ValidationError, match="^s_floor_hint must be positive and finite"):
        fit_bopt_law([], s_floor_hint=hint)


def test_bopt_law_from_runs_checks_the_hint_before_contour_work(monkeypatch):
    def no_contours(*args, **kwargs):
        raise AssertionError("contour work before the s_floor_hint check")

    monkeypatch.setattr(scalelaw.bslaw, "iso_loss_contour", no_contours)
    monkeypatch.setattr(scalelaw.bslaw, "default_loss_levels", no_contours)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValidationError, match="^s_floor_hint must be positive and finite"):
            scalelaw.bslaw.bopt_law_from_runs(RunSet(), s_floor_hint=math.nan)
    assert caught == []


def test_bopt_all_floor_vertices_has_no_power_branch():
    vertices = [
        ContourVertex(loss_level=3.0 - 0.05 * i, B_star=d / 3000.0, D_star=d, extrapolated=False)
        for i, d in enumerate((1e8, 4e8, 1e9, 4e9))
    ]
    law = fit_bopt_law(vertices)
    assert not law.power_fitted
    assert law.s_floor == pytest.approx(3000.0, rel=1e-12)
    assert math.isinf(law.crossover_D)
    assert law.eval(1e9) == pytest.approx(1e9 / 3000.0, rel=1e-12)


def test_bopt_extrapolated_vertices_dropped_by_default():
    good = published_vertices(np.geomspace(1e10, 1e12, 4))
    flagged = [
        ContourVertex(loss_level=2.0, B_star=1e6, D_star=5e12, extrapolated=True)
    ]
    with pytest.warns(UserWarning, match="extrapolated"):
        law = fit_bopt_law(good + flagged)
    assert law.d_max == 1e12


def test_bopt_fit_data_requirements():
    with pytest.raises(InsufficientDataError, match="4 vertices"):
        fit_bopt_law(published_vertices([1e10, 1e11, 1e12]))
    with pytest.raises(InsufficientDataError, match="decade"):
        fit_bopt_law(published_vertices(np.geomspace(1e10, 5e10, 5)))


def test_bopt_dict_round_trip():
    law = fit_bopt_law(published_vertices(np.geomspace(1e10, 1e12, 6)))
    clone = BoptLaw.from_dict(law.to_dict())
    assert clone == law


# ---------------------------------------------------------------------------
# end-to-end against the generator closure


def test_pipeline_exponent_tracks_dense_scan():
    # loss-linked critical batch: the planted optimum drifts with the loss
    # level; the fitted exponent must track a dense scan of the closure
    def d_req(level, B):
        d_min = GT0.law.d_for_loss(level, 3.5e8)
        bcrit = 4e6 * 2.5 / level
        e = solve_tradeoff(B / bcrit, 1.0).e_ratio
        rho = 4.4e-4 / eta_opt_adam(B, GT0.noise)
        efficiency = 2.0 * rho - rho * rho
        return d_min * e / efficiency

    levels = np.linspace(2.2, 3.2, 9)
    batches = np.geomspace(1.1e5, 3.5e5, 7)
    dense = np.geomspace(6e4, 2e6, 6000)

    vertices = []
    oracle_pairs = []
    for level in levels:
        pts = [
            ContourPoint(loss_level=level, B=b, D_required=d_req(level, b))
            for b in batches
        ]
        vertices.append(fit_contour_parabola(pts))
        d_vals = np.array([d_req(level, b) for b in dense])
        idx = int(np.argmin(d_vals))
        oracle_pairs.append((d_vals[idx], dense[idx]))

    fitted = fit_bopt_law(vertices, s_floor_hint=1500.0)
    oracle = fit_power_law([d for d, _ in oracle_pairs], [b for _, b in oracle_pairs])
    assert fitted.power_fitted
    assert fitted.p == pytest.approx(oracle.p, abs=0.01)
    assert abs(fitted.p - oracle.p) <= 0.03
