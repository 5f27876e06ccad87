import copy
import math
import pickle
import random
from collections import Counter

import numpy as np
import pytest

from scalelaw import (
    Curve,
    GammaUndefinedError,
    InsufficientDataError,
    InsufficientGridError,
    LossSurface,
    LrLawFit,
    LrSample,
    LrScheme,
    ModelSpec,
    RunRecord,
    RunSet,
    ValidationError,
    build_surface,
    eta_opt_adam,
    extract_lr_opt,
    fit_gamma,
    scale_lr,
)
import scalelaw.runlog
from scalelaw._record import replace
from scalelaw.runlog import smooth_run
from scalelaw.synth import SynthConfig, default_ground_truth, simulate_grid

BASE_LR = 4.4e-4


# ---------------------------------------------------------------------------
# scale_lr


def test_scale_lr_linear_anchor():
    assert scale_lr(1.2e-4, 2e6, 3e6, "linear") == pytest.approx(1.8e-4, rel=1e-12)


def test_scale_lr_sqrt_anchor():
    assert scale_lr(6.0e-4, 5e5, 2e6, "sqrt") == pytest.approx(1.2e-3, rel=1e-12)


def test_scale_lr_identity_at_equal_batch():
    for scheme in ("linear", "sqrt", "none"):
        assert scale_lr(3e-4, 1e6, 1e6, scheme) == 3e-4


def test_scale_lr_accepts_scheme_enum():
    assert scale_lr(3e-4, 1e6, 4e6, LrScheme.ORIGIN) == 3e-4
    assert scale_lr(3e-4, 1e6, 4e6, LrScheme.SQRT) == pytest.approx(6e-4, rel=1e-12)
    assert scale_lr(3e-4, 1e6, 4e6, LrScheme.LINEAR) == pytest.approx(1.2e-3, rel=1e-12)


def test_scale_lr_composes():
    rng = random.Random(7)
    for scheme in ("linear", "sqrt"):
        for _ in range(20):
            b0, b1, b2 = (10 ** rng.uniform(5, 8) for _ in range(3))
            via = scale_lr(scale_lr(3e-4, b0, b1, scheme), b1, b2, scheme)
            direct = scale_lr(3e-4, b0, b2, scheme)
            assert via == pytest.approx(direct, rel=1e-12)


def test_scale_lr_validation():
    with pytest.raises(ValidationError):
        scale_lr(-1e-4, 1e6, 2e6)
    with pytest.raises(ValidationError, match="unknown"):
        scale_lr(1e-4, 1e6, 2e6, "cubic")


# ---------------------------------------------------------------------------
# surface construction


def constant_run(run_id, b, scale, loss, n_points=20, n_params=3.5e8):
    steps = np.arange(1, n_points + 1)
    points = Curve(steps, steps * b, np.full(n_points, loss))
    return RunRecord(
        run_id=run_id,
        model=ModelSpec(n_params=n_params),
        batch_size_tokens=b,
        lr_peak=BASE_LR * scale,
        lr_scheme=LrScheme.ORIGIN,
        warmup_steps=0,
        decay_steps=0,
        points=points,
        lr_scale=scale,
    )


def separable_sweep(value, diverge_cells=()):
    """Full 4x3 sweep with loss = value(b_index, lr_index)."""
    runs = {}
    for i, b in enumerate((1e6, 2e6, 4e6, 8e6)):
        for j, scale in enumerate((0.5, 1.0, 2.0)):
            run = constant_run(f"r{i}{j}", b, scale, value(i, j))
            if (i, j) in diverge_cells:
                losses = run.points.loss.copy()
                losses[-1] = math.inf
                pts = Curve(run.points.step, run.points.tokens, losses)
                run = RunRecord(
                    run_id=run.run_id,
                    model=run.model,
                    batch_size_tokens=run.batch_size_tokens,
                    lr_peak=run.lr_peak,
                    lr_scheme=run.lr_scheme,
                    warmup_steps=0,
                    decay_steps=0,
                    points=pts,
                    lr_scale=run.lr_scale,
                )
            runs[run.run_id] = run
    return RunSet(runs=runs)


def test_surface_reproduces_grid_nodes():
    runset = separable_sweep(lambda i, j: 2.0 + 0.3 * i + 0.1 * j)
    surface = build_surface(runset, d_checkpoint=1.5e7)
    assert list(surface.grid_B) == [1e6, 2e6, 4e6, 8e6]
    assert list(surface.grid_LR) == [0.5, 1.0, 2.0]
    assert surface.base_lr == pytest.approx(BASE_LR, rel=1e-12)
    for i in range(4):
        for j in range(3):
            assert surface.losses[i, j] == pytest.approx(2.0 + 0.3 * i + 0.1 * j, rel=1e-12)
            assert surface.column_at(surface.grid_B[i])[j] == pytest.approx(
                2.0 + 0.3 * i + 0.1 * j, rel=1e-12
            )


def test_surface_diverged_cell_is_missing_neighbors_unaffected():
    runset = separable_sweep(lambda i, j: 2.0 + 0.3 * i + 0.1 * j, diverge_cells={(0, 2)})
    with pytest.warns(UserWarning, match="missing at checkpoint"):
        surface = build_surface(runset, d_checkpoint=1.5e7)
    assert math.isnan(surface.losses[0, 2])
    assert surface.losses[0, 1] == pytest.approx(2.1, rel=1e-12)
    assert surface.losses[1, 2] == pytest.approx(2.5, rel=1e-12)


def test_surface_short_run_is_missing():
    runset = separable_sweep(lambda i, j: 2.5)
    short = constant_run("r00", 1e6, 0.5, 2.5, n_points=5)  # ends at 5e6 tokens
    runs = dict(runset.runs)
    runs["r00"] = short
    with pytest.warns(UserWarning, match="missing at checkpoint"):
        surface = build_surface(RunSet(runs=runs), d_checkpoint=1.5e7)
    assert math.isnan(surface.losses[0, 0])


def test_surface_requires_3x3_filled():
    runs = {}
    for i, b in enumerate((1e6, 2e6)):
        for j, scale in enumerate((0.5, 1.0, 2.0)):
            run = constant_run(f"r{i}{j}", b, scale, 2.5)
            runs[run.run_id] = run
    with pytest.raises(InsufficientGridError):
        build_surface(RunSet(runs=runs), d_checkpoint=1.5e7)


def test_surface_checkpoint_in_discarded_head_is_missing():
    runset = separable_sweep(lambda i, j: 2.5)
    runs = dict(runset.runs)
    # 15 of 20 warm-up steps: smoothing drops the first 75% of r00's 2e7 tokens
    runs["r00"] = replace(runs["r00"], warmup_steps=15)
    with pytest.warns(UserWarning, match="run r00 missing at checkpoint"):
        surface = build_surface(RunSet(runs=runs), d_checkpoint=1.2e7)
    assert math.isnan(surface.losses[0, 0])
    assert np.isfinite(surface.losses).sum() == surface.losses.size - 1


def test_surface_reads_the_sets_smoothed_curves(monkeypatch):
    runset = separable_sweep(lambda i, j: 2.0 + 0.3 * i + 0.1 * j)
    calls = Counter()

    def counting_smooth_run(run, *args, **kwargs):
        calls[run.run_id] += 1
        return smooth_run(run, *args, **kwargs)

    monkeypatch.setattr(scalelaw.runlog, "smooth_run", counting_smooth_run)
    first = build_surface(runset, d_checkpoint=1.5e7)
    second = build_surface(runset, d_checkpoint=1.5e7)
    assert calls == Counter(dict.fromkeys(runset.runs, 1))
    assert first.losses.tolist() == second.losses.tolist()


def test_surface_fields_are_read_only_views_of_float_buffers():
    surface = build_surface(separable_sweep(lambda i, j: 2.0 + 0.3 * i + 0.1 * j), 1.5e7)
    grid_b, grid_lr, losses = surface.buffers
    assert (grid_b.format, grid_lr.format, losses.format) == ("d", "d", "d")
    assert losses.shape == (4, 3) and losses.readonly
    assert surface.losses.base is not None and not surface.losses.flags.writeable
    assert surface.losses.tolist() == losses.tolist()
    assert surface.grid_B is surface.grid_B  # built once, on first read


def test_surface_pickles_and_deep_copies_as_its_arrays():
    # memoryviews do not pickle; a surface goes through its arrays, as a Curve does
    surface = build_surface(separable_sweep(lambda i, j: 2.0 + 0.3 * i + 0.1 * j), 1.5e7)
    for other in (pickle.loads(pickle.dumps(surface)), copy.deepcopy(surface)):
        assert (other.d_checkpoint, other.base_lr) == (surface.d_checkpoint, surface.base_lr)
        assert other.losses.tobytes() == surface.losses.tobytes()
        assert other.buffers[2].readonly
        for b in (*surface.grid_B.tolist(), 1.5e6, 5e5):
            assert np.array(other.column_at(b)).tobytes() == np.array(surface.column_at(b)).tobytes()


@pytest.mark.parametrize("n_b, n_lr", [(2, 3), (3, 2)])
def test_surface_smaller_than_3x3_is_insufficient(n_b, n_lr):
    with pytest.raises(InsufficientGridError):
        LossSurface(
            d_checkpoint=1e9,
            grid_B=[1e6, 2e6, 4e6][:n_b],
            grid_LR=[0.5, 1.0, 2.0][:n_lr],
            losses=np.full((n_b, n_lr), 2.0),
            base_lr=3e-4,
        )


def test_surface_input_validation():
    with pytest.raises(InsufficientDataError):
        build_surface(RunSet(), d_checkpoint=1e9)

    mixed = separable_sweep(lambda i, j: 2.5)
    runs = dict(mixed.runs)
    runs["r00"] = constant_run("r00", 1e6, 0.5, 2.5, n_params=7.6e8)
    with pytest.raises(ValidationError, match="single model size"):
        build_surface(RunSet(runs=runs), d_checkpoint=1.5e7)

    runs = dict(mixed.runs)
    bad = constant_run("r00", 1e6, 0.5, 2.5)
    runs["r00"] = RunRecord(
        run_id="r00",
        model=bad.model,
        batch_size_tokens=bad.batch_size_tokens,
        lr_peak=bad.lr_peak * 2,  # same scale, different implied base
        lr_scheme=bad.lr_scheme,
        warmup_steps=0,
        decay_steps=0,
        points=bad.points,
        lr_scale=bad.lr_scale,
    )
    with pytest.raises(ValidationError, match="base learning rate"):
        build_surface(RunSet(runs=runs), d_checkpoint=1.5e7)

    # a second run at the (B, LR-factor) cell of r00, under another id
    runs = dict(mixed.runs)
    runs["again"] = constant_run("again", 1e6, 0.5, 2.4)
    with pytest.raises(ValidationError, match=r"^duplicate sweep cell B=1e\+06, scale=0.5$"):
        build_surface(RunSet(runs=runs), d_checkpoint=1.5e7)


def test_surface_type_validation():
    good = dict(
        d_checkpoint=1e9,
        grid_B=[1e6, 2e6, 4e6],
        grid_LR=[0.5, 1.0, 2.0],
        losses=np.full((3, 3), 2.0),
        base_lr=3e-4,
    )
    LossSurface(**good)
    with pytest.raises(ValidationError, match="shaped"):
        LossSurface(**{**good, "losses": np.full((3, 2), 2.0)})
    with pytest.raises(ValidationError, match="increasing"):
        LossSurface(**{**good, "grid_B": [2e6, 1e6, 4e6]})
    with pytest.raises(ValidationError, match="positive"):
        LossSurface(**{**good, "losses": np.full((3, 3), -1.0)})


@pytest.mark.parametrize("name", ["d_checkpoint", "base_lr"])
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
def test_surface_refuses_non_positive_and_non_finite_scalars(name, value):
    good = dict(
        d_checkpoint=1e9,
        grid_B=[1e6, 2e6, 4e6],
        grid_LR=[0.5, 1.0, 2.0],
        losses=np.full((3, 3), 2.0),
        base_lr=3e-4,
    )
    with pytest.raises(ValidationError, match=f"^{name} must be positive and finite, got "):
        LossSurface(**{**good, name: value})


@pytest.mark.parametrize("checkpoint", [math.nan, math.inf])
def test_surface_at_non_finite_checkpoint_names_it(checkpoint):
    # at such a checkpoint every cell reads NaN; the checkpoint is the fault
    runset = separable_sweep(lambda i, j: 2.0 + 0.3 * i + 0.1 * j)
    with pytest.raises(ValidationError, match="d_checkpoint must be positive and finite"):
        build_surface(runset, d_checkpoint=checkpoint)


def test_surface_log_b_blend():
    grid_b = [1e6, 4e6, 1.6e7]
    surface = LossSurface(
        d_checkpoint=1e9,
        grid_B=grid_b,
        grid_LR=[0.5, 1.0, 2.0],
        losses=np.array([[2.0, 2.1, 2.2], [3.0, 3.1, 3.2], [4.0, 4.1, 4.2]]),
        base_lr=3e-4,
    )
    # geometric midpoint of the first two rows blends them equally
    assert surface.column_at(2e6) == pytest.approx([2.5, 2.6, 2.7], rel=1e-12)
    assert surface.column_at(8e6) == pytest.approx([3.5, 3.6, 3.7], rel=1e-12)
    assert surface.column_at(1.6e7) == pytest.approx([4.0, 4.1, 4.2], rel=1e-12)
    for off_grid in (5e5, 3.2e7):
        assert np.isnan(surface.column_at(off_grid)).all()


# ---------------------------------------------------------------------------
# LR_opt extraction


def quadratic_surface(vertices, grid_b=None, transform=None):
    grid_b = grid_b if grid_b is not None else np.geomspace(1e6, 1.6e7, 5)
    grid_lr = np.geomspace(0.25, 4.0, 9)
    losses = np.empty((len(grid_b), len(grid_lr)))
    for i, v in enumerate(vertices):
        losses[i] = 1.0 + (np.log(grid_lr) - math.log(v)) ** 2
    if transform is not None:
        losses = transform(losses)
    return LossSurface(
        d_checkpoint=1e9, grid_B=grid_b, grid_LR=grid_lr, losses=losses, base_lr=6e-4
    )


def test_extract_exact_quadratic_vertices():
    grid_b = np.geomspace(1e6, 1.6e7, 5)
    vertices = [0.5 * (b / 1e6) ** 0.3 for b in grid_b]
    surface = quadratic_surface(vertices, grid_b)
    samples = extract_lr_opt(surface, refinement=1)
    assert len(samples) == 5
    for sample, v in zip(samples, vertices):
        assert not sample.boundary
        assert sample.lr_opt == pytest.approx(6e-4 * v, rel=1e-6)
        assert sample.loss_at_opt == pytest.approx(1.0, abs=1e-9)


def test_extract_flags_boundary_minimum():
    # vertex below the LR grid: the discrete argmin sits on the edge
    surface = quadratic_surface([0.1, 0.5, 0.6, 0.7, 0.8])
    samples = extract_lr_opt(surface, refinement=1)
    assert samples[0].boundary
    assert samples[0].lr_opt == pytest.approx(6e-4 * 0.25, rel=1e-12)
    assert not any(s.boundary for s in samples[1:])


def test_extract_monotone_transform_invariance():
    vertices = [0.5, 0.6, 0.8, 1.0, 1.3]
    plain = extract_lr_opt(quadratic_surface(vertices), refinement=2)
    scaled = extract_lr_opt(
        quadratic_surface(vertices, transform=lambda x: 2.0 * x + 1.0), refinement=2
    )
    assert len(plain) == len(scaled)
    for a, b in zip(plain, scaled):
        assert a.B == b.B
        assert a.boundary == b.boundary
        assert b.lr_opt == pytest.approx(a.lr_opt, rel=1e-12)
        assert b.loss_at_opt == pytest.approx(2.0 * a.loss_at_opt + 1.0, rel=1e-12)


def test_extract_refinement_densifies_batch_axis():
    surface = quadratic_surface([0.5, 0.6, 0.8, 1.0, 1.3])
    samples = extract_lr_opt(surface, refinement=4)
    assert len(samples) == 17  # 4 cells * 4 + shared endpoints
    bs = [s.B for s in samples]
    assert bs == sorted(bs)
    with pytest.raises(ValidationError):
        extract_lr_opt(surface, refinement=0)


def test_extract_skips_around_missing_cells():
    grid_b = np.geomspace(1e6, 1.6e7, 5)
    vertices = [0.5, 0.6, 0.8, 1.0, 1.3]
    surface = quadratic_surface(vertices, grid_b)
    losses = surface.losses.copy()
    losses[2, 0] = np.nan  # hole away from row 2's vertex neighborhood
    holed = LossSurface(
        d_checkpoint=1e9,
        grid_B=grid_b,
        grid_LR=surface.grid_LR,
        losses=losses,
        base_lr=6e-4,
    )
    samples = extract_lr_opt(holed, refinement=1)
    assert samples[2].lr_opt == pytest.approx(6e-4 * 0.8, rel=1e-6)


def test_extract_skips_column_of_isolated_cells():
    grid_b = np.geomspace(1e6, 1.6e7, 5)
    surface = quadratic_surface([0.5, 0.6, 0.8, 1.0, 1.3], grid_b)
    losses = surface.losses.copy()
    losses[0, 1::2] = np.nan  # row 0 keeps only every other LR cell
    holed = LossSurface(
        d_checkpoint=1e9,
        grid_B=grid_b,
        grid_LR=surface.grid_LR,
        losses=losses,
        base_lr=6e-4,
    )
    samples = extract_lr_opt(holed, refinement=1)
    assert [s.B for s in samples] == pytest.approx(grid_b[1:].tolist(), rel=1e-12)


def test_swept_batch_reads_its_own_row_past_a_hole_in_the_last_row():
    # blending row 3 with row 4 at weight 0 would turn row 4's hole into a
    # hole of row 3 (0 * NaN is NaN), and row 3's optimum into a boundary
    grid_b = np.geomspace(1e6, 1.6e7, 5)
    vertices = [0.5, 0.6, 0.8, 1.0, 1.3]
    surface = quadratic_surface(vertices, grid_b)
    losses = surface.losses.copy()
    losses[4, 4] = np.nan  # row 4 misses the LR factor of row 3's optimum
    holed = LossSurface(
        d_checkpoint=1e9,
        grid_B=grid_b,
        grid_LR=surface.grid_LR,
        losses=losses,
        base_lr=6e-4,
    )
    for i, b in enumerate(grid_b):
        np.testing.assert_array_equal(holed.column_at(b), losses[i])  # NaN where row i has one
    samples = extract_lr_opt(holed, refinement=2)
    nodes = samples[::2]
    assert [s.B for s in nodes] == grid_b.tolist()  # the swept batches themselves
    assert not nodes[3].boundary
    assert nodes[3].lr_opt == pytest.approx(6e-4 * vertices[3], rel=1e-6)
    assert nodes[3].loss_at_opt == pytest.approx(1.0, abs=1e-9)
    # between rows 3 and 4 the blend still needs both rows
    assert math.isnan(holed.column_at(math.sqrt(grid_b[3] * grid_b[4]))[4])


# ---------------------------------------------------------------------------
# generator surface: LR_opt must track the analytic optimum


@pytest.fixture(scope="module")
def generator_surface():
    gt = default_ground_truth(seed=1, observation_noise=0.0)
    cfg = SynthConfig(
        models=(ModelSpec(n_params=3.5e8),),
        batch_sizes=(5e5, 1e6, 2e6, 4e6, 8e6, 1.6e7, 3.2e7),
        schemes=(LrScheme.ORIGIN,),
        lr_factors=tuple(np.geomspace(0.25, 4.0, 9)),
        tokens_per_run=1e11,
        points_per_run=150,
    )
    runset = simulate_grid(cfg, gt)
    with pytest.warns(UserWarning, match="missing at checkpoint"):
        surface = build_surface(runset, d_checkpoint=2e10)
    return gt, surface


def test_generator_surface_minimum_tracks_eta_opt(generator_surface):
    gt, surface = generator_surface
    samples = extract_lr_opt(surface, refinement=1)
    by_b = {s.B: s for s in samples if not s.boundary}
    half_cell = 0.5 * math.log(math.sqrt(2.0))  # LR grid step is sqrt(2)
    checked = 0
    for b, sample in by_b.items():
        expected = eta_opt_adam(b, gt.noise)
        assert abs(math.log(sample.lr_opt / expected)) <= half_cell
        checked += 1
    assert checked >= 5


def test_generator_surface_peaks_at_noise_scale(generator_surface):
    gt, surface = generator_surface
    samples = extract_lr_opt(surface, refinement=1)
    usable = [s for s in samples if not s.boundary]
    peak = max(usable, key=lambda s: s.lr_opt)
    assert peak.B == pytest.approx(gt.noise.B_noise, rel=1e-9)


# ---------------------------------------------------------------------------
# gamma fit


def power_samples(c, gamma, bs, ceiling=None):
    out = []
    for b in bs:
        lr = c * b**gamma
        if ceiling is not None:
            lr = min(lr, ceiling)
        out.append(LrSample(B=b, lr_opt=lr, loss_at_opt=2.0))
    return out


def test_gamma_exact_power_law_no_plateau():
    samples = power_samples(2.4e-4 / 1e6**0.85, 0.85, np.geomspace(1e5, 1e7, 8))
    fit = fit_gamma(samples)
    assert fit.gamma == pytest.approx(0.85, abs=1e-9)
    assert fit.lr_ceiling is None
    assert fit.plateau_onset_B is None
    assert fit.n_fit == 8


def test_gamma_small_batch_limit_is_half():
    gt = default_ground_truth(seed=1)
    bs = np.geomspace(4e6 / 1e4, 4e6 / 100, 6)
    samples = [
        LrSample(B=b, lr_opt=eta_opt_adam(b, gt.noise), loss_at_opt=2.0) for b in bs
    ]
    fit = fit_gamma(samples)
    assert fit.gamma == pytest.approx(0.5, abs=0.05)


def test_gamma_detects_ceiling_plateau():
    rising = power_samples(
        0.8 * 2.4e-3 / 3.2e6**0.8, 0.8, np.geomspace(1e5, 3.2e6, 6)
    )
    flat = [
        LrSample(B=b, lr_opt=2.4e-3, loss_at_opt=2.0) for b in (6.4e6, 1.28e7, 2.56e7)
    ]
    fit = fit_gamma(rising + flat)
    assert fit.gamma == pytest.approx(0.8, abs=1e-9)
    assert fit.lr_ceiling == pytest.approx(2.4e-3, rel=1e-12)
    assert fit.plateau_onset_B == 6.4e6
    assert fit.n_fit == 6


def test_gamma_reference_shaped_curve_lands_in_band():
    # sub-linear rise capped by a stability ceiling: the published shape
    bs = np.geomspace(1e5, 3.2e7, 12)
    c = 2.4e-3 / 1e7**0.875
    fit = fit_gamma(power_samples(c, 0.875, bs, ceiling=2.4e-3))
    assert 0.75 <= fit.gamma <= 1.0
    assert fit.lr_ceiling == pytest.approx(2.4e-3, rel=0.01)


def test_gamma_all_plateau_raises_with_ceiling():
    flat = [
        LrSample(B=b, lr_opt=2.4e-3, loss_at_opt=2.0)
        for b in np.geomspace(1e6, 3.2e7, 6)
    ]
    with pytest.raises(GammaUndefinedError) as excinfo:
        fit_gamma(flat)
    assert excinfo.value.lr_ceiling == pytest.approx(2.4e-3, rel=1e-12)


def test_gamma_unit_rescaling_invariance():
    samples = power_samples(1e-5, 0.8, np.geomspace(1e5, 1e7, 8))
    rescaled = [
        LrSample(B=s.B / 1e6, lr_opt=s.lr_opt, loss_at_opt=s.loss_at_opt)
        for s in samples
    ]
    assert fit_gamma(rescaled).gamma == pytest.approx(fit_gamma(samples).gamma, abs=1e-12)


def test_gamma_ignores_boundary_samples():
    samples = power_samples(1e-5, 0.8, np.geomspace(1e5, 1e7, 8))
    flagged = samples[:2] + [
        LrSample(B=s.B, lr_opt=s.lr_opt * 3, loss_at_opt=s.loss_at_opt, boundary=True)
        for s in samples[2:4]
    ] + samples[4:]
    assert fit_gamma(flagged).gamma == pytest.approx(0.8, abs=1e-9)


def test_gamma_input_requirements():
    samples = power_samples(1e-5, 0.8, np.geomspace(1e5, 1e7, 8))
    with pytest.raises(InsufficientDataError):
        fit_gamma(samples[:3])
    with pytest.raises(ValidationError):
        fit_gamma(samples, plateau_tolerance=0.0)


@pytest.mark.parametrize("tolerance", [0.0, -0.05, math.nan, math.inf])
def test_gamma_refuses_non_positive_and_non_finite_plateau_tolerance(tolerance):
    # a NaN tolerance fails every comparison, so no suffix would count as
    # the plateau and gamma would be fitted through the ceiling
    samples = power_samples(1e-5, 0.8, np.geomspace(1e5, 1e8, 10), ceiling=4e-3)
    with pytest.raises(
        ValidationError, match="^plateau_tolerance must be positive and finite, got "
    ):
        fit_gamma(samples, plateau_tolerance=tolerance)


def test_lr_law_fit_to_dict():
    fit = LrLawFit(gamma=0.8, lr_ceiling=2.4e-3, plateau_onset_B=6.4e6, n_fit=6)
    assert fit.to_dict() == {
        "gamma": 0.8,
        "lr_ceiling": 2.4e-3,
        "plateau_onset_B": 6.4e6,
        "n_fit": 6,
    }
