"""End-to-end guarantees, one test per advertised contract.

Each test pins a user-facing number or identity at its published
tolerance; the terminal summary prints one PASS/FAIL line per test.
Everything is seeded, so a failure reproduces bit for bit.
"""

import json
import math
import time

import numpy as np
import pytest

from scalelaw import (
    Curve,
    FrontierConstraint,
    LossSurface,
    LrScheme,
    ModelSpec,
    NoiseParams,
    RunRecord,
    RunSet,
    advise_compute,
    advise_data,
    apply_constraint,
    bopt_law_from_runs,
    d_required,
    default_ground_truth,
    default_sweep_config,
    eta_opt_adam,
    eta_opt_sgd,
    extract_lr_opt,
    fit_gamma,
    fit_loss_law,
    frontier_report,
    samples_from_runs,
    scale_lr,
    serialize_runs,
    tradeoff_table,
)
from scalelaw.cli import main

BASE_LR = 4.4e-4
MODEL_LABELS = ("125M", "350M", "760M", "1.3B", "2.6B")


# ---------------------------------------------------------------------------
# 1-3: published anchors of the packaged reference laws


def test_criterion_01_reference_law_anchor_losses(ref_law):
    assert ref_law.eval(2.6e9, 1e12) == pytest.approx(1.89, abs=0.01)
    assert ref_law.eval(1e9, 1.5e13) == pytest.approx(1.89, abs=0.01)


def test_criterion_02_compute_budget_recommendations(reference):
    rec = advise_compute(reference.frontier, 3.2e24, loss_law=reference.loss_law)
    assert rec.N == pytest.approx(7.0e10, rel=0.05)
    assert rec.D == pytest.approx(7.7e12, rel=0.05)

    rec = advise_compute(reference.frontier, 8.16e21, loss_law=reference.loss_law)
    assert rec.N == pytest.approx(4.36e9, rel=0.01)
    assert rec.D == pytest.approx(3.1178e11, rel=0.01)
    assert rec.B == pytest.approx(1.10e6, rel=0.01)


def test_criterion_03_data_budget_batch_sizes(reference):
    for tokens, batch, tol in (
        (1e12, 4.7e6, 0.02),
        (1e13, 8.7e6, 0.02),
        (2e11, 3.12e6, 0.01),
    ):
        rec = advise_data(reference.bopt, tokens)
        assert rec.B == pytest.approx(batch, rel=tol), f"B_opt({tokens:g})"


# ---------------------------------------------------------------------------
# 4-6: closed-form table, LR transfer, constraint algebra


def test_criterion_04_steps_data_tradeoff_table():
    rows = tradeoff_table(gamma=1.0)
    assert len(rows) == 7
    for row in rows:
        assert row.e_ratio == pytest.approx(1.0 + row.b_ratio, rel=1e-12)
        assert row.s_ratio == pytest.approx(row.e_ratio / row.b_ratio, rel=1e-12)
    # the small-batch corner of the published table: (e, s) = (1.1, 10)
    small = min(rows, key=lambda row: row.b_ratio)
    assert round(small.b_ratio, 1) == 0.1
    assert round(small.e_ratio, 1) == 1.1
    assert round(small.s_ratio) == 10


def test_criterion_05_lr_transfer_exact():
    assert scale_lr(1.2e-4, 2e6, 3e6, "linear") == 1.8e-4


def test_criterion_06_constraint_algebra():
    a, b = 0.464, 0.536
    _, alpha = apply_constraint(a, b, 0.297, 1.0 / (6.0 * 0.297), Bcoef=460.51, beta=0.286)
    assert alpha == pytest.approx(0.3304, abs=5e-4)
    assert alpha / 0.286 == pytest.approx(b / a, rel=1e-9)

    # a constrained fit inherits the ratio no matter what the data says
    law = default_ground_truth().law
    samples = np.array(
        [
            (n, d, law.eval(n, d))
            for n in (1.25e8, 3.5e8, 7.6e8, 1.3e9, 2.6e9)
            for d in np.geomspace(1e9, 3e11, 12)
        ]
    )
    constraint = FrontierConstraint(a=a, b=b, p=0.297, q=1.0 / (6.0 * 0.297))
    fit = fit_loss_law(samples, constraint=constraint)
    assert fit.law.alpha / fit.law.beta == pytest.approx(b / a, rel=1e-9)


# ---------------------------------------------------------------------------
# 7: master recovery test on the seeded 105-run sweep


def test_criterion_07_planted_law_recovery(master_runs, ground_truth):
    t0 = time.monotonic()
    law = ground_truth.law
    cfg = default_sweep_config()

    # constrained fit on the base-batch runs.  Those runs see the planted
    # law through a fixed data dilution (batch overhead over LR efficiency),
    # so the self-consistent constraint carries the same dilution in its
    # data coefficient.
    rho = cfg.base_lr / eta_opt_adam(cfg.base_batch, ground_truth.noise)
    efficiency = 2.0 * rho - rho * rho
    dilution = (1.0 + cfg.base_batch / ground_truth.noise.B_noise) / efficiency
    a = law.beta / (law.alpha + law.beta)
    k_big = law.Bcoef * dilution**law.beta
    growth = (law.alpha * law.A / (law.beta * k_big)) ** (1.0 / (law.alpha + law.beta))
    p = growth * 6.0**-a
    constraint = FrontierConstraint(a=a, b=1.0 - a, p=p, q=1.0 / (6.0 * p))

    base_runs = master_runs.subset(f"{label}-0.5M-origin-x1" for label in MODEL_LABELS)
    fit = fit_loss_law(samples_from_runs(base_runs, smooth=False), constraint=constraint)
    assert fit.law.E == pytest.approx(law.E, abs=0.05)
    assert fit.law.alpha == pytest.approx(law.alpha, abs=0.02)
    assert fit.law.beta == pytest.approx(law.beta, abs=0.02)
    assert fit.r_squared >= 0.99

    # compute frontier from the same five runs
    with pytest.warns(UserWarning):
        report = frontier_report(base_runs, smooth=False)
    assert report.N_opt.p == pytest.approx(a, abs=0.03)
    assert report.D_opt.p == pytest.approx(1.0 - a, abs=0.03)
    assert report.N_opt.p + report.D_opt.p == pytest.approx(1.0, abs=1e-12)

    # batch-size law from the smallest model's linear-LR sweep, checked
    # against brute-force minimization of the generator's own token cost
    linear_runs = master_runs.subset(
        f"125M-{batch / 1e6:g}M-linear-x1" for batch in cfg.batch_sizes
    )
    levels = np.linspace(2.56, 3.40, 16)
    with pytest.warns(UserWarning):
        bopt, _ = bopt_law_from_runs(
            linear_runs,
            loss_levels=levels,
            lr_policy="fixed_scheme",
            scheme=LrScheme.LINEAR,
            s_floor_hint=1500.0,
            discard_fraction=0.0,
        )

    def tokens_needed(level, batch):
        lr = cfg.base_lr * (batch / cfg.base_batch)
        r = lr / eta_opt_adam(batch, ground_truth.noise)
        eff = 2.0 * r - r * r
        if eff <= 0:
            return math.inf
        return d_required(ground_truth, 1.25e8, level, batch) / eff

    grid = np.geomspace(3e5, 3.9e6, 600)
    best = []
    for level in levels:
        costs = np.array([tokens_needed(level, batch) for batch in grid])
        best.append((costs.min(), grid[int(np.argmin(costs))]))
    oracle_p = np.polyfit(np.log([d for d, _ in best]), np.log([b for _, b in best]), 1)[0]
    assert bopt.p == pytest.approx(oracle_p, abs=0.03)

    assert time.monotonic() - t0 < 120.0


# ---------------------------------------------------------------------------
# 8-9: optimal-LR shape and its recovery from a loss surface


def test_criterion_08_noise_scale_lr_shape():
    params = NoiseParams(eta_max=1e-3, B_noise=4e6, dL_max=1.0, gamma_tradeoff=1.0)
    grid = np.geomspace(4e3, 4e9, 121)  # three decades either side of B_noise
    etas = [eta_opt_adam(batch, params) for batch in grid]
    assert grid[int(np.argmax(etas))] == pytest.approx(params.B_noise, rel=1e-9)

    def log_slope(batch):
        up = math.log(eta_opt_adam(batch * 1.01, params))
        at = math.log(eta_opt_adam(batch, params))
        return (up - at) / math.log(1.01)

    assert log_slope(params.B_noise * 1e-3) == pytest.approx(0.5, abs=0.01)
    assert log_slope(params.B_noise * 1e3) == pytest.approx(-0.5, abs=0.01)

    assert eta_opt_sgd(params.B_noise, params) == params.eta_max / 2.0


def _lr_well_surface(params, transform=None):
    base_lr = 1e-4
    grid_b = np.geomspace(4e2, 4e4, 7)  # everything at most B_noise/100
    grid_lr = np.geomspace(0.05, 2.0, 17)
    losses = np.empty((len(grid_b), len(grid_lr)))
    for i, batch in enumerate(grid_b):
        vertex = eta_opt_adam(batch, params) / base_lr
        losses[i] = 1.0 + (np.log(grid_lr) - math.log(vertex)) ** 2
    if transform is not None:
        losses = transform(losses)
    return LossSurface(
        d_checkpoint=1e9, grid_B=grid_b, grid_LR=grid_lr, losses=losses, base_lr=base_lr
    )


def test_criterion_09_small_batch_gamma_from_surface():
    params = default_ground_truth().noise
    samples = extract_lr_opt(_lr_well_surface(params))
    assert fit_gamma(samples).gamma == pytest.approx(0.5, abs=0.05)

    # the extracted optima only depend on where the minimum sits, not on
    # the loss scale: an affine remap must reproduce them
    remapped = extract_lr_opt(_lr_well_surface(params, transform=lambda l: 2.0 * l + 1.0))
    assert len(remapped) == len(samples)
    for before, after in zip(samples, remapped):
        assert after.lr_opt == pytest.approx(before.lr_opt, rel=1e-9)
        assert after.B == before.B


# ---------------------------------------------------------------------------
# 10: budget identities of every recommendation and fitted frontier


def test_criterion_10_budget_identities(reference, master_runs):
    for compute in np.geomspace(1e18, 1e26, 17):
        rec = advise_compute(reference.frontier, compute, loss_law=reference.loss_law)
        assert 6.0 * rec.N * rec.D == pytest.approx(compute, rel=0.01)
        assert rec.S * rec.B == pytest.approx(rec.D, abs=rec.B)

    base_runs = master_runs.subset(f"{label}-0.5M-origin-x1" for label in MODEL_LABELS)
    with pytest.warns(UserWarning):
        report = frontier_report(base_runs, smooth=False)
    assert report.N_opt.p + report.D_opt.p == pytest.approx(1.0, abs=1e-12)
    assert 6.0 * report.N_opt.k * report.D_opt.k == pytest.approx(1.0, rel=1e-12)
    assert report.B_opt.k == pytest.approx(report.D_opt.k / report.S_opt.k, rel=1e-12)
    assert report.B_opt.p == pytest.approx(report.D_opt.p - report.S_opt.p, abs=1e-12)


# ---------------------------------------------------------------------------
# 11: the whole pipeline is a pure function of its seed


def _write_lr_sweep(path):
    runset = RunSet()
    for i, batch in enumerate((1e6, 2e6, 4e6, 8e6, 1.6e7)):
        vertex = 0.5 * (batch / 1e6) ** 0.3
        for scale in (0.25, 0.5, 1.0, 2.0):
            loss = 1.0 + (math.log(scale) - math.log(vertex)) ** 2
            runset.add(
                RunRecord(
                    run_id=f"lr{i}-x{scale:g}",
                    model=ModelSpec(n_params=3.5e8),
                    batch_size_tokens=batch,
                    lr_peak=BASE_LR * scale,
                    lr_scheme=LrScheme.ORIGIN,
                    warmup_steps=0,
                    decay_steps=0,
                    points=Curve(
                        np.arange(1, 21), np.arange(1, 21) * batch, np.full(20, loss)
                    ),
                    lr_scale=scale,
                )
            )
    path.write_text("\n".join(serialize_runs(runset)) + "\n")
    return path


def _pipeline(base, seed, capsys):
    base.mkdir()
    models_cfg = base / "models.json"
    truth = default_ground_truth(seed=1, observation_noise=0.005).to_dict()
    truth["bcrit_b0"] = 1e14
    truth["lr_efficiency"] = False
    models_cfg.write_text(
        json.dumps(
            {
                "ground_truth": truth,
                "sweep": dict(
                    models=[
                        {"n_params": n, "label": label}
                        for n, label in zip(
                            (1.25e8, 3.5e8, 7.6e8, 1.3e9, 2.6e9), MODEL_LABELS
                        )
                    ],
                    batch_sizes=[5e5],
                    schemes=["origin"],
                    lr_factors=[1.0],
                    base_batch=5e5,
                    base_lr=BASE_LR,
                    tokens_per_run=3e10,
                    points_per_run=60,
                ),
            }
        )
    )
    batches_cfg = base / "batches.json"
    batches_cfg.write_text(
        json.dumps(
            {
                "ground_truth": default_ground_truth(seed=1, observation_noise=0.0).to_dict(),
                "sweep": dict(
                    models=[{"n_params": 3.5e8, "label": "350M"}],
                    batch_sizes=list(np.geomspace(1.1e5, 3.5e5, 7)),
                    schemes=["origin"],
                    lr_factors=[1.0],
                    base_batch=5e5,
                    base_lr=BASE_LR,
                    tokens_per_run=3e11,
                    points_per_run=400,
                ),
            }
        )
    )
    model_runs = base / "models.jsonl"
    batch_runs = base / "batches.jsonl"
    laws = base / "laws.json"
    seed_args = ["--seed", str(seed)]
    assert main(["simulate", "--config", str(models_cfg), "--out", str(model_runs)]
                + seed_args) == 0
    assert main(["simulate", "--config", str(batches_cfg), "--out", str(batch_runs)]
                + seed_args) == 0

    levels = ",".join(str(level) for level in np.linspace(2.3, 2.78, 9))
    assert main(["fit-bopt", "--runs", str(batch_runs), "--laws", str(laws),
                 "--levels", levels, "--s-floor", "1500"]) == 0
    assert main(["frontier", "--runs", str(model_runs), "--laws", str(laws)]) == 0
    assert main(["fit-law", "--runs", str(model_runs), "--laws", str(laws),
                 "--constrain", "frontier", "--raw"]) == 0
    sweep = _write_lr_sweep(base / "lr.jsonl")
    assert main(["fit-lr", "--runs", str(sweep), "--laws", str(laws),
                 "--checkpoint-tokens", "2e7"]) == 0

    capsys.readouterr()
    assert main(["advise", "--compute", "1e20", "--laws", str(laws), "--json"]) == 0
    advice = capsys.readouterr().out
    return laws.read_bytes(), advice


def test_criterion_11_pipeline_determinism(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("SCALELAW_SEED", raising=False)
    t0 = time.monotonic()
    first = _pipeline(tmp_path / "a", seed=11, capsys=capsys)
    second = _pipeline(tmp_path / "b", seed=11, capsys=capsys)
    assert first[0] == second[0]
    assert first[1] == second[1]

    # a different seed must actually reach the artifact
    control = _pipeline(tmp_path / "c", seed=12, capsys=capsys)
    assert control[0] != first[0]

    assert time.monotonic() - t0 < 300.0
