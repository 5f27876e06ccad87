import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from scalelaw import (
    Curve,
    LawArtifact,
    LrScheme,
    ModelSpec,
    RunRecord,
    RunSet,
    default_ground_truth,
    default_loss_levels,
    default_sweep_config,
    parse_runs,
    serialize_runs,
)
import scalelaw
from scalelaw import lawfit
from scalelaw.cli import main

BASE_LR = 4.4e-4


def run_json(capsys, *argv):
    code = main([*argv, "--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture(autouse=True)
def clean_seed_env(monkeypatch):
    monkeypatch.delenv("SCALELAW_SEED", raising=False)


def quiet_config(**sweep):
    truth = default_ground_truth(seed=1, observation_noise=0.0).to_dict()
    truth["bcrit_b0"] = 1e14
    truth["lr_efficiency"] = False
    return {"ground_truth": truth, "sweep": sweep}


@pytest.fixture(scope="module")
def five_model_runs(tmp_path_factory):
    """Noise-free identity-world sweep: curves equal the planted law."""
    base = tmp_path_factory.mktemp("five")
    config = quiet_config(
        models=[{"n_params": n} for n in (1.25e8, 3.5e8, 7.6e8, 1.3e9, 2.6e9)],
        batch_sizes=[5e5],
        schemes=["origin"],
        lr_factors=[1.0],
        base_batch=5e5,
        base_lr=BASE_LR,
        tokens_per_run=3e10,
        points_per_run=60,
    )
    cfg = base / "config.json"
    cfg.write_text(json.dumps(config))
    runs = base / "runs.jsonl"
    assert main(["simulate", "--config", str(cfg), "--out", str(runs)]) == 0
    return runs


@pytest.fixture(scope="module")
def batch_sweep_runs(tmp_path_factory):
    """One model, seven batches, fixed LR: feeds the batch-size law fit."""
    base = tmp_path_factory.mktemp("bsweep")
    truth = default_ground_truth(seed=1, observation_noise=0.0).to_dict()
    config = {
        "ground_truth": truth,
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
    cfg = base / "config.json"
    cfg.write_text(json.dumps(config))
    runs = base / "runs.jsonl"
    assert main(["simulate", "--config", str(cfg), "--out", str(runs)]) == 0
    return runs


def lr_sweep_file(path, vertex_of_b):
    """Runs whose loss depends only on (B, lr_scale): a quadratic LR well."""
    runset = RunSet()
    for i, b in enumerate((1e6, 2e6, 4e6, 8e6, 1.6e7)):
        for scale in (0.25, 0.5, 1.0, 2.0):
            loss = 1.0 + (math.log(scale) - math.log(vertex_of_b(b))) ** 2
            steps = np.arange(1, 21)
            points = Curve(steps, steps * b, np.full(20, loss))
            runset.add(
                RunRecord(
                    run_id=f"r{i}-x{scale:g}",
                    model=ModelSpec(n_params=3.5e8),
                    batch_size_tokens=b,
                    lr_peak=BASE_LR * scale,
                    lr_scheme=LrScheme.ORIGIN,
                    warmup_steps=0,
                    decay_steps=0,
                    points=points,
                    lr_scale=scale,
                )
            )
    path.write_text("\n".join(serialize_runs(runset)) + "\n")
    return path


# ---------------------------------------------------------------------------
# tradeoff


def test_tradeoff_prints_reference_table(capsys):
    assert main(["tradeoff", "--gamma", "1"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert "B/B_crit" in lines[0]
    assert len(lines) == 8
    # the classic half-data column: B/B_crit = 1 doubles data, doubles speed
    assert any("2" in line.split()[1] for line in lines[1:])


def test_tradeoff_json_and_custom_ratio(capsys):
    code, payload = run_json(capsys, "tradeoff", "--gamma", "1", "--b-ratios", "2")
    assert code == 0
    (row,) = payload["rows"]
    assert row["e_ratio"] == pytest.approx(3.0, rel=1e-12)
    assert row["s_ratio"] == pytest.approx(1.5, rel=1e-12)


def test_tradeoff_csv_round_trips(capsys):
    assert main(["tradeoff", "--gamma", "1", "--csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "b_ratio,e_ratio,s_ratio"
    for line in lines[1:]:
        b, e, s = (float(v) for v in line.split(","))
        assert e == pytest.approx(1.0 + b, rel=1e-12)
        assert s == pytest.approx(e / b, rel=1e-12)


# ---------------------------------------------------------------------------
# advise on the built-in reference laws


def test_advise_compute_matches_published_row(capsys):
    code, rec = run_json(capsys, "advise", "--compute", "8.16e21")
    assert code == 0
    assert rec["N"] == pytest.approx(4.36e9, rel=0.01)
    assert rec["D"] == pytest.approx(3.1178e11, rel=0.01)
    assert rec["B"] == pytest.approx(1.10e6, rel=0.01)
    assert rec["provenance"]["D"] == "C/(6N) identity"


def test_advise_data_human_output(capsys):
    assert main(["advise", "--data", "1e12", "--model-size", "2.6e9"]) == 0
    out = capsys.readouterr().out
    assert "batch size B" in out
    assert "peak LR" in out
    assert "LR anchor" in out


def test_advise_rejects_model_size_with_compute(capsys):
    assert main(["advise", "--compute", "1e21", "--model-size", "1e9"]) == 1
    assert "only applies" in capsys.readouterr().err


def test_advise_requires_exactly_one_budget():
    with pytest.raises(SystemExit) as excinfo:
        main(["advise", "--compute", "1e21", "--data", "1e12"])
    assert excinfo.value.code == 1
    with pytest.raises(SystemExit) as excinfo:
        main(["advise"])
    assert excinfo.value.code == 1


@pytest.mark.parametrize(
    "budget", [("--compute", "nan"), ("--compute", "inf"), ("--data", "inf"), ("--data", "nan")]
)
def test_advise_rejects_non_finite_budget(capsys, budget):
    assert main(["advise", *budget]) == 1
    captured = capsys.readouterr()
    assert "scalelaw: error: ValidationError" in captured.err
    assert "finite and positive" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("extra", [[], ["--model-size", "1e8"]])
def test_advise_rejects_budget_whose_batch_underflows(capsys, extra):
    assert main(["advise", "--data", "5e-324", *extra]) == 1
    captured = capsys.readouterr()
    assert "scalelaw: error: ValidationError" in captured.err
    assert "underflows" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("size", ["nan", "inf", "0"])
def test_advise_rejects_bad_model_size(capsys, size):
    assert main(["advise", "--data", "1e12", "--model-size", size]) == 1
    captured = capsys.readouterr()
    assert "scalelaw: error: ValidationError: n_params must be finite and positive" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("gamma", ["nan", "inf", "0"])
def test_tradeoff_rejects_bad_gamma(capsys, gamma):
    assert main(["tradeoff", "--gamma", gamma]) == 1
    captured = capsys.readouterr()
    assert "scalelaw: error: ValidationError: b_ratio and gamma must be positive" in captured.err
    assert captured.out == ""


def test_advise_cold_start_skips_scipy_optimize():
    script = (
        "import sys, scalelaw, scalelaw.cli\n"
        "code = scalelaw.cli.main(['advise', '--compute', '1e21'])\n"
        "assert code == 0, code\n"
        "assert 'scipy.optimize' not in sys.modules\n"
    )
    src = str(Path(scalelaw.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "model size N" in proc.stdout


def test_advise_and_tradeoff_start_without_numpy(tmp_path, reference):
    laws = tmp_path / "laws.json"
    reference.save(laws)
    queries = [
        ["advise", "--compute", "8.16e21"],
        ["advise", "--data", "1e12", "--model-size", "2.6e9", "--laws", str(laws), "--json"],
        ["tradeoff", "--gamma", "1"],
    ]
    # `import numpy` may bind the lazy module; any numpy.* submodule means it ran
    script = (
        "import sys\n"
        "from scalelaw.cli import main\n"
        f"for argv in {queries!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "    loaded = sorted(m for m in sys.modules if m.startswith('numpy.'))\n"
        "    assert not loaded, (argv, loaded[:3])\n"
    )
    src = str(Path(scalelaw.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("batch size B") == 1 and '"B": ' in proc.stdout
    assert "B/B_crit" in proc.stdout


def test_advise_missing_block_fails_cleanly(tmp_path, capsys, ref_law):
    partial = tmp_path / "partial.json"
    LawArtifact(loss_law=ref_law).save(partial)
    assert main(["advise", "--data", "1e12", "--laws", str(partial)]) == 1
    assert "no batch-size law block" in capsys.readouterr().err
    assert main(["advise", "--compute", "1e21", "--laws", str(partial)]) == 1
    assert "no frontier block" in capsys.readouterr().err


_BOPT_BLOCK = {"k": 3240.0, "p": 0.264, "s_floor": 4000.0, "crossover_D": 4.6e9,
               "d_min": 1e9, "d_max": 1e12}
_DATA_QUERY = ["--data", "1e10", "--model-size", "3.5e8"]
# JSON Infinity where an integer belongs
_INF_PRESET_ROW = {"n_params": 3.5e8, "label": "350M", "batch_size": 5e5, "max_lr": 3e-4,
                   "warmup_steps": math.inf, "decay_steps": 0}


@pytest.mark.parametrize(
    "blocks, query, block",
    [
        ({"bopt": {"k": 1}}, _DATA_QUERY, "bopt"),
        ({"frontier": {"N_opt": "x"}}, ["--compute", "1e21"], "frontier"),
        ({"bopt": _BOPT_BLOCK, "lr_law": {"gamma": 0.5}}, _DATA_QUERY, "lr_law"),
        ({"bopt": _BOPT_BLOCK, "presets": {"rows": [_INF_PRESET_ROW]}}, _DATA_QUERY, "presets"),
    ],
)
def test_advise_malformed_laws_file_is_parse_error(tmp_path, capsys, blocks, query, block):
    laws = tmp_path / "laws.json"
    laws.write_text(json.dumps({"format": "scalelaw-laws/1", **blocks}))
    assert main(["advise", *query, "--laws", str(laws)]) == 1
    captured = capsys.readouterr()
    assert f"scalelaw: error: ParseError: {block} block" in captured.err
    assert captured.out == ""


# ---------------------------------------------------------------------------
# simulate: seeds and determinism


def test_simulate_deterministic_output(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "sweep": dict(
            models=[{"n_params": 1.25e8, "label": "125M"}],
            batch_sizes=[5e5],
            schemes=["origin"],
            lr_factors=[1.0],
            base_batch=5e5,
            base_lr=BASE_LR,
            tokens_per_run=2e9,
            points_per_run=25,
        ),
    }))
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["simulate", "--config", str(cfg), "--out", str(a), "--seed", "3"]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(b), "--seed", "3"]) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_simulate_seed_precedence(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "sweep": dict(
            models=[{"n_params": 1.25e8, "label": "125M"}],
            batch_sizes=[5e5],
            schemes=["origin"],
            lr_factors=[1.0],
            base_batch=5e5,
            base_lr=BASE_LR,
            tokens_per_run=2e9,
            points_per_run=25,
        ),
    }))
    flagged = tmp_path / "flagged.jsonl"
    env_wins = tmp_path / "env.jsonl"
    plain5 = tmp_path / "plain5.jsonl"
    config_seed = tmp_path / "config-seed.jsonl"

    code, payload = run_json(
        capsys, "simulate", "--config", str(cfg), "--out", str(flagged), "--seed", "3"
    )
    assert code == 0 and payload["seed"] == 3

    monkeypatch.setenv("SCALELAW_SEED", "5")
    code, payload = run_json(
        capsys, "simulate", "--config", str(cfg), "--out", str(env_wins), "--seed", "3"
    )
    assert code == 0 and payload["seed"] == 5
    monkeypatch.delenv("SCALELAW_SEED")

    code, payload = run_json(
        capsys, "simulate", "--config", str(cfg), "--out", str(plain5), "--seed", "5"
    )
    assert code == 0 and payload["seed"] == 5

    code, payload = run_json(capsys, "simulate", "--config", str(cfg), "--out", str(config_seed))
    assert code == 0 and payload["seed"] == 1  # the config's own seed

    assert env_wins.read_bytes() == plain5.read_bytes()
    assert env_wins.read_bytes() != flagged.read_bytes()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_simulate_rejects_non_finite_budget(tmp_path, capsys, value):
    out = tmp_path / "runs.jsonl"
    assert main(["simulate", "--out", str(out), "--tokens-per-run", value]) == 1
    assert "ValidationError: base and budget values must be positive and finite" in (
        capsys.readouterr().err
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "doc",
    [
        {"sweep": {"models": 5}},
        {"sweep": dict(default_sweep_config().to_dict(), batch_sizes=["x"])},
        {"sweep": dict(default_sweep_config().to_dict(), schemes=["bogus"])},
        {"sweep": dict(default_sweep_config().to_dict(), points_per_run=math.inf)},
        {"ground_truth": {"law": 3}},
        {"sweep": dict(default_sweep_config().to_dict(), points_per_run=3.9)},
        {
            "sweep": dict(
                default_sweep_config().to_dict(), models=[{"n_params": 1e8, "label": None}]
            )
        },
        {"ground_truth": dict(default_ground_truth().to_dict(), seed=7.9)},
        {"ground_truth": dict(default_ground_truth().to_dict(), lr_efficiency="false")},
    ],
)
def test_simulate_wrong_typed_config_is_parse_error(tmp_path, capsys, doc):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "runs.jsonl"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "scalelaw: error: ParseError" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_simulate_rejects_bad_env_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SCALELAW_SEED", "not-a-number")
    out = tmp_path / "runs.jsonl"
    assert main(["simulate", "--out", str(out), "--points-per-run", "2",
                 "--tokens-per-run", "1e8"]) == 1
    assert "SCALELAW_SEED" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# ingest


def test_ingest_reports_counts(five_model_runs, capsys):
    code, payload = run_json(capsys, "ingest", "--runs", str(five_model_runs))
    assert code == 0
    assert payload["runs"] == 5
    assert payload["points"] == 5 * 60
    assert payload["model_sizes"] == [1.25e8, 3.5e8, 7.6e8, 1.3e9, 2.6e9]
    assert payload["rejected"] == []


def test_ingest_lenient_collects_bad_lines(five_model_runs, tmp_path, capsys):
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text(five_model_runs.read_text() + "{not json\n")
    assert main(["ingest", "--runs", str(mixed)]) == 1
    capsys.readouterr()

    code, payload = run_json(capsys, "ingest", "--runs", str(mixed), "--lenient")
    assert code == 0
    assert payload["runs"] == 5
    assert len(payload["rejected"]) == 1
    assert payload["rejected"][0][0] == 6  # 1-based line number


def test_ingest_lenient_rejects_bad_values(five_model_runs, tmp_path, capsys):
    good = five_model_runs.read_text().splitlines()
    bad_lines = []
    for field, value in (("n_params", "abc"), ("lr_scale", 0), ("points", [[1, 5e5, None]])):
        obj = json.loads(good[0])
        obj["run_id"] = f"bad-{field}"
        obj[field] = value
        bad_lines.append(json.dumps(obj))
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text("\n".join(good + bad_lines) + "\n")
    assert main(["ingest", "--runs", str(mixed)]) == 1
    assert "scalelaw: error: ParseError" in capsys.readouterr().err

    code, payload = run_json(capsys, "ingest", "--runs", str(mixed), "--lenient")
    assert code == 0
    assert payload["runs"] == 5
    assert [line_no for line_no, _ in payload["rejected"]] == [6, 7, 8]


def test_ingest_normalized_copy_is_stable(five_model_runs, tmp_path, capsys):
    out = tmp_path / "normalized.jsonl"
    assert main(["ingest", "--runs", str(five_model_runs), "--out", str(out)]) == 0
    again = tmp_path / "again.jsonl"
    assert main(["ingest", "--runs", str(out), "--out", str(again)]) == 0
    assert out.read_bytes() == again.read_bytes()
    capsys.readouterr()


def test_missing_runs_file_is_input_error(tmp_path, capsys):
    assert main(["fit-law", "--runs", str(tmp_path / "absent.jsonl"),
                 "--laws", str(tmp_path / "laws.json")]) == 1
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fit verbs update the law artifact in place


def planted_constraint_spec():
    """The planted law's own compute-allocation split, as an a,b,p,q string."""
    alpha, beta, A, Bc = 0.331, 0.286, 314.35, 460.51
    a = beta / (alpha + beta)
    gain = (alpha * A / (beta * Bc)) ** (1.0 / (alpha + beta))
    p = gain * 6.0**-a
    q = (1.0 / gain) * 6.0 ** (a - 1.0)
    return f"{a!r},{1.0 - a!r},{p!r},{q!r}"


def test_fit_verbs_build_one_artifact(five_model_runs, batch_sweep_runs, tmp_path, capsys):
    laws = tmp_path / "laws.json"
    # levels must sit inside the smoothed curves' loss range at every batch
    levels = ",".join(str(v) for v in np.linspace(2.3, 2.78, 9))

    assert main(["fit-bopt", "--runs", str(batch_sweep_runs), "--laws", str(laws),
                 "--levels", levels, "--s-floor", "1500"]) == 0
    assert LawArtifact.load(laws).bopt is not None

    assert main(["frontier", "--runs", str(five_model_runs), "--laws", str(laws)]) == 0
    artifact = LawArtifact.load(laws)
    assert artifact.frontier is not None
    assert artifact.bopt is not None  # earlier block preserved

    assert main(["fit-law", "--runs", str(five_model_runs), "--laws", str(laws),
                 "--constrain", "frontier", "--raw"]) == 0
    artifact = LawArtifact.load(laws)
    assert artifact.loss_law is not None
    assert artifact.frontier is not None and artifact.bopt is not None
    # the fit is tied to the artifact's own fitted frontier block
    assert artifact.loss_law.alpha / artifact.loss_law.beta == pytest.approx(
        artifact.frontier.D_opt.p / artifact.frontier.N_opt.p, rel=1e-9
    )
    assert artifact.loss_fit["r_squared"] > 0.98

    sweep = lr_sweep_file(tmp_path / "lr.jsonl", lambda b: 0.5 * (b / 1e6) ** 0.3)
    assert main(["fit-lr", "--runs", str(sweep), "--laws", str(laws),
                 "--checkpoint-tokens", "2e7"]) == 0
    artifact = LawArtifact.load(laws)
    assert artifact.lr_law.gamma == pytest.approx(0.3, abs=1e-6)
    assert artifact.lr_law.base_lr == pytest.approx(BASE_LR, rel=1e-9)
    assert artifact.lr_law.d_checkpoint == 2e7

    assert main(["advise", "--data", "1e10", "--model-size", "3.5e8",
                 "--laws", str(laws)]) == 0
    assert main(["advise", "--compute", "1e20", "--laws", str(laws)]) == 0
    capsys.readouterr()


def test_fit_verbs_write_lossless_artifacts(five_model_runs, batch_sweep_runs, tmp_path, capsys):
    laws, copy = tmp_path / "laws.json", tmp_path / "copy.json"
    levels = ",".join(str(v) for v in np.linspace(2.3, 2.78, 9))
    sweep = lr_sweep_file(tmp_path / "lr.jsonl", lambda b: 0.5 * (b / 1e6) ** 0.3)
    verbs = [
        ["frontier", "--runs", str(five_model_runs)],
        ["fit-law", "--runs", str(five_model_runs), "--constrain", "frontier", "--raw"],
        ["fit-bopt", "--runs", str(batch_sweep_runs), "--levels", levels, "--s-floor", "1500"],
        ["fit-lr", "--runs", str(sweep), "--checkpoint-tokens", "2e7"],
    ]
    for argv in verbs:
        assert main([*argv, "--laws", str(laws)]) == 0
        LawArtifact.load(laws).save(copy)
        assert copy.read_bytes() == laws.read_bytes()
        frontier = json.loads(laws.read_text())["frontier"]
        if argv[0] == "frontier":
            written = frontier
            assert written["n_points"] == len(written["points"]) == 5
            assert set(written["consistency_residuals"]) == {"B_opt", "D_opt"}
        # later verbs rewrite the file but keep the frontier block whole
        assert frontier == written
    capsys.readouterr()


def test_fit_law_json_payload(five_model_runs, tmp_path, capsys):
    laws = tmp_path / "laws.json"
    code, payload = run_json(
        capsys, "fit-law", "--runs", str(five_model_runs), "--laws", str(laws),
        "--constrain", planted_constraint_spec(), "--raw",
    )
    assert code == 0
    assert payload["params"]["E"] == pytest.approx(1.48, rel=2e-3)
    assert payload["params"]["beta"] == pytest.approx(0.286, abs=2e-3)
    assert payload["fit"]["n_points"] == 300
    assert payload["fit"]["n_starts"] == 8
    assert 1 <= payload["fit"]["n_converged"] <= 8
    assert payload["fit"]["objective_spread"] >= 0.0
    artifact = LawArtifact.load(laws)
    for key in ("n_starts", "n_converged", "objective_spread"):
        assert artifact.loss_fit[key] == payload["fit"][key]


def test_fit_law_failure_payload_has_start_diagnostics(
    five_model_runs, tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(lawfit, "_MAX_ITER", 1)
    laws = tmp_path / "laws.json"
    code, payload = run_json(
        capsys, "fit-law", "--runs", str(five_model_runs), "--laws", str(laws),
        "--constrain", planted_constraint_spec(), "--raw",
    )
    assert code == 2
    assert payload["error"] == "FitFailureError"
    fit = payload["best_partial"]["fit"]
    assert (fit["n_starts"], fit["n_converged"], fit["objective_spread"]) == (8, 0, None)


def test_fit_law_bad_constraint_spec(five_model_runs, tmp_path, capsys):
    laws = tmp_path / "laws.json"
    assert main(["fit-law", "--runs", str(five_model_runs), "--laws", str(laws),
                 "--constrain", "nonsense"]) == 1
    assert "four numbers" in capsys.readouterr().err
    assert main(["fit-law", "--runs", str(five_model_runs), "--laws", str(laws),
                 "--constrain", "frontier"]) == 1
    assert "run the frontier verb first" in capsys.readouterr().err


@pytest.mark.parametrize("delta", ["nan", "inf", "0"])
def test_fit_law_rejects_bad_delta(five_model_runs, tmp_path, capsys, delta):
    laws = tmp_path / "laws.json"
    assert main(["fit-law", "--runs", str(five_model_runs), "--laws", str(laws),
                 "--delta", delta]) == 1
    assert "ValidationError: delta must be positive and finite" in capsys.readouterr().err
    assert not laws.exists()


def test_fit_lr_all_plateau_is_numerical_failure(tmp_path, capsys):
    sweep = lr_sweep_file(tmp_path / "flat.jsonl", lambda b: 1.0)
    laws = tmp_path / "laws.json"
    code, payload = run_json(
        capsys, "fit-lr", "--runs", str(sweep), "--laws", str(laws),
        "--checkpoint-tokens", "2e7",
    )
    assert code == 2
    assert payload["error"] == "GammaUndefinedError"
    assert payload["lr_ceiling"] == pytest.approx(BASE_LR, rel=1e-9)
    assert not laws.exists()


# ---------------------------------------------------------------------------
# filters


def test_filters_select_runs(five_model_runs, tmp_path, capsys):
    out = tmp_path / "one.csv"
    assert main(["export-plot", "--runs", str(five_model_runs), "--kind", "curves",
                 "--model-size", "3.5e8", "--raw", "--out", str(out)]) == 0
    with out.open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["run_id", "step", "tokens", "loss"]
    assert {row[0] for row in rows[1:]} == {"3.5e+08-0.5M-origin-x1"}
    assert len(rows) - 1 == 60
    capsys.readouterr()


def test_filters_reject_empty_selection(five_model_runs, tmp_path, capsys):
    assert main(["export-plot", "--runs", str(five_model_runs), "--kind", "curves",
                 "--model-size", "9e9", "--out", str(tmp_path / "x.csv")]) == 1
    assert "no runs match" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# export-plot


def test_export_envelope_csv(five_model_runs, tmp_path, capsys):
    out = tmp_path / "envelope.csv"
    code, payload = run_json(
        capsys, "export-plot", "--runs", str(five_model_runs),
        "--kind", "envelope", "--out", str(out),
    )
    assert code == 0
    with out.open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["flops", "loss", "run_id"]
    assert payload["rows"] == len(rows) - 1 > 0
    flops = [float(r[0]) for r in rows[1:]]
    assert flops == sorted(flops)


def test_export_contour_csv(batch_sweep_runs, tmp_path, capsys):
    out = tmp_path / "contour.csv"
    assert main(["export-plot", "--runs", str(batch_sweep_runs), "--kind", "contour",
                 "--levels", "2.6,2.8", "--out", str(out)]) == 0
    with out.open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["loss_level", "batch_size_tokens", "tokens_required"]
    assert len(rows) - 1 == 14  # 2 levels x 7 batches
    assert {row[0] for row in rows[1:]} == {"2.6", "2.8"}
    capsys.readouterr()


def test_export_contour_default_levels(batch_sweep_runs, tmp_path, capsys):
    out = tmp_path / "contour.csv"
    assert main(["export-plot", "--runs", str(batch_sweep_runs), "--kind", "contour",
                 "--out", str(out)]) == 0
    with out.open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["loss_level", "batch_size_tokens", "tokens_required"]
    assert len(rows) > 1
    runset = parse_runs(batch_sweep_runs.read_text().splitlines())
    expected = default_loss_levels(runset, 8)
    assert sorted({float(row[0]) for row in rows[1:]}) == expected
    capsys.readouterr()


@pytest.mark.parametrize("extra", [[], ["--n-levels", "4"]])
def test_fit_bopt_default_levels_never_traceback(batch_sweep_runs, tmp_path, capsys, extra):
    # without --levels the levels come from default_loss_levels; whether the
    # law then fits depends on the sweep, but a failure must be a typed error
    code = main(["fit-bopt", "--runs", str(batch_sweep_runs),
                 "--laws", str(tmp_path / "laws.json"), *extra])
    assert code in (0, 1, 2)
    if code != 0:
        assert "scalelaw: error:" in capsys.readouterr().err


@pytest.mark.parametrize("n_levels", ["-1", "0"])
@pytest.mark.parametrize("verb", ["fit-bopt", "export-plot"])
def test_contour_verbs_reject_non_positive_n_levels(
    batch_sweep_runs, tmp_path, capsys, verb, n_levels
):
    out = tmp_path / "out"
    target = (
        ["--laws", str(out)] if verb == "fit-bopt"
        else ["--kind", "contour", "--out", str(out)]
    )
    assert main([verb, "--runs", str(batch_sweep_runs), *target,
                 "--n-levels", n_levels]) == 1
    assert "ValidationError: n_levels must be at least 1" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# parser plumbing


def test_unknown_verb_and_missing_verb(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["transmogrify"])
    assert excinfo.value.code == 1
    assert main([]) == 1
    assert "a command is required" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    for verb in ("ingest", "simulate", "fit-law", "frontier", "fit-bopt",
                 "fit-lr", "tradeoff", "advise", "export-plot"):
        assert verb in out
