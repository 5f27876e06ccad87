import csv
import gc
import hashlib
import json
import math
import os
import shutil
import stat
import subprocess
import sys
import tracemalloc
import warnings
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
    simulate_grid,
)
import scalelaw
from scalelaw import lawfit, runlog, synth
from scalelaw._record import replace
from scalelaw._verbs import tradeoff as tradeoff_verb
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


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize(
    "budget",
    [
        ["--compute", "8.16e21"],
        ["--data", "2e10"],
        ["--data", "1e12", "--model-size", "2.6e9"],
    ],
)
def test_advise_json_is_strict(capsys, budget):
    assert main(["advise", *budget, "--json"]) == 0
    rec = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    assert all(rec[key] is not None for key in ("D", "S", "B"))
    if budget[0] == "--data" and "--model-size" not in budget:
        assert (rec["N"], rec["C"], rec["LR"]) == (None, None, None)


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
    assert "must be positive and finite, got" in captured.err
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
    assert "scalelaw: error: ValidationError: n_params must be positive and finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("gamma", ["nan", "inf", "0"])
def test_tradeoff_rejects_bad_gamma(capsys, gamma):
    assert main(["tradeoff", "--gamma", gamma]) == 1
    captured = capsys.readouterr()
    assert "scalelaw: error: ValidationError: b_ratio and gamma must be positive" in captured.err
    assert captured.out == ""


def fresh_env() -> dict:
    """The environment of a new interpreter that imports this checkout."""
    src = str(Path(scalelaw.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))


def run_fresh(script: str) -> subprocess.CompletedProcess:
    """Run a Python script in a new interpreter on this checkout; it must exit 0."""
    proc = subprocess.run(
        [sys.executable, "-c", script], env=fresh_env(), capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_closed_stdout_exits_1_silently():
    # the table is larger than a pipe holds, so the writer meets the
    # closed pipe mid-table
    ratios = ",".join(str(1 + i / 1000) for i in range(3000))
    proc = subprocess.Popen(
        [sys.executable, "-m", "scalelaw.cli", "tradeoff", "--b-ratios", ratios],
        env=fresh_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert b"B/B_crit" in proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (1, b"")


def test_cli_verbs_never_import_scipy(tmp_path):
    runs, laws = str(tmp_path / "runs.jsonl"), str(tmp_path / "laws.json")
    lr_runs = str(lr_sweep_file(tmp_path / "lr.jsonl", lambda b: 0.5 * (b / 1e6) ** 0.3))
    base = ["--batch", "5e5", "--only-scheme", "origin"]
    levels = ",".join(f"{2.45 + 0.04 * i:.2f}" for i in range(16))
    verbs = [
        ["advise", "--compute", "1e21"],
        ["simulate", "--out", runs, "--seed", "1", "--points-per-run", "100"],
        ["frontier", "--runs", runs, "--laws", laws, *base],
        ["fit-law", "--runs", runs, "--laws", laws, "--constrain", "frontier", *base],
        ["fit-bopt", "--runs", runs, "--laws", laws, "--model-size", "1.25e8",
         "--policy", "fixed_scheme", "--scheme", "linear", "--levels", levels],
        ["fit-lr", "--runs", lr_runs, "--laws", laws, "--checkpoint-tokens", "2e7"],
    ]
    script = (
        "import sys, warnings\n"
        "from scalelaw.cli import main\n"
        "warnings.simplefilter('ignore')\n"
        f"for argv in {verbs!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded[:3]\n"
    )
    proc = run_fresh(script)
    assert "model size N" in proc.stdout
    assert LawArtifact.load(laws).loss_law is not None


def test_advise_and_tradeoff_start_without_numpy(tmp_path, reference):
    laws = tmp_path / "laws.json"
    reference.save(laws)
    queries = [
        ["advise", "--compute", "8.16e21"],
        ["advise", "--data", "1e12", "--model-size", "2.6e9", "--laws", str(laws), "--json"],
        ["tradeoff", "--gamma", "1"],
    ]
    # inspect is only checked where a bare interpreter does not load it
    unwanted = ["dataclasses", "csv"]
    if run_fresh("import sys; print('inspect' in sys.modules)").stdout.strip() == "False":
        unwanted.append("inspect")
    # `import numpy` may bind the lazy module; any numpy.* submodule means it ran
    script = (
        "import sys\n"
        "from scalelaw.cli import main\n"
        f"for argv in {queries!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "    loaded = sorted(m for m in sys.modules if m.startswith('numpy.'))\n"
        "    assert not loaded, (argv, loaded[:3])\n"
        f"    loaded = [m for m in {unwanted!r} if m in sys.modules]\n"
        "    assert not loaded, (argv, loaded)\n"
    )
    proc = run_fresh(script)
    assert proc.stdout.count("batch size B") == 1 and '"B": ' in proc.stdout
    assert "B/B_crit" in proc.stdout


def test_ingest_of_a_cached_log_never_loads_numpy(five_model_runs):
    """A hit takes ingest's summary from the entry's header and checks the
    entry's digests without numpy; a miss parses the log with it."""
    script = (
        "import sys\n"
        "from scalelaw.cli import main\n"
        f"assert main(['ingest', '--runs', {str(five_model_runs)!r}, '--json']) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.'))[:1])\n"
    )
    miss = run_fresh(script).stdout.splitlines()
    hit = run_fresh(script).stdout.splitlines()
    assert miss[0] == hit[0] and '"runs": 5' in hit[0]
    assert miss[1] != "[]" and hit[1] == "[]"


def test_contour_verbs_of_a_cached_log_never_load_numpy(tmp_path, batch_sweep_runs, run_log_cache):
    """A hit hands fit-bopt and export-plot --kind contour the entry's
    buffers, and both fit in Python floats without numpy; ingest --out and
    export-plot --kind curves turn the buffers into rows without it too.  A
    miss in an empty cache parses the log with numpy.  Both print and write
    the same."""
    runs, laws, out = str(batch_sweep_runs), tmp_path / "laws.json", tmp_path / "contour.csv"
    normalized, curves = tmp_path / "normalized.jsonl", tmp_path / "curves.csv"
    export_curves = ["export-plot", "--runs", runs, "--kind", "curves", "--out", str(curves)]
    levels = ",".join(str(v) for v in np.linspace(2.3, 2.78, 9))
    bopt = ["fit-bopt", "--runs", runs, "--laws", str(laws), "--s-floor", "1500", "--json"]
    # (argv, exit code, the file it writes): fit-bopt without --levels takes
    # percentile levels, whose vertices span too little D on this sweep
    verbs = [
        ([*bopt, "--levels", levels], 0, laws),
        (bopt, 1, laws),
        (["export-plot", "--runs", runs, "--kind", "contour", "--out", str(out)], 0, out),
        (["ingest", "--runs", runs, "--out", str(normalized)], 0, normalized),
        (export_curves, 0, curves),
        ([*export_curves, "--raw"], 0, curves),
    ]
    for argv, code, written in verbs:
        hit = assert_a_hit_loads_no_numpy(argv, code, written, run_log_cache)
        assert code == 0 or "vertices must span at least one decade of D" in hit[1]


def assert_a_hit_loads_no_numpy(argv, code, written, cache):
    """Run the verb argv in a new interpreter on a miss in the emptied cache,
    then on a hit: both exit code, print and write the same, the miss loads
    numpy and the hit does not.  The hit's (stdout lines, stderr)."""
    script = (
        "import sys\n"
        "from scalelaw.cli import main\n"
        f"code = main({argv!r})\n"
        "print(code, sorted(m for m in sys.modules if m.startswith('numpy.'))[:1])\n"
    )
    shutil.rmtree(cache, ignore_errors=True)
    sides = []
    for _ in ("miss", "hit"):
        written.unlink(missing_ok=True)
        proc = run_fresh(script)
        *printed, loaded = proc.stdout.splitlines()
        sides.append((printed, proc.stderr, written.read_bytes() if code == 0 else None, loaded))
    miss, hit = sides
    assert miss[:3] == hit[:3], argv
    assert miss[3].startswith(f"{code} ['numpy.") and hit[3] == f"{code} []", argv
    return hit[:2]


def test_readout_verbs_of_a_cached_log_never_load_numpy(tmp_path, five_model_runs, run_log_cache):
    """A hit hands frontier, export-plot --kind envelope and fit-lr the
    entry's buffers, and each reads its curves out in Python floats without
    numpy.  A miss in an empty cache parses the log with numpy.  Both print
    and write the same."""
    runs, laws, out = str(five_model_runs), tmp_path / "laws.json", tmp_path / "envelope.csv"
    lr_runs = str(lr_sweep_file(tmp_path / "lr.jsonl", lambda b: 0.5 * (b / 1e6) ** 0.3))
    verbs = [
        (["frontier", "--runs", runs, "--laws", str(laws), "--json"], laws),
        (["export-plot", "--runs", runs, "--kind", "envelope", "--out", str(out)], out),
        (["fit-lr", "--runs", lr_runs, "--laws", str(laws), "--checkpoint-tokens", "2e7",
          "--json"], laws),
    ]
    for argv, written in verbs:
        printed, _ = assert_a_hit_loads_no_numpy(argv, 0, written, run_log_cache)
        assert printed, argv
    assert json.loads(printed[0])["lr_law"]["gamma"] == pytest.approx(0.3, abs=1e-6)


def test_fit_law_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, capsys):
    """The quick-start fit (29,775 rows) gives the same bytes with one BLAS
    thread as with two: no row-length sum of the objective is split across
    threads."""
    runs, frontier_laws = tmp_path / "runs.jsonl", tmp_path / "frontier.json"
    assert main(["simulate", "--out", str(runs), "--seed", "7"]) == 0
    assert main(["frontier", "--runs", str(runs), "--laws", str(frontier_laws)]) == 0
    capsys.readouterr()
    laws = tmp_path / "laws.json"
    argv = [sys.executable, "-m", "scalelaw.cli", "fit-law", "--runs", str(runs),
            "--laws", str(laws), "--constrain", "frontier", "--json"]
    sides = []
    for threads in ("1", "2"):
        shutil.copyfile(frontier_laws, laws)
        proc = subprocess.run(
            argv, env=dict(fresh_env(), OPENBLAS_NUM_THREADS=threads), capture_output=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        sides.append((proc.stdout, laws.read_bytes()))
    assert b'"n_points": 29775' in sides[0][0]
    assert sides[0] == sides[1]


# the layers the benchmark traces, and those that fit laws to run logs
TRACED_LAYERS = ("synth", "runlog", "frontier", "bslaw", "lawfit", "lrlaw", "artifact", "advisor")
FIT_LAYERS = ("synth", "runlog", "lawfit", "frontier", "bslaw", "lrlaw")


def test_each_verb_executes_only_its_layers(tmp_path, reference, five_model_runs):
    laws = tmp_path / "laws.json"
    reference.save(laws)
    # (queries, layers that must not run, the scalelaw._verbs modules that run)
    cases = [
        (
            [
                ["advise", "--compute", "8.16e21"],
                ["advise", "--data", "1e12", "--laws", str(laws), "--model-size", "2.6e9",
                 "--json"],
            ],
            FIT_LAYERS,
            ["scalelaw._verbs", "scalelaw._verbs.advise"],
        ),
        ([["tradeoff", "--gamma", "1"]], (*FIT_LAYERS, "artifact", "advisor"),
         ["scalelaw._verbs", "scalelaw._verbs.tradeoff"]),
        ([["ingest", "--runs", str(five_model_runs)]],
         ("lawfit", "frontier", "bslaw", "lrlaw", "synth", "advisor"),
         ["scalelaw._verbs", "scalelaw._verbs.ingest"]),
        ([["frontier", "--runs", str(five_model_runs), "--laws", str(tmp_path / "new.json")]],
         ("lawfit", "bslaw", "lrlaw", "synth", "advisor"),
         ["scalelaw._verbs", "scalelaw._verbs._runs", "scalelaw._verbs.frontier"]),
        # the usage lists every verb without importing any verb module
        ([["--help"]], (*FIT_LAYERS, "artifact", "advisor"), []),
    ]
    for queries, unused, verb_modules in cases:
        # a layer waiting for its lazy load is a ModuleType subclass until it runs
        script = (
            "import contextlib, io, sys, types\n"
            "import scalelaw\n"
            "def executed():\n"
            "    return [m for m in sorted(sys.modules) if m.startswith('scalelaw.')\n"
            "            and type(sys.modules[m]) is types.ModuleType]\n"
            "assert set(scalelaw.__all__) <= set(dir(scalelaw))\n"
            "assert executed() == ['scalelaw._lazy'], executed()\n"
            "from scalelaw.cli import main\n"
            f"missing = [n for n in {TRACED_LAYERS!r} if 'scalelaw.' + n not in sys.modules]\n"
            "assert not missing, missing\n"
            "assert not [m for m in sys.modules if m.startswith('scalelaw._verbs')]\n"
            f"for argv in {queries!r}:\n"
            "    try:\n"
            "        with contextlib.redirect_stdout(io.StringIO()):\n"
            "            code = main(argv)\n"
            "    except SystemExit as exc:\n"
            "        code = exc.code\n"
            "    assert code == 0, argv\n"
            f"    ran = [n for n in {unused!r} if 'scalelaw.' + n in executed()]\n"
            "    assert not ran, (argv, ran)\n"
            "    verbs = [m for m in executed() if m.startswith('scalelaw._verbs')]\n"
            f"    assert verbs == {verb_modules!r}, (argv, verbs)\n"
        )
        run_fresh(script)


@pytest.mark.parametrize("verb", ["fit-law", "simulate"])
def test_write_into_missing_directory_names_the_destination(
    five_model_runs, tmp_path, capsys, verb
):
    target = str(tmp_path / "missing" / "out")
    if verb == "fit-law":
        argv = ["fit-law", "--runs", str(five_model_runs), "--laws", target]
    else:
        argv = ["simulate", "--out", target, "--points-per-run", "20"]
    payloads = [run_json(capsys, *argv) for _ in range(2)]
    assert payloads[0] == payloads[1]
    code, payload = payloads[0]
    assert code == 1
    assert payload == {
        "error": "FileNotFoundError",
        "message": f"[Errno 2] No such file or directory: {target!r}",
    }
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize(
    "block, field, query",
    [
        ("loss_law", "E", ["--compute", "1e21"]),
        ("bopt", "k", ["--data", "1e12"]),
    ],
)
def test_advise_non_finite_law_field_is_validation_error(
    tmp_path, capsys, reference, block, field, query
):
    doc = json.loads(json.dumps(reference.to_json_dict()))
    params = doc[block]["params"] if block == "loss_law" else doc[block]
    params[field] = math.nan
    laws = tmp_path / "laws.json"
    laws.write_text(json.dumps(doc))
    assert main(["advise", *query, "--laws", str(laws)]) == 1
    captured = capsys.readouterr()
    assert "scalelaw: error: ValidationError" in captured.err
    assert captured.out == ""


def _edit_preset(doc, **changes):
    doc["presets"]["rows"][3].update(changes)


def _edit_lr_law(doc, **changes):
    doc["lr_law"].update(changes)


def _add_frontier_point(doc, **changes):
    point = {"C": 1.2e20, "loss": 2.5, "N": 1e9, "D": 2e10, "S": 2e4, "B": 1e6}
    doc["frontier"]["points"] = [dict(point, **changes)]


@pytest.mark.parametrize(
    "edit, changes, message",
    [
        (_edit_preset, {"max_lr": math.nan}, "max_lr must be positive and finite, got nan"),
        (_edit_preset, {"batch_size": math.inf},
         "batch_size must be positive and finite, got inf"),
        (_edit_lr_law, {"lr_ceiling": -1}, "lr_ceiling must be positive and finite, got -1.0"),
        (_edit_lr_law, {"gamma": math.nan}, "gamma must be finite, got nan"),
        (_add_frontier_point, {"C": math.nan}, "C must be positive and finite, got nan"),
    ],
)
def test_advise_refuses_laws_that_give_nonsense_advice(
    tmp_path, capsys, reference, edit, changes, message
):
    # each of these gave advice such as "peak LR: nan" or "peak LR: -1" (exit 0)
    doc = json.loads(json.dumps(reference.to_json_dict()))
    edit(doc, **changes)
    laws = tmp_path / "laws.json"
    laws.write_text(json.dumps(doc))
    assert main(["advise", "--compute", "1e21", "--laws", str(laws)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"scalelaw: error: ValidationError: {message}"]
    assert captured.out == ""


def test_advise_refuses_misspelt_laws_file_keys(tmp_path, capsys, reference):
    # each misspelt key took its field's default: exit 0 with the power
    # regime and the 0.0024 ceiling
    doc = json.loads(json.dumps(reference.to_json_dict()))
    del doc["bopt"]["power_fitted"]
    doc["bopt"]["power_fited"] = False
    doc["lr_law"]["lr_cieling"] = 1e-3
    laws = tmp_path / "laws.json"
    laws.write_text(json.dumps(doc))
    assert main(["advise", "--data", "1e12", "--model-size", "3.5e8", "--laws", str(laws)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "scalelaw: error: ParseError: bopt block is malformed: unknown field 'power_fited'"
    ]
    assert captured.out == ""


def _refuse_json_constant(name):
    raise AssertionError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("budget", [
    ["--data", "1.7e308", "--model-size", "1e9"],
    ["--data", "1e300", "--model-size", "1e300"],
])
@pytest.mark.parametrize("as_json", [False, True])
def test_advise_refuses_a_budget_whose_compute_overflows(capsys, budget, as_json):
    # each printed "C": Infinity (or "compute C: inf FLOPs") and exited 0
    assert main(["advise", *budget, *(["--json"] if as_json else [])]) == 1
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith("scalelaw: error: ValidationError: compute C = 6*N*D overflows")
    if as_json:
        doc = json.loads(captured.out, parse_constant=_refuse_json_constant)
        assert doc["error"] == "ValidationError"
    else:
        assert captured.out == ""


def test_emit_refuses_a_payload_json_cannot_carry(capsys):
    from argparse import Namespace

    from scalelaw._verbs import emit

    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(scalelaw.NumericalError, match="^the --json payload holds NaN or infinity"):
            emit(Namespace(json=True), ["text mode prints this"], {"C": [1.0, value]})
    assert capsys.readouterr().out == ""


def test_a_non_finite_json_result_exits_2(capsys, monkeypatch):
    nan_advice = scalelaw.advisor.Recommendation(N=None, D=1e10, S=math.nan, B=1e6)
    monkeypatch.setattr(scalelaw.advisor, "advise_data", lambda *args, **kwargs: nan_advice)
    assert main(["advise", "--data", "1e10", "--json"]) == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith("scalelaw: error: NumericalError: the --json payload holds NaN")
    # stdout holds the error document alone, not the payload
    doc = json.loads(captured.out, parse_constant=_refuse_json_constant)
    assert doc["error"] == "NumericalError"


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


@pytest.mark.parametrize("comparisons", ["ab", [1, 2], {"label": "x"}])
def test_malformed_comparisons_block_leaves_laws_file_alone(
    five_model_runs, tmp_path, capsys, comparisons
):
    laws = tmp_path / "laws.json"
    laws.write_text(json.dumps({"format": "scalelaw-laws/1", "comparisons": comparisons}))
    before = laws.read_bytes()
    assert main(["frontier", "--runs", str(five_model_runs), "--laws", str(laws)]) == 1
    errors = [
        line for line in capsys.readouterr().err.splitlines()
        if line.startswith("scalelaw: error: ParseError:")
    ]
    assert len(errors) == 1 and "comparisons block is malformed" in errors[0], errors
    assert laws.read_bytes() == before


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


def simulate_config(tmp_path, points, lr_factors=(1.0,), models=None):
    """A simulate config file: 125M runs at the base batch, default truth."""
    sweep = dict(
        models=models or [{"n_params": 1.25e8, "label": "125M"}],
        batch_sizes=[5e5],
        schemes=["origin"],
        lr_factors=list(lr_factors),
        base_batch=5e5,
        base_lr=BASE_LR,
        tokens_per_run=3e11,
        points_per_run=points,
    )
    path = tmp_path / f"config-{points}-{len(sweep['models'])}.json"
    path.write_text(json.dumps({"sweep": sweep}))
    return path


def expected_log(runs) -> bytes:
    return ("\n".join(serialize_runs(runs)) + "\n").encode()


CHUNK = runlog._ROWS_PER_CHUNK


@pytest.mark.parametrize("points", [None, CHUNK - 1, CHUNK, CHUNK + 1])
def test_streamed_logs_match_serialize_runs(tmp_path, capsys, points):
    """simulate and ingest --out write, a run at a time, the bytes of
    serialize_runs; a sweep at 3x the base LR holds a diverged run, whose
    last loss is Infinity."""
    truth = default_ground_truth(seed=7)
    if points is None:  # the README's seed-7 sweep
        argv = []
        grid = simulate_grid(default_sweep_config(), truth)
    else:
        config = simulate_config(tmp_path, points, lr_factors=(1.0, 3.0))
        argv = ["--config", str(config)]
        grid = simulate_grid(
            synth.SynthConfig.from_dict(json.loads(config.read_text())["sweep"]), truth
        )
        converged, diverged = grid
        assert len(converged.points) == points and diverged.points.loss[-1] == math.inf
    runs, copy = tmp_path / "runs.jsonl", tmp_path / "copy.jsonl"
    code, payload = run_json(capsys, "simulate", *argv, "--out", str(runs), "--seed", "7")
    assert code == 0 and payload["runs"] == len(grid)
    assert runs.read_bytes() == expected_log(grid)
    assert main(["ingest", "--runs", str(runs), "--out", str(copy)]) == 0
    assert copy.read_bytes() == runs.read_bytes()
    capsys.readouterr()


def test_ingest_out_writes_optional_fields_as_serialize_runs(five_model_runs, tmp_path, capsys):
    runset = parse_runs(five_model_runs.read_text().splitlines())
    run_ids = list(runset.runs)
    for run_id, label, seq_len in zip(run_ids, ("", "", "760M"), (None, 2048, 2048)):
        run = runset[run_id]
        runset.runs[run_id] = replace(
            run, model=ModelSpec(run.model.n_params, label, seq_len)
        )
    given, out = tmp_path / "given.jsonl", tmp_path / "out.jsonl"
    # a log as a user may hand it in: keys in any order, blank lines
    given.write_text("\n\n".join(json.dumps(json.loads(line)) for line in serialize_runs(runset)))
    assert main(["ingest", "--runs", str(given), "--out", str(out)]) == 0
    assert out.read_bytes() == expected_log(runset)
    assert b'"seq_len": 2048' in out.read_bytes()
    capsys.readouterr()


def test_empty_lenient_ingest_writes_one_blank_line(tmp_path, capsys):
    runs, out = tmp_path / "bad.jsonl", tmp_path / "out.jsonl"
    runs.write_text("{not json\n")
    code, payload = run_json(capsys, "ingest", "--runs", str(runs), "--lenient", "--out", str(out))
    assert code == 0 and payload["runs"] == 0 and len(payload["rejected"]) == 1
    assert out.read_bytes() == b"\n"


def _simulate_peak(tmp_path, config) -> int:
    tracemalloc.start()
    try:
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o.jsonl")]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_memory_does_not_grow_with_the_run_count(tmp_path, capsys):
    """Generated, validated and written a run at a time: four times the runs
    of the same length do not add one run's line to the peak."""
    def config(k):
        models = [{"n_params": 1.25e8 * (1 + i / 8), "label": f"m{i}"} for i in range(k)]
        return simulate_config(tmp_path, 2000, models=models)

    small, large = config(4), config(16)
    _simulate_peak(tmp_path, small)  # the first call loads the layers
    growth = _simulate_peak(tmp_path, large) - _simulate_peak(tmp_path, small)
    line = (tmp_path / "o.jsonl").read_text().splitlines()[0]
    assert growth < len(line)
    capsys.readouterr()


def test_simulate_duplicate_run_ids_write_nothing(tmp_path, capsys):
    models = [{"n_params": 1.25e8, "label": "m"}, {"n_params": 3.5e8, "label": "m"}]
    config = simulate_config(tmp_path, 50, models=models)
    out = tmp_path / "runs.jsonl"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "scalelaw: error: ConflictError: duplicate run_id 'm-0.5M-origin-x1'\n"
    assert list(tmp_path.iterdir()) == [config]
    out.write_bytes(b"kept\n")
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
    assert out.read_bytes() == b"kept\n"
    assert sorted(tmp_path.iterdir()) == sorted([config, out])
    capsys.readouterr()


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
        {"sweep": dict(default_sweep_config().to_dict(), batch_sizes=[5e5, True])},
        {"sweep": dict(default_sweep_config().to_dict(), lr_factors=[True])},
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


@pytest.mark.parametrize("block, field, value", [
    ("noise", "B_noise", math.inf),
    ("noise", "eta_max", math.inf),
    ("noise", "dL_max", math.nan),
    (None, "observation_noise", math.inf),
])
def test_simulate_refuses_a_non_finite_ground_truth_number(tmp_path, capsys, block, field, value):
    """The config's Infinity or NaN is one ValidationError naming its field,
    not a traceback, a log of planted divergences or a run's invalid loss."""
    truth = default_ground_truth().to_dict()
    (truth[block] if block else truth)[field] = value
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"ground_truth": truth}))
    out = tmp_path / "runs.jsonl"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"scalelaw: error: ValidationError: {field} must be ")
    assert not out.exists()


def test_simulate_rejects_bad_env_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SCALELAW_SEED", "not-a-number")
    out = tmp_path / "runs.jsonl"
    assert main(["simulate", "--out", str(out), "--points-per-run", "2",
                 "--tokens-per-run", "1e8"]) == 1
    assert "SCALELAW_SEED" in capsys.readouterr().err


@pytest.mark.parametrize("env, flag, seed", [
    (None, None, 9), (None, "3", 3), ("5", None, 5), ("5", "3", 5),
    ("not-a-number", "3", None), ("1.5", None, None), ("", "3", None),
], ids=["config", "flag", "env", "env_over_flag", "word", "float", "empty"])
def test_simulate_seed_comes_from_env_then_flag_then_config(
    tmp_path, capsys, monkeypatch, env, flag, seed
):
    """SCALELAW_SEED wins over --seed, which wins over the config's seed; a
    SCALELAW_SEED that is not an integer is a ValidationError (exit 1)."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"ground_truth": default_ground_truth(seed=9).to_dict()}))
    small = ["--config", str(config), "--points-per-run", "2", "--tokens-per-run", "1e8"]
    out = tmp_path / "runs.jsonl"
    if env is not None:
        monkeypatch.setenv("SCALELAW_SEED", env)
    code = main(["simulate", *small, "--out", str(out), "--json",
                 *(["--seed", flag] if flag else [])])
    captured = capsys.readouterr()
    if seed is None:
        assert code == 1
        assert captured.err == (
            f"scalelaw: error: ValidationError: SCALELAW_SEED must be an integer, got {env!r}\n"
        )
        assert json.loads(captured.out)["error"] == "ValidationError"
        assert not out.exists()
        return
    assert code == 0 and json.loads(captured.out)["seed"] == seed
    # the log is the one --seed alone gives
    monkeypatch.delenv("SCALELAW_SEED", raising=False)
    plain = tmp_path / "plain.jsonl"
    assert main(["simulate", *small, "--out", str(plain), "--seed", str(seed)]) == 0
    assert out.read_bytes() == plain.read_bytes()


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask022", "umask077"])
def test_written_files_get_the_mode_open_gives(tmp_path, capsys, umask):
    """A new output file or cache entry gets 0o666 less the umask, and a
    replaced file keeps its mode, as open(path, "w") leaves them."""
    out = tmp_path / "runs.jsonl"
    argv = ["simulate", "--out", str(out), "--points-per-run", "2", "--tokens-per-run", "1e8"]
    before = os.umask(umask)
    try:
        assert main(argv) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask
        assert main(["ingest", "--runs", str(out)]) == 0
        (entry,) = Path(os.environ["XDG_CACHE_HOME"], "scalelaw").iterdir()
        assert stat.S_IMODE(entry.stat().st_mode) == 0o666 & ~umask
        out.chmod(0o640)
        assert main([*argv, "--seed", "2"]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
    finally:
        os.umask(before)
    assert [p.name for p in tmp_path.iterdir()] == ["runs.jsonl"]


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


@pytest.mark.parametrize("field", ["warmup_steps", "decay_steps"])
def test_step_count_past_64_bits_is_parse_error(five_model_runs, tmp_path, capsys, field):
    # smoothing turns the warm-up into a token span, which such a count overflows
    obj = json.loads(five_model_runs.read_text().splitlines()[0])
    obj[field] = 10**400
    runs = tmp_path / "huge.jsonl"
    runs.write_text(json.dumps(obj) + "\n")
    message = f"ParseError: line 1: step count must fit in 64 bits (field: {field})"
    for argv in (["ingest"], ["frontier", "--laws", str(tmp_path / "laws.json")]):
        assert main([*argv, "--runs", str(runs)]) == 1
        assert f"scalelaw: error: {message}" in capsys.readouterr().err


def test_ingest_normalized_copy_is_stable(five_model_runs, tmp_path, capsys):
    out = tmp_path / "normalized.jsonl"
    assert main(["ingest", "--runs", str(five_model_runs), "--out", str(out)]) == 0
    again = tmp_path / "again.jsonl"
    assert main(["ingest", "--runs", str(out), "--out", str(again)]) == 0
    assert out.read_bytes() == again.read_bytes()
    capsys.readouterr()


def test_non_utf8_run_log_is_parse_error(tmp_path, capsys):
    runs = tmp_path / "bad.jsonl"
    runs.write_bytes(b'{"run_id": "a\xff"}\n')
    message = "line 1: invalid UTF-8 at byte 13: invalid start byte"
    for argv in (
        ["ingest"],
        ["frontier", "--laws", str(tmp_path / "laws.json")],
        ["export-plot", "--kind", "curves", "--out", str(tmp_path / "curves.csv")],
    ):
        assert main([*argv, "--runs", str(runs)]) == 1
        assert f"scalelaw: error: ParseError: {message}" in capsys.readouterr().err
    code, payload = run_json(capsys, "ingest", "--runs", str(runs), "--lenient")
    assert code == 0 and payload["runs"] == 0
    assert payload["rejected"] == [[1, message]]


# documents the JSON decoder itself gives up on: nested past its recursion
# limit, and an integer past the int-string conversion limit
DECODER_LIMIT_DOCS = ["[" * 100_000 + "]" * 100_000, '{"n_params": ' + "1" * 5000 + "}"]


@pytest.mark.parametrize("line", DECODER_LIMIT_DOCS, ids=["deep", "digits"])
def test_line_past_json_decoder_limits_is_parse_error(tmp_path, capsys, line):
    runs = tmp_path / "bad.jsonl"
    runs.write_text(line + "\n")
    assert main(["ingest", "--runs", str(runs)]) == 1
    err = capsys.readouterr().err
    prefix = "line 1: invalid JSON: "
    assert err.startswith(f"scalelaw: error: ParseError: {prefix}") and err.count("\n") == 1
    code, payload = run_json(capsys, "ingest", "--runs", str(runs), "--lenient")
    assert code == 0 and payload["runs"] == 0
    assert payload["rejected"] == [[1, err.removeprefix("scalelaw: error: ParseError: ")[:-1]]]


@pytest.mark.parametrize("doc", DECODER_LIMIT_DOCS, ids=["deep", "digits"])
@pytest.mark.parametrize("argv", [
    ["advise", "--compute", "1e21", "--laws"],
    ["fit-law", "--constrain", "frontier", "--laws"],
    ["simulate", "--out", "runs.jsonl", "--config"],
], ids=["advise", "fit-law", "simulate"])
def test_laws_file_and_config_past_json_decoder_limits_are_parse_errors(
    five_model_runs, tmp_path, capsys, monkeypatch, argv, doc
):
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(doc)
    if argv[0] == "fit-law":
        argv = [*argv[:1], "--runs", str(five_model_runs), *argv[1:]]
    assert main([*argv, str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"scalelaw: error: ParseError: {bad}: invalid JSON: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "runs.jsonl").exists()


def test_non_utf8_laws_file_and_config_are_input_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"format": "\xff"}')
    for argv in (
        ["advise", "--compute", "1e21", "--laws", str(bad)],
        ["simulate", "--config", str(bad), "--out", str(tmp_path / "runs.jsonl")],
    ):
        assert main(argv) == 1
        assert "scalelaw: error: UnicodeDecodeError: " in capsys.readouterr().err


def test_cold_and_warm_reads_give_the_same_output(five_model_runs, tmp_path, capsys, run_log_cache):
    """The second read of a log comes from the run-log cache; nothing a verb
    prints or writes changes."""
    laws = tmp_path / "laws.json"
    outputs = []
    for _ in range(2):
        laws.unlink(missing_ok=True)
        for verb in ("frontier", "fit-law"):
            assert main([verb, "--runs", str(five_model_runs), "--laws", str(laws), "--json"]) == 0
        outputs.append((capsys.readouterr().out, laws.read_bytes()))
    assert outputs[0] == outputs[1]
    assert len(list(run_log_cache.iterdir())) == 1


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


def test_fit_law_bad_constraint_spec(five_model_runs, tmp_path, capsys, monkeypatch):
    """Refused before the run log is read."""
    monkeypatch.setattr(runlog, "read_runs", _refuse_read)
    laws = tmp_path / "laws.json"
    assert main(["fit-law", "--runs", str(five_model_runs), "--laws", str(laws),
                 "--constrain", "nonsense"]) == 1
    assert "four numbers" in capsys.readouterr().err
    assert main(["fit-law", "--runs", str(five_model_runs), "--laws", str(laws),
                 "--constrain", "frontier"]) == 1
    assert "run the frontier verb first" in capsys.readouterr().err


def test_fit_law_non_finite_constraint_is_validation_error(five_model_runs, tmp_path, capsys):
    laws = tmp_path / "laws.json"
    fit = ["fit-law", "--runs", str(five_model_runs), "--laws", str(laws), "--constrain"]
    assert main([*fit, "0.5,0.5,nan,1"]) == 1
    err = capsys.readouterr().err
    assert "scalelaw: error: ValidationError: all frontier constraint fields" in err
    assert "must be positive and finite" in err
    doc = LawArtifact().to_json_dict()
    doc["frontier"] = scalelaw.reference_artifact().frontier.to_dict()
    doc["frontier"]["N_opt"]["k"] = math.nan
    laws.write_text(json.dumps(doc))
    assert main([*fit, "frontier"]) == 1
    err = capsys.readouterr().err
    assert "scalelaw: error: ValidationError: coefficient must be positive and finite" in err


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


def _refuse_read(*args, **kwargs):
    raise AssertionError("the run log was read")


@pytest.mark.parametrize("filters", [[], ["--batch", "5e5"]], ids=["unfiltered", "filtered"])
def test_a_log_of_no_runs_is_insufficient_data(tmp_path, capsys, filters):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n")
    laws = tmp_path / "laws.json"
    code, payload = run_json(capsys, "frontier", "--runs", str(empty), "--laws", str(laws), *filters)
    assert code == 1
    assert payload == {"error": "InsufficientDataError", "message": f"{empty} holds no runs"}
    assert not laws.exists()


@pytest.mark.parametrize("verb", ["frontier", "fit-law", "fit-bopt", "fit-lr"])
@pytest.mark.parametrize("laws, error", [
    ("a-dir", "IsADirectoryError"),
    ("missing/laws.json", "FileNotFoundError"),
    ("a-file/laws.json", "NotADirectoryError"),
    ("bad.json", "ParseError"),
])
def test_a_bad_laws_path_fails_before_the_run_log_is_read(
    five_model_runs, tmp_path, capsys, monkeypatch, verb, laws, error
):
    (tmp_path / "a-dir").mkdir()
    (tmp_path / "a-file").write_text("")
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "scalelaw-laws/1", "comparisons": "ab"}\n')
    before = sorted((p.name, p.read_bytes() if p.is_file() else None) for p in tmp_path.iterdir())
    monkeypatch.setattr(runlog, "read_runs", _refuse_read)
    extra = ["--checkpoint-tokens", "1e10"] if verb == "fit-lr" else []
    code, payload = run_json(
        capsys, verb, "--runs", str(five_model_runs), "--laws", str(tmp_path / laws), *extra
    )
    assert (code, payload["error"]) == (1, error), payload
    if error != "ParseError":
        assert payload["message"].endswith(f": {str(tmp_path / laws)!r}")
    after = sorted((p.name, p.read_bytes() if p.is_file() else None) for p in tmp_path.iterdir())
    assert after == before


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


def seeded_sweep_file(tmp_path, capsys, points, models=(1.25e8, 3.5e8), batches=(5e5, 1e6, 2e6)):
    """A seed-7 run log of the default truth: each model at each batch size."""
    sweep = dict(
        models=[{"n_params": n, "label": f"{n / 1e6:g}M"} for n in models],
        batch_sizes=list(batches),
        schemes=["origin"],
        lr_factors=[1.0],
        base_batch=5e5,
        base_lr=BASE_LR,
        tokens_per_run=3e11,
        points_per_run=points,
    )
    config, runs = tmp_path / "sweep.json", tmp_path / "sweep.jsonl"
    config.write_text(json.dumps({"sweep": sweep}))
    assert main(["simulate", "--config", str(config), "--out", str(runs), "--seed", "7"]) == 0
    capsys.readouterr()
    return runs


# sha256 of the CSV files that export-plot wrote before it streamed its rows
# (6 runs of 5,000 points: each run's curve is 2 blocks of rows); the
# envelope's since its grid and interpolation are computed in Python floats
EXPORT_SHA256 = {
    "curves": "294f3aa7b7423b7c650b0c485b7c901b60af7b11ce094ff0a463c25555a86114",
    "curves-raw": "e323cac05c02d418ee24ead1f33f8c037005f645444e6edc37034d9386fc6334",
    "envelope": "bd2ab2080f7c11e3875dd0a823050ffcb0dec68d5ad0c0f78aa1481567d25e7b",
    "contour": "92974f1ee37167fd5f31189626c4f509819998b442dbeebc0f60bbd96c6ff3c5",
}
EXPORT_ARGV = {
    "curves": ["--kind", "curves"],
    "curves-raw": ["--kind", "curves", "--raw"],
    "envelope": ["--kind", "envelope"],
    "contour": ["--kind", "contour", "--model-size", "1.25e8", "--levels", "2.6,2.8,3.0"],
}


def test_export_csv_bytes_are_pinned(tmp_path, capsys):
    runs = seeded_sweep_file(tmp_path, capsys, 5000)
    assert hashlib.sha256(runs.read_bytes()).hexdigest().startswith("c0ba2177")
    for name, argv in EXPORT_ARGV.items():
        out = tmp_path / f"{name}.csv"
        code, payload = run_json(
            capsys, "export-plot", "--runs", str(runs), *argv, "--out", str(out)
        )
        assert code == 0
        data = out.read_bytes()
        assert hashlib.sha256(data).hexdigest() == EXPORT_SHA256[name], name
        assert payload["rows"] == data.count(b"\n") - 1


def test_export_curves_holds_a_block_of_rows_not_the_file(tmp_path, capsys):
    """The curve rows are smoothed a run at a time, then made and written a
    block of checkpoints at a time: exporting 6 runs of 20,000 points from a
    cached log peaks below the CSV's size, though the cached columns alone
    are 40% of it."""
    runs = seeded_sweep_file(
        tmp_path, capsys, 20_000, models=(1.25e8, 3.5e8, 7.6e8), batches=(5e5, 1e6)
    )
    out = tmp_path / "curves.csv"
    argv = ["export-plot", "--runs", str(runs), "--kind", "curves", "--out", str(out)]
    assert main(argv) == 0  # loads the layers and caches the log
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < out.stat().st_size


def test_fit_verbs_run_without_lapack(
    five_model_runs, batch_sweep_runs, tmp_path, capsys, monkeypatch
):
    """The line, parabola and quasi-Newton step of every fit are the package's
    own float kernels: with numpy's least squares, solve and norm made to
    raise, each fit verb still exits 0."""
    def refuse(*args, **kwargs):
        raise AssertionError("a fit called into numpy's linear algebra")

    monkeypatch.setattr(np, "polyfit", refuse)
    for name in ("lstsq", "solve", "norm"):
        monkeypatch.setattr(np.linalg, name, refuse)
    laws = str(tmp_path / "laws.json")
    levels = ",".join(str(v) for v in np.linspace(2.3, 2.78, 9))
    lr_runs = lr_sweep_file(tmp_path / "lr.jsonl", lambda b: 0.5 * (b / 1e6) ** 0.3)
    for argv in (
        ["frontier", "--runs", str(five_model_runs)],
        ["fit-law", "--runs", str(five_model_runs), "--constrain", "frontier"],
        ["fit-law", "--runs", str(five_model_runs)],
        ["fit-bopt", "--runs", str(batch_sweep_runs), "--levels", levels, "--s-floor", "1500"],
        ["fit-lr", "--runs", str(lr_runs), "--checkpoint-tokens", "2e7"],
    ):
        assert main([*argv, "--laws", laws]) == 0, argv
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


@pytest.mark.parametrize(
    "verb, flag, value, parameter",
    [
        ("fit-lr", "--plateau-tol", "nan", "plateau_tolerance"),
        ("fit-lr", "--plateau-tol", "inf", "plateau_tolerance"),
        ("fit-lr", "--checkpoint-tokens", "nan", "d_checkpoint"),
        ("fit-lr", "--checkpoint-tokens", "inf", "d_checkpoint"),
        ("fit-bopt", "--s-floor", "nan", "s_floor_hint"),
        ("fit-bopt", "--s-floor", "inf", "s_floor_hint"),
    ],
)
def test_non_finite_fit_parameters_are_validation_errors(
    tmp_path, capsys, batch_sweep_runs, verb, flag, value, parameter
):
    # each of these passed a "<= 0" check: a NaN plateau tolerance fitted a
    # different law (exit 0), the others failed later under another name
    laws = tmp_path / "laws.json"
    if verb == "fit-lr":
        runs = lr_sweep_file(tmp_path / "lr.jsonl", lambda b: 0.5 * (b / 1e6) ** 0.3)
        argv = ["fit-lr", "--runs", str(runs), "--laws", str(laws),
                "--checkpoint-tokens", "2e7"]
    else:
        levels = ",".join(str(v) for v in np.linspace(2.3, 2.78, 9))
        argv = ["fit-bopt", "--runs", str(batch_sweep_runs), "--laws", str(laws),
                "--levels", levels]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main([*argv, flag, value]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("scalelaw: error:")]
    assert errors == [
        f"scalelaw: error: ValidationError: {parameter} must be positive and finite, got {value}"
    ]
    assert not laws.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fit-law", "--delta", "nan"], "delta must be positive and finite, got nan"),
        (["fit-lr", "--checkpoint-tokens", "nan"],
         "d_checkpoint must be positive and finite, got nan"),
        (["fit-lr", "--checkpoint-tokens", "1e10", "--plateau-tol", "nan"],
         "plateau_tolerance must be positive and finite, got nan"),
        (["fit-lr", "--checkpoint-tokens", "1e10", "--refinement", "0"], "refinement must be >= 1"),
        (["fit-bopt", "--s-floor", "nan"], "s_floor_hint must be positive and finite, got nan"),
        (["fit-bopt", "--n-levels", "0"], "n_levels must be at least 1, got 0"),
        (["export-plot", "--kind", "contour", "--n-levels", "0"],
         "n_levels must be at least 1, got 0"),
        (["frontier", "--batch", "nan"], "--batch must be positive and finite, got nan"),
        (["fit-law", "--model-size=-inf"],
         "--model-size must be positive and finite, got -inf"),
        (["fit-lr", "--checkpoint-tokens", "1e10", "--batch", "0"],
         "--batch must be positive and finite, got 0.0"),
        (["export-plot", "--kind", "curves", "--model-size=-1.25e8"],
         "--model-size must be positive and finite, got -125000000.0"),
        (["fit-bopt", "--levels", "nan,2.5", "--model-size", "1.25e8"],
         "--levels must be positive and finite, got nan"),
        (["export-plot", "--kind", "contour", "--levels", "2.5,inf"],
         "--levels must be positive and finite, got inf"),
        (["fit-bopt", "--policy", "fixed_scheme"], "fixed_scheme policy requires a scheme"),
        (["export-plot", "--kind", "contour", "--policy", "fixed_scheme"],
         "fixed_scheme policy requires a scheme"),
        (["fit-bopt", "--scheme", "linear"], "--scheme needs --policy fixed_scheme"),
        (["export-plot", "--kind", "contour", "--scheme", "sqrt"],
         "--scheme needs --policy fixed_scheme"),
    ],
    ids=["delta", "checkpoint-tokens", "plateau-tol", "refinement", "s-floor", "n-levels",
         "export-n-levels", "batch", "model-size", "batch-zero", "export-model-size", "levels",
         "export-levels", "policy-without-scheme", "export-policy-without-scheme",
         "scheme-without-policy", "export-scheme-without-policy"],
)
def test_a_bad_numeric_flag_fails_before_the_run_log_is_opened(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    target = ["--out", str(out)] if argv[0] == "export-plot" else ["--laws", str(out)]
    assert main([*argv, "--runs", str(tmp_path / "absent.jsonl"), *target]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"scalelaw: error: ValidationError: {message}"]
    assert not out.exists()


def test_fit_bopt_refuses_a_bad_s_floor_before_contour_work(tmp_path, capsys, batch_sweep_runs):
    laws = tmp_path / "laws.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["fit-bopt", "--runs", str(batch_sweep_runs), "--laws", str(laws),
                     "--n-levels", "16", "--s-floor", "nan"]) == 1
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err.splitlines() == [
        "scalelaw: error: ValidationError: s_floor_hint must be positive and finite, got nan"
    ]


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
    # a verb's options are added when it parses, so its own help lists them
    for verb, option in [("ingest", "--lenient"), ("simulate", "--points-per-run"),
                         ("fit-law", "--delta"), ("frontier", "--only-scheme"),
                         ("fit-bopt", "--n-levels"), ("fit-lr", "--plateau-tol"),
                         ("tradeoff", "--b-ratios"), ("advise", "--compute"),
                         ("export-plot", "--kind")]:
        with pytest.raises(SystemExit) as excinfo:
            main([verb, "--help"])
        assert excinfo.value.code == 0
        assert option in capsys.readouterr().out


# ---------------------------------------------------------------------------
# process lifecycle: the cyclic garbage collector


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_the_caller_had_it(tmp_path, capsys, monkeypatch, enabled):
    during = []
    real_emit = tradeoff_verb.emit

    def emit(*args):
        during.append(gc.isenabled())
        real_emit(*args)

    monkeypatch.setattr(tradeoff_verb, "emit", emit)
    calls = [
        (["tradeoff", "--gamma", "1"], 0),  # succeeds
        (["advise", "--compute", "nan"], 1),  # InputError
        (["transmogrify"], SystemExit),  # argparse usage error
        (["--help"], SystemExit),
    ]
    was = gc.isenabled()
    try:
        for argv, outcome in calls:
            gc.enable() if enabled else gc.disable()
            if outcome is SystemExit:
                with pytest.raises(SystemExit):
                    main(argv)
            else:
                assert main(argv) == outcome
            assert gc.isenabled() is enabled, argv
    finally:
        gc.enable() if was else gc.disable()
    capsys.readouterr()
    assert during == [False]  # the verb ran with the collector paused


def test_exit_freeze_runs_after_earlier_exit_handlers():
    # atexit handlers run last in, first out: this one, registered before
    # main, runs after main's gc.freeze
    script = (
        "import atexit, gc\n"
        "from scalelaw.cli import main\n"
        "before = []\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > before[0]))\n"
        "for _ in range(2):\n"
        "    assert main(['tradeoff', '--gamma', '1']) == 0\n"
        "before.append(gc.get_freeze_count())\n"
    )
    assert run_fresh(script).stdout.splitlines()[-1] == "frozen True"


def test_main_registers_one_exit_handler_per_process():
    # count the exit freezes through a stand-in for gc.freeze; the handler
    # registered first runs last, after every freeze
    script = (
        "import atexit, gc\n"
        "freezes = []\n"
        "atexit.register(lambda: print('freezes', len(freezes)))\n"
        "freeze = gc.freeze\n"
        "gc.freeze = lambda: (freezes.append(1), freeze())\n"
        "from scalelaw.cli import main\n"
        "for _ in range(3):\n"
        "    assert main(['tradeoff', '--gamma', '1']) == 0\n"
    )
    assert run_fresh(script).stdout.splitlines()[-1] == "freezes 1"


def test_fit_verbs_leave_numpy_ma_unloaded(tmp_path, five_model_runs, batch_sweep_runs):
    if run_fresh("import sys, numpy; print('numpy.ma' in sys.modules)").stdout.strip() == "True":
        pytest.skip("import numpy loads numpy.ma here")
    laws = str(tmp_path / "laws.json")
    lr_runs = str(lr_sweep_file(tmp_path / "lr.jsonl", lambda b: 0.5 * (b / 1e6) ** 0.3))
    bopt = ["fit-bopt", "--runs", str(batch_sweep_runs), "--laws", laws, "--s-floor", "1500"]
    levels = ",".join(str(v) for v in np.linspace(2.3, 2.78, 9))
    # (argv, exit code): fit-bopt and export-plot without --levels pick their
    # loss levels by percentile, and on this sweep those levels' vertices
    # span too little D for a batch law, so that fit-bopt ends in exit 1
    verbs = [
        (["fit-law", "--runs", str(five_model_runs), "--laws", laws, "--raw"], 0),
        (["fit-lr", "--runs", lr_runs, "--laws", laws, "--checkpoint-tokens", "2e7"], 0),
        ([*bopt, "--levels", levels], 0),
        (bopt, 1),
        (["export-plot", "--runs", str(batch_sweep_runs), "--kind", "contour",
          "--out", str(tmp_path / "contour.csv")], 0),
    ]
    script = (
        "import sys, warnings\n"
        "from scalelaw.cli import main\n"
        "warnings.simplefilter('ignore')\n"
        f"for argv, code in {verbs!r}:\n"
        "    assert main(argv) == code, argv\n"
        "    assert 'numpy.ma' not in sys.modules, argv\n"
    )
    proc = run_fresh(script)
    assert proc.stderr.count("vertices must span at least one decade of D") == 1
