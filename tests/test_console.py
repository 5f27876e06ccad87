"""End-to-end checks of the console verbs, each verb run in a new interpreter
with the test's own run-log cache: the seeded logs the verbs write, the
cache hits that must print and write what a miss does, and the refusals of
bad documents."""

import hashlib
import json
import math

import pytest

from scalelaw import reference_artifact

from conftest import (
    assert_a_hit_loads_no_numpy,
    assert_a_hit_matches_a_miss,
    run_verb,
    strict_json,
)

# sha256 of the files the verbs write from the seeded logs below
QUICK_START_SHA = "f4dbf09e14f6a6a60fcdbdeea3bbe679c65a3866265fb5fc8e267e8266a85f4a"
LONG_LOG_SHA = "5070ccdef1829185dfa001031f881b0c8fd1196850bfa5a678e7b3bc6a53c6fb"
LONG_CURVES_SHA = "0b65b1f42ddb15d0b639d80f30ed663ad2fb768cdefd83cac54a114c8f17a5e6"
ENVELOPE_SHA = "c7e1225c241de50281fb03709080e471f57d7b3d6be9a9f977f2a1cbd4e70c4f"

# the batch-size law of the 125M linear-scheme runs at 16 loss levels
LEVELS = "2.45,2.49,2.53,2.57,2.61,2.65,2.69,2.73,2.77,2.81,2.85,2.89,2.93,2.97,3.01,3.05"
FIT_BOPT = ["fit-bopt", "--laws", "laws.json", "--model-size", "1.25e8", "--policy",
            "fixed_scheme", "--scheme", "linear", "--s-floor", "1500", "--json", "--levels", LEVELS]
FILTERS = ["--batch", "5e5", "--only-scheme", "origin"]


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def simulate(tmp_path_factory, name, sweep=None):
    """The run log `simulate --seed 7` writes, of the given sweep or of the
    default one; the process gets a cache of its own."""
    base = tmp_path_factory.mktemp(name)
    config = []
    if sweep is not None:
        (base / "sweep.json").write_text(json.dumps({"sweep": sweep}))
        config = ["--config", str(base / "sweep.json")]
    log = base / "runs.jsonl"
    code, out, err, _ = run_verb(["simulate", "--out", str(log), "--seed", "7", *config, "--json"],
                                 XDG_CACHE_HOME=str(base))
    assert code == 0, err
    strict_json(out)
    return log


@pytest.fixture(scope="session")
def quick_start(tmp_path_factory):
    """The README quick start's log: the default sweep, 105 runs of 400
    points, some of them diverged."""
    log = simulate(tmp_path_factory, "quick-start")
    assert sha256(log) == QUICK_START_SHA
    return log


@pytest.fixture(scope="session")
def lr_sweep(tmp_path_factory):
    """The LR law's sweep of 350M: 6 batch sizes by 6 LR factors, 200 points."""
    return simulate(tmp_path_factory, "lr-sweep", {
        "models": [{"n_params": 3.5e8, "label": "350M"}],
        "batch_sizes": [5e5, 1e6, 2e6, 4e6, 8e6, 1.6e7], "schemes": ["origin"],
        "lr_factors": [0.25 * 2 ** (4 * i / 5) for i in range(6)],
        "base_batch": 5e5, "base_lr": 4.4e-4, "tokens_per_run": 2e10, "points_per_run": 200,
    })


@pytest.fixture(scope="session")
def long_log(tmp_path_factory):
    """3 runs of 10,000 points, generated and written a block of 512 points
    at a time."""
    log = simulate(tmp_path_factory, "long", {
        "models": [{"n_params": 1.25e8, "label": "125M"}, {"n_params": 3.5e8, "label": "350M"},
                   {"n_params": 7.6e8, "label": "760M"}],
        "batch_sizes": [5e5], "schemes": ["origin"], "lr_factors": [1.0],
        "base_batch": 5e5, "base_lr": 4.4e-4, "tokens_per_run": 3e11, "points_per_run": 10000,
    })
    assert sha256(log) == LONG_LOG_SHA
    return log


# (the log, the verbs run in turn on it, the files they write mapped to the
# sha256 pinned for each or None, whether the hit must load no numpy)
CASES = [
    pytest.param("quick_start", [
        ["frontier", "--laws", "laws.json", "--json"],
        ["fit-law", "--laws", "laws.json", "--constrain", "frontier", "--json"],
    ], {"laws.json": None}, False, id="frontier-then-fit-law"),
    # each of these reads the entry's buffers in Python floats
    pytest.param("quick_start", [FIT_BOPT], {"laws.json": None}, True, id="fit-bopt"),
    pytest.param("quick_start", [
        ["export-plot", "--kind", "contour", "--model-size", "1.25e8", "--out", "contour.csv"],
    ], {"contour.csv": None}, True, id="contour"),
    pytest.param("quick_start", [["ingest", "--json"]], {}, True, id="ingest"),
    # both run-log writers give the same bytes: ingest --out rewrites the
    # simulated log unchanged
    pytest.param("quick_start", [["ingest", "--out", "out.jsonl", "--json"]],
                 {"out.jsonl": QUICK_START_SHA}, True, id="ingest-out"),
    pytest.param("quick_start", [["export-plot", "--kind", "curves", "--out", "curves.csv"]],
                 {"curves.csv": None}, True, id="curves"),
    pytest.param("quick_start", [
        ["export-plot", "--kind", "curves", "--raw", "--out", "curves.csv"],
    ], {"curves.csv": None}, True, id="curves-raw"),
    pytest.param("quick_start", [["frontier", "--laws", "laws.json", "--json"]],
                 {"laws.json": None}, True, id="frontier"),
    pytest.param("quick_start", [["export-plot", "--kind", "envelope", "--out", "envelope.csv"]],
                 {"envelope.csv": ENVELOPE_SHA}, True, id="envelope"),
    pytest.param("lr_sweep", [
        ["fit-lr", "--laws", "laws.json", "--checkpoint-tokens", "1e10", "--json"],
    ], {"laws.json": None}, True, id="fit-lr"),
    # the filtered reads of the benchmark: a hit reads only the runs the
    # filters keep
    pytest.param("quick_start", [
        ["frontier", "--laws", "laws.json", *FILTERS, "--json"],
        ["fit-law", "--laws", "laws.json", "--constrain", "frontier", *FILTERS, "--json"],
    ], {"laws.json": None}, False, id="filtered-frontier-then-fit-law"),
    pytest.param("quick_start", [
        ["export-plot", "--kind", "contour", "--model-size", "1.25e8", "--levels", LEVELS,
         "--out", "contour.csv"],
    ], {"contour.csv": None}, False, id="contour-at-levels"),
    pytest.param("long_log", [["frontier", "--laws", "laws.json", "--json"]],
                 {"laws.json": None}, False, id="long-frontier"),
    # the CSV writer streams its rows a block at a time and still writes the
    # bytes of the writer that held them all
    pytest.param("long_log", [["export-plot", "--kind", "curves", "--out", "curves.csv"]],
                 {"curves.csv": LONG_CURVES_SHA}, False, id="long-curves"),
    # 30,000 raw rows, whose 240 KB row arrays are above glibc's mmap threshold
    pytest.param("long_log", [["fit-law", "--laws", "laws.json", "--raw", "--json"]],
                 {"laws.json": None}, False, id="long-fit-law-raw"),
]


@pytest.mark.parametrize("log, argvs, written, numpy_free", CASES)
def test_a_hit_prints_and_writes_what_a_miss_does(
    request, tmp_path, monkeypatch, run_log_cache, log, argvs, written, numpy_free
):
    monkeypatch.chdir(tmp_path)
    runs = ["--runs", str(request.getfixturevalue(log))]
    argvs = [[*argv, *runs] for argv in argvs]
    paths = [tmp_path / name for name in written]
    if numpy_free:
        (argv,) = argvs
        stdouts = [assert_a_hit_loads_no_numpy(argv, 0, paths, run_log_cache)[0]]
    else:
        _, hit = assert_a_hit_matches_a_miss(argvs, paths, run_log_cache)
        assert [code for code, *_ in hit] == [0] * len(argvs), [err for *_, err, _ in hit]
        stdouts = [out for _, out, _, _ in hit]
    for argv, out in zip(argvs, stdouts):
        if "--json" in argv:
            strict_json(out)
    for path, digest in zip(paths, written.values()):
        if digest is not None:
            assert sha256(path) == digest, path.name


def nan_batch_line(quick_start) -> str:
    """The quick start's first run with a NaN batch size."""
    with quick_start.open() as f:
        line = json.loads(f.readline())
    line["batch_size_tokens"] = math.nan
    return json.dumps(line)


def d_min_above_d_max(quick_start) -> str:
    """The reference laws with the batch-size law's d_min above its d_max."""
    doc = reference_artifact().to_json_dict()
    doc["bopt"]["d_min"] = 2 * doc["bopt"]["d_max"]
    return json.dumps(doc)


@pytest.mark.parametrize("argv, document, message", [
    # a data budget whose compute 6*N*D underflows, not advice with "C": 0.0
    (["advise", "--data", "1e-300", "--model-size", "1e-300", "--json"], None,
     "ValidationError: compute C = 6*N*D underflows"),
    (["ingest", "--runs"], nan_batch_line,
     "ValidationError: run 125M-0.5M-origin-x1: batch_size_tokens must be positive and finite, "
     "got nan"),
    (["advise", "--data", "2e10", "--laws"], d_min_above_d_max,
     "ValidationError: need d_min <= d_max"),
], ids=["compute-underflow", "nan-batch", "d-min-above-d-max"])
def test_a_bad_input_is_one_error_line(tmp_path, quick_start, argv, document, message):
    if document is not None:
        bad = tmp_path / "bad.json"
        bad.write_text(document(quick_start) + "\n")
        argv = [*argv, str(bad)]
    code, out, err, _ = run_verb(argv)
    errors = [line for line in err.splitlines() if line.startswith("scalelaw: error: ")]
    assert code == 1 and "Traceback" not in err
    assert len(errors) == 1 and errors[0].startswith(f"scalelaw: error: {message}"), err
    if "--json" in argv:
        # stdout holds the error document alone
        assert set(strict_json(out)) == {"error", "message"}
