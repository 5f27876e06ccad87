import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import scalelaw
from scalelaw import (
    GroundTruth,
    RunSet,
    default_ground_truth,
    default_sweep_config,
    reference_artifact,
    serialize_runs,
    simulate_grid,
)


@pytest.fixture(autouse=True)
def run_log_cache(tmp_path_factory, monkeypatch):
    """A fresh run-log cache directory per test, never the user's own."""
    root = tmp_path_factory.mktemp("xdg-cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(root))
    return root / "scalelaw"


@pytest.fixture(scope="session")
def reference():
    return reference_artifact()


@pytest.fixture(scope="session")
def ref_law(reference):
    return reference.loss_law


@pytest.fixture(scope="session")
def ground_truth() -> GroundTruth:
    return default_ground_truth(seed=1)


@pytest.fixture(scope="session")
def master_runs(ground_truth) -> RunSet:
    """The full 105-run simulated sweep shared by the pipeline tests."""
    return simulate_grid(default_sweep_config(), ground_truth)


@pytest.fixture
def write_runs(tmp_path):
    def _write(runset: RunSet, name: str = "runs.jsonl"):
        path = tmp_path / name
        path.write_text("".join(line + "\n" for line in serialize_runs(runset)))
        return path

    return _write


@pytest.fixture
def write_json(tmp_path):
    def _write(obj, name: str):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return path

    return _write


# ---------------------------------------------------------------------------
# new interpreters on this checkout


def fresh_env(**env: str) -> dict:
    """The environment of a new interpreter that imports this checkout, with
    env added."""
    src = str(Path(scalelaw.__file__).resolve().parent.parent)
    return dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))


def run_fresh(script: str, *args: str, **env: str) -> subprocess.CompletedProcess:
    """Run a Python script, with args as its sys.argv[1:], in a new
    interpreter on this checkout, with env added; it must exit 0."""
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], env=fresh_env(**env), capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


# the console script's main, then a last line: its exit code and whether a
# numpy.* module loaded (`import numpy` may bind the lazy module; any
# submodule means it ran)
_VERB_SCRIPT = (
    "import sys\n"
    "from scalelaw.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(code, any(m.startswith('numpy.') for m in sys.modules))\n"
)


def run_verb(argv, **env: str) -> tuple[int, str, str, bool]:
    """Run the verb argv in a new interpreter on this checkout, with env
    added: its exit code, stdout, stderr and whether it loaded numpy."""
    proc = run_fresh(_VERB_SCRIPT, *argv, **env)
    *printed, last = proc.stdout.splitlines(keepends=True)
    code, loaded = last.split()
    return int(code), "".join(printed), proc.stderr, loaded == "True"


def assert_a_hit_matches_a_miss(argvs, written, cache):
    """Run the verbs argvs in turn, each in a new interpreter: first each on a
    miss in the emptied cache, then each on a hit of the one entry the misses
    left.  Both sides exit, print and write the same.  The (miss, hit) sides:
    run_verb's result for each verb."""
    sides = []
    for side in ("miss", "hit"):
        for path in written:
            path.unlink(missing_ok=True)
        verbs = []
        for argv in argvs:
            if side == "miss":
                shutil.rmtree(cache, ignore_errors=True)
            verbs.append(run_verb(argv))
        sides.append((verbs, [path.read_bytes() if path.exists() else None for path in written]))
    (miss, miss_files), (hit, hit_files) = sides
    assert [verb[:3] for verb in miss] == [verb[:3] for verb in hit], argvs
    assert miss_files == hit_files, argvs
    assert len(list(cache.iterdir())) == 1, argvs
    return miss, hit


def assert_a_hit_loads_no_numpy(argv, code, written, cache):
    """assert_a_hit_matches_a_miss of the one verb argv, which exits with
    code and writes the files written: the miss loads numpy and the hit does
    not.  The hit's stdout and stderr."""
    (miss,), (hit,) = assert_a_hit_matches_a_miss([argv], written, cache)
    assert (miss[0], miss[3], hit[3]) == (code, True, False), argv
    return hit[1:3]


def strict_json(text: str):
    """One JSON document; NaN and Infinity, which JSON does not have, are
    refused."""
    def refuse(name):
        raise AssertionError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


# ---------------------------------------------------------------------------
# acceptance reporting: one visible pass/fail line per criterion

_ACCEPTANCE_RESULTS: dict[str, str] = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and "test_acceptance.py" in str(item.fspath):
        _ACCEPTANCE_RESULTS[item.name] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_ACCEPTANCE_RESULTS):
        verdict = "PASS" if _ACCEPTANCE_RESULTS[name] == "passed" else "FAIL"
        terminalreporter.write_line(f"{verdict}  {name}")
