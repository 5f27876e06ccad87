import json

import pytest

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
