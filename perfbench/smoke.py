"""Smoke size of the benchmark: all three workloads end to end at tiny sizes.

    python3 perfbench/smoke.py

For each workload, runs ``run.py --size smoke`` untraced and traced and
asserts that every metric named in ``BENCHMARK.json`` is emitted with its
unit, that every correctness gate passes, and that the traced runs together
record spans for every layer.  Also checks that the benchmark refuses to run
(non-zero exit, no result) in a directory holding only ``BENCHMARK.json``
and the benchmark's own files.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import OUT, WORK  # noqa: E402
from tracing import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1
# Layers each workload must reach in its traced repetition.
EXPECTED_LAYERS = {
    "sweep": set(LAYERS),
    "long_curves": {"import", "cli", "synth", "runlog", "frontier", "bslaw", "artifact"},
    "advise_queries": {"import", "cli", "artifact", "advisor"},
}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: FAIL: {message}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    covered = set()
    for workload in WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            done = run(ROOT, workload, trace)
            check(done.returncode == 0, f"{workload} trace {trace} exit {done.returncode}: {done.stderr[-500:]}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"result keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{workload} trace {trace}: correct {result['correct']}, "
                  f"{result['failed']}/{result['attempted']} failed\n{done.stdout}")
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            wanted = {m["name"]: m["unit"] for m in declared}
            check(emitted == wanted, f"{workload} trace {trace}: metrics differ from BENCHMARK.json: "
                  f"{sorted(set(emitted.items()) ^ set(wanted.items()))}")
            check(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
                  "non-numeric metric value")
            if trace:
                detail = json.loads((OUT / f"{workload}-seed{SEED}-trace1.json").read_text())
                layers = {span["layer"] for span in detail["traced"]["spans"]}
                check(EXPECTED_LAYERS[workload] <= layers,
                      f"{workload}: no spans for {sorted(EXPECTED_LAYERS[workload] - layers)}")
                covered |= layers
            print(f"smoke: {workload} trace {trace}: {len(emitted)} metrics, "
                  f"{result['attempted']} ops, ok", flush=True)
    check(covered >= set(LAYERS), f"no spans for layers {sorted(set(LAYERS) - covered)}")

    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    done = run(bare, WORKLOADS[0], 0)
    shutil.rmtree(bare)
    check(done.returncode != 0 and not done.stdout.strip(),
          f"bare directory: exit {done.returncode}, stdout {done.stdout[-200:]!r}")
    print("smoke: bare directory refused, ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
