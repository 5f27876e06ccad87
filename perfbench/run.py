"""End-to-end benchmark of the ``scalelaw`` CLI.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

Runs a workload's verb sequence (see ``workloads.py``) the way a user does:
one ``scalelaw`` process per verb, one after another, all started by this
process.  Repetitions run until the next one would end past ``--seconds``
(at least one).  Every verb's output is checked against the generator's
planted truth or a closed-form identity.  The package is imported from the
checkout's ``src``; BLAS/OpenMP pools are pinned to one thread and
``SCALELAW_SEED`` is removed from the verb environment, since it would
override ``--seed``.

Before and after each verb this process times a reference process that only
imports numpy and scipy.optimize.  On a shared 2-core VM the speed of
identical work drifts by +-20% within seconds to minutes, which moves verb
and reference alike; ``pipeline_rel`` divides each verb's wall time by the
mean of its two references, so it tracks scalelaw's own cost.  The raw wall
times are reported too.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` additionally runs
one traced repetition in-process (``tracing.py``) and prints the per-layer
metrics.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Details (environment, every verb
call, spans) go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:  # before anything in this process imports numpy
    os.environ[_var] = "1"
os.environ.pop("SCALELAW_SEED", None)

from tracing import LAYERS, TRACED, Tracer, import_times  # noqa: E402
from workloads import PLANS, SIZES, WORKLOADS, Outcome, Plan, Step  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
VERB_TIMEOUT_S = 150.0
RUN_LIMIT_S = 160.0  # stop starting repetitions that would end past this
CLI_ENTRY = "import sys; from scalelaw.cli import main; sys.exit(main())"
REFERENCE = ("-c", "import numpy, scipy.optimize")
VERBS = ("simulate", "ingest", "fit-bopt", "export-plot", "frontier", "fit-law", "fit-lr", "advise")
# per-verb process-wall totals of a repetition, named after the verb
VERB_METRICS = ("simulate_s", "ingest_s", "fit_bopt_s", "export_plot_s", "frontier_s",
                "fit_law_s", "fit_lr_s")

END_TO_END = {"setup_s": "s", "pipeline_rel": "ratio", "peak_rss_mb": "MB"}

_COUNTS = {
    "synth": ("points",), "runlog": ("runs", "points"),
    "frontier": ("grid_points", "frontier_points"),
    "bslaw": ("levels", "contour_points", "vertices"),
    "lawfit": ("samples", "init_starts", "r_squared"),
    "lrlaw": ("cells_filled", "samples"), "artifact": ("bytes",), "advisor": ("calls",),
}
_COUNT_UNITS = {"r_squared": "ratio", "bytes": "bytes"}


def _per_layer_units() -> dict[str, str]:
    units = {"pipeline_s": "s", "reference_s": "s", "verb_p50_s": "s"}
    units.update({name: "s" for name in VERB_METRICS})
    units.update({"advise_p50_s": "s", "advise_tail_s": "s", "advise_tail_pct": "%",
                  "advise_calls": "count", "failed_ops": "ratio"})
    units.update({"import.scalelaw_s": "s", "import.scipy_optimize_s": "s", "import.numpy_s": "s"})
    for verb in VERBS:
        units[f"cli.main_s.{verb}"] = "s"
    for layer, _, qualname, _ in TRACED:
        units[f"{layer}.{qualname.split('.')[-1]}_s"] = "s"
    for layer, names in _COUNTS.items():
        for name in names:
            units[f"{layer}.{name}"] = _COUNT_UNITS.get(name, "count")
    for layer in LAYERS:
        if layer != "import":
            units[f"{layer}.self_s"] = "s"
        units[f"{layer}.failed"] = "count"
    units.update({"trace.overhead_s": "s", "trace.traced_rep_s": "s",
                  "trace.untraced_pipeline_s": "s", "trace.spans": "count"})
    return units


PER_LAYER = _per_layer_units()


# ---------------------------------------------------------------------------
# running verbs


def verb_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("SCALELAW_SEED", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_process(args: list[str], cwd: Path) -> Outcome:
    """Run one Python process to completion; wall time and max RSS from wait4."""
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=verb_env(),
                                stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        timer = threading.Timer(VERB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            if proc.returncode is None and proc.poll() is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    outcome = Outcome(os.waitstatus_to_exitcode(status), out_path.read_text(),
                      err_path.read_text(), wall, usage.ru_maxrss / 1024.0)
    out_path.unlink()
    err_path.unlink()
    return outcome


def run_verb_in_process(step: Step, tracer: Tracer) -> Outcome:
    import scalelaw.cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    code = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with tracer.span(f"cli.main_s.{step.verb}", "cli"):
                code = scalelaw.cli.main(step.argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the verb crashed: keep going, count it as failed
        err.write(traceback.format_exc())
    return Outcome(code, out.getvalue(), err.getvalue(), time.perf_counter() - start)


@dataclass
class Call:
    """One verb call of a repetition and how it went."""

    step: Step
    outcome: Outcome
    problems: list[str]
    known: bool  # failed in the documented known-defect way
    reference_s: float = 0.0  # mean wall of the reference processes just before and after

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    def to_dict(self) -> dict:
        o = self.outcome
        return {"argv": self.step.argv, "code": o.code, "wall_s": o.wall_s,
                "rss_mb": o.rss_mb, "reference_s": self.reference_s,
                "problems": self.problems, "known_defect": self.known}


def judge(step: Step, outcome: Outcome, reference_s: float = 0.0) -> Call:
    problems = step.check(outcome)
    known = bool(problems) and step.known_defect is not None and step.known_marker in outcome.err
    return Call(step, outcome, problems, known, reference_s)


def clean_outputs(work: Path, inputs: set[str]) -> None:
    for path in work.iterdir():
        if path.name not in inputs:
            shutil.rmtree(path) if path.is_dir() else path.unlink()


def run_repetition(plan: Plan, work: Path, inputs: set[str]) -> list[Call]:
    """One untraced repetition; every verb runs between two reference processes."""
    clean_outputs(work, inputs)
    calls = []
    before = run_process(list(REFERENCE), work).wall_s
    for step in plan.steps:
        outcome = run_process(["-c", CLI_ENTRY, *step.argv], work)
        after = run_process(list(REFERENCE), work).wall_s
        calls.append(judge(step, outcome, (before + after) / 2))
        before = after
    return calls


def traced_repetition(workload: str, plan: Plan, work: Path, inputs: set[str], rep: int):
    """One repetition in this process with every traced layer wrapped."""
    tracer = Tracer(workload, rep)
    with tracer.span("import.scalelaw", "import"):
        probe = run_process(["-X", "importtime", "-c", "import scalelaw"], work)
    if probe.code != 0:
        raise SystemExit("import scalelaw failed in the import-time probe")
    sys.path.insert(0, str(SRC))
    import scalelaw.cli  # noqa: F401  (the cold import stays out of the traced repetition)

    clean_outputs(work, inputs)
    tracer.install()
    try:
        start = time.perf_counter()
        calls = [judge(step, run_verb_in_process(step, tracer)) for step in plan.steps]
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    return tracer, import_times(probe.err), wall, calls


# ---------------------------------------------------------------------------
# set-up


def setup(workload: str, seed: int, size_name: str, work: Path) -> tuple[Plan, set[str], dict]:
    """Write the workload's inputs; return the plan, the input file names and versions."""
    size = SIZES[size_name]
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plan = PLANS[workload](seed, size, work)
    for name, config in plan.configs.items():
        (work / name).write_text(json.dumps(config, indent=2) + "\n")
    args = [str(Path(__file__).with_name("prepare.py")), "--dir", str(work)]
    if plan.laws_file is not None:
        args += ["--laws", plan.laws_file, "--seed", str(seed), "--points", str(size.setup_points)]
    outcome = run_process(args, work)
    if outcome.code != 0:
        sys.stderr.write(outcome.err)
        raise SystemExit(f"set-up failed (exit {outcome.code}); is src/scalelaw importable?")
    versions = json.loads(outcome.out.strip().splitlines()[-1])
    return plan, {p.name for p in work.iterdir()}, versions


def _command_output(argv: list[str]) -> str:
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        return subprocess.run(argv, capture_output=True, text=True, timeout=10).stdout
    return ""


def environment(versions: dict) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        sha = _command_output(["git", "-C", str(ROOT), "rev-parse", "HEAD"]).strip() or None
    caches = {}
    for line in _command_output(["getconf", "-a"]).splitlines():
        name, _, value = line.partition(" ")
        if name.endswith("CACHE_SIZE") and value.strip().isdigit():
            caches[name] = int(value)
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cache_bytes": caches,
        **versions,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# metrics


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, as (value, pct).

    With ten samples or fewer no percentile qualifies; the maximum is
    reported, as the 100th.
    """
    ordered = sorted(values)
    if len(ordered) <= 10:
        return (ordered[-1], 100.0) if ordered else (0.0, 0.0)
    k = len(ordered) - 10
    return ordered[k - 1], 100.0 * k / len(ordered)


def pipeline_s(calls: list[Call]) -> float:
    """Wall time of a repetition's verb sequence, failed verbs included."""
    return sum(c.outcome.wall_s for c in calls)


def pipeline_rel(calls: list[Call]) -> float:
    """Sum over verbs of the verb's wall time over its bracketing reference's."""
    return sum(c.outcome.wall_s / c.reference_s for c in calls)


def untraced_metrics(reps: list[list[Call]]) -> dict[str, float]:
    """Process-wall metrics of the untraced repetitions, medians over repetitions."""
    calls = [c for rep in reps for c in rep]
    metrics = {
        "pipeline_s": median(pipeline_s(rep) for rep in reps),
        "reference_s": median(c.reference_s for c in calls),
        "verb_p50_s": median(c.outcome.wall_s for c in calls),
    }
    for name in VERB_METRICS:
        metrics[name] = median(sum(c.outcome.wall_s for c in rep
                                   if f"{c.step.verb.replace('-', '_')}_s" == name) for rep in reps)
    advise = [c.outcome.wall_s for c in calls if c.step.verb == "advise"]
    metrics["advise_p50_s"] = median(advise)
    metrics["advise_tail_s"], metrics["advise_tail_pct"] = tail(advise)
    metrics["advise_calls"] = len(advise)
    metrics["failed_ops"] = sum(c.failed for c in calls) / len(calls)
    return metrics


def end_to_end(setup_times: list[float], reps: list[list[Call]]) -> dict[str, float]:
    return {
        "setup_s": median(setup_times),
        "pipeline_rel": median(pipeline_rel(rep) for rep in reps),
        "peak_rss_mb": median(max(c.outcome.rss_mb for c in rep) for rep in reps),
    }


def per_layer(reps, tracer: Tracer, imports: dict[str, float], traced_wall: float) -> dict[str, float]:
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update(untraced_metrics(reps))
    metrics["import.scalelaw_s"] = imports.get("scalelaw", 0.0)
    metrics["import.scipy_optimize_s"] = imports.get("scipy.optimize", 0.0)
    metrics["import.numpy_s"] = imports.get("numpy", 0.0)
    self_times = tracer.self_times()
    for span in tracer.spans:
        metrics[f"{span.layer}.failed"] += span.failed
        if span.layer == "import":
            continue
        busy = span.name if span.layer == "cli" else f"{span.name}_s"
        metrics[busy] += span.duration
        metrics[f"{span.layer}.self_s"] += self_times[span.id]
    metrics.update({k: v for k, v in tracer.counts.items() if k in metrics})
    metrics["trace.traced_rep_s"] = traced_wall
    metrics["trace.untraced_pipeline_s"] = metrics["pipeline_s"]
    metrics["trace.overhead_s"] = traced_wall - metrics["pipeline_s"]
    metrics["trace.spans"] = len(tracer.spans)
    return metrics


def report(args, metrics: dict, units: dict, raw: dict, calls: list[Call], n_reps: int) -> None:
    """Human-readable lines; the JSON result line follows them."""
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"{n_reps} untraced repetition(s)")
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {units[name]}")
    if not args.trace:
        print("  process walls (medians over repetitions):")
        for name in ("pipeline_s", "reference_s", "verb_p50_s", *VERB_METRICS):
            if raw[name]:
                print(f"    {name:<32} {raw[name]:>14.6g} s")
    if raw["advise_calls"]:
        print(f"  advise: {raw['advise_calls']:.0f} queries, p50 {raw['advise_p50_s']:.4g} s, "
              f"p{raw['advise_tail_pct']:.0f} {raw['advise_tail_s']:.4g} s "
              "(highest percentile with >= 10 queries beyond it; the maximum below 11 queries)")
    known = [c for c in calls if c.known]
    failed = [c for c in calls if c.failed and not c.known]
    n_bad = len(known) + len(failed)
    print(f"  failed_ops {n_bad}/{len(calls)} = {n_bad / len(calls):.4f} ratio over verb exits and "
          f"correctness gates ({len(known)} known defect, {len(failed)} unexpected)")
    if known:
        print(f"  known defect: {known[0].step.known_defect}")
    for call in failed:
        print(f"  FAILED {' '.join(call.step.argv[:3])}: {'; '.join(call.problems)}")
    if args.trace:
        print("  trace.overhead_s: the traced repetition runs every verb in this process with"
              " scalelaw imported once; the untraced pipeline_s starts one interpreter per verb")


# ---------------------------------------------------------------------------
# main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end benchmark of the scalelaw CLI.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full",
                        help="input sizes; 'smoke' runs in seconds")
    args = parser.parse_args(argv)

    if not (SRC / "scalelaw" / "__init__.py").is_file():
        print(f"no scalelaw package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    begin = time.perf_counter()
    work = WORK / f"{args.workload}-{args.seed}"
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        plan, inputs, versions = setup(args.workload, args.seed, args.size, work)
        setup_times.append(time.perf_counter() - start)

    reps = []
    measure_start = time.perf_counter()
    while True:
        reps.append(run_repetition(plan, work, inputs))
        elapsed = time.perf_counter() - measure_start
        next_end = elapsed * (len(reps) + 1) / len(reps)
        if next_end > args.seconds or time.perf_counter() - begin + next_end - elapsed > RUN_LIMIT_S:
            break

    calls = [c for rep in reps for c in rep]
    raw = untraced_metrics(reps)
    if args.trace:
        tracer, imports, traced_wall, traced_calls = traced_repetition(
            args.workload, plan, work, inputs, len(reps))
        calls += traced_calls
        metrics, units = per_layer(reps, tracer, imports, traced_wall), PER_LAYER
    else:
        metrics, units = end_to_end(setup_times, reps), END_TO_END
    shutil.rmtree(work, ignore_errors=True)
    report(args, metrics, units, raw, calls, len(reps))

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "environment": environment(versions),
        "setup_s": setup_times,
        "repetitions": [[c.to_dict() for c in rep] for rep in reps],
        "metrics": metrics,
    }
    if args.trace:
        detail["traced"] = {"wall_s": traced_wall, "calls": [c.to_dict() for c in traced_calls],
                            "spans": tracer.records(), "counts": tracer.counts}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")

    failed = sum(c.failed and not c.known for c in calls)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
