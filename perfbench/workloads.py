"""The benchmark's workloads: verb sequences, their inputs and correctness gates.

A workload is a list of ``Step``s, one ``scalelaw`` CLI call each, run in
order (closed loop, one client).  Every step carries a gate that checks the
verb's output against the planted ground truth of the synthetic generator or
against a closed-form identity; a gate returns a list of problems, empty when
the output is correct.  Gates are tolerances, never golden bytes, so a fit
that lands on the same optimum by another route still passes.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# Planted loss law of the generator's default ground truth.
PLANTED_E = 1.48
PLANTED_ALPHA = 0.331
PLANTED_BETA = 0.286
# Compute-optimal model size grows as C^(beta / (alpha + beta)).
PLANTED_N_EXPONENT = PLANTED_BETA / (PLANTED_ALPHA + PLANTED_BETA)

# Tolerances of the planted-truth gates.  The current code recovers
# N ~ C^0.42 from the frontier (sweep and long curves), and the constrained
# fit lands at E 1.44, alpha 0.355, beta 0.256 with r^2 0.997.
N_EXPONENT_TOL = 0.07
E_TOL = 0.1
EXPONENT_TOL = 0.05
MIN_R_SQUARED = 0.99
# Printed numbers carry six significant digits.
PRINT_REL = 1e-5

# Anchors of the packaged reference laws (README and acceptance criteria 2/3).
COMPUTE_ANCHOR = 8.16e21
COMPUTE_ANCHOR_EXPECT = {"N": (4.36e9, 0.01), "D": (3.1178e11, 0.01), "B": (1.10e6, 0.01)}
DATA_ANCHOR = 1e12
DATA_ANCHOR_EXPECT = {"B": (4.7e6, 0.02)}

# Iso-loss levels for the 125M batch sweeps.  Contours above ~3.05 have no
# interior minimum, and fit-bopt needs vertices spanning a decade of D, so
# the levels stay within 2.40-3.05.
SWEEP_LEVELS = ",".join(f"{2.45 + 0.04 * i:.2f}" for i in range(16))
LONG_LEVELS = ",".join(f"{2.40 + 0.65 * i / 7:.4f}" for i in range(8))
BOPT_S_FLOOR = "1500"
LR_CHECKPOINT_TOKENS = "1e10"

WORKLOADS = ("sweep", "long_curves", "advise_queries")


@dataclass(frozen=True)
class Size:
    """Input sizes of one benchmark size (full or smoke)."""

    sweep_points: int
    lr_points: int
    long_points: int
    long_tokens: float
    queries: int
    setup_points: int


SIZES = {
    "full": Size(
        sweep_points=400, lr_points=200, long_points=12000, long_tokens=3e11,
        queries=24, setup_points=100,
    ),
    "smoke": Size(
        sweep_points=100, lr_points=40, long_points=400, long_tokens=3e11,
        queries=6, setup_points=100,
    ),
}


@dataclass(frozen=True)
class Outcome:
    """What one verb call produced."""

    code: int | None  # exit code; None when the call raised in-process
    out: str
    err: str
    wall_s: float
    rss_mb: float = 0.0


@dataclass
class Step:
    """One CLI call of a workload.

    ``known_defect`` describes a failure the program is known to have: the
    call still runs and is timed, and that failure is reported on its own
    line instead of as an unexpected one.
    """

    argv: list[str]
    check: Callable[[Outcome], list[str]]
    known_defect: str | None = None
    known_marker: str = ""

    @property
    def verb(self) -> str:
        return self.argv[0]


@dataclass
class Plan:
    """A workload's steps plus the files its set-up writes."""

    steps: list[Step]
    configs: dict[str, dict] = field(default_factory=dict)
    laws_file: str | None = None


# ---------------------------------------------------------------------------
# gates


def _close(value, expect: float, rel: float) -> bool:
    return isinstance(value, (int, float)) and abs(value - expect) <= rel * abs(expect)


def _json_doc(o: Outcome) -> tuple[dict | None, list[str]]:
    if o.code != 0:
        tail = o.err.strip().splitlines()[-1:] or ["no stderr"]
        return None, [f"exit {o.code}: {tail[0]}"]
    try:
        return json.loads(o.out.strip().splitlines()[-1]), []
    except (IndexError, json.JSONDecodeError):
        return None, ["no JSON document on stdout"]


def json_gate(check: Callable[[dict], list[str]]) -> Callable[[Outcome], list[str]]:
    def gate(o: Outcome) -> list[str]:
        doc, problems = _json_doc(o)
        return problems if doc is None else check(doc)

    return gate


def expect_runs(n_runs: int) -> Callable[[Outcome], list[str]]:
    def check(doc: dict) -> list[str]:
        problems = []
        if doc.get("runs") != n_runs:
            problems.append(f"expected {n_runs} runs, got {doc.get('runs')}")
        if doc.get("rejected"):
            problems.append(f"{len(doc['rejected'])} lines rejected")
        return problems

    return json_gate(check)


def _frontier_check(doc: dict) -> list[str]:
    problems = []
    n_p = doc.get("N_opt", {}).get("p")
    d_p = doc.get("D_opt", {}).get("p")
    if not isinstance(n_p, float) or abs(n_p - PLANTED_N_EXPONENT) > N_EXPONENT_TOL:
        problems.append(f"N_opt.p {n_p} not within {N_EXPONENT_TOL} of {PLANTED_N_EXPONENT:.4f}")
    if not isinstance(d_p, float) or not isinstance(n_p, float) or abs(n_p + d_p - 1) > 1e-6:
        problems.append(f"N_opt.p + D_opt.p = {n_p} + {d_p}, not 1")
    return problems


frontier_gate = json_gate(_frontier_check)


def _fit_law_check(doc: dict) -> list[str]:
    params = doc.get("params", {})
    fit = doc.get("fit", {})
    problems = []
    for name, expect, tol in (
        ("E", PLANTED_E, E_TOL),
        ("alpha", PLANTED_ALPHA, EXPONENT_TOL),
        ("beta", PLANTED_BETA, EXPONENT_TOL),
    ):
        value = params.get(name)
        if not isinstance(value, float) or abs(value - expect) > tol:
            problems.append(f"{name} {value} not within {tol} of planted {expect}")
    r2 = fit.get("r_squared")
    if not isinstance(r2, float) or r2 < MIN_R_SQUARED:
        problems.append(f"r_squared {r2} below {MIN_R_SQUARED}")
    return problems


fit_law_gate = json_gate(_fit_law_check)


def _fit_bopt_check(min_vertices: int) -> Callable[[Outcome], list[str]]:
    def check(doc: dict) -> list[str]:
        problems = []
        law = doc.get("bopt", {})
        if not all(isinstance(law.get(k), float) and math.isfinite(law[k]) for k in ("k", "p")):
            problems.append(f"B_opt law not finite: {law}")
        if len(doc.get("vertices", ())) < min_vertices:
            problems.append(f"{len(doc.get('vertices', ()))} contour vertices, expected >= {min_vertices}")
        return problems

    return json_gate(check)


def _fit_lr_check(doc: dict) -> list[str]:
    block = doc.get("lr_law", {})
    gamma = block.get("gamma")
    problems = []
    if not isinstance(gamma, float) or not math.isfinite(gamma):
        problems.append(f"gamma {gamma} not finite")
    if not isinstance(block.get("n_fit"), int) or block["n_fit"] < 4:
        problems.append(f"n_fit {block.get('n_fit')} < 4")
    return problems


fit_lr_gate = json_gate(_fit_lr_check)


def _contour_export_gate(o: Outcome) -> list[str]:
    if o.code != 0:
        return [f"exit {o.code}"]
    return [] if o.out.startswith("wrote ") and " 0 rows" not in o.out else ["no rows written"]


# advise prints "    model size N: 4.36295e+09 params", one field a line
_ADVISE_FIELDS = {
    "model size N": "N", "tokens D": "D", "steps S": "S", "batch size B": "B", "compute C": "C",
}


def _parse_advice(o: Outcome, as_json: bool) -> tuple[dict | None, list[str]]:
    if as_json:
        return _json_doc(o)
    if o.code != 0:
        return None, [f"exit {o.code}"]
    rec = {}
    for line in o.out.splitlines():
        label, sep, rest = line.partition(":")
        if sep and label.strip() in _ADVISE_FIELDS:
            rec[_ADVISE_FIELDS[label.strip()]] = float(rest.split()[0])
    return rec, []


def advise_gate(as_json: bool, expect: dict | None = None) -> Callable[[Outcome], list[str]]:
    """C = 6ND within 1%, D = S*B within one batch, plus optional anchors."""
    slack = 0.0 if as_json else PRINT_REL

    def gate(o: Outcome) -> list[str]:
        rec, problems = _parse_advice(o, as_json)
        if rec is None:
            return problems
        n, d, s, b, c = (rec.get(k) for k in ("N", "D", "S", "B", "C"))
        if not all(isinstance(v, (int, float)) and v > 0 for v in (d, s, b)):
            return [f"missing D/S/B in {rec}"]
        if abs(d - s * b) > b + slack * d:
            problems.append(f"D {d:g} != S*B {s * b:g} within one batch")
        if n is not None and c is not None and not _close(c, 6 * n * d, 0.01):
            problems.append(f"C {c:g} != 6ND {6 * n * d:g} within 1%")
        for key, (value, rel) in (expect or {}).items():
            if not _close(rec.get(key), value, rel):
                problems.append(f"{key} {rec.get(key)} not within {rel:.0%} of {value:g}")
        return problems

    return gate


# ---------------------------------------------------------------------------
# sweep configs


def _sweep_config(models, batch_sizes, schemes, lr_factors, tokens, points) -> dict:
    return {
        "sweep": {
            "models": [{"n_params": n, "label": label} for n, label in models],
            "batch_sizes": list(batch_sizes),
            "schemes": list(schemes),
            "lr_factors": list(lr_factors),
            "base_batch": 5e5,
            "base_lr": 4.4e-4,
            "tokens_per_run": tokens,
            "points_per_run": points,
        }
    }


MODELS = [(1.25e8, "125M"), (3.5e8, "350M"), (7.6e8, "760M"), (1.3e9, "1.3B"), (2.6e9, "2.6B")]
BATCHES = [5e5, 1e6, 2e6, 4e6, 8e6, 1.6e7, 3.2e7]


def _simulate_runs(config: dict) -> int:
    sweep = config["sweep"]
    return (
        len(sweep["models"]) * len(sweep["batch_sizes"])
        * len(sweep["schemes"]) * len(sweep["lr_factors"])
    )


# ---------------------------------------------------------------------------
# plans


def sweep_plan(seed: int, size: Size, d: Path) -> Plan:
    lr_config = _sweep_config(
        [(3.5e8, "350M")], BATCHES[:6], ["origin"],
        [0.25 * 2 ** (4 * i / 5) for i in range(6)], 2e10, size.lr_points,
    )
    runs, lr_runs, laws = str(d / "runs.jsonl"), str(d / "lr_runs.jsonl"), str(d / "laws.json")
    base = ["--batch", "5e5", "--only-scheme", "origin"]
    steps = [
        Step(["simulate", "--out", runs, "--seed", str(seed),
              "--points-per-run", str(size.sweep_points), "--json"],
             expect_runs(105)),
        Step(["ingest", "--runs", runs, "--json"], expect_runs(105)),
        Step(["fit-bopt", "--runs", runs, "--laws", laws, "--model-size", "1.25e8",
              "--policy", "fixed_scheme", "--scheme", "linear", "--levels", SWEEP_LEVELS,
              "--s-floor", BOPT_S_FLOOR, "--json"],
             _fit_bopt_check(8)),
        Step(["export-plot", "--runs", runs, "--kind", "contour", "--model-size", "1.25e8",
              "--out", str(d / "contour.csv")],
             _contour_export_gate,
             known_defect="export-plot --kind contour without --levels: bslaw never "
             "imports has_divergence (ROADMAP item 0)",
             known_marker="NameError: name 'has_divergence' is not defined"),
        Step(["frontier", "--runs", runs, "--laws", laws, *base, "--json"],
             frontier_gate),
        Step(["fit-law", "--runs", runs, "--laws", laws, "--constrain", "frontier",
              *base, "--json"], fit_law_gate),
        Step(["simulate", "--config", str(d / "lr_sweep.json"), "--out", lr_runs,
              "--seed", str(seed), "--json"], expect_runs(_simulate_runs(lr_config))),
        Step(["fit-lr", "--runs", lr_runs, "--laws", laws,
              "--checkpoint-tokens", LR_CHECKPOINT_TOKENS, "--json"], fit_lr_gate),
        Step(["advise", "--compute", "1e21", "--laws", laws], advise_gate(False)),
        Step(["advise", "--data", "2e10", "--laws", laws, "--json"], advise_gate(True)),
    ]
    return Plan(steps, configs={"lr_sweep.json": lr_config})


def long_curves_plan(seed: int, size: Size, d: Path) -> Plan:
    model_config = _sweep_config(MODELS, [5e5], ["origin"], [1.0], size.long_tokens, size.long_points)
    batch_config = _sweep_config(MODELS[:1], BATCHES, ["linear"], [1.0], size.long_tokens, size.long_points)
    model_runs, batch_runs = str(d / "model_runs.jsonl"), str(d / "batch_runs.jsonl")
    laws = str(d / "laws.json")
    steps = []
    for name, runs, config in (
        ("model_sweep.json", model_runs, model_config),
        ("batch_sweep.json", batch_runs, batch_config),
    ):
        steps.append(Step(["simulate", "--config", str(d / name), "--out", runs,
                           "--seed", str(seed), "--json"],
                          expect_runs(_simulate_runs(config))))
    steps += [
        Step(["ingest", "--runs", model_runs, "--json"], expect_runs(_simulate_runs(model_config))),
        Step(["ingest", "--runs", batch_runs, "--json"], expect_runs(_simulate_runs(batch_config))),
        Step(["frontier", "--runs", model_runs, "--laws", laws, "--json"], frontier_gate),
        Step(["fit-bopt", "--runs", batch_runs, "--laws", laws, "--levels", LONG_LEVELS,
              "--s-floor", BOPT_S_FLOOR, "--json"], _fit_bopt_check(4)),
    ]
    return Plan(steps, configs={"model_sweep.json": model_config, "batch_sweep.json": batch_config})


def _log_budgets(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """n budgets, one per log-spaced bin of [lo, hi], jittered inside the bin."""
    width = (math.log10(hi) - math.log10(lo)) / max(n, 1)
    return [float(f"{10 ** (math.log10(lo) + width * (i + rng.random())):.4g}") for i in range(n)]


def advise_queries_plan(seed: int, size: Size, d: Path) -> Plan:
    """Alternating compute/data queries; half on the packaged reference laws,
    half on the laws file set-up writes; half with --json."""
    rng = random.Random(seed)
    n = size.queries
    compute = _log_budgets(rng, 1e18, 1e26, (n + 1) // 2)
    data = _log_budgets(rng, 1e10, 1e14, n // 2)
    rng.shuffle(compute)
    rng.shuffle(data)
    laws = str(d / "laws.json")
    model_sizes = [n_params for n_params, _ in MODELS]
    steps = []
    anchored = set()
    for i in range(n):
        kind = "compute" if i % 2 == 0 else "data"
        reference = (i // 2) % 2 == 0
        as_json = (i // 4) % 2 == 0
        budget = compute.pop() if kind == "compute" else data.pop()
        argv = ["advise", f"--{kind}", f"{budget:g}", "--laws", "reference" if reference else laws]
        expect = None
        if reference and kind not in anchored:
            anchored.add(kind)
            if kind == "compute":
                argv[2], expect = f"{COMPUTE_ANCHOR:g}", COMPUTE_ANCHOR_EXPECT
            else:
                argv[2], expect = f"{DATA_ANCHOR:g}", DATA_ANCHOR_EXPECT
        if kind == "data" and (i // 2) % 4 in (1, 2):
            argv += ["--model-size", f"{rng.choice(model_sizes):g}"]
        if as_json:
            argv.append("--json")
        steps.append(Step(argv, advise_gate(as_json, expect)))
    return Plan(steps, laws_file=laws)


PLANS = {
    "sweep": sweep_plan,
    "long_curves": long_curves_plan,
    "advise_queries": advise_queries_plan,
}
