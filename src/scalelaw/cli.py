"""Command-line surface: ingest and simulate run logs, fit laws, advise.

Every verb reads and writes plain files (JSONL run logs, JSON law
artifacts, CSV exports) and prints a short human summary, or a single
machine-readable JSON document with --json.  Output files are written
atomically.  Exit codes: 0 success, 1 input/validation error, 2 numerical
failure.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import io
import json
import math
import os
import sys
from pathlib import Path
from typing import Sequence

from . import (
    __version__,
    advisor,
    artifact,
    bslaw,
    frontier,
    lawfit,
    laws,
    lrlaw,
    noisescale,
    runlog,
    synth,
)
from ._atomic import write_atomic
from ._record import asdict, replace
from .errors import (
    EmptyContourError,
    FitFailureError,
    GammaUndefinedError,
    InfeasibleTargetError,
    InputError,
    NumericalError,
    ParseError,
    ValidationError,
)

SEED_ENV_VAR = "SCALELAW_SEED"


class _Parser(argparse.ArgumentParser):
    """An argument parser whose options may be added on first use.

    A verb's parser gets its options from add_arguments the first time it
    parses, so building the parser reads no layer's defaults and a verb
    loads only the layers it uses.
    """

    def __init__(self, *args, add_arguments=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._add_arguments = add_arguments

    def parse_known_args(self, args=None, namespace=None):
        if self._add_arguments is not None:
            add_arguments, self._add_arguments = self._add_arguments, None
            add_arguments(self)
        return super().parse_known_args(args, namespace)

    # usage problems are input errors (exit 1), not numerical failures
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _write_csv(path: str | Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    import csv  # only the verbs that write CSV files pay for it

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    write_atomic(path, [buf.getvalue()])


def _load_laws(spec: str) -> artifact.LawArtifact:
    if spec == "reference":
        return artifact.reference_artifact()
    return artifact.LawArtifact.load(spec)


def _update_laws(path: str, **blocks) -> None:
    """Replace blocks of the artifact at path, creating it if absent."""
    target = Path(path)
    if target.exists():
        doc = artifact.LawArtifact.load(target)
    else:
        doc = artifact.LawArtifact(presets=laws.Presets(), provenance=f"scalelaw {__version__}")
    replace(doc, **blocks).save(target)


def _filter_runs(runset, model_size=None, batch=None, scheme=None):
    def keep(run) -> bool:
        if model_size is not None and not math.isclose(
            run.model.n_params, model_size, rel_tol=1e-6
        ):
            return False
        if batch is not None and not math.isclose(
            run.batch_size_tokens, batch, rel_tol=1e-6
        ):
            return False
        if scheme is not None and run.lr_scheme != scheme:
            return False
        return True

    ids = [run.run_id for run in runset if keep(run)]
    if not ids:
        raise ValidationError("no runs match the requested filters")
    if len(ids) == len(runset):
        return runset
    return runset.subset(ids)


def _filtered_runs(args):
    scheme = laws.LrScheme(args.only_scheme) if getattr(args, "only_scheme", None) else None
    return _filter_runs(
        runlog.read_runs(args.runs),
        model_size=getattr(args, "model_size", None),
        batch=getattr(args, "batch", None),
        scheme=scheme,
    )


def _csv_floats(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one number")
    return values


def _emit(args, human_lines: Sequence[str], payload: dict) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _fmt(value, precision: int = 6) -> str:
    if value is None:
        return "-"
    return f"{value:.{precision}g}"


# ---------------------------------------------------------------------------
# verb handlers


def _cmd_ingest(args) -> None:
    runset = runlog.read_runs(args.runs, strict=not args.lenient)
    if args.out:
        runlog.write_runs(args.out, runset)
    models = runset.model_sizes()
    batches = sorted({run.batch_size_tokens for run in runset})
    n_points = sum(len(run.points) for run in runset)
    lines = [
        f"{len(runset)} runs, {len(models)} model sizes, {n_points} curve points",
        "model sizes: " + ", ".join(f"{m:g}" for m in models),
        "batch sizes: " + ", ".join(f"{b:g}" for b in batches),
    ]
    if runset.rejected:
        lines.append(f"rejected {len(runset.rejected)} lines:")
        lines.extend(f"  line {line_no}: {msg}" for line_no, msg in runset.rejected[:5])
        if len(runset.rejected) > 5:
            lines.append(f"  ... and {len(runset.rejected) - 5} more")
    if args.out:
        lines.append(f"wrote normalized runs to {args.out}")
    _emit(args, lines, {
        "verb": "ingest",
        "runs": len(runset),
        "model_sizes": models,
        "batch_sizes": batches,
        "points": n_points,
        "rejected": [[line_no, msg] for line_no, msg in runset.rejected],
        "out": args.out,
    })


def _resolve_seed(args, config_seed: int) -> int:
    seed = config_seed
    if args.seed is not None:
        seed = args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise ValidationError(f"{SEED_ENV_VAR} must be an integer, got {env!r}")
    return seed


def _cmd_simulate(args) -> None:
    if args.config:
        doc = laws.decode_json(Path(args.config).read_text(), f"{args.config}: ")
        if not isinstance(doc, dict):
            raise ParseError(f"{args.config}: config must be a JSON object")
        truth = (
            synth.GroundTruth.from_dict(doc["ground_truth"])
            if "ground_truth" in doc
            else synth.default_ground_truth()
        )
        sweep = (
            synth.SynthConfig.from_dict(doc["sweep"])
            if "sweep" in doc
            else synth.default_sweep_config()
        )
    else:
        truth = synth.default_ground_truth()
        sweep = synth.default_sweep_config()
    if args.tokens_per_run is not None:
        sweep = replace(sweep, tokens_per_run=args.tokens_per_run)
    if args.points_per_run is not None:
        sweep = replace(sweep, points_per_run=args.points_per_run)
    seed = _resolve_seed(args, truth.seed)
    if seed != truth.seed:
        truth = replace(truth, seed=seed)
    count = runlog.write_runs(args.out, synth.iter_grid(sweep, truth))
    _emit(args, [f"simulated {count} runs (seed {seed}) -> {args.out}"], {
        "verb": "simulate",
        "runs": count,
        "seed": seed,
        "out": args.out,
    })


def _constraint_from_artifact(laws_path: str) -> lawfit.FrontierConstraint:
    target = Path(laws_path)
    doc = artifact.LawArtifact.load(target) if target.exists() else None
    if doc is None or doc.frontier is None:
        raise ValidationError(
            "--constrain frontier needs a laws file with a frontier block; "
            "run the frontier verb first"
        )
    return lawfit.FrontierConstraint(
        a=doc.frontier.N_opt.p,
        b=doc.frontier.D_opt.p,
        p=doc.frontier.N_opt.k,
        q=doc.frontier.D_opt.k,
    )


def _cmd_fit_law(args) -> None:
    runset = _filtered_runs(args)
    samples = lawfit.samples_from_runs(runset, smooth=not args.raw)
    constraint = None
    if args.constrain is not None:
        if args.constrain == "frontier":
            constraint = _constraint_from_artifact(args.laws)
        else:
            try:
                parts = [float(v) for v in args.constrain.split(",")]
            except ValueError:
                parts = []
            if len(parts) != 4:
                raise ValidationError(
                    "--constrain takes 'frontier' or four numbers 'a,b,p,q', "
                    f"got {args.constrain!r}"
                )
            constraint = lawfit.FrontierConstraint(*parts)
    report = lawfit.fit_loss_law(samples, constraint=constraint, delta=args.delta)
    _update_laws(args.laws, loss_law=report.law, loss_fit=report.to_dict())
    law = report.law
    lines = [
        f"loss law: {law.E:.6g} + {law.A:.6g}/N^{law.alpha:.6g}"
        f" + {law.Bcoef:.6g}/D^{law.beta:.6g}",
        f"r_squared (log space): {report.r_squared:.6g}"
        f" on {report.n_points} samples (huber delta {report.huber_delta:g})",
    ]
    if constraint is not None:
        lines.append(
            f"constrained: alpha/beta tied to b/a = {constraint.b:g}/{constraint.a:g}"
        )
    lines.append(f"updated {args.laws}")
    _emit(args, lines, {
        "verb": "fit-law",
        "params": law.to_dict(),
        "fit": report.to_dict(),
        "laws": args.laws,
    })


def _cmd_frontier(args) -> None:
    runset = _filtered_runs(args)
    report = frontier.frontier_report(runset)
    _update_laws(args.laws, frontier=report)
    lines = []
    for name in ("L_opt", "N_opt", "D_opt", "S_opt", "B_opt"):
        law = getattr(report, name)
        lines.append(
            f"{name}(C) = {law.k:.6g} * C^{law.p:.6g}"
            f"   (C in [{law.x_min:.3g}, {law.x_max:.3g}])"
        )
    lines.append(
        f"{len(report.points)} frontier points; identity residuals: "
        + ", ".join(f"{k} {v:.3g}" for k, v in sorted(report.consistency_residuals.items()))
    )
    if report.excluded:
        lines.append(
            "excluded model sizes: " + ", ".join(f"{m:g}" for m in report.excluded)
        )
    lines.append(f"updated {args.laws}")
    summary = report.to_dict()
    # the laws file keeps the frontier points; the summary reports only their count
    summary.pop("points", None)
    _emit(args, lines, {"verb": "frontier", **summary, "laws": args.laws})


def _contour_levels(args, runset) -> list[float]:
    if args.levels is not None:
        return args.levels
    return bslaw.default_loss_levels(runset, args.n_levels)


def _cmd_fit_bopt(args) -> None:
    runset = _filtered_runs(args)
    scheme = laws.LrScheme(args.scheme) if args.scheme else None
    law, vertices = bslaw.bopt_law_from_runs(
        runset,
        loss_levels=_contour_levels(args, runset),
        lr_policy=args.policy,
        scheme=scheme,
        s_floor_hint=args.s_floor,
    )
    _update_laws(args.laws, bopt=law)
    lines = [
        f"B_opt(D) = D/{law.s_floor:.6g} for D < {law.crossover_D:.6g}",
        (
            f"B_opt(D) = {law.k:.6g} * D^{law.p:.6g} beyond"
            if law.power_fitted
            else "no power regime fitted (all levels step-floor limited)"
        ),
        f"fitted over D in [{law.d_min:.3g}, {law.d_max:.3g}]"
        f" from {len(vertices)} contour vertices",
        f"updated {args.laws}",
    ]
    _emit(args, lines, {
        "verb": "fit-bopt",
        "bopt": law.to_dict(),
        "vertices": [asdict(v) for v in vertices],
        "laws": args.laws,
    })


def _cmd_fit_lr(args) -> None:
    runset = _filtered_runs(args)
    surface = lrlaw.build_surface(runset, args.checkpoint_tokens)
    samples = lrlaw.extract_lr_opt(surface, refinement=args.refinement)
    fit = replace(
        lrlaw.fit_gamma(samples, plateau_tolerance=args.plateau_tol),
        base_lr=surface.base_lr,
        d_checkpoint=args.checkpoint_tokens,
    )
    _update_laws(args.laws, lr_law=fit)
    lines = [f"LR_opt(B) ~ B^{fit.gamma:.4g} over {fit.n_fit} batch sizes"]
    if fit.lr_ceiling is not None:
        lines.append(
            f"ceiling {fit.lr_ceiling:.4g} from B ~ {_fmt(fit.plateau_onset_B, 4)}"
        )
    else:
        lines.append("no LR ceiling detected in the swept range")
    lines.append(f"updated {args.laws}")
    _emit(args, lines, {
        "verb": "fit-lr",
        "lr_law": fit.to_dict(),
        "samples": [
            {"B": s.B, "lr_opt": s.lr_opt, "loss": s.loss_at_opt, "boundary": s.boundary}
            for s in samples
        ],
        "laws": args.laws,
    })


def _cmd_tradeoff(args) -> None:
    ratios = args.b_ratios if args.b_ratios is not None else list(noisescale.TABLE_B_RATIOS)
    rows = noisescale.tradeoff_table(args.gamma, ratios)
    if args.csv:
        lines = ["b_ratio,e_ratio,s_ratio"]
        lines.extend(f"{r.b_ratio!r},{r.e_ratio!r},{r.s_ratio!r}" for r in rows)
    else:
        lines = [f"{'B/B_crit':>10}  {'E/E_min':>10}  {'S/S_min':>10}"]
        lines.extend(
            f"{r.b_ratio:>10.4g}  {r.e_ratio:>10.4g}  {r.s_ratio:>10.4g}" for r in rows
        )
    _emit(args, lines, {
        "verb": "tradeoff",
        "gamma": args.gamma,
        "rows": [asdict(r) for r in rows],
    })


def _cmd_advise(args) -> None:
    doc = _load_laws(args.laws)
    if args.compute is not None:
        if args.model_size is not None:
            raise ValidationError(
                "--model-size only applies to --data; a compute budget pins the model size"
            )
        if doc.frontier is None:
            raise ValidationError(
                f"{args.laws}: no frontier block; --compute needs one (run the frontier verb)"
            )
        rec = advisor.advise_compute(
            doc.frontier,
            args.compute,
            loss_law=doc.loss_law,
            presets=doc.presets,
            lr_law=doc.lr_law,
            lr_scheme=args.scheme,
        )
    else:
        if doc.bopt is None:
            raise ValidationError(
                f"{args.laws}: no batch-size law block; --data needs one (run fit-bopt)"
            )
        rec = advisor.advise_data(
            doc.bopt,
            args.data,
            n_params=args.model_size,
            loss_law=doc.loss_law,
            presets=doc.presets,
            lr_law=doc.lr_law,
            lr_scheme=args.scheme,
        )
    lines = []
    for field, value, unit in (
        ("model size N", rec.N, "params"),
        ("tokens D", rec.D, "tokens"),
        ("steps S", rec.S, "steps"),
        ("batch size B", rec.B, "tokens/step"),
        ("compute C", rec.C, "FLOPs"),
        ("peak LR", rec.LR, ""),
        ("predicted loss", rec.predicted_loss, ""),
        ("loss cross-check", rec.loss_crosscheck, ""),
    ):
        if value is None:
            continue
        lines.append(f"{field:>16}: {_fmt(value)} {unit}".rstrip())
    if rec.lr_anchor:
        lines.append(f"{'LR anchor':>16}: {rec.lr_anchor}")
    for field, msg in sorted(rec.flags.items()):
        lines.append(f"warning: {field}: {msg}")
    _emit(args, lines, {"verb": "advise", **rec.to_dict()})


def _cmd_export_plot(args) -> None:
    runset = _filtered_runs(args)
    if args.kind == "envelope":
        envelope = frontier.compute_envelope(runset)
        header = ["flops", "loss", "run_id"]
        rows = [[s.C, s.loss, s.run_id] for s in envelope]
    elif args.kind == "contour":
        levels = _contour_levels(args, runset)
        scheme = laws.LrScheme(args.scheme) if args.scheme else None
        contours = bslaw.iso_loss_contour(runset, levels, lr_policy=args.policy, scheme=scheme)
        header = ["loss_level", "batch_size_tokens", "tokens_required"]
        rows = [
            [pt.loss_level, pt.B, pt.D_required]
            for level in levels
            for pt in contours[level]
        ]
    else:
        header = ["run_id", "step", "tokens", "loss"]
        rows = []
        for run in runset:
            curve = (run if args.raw else runlog.smooth_run(run)).points
            rows.extend(
                (run.run_id, *row)
                for row in zip(curve.step.tolist(), curve.tokens.tolist(), curve.loss.tolist())
            )
    _write_csv(args.out, header, rows)
    _emit(args, [f"wrote {len(rows)} rows to {args.out}"], {
        "verb": "export-plot",
        "kind": args.kind,
        "rows": len(rows),
        "out": args.out,
    })


# ---------------------------------------------------------------------------
# parser


def _add_json_flag(parser) -> None:
    parser.add_argument(
        "--json", action="store_true", help="print a JSON summary instead of text"
    )


def _add_fit_io_flags(parser, runs_help: str = "input run log (JSONL)") -> None:
    parser.add_argument("--runs", required=True, help=runs_help)
    parser.add_argument("--laws", required=True, help="law artifact to update (created if absent)")


def _add_filter_flags(parser) -> None:
    parser.add_argument(
        "--model-size", type=float, help="keep only runs of this model size (params)"
    )
    parser.add_argument(
        "--batch", type=float, help="keep only runs with this batch size (tokens)"
    )
    parser.add_argument(
        "--only-scheme",
        choices=[s.value for s in laws.LrScheme],
        help="keep only runs trained under this LR scheme",
    )


def _add_contour_flags(parser) -> None:
    parser.add_argument(
        "--levels", type=_csv_floats, help="comma-separated iso-loss levels"
    )
    parser.add_argument(
        "--n-levels",
        type=int,
        default=bslaw.DEFAULT_N_LEVELS,
        help="number of automatic loss levels without --levels "
        f"(default {bslaw.DEFAULT_N_LEVELS})",
    )
    parser.add_argument(
        "--policy",
        choices=["best_of_schemes", "fixed_scheme"],
        default="best_of_schemes",
        help="which LR variants feed each contour",
    )
    parser.add_argument(
        "--scheme",
        choices=[s.value for s in laws.LrScheme],
        help="LR scheme to hold fixed (with --policy fixed_scheme)",
    )


def _ingest_arguments(p) -> None:
    p.add_argument("--runs", required=True, help="input run log (JSONL)")
    p.add_argument("--out", help="write a normalized copy here")
    p.add_argument(
        "--lenient",
        action="store_true",
        help="collect bad lines instead of failing on the first",
    )
    _add_json_flag(p)


def _simulate_arguments(p) -> None:
    p.add_argument(
        "--config",
        help="JSON file with 'ground_truth' and/or 'sweep' blocks "
        "(default: built-in five-model sweep)",
    )
    p.add_argument("--out", required=True, help="output run log (JSONL)")
    p.add_argument(
        "--seed",
        type=int,
        help=f"override the config seed (the {SEED_ENV_VAR} env var overrides both)",
    )
    p.add_argument(
        "--tokens-per-run", type=float, help="override the sweep's token budget per run"
    )
    p.add_argument(
        "--points-per-run", type=int, help="override the sweep's checkpoints per run"
    )
    _add_json_flag(p)


def _fit_law_arguments(p) -> None:
    _add_fit_io_flags(p)
    p.add_argument(
        "--constrain",
        help="'frontier' to tie (A, alpha) to the artifact's frontier block, "
        "or four numbers 'a,b,p,q'",
    )
    p.add_argument(
        "--delta", type=float, default=lawfit.DEFAULT_HUBER_DELTA,
        help="Huber delta on log-loss residuals",
    )
    p.add_argument(
        "--raw", action="store_true", help="fit raw curve points (skip smoothing)"
    )
    _add_filter_flags(p)
    _add_json_flag(p)


def _frontier_arguments(p) -> None:
    _add_fit_io_flags(p)
    _add_filter_flags(p)
    _add_json_flag(p)


def _fit_bopt_arguments(p) -> None:
    _add_fit_io_flags(p, runs_help="input run log (JSONL, one model size)")
    _add_contour_flags(p)
    p.add_argument(
        "--s-floor", type=float, help="known minimum useful step count, if any"
    )
    _add_filter_flags(p)
    _add_json_flag(p)


def _fit_lr_arguments(p) -> None:
    _add_fit_io_flags(p, runs_help="input run log (JSONL, one model size)")
    p.add_argument(
        "--checkpoint-tokens",
        type=float,
        required=True,
        help="token count at which curves are compared",
    )
    p.add_argument(
        "--refinement",
        type=int,
        default=lrlaw.DEFAULT_REFINEMENT,
        help="batch-grid refinement between swept batches",
    )
    p.add_argument(
        "--plateau-tol",
        type=float,
        default=lrlaw.DEFAULT_PLATEAU_TOLERANCE,
        help="relative LR variation treated as the ceiling plateau",
    )
    _add_filter_flags(p)
    _add_json_flag(p)


def _tradeoff_arguments(p) -> None:
    p.add_argument("--gamma", type=float, default=1.0, help="trade-off constant")
    p.add_argument(
        "--b-ratios",
        type=_csv_floats,
        help="comma-separated B/B_crit ratios (default: the classic seven columns)",
    )
    p.add_argument("--csv", action="store_true", help="emit CSV instead of a table")
    _add_json_flag(p)


def _advise_arguments(p) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--compute", type=float, help="compute budget in FLOPs")
    group.add_argument("--data", type=float, help="token budget")
    p.add_argument(
        "--model-size", type=float, help="model size in params (with --data only)"
    )
    p.add_argument(
        "--laws",
        default="reference",
        help="law artifact path, or 'reference' for the built-in published constants",
    )
    p.add_argument(
        "--scheme",
        choices=["linear", "sqrt", "none"],
        default="linear",
        help="LR scaling rule used to move the preset LR to the advised batch",
    )
    _add_json_flag(p)


def _export_plot_arguments(p) -> None:
    p.add_argument("--runs", required=True, help="input run log (JSONL)")
    p.add_argument(
        "--kind",
        required=True,
        choices=["envelope", "contour", "curves"],
        help="envelope: loss vs FLOPs lower envelope; contour: iso-loss "
        "batch/token contours; curves: per-run loss curves",
    )
    p.add_argument("--out", required=True, help="output CSV path")
    _add_contour_flags(p)
    p.add_argument(
        "--raw", action="store_true", help="curves: export unsmoothed points"
    )
    _add_filter_flags(p)
    _add_json_flag(p)


# (verb, help, options, handler) in the order the usage lists them
_VERBS = (
    ("ingest", "validate a JSONL run log and optionally normalize it",
     _ingest_arguments, _cmd_ingest),
    ("simulate", "generate a synthetic run log from a planted ground truth",
     _simulate_arguments, _cmd_simulate),
    ("fit-law", "fit the parametric loss law L(N, D) to a run log",
     _fit_law_arguments, _cmd_fit_law),
    ("frontier", "extract the compute frontier and fit its power laws",
     _frontier_arguments, _cmd_frontier),
    ("fit-bopt", "fit the two-regime batch-size law B_opt(D) for one model size",
     _fit_bopt_arguments, _cmd_fit_bopt),
    ("fit-lr", "extract LR_opt(B) from an LR sweep and fit its exponent",
     _fit_lr_arguments, _cmd_fit_lr),
    ("tradeoff", "print the iso-loss steps/data trade-off table",
     _tradeoff_arguments, _cmd_tradeoff),
    ("advise", "turn a compute or data budget into a training configuration",
     _advise_arguments, _cmd_advise),
    ("export-plot", "export plot-ready CSV data", _export_plot_arguments, _cmd_export_plot),
)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="scalelaw",
        description="Fit loss/batch/LR scaling laws from training-run logs "
        "and turn budgets into training configurations.",
    )
    parser.add_argument("--version", action="version", version=f"scalelaw {__version__}")
    sub = parser.add_subparsers(dest="verb", metavar="verb")
    for verb, verb_help, add_arguments, handler in _VERBS:
        p = sub.add_parser(verb, help=verb_help, add_arguments=add_arguments)
        p.set_defaults(handler=handler)
    return parser


def _report_failure(args, exc: Exception, code: int) -> int:
    detail: dict = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, FitFailureError) and exc.best_partial is not None:
        detail["best_partial"] = {
            "params": exc.best_partial.law.to_dict(),
            "fit": exc.best_partial.to_dict(),
        }
    if isinstance(exc, GammaUndefinedError) and exc.lr_ceiling is not None:
        detail["lr_ceiling"] = exc.lr_ceiling
    if isinstance(exc, InfeasibleTargetError) and exc.floor is not None:
        detail["floor"] = exc.floor
    if isinstance(exc, EmptyContourError) and exc.level is not None:
        detail["level"] = exc.level
    print(f"scalelaw: error: {detail['error']}: {detail['message']}", file=sys.stderr)
    if getattr(args, "json", False):
        print(json.dumps(detail, sort_keys=True))
    return code


def main(argv: Sequence[str] | None = None) -> int:
    # A verb is one short process, and the cyclic collector only frees
    # memory that the process returns at exit anyway: its passes while
    # numpy and the layers load, and its full passes over every live object
    # at shutdown.  So pause it for the verb, and freeze what is alive at
    # exit (atexit handlers run before module teardown) so that the shutdown
    # passes skip it.  Safe because every output file is written and closed
    # before main returns, and no object here needs a finalizer in a cycle.
    atexit.unregister(gc.freeze)  # one handler a process, however many calls
    atexit.register(gc.freeze)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv: Sequence[str] | None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = getattr(args, "handler", None)
    if handler is None:
        parser.print_usage(sys.stderr)
        print(f"{parser.prog}: error: a command is required", file=sys.stderr)
        return 1
    try:
        handler(args)
    except InputError as exc:
        return _report_failure(args, exc, 1)
    except NumericalError as exc:
        return _report_failure(args, exc, 2)
    # an unreadable file, or a laws file or config that is not UTF-8
    except (OSError, UnicodeDecodeError) as exc:
        return _report_failure(args, exc, 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
