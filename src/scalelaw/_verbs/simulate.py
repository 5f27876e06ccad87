"""`scalelaw simulate`: generate a synthetic run log from a planted ground truth."""

from __future__ import annotations

import os
from pathlib import Path

from .. import laws, runlog, synth
from .._record import replace
from ..errors import ParseError, ValidationError
from . import add_json_flag, emit

SEED_ENV_VAR = "SCALELAW_SEED"


def add_arguments(p) -> None:
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
    add_json_flag(p)


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


def run(args) -> None:
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
    emit(args, [f"simulated {count} runs (seed {seed}) -> {args.out}"], {
        "verb": "simulate",
        "runs": count,
        "seed": seed,
        "out": args.out,
    })
