"""Benchmark set-up, run as its own process before any timed verb.

Imports ``scalelaw`` from the checkout (failing here means the checkout
cannot run the benchmark), checks that every ``*_sweep.json`` config in the
work directory loads, and, with ``--laws``, writes a laws file fitted through the
public API from a small seeded sweep.  Prints one JSON line with the
package and library versions.

    python3 perfbench/prepare.py --dir WORK [--laws WORK/laws.json --seed N --points P]
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path


def _write_laws(path: Path, seed: int, points: int) -> None:
    import scalelaw as sl
    from workloads import BATCHES, BOPT_S_FLOOR, MODELS, SWEEP_LEVELS

    truth = sl.default_ground_truth(seed=seed)

    def sweep(models, batches, scheme):
        config = sl.SynthConfig(
            models=tuple(sl.ModelSpec(n_params=n, label=label) for n, label in models),
            batch_sizes=tuple(batches),
            schemes=(scheme,),
            points_per_run=points,
        )
        return sl.simulate_grid(config, truth)

    frontier = sl.frontier_report(sweep(MODELS, BATCHES[:1], sl.LrScheme.ORIGIN))
    bopt, _ = sl.bopt_law_from_runs(
        sweep(MODELS[:1], BATCHES, sl.LrScheme.LINEAR),
        loss_levels=[float(x) for x in SWEEP_LEVELS.split(",")],
        s_floor_hint=float(BOPT_S_FLOOR),
    )
    sl.LawArtifact(
        frontier=frontier, bopt=bopt, presets=sl.Presets(), provenance="perfbench set-up"
    ).save(path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", required=True, type=Path)
    parser.add_argument("--laws", type=Path)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--points", type=int, default=100)
    args = parser.parse_args(argv)

    import numpy
    import scipy
    import scalelaw

    for config in sorted(args.dir.glob("*_sweep.json")):
        scalelaw.SynthConfig.from_dict(json.loads(config.read_text())["sweep"])
    if args.laws is not None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _write_laws(args.laws, args.seed, args.points)
    print(json.dumps({
        "scalelaw": scalelaw.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
