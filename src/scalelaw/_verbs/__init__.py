"""One module per CLI verb, imported by ``scalelaw.cli`` when its verb parses.

Each verb module has ``add_arguments(parser)``, which adds the verb's
options, and ``run(args)``, which does its work and prints its output.  A
process imports the one verb it runs, so it compiles the dispatcher and that
verb's module, not the options and handlers of the other verbs.  This module
holds what every verb shares: the --json flag and the output helpers.  The
helpers of the verbs that read run logs are in ``_runs``.
"""

from __future__ import annotations

import argparse
import json
from typing import Sequence

from ..errors import NumericalError


def add_json_flag(parser) -> None:
    parser.add_argument(
        "--json", action="store_true", help="print a JSON summary instead of text"
    )


def csv_floats(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one number")
    return values


def emit(args, human_lines: Sequence[str], payload: dict) -> None:
    if getattr(args, "json", False):
        try:
            text = json.dumps(payload, sort_keys=True, allow_nan=False)
        except ValueError as exc:  # NaN or infinity, which JSON has no word for
            raise NumericalError(f"the --json payload holds NaN or infinity: {exc}") from None
        print(text)
    else:
        for line in human_lines:
            print(line)


def fmt(value, precision: int = 6) -> str:
    if value is None:
        return "-"
    return f"{value:.{precision}g}"
