"""Command-line surface: ingest and simulate run logs, fit laws, advise.

Every verb reads and writes plain files (JSONL run logs, JSON law
artifacts, CSV exports) and prints a short human summary, or a single
machine-readable JSON document with --json.  Output files are written
atomically.  Exit codes: 0 success, 1 input/validation error or a closed
stdout (which prints nothing), 2 numerical failure.

This module only dispatches.  Each verb's options and handler are in its
own module of ``scalelaw._verbs``, imported when the verb parses, so a
process compiles the dispatcher and the one verb it runs.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import os
import sys
from typing import Sequence

from . import __version__
from .errors import (
    EmptyContourError,
    FitFailureError,
    GammaUndefinedError,
    InfeasibleTargetError,
    InputError,
    NumericalError,
)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose options may be added on first use.

    A verb's parser imports the verb's module the first time it parses and
    takes its options and handler from it, so building the parser imports
    no verb module and reads no layer's defaults, and a process loads only
    the verb and the layers it uses.
    """

    def __init__(self, *args, verb_module=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._verb_module = verb_module

    def parse_known_args(self, args=None, namespace=None):
        if self._verb_module is not None:
            name, self._verb_module = self._verb_module, None
            # __import__ is the import statement's path, which python -X
            # importtime reports; importlib.import_module bypasses it
            module = __import__(f"{__package__}._verbs.{name}", fromlist=["run"])
            module.add_arguments(self)
            self.set_defaults(handler=module.run)
        return super().parse_known_args(args, namespace)

    # usage problems are input errors (exit 1), not numerical failures
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# (verb, help, module of scalelaw._verbs) in the order the usage lists them
_VERBS = (
    ("ingest", "validate a JSONL run log and optionally normalize it", "ingest"),
    ("simulate", "generate a synthetic run log from a planted ground truth", "simulate"),
    ("fit-law", "fit the parametric loss law L(N, D) to a run log", "fit_law"),
    ("frontier", "extract the compute frontier and fit its power laws", "frontier"),
    ("fit-bopt", "fit the two-regime batch-size law B_opt(D) for one model size", "fit_bopt"),
    ("fit-lr", "extract LR_opt(B) from an LR sweep and fit its exponent", "fit_lr"),
    ("tradeoff", "print the iso-loss steps/data trade-off table", "tradeoff"),
    ("advise", "turn a compute or data budget into a training configuration", "advise"),
    ("export-plot", "export plot-ready CSV data", "export_plot"),
)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="scalelaw",
        description="Fit loss/batch/LR scaling laws from training-run logs "
        "and turn budgets into training configurations.",
    )
    parser.add_argument("--version", action="version", version=f"scalelaw {__version__}")
    sub = parser.add_subparsers(dest="verb", metavar="verb")
    for verb, verb_help, module in _VERBS:
        sub.add_parser(verb, help=verb_help, verb_module=module)
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
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
    except BrokenPipeError:
        # stdout's reader has gone (as in "| head"), which is no input error
        # to report; stdout now points at devnull, so the flush at exit stays
        # quiet, as the signal module's documentation recommends
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
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
