"""Scaling-law toolkit: fit loss laws from training-run logs, extract
compute frontiers and batch-size laws, and turn them into concrete
recommendations for model size, data, batch size, and learning rate.

``import scalelaw`` executes none of the layer modules.  Each is registered
in ``sys.modules`` by ``_lazy.lazy_import`` and runs when one of its
attributes is first read, and each public name below resolves through the
module ``__getattr__`` on first use.
"""

from ._lazy import lazy_import

__version__ = "0.1.0"

# public names by the layer module that defines them
_EXPORTS = {
    "errors": (
        "ScaleLawError",
        "InputError",
        "NumericalError",
        "ParseError",
        "ConflictError",
        "ValidationError",
        "InsufficientDataError",
        "InsufficientGridError",
        "DegenerateVarianceError",
        "PreRangeLossError",
        "UnreachableLossError",
        "InfeasibleTargetError",
        "FitFailureError",
        "EmptyEnvelopeError",
        "InsufficientFrontierError",
        "EmptyContourError",
        "NoMinimumError",
        "GammaUndefinedError",
    ),
    "laws": (
        "LrScheme",
        "scale_lr",
        "PowerLaw",
        "FrontierPoint",
        "FrontierReport",
        "ChinchillaLaw",
        "BoptLaw",
        "LrLawFit",
        "PresetRow",
        "Presets",
    ),
    "runlog": (
        "ModelSpec",
        "Curve",
        "RunRecord",
        "RunSet",
        "parse_runs",
        "read_runs",
        "serialize_runs",
        "finite_prefix",
        "has_divergence",
        "smooth_curve",
        "smooth_run",
        "tokens_at_loss",
    ),
    "lawfit": (
        "FrontierConstraint",
        "FitReport",
        "apply_constraint",
        "huber",
        "r_squared",
        "fit_loss_law",
        "samples_from_runs",
    ),
    "noisescale": (
        "NoiseParams",
        "TradeoffRow",
        "TABLE_B_RATIOS",
        "eta_opt_sgd",
        "eta_opt_adam",
        "solve_tradeoff",
        "tradeoff_table",
    ),
    "frontier": (
        "EnvelopeSample",
        "compute_envelope",
        "default_grid",
        "extract_frontier_points",
        "fit_power_law",
        "frontier_laws",
        "frontier_report",
    ),
    "bslaw": (
        "ContourPoint",
        "ContourVertex",
        "default_loss_levels",
        "iso_loss_contour",
        "fit_contour_parabola",
        "fit_bopt_law",
        "bopt_law_from_runs",
    ),
    "lrlaw": (
        "LossSurface",
        "LrSample",
        "build_surface",
        "extract_lr_opt",
        "fit_gamma",
    ),
    "synth": (
        "GroundTruth",
        "SynthConfig",
        "d_required",
        "simulate_curve",
        "simulate_grid",
        "default_ground_truth",
        "default_sweep_config",
    ),
    "advisor": (
        "Recommendation",
        "advise_compute",
        "advise_data",
    ),
    "artifact": (
        "LawArtifact",
        "reference_artifact",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

for _module in _EXPORTS:
    globals()[_module] = lazy_import(f"{__name__}.{_module}")
del _module

__all__ = [*_OWNER, "__version__"]


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(globals()[_OWNER[name]], name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_OWNER})
