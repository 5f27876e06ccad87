import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalelaw import (
    BoptLaw,
    ChinchillaLaw,
    LawArtifact,
    LrLawFit,
    LrScheme,
    PowerLaw,
    PresetRow,
    Presets,
    ValidationError,
    advise_compute,
    advise_data,
    bopt_law_from_runs,
    frontier_report,
    reference_artifact,
    scale_lr,
)

CEILING_LAW = LrLawFit(gamma=0.875, lr_ceiling=2.4e-3, plateau_onset_B=6e6, n_fit=0)


# ---------------------------------------------------------------------------
# compute budget


def test_compute_70b_anchor(reference):
    rec = advise_compute(reference.frontier, 3.2e24)
    assert rec.N == pytest.approx(7.0e10, rel=0.05)
    assert rec.D == pytest.approx(7.7e12, rel=0.05)


def test_compute_table_baseline_anchor(reference, ref_law):
    rec = advise_compute(reference.frontier, 8.16e21, loss_law=ref_law)
    assert rec.N == pytest.approx(4.36e9, rel=0.01)
    assert rec.D == pytest.approx(3.1178e11, rel=0.01)
    assert rec.B == pytest.approx(1.10e6, rel=0.01)
    # forecast comes from the frontier loss law, sanity-checked parametrically
    assert rec.predicted_loss == pytest.approx(23.00 * 8.16e21**-0.050, rel=1e-9)
    assert rec.loss_crosscheck == pytest.approx(ref_law.eval(rec.N, rec.D), rel=1e-12)
    assert 0.9 < rec.loss_crosscheck / rec.predicted_loss < 1.1


def test_compute_identities_exact(reference):
    for c in (1e18, 1e20, 1e22, 1e24, 1e26):
        rec = advise_compute(reference.frontier, c)
        assert 6.0 * rec.N * rec.D == pytest.approx(c, rel=1e-12)
        assert rec.S * rec.B == pytest.approx(rec.D, rel=1e-12)


def test_compute_batch_validity_floor(reference):
    clean = advise_compute(reference.frontier, 5e18)
    assert clean.B == pytest.approx(5e5, rel=0.05)
    assert "B" not in clean.flags

    low = advise_compute(reference.frontier, 1e18)
    assert "validity floor" in low.flags["B"]


def test_compute_flags_range_extrapolation(reference):
    rec = advise_compute(reference.frontier, 8.16e21)  # above the fitted 5e21
    assert "N" in rec.flags and "S" in rec.flags
    assert "outside the fitted range" in rec.flags["B"]


def test_compute_lr_anchoring(reference):
    rec = advise_compute(reference.frontier, 8.16e21)
    # nearest preset to 4.36e9 is the largest table row
    assert "2.6B" in rec.lr_anchor
    assert rec.LR == pytest.approx(scale_lr(1.6e-4, 1e6, rec.B, "linear"), rel=1e-12)
    assert rec.provenance["LR"] == rec.lr_anchor
    for field in ("N", "D", "S", "B", "predicted_loss"):
        assert field in rec.provenance


def test_compute_validation(reference):
    with pytest.raises(ValidationError):
        advise_compute(reference.frontier, 0.0)


# ---------------------------------------------------------------------------
# data budget


def test_data_table_row_anchor(reference, ref_law):
    presets = Presets(rows=Presets().rows + (PresetRow(6.8e9, "6.8B", 2e6, 1.2e-4, 350, 300000),))
    rec = advise_data(
        reference.bopt, 2e11, n_params=6.8e9, loss_law=ref_law, presets=presets
    )
    assert rec.B == pytest.approx(3.12e6, rel=0.01)
    assert rec.LR == pytest.approx(1.8e-4, rel=0.05)
    assert rec.S == pytest.approx(2e11 / rec.B, rel=1e-12)
    assert rec.predicted_loss == pytest.approx(ref_law.eval(6.8e9, 2e11), rel=1e-12)
    assert rec.C == pytest.approx(6.0 * 6.8e9 * 2e11, rel=1e-12)


def test_data_published_batch_points(reference):
    assert advise_data(reference.bopt, 1e12).B == pytest.approx(4.7e6, rel=0.02)
    assert advise_data(reference.bopt, 1e13).B == pytest.approx(8.7e6, rel=0.02)


def test_data_tiny_budget_hits_step_floor(reference):
    rec = advise_data(reference.bopt, 1e7)
    assert rec.B == pytest.approx(1e7 / 4000.0, rel=1e-12)
    assert rec.S == pytest.approx(4000.0, rel=1e-12)
    assert "linear regime" in rec.provenance["B"]
    assert "outside the fitted range" in rec.flags["B"]


def test_data_monotone_in_budget(reference):
    bs = [advise_data(reference.bopt, d).B for d in (10 ** e for e in range(6, 15))]
    assert bs == sorted(bs)


def test_data_without_model_size_skips_lr(reference):
    rec = advise_data(reference.bopt, 1e12)
    assert rec.LR is None
    assert rec.N is None
    assert rec.C is None
    assert "no model size" in rec.flags["LR"]


def test_data_lr_capped_at_ceiling(reference):
    rec = advise_data(reference.bopt, 1e12, n_params=1.25e8, lr_law=CEILING_LAW)
    # linear scaling from the 125M preset (6e-4 at 0.5M) would give ~5.7e-3
    assert rec.LR == 2.4e-3
    assert "capped" in rec.flags["LR"]
    assert "ceiling" in rec.lr_anchor


def test_data_sqrt_scheme(reference):
    rec = advise_data(reference.bopt, 1e12, n_params=1.25e8, lr_scheme="sqrt")
    assert rec.LR == pytest.approx(scale_lr(6.0e-4, 5e5, rec.B, "sqrt"), rel=1e-12)


def test_data_validation(reference):
    with pytest.raises(ValidationError):
        advise_data(reference.bopt, -1e12)


@pytest.mark.parametrize("n_params", [math.nan, math.inf, -math.inf, 0.0])
def test_data_rejects_bad_model_size(reference, ref_law, n_params):
    with pytest.raises(ValidationError, match="n_params must be positive and finite"):
        advise_data(reference.bopt, 1e12, n_params=n_params, loss_law=ref_law)


def test_recommendation_to_dict(reference):
    doc = advise_data(reference.bopt, 1e12, n_params=2.6e9).to_dict()
    for key in ("N", "D", "S", "B", "LR", "provenance", "flags"):
        assert key in doc
    assert doc["provenance"]["S"] == "D/B identity"


# ---------------------------------------------------------------------------
# budget identities of every finite positive budget

BUDGETS = st.floats(min_value=0.0, max_value=sys.float_info.max, exclude_min=True)
BAD_BUDGETS = st.sampled_from([math.nan, math.inf]) | st.floats(max_value=0.0)


@pytest.fixture(scope="module")
def law_sets(reference, master_runs, tmp_path_factory):
    """The reference laws, and laws fitted from the simulated sweep and read
    back from a laws file."""
    base_runs = master_runs.subset(
        f"{label}-0.5M-origin-x1" for label in ("125M", "350M", "760M", "1.3B", "2.6B")
    )
    linear_runs = master_runs.subset(
        f"125M-{batch / 1e6:g}M-linear-x1" for batch in (0.5e6, 1e6, 2e6, 4e6, 8e6, 1.6e7, 3.2e7)
    )
    with pytest.warns(UserWarning):
        frontier = frontier_report(base_runs, smooth=False)
        bopt, _ = bopt_law_from_runs(
            linear_runs,
            loss_levels=np.linspace(2.56, 3.40, 16),
            lr_policy="fixed_scheme",
            scheme=LrScheme.LINEAR,
            s_floor_hint=1500.0,
            discard_fraction=0.0,
        )
    path = tmp_path_factory.mktemp("fitted") / "laws.json"
    LawArtifact(frontier=frontier, bopt=bopt, presets=Presets()).save(path)
    return {"reference": reference, "fitted": LawArtifact.load(path)}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(laws=st.sampled_from(["reference", "fitted"]), budget=BUDGETS, n_params=BUDGETS)
def test_advise_identities_hold_for_every_budget(law_sets, laws, budget, n_params):
    artifact = law_sets[laws]
    rec = advise_compute(artifact.frontier, budget, loss_law=artifact.loss_law)
    # ratios first, so that the products cannot overflow near the float maximum
    assert 6.0 * rec.N * (rec.D / budget) == pytest.approx(1.0, rel=1e-12)
    assert rec.S * (rec.B / rec.D) == pytest.approx(1.0, rel=1e-12)

    def advise():
        return advise_data(artifact.bopt, budget, n_params=n_params, loss_law=artifact.loss_law)

    # a budget whose compute C = 6*N*D overflows a float is refused
    if not math.isfinite(6 * n_params * budget):
        with pytest.raises(ValidationError, match="overflows"):
            advise()
        return
    # so is one whose compute, or whose advised batch, underflows to a
    # subnormal or zero
    if 6 * n_params * budget < sys.float_info.min or (
        artifact.bopt.eval(budget) < sys.float_info.min
    ):
        with pytest.raises(ValidationError, match="underflows"):
            advise()
        return
    rec = advise()
    assert rec.S * (rec.B / budget) == pytest.approx(1.0, rel=1e-12)
    assert rec.C == 6 * n_params * budget
    assert rec.C >= sys.float_info.min


@settings(max_examples=100, deadline=None, derandomize=True)
@given(laws=st.sampled_from(["reference", "fitted"]), budget=BAD_BUDGETS)
def test_advise_rejects_non_finite_and_non_positive_budgets(law_sets, laws, budget):
    artifact = law_sets[laws]
    with pytest.raises(ValidationError, match="^C must be positive and finite, got "):
        advise_compute(artifact.frontier, budget)
    with pytest.raises(ValidationError, match="^D must be positive and finite, got "):
        advise_data(artifact.bopt, budget)


# ---------------------------------------------------------------------------
# presets


def test_preset_lookup_table_rows():
    row = Presets().lookup(1.25e8)
    assert (row.batch_size, row.max_lr) == (5e5, 6.0e-4)
    assert (row.warmup_steps, row.decay_steps) == (715, 500000)
    row = Presets().lookup(2.6e9)
    assert (row.batch_size, row.max_lr) == (1e6, 1.6e-4)
    assert (row.warmup_steps, row.decay_steps) == (350, 300000)


def test_preset_lookup_log_nearest():
    # 7e8 sits between 350M and 1.3B linearly but nearest 760M in log space
    assert Presets().lookup(7e8).label == "760M"
    assert Presets().lookup(1e10).label == "2.6B"
    assert Presets().lookup(1e6).label == "125M"


def test_preset_table_is_extensible():
    presets = Presets(rows=Presets().rows + (PresetRow(1.3e10, "13B", 2e6, 1.0e-4, 350, 300000),))
    assert presets.lookup(1.2e10).label == "13B"
    assert len(Presets().rows) == 5


def test_preset_validation():
    with pytest.raises(ValidationError, match="empty"):
        Presets(rows=())
    with pytest.raises(ValidationError, match="positive"):
        PresetRow(1e8, "bad", -5e5, 6e-4, 715, 500000)
    for n_params in (0.0, math.nan, math.inf):
        with pytest.raises(ValidationError):
            Presets().lookup(n_params)


def test_preset_dict_round_trip():
    presets = Presets()
    assert Presets.from_dict(presets.to_dict()) == presets


# ---------------------------------------------------------------------------
# scalar laws: plain floats skip numpy and agree with the array path

_REF = reference_artifact()
_BOPT = _REF.bopt
POSITIVE = BUDGETS | st.integers(min_value=1, max_value=10**30)
NON_POSITIVE = st.floats(max_value=0.0) | st.integers(min_value=-(10**30), max_value=0)

# name -> (law call, strategy of its argument tuples)
SCALAR_LAWS = {
    "power_law_rising": (_REF.frontier.N_opt, st.tuples(POSITIVE)),
    "power_law_falling": (_REF.frontier.L_opt, st.tuples(POSITIVE)),
    "bopt_linear_regime": (
        _BOPT.eval,
        st.tuples(st.floats(min_value=sys.float_info.min, max_value=_BOPT.crossover_D)),
    ),
    "bopt_power_regime": (
        _BOPT.eval,
        st.tuples(st.floats(min_value=_BOPT.crossover_D, max_value=sys.float_info.max)),
    ),
    "chinchilla": (_REF.loss_law.eval, st.tuples(POSITIVE, POSITIVE)),
}


def _outcome(call, args):
    """What a law call gives: its value as a float, or its exception class
    and message."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        try:
            return float(np.ravel(call(*args))[0])
        except Exception as exc:
            return type(exc), str(exc)


def _as_arrays(args):
    return [np.array([arg], dtype=float) for arg in args]


@pytest.mark.parametrize("name", sorted(SCALAR_LAWS))
@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_scalar_law_matches_array_path(name, data):
    call, arguments = SCALAR_LAWS[name]
    args = data.draw(arguments)
    scalar = call(*args)
    assert type(scalar) is float
    assert scalar == pytest.approx(call(*_as_arrays(args))[0], rel=1e-15, abs=0.0)


@pytest.mark.parametrize("name", sorted(SCALAR_LAWS))
@settings(max_examples=50, deadline=None, derandomize=True)
@given(data=st.data())
def test_scalar_law_fails_like_array_path_on_non_positive_input(name, data):
    call, arguments = SCALAR_LAWS[name]
    args = list(data.draw(arguments))
    args[data.draw(st.integers(0, len(args) - 1))] = data.draw(NON_POSITIVE)
    scalar, array = _outcome(call, args), _outcome(call, _as_arrays(args))
    # a power law raises nothing there: both paths return the same nan, inf or 0
    assert repr(scalar) == repr(array)
    if not name.startswith("power_law"):
        assert scalar[0] is ValidationError


_TOO_BIG = (OverflowError, "int too large to convert to float")


@pytest.mark.parametrize(
    "call, args, expected",
    [
        (PowerLaw(1.0, 2.0, 1.0, 10.0), [1e300], math.inf),
        (PowerLaw(1.0, 2.0, 1.0, 10.0), [10**400], _TOO_BIG),
        (BoptLaw(1.0, 2.0, 1.0, 1.0, 1.0, 10.0).eval, [1e300], 1e300),
        (ChinchillaLaw(1.0, 1.0, 0.99, 1.0, 0.5).eval, [5e-324, 1e10], math.inf),
        (_REF.loss_law.eval, [10**400, 1e10], _TOO_BIG),
    ],
    ids=["power-inf", "power-huge-int", "bopt-linear", "chinchilla-inf", "chinchilla-huge-int"],
)
def test_scalar_overflow_falls_back_to_array_path(call, args, expected):
    assert _outcome(call, args) == _outcome(call, [np.array([a]) for a in args]) == expected
