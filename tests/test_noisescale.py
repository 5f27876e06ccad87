import math
import random

import numpy as np
import pytest

from scalelaw import (
    TABLE_B_RATIOS,
    NoiseParams,
    ValidationError,
    eta_opt_adam,
    eta_opt_sgd,
    solve_tradeoff,
    tradeoff_table,
)

PARAMS = NoiseParams(eta_max=1e-3, B_noise=4e6, dL_max=0.1, gamma_tradeoff=1.0)


# ---------------------------------------------------------------------------
# plain-SGD optimum


def test_eta_sgd_half_at_noise_scale():
    assert eta_opt_sgd(4e6, PARAMS) == pytest.approx(5e-4, rel=1e-12)


def test_eta_sgd_saturates():
    assert eta_opt_sgd(1e15, PARAMS) == pytest.approx(1e-3, rel=1e-6)


def test_eta_sgd_direct_value():
    assert eta_opt_sgd(1e6, PARAMS) == pytest.approx(2e-4, rel=1e-12)


# ---------------------------------------------------------------------------
# sign-update optimum


def test_eta_adam_peak_at_noise_scale():
    assert eta_opt_adam(4e6, PARAMS) == pytest.approx(1e-3, rel=1e-12)


def test_eta_adam_quarter_decade_value():
    assert eta_opt_adam(16e6, PARAMS) == pytest.approx(0.8e-3, rel=1e-12)


def test_eta_adam_symmetric_in_ratio():
    for k in (1.7, 10.0, 123.0, 1e4):
        lo = eta_opt_adam(PARAMS.B_noise / k, PARAMS)
        hi = eta_opt_adam(PARAMS.B_noise * k, PARAMS)
        assert lo == pytest.approx(hi, rel=1e-12)


def test_eta_adam_unimodal_with_peak_at_noise_scale():
    grid = np.geomspace(4e3, 4e9, 601)  # six decades centred on B_noise
    vals = np.array([eta_opt_adam(b, PARAMS) for b in grid])
    peak = int(np.argmax(vals))
    assert grid[peak] == pytest.approx(4e6, rel=0.02)
    assert np.all(np.diff(vals[: peak + 1]) > 0)
    assert np.all(np.diff(vals[peak:]) < 0)


def test_eta_adam_asymptotic_slopes():
    def slope(b, h=1.05):
        up = math.log(eta_opt_adam(b * h, PARAMS))
        dn = math.log(eta_opt_adam(b / h, PARAMS))
        return (up - dn) / (2 * math.log(h))

    assert slope(4e6 * 1e-3) == pytest.approx(0.5, abs=0.01)
    assert slope(4e6 * 1e3) == pytest.approx(-0.5, abs=0.01)


def test_noise_params_validation():
    with pytest.raises(ValidationError):
        NoiseParams(eta_max=0.0, B_noise=1e6, dL_max=0.1, gamma_tradeoff=1.0)
    with pytest.raises(ValidationError):
        eta_opt_adam(-1.0, PARAMS)


# ---------------------------------------------------------------------------
# steps/data trade-off


def test_tradeoff_balanced_point():
    row = solve_tradeoff(1.0, gamma=1.0)
    assert row.e_ratio == pytest.approx(2.0, rel=1e-12)
    assert row.s_ratio == pytest.approx(2.0, rel=1e-12)


def test_tradeoff_large_batch_column():
    row = solve_tradeoff(10.0, gamma=1.0)
    assert row.e_ratio == pytest.approx(11.0, rel=1e-12)
    assert row.s_ratio == pytest.approx(1.1, rel=1e-12)


def test_tradeoff_small_batch_exact_root():
    # the exact root at b = 0.1 is (e, s) = (1.1, 11): the familiar printed
    # pair (1.1, 10) violates the closure, (10-1)(1.1-1) = 0.9
    row = solve_tradeoff(0.1, gamma=1.0)
    assert row.e_ratio == pytest.approx(1.1, rel=1e-12)
    assert row.s_ratio == pytest.approx(11.0, rel=1e-12)
    assert (row.s_ratio - 1) * (row.e_ratio - 1) == pytest.approx(1.0, rel=1e-12)


def test_tradeoff_closure_identity():
    rng = random.Random(31)
    for _ in range(60):
        gamma = rng.choice([0.25, 0.5, 1.0, 2.0, 4.0])
        b = 10 ** rng.uniform(-3, 3)
        row = solve_tradeoff(b, gamma=gamma)
        assert (row.s_ratio - 1) * (row.e_ratio - 1) == pytest.approx(gamma, rel=1e-9)
        assert row.e_ratio == pytest.approx(b * row.s_ratio, rel=1e-9)


def test_tradeoff_gamma_one_is_linear():
    for b in (1e-3, 0.37, 1.0, 42.0, 1e3):
        assert solve_tradeoff(b, gamma=1.0).e_ratio == pytest.approx(1.0 + b, rel=1e-12)


def test_tradeoff_matches_independent_bisection():
    rng = random.Random(37)
    for _ in range(20):
        gamma = rng.uniform(0.2, 3.0)
        b = 10 ** rng.uniform(-2, 2)
        lo, hi = 1.0 + 1e-15, 1e9
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            if (mid / b - 1.0) * (mid - 1.0) < gamma:
                lo = mid
            else:
                hi = mid
        assert solve_tradeoff(b, gamma=gamma).e_ratio == pytest.approx(lo, rel=1e-6)


def test_tradeoff_overhead_increases_with_batch():
    es = [solve_tradeoff(b, gamma=0.7).e_ratio for b in np.geomspace(1e-3, 1e3, 30)]
    assert all(x < y for x, y in zip(es, es[1:]))


def test_tradeoff_vanishing_batch_limit():
    assert solve_tradeoff(1e-12, gamma=1.0).e_ratio == pytest.approx(1.0, abs=1e-10)


def test_tradeoff_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        solve_tradeoff(0.0, gamma=1.0)
    with pytest.raises(ValidationError):
        solve_tradeoff(1.0, gamma=-0.5)


@pytest.mark.parametrize(
    "b_ratio, gamma",
    [(1.0, math.nan), (1.0, math.inf), (math.nan, 1.0), (math.inf, 1.0)],
)
def test_tradeoff_rejects_non_finite_inputs(b_ratio, gamma):
    with pytest.raises(ValidationError, match="positive and finite"):
        solve_tradeoff(b_ratio, gamma=gamma)


@pytest.mark.parametrize("b_ratio, gamma", [(1e200, 1.0), (0.5, 1e308), (1e-17, 0.5)])
def test_tradeoff_out_of_float_range_is_a_typed_error(b_ratio, gamma):
    with pytest.raises(ValidationError, match="float range"):
        solve_tradeoff(b_ratio, gamma=gamma)


# ---------------------------------------------------------------------------
# the seven-column table


def test_table_gamma_one_matches_printed_columns():
    rows = tradeoff_table(gamma=1.0)
    assert [r.b_ratio for r in rows] == list(TABLE_B_RATIOS)
    e_expected = [10 / 9, 1.5, 2.0, 3.0, 6.0, 11.0, 101.0]
    s_expected = [10.0, 3.0, 2.0, 1.5, 1.2, 1.1, 1.01]
    for row, e, s in zip(rows, e_expected, s_expected):
        assert row.e_ratio == pytest.approx(e, rel=1e-12)
        assert row.s_ratio == pytest.approx(s, rel=1e-12)


def test_table_first_column_prints_as_familiar_pair():
    row = tradeoff_table(gamma=1.0)[0]
    assert round(row.e_ratio, 1) == 1.1
    assert round(row.s_ratio, 2) == 10.0


def test_table_single_ratio():
    rows = tradeoff_table(gamma=1.0, b_ratios=(1.0,))
    assert len(rows) == 1
    assert (rows[0].e_ratio, rows[0].s_ratio, rows[0].b_ratio) == (2.0, 2.0, 1.0)


def test_table_rows_satisfy_e_equals_b_times_s():
    for gamma in (0.5, 1.0, 2.0):
        for row in tradeoff_table(gamma=gamma):
            assert row.e_ratio == pytest.approx(row.b_ratio * row.s_ratio, rel=1e-9)
