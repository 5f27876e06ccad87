import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalelaw import (
    ConflictError,
    CurvePoint,
    LrScheme,
    ModelSpec,
    ParseError,
    PreRangeLossError,
    RunRecord,
    RunSet,
    UnreachableLossError,
    ValidationError,
    finite_prefix,
    flops,
    has_divergence,
    monotone_envelope,
    parse_runs,
    serialize_runs,
    smooth_curve,
    smooth_run,
    tokens_at_loss,
)

MINIMAL_LINE = json.dumps(
    {
        "run_id": "a",
        "n_params": 1.25e8,
        "batch_size_tokens": 5.0e5,
        "lr_peak": 6.0e-4,
        "lr_scheme": "origin",
        "warmup_steps": 0,
        "decay_steps": 0,
        "points": [[1, 5e5, 10.2], [2, 1e6, 9.8]],
    }
)


def make_run(run_id="r", n_params=1e8, batch=5e5, losses=(3.0, 2.5, 2.0), **kw):
    points = tuple(
        CurvePoint(step=i + 1, tokens=(i + 1) * batch, loss=loss)
        for i, loss in enumerate(losses)
    )
    defaults = dict(
        run_id=run_id,
        model=ModelSpec(n_params=n_params),
        batch_size_tokens=batch,
        lr_peak=3e-4,
        lr_scheme=LrScheme.ORIGIN,
        warmup_steps=0,
        decay_steps=0,
        points=points,
    )
    defaults.update(kw)
    return RunRecord(**defaults)


# ---------------------------------------------------------------------------
# parsing


def test_parse_empty_input():
    runset = parse_runs([])
    assert len(runset) == 0


def test_parse_minimal_record():
    runset = parse_runs([MINIMAL_LINE])
    assert len(runset) == 1
    run = runset["a"]
    assert run.model.n_params == 1.25e8
    assert run.batch_size_tokens == 5.0e5
    assert len(run.points) == 2
    assert run.points[0] == CurvePoint(step=1, tokens=5e5, loss=10.2)
    assert run.points[1].loss == 9.8


def test_parse_duplicate_run_id_conflict():
    with pytest.raises(ConflictError, match="'a'"):
        parse_runs([MINIMAL_LINE, MINIMAL_LINE])


def test_parse_blank_lines_skipped():
    runset = parse_runs(["", "  ", MINIMAL_LINE, ""])
    assert len(runset) == 1


def test_parse_invalid_json_strict():
    with pytest.raises(ParseError, match="line 2"):
        parse_runs([MINIMAL_LINE, "{not json"])


def test_parse_missing_field_strict():
    obj = json.loads(MINIMAL_LINE)
    del obj["lr_peak"]
    with pytest.raises(ParseError):
        parse_runs([json.dumps(obj)])


def test_parse_lenient_collects_rejects():
    obj = json.loads(MINIMAL_LINE)
    obj["run_id"] = "b"
    obj["points"] = [[1, 5e5, -1.0]]
    bad = json.dumps(obj)
    runset = parse_runs([MINIMAL_LINE, "{oops", bad, MINIMAL_LINE], strict=False)
    assert len(runset) == 1
    assert [line_no for line_no, _ in runset.rejected] == [2, 3, 4]


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_params", "abc"),
        ("n_params", None),
        ("batch_size_tokens", [5e5]),
        ("lr_peak", {}),
        ("warmup_steps", "ten"),
        ("decay_steps", math.inf),
        ("lr_scale", None),
    ],
)
def test_parse_bad_scalar_value_is_parse_error(field, value):
    obj = json.loads(MINIMAL_LINE)
    obj[field] = value
    with pytest.raises(ParseError, match=f"line 1.*{field}"):
        parse_runs([json.dumps(obj)])


@pytest.mark.parametrize(
    "point", [[2, 1e6, None], [2, "abc", 9.8], [None, 1e6, 9.8], [2, 1e6, [9.8]]]
)
def test_parse_bad_point_value_is_parse_error(point):
    obj = json.loads(MINIMAL_LINE)
    obj["points"] = [[1, 5e5, 10.2], point]
    with pytest.raises(ParseError, match="point 1"):
        parse_runs([json.dumps(obj)])
    runset = parse_runs([json.dumps(obj), MINIMAL_LINE], strict=False)
    assert list(runset.runs) == ["a"]
    assert [line_no for line_no, _ in runset.rejected] == [1]


@pytest.mark.parametrize("lr_scale", [0.0, -1.0, math.inf, math.nan])
def test_validate_rejects_bad_lr_scale(lr_scale):
    with pytest.raises(ValidationError, match="lr_scale"):
        make_run(lr_scale=lr_scale).validate()
    obj = json.loads(MINIMAL_LINE)
    obj["lr_scale"] = lr_scale
    runset = parse_runs([json.dumps(obj)], strict=False)
    assert len(runset) == 0 and len(runset.rejected) == 1


def test_parse_rejects_inconsistent_tokens():
    obj = json.loads(MINIMAL_LINE)
    obj["points"] = [[1, 5e5, 10.2], [2, 3e6, 9.8]]
    with pytest.raises(ValidationError, match="inconsistent"):
        parse_runs([json.dumps(obj)])


def test_roundtrip_identity():
    rng = random.Random(7)
    runs = {}
    for i in range(8):
        batch = rng.choice([5e5, 1e6, 2e6])
        n = rng.choice([1.25e8, 3.5e8, 2.6e9])
        losses = [4.0 - 0.1 * k + 0.01 * rng.random() for k in range(5)]
        if i == 3:
            losses[-1] = math.inf
        run = make_run(
            run_id=f"run-{i}",
            n_params=n,
            batch=batch,
            losses=losses,
            lr_scheme=rng.choice(list(LrScheme)),
            lr_scale=rng.choice([0.5, 1.0, 2.0]),
            warmup_steps=rng.randrange(3),
            model=ModelSpec(n_params=n, label=f"m{i}", seq_len=4096 if i % 2 else None),
        )
        runs[run.run_id] = run
    runset = RunSet(runs=runs)
    lines = serialize_runs(runset)
    parsed = parse_runs(lines)
    assert len(parsed) == len(runset)
    for run_id, run in runs.items():
        back = parsed[run_id]
        assert back == run
    # canonical form is a fixed point
    assert serialize_runs(parsed) == lines


# ---------------------------------------------------------------------------
# flops


def test_flops_direct_product():
    assert flops(1e9, 1e9) == 6e18


def test_flops_published_budget_row():
    assert flops(6.80e9, 2.00e11) == pytest.approx(8.16e21, rel=1e-12)


def test_flops_matching_smaller_model_row():
    assert flops(4.49e9, 3.03e11) == pytest.approx(8.16e21, rel=1e-3)


def test_flops_rejects_nonpositive():
    with pytest.raises(ValidationError):
        flops(0.0, 1e9)


# ---------------------------------------------------------------------------
# curve inversion


CURVE = (CurvePoint(1, 1e8, 3.0), CurvePoint(10, 1e9, 2.0))


def test_tokens_at_loss_endpoint():
    assert tokens_at_loss(CURVE, 2.0) == pytest.approx(1e9)


def test_tokens_at_loss_log_interpolation():
    # midpoint in loss lands at the geometric midpoint in tokens
    assert tokens_at_loss(CURVE, 2.5) == pytest.approx(10**8.5, rel=1e-12)


def test_tokens_at_loss_unreachable():
    with pytest.raises(UnreachableLossError):
        tokens_at_loss(CURVE, 1.5)


def test_tokens_at_loss_pre_range():
    with pytest.raises(PreRangeLossError):
        tokens_at_loss(CURVE, 3.5)


def test_tokens_at_loss_uses_running_minimum():
    bumpy = (
        CurvePoint(1, 1e8, 3.0),
        CurvePoint(2, 2e8, 2.2),
        CurvePoint(3, 3e8, 2.6),
        CurvePoint(4, 4e8, 2.0),
    )
    # the bump never beats the running best, so 2.2 is first hit at 2e8
    assert tokens_at_loss(bumpy, 2.2) == pytest.approx(2e8)
    env = monotone_envelope(bumpy)
    assert [p.loss for p in env] == [3.0, 2.2, 2.2, 2.0]


def test_tokens_at_loss_monotone_in_target():
    rng = random.Random(11)
    losses = sorted((2.0 + 2.0 * rng.random() for _ in range(30)), reverse=True)
    curve = tuple(CurvePoint(i + 1, (i + 1) * 1e7, lv) for i, lv in enumerate(losses))
    targets = sorted(2.1 + 1.5 * rng.random() for _ in range(20))
    toks = [tokens_at_loss(curve, t) for t in targets]
    # harder (lower) targets always need at least as many tokens
    assert all(a >= b for a, b in zip(toks, toks[1:]))


def _scalar_tokens_at_loss(points, target):
    """Reference: a plain scan of the running minimum, one checkpoint at a time."""
    best = math.inf
    prev = None
    for p in points:
        best = min(best, p.loss)
        if best <= target:
            if prev is None:
                return p.tokens
            frac = (prev[1] - target) / (prev[1] - best)
            log_t = math.log(prev[0]) + frac * (math.log(p.tokens) - math.log(prev[0]))
            return math.exp(log_t)
        prev = (p.tokens, best)
    return None


# losses drawn from a small grid so plateaus and exact ties are common
_curves = st.lists(
    st.integers(min_value=0, max_value=40).map(lambda k: 1.5 + 0.05 * k),
    min_size=2,
    max_size=40,
).map(lambda losses: tuple(CurvePoint(i + 1, (i + 1) * 1e6, lv) for i, lv in enumerate(losses)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(curve=_curves, data=st.data())
def test_tokens_at_loss_matches_scalar_scan(curve, data):
    losses = [p.loss for p in curve]
    running_best = min(losses)
    # targets: every checkpoint loss exactly, one below the best loss, and
    # arbitrary values in range
    targets = sorted(set(losses)) + [running_best - 0.01] + [
        data.draw(st.floats(min_value=running_best, max_value=losses[0]))
        for _ in range(3)
    ]
    for target in targets:
        expect = _scalar_tokens_at_loss(curve, target)
        if target > losses[0]:
            with pytest.raises(PreRangeLossError):
                tokens_at_loss(curve, target)
        elif target < running_best:
            with pytest.raises(UnreachableLossError):
                tokens_at_loss(curve, target)
        else:
            assert tokens_at_loss(curve, target) == expect
    reachable = sorted(t for t in targets if running_best <= t <= losses[0])
    toks = [tokens_at_loss(curve, t) for t in reachable]
    # a lower target never needs fewer tokens
    assert all(a >= b for a, b in zip(toks, toks[1:]))


_positive = st.floats(min_value=1e-6, max_value=1e15)


@st.composite
def _runsets(draw):
    runset = RunSet()
    for i in range(draw(st.integers(min_value=1, max_value=3))):
        batch = draw(st.floats(min_value=1.0, max_value=1e8))
        steps = sorted(draw(st.sets(st.integers(min_value=1, max_value=10**6),
                                    min_size=1, max_size=8)))
        # an infinite loss is how a diverged checkpoint is logged
        losses = draw(st.lists(st.floats(min_value=1e-3, max_value=20.0) | st.just(math.inf),
                               min_size=len(steps), max_size=len(steps)))
        runset.add(RunRecord(
            run_id=f"{draw(st.text(max_size=6))}-{i}",
            model=ModelSpec(
                n_params=draw(_positive),
                label=draw(st.text(max_size=6)),
                seq_len=draw(st.none() | st.integers(min_value=1, max_value=8192)),
            ),
            batch_size_tokens=batch,
            lr_peak=draw(_positive),
            lr_scheme=draw(st.sampled_from(LrScheme)),
            warmup_steps=draw(st.integers(min_value=0, max_value=10**6)),
            decay_steps=draw(st.integers(min_value=0, max_value=10**6)),
            points=tuple(CurvePoint(s, s * batch, loss) for s, loss in zip(steps, losses)),
            lr_scale=draw(_positive),
        ))
    return runset


@settings(max_examples=50, deadline=None, derandomize=True)
@given(runset=_runsets())
def test_serialize_parse_round_trip(runset):
    lines = serialize_runs(runset)
    assert serialize_runs(parse_runs(lines)) == lines


# ---------------------------------------------------------------------------
# smoothing


def test_smooth_constant_is_fixed_point():
    pts = tuple(CurvePoint(i + 1, (i + 1) * 1e6, 2.0) for i in range(10))
    out = smooth_curve(pts, half_life_tokens=3e6)
    assert [p.loss for p in out] == [2.0] * 10


def test_smooth_discard_fraction():
    pts = tuple(CurvePoint(i + 1, (i + 1) * 1e8, 3.0) for i in range(10))
    out = smooth_curve(pts, half_life_tokens=1e8, discard_fraction=0.5)
    assert [p.tokens for p in out] == [5e8, 6e8, 7e8, 8e8, 9e8, 1e9]


def test_smooth_alternating_converges_to_mean():
    pts = tuple(
        CurvePoint(i + 1, (i + 1) * 1e6, 1.0 if i % 2 == 0 else 3.0) for i in range(40)
    )
    half_life = 1e9  # far beyond the curve span
    out = smooth_curve(pts, half_life_tokens=half_life)
    assert abs(out[-1].loss - 2.0) < 0.05
    # cross-check every value against the recurrence computed directly
    weighted, weight = pts[0].loss, 1.0
    expect = [pts[0].loss]
    for prev, cur in zip(pts, pts[1:]):
        decay = 0.5 ** ((cur.tokens - prev.tokens) / half_life)
        weighted = weighted * decay + cur.loss
        weight = weight * decay + 1.0
        expect.append(weighted / weight)
    assert [p.loss for p in out] == pytest.approx(expect, rel=1e-15)


def test_smooth_preserves_step_and_tokens():
    pts = tuple(CurvePoint(i + 1, (i + 1) * 1e6, 3.0 - 0.1 * i) for i in range(8))
    out = smooth_curve(pts, half_life_tokens=2e6)
    assert [(p.step, p.tokens) for p in out] == [(p.step, p.tokens) for p in pts]


def test_smooth_range_bounded_by_input():
    rng = random.Random(3)
    for trial in range(20):
        losses = [2.0 + rng.random() for _ in range(15)]
        pts = tuple(CurvePoint(i + 1, (i + 1) * 1e6, lv) for i, lv in enumerate(losses))
        out = smooth_curve(pts, half_life_tokens=rng.choice([1e6, 5e6, 1e8]))
        assert min(losses) - 1e-12 <= min(p.loss for p in out)
        assert max(p.loss for p in out) <= max(losses) + 1e-12


def test_smooth_rejects_bad_arguments():
    pts = tuple(CurvePoint(i + 1, (i + 1) * 1e6, 2.0) for i in range(5))
    with pytest.raises(ValidationError):
        smooth_curve(pts, half_life_tokens=0.0)
    with pytest.raises(ValidationError):
        smooth_curve(pts, half_life_tokens=1e6, discard_fraction=1.0)
    with pytest.raises(ValidationError):
        smooth_curve((CurvePoint(1, 1e6, math.inf),), half_life_tokens=1e6)


def test_smooth_run_trims_diverged_tail():
    run = make_run(losses=(3.0, 2.5, 2.4, math.inf, math.inf))
    out = smooth_run(run, discard_fraction=0.0)
    assert len(out.points) == 3
    assert all(math.isfinite(p.loss) for p in out.points)


# ---------------------------------------------------------------------------
# divergence helpers


def test_finite_prefix_stops_at_first_nonfinite():
    pts = (CurvePoint(1, 1e6, 2.0), CurvePoint(2, 2e6, math.nan), CurvePoint(3, 3e6, 1.9))
    assert finite_prefix(pts) == pts[:1]


def test_has_divergence_blowup_and_nan():
    good = tuple(CurvePoint(i + 1, (i + 1) * 1e6, 3.0 - 0.2 * i) for i in range(5))
    assert not has_divergence(good)
    blown = good[:-1] + (CurvePoint(5, 5e6, 9.0),)
    assert has_divergence(blown)
    assert has_divergence((CurvePoint(1, 1e6, 2.0), CurvePoint(2, 2e6, math.inf)))


# ---------------------------------------------------------------------------
# record validation


def test_validate_rejects_decreasing_tokens():
    with pytest.raises(ValidationError, match="strictly increasing"):
        make_run(
            points=(CurvePoint(1, 5e5, 3.0), CurvePoint(2, 5e5, 2.9)),
        ).validate()


def test_validate_rejects_nonpositive_loss():
    with pytest.raises(ValidationError, match="loss"):
        make_run(losses=(3.0, 0.0)).validate()


def test_validate_allows_partial_final_batch():
    run = make_run(
        points=(CurvePoint(1, 5e5, 3.0), CurvePoint(2, 1e6, 2.9), CurvePoint(3, 1.2e6, 2.8))
    )
    run.validate()


def test_runset_subset_and_iteration():
    runset = RunSet(runs={r.run_id: r for r in (make_run("x"), make_run("y"), make_run("z"))})
    sub = runset.subset(["x", "z"])
    assert sorted(r.run_id for r in sub) == ["x", "z"]
    assert "y" in runset and "y" not in sub
