import json
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalelaw import (
    ConflictError,
    Curve,
    InsufficientDataError,
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


def curve(rows):
    """A Curve from (step, tokens, loss) rows."""
    steps, tokens, losses = zip(*rows) if rows else ((), (), ())
    return Curve(np.array(steps, dtype=np.int64), tokens, losses)


def rows(curve):
    """The (step, tokens, loss) rows of a Curve, as Python numbers."""
    return list(zip(curve.step.tolist(), curve.tokens.tolist(), curve.loss.tolist()))


def make_run(run_id="r", n_params=1e8, batch=5e5, losses=(3.0, 2.5, 2.0), **kw):
    points = curve([(i + 1, (i + 1) * batch, loss) for i, loss in enumerate(losses)])
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


def test_curve_columns_are_typed_read_only_arrays():
    pts = curve([(1, 5e5, 3.0), (2, 1e6, 2.5)])
    assert (pts.step.dtype, pts.tokens.dtype, pts.loss.dtype) == (np.int64, float, float)
    assert len(pts) == 2
    with pytest.raises(ValueError, match="read-only"):
        pts.loss[0] = 1.0
    with pytest.raises(ValidationError, match="equal length"):
        Curve([1, 2], [5e5], [3.0, 2.5])
    with pytest.raises(ValidationError, match="whole numbers"):
        Curve([1.5, 2.0], [5e5, 1e6], [3.0, 2.5])


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
    assert rows(run.points)[0] == (1, 5e5, 10.2)
    assert run.points.loss[1] == 9.8


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
        ("seq_len", "abc"),
        ("seq_len", -5),
        ("seq_len", 0),
        ("seq_len", 1.5),
        ("seq_len", [1]),
        ("seq_len", True),
        ("warmup_steps", 2.7),
        ("decay_steps", True),
        ("n_params", True),
        ("lr_scale", False),
        ("run_id", None),
        ("run_id", 123),
        ("label", None),
        ("label", 123),
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


def _scalar_points(raw_points):
    """Reference: a record's points parsed one point at a time, as
    (step, tokens, loss) tuples of Python numbers."""
    points = []
    try:
        for entry in raw_points:
            if not (isinstance(entry, list) and len(entry) == 3):
                raise ParseError("each point must be a [step, tokens, loss] triple")
            step, tokens, loss = entry
            if isinstance(step, float) and not step.is_integer():
                raise ParseError("step must be an integer")
            points.append((int(step), float(tokens), float(loss)))
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"point {len(points)} must hold numbers") from None
    return points


def _scalar_validate(points, batch):
    """Reference: the checks of RunRecord.validate on the points, one point at a time."""
    last = len(points) - 1
    prev = None
    for i, (step, tokens, loss) in enumerate(points):
        if step < 1:
            raise ValidationError("step must be >= 1")
        if not tokens > 0:
            raise ValidationError("tokens must be positive")
        if math.isnan(loss) or loss <= 0:
            raise ValidationError("loss must be positive")
        if prev is not None and (step <= prev[0] or tokens <= prev[1]):
            raise ValidationError("points must be strictly increasing")
        expected = step * batch
        slack = batch if i == last else max(1e-6 * expected, 1e-9)
        if abs(tokens - expected) > slack:
            raise ValidationError("tokens inconsistent")
        prev = (step, tokens)


_ODD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["3", "-2", "2.5", "1e6", " 7 ", "nan", "Infinity", "1_000", "abc", ""]),
    st.lists(st.integers(min_value=1, max_value=5), max_size=2),
)


@st.composite
def _point_rows(draw):
    """A valid curve of [step, tokens, loss] rows, then a few mutations."""
    batch = 5e5
    steps = sorted(draw(st.sets(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=6)))
    rows_ = [[s, s * batch, draw(st.floats(min_value=0.5, max_value=10.0))] for s in steps]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        i = draw(st.integers(min_value=0, max_value=len(rows_) - 1))
        j = draw(st.integers(min_value=0, max_value=2))
        row = rows_[i]
        if not isinstance(row, list) or len(row) != 3:
            continue
        kind = draw(st.sampled_from(
            ["odd", "float", "string", "arity", "swap", "tokens", "huge_step", "int_loss"]
        ))
        if kind == "odd":
            row[j] = draw(_ODD_VALUES)
        elif kind == "float" and isinstance(row[j], int):
            row[j] = float(row[j])
        elif kind == "string":
            row[j] = str(row[j])
        elif kind == "arity":
            rows_[i] = draw(st.sampled_from([row[:2], row + [1.0], row[0], {"step": row[0]}]))
        elif kind == "swap":
            k = draw(st.integers(min_value=0, max_value=len(rows_) - 1))
            rows_[i], rows_[k] = rows_[k], rows_[i]
        elif kind == "tokens" and isinstance(row[1], float):
            row[1] *= draw(st.sampled_from([1 + 1e-7, 1 + 1e-5, 0.5, -1.0]))
        elif kind == "huge_step" and i == len(rows_) - 1 and isinstance(row[0], int):
            # odd offsets past 2**53 are steps a float cannot hold
            row[0] = row[0] * 2 ** draw(st.integers(min_value=30, max_value=50)) + 1
            row[1] = row[0] * batch
        elif kind == "int_loss" and isinstance(row[2], float):
            row[2] = draw(st.integers(min_value=-1, max_value=10))
    return rows_


@settings(max_examples=400, deadline=None, derandomize=True)
@given(points=_point_rows())
def test_parse_verdict_matches_scalar_reference(points):
    obj = dict(json.loads(MINIMAL_LINE), points=points)
    line = json.dumps(obj)
    try:
        ref = _scalar_points(json.loads(line)["points"])
        # a step outside int64 is refused at parse time, before any check
        if any(not -(2**63) <= step < 2**63 for step, _, _ in ref):
            raise ParseError("step outside int64")
        _scalar_validate(ref, obj["batch_size_tokens"])
        expected = None
    except (ParseError, ValidationError) as exc:
        expected = type(exc)
    if expected is None:
        canonical = dict(obj, lr_scale=1.0, points=[list(p) for p in ref])
        assert serialize_runs(parse_runs([line])) == [json.dumps(canonical, sort_keys=True)]
    else:
        with pytest.raises((ParseError, ValidationError)) as info:
            parse_runs([line])
        assert info.type is expected


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
        assert replace(back, points=None) == replace(run, points=None)
        assert rows(back.points) == rows(run.points)
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


CURVE = curve([(1, 1e8, 3.0), (10, 1e9, 2.0)])


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
    bumpy = curve([(1, 1e8, 3.0), (2, 2e8, 2.2), (3, 3e8, 2.6), (4, 4e8, 2.0)])
    # the bump never beats the running best, so 2.2 is first hit at 2e8
    assert tokens_at_loss(bumpy, 2.2) == pytest.approx(2e8)
    env = monotone_envelope(bumpy)
    assert env.loss.tolist() == [3.0, 2.2, 2.2, 2.0]


def test_tokens_at_loss_monotone_in_target():
    rng = random.Random(11)
    losses = sorted((2.0 + 2.0 * rng.random() for _ in range(30)), reverse=True)
    points = curve([(i + 1, (i + 1) * 1e7, lv) for i, lv in enumerate(losses)])
    targets = sorted(2.1 + 1.5 * rng.random() for _ in range(20))
    toks = [tokens_at_loss(points, t) for t in targets]
    # harder (lower) targets always need at least as many tokens
    assert all(a >= b for a, b in zip(toks, toks[1:]))


def _scalar_tokens_at_loss(points, target):
    """Reference: a plain scan of the running minimum, one checkpoint at a time."""
    best = math.inf
    prev = None
    for _, tokens, loss in rows(points):
        best = min(best, loss)
        if best <= target:
            if prev is None:
                return tokens
            frac = (prev[1] - target) / (prev[1] - best)
            log_t = math.log(prev[0]) + frac * (math.log(tokens) - math.log(prev[0]))
            return min(max(math.exp(log_t), prev[0]), tokens)
        prev = (tokens, best)
    return None


# losses drawn from a small grid so plateaus and exact ties are common
_curves = st.lists(
    st.integers(min_value=0, max_value=40).map(lambda k: 1.5 + 0.05 * k),
    min_size=2,
    max_size=40,
).map(lambda losses: curve([(i + 1, (i + 1) * 1e6, lv) for i, lv in enumerate(losses)]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(points=_curves, data=st.data())
def test_tokens_at_loss_matches_scalar_scan(points, data):
    losses = points.loss.tolist()
    running_best = min(losses)
    # targets: every checkpoint loss exactly, one below the best loss, and
    # arbitrary values in range
    targets = sorted(set(losses)) + [running_best - 0.01] + [
        data.draw(st.floats(min_value=running_best, max_value=losses[0]))
        for _ in range(3)
    ]
    for target in targets:
        expect = _scalar_tokens_at_loss(points, target)
        if target > losses[0]:
            with pytest.raises(PreRangeLossError):
                tokens_at_loss(points, target)
        elif target < running_best:
            with pytest.raises(UnreachableLossError):
                tokens_at_loss(points, target)
        else:
            assert tokens_at_loss(points, target) == expect
    reachable = sorted(t for t in targets if running_best <= t <= losses[0])
    toks = [tokens_at_loss(points, t) for t in reachable]
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
            points=curve([(s, s * batch, loss) for s, loss in zip(steps, losses)]),
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
    pts = curve([(i + 1, (i + 1) * 1e6, 2.0) for i in range(10)])
    out = smooth_curve(pts, half_life_tokens=3e6)
    assert out.loss.tolist() == [2.0] * 10


def test_smooth_discard_fraction():
    pts = curve([(i + 1, (i + 1) * 1e8, 3.0) for i in range(10)])
    out = smooth_curve(pts, half_life_tokens=1e8, discard_fraction=0.5)
    assert out.tokens.tolist() == [5e8, 6e8, 7e8, 8e8, 9e8, 1e9]


def test_smooth_alternating_converges_to_mean():
    pts = rows(curve([(i + 1, (i + 1) * 1e6, 1.0 if i % 2 == 0 else 3.0) for i in range(40)]))
    half_life = 1e9  # far beyond the curve span
    out = smooth_curve(curve(pts), half_life_tokens=half_life)
    assert abs(out.loss[-1] - 2.0) < 0.05
    # cross-check every value against the recurrence computed directly
    weighted, weight = pts[0][2], 1.0
    expect = [pts[0][2]]
    for prev, cur in zip(pts, pts[1:]):
        decay = 0.5 ** ((cur[1] - prev[1]) / half_life)
        weighted = weighted * decay + cur[2]
        weight = weight * decay + 1.0
        expect.append(weighted / weight)
    assert out.loss.tolist() == pytest.approx(expect, rel=1e-15)


def test_smooth_preserves_step_and_tokens():
    pts = curve([(i + 1, (i + 1) * 1e6, 3.0 - 0.1 * i) for i in range(8)])
    out = smooth_curve(pts, half_life_tokens=2e6)
    assert [row[:2] for row in rows(out)] == [row[:2] for row in rows(pts)]


def test_smooth_range_bounded_by_input():
    rng = random.Random(3)
    for trial in range(20):
        losses = [2.0 + rng.random() for _ in range(15)]
        pts = curve([(i + 1, (i + 1) * 1e6, lv) for i, lv in enumerate(losses)])
        out = smooth_curve(pts, half_life_tokens=rng.choice([1e6, 5e6, 1e8]))
        assert min(losses) - 1e-12 <= out.loss.min()
        assert out.loss.max() <= max(losses) + 1e-12


def test_smooth_rejects_bad_arguments():
    pts = curve([(i + 1, (i + 1) * 1e6, 2.0) for i in range(5)])
    with pytest.raises(ValidationError):
        smooth_curve(pts, half_life_tokens=0.0)
    with pytest.raises(ValidationError):
        smooth_curve(pts, half_life_tokens=1e6, discard_fraction=1.0)
    with pytest.raises(ValidationError):
        smooth_curve(curve([(1, 1e6, math.inf)]), half_life_tokens=1e6)
    with pytest.raises(InsufficientDataError):
        smooth_curve(curve([]), half_life_tokens=1e6)


def test_smooth_run_trims_diverged_tail():
    run = make_run(losses=(3.0, 2.5, 2.4, math.inf, math.inf))
    out = smooth_run(run, discard_fraction=0.0)
    assert len(out.points) == 3
    assert all(math.isfinite(loss) for loss in out.points.loss)


# ---------------------------------------------------------------------------
# divergence helpers


def test_finite_prefix_stops_at_first_nonfinite():
    pts = curve([(1, 1e6, 2.0), (2, 2e6, math.nan), (3, 3e6, 1.9)])
    assert rows(finite_prefix(pts)) == rows(pts)[:1]


def test_has_divergence_blowup_and_nan():
    good = [(i + 1, (i + 1) * 1e6, 3.0 - 0.2 * i) for i in range(5)]
    assert not has_divergence(curve(good))
    blown = good[:-1] + [(5, 5e6, 9.0)]
    assert has_divergence(curve(blown))
    assert has_divergence(curve([(1, 1e6, 2.0), (2, 2e6, math.inf)]))
    with pytest.raises(InsufficientDataError):
        has_divergence(curve([]))


# ---------------------------------------------------------------------------
# record validation


def test_validate_rejects_decreasing_tokens():
    with pytest.raises(ValidationError, match="strictly increasing"):
        make_run(
            points=curve([(1, 5e5, 3.0), (2, 5e5, 2.9)]),
        ).validate()


def test_validate_rejects_nonpositive_loss():
    with pytest.raises(ValidationError, match="loss"):
        make_run(losses=(3.0, 0.0)).validate()


def test_validate_allows_partial_final_batch():
    run = make_run(
        points=curve([(1, 5e5, 3.0), (2, 1e6, 2.9), (3, 1.2e6, 2.8)])
    )
    run.validate()


def test_runset_subset_and_iteration():
    runset = RunSet(runs={r.run_id: r for r in (make_run("x"), make_run("y"), make_run("z"))})
    sub = runset.subset(["x", "z"])
    assert sorted(r.run_id for r in sub) == ["x", "z"]
    assert "y" in runset and "y" not in sub
