import contextlib
import hashlib
import io
import json
import math
import os
import pickle
import random
import struct
import tempfile
import threading
import tracemalloc
from argparse import Namespace
from array import array
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scalelaw import cli, runlog
from scalelaw._record import fields, replace
from scalelaw._verbs._runs import filtered_runs
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
    ScaleLawError,
    UnreachableLossError,
    ValidationError,
    finite_prefix,
    has_divergence,
    parse_runs,
    read_runs,
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


_DROP = object()
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    # past 2**1024 an int has no float
    | st.integers(min_value=-(2**1100), max_value=2**1100)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6),
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=8,
)
_RUN_FIELDS = tuple(json.loads(MINIMAL_LINE)) + ("lr_scale", "label", "seq_len")


@settings(max_examples=500, deadline=None, derandomize=True)
@given(edits=st.dictionaries(
    st.sampled_from(_RUN_FIELDS), st.just(_DROP) | _JSON_VALUES, min_size=1, max_size=4
))
@example(edits={"n_params": 10**400})
def test_parse_any_field_values_give_runset_or_typed_error(edits):
    obj = json.loads(MINIMAL_LINE)
    for name, value in edits.items():
        if value is _DROP:
            obj.pop(name, None)
        else:
            obj[name] = value
    line = json.dumps(obj)
    try:
        strict = parse_runs([line])
    except ScaleLawError as exc:
        strict, error = None, str(exc)
    lenient = parse_runs([line], strict=False)
    if strict is None:
        assert len(lenient) == 0 and lenient.rejected == [(1, error)]
    else:
        assert list(lenient.runs) == list(strict.runs) and lenient.rejected == []


@settings(max_examples=200, deadline=None, derandomize=True)
@given(value=_JSON_VALUES.filter(lambda v: not isinstance(v, dict)))
@example(value=[json.loads(MINIMAL_LINE)])
@example(value=3)
@example(value="a")
@example(value=True)
@example(value=None)
def test_parse_non_object_line_is_parse_error(value):
    line = json.dumps(value)
    with pytest.raises(ParseError) as info:
        parse_runs([line])
    assert info.type is ParseError
    assert str(info.value) == "line 1: each line must be a JSON object"
    lenient = parse_runs([line], strict=False)
    assert len(lenient) == 0 and lenient.rejected == [(1, str(info.value))]


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


CHUNK = runlog._ROWS_PER_CHUNK


@pytest.mark.parametrize("n_points", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
@pytest.mark.parametrize("label, seq_len", [("", None), ("125M", 2048)])
def test_line_chunks_join_to_the_canonical_line(n_points, label, seq_len):
    losses = [3.0 - 1e-4 * i for i in range(n_points)]
    losses[-1] = math.inf
    run = make_run(losses=losses, model=ModelSpec(n_params=1.25e8, label=label, seq_len=seq_len))
    fields_ = {
        "run_id": "r", "n_params": 1.25e8, "batch_size_tokens": 5e5, "lr_peak": 3e-4,
        "lr_scheme": "origin", "lr_scale": 1.0, "warmup_steps": 0, "decay_steps": 0,
        "points": rows(run.points),
    }
    if label:
        fields_.update(label=label, seq_len=seq_len)
    chunks = list(runlog._line_chunks(run))
    assert "".join(chunks) == json.dumps(fields_, sort_keys=True)
    assert chunks[-2].endswith(", Infinity]")
    # head, tail and one chunk per block of rows, with a separator between blocks
    blocks = -(-n_points // CHUNK)
    assert len(chunks) == 2 + 2 * blocks - 1
    assert serialize_runs(iter([run])) == ["".join(chunks)]


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
    # past the bump, 2.1 is interpolated from the running best 2.2 at 3e8
    assert tokens_at_loss(bumpy, 2.1) == pytest.approx((3e8 * 4e8) ** 0.5, rel=1e-12)


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


def buffered(points):
    """The curve of points with its columns held as stdlib buffers, as a
    run-log cache hit builds it."""
    codes = ("q", "d", "d")
    return Curve(*(memoryview(array(code, c.tolist())) for code, c in zip(codes, (
        points.step, points.tokens, points.loss))))


def _numpy_tokens_at_loss(points, target):
    """tokens_at_loss as np.fmin.accumulate and np.searchsorted computed it,
    or the name of the error it raised."""
    tokens = points.tokens
    best = np.fmin.accumulate(points.loss)
    if target > best[0]:
        return "PreRangeLossError"
    if target < best[-1]:
        return "UnreachableLossError"
    i = int(np.searchsorted(-best, -target, side="left"))
    if i == 0:
        return float(tokens[0])
    prev_loss, cur_loss = float(best[i - 1]), float(best[i])
    prev_tokens, cur_tokens = float(tokens[i - 1]), float(tokens[i])
    frac = (prev_loss - target) / (prev_loss - cur_loss)
    log_tokens = math.log(prev_tokens) + frac * (math.log(cur_tokens) - math.log(prev_tokens))
    return min(max(math.exp(log_tokens), prev_tokens), cur_tokens)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    losses=st.lists(
        st.one_of(
            st.integers(min_value=0, max_value=12).map(lambda k: 1.5 + 0.1 * k),
            st.floats(min_value=1.0, max_value=3.0),
            st.just(math.nan),
        ),
        min_size=2,
        max_size=30,
    ),
    gaps=st.lists(st.integers(min_value=1, max_value=9), min_size=30, max_size=30),
    as_buffers=st.booleans(),
    data=st.data(),
)
def test_loss_inverse_matches_the_numpy_running_minimum_bit_for_bit(
    losses, gaps, as_buffers, data
):
    """Plateaus and ties (losses on a grid), NaN losses, and targets at
    every loss, at both ends of the running minimum and just past them."""
    steps = np.cumsum(gaps[: len(losses)])
    points = curve(zip(steps.tolist(), (steps * 3e5).tolist(), losses))
    points = buffered(points) if as_buffers else points
    best = np.fmin.accumulate(points.loss).tolist()
    finite = [v for v in best if not math.isnan(v)]
    targets = set(v for v in losses if not math.isnan(v))
    for end in finite[:1] + finite[-1:]:
        targets |= {end, math.nextafter(end, 0.0), math.nextafter(end, 9.0)}
    if finite:
        targets.add(data.draw(st.floats(min_value=finite[-1], max_value=finite[0])))
    inverse = runlog.loss_inverse(points)
    for target in sorted(targets):
        expect = _numpy_tokens_at_loss(points, target)
        for invert in (inverse, lambda t: tokens_at_loss(points, t)):
            try:
                got = invert(target)
            except (PreRangeLossError, UnreachableLossError) as exc:
                got = type(exc).__name__
            assert got == expect and type(got) is type(expect), (target, losses)


def _finite_cut_cases():
    """Loss lists with NaN and infinite values, and with finite values
    whose sum overflows."""
    return st.lists(
        st.one_of(
            st.floats(min_value=0.5, max_value=10.0),
            st.sampled_from([math.nan, math.inf, -math.inf, 1.7e308]),
        ),
        min_size=1,
        max_size=20,
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(losses=_finite_cut_cases(), as_buffers=st.booleans())
def test_finite_cut_and_divergence_match_numpy(losses, as_buffers):
    points = curve([(i + 1, (i + 1) * 1e6, v) for i, v in enumerate(losses)])
    points = buffered(points) if as_buffers else points
    loss = np.array(losses)
    bad = ~np.isfinite(loss)
    keep = slice(bad.argmax()) if bad.any() else slice(None)
    cut = finite_prefix(points)
    for name in ("step", "tokens", "loss"):
        assert getattr(cut, name).tobytes() == getattr(points, name)[keep].tobytes()
    with np.errstate(over="ignore"):
        diverged = bool(not np.isfinite(loss).all() or loss[-1] > 2.0 * loss[0])
    assert has_divergence(points) is diverged


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    gaps=st.lists(st.integers(min_value=1, max_value=1000), min_size=1, max_size=40),
    as_buffers=st.booleans(),
    data=st.data(),
)
def test_smooth_curve_discard_matches_the_numpy_mask(gaps, as_buffers, data):
    """The discard cut by bisection keeps the points that the mask tokens
    >= discard_fraction * tokens[-1] kept, cuts at a checkpoint included."""
    steps = np.cumsum(gaps)
    tokens = steps * 3.3e5
    points = Curve(steps, tokens, 2.0 + 1.0 / steps)
    points = buffered(points) if as_buffers else points
    at_checkpoint = (tokens / tokens[-1])[tokens < tokens[-1]].tolist()
    discard = data.draw(st.one_of(
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        *([st.sampled_from(at_checkpoint)] if at_checkpoint else []),
    ))
    keep = tokens >= discard * tokens[-1]
    if keep.sum() < 2:
        with pytest.raises(InsufficientDataError):
            smooth_curve(points, 1e8, discard)
        return
    out = smooth_curve(points, 1e8, discard)
    assert out.step.tobytes() == steps[keep].tobytes()
    assert out.tokens.tobytes() == tokens[keep].tobytes()


@pytest.mark.parametrize("given", ["memoryviews", "arrays", "lists"])
def test_buffered_curves_read_as_read_only_numpy_views(given):
    """However its columns are given, a curve holds them as read-only
    buffers and builds no numpy array until a column is read; then the
    column is a read-only view of its buffer, not a copy."""
    make = {"memoryviews": memoryview, "arrays": np.array, "lists": list}[given]
    steps = array("q", [1, 2, 3])
    points = Curve(make(steps), make(array("d", [1e6, 2e6, 3e6])), make(array("d", [3.0, 2.5, 2.0])))
    assert list(vars(points)) == ["columns"] and len(points) == 3
    assert all(type(column) is memoryview and column.readonly for column in points.columns)
    view = points.step
    assert view.dtype == np.int64 and not view.flags.writeable
    assert points.step is view and np.shares_memory(view, points.columns[0])
    # a memoryview is kept as it is; anything else was converted once
    steps[0] = 7
    assert view.tolist() == ([7, 2, 3] if given == "memoryviews" else [1, 2, 3])
    with pytest.raises(ValueError, match="read-only"):
        points.loss[0] = 1.0
    with pytest.raises(ValidationError, match="equal length"):
        Curve(make(steps), make(array("d", [1e6])), make(array("d", [3.0])))
    # memoryviews do not pickle; a curve pickles as its arrays
    assert rows(pickle.loads(pickle.dumps(points))) == rows(points)


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
# read_runs and its cache of decoded logs


def _outcome(read, *args, **kwargs):
    """What a read gives: its RunSet, or the type and message of its error."""
    try:
        return read(*args, **kwargs)
    except ScaleLawError as exc:
        return type(exc), str(exc)


def _typed(record) -> list:
    return [(f.name, type(v), v) for f in fields(record) for v in [getattr(record, f.name)]]


def assert_same_runs(got, want):
    """The same error, or the same runs field for field, down to the Python
    type of every scalar and the dtype of every curve column."""
    if not isinstance(want, RunSet):
        assert got == want
        return
    assert isinstance(got, RunSet), got
    assert got.rejected == want.rejected
    assert list(got.runs) == list(want.runs)
    for a, b in zip(got, want):
        assert _typed(replace(a, points=None, model=None)) == _typed(
            replace(b, points=None, model=None)
        )
        assert _typed(a.model) == _typed(b.model)
        for name in ("step", "tokens", "loss"):
            x, y = getattr(a.points, name), getattr(b.points, name)
            assert x.dtype == y.dtype and np.array_equal(x, y)


@contextlib.contextmanager
def _no_decoding():
    """Fail any read that parses its log: what runs inside must be cache hits."""
    with mock.patch.object(runlog, "_parse_lines", side_effect=AssertionError("log decoded")):
        yield


@st.composite
def _run_logs(draw):
    """The bytes of a run log: records, a quarter of them broken, duplicate
    ids, blank and junk lines, every line ending, raw UTF-8 or escaped text."""
    out = b""
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        kind = draw(st.sampled_from(["run"] * 6 + ["broken_run", "blank", "junk"]))
        if kind.endswith("run"):
            steps = sorted(draw(st.sets(st.integers(min_value=1, max_value=10**6),
                                        min_size=1, max_size=6)))
            obj = dict(
                json.loads(MINIMAL_LINE),
                run_id=draw(st.sampled_from(["a", "\u00e9t\u00e9", "c\u2028d"]))
                + str(draw(st.integers(min_value=0, max_value=5))),
                points=[[s, s * 5e5, draw(st.floats(min_value=0.5, max_value=10.0))]
                        for s in steps],
            )
            if draw(st.booleans()):
                obj.update(
                    n_params=draw(st.sampled_from([125_000_000, 1.25e8])),
                    label=draw(st.text(max_size=4)),
                    seq_len=draw(st.none() | st.integers(min_value=1, max_value=8192)),
                    lr_scale=draw(st.sampled_from([1, 0.5, 2.0])),
                    extra=draw(_JSON_VALUES),
                )
            if kind == "broken_run":
                obj["points"] = draw(_point_rows())
                for name, value in draw(st.dictionaries(
                    st.sampled_from(_RUN_FIELDS[1:]), st.just(_DROP) | _JSON_VALUES, max_size=1
                )).items():
                    if value is _DROP:
                        obj.pop(name, None)
                    else:
                        obj[name] = value
            line = json.dumps(obj, ensure_ascii=draw(st.booleans())).encode()
        elif kind == "blank":
            line = draw(st.sampled_from([b"", b"  ", b"\t"]))
        else:
            line = draw(st.sampled_from([b"{oops", b"[1, 2]", b"null"]))
        out += line + draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))
    return out[:-1] if out.endswith(b"}\n") and draw(st.booleans()) else out


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=_run_logs())
def test_read_runs_matches_parse_runs_on_miss_and_hit(data):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, XDG_CACHE_HOME=tmp):
        cache = Path(tmp, "scalelaw")
        path = Path(tmp, "runs.jsonl")
        path.write_bytes(data)
        # the lines as text mode reads them, as the CLI read logs before read_runs
        with open(path, encoding="utf-8") as handle:
            lines = list(handle)
        expected = {strict: _outcome(parse_runs, lines, strict=strict) for strict in (True, False)}
        assert_same_runs(_outcome(read_runs, path, strict=False), expected[False])
        stored = len(expected[False]) > 0 and not expected[False].rejected
        assert len(list(cache.glob("*"))) == stored
        with _no_decoding() if stored else contextlib.nullcontext():
            for strict in (True, False):
                assert_same_runs(_outcome(read_runs, path, strict=strict), expected[strict])
        for entry in cache.glob("*"):
            entry.unlink()
        assert_same_runs(_outcome(read_runs, path, strict=True), expected[True])
        assert len(list(cache.glob("*"))) == stored


def _two_run_log(path: Path) -> Path:
    runs = (make_run("x"), make_run("y", batch=1e6, losses=(3.0, 2.0, 1.5, 1.2)))
    path.write_text("".join(line + "\n" for line in serialize_runs(RunSet(
        runs={run.run_id: run for run in runs}
    ))))
    return path


@pytest.fixture
def cached_log(tmp_path, run_log_cache):
    """A two-run log, read once so that its cache entry exists."""
    path = _two_run_log(tmp_path / "runs.jsonl")
    expected = parse_runs(path.read_bytes().splitlines())
    assert_same_runs(read_runs(path), expected)
    (entry,) = run_log_cache.iterdir()
    return path, entry, expected


def _with_header(blob: bytes, header: bytes) -> bytes:
    size = int.from_bytes(blob[:8], "little")
    return len(header).to_bytes(8, "little") + header + blob[8 + size :]


@pytest.mark.parametrize("damage", [
    "garbled", "header_json", "not_a_list", "counts_swapped", "bad_field", "negative_loss",
    "longer_body", "counts_swapped_filtered", "changed_loss", "edited_field",
])
def test_damaged_entry_is_a_silent_miss(cached_log, damage):
    """Whatever is wrong with an entry, the read parses the log instead and
    writes the entry afresh; a hit verifies every record it serves against
    its digest, and does not validate it again."""
    path, entry, expected = cached_log
    blob = entry.read_bytes()
    header = json.loads(blob[8 : 8 + int.from_bytes(blob[:8], "little")])
    (line_x, n_x, digest_x, obj_x), (line_y, n_y, digest_y, obj_y) = header
    # each run takes the other's point count: its steps stop increasing
    counts_swapped = _with_header(blob, json.dumps(
        [[line_x, n_y, digest_x, obj_x], [line_y, n_x, digest_y, obj_y]]
    ).encode())
    damaged = {
        "garbled": bytes(b ^ 0x5A for b in blob),
        "header_json": blob[:8] + b"{" + blob[9:],
        "not_a_list": _with_header(blob, b'{"runs": 2}'),
        "counts_swapped": counts_swapped,
        "bad_field": _with_header(
            blob, json.dumps([[line_x, n_x, digest_x, dict(obj_x, lr_scheme="bogus")],
                              [line_y, n_y, digest_y, obj_y]]).encode()
        ),
        # the last loss of the last run: validation would refuse it
        "negative_loss": blob[:-8] + struct.pack("<d", -1.0),
        "longer_body": blob + bytes(24),
        # a read that keeps only run y finds its 4 points as 3 that validate
        "counts_swapped_filtered": counts_swapped,
        # values that validation accepts, but not those the log holds
        "changed_loss": blob[:-8] + struct.pack("<d", 1.1),
        "edited_field": _with_header(
            blob, json.dumps([[line_x, n_x, digest_x, dict(obj_x, n_params=2e8)],
                              [line_y, n_y, digest_y, obj_y]]).encode()
        ),
    }[damage]
    entry.write_bytes(damaged)
    if damage.endswith("_filtered"):
        got = read_runs(path, keep=lambda n, b, s: b == 1e6)
        assert_same_runs(got, RunSet(runs={"y": expected["y"]}))
    else:
        assert_same_runs(read_runs(path), expected)
    assert entry.read_bytes() == blob
    # ingest of the damaged entry prints what a miss prints, and mends it
    argv = ["ingest", "--runs", str(path), "--json"]
    entry.unlink()
    miss = _ingest(argv)
    entry.write_bytes(damaged)
    assert _ingest(argv) == miss
    assert entry.read_bytes() == blob


def test_every_truncation_of_an_entry_is_a_miss(cached_log):
    path, entry, expected = cached_log
    blob = entry.read_bytes()
    for size in range(len(blob)):
        entry.write_bytes(blob[:size])
        assert_same_runs(read_runs(path), expected)
        assert entry.read_bytes() == blob


def test_every_edited_byte_is_another_log(cached_log, monkeypatch):
    """No byte of a log is left out of its key: once any one byte changes,
    a read gives what parsing the new bytes gives, never the cached runs."""
    monkeypatch.setattr(runlog, "CACHE_ENTRIES", 10**6)
    path, _, _ = cached_log
    original = path.read_bytes()
    for i in range(len(original)):
        data = bytearray(original)
        data[i] ^= 1  # a digit stays a digit; most other bytes break the line
        path.write_bytes(data)
        expected = _outcome(parse_runs, bytes(data).splitlines())
        assert_same_runs(_outcome(read_runs, path), expected)


def test_unwritable_cache_directory_is_skipped(tmp_path, monkeypatch):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    path = _two_run_log(tmp_path / "runs.jsonl")
    expected = parse_runs(path.read_bytes().splitlines())
    for _ in range(2):
        assert_same_runs(read_runs(path), expected)
    assert blocker.read_text() == ""


def test_cache_directory_without_xdg_cache_home(tmp_path, monkeypatch):
    path = _two_run_log(tmp_path / "runs.jsonl")
    expected = parse_runs(path.read_bytes().splitlines())
    # a relative XDG_CACHE_HOME is no cache directory: the home's .cache is used
    monkeypatch.setenv("XDG_CACHE_HOME", "relative")
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    assert_same_runs(read_runs(path), expected)
    assert len(list((tmp_path / "home" / ".cache" / "scalelaw").iterdir())) == 1

    def no_home():
        raise RuntimeError("Could not determine home directory.")

    monkeypatch.delenv("XDG_CACHE_HOME")
    monkeypatch.setattr(Path, "home", staticmethod(no_home))
    for _ in range(2):
        assert_same_runs(read_runs(path), expected)


def test_lenient_read_with_rejections_writes_no_entry(tmp_path, run_log_cache):
    path = tmp_path / "runs.jsonl"
    path.write_text(f"{MINIMAL_LINE}\n{{oops\n")
    for _ in range(2):
        runset = read_runs(path, strict=False)
        assert list(runset.runs) == ["a"]
        assert [line_no for line_no, _ in runset.rejected] == [2]
    with pytest.raises(ParseError, match="^line 2: invalid JSON"):
        read_runs(path)
    assert not run_log_cache.exists()


def test_entry_count_is_held_at_the_cap(tmp_path, run_log_cache, monkeypatch):
    monkeypatch.setattr(runlog, "CACHE_ENTRIES", 3)
    paths = []
    for i in range(5):
        paths.append(tmp_path / f"{i}.jsonl")
        paths[-1].write_text(serialize_runs(RunSet(runs={f"r{i}": make_run(f"r{i}")}))[0] + "\n")
    for path in paths[:3]:
        read_runs(path)
    run_log_cache.joinpath("notes.txt").write_text("not an entry")
    with _no_decoding():
        read_runs(paths[0])
    for path in paths[3:]:
        read_runs(path)
    assert len(list(run_log_cache.glob("runs-*"))) == 3
    assert run_log_cache.joinpath("notes.txt").exists()
    # log 0 was used after logs 1 and 2, so they were dropped first
    with _no_decoding():
        for path in (paths[0], paths[3], paths[4]):
            read_runs(path)


def _through_fifo(fifo: Path, data: bytes, read):
    """read(fifo) while a thread writes data into the named pipe fifo."""
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,))
    writer.start()
    try:
        return read(fifo)
    finally:
        writer.join(timeout=30)
        assert not writer.is_alive()


def test_a_pipe_reads_as_its_file_on_a_miss_and_a_hit(tmp_path, run_log_cache):
    """A pipe is drained by its first pass, so it is read once; a reader that
    digested it and then parsed it again would find no runs."""
    path = _two_run_log(tmp_path / "runs.jsonl")
    data = path.read_bytes()
    expected = parse_runs(data.splitlines())
    assert_same_runs(_through_fifo(tmp_path / "miss", data, read_runs), expected)
    (entry,) = run_log_cache.iterdir()
    blob = entry.read_bytes()
    with _no_decoding():
        assert_same_runs(_through_fifo(tmp_path / "hit", data, read_runs), expected)
        assert_same_runs(read_runs(path), expected)
    # the regular file's own miss writes the same entry
    entry.unlink()
    assert_same_runs(read_runs(path), expected)
    assert entry.read_bytes() == blob


def test_a_pipe_with_rejected_lines_reads_as_its_file(tmp_path, run_log_cache):
    data = f"{MINIMAL_LINE}\n{{oops\n\n{MINIMAL_LINE}\n".encode()
    path = tmp_path / "runs.jsonl"
    path.write_bytes(data)
    expected = read_runs(path, strict=False)
    assert [line_no for line_no, _ in expected.rejected] == [2, 4]
    assert_same_runs(
        _through_fifo(tmp_path / "lenient", data, lambda p: read_runs(p, strict=False)), expected
    )
    assert _through_fifo(tmp_path / "strict", data, lambda p: _outcome(read_runs, p)) == (
        _outcome(read_runs, path)
    )
    assert not run_log_cache.exists()


def _mixed_log(path: Path) -> Path:
    """Eight runs over two model sizes, two batch sizes and both LR schemes,
    each filter's runs interleaved with the rest; 125M is written as an
    integer, as a float and a rounding step away."""
    lines = []
    for i, (n_params, batch, scheme) in enumerate([
        (125_000_000, 5e5, "origin"), (3.5e8, 5e5, "linear"), (1.25e8, 1e6, "origin"),
        (3.5e8, 1e6, "origin"), (1.25e8 * (1 + 1e-9), 5e5, "linear"), (3.5e8, 5e5, "origin"),
        (1.25e8, 5e5, "origin"), (3.5e8, 1e6, "linear"),
    ]):
        points = [[s, s * batch, 3.0 - 0.1 * s] for s in range(1, 3 + i)]
        lines.append(json.dumps(dict(
            json.loads(MINIMAL_LINE), run_id=f"r{i}", n_params=n_params,
            batch_size_tokens=batch, lr_scheme=scheme, points=points,
        )))
    path.write_text("".join(line + "\n" for line in lines))
    return path


def _read_then_filter(path: Path, model_size, batch, scheme):
    """What a verb got when it read the whole log and then filtered it."""
    runset = parse_runs(path.read_bytes().splitlines())
    runs = {
        run.run_id: run for run in runset
        if (model_size is None or math.isclose(run.model.n_params, model_size, rel_tol=1e-6))
        and (batch is None or math.isclose(run.batch_size_tokens, batch, rel_tol=1e-6))
        and (scheme is None or run.lr_scheme == LrScheme(scheme))
    }
    if not runs:
        return ValidationError, "no runs match the requested filters"
    return RunSet(runs=runs)


@pytest.mark.parametrize("filters", [
    (None, None, None), (1.25e8, None, None), (None, 1e6, None), (None, None, "linear"),
    (1.25e8, 5e5, "origin"), (9e9, None, None),
], ids=["none", "model_size", "batch", "scheme", "all", "nothing"])
@pytest.mark.parametrize("state", ["miss", "hit", "unwritable", "pipe_miss", "pipe_hit"])
def test_filtered_read_equals_read_then_filter(tmp_path, run_log_cache, monkeypatch,
                                               filters, state):
    path = _mixed_log(tmp_path / "runs.jsonl")
    expected = _read_then_filter(path, *filters)
    model_size, batch, scheme = filters

    def read(runs):
        args = Namespace(runs=str(runs), model_size=model_size, batch=batch, only_scheme=scheme)
        return _outcome(filtered_runs, args)

    if state == "unwritable":
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    if state.endswith("hit"):
        read_runs(path)
    with _no_decoding() if state.endswith("hit") else contextlib.nullcontext():
        if state.startswith("pipe"):
            got = _through_fifo(tmp_path / "fifo", path.read_bytes(), read)
        else:
            got = read(path)
    assert_same_runs(got, expected)
    if state != "unwritable":
        # the entry holds every run of the log, whichever runs the read kept
        every = parse_runs(path.read_bytes().splitlines())
        with _no_decoding():
            assert_same_runs(read_runs(path), every)


@pytest.mark.parametrize("strict", [True, False])
def test_filtered_read_parses_and_checks_every_line(tmp_path, strict):
    """A refused line is refused whichever runs the filter keeps."""
    path = _mixed_log(tmp_path / "runs.jsonl")
    path.write_text(path.read_text() + '{"run_id": "r9"}\n')
    every = _outcome(read_runs, path, strict=strict)
    got = _outcome(read_runs, path, strict=strict, keep=lambda n, b, s: s == LrScheme.LINEAR)
    if strict:
        assert got == every == (ParseError, "line 9: missing required field (field: n_params)")
    else:
        assert list(got.runs) == ["r1", "r4", "r7"] and got.rejected == every.rejected


def _per_step_log(path: Path, batches=(5e5,) * 4) -> Path:
    """A run of 20,000 checkpoints at each batch size, 4 runs about 3.3 MB."""
    steps = np.arange(1, 20_001)
    losses = 2.0 + 10.0 / np.sqrt(steps)
    path.write_text("".join(line + "\n" for line in serialize_runs(RunSet(runs={
        f"r{i}": replace(make_run(f"r{i}", batch=b), points=Curve(steps, steps * b, losses))
        for i, b in enumerate(batches)
    }))))
    return path


def test_a_hit_never_holds_the_log_bytes(tmp_path, monkeypatch):
    path = _per_step_log(tmp_path / "runs.jsonl")
    expected = read_runs(path)
    size = path.stat().st_size

    read_bytes = Path.read_bytes

    def refuse_the_log(self):
        assert self != path, "the log was read whole"
        return read_bytes(self)

    monkeypatch.setattr(Path, "read_bytes", refuse_the_log)
    tracemalloc.start()
    try:
        with _no_decoding():
            runset = read_runs(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_same_runs(runset, expected)
    # the entry holds 24 bytes a point against the log's 42: a hit that also
    # held the log's bytes would peak at about 1.8 times its size
    assert peak < size


def test_a_filtered_hit_reads_only_the_kept_points(tmp_path):
    path = _per_step_log(tmp_path / "runs.jsonl", batches=(5e5, 1e6, 2e6, 4e6))
    read_runs(path)

    def keep(n_params, batch_size_tokens, lr_scheme):
        return batch_size_tokens == 1e6

    tracemalloc.start()
    try:
        with _no_decoding():
            runset = read_runs(path, keep=keep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(runset.runs) == ["r1"]
    # the dropped runs' 24 bytes a point: a hit that loaded the whole entry
    # held them all, while this one holds the kept run's columns (0.51 MB of
    # the bound's 1.44 on numpy 2.4)
    assert peak < 24 * 3 * 20_000


def test_an_entry_is_named_by_the_bytes_it_was_parsed_from(tmp_path, run_log_cache, monkeypatch):
    """A log rewritten between the digest pass and the parse pass leaves an
    entry under the digest of what was parsed, never of what was digested."""
    path = _two_run_log(tmp_path / "runs.jsonl")
    old = path.read_bytes()
    new = old.replace(b'"lr_peak": 0.0003', b'"lr_peak": 0.0004')
    assert new != old
    digest = runlog._digest

    def digest_then_rewrite(log):
        name = digest(log)
        path.write_bytes(new)
        return name

    monkeypatch.setattr(runlog, "_digest", digest_then_rewrite)
    expected = parse_runs(new.splitlines())
    assert_same_runs(read_runs(path), expected)
    (entry,) = run_log_cache.iterdir()
    assert entry.name == f"runs-v2-{runlog.blake2b(new, digest_size=16).hexdigest()}"
    monkeypatch.setattr(runlog, "_digest", digest)
    with _no_decoding():
        assert_same_runs(read_runs(path), expected)
    path.write_bytes(old)
    assert_same_runs(read_runs(path), parse_runs(old.splitlines()))


def test_entry_bytes_are_pinned(tmp_path, run_log_cache):
    """The cache format: entry name and bytes of a small fixed log."""
    path = _two_run_log(tmp_path / "runs.jsonl")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "5d25437cb8240ad94abc1934b69ddd6368ad33d2aa29fa9df8bc476718b94f51"
    )
    read_runs(path)
    (entry,) = run_log_cache.iterdir()
    assert entry.name == "runs-v2-14b0819cf860e20b4ce43c275883b52e"
    assert hashlib.sha256(entry.read_bytes()).hexdigest() == (
        "fbd63fa8fc631d4ad839abcd4f6fd8bb94ce8bc35e4a83b021733175f8489d24"
    )


def _hashed_log_bytes(monkeypatch) -> list:
    """The byte counts fed to the log digests (16-byte blake2b) of runlog."""
    fed = []
    blake2b = runlog.blake2b

    class Counting:
        def __init__(self, *args, **kwargs):
            self._hash = blake2b(*args, **kwargs)
            self._count = kwargs.get("digest_size") == 16

        def update(self, data):
            if self._count:
                fed.append(memoryview(data).nbytes)
            self._hash.update(data)

        def hexdigest(self):
            return self._hash.hexdigest()

    monkeypatch.setattr(runlog, "blake2b", Counting)
    return fed


def test_a_miss_names_its_entry_by_the_bytes_it_parsed(tmp_path, run_log_cache, monkeypatch):
    """A miss hashes the log twice, once to look its entry up and once as it
    is parsed, and names the entry it leaves by the second digest."""
    path = _two_run_log(tmp_path / "runs.jsonl")
    log = path.read_bytes()
    expected = parse_runs(log.splitlines())
    fed = _hashed_log_bytes(monkeypatch)
    assert_same_runs(read_runs(path), expected)
    assert sum(fed) == 2 * len(log)
    (entry,) = run_log_cache.iterdir()
    assert entry.name == f"runs-v2-{hashlib.blake2b(log, digest_size=16).hexdigest()}"
    with _no_decoding():
        assert_same_runs(read_runs(path), expected)


def test_a_log_changed_while_it_is_parsed_leaves_no_entry(tmp_path, run_log_cache, monkeypatch):
    """No entry names the bytes a log was rewritten to during its parse:
    the entry left is that of the bytes parsed, so the next read parses the
    new bytes, and the old bytes, written back, hit."""
    path = _two_run_log(tmp_path / "runs.jsonl")
    old = path.read_bytes()
    new = old.replace(b'"lr_peak": 0.0003', b'"lr_peak": 0.00035')
    assert new != old
    expected_old, expected_new = parse_runs(old.splitlines()), parse_runs(new.splitlines())
    parse_lines = runlog._parse_lines

    def parse_then_rewrite(lines, strict, accepted):
        runset = parse_lines(lines, strict, accepted)
        path.write_bytes(new)
        return runset

    monkeypatch.setattr(runlog, "_parse_lines", parse_then_rewrite)
    assert_same_runs(read_runs(path), expected_old)
    monkeypatch.setattr(runlog, "_parse_lines", parse_lines)
    (entry,) = run_log_cache.iterdir()
    assert entry.name == f"runs-v2-{hashlib.blake2b(old, digest_size=16).hexdigest()}"
    parsed = []
    monkeypatch.setattr(runlog, "_parse_lines", lambda *args: parsed.append(1) or parse_lines(*args))
    assert_same_runs(read_runs(path), expected_new)
    assert parsed == [1]
    assert len(list(run_log_cache.iterdir())) == 2
    path.write_bytes(old)
    with _no_decoding():
        assert_same_runs(read_runs(path), expected_old)


def _ingest(argv: list[str]) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of cli.main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=75, deadline=None, derandomize=True)
@given(data=_run_logs())
def test_ingest_prints_the_same_on_a_miss_and_a_hit(data):
    """A hit takes ingest's summary from the entry, a miss from the parsed
    runs; both print the same bytes, strict and lenient."""
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, XDG_CACHE_HOME=tmp):
        cache = Path(tmp, "scalelaw")
        path = Path(tmp, "runs.jsonl")
        path.write_bytes(data)
        for lenient in ([], ["--lenient"]):
            argv = ["ingest", "--runs", str(path), "--json", *lenient]
            for entry in cache.glob("*"):
                entry.unlink()
            miss = _ingest(argv)
            stored = any(cache.glob("*"))
            with _no_decoding() if stored else contextlib.nullcontext():
                assert _ingest(argv) == miss


def test_non_utf8_line_is_parse_error(tmp_path):
    path = tmp_path / "runs.jsonl"
    path.write_bytes(MINIMAL_LINE.encode() + b'\n{"run_id": "a\xff"}\n')
    message = "line 2: invalid UTF-8 at byte 13: invalid start byte"
    with pytest.raises(ParseError) as info:
        read_runs(path)
    assert str(info.value) == message
    lenient = read_runs(path, strict=False)
    assert list(lenient.runs) == ["a"] and lenient.rejected == [(2, message)]
    assert parse_runs([b'{"run_id": "a\xff"}'], strict=False).rejected == [
        (1, message.replace("line 2", "line 1"))
    ]


# lines the JSON decoder itself gives up on: nested past its recursion
# limit, and an integer past the int-string conversion limit
DEEP_LINE = "[" * 100_000 + "]" * 100_000
LONG_INT_LINE = MINIMAL_LINE.replace("125000000.0", "1" * 5000)


@pytest.mark.parametrize("line", [DEEP_LINE, LONG_INT_LINE], ids=["deep", "digits"])
def test_line_past_decoder_limits_is_parse_error(tmp_path, line):
    path = tmp_path / "runs.jsonl"
    path.write_text(MINIMAL_LINE + "\n" + line + "\n")
    with pytest.raises(ParseError, match="^line 2: invalid JSON: ") as info:
        read_runs(path)
    lenient = read_runs(path, strict=False)
    assert list(lenient.runs) == ["a"] and lenient.rejected == [(2, str(info.value))]


def test_read_runs_numbers_lines_as_text_mode_does(tmp_path):
    path = tmp_path / "runs.jsonl"
    path.write_bytes(
        MINIMAL_LINE.encode() + b"\r{oops\r\n\n" + MINIMAL_LINE.encode() + b"\r\rnull"
    )
    runset = read_runs(path, strict=False)
    assert list(runset.runs) == ["a"]
    assert [line_no for line_no, _ in runset.rejected] == [2, 4, 6]


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


def test_smooth_curve_over_blocks_matches_the_pointwise_recurrence():
    """Three blocks and a part, irregular token gaps, a non-zero discard:
    the same bits as the recurrence run over whole lists."""
    rng = np.random.default_rng(5)
    n = 3 * runlog._ROWS_PER_CHUNK + 1234
    steps = np.cumsum(rng.integers(1, 40, n))
    tokens = steps * 5e5
    losses = 2.0 + 10.0 / np.sqrt(steps) + rng.normal(0.0, 0.01, n)
    discard = 0.07
    out = smooth_curve(Curve(steps, tokens, losses), 3.3e8, discard)
    keep = tokens >= discard * tokens[-1]
    assert 0 < n - keep.sum() and keep.sum() > 2 * runlog._ROWS_PER_CHUNK
    kept_tokens, kept_losses = tokens[keep].tolist(), losses[keep].tolist()
    expected = [kept_losses[0]]
    weighted, weight = kept_losses[0], 1.0
    for prev, cur, loss in zip(kept_tokens, kept_tokens[1:], kept_losses[1:]):
        decay = 0.5 ** ((cur - prev) / 3.3e8)
        weighted = weighted * decay + loss
        weight = weight * decay + 1.0
        expected.append(weighted / weight)
    assert out.loss.tobytes() == np.array(expected).tobytes()
    assert np.array_equal(out.step, steps[keep]) and np.array_equal(out.tokens, tokens[keep])


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


def test_runset_keeps_each_smoothed_curve_for_its_life(tmp_path):
    losses = tuple(3.0 - 0.01 * i for i in range(60))
    runset = RunSet(runs={rid: make_run(rid, losses=losses) for rid in ("x", "y")})
    twin = replace(runset)
    shown, as_dict = repr(runset), repr(runset.to_dict())
    path = tmp_path / "runs.jsonl"
    path.write_text("".join(line + "\n" for line in serialize_runs(runset)))

    def rows(curve):
        return [column.tolist() for column in curve.columns]

    with mock.patch.object(runlog, "smooth_run", wraps=runlog.smooth_run) as spy:
        first = runset.smoothed("x")
        assert runset.smoothed("x") is first
        assert spy.call_count == 1
        assert rows(first) == rows(smooth_run(runset["x"]).points)
        # other settings are other curves, each kept beside the first
        wider = runset.smoothed("x", 0.05)
        shorter = runset.smoothed("x", discard_fraction=0.0)
        assert rows(wider) == rows(smooth_run(runset["x"], half_life_fraction=0.05).points)
        assert rows(shorter) == rows(smooth_run(runset["x"], discard_fraction=0.0).points)
        assert len({id(first), id(wider), id(shorter)}) == 3
        spy.reset_mock()
        assert runset.smoothed("x", 0.05) is wider
        assert runset.smoothed("x", discard_fraction=0.0) is shorter
        assert spy.call_count == 0
        # a subset, a replaced set and each read of the log keep nothing yet
        for fresh in (runset.subset(["x"]), replace(runset), read_runs(path), read_runs(path)):
            assert fresh.smoothed("x") is not first
        assert spy.call_count == 4
    # the kept curves are no part of the set's value
    assert runset == twin
    assert (repr(runset), repr(runset.to_dict())) == (shown, as_dict)
