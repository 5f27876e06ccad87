"""Training-run records: JSONL ingestion, curve smoothing and loss-to-tokens
inversion.

A run is a loss curve sampled at checkpoint steps, tagged with the model
size and optimizer settings that produced it.  Everything downstream
(law fitting, envelopes, contours, surfaces) consumes these records.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import stat
import sys
import time
from array import array
from bisect import bisect_left
from pathlib import Path
from typing import Callable, Iterable, Iterator

from ._atomic import write_atomic
from ._lazy import np
from ._record import Record, field, replace
from .errors import (
    ConflictError,
    InsufficientDataError,
    ParseError,
    PreRangeLossError,
    ScaleLawError,
    UnreachableLossError,
    ValidationError,
    check_positive,
)
from .laws import LrScheme, decode_json, read_field

try:
    # hashlib's own blake2b, also the generator's noise hash; importing
    # hashlib itself loads OpenSSL, about 5 ms of every verb
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b

# Smoothing defaults: EMA half-life as a fraction of the run's total tokens,
# and the minimum leading fraction discarded as optimizer transient.
DEFAULT_HALF_LIFE_FRACTION = 0.01
DEFAULT_DISCARD_FRACTION = 0.01

# The run-log cache keeps the decoded points of each log content, by the
# blake2b digest of its bytes.  A hit serves the runs whose digests it
# verifies without validating them again, since they were validated when
# the entry was written: bump CACHE_FORMAT whenever point decoding or the
# rules of RunRecord.validate change.  Entries of another format are never
# read, and age out.
CACHE_FORMAT = 2
CACHE_ENTRIES = 64


class ModelSpec(Record, frozen=True):
    """Architecture summary attached to a run.

    ``n_params`` is the non-embedding parameter count including the logits
    head, and is trusted as given.
    """

    n_params: float
    label: str = ""
    seq_len: int | None = None

    def __post_init__(self) -> None:
        check_positive("n_params", self.n_params)


class Curve(Record, frozen=True, eq=False):
    """A loss curve: optimizer steps, cumulative tokens and observed losses.

    Its ``columns`` are three equal-length 1-D read-only memoryviews (int64
    steps, float64 tokens and losses), one entry per checkpoint, which
    smoothing, the contours and the row writers read as Python numbers.  A
    column given as such a memoryview is kept; any other (a numpy array, a
    list) is converted once by numpy.  ``step``, ``tokens`` and ``loss`` are
    read-only numpy views of the columns, each built when first read, so a
    process that never reads one never loads numpy.
    """

    step: np.ndarray
    tokens: np.ndarray
    loss: np.ndarray

    def __post_init__(self) -> None:
        given = [self.__dict__.pop(name) for name in _CURVE_FIELDS]
        columns = [
            value if _is_column(value, code) else memoryview(np.asarray(value, dtype))
            for value, code, dtype in zip(given, _CURVE_TYPECODES, _CURVE_DTYPES)
        ]
        if not (
            all(column.ndim == 1 for column in columns)
            and len(columns[0]) == len(columns[1]) == len(columns[2])
        ):
            raise ValidationError("curve columns must be 1-D arrays of equal length")
        if columns[0] is not given[0] and not np.array_equal(columns[0], given[0]):
            raise ValidationError("curve steps must be whole numbers")
        self.__dict__["columns"] = tuple(column.toreadonly() for column in columns)

    def __getattr__(self, name: str):
        # called only for an attribute not in __dict__: a column whose array
        # has not been read yet, which becomes a view of its buffer
        if name in _CURVE_FIELDS and "columns" in self.__dict__:
            view = np.asarray(self.columns[_CURVE_FIELDS.index(name)])
            self.__dict__[name] = view
            return view
        raise AttributeError(f"{type(self).__qualname__!r} object has no attribute {name!r}")

    def __reduce__(self):
        return Curve, (self.step, self.tokens, self.loss)

    def __len__(self) -> int:
        return len(self.columns[2])


# a Curve's fields, the array typecodes of their buffers and their numpy dtypes
_CURVE_FIELDS = ("step", "tokens", "loss")
_CURVE_TYPECODES = ("q", "d", "d")
_CURVE_DTYPES = ("int64", "float64", "float64")


def _is_column(value, code: str) -> bool:
    """True for a 1-D memoryview of the typecode's 8-byte numbers."""
    return (
        isinstance(value, memoryview)
        and value.ndim == 1
        and value.itemsize == 8
        and value.format in (("q", "l") if code == "q" else ("d",))
    )


class RunRecord(Record):
    """One training run and its loss curve."""

    run_id: str
    model: ModelSpec
    batch_size_tokens: float
    lr_peak: float
    lr_scheme: LrScheme
    warmup_steps: int
    decay_steps: int
    points: Curve
    lr_scale: float = 1.0

    def validate(self) -> None:
        if not self.run_id:
            raise ValidationError("run_id must be a non-empty string")
        if not (self.batch_size_tokens > 0 and math.isfinite(self.batch_size_tokens)):
            raise ValidationError(f"run {self.run_id}: batch_size_tokens must be positive")
        if not (self.lr_peak > 0 and math.isfinite(self.lr_peak)):
            raise ValidationError(f"run {self.run_id}: lr_peak must be positive")
        if not (self.lr_scale > 0 and math.isfinite(self.lr_scale)):
            raise ValidationError(
                f"run {self.run_id}: lr_scale must be positive and finite, got {self.lr_scale}"
            )
        if self.warmup_steps < 0 or self.decay_steps < 0:
            raise ValidationError(f"run {self.run_id}: step counts must be non-negative")
        if not len(self.points):
            raise ValidationError(f"run {self.run_id}: empty loss curve")
        step, tokens, loss = self.points.step, self.points.tokens, self.points.loss
        bad = step < 1
        if bad.any():
            raise ValidationError(
                f"run {self.run_id}: step must be >= 1, got {step[bad.argmax()]}"
            )
        if not np.all(tokens > 0):
            raise ValidationError(f"run {self.run_id}: tokens must be positive")
        bad = np.isnan(loss) | (loss <= 0)
        if bad.any():
            raise ValidationError(
                f"run {self.run_id}: loss must be positive, got {loss[bad.argmax()]}"
            )
        if np.any(step[1:] <= step[:-1]) or np.any(tokens[1:] <= tokens[:-1]):
            raise ValidationError(
                f"run {self.run_id}: points must be strictly increasing in step and tokens"
            )
        # tokens track step * batch exactly; the final checkpoint may sit
        # on a partial batch.
        b = float(self.batch_size_tokens)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = step * b
            slack = np.maximum(1e-6 * expected, 1e-9)
            slack[-1] = b
            bad = np.abs(tokens - expected) > slack
        if bad.any():
            i = bad.argmax()
            raise ValidationError(
                f"run {self.run_id}: tokens {tokens[i]} inconsistent with "
                f"step {step[i]} x batch {b}"
            )


def check_new_run_id(seen, run_id: str) -> None:
    """Raise ConflictError if run_id is in seen, the run ids (or runs by id) so far."""
    if run_id in seen:
        raise ConflictError(f"duplicate run_id {run_id!r}")


class RunSet(Record):
    """An ordered collection of runs with unique ids."""

    runs: dict[str, RunRecord] = field(default_factory=dict)
    rejected: list[tuple[int, str]] = field(default_factory=list)

    def __iter__(self) -> Iterator[RunRecord]:
        return iter(self.runs.values())

    def __len__(self) -> int:
        return len(self.runs)

    def __contains__(self, run_id: str) -> bool:
        return run_id in self.runs

    def __getitem__(self, run_id: str) -> RunRecord:
        return self.runs[run_id]

    def add(self, run: RunRecord) -> None:
        check_new_run_id(self.runs, run.run_id)
        run.validate()
        self.runs[run.run_id] = run

    def model_sizes(self) -> list[float]:
        seen: list[float] = []
        for run in self:
            if run.model.n_params not in seen:
                seen.append(run.model.n_params)
        return seen

    def subset(self, run_ids: Iterable[str]) -> "RunSet":
        out = RunSet()
        for rid in run_ids:
            out.add(self.runs[rid])
        return out

    def smoothed(
        self,
        run_id: str,
        half_life_fraction: float = DEFAULT_HALF_LIFE_FRACTION,
        discard_fraction: float | None = None,
    ) -> Curve:
        """smooth_run(self[run_id], ...).points, kept by run id and settings
        for the life of the set.

        The kept curves sit in ``__dict__`` outside the fields, so ``==``,
        ``repr`` and ``to_dict()`` ignore them and ``subset()``,
        ``replace()`` and ``read_runs`` give sets that hold none.  ``add``
        refuses a taken id, so a kept curve cannot go stale.
        """
        kept = self.__dict__.setdefault("_smoothed", {})
        key = (run_id, half_life_fraction, discard_fraction)
        if key not in kept:
            kept[key] = smooth_run(
                self.runs[run_id],
                half_life_fraction=half_life_fraction,
                discard_fraction=discard_fraction,
            ).points
        return kept[key]


_REQUIRED_FIELDS = (
    "run_id",
    "n_params",
    "batch_size_tokens",
    "lr_peak",
    "lr_scheme",
    "warmup_steps",
    "decay_steps",
    "points",
)


def _coerce(obj: dict, name: str, kind: type, line_no: int | None, *default):
    """read_field of a run-log line; ParseError with the line number if refused.

    An integer too large for a float is refused too.
    """
    try:
        return read_field(obj, name, kind, *default)
    except (TypeError, OverflowError) as exc:
        raise ParseError(str(exc), line_no=line_no, field=name) from None


def _step_count(obj: dict, name: str, line_no: int | None) -> int:
    """A whole-run step count, held to the 64-bit bound of point steps so
    the float arithmetic of smoothing can use it."""
    value = _coerce(obj, name, int, line_no)
    if abs(value) >= 2**63:
        raise ParseError("step count must fit in 64 bits", line_no=line_no, field=name)
    return value


def _curve_from_rows(rows: list, line_no: int | None) -> Curve:
    """The [step, tokens, loss] rows of a record as a Curve.

    Rows of plain numbers take one array conversion.  Anything else
    (strings, nulls, nested lists, non-integral steps, steps a float cannot
    hold exactly) goes through _scan_rows, which names the first bad point.
    """
    try:
        table = np.array(rows)
        plain = table.dtype.kind in "bif" and table.shape == (len(rows), 3)
    except (TypeError, ValueError, OverflowError):
        plain = False
    if plain and table.dtype.kind == "f":
        step = table[:, 0]
        plain = bool(np.all((np.floor(step) == step) & (np.abs(step) < 2.0**53)))
    return Curve(*table.T) if plain else _scan_rows(rows, line_no)


def _scan_rows(rows: list, line_no: int | None) -> Curve:
    """_curve_from_rows one point at a time, with Python's int() and float()."""
    parsed = []
    try:
        for entry in rows:
            if not (isinstance(entry, list) and len(entry) == 3):
                raise ParseError(
                    "each point must be a [step, tokens, loss] triple",
                    line_no=line_no,
                    field="points",
                )
            step, tokens, loss = entry
            if isinstance(step, float) and not step.is_integer():
                raise ParseError("step must be an integer", line_no=line_no, field="points")
            parsed.append((int(step), float(tokens), float(loss)))
    except (TypeError, ValueError, OverflowError):
        raise ParseError(
            f"point {len(parsed)} must hold numbers, got {rows[len(parsed)]!r}",
            line_no=line_no,
            field="points",
        ) from None
    try:
        return Curve(*zip(*parsed))
    except OverflowError:
        raise ParseError("step must fit in 64 bits", line_no=line_no, field="points") from None


def _record_from_obj(obj: dict, line_no: int | None) -> RunRecord:
    for name in _REQUIRED_FIELDS:
        if name not in obj:
            raise ParseError("missing required field", line_no=line_no, field=name)
    try:
        scheme = LrScheme(obj["lr_scheme"])
    except ValueError:
        raise ParseError(
            f"unknown lr_scheme {obj['lr_scheme']!r}", line_no=line_no, field="lr_scheme"
        )
    raw_points = obj["points"]
    if isinstance(raw_points, Curve):  # decoded by an earlier read of the same log
        points = raw_points
    elif not isinstance(raw_points, list) or not raw_points:
        raise ParseError("points must be a non-empty list", line_no=line_no, field="points")
    else:
        points = _curve_from_rows(raw_points, line_no)
    seq_len = obj.get("seq_len")
    # bool is a subclass of int; JSON true is no sequence length
    if seq_len is not None and not (type(seq_len) is int and seq_len > 0):
        raise ParseError(
            f"seq_len must be null or a positive integer, got {seq_len!r}",
            line_no=line_no,
            field="seq_len",
        )
    model = ModelSpec(
        n_params=_coerce(obj, "n_params", float, line_no),
        label=_coerce(obj, "label", str, line_no, ""),
        seq_len=seq_len,
    )
    return RunRecord(
        run_id=_coerce(obj, "run_id", str, line_no),
        model=model,
        batch_size_tokens=_coerce(obj, "batch_size_tokens", float, line_no),
        lr_peak=_coerce(obj, "lr_peak", float, line_no),
        lr_scheme=scheme,
        warmup_steps=_step_count(obj, "warmup_steps", line_no),
        decay_steps=_step_count(obj, "decay_steps", line_no),
        points=points,
        lr_scale=_coerce(obj, "lr_scale", float, line_no, 1.0),
    )


def parse_runs(lines: Iterable[str | bytes], strict: bool = True) -> RunSet:
    """Parse JSONL run records into a validated RunSet.

    One JSON object per line; blank lines are skipped.  A line given as
    bytes is decoded as UTF-8.  In strict mode the first malformed or
    conflicting line raises.  With ``strict=False`` bad lines are skipped
    and reported in ``RunSet.rejected`` as ``(line_no, reason)`` pairs.
    """
    return _parse_lines(lines, strict)


def _parse_lines(
    lines: Iterable[str | bytes], strict: bool, accepted: list | None = None
) -> RunSet:
    """parse_runs; ``accepted`` collects the ``(line_no, obj)`` of each run,
    its points taken out of obj."""
    runset = RunSet()
    for line_no, line in enumerate(lines, start=1):
        try:
            stripped = _text(line, line_no).strip()
            if not stripped:
                continue
            obj = decode_json(stripped, line_no)
            _add_record(runset, obj, line_no)
            if accepted is not None:
                del obj["points"]
                accepted.append((line_no, obj))
        except (ParseError, ConflictError, ValidationError) as exc:
            if strict:
                raise
            runset.rejected.append((line_no, str(exc)))
    return runset


def _text(line: str | bytes, line_no: int) -> str:
    if isinstance(line, str):
        return line
    try:
        return line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"invalid UTF-8 at byte {exc.start}: {exc.reason}", line_no=line_no
        ) from None


def _add_record(runset: RunSet, obj, line_no: int) -> None:
    """Read, validate and add the run of one decoded line."""
    if not isinstance(obj, dict):
        raise ParseError("each line must be a JSON object", line_no=line_no)
    record = _record_from_obj(obj, line_no)
    if record.run_id in runset:
        raise ConflictError(f"line {line_no}: duplicate run_id {record.run_id!r}")
    record.validate()
    runset.runs[record.run_id] = record


def read_runs(
    path: str | Path,
    strict: bool = True,
    keep: Callable[[float, float, LrScheme], bool] | None = None,
) -> RunSet:
    """parse_runs of the run log at path, decoding each log content once.

    With ``keep``, only the runs for which ``keep(n_params,
    batch_size_tokens, lr_scheme)`` is true are returned, in log order, as
    if the whole log had been read and then filtered: every line is still
    parsed and checked on a miss, and ``rejected`` still names every
    refused line.

    The file is read a line at a time, its lines split as text mode splits
    them (at ``\\n``, ``\\r\\n`` and ``\\r``) and decoded as UTF-8.  A log
    that parses without a rejected line leaves an entry, named by the
    blake2b digest of its bytes, under ``$XDG_CACHE_HOME/scalelaw`` (or
    ``~/.cache/scalelaw``), holding all of its runs and a digest of each
    run's fields and points.  A later read of the same bytes rebuilds the
    runs from that entry: it reads the entry's header of run fields and
    then only the curve points of the runs ``keep`` takes, and it checks
    each of those runs against its digest.  A verified run was validated
    when the entry was written, so it is not validated again.  An entry
    that is missing, damaged or fails a digest is a miss, and so is a cache
    directory that cannot be located or written: the log is parsed, so the
    cache never changes the result.  The CACHE_ENTRIES most recently used
    entries are kept.

    A regular file is digested through a fixed buffer first, so a hit never
    holds the log's bytes.  A miss then parses the file again from the
    start, hashing the bytes it parses, and names its entry by that digest:
    a file rewritten during the read leaves the entry of what was parsed.
    A log that is not a regular file (a pipe, ``/dev/stdin``) would be
    drained by the first pass, so its bytes are read once and both passes
    run on them.
    """
    cache = _cache_dir()
    with open(path, "rb") as handle:
        regular = stat.S_ISREG(os.fstat(handle.fileno()).st_mode)
        log = handle if regular else io.BytesIO(handle.read())
        if cache is not None:
            hit = _load_entry(cache / _entry_name(_digest(log)), keep)
            if hit is not None:
                return hit
            log.seek(0)
        digest = blake2b(digest_size=16)
        accepted: list = []
        runset = _parse_lines(_split_lines(log, digest), strict, accepted)
    if cache is not None and len(runset) and not runset.rejected:
        _store_entry(cache / _entry_name(digest.hexdigest()), accepted, runset)
    if keep is None:
        return runset
    runs = {
        run_id: run for run_id, run in runset.runs.items()
        if keep(run.model.n_params, run.batch_size_tokens, run.lr_scheme)
    }
    return RunSet(runs=runs, rejected=runset.rejected)


def _split_lines(log, digest) -> Iterator[bytes]:
    """The lines of a binary stream, one at a time, split where text mode
    splits them; each chunk read is fed to digest."""
    for chunk in log:
        digest.update(chunk)
        yield from chunk.splitlines()


# the fixed buffer through which a log is hashed before its entry is looked up
_BUFFER_BYTES = 1 << 16


def _digest(log) -> str:
    """The blake2b digest of the rest of a binary stream, read through one
    fixed buffer."""
    digest = blake2b(digest_size=16)
    buffer = bytearray(_BUFFER_BYTES)
    view = memoryview(buffer)
    while size := log.readinto(buffer):
        digest.update(view[:size])
    return digest.hexdigest()


def _cache_dir() -> Path | None:
    """The run-log cache directory; None without a home directory."""
    root = os.environ.get("XDG_CACHE_HOME", "")
    try:
        base = Path(root) if os.path.isabs(root) else Path.home() / ".cache"
    except RuntimeError:  # no home directory
        return None
    return base / "scalelaw"


def _entry_name(digest: str) -> str:
    return f"runs-v{CACHE_FORMAT}-{digest}"


# An entry is the byte length of its header (8 bytes, little-endian), the
# header, a JSON list holding [line_no, point count, digest, obj without
# points] for each run, then the step, tokens and loss columns of all runs
# end to end (little-endian int64, float64 and float64).  A run's digest is
# the hex of _run_digest updated with its step, tokens and loss slices.
_COLUMNS = (("step", "<i8"), ("tokens", "<f8"), ("loss", "<f8"))

# what reading a damaged entry, or one of another format, can raise
_DAMAGED = (OSError, ValueError, TypeError, LookupError, OverflowError, RecursionError,
            ScaleLawError)


def _run_digest(line_no: int, n: int, obj):
    """The 64-bit blake2b of a run's header item, before its points."""
    return blake2b(json.dumps([line_no, n, obj]).encode(), digest_size=8)


def _read_header(handle) -> tuple[list, int, int]:
    """The header of an open entry, where its columns start and its total
    point count; ValueError if the entry's length does not match them."""
    length = os.fstat(handle.fileno()).st_size
    size = int.from_bytes(handle.read(8), "little")
    if 8 + size > length:
        raise ValueError("entry shorter than its header")
    header = json.loads(handle.read(size))
    total = sum(n for _, n, _, _ in header)
    if length != 8 + size + 24 * total:
        raise ValueError("entry length does not match its point count")
    return header, 8 + size, total


def _load_entry(entry: Path, keep) -> RunSet | None:
    """The runs of an entry that keep takes, reading and verifying only their points."""
    try:
        with open(entry, "rb") as handle:
            header, base, total = _read_header(handle)
            kept = []  # (line_no, first point in the columns, point count, digest, obj)
            start = 0
            for line_no, n, digest, obj in header:
                if keep is None or keep(*_filter_fields(obj, line_no)):
                    kept.append((line_no, start, n, digest, obj))
                start += n
            # one stdlib array a column for the kept runs, each run's slice
            # read into it and hashed
            count = sum(n for _, _, n, _, _ in kept)
            hashes = [_run_digest(line_no, n, obj) for line_no, _, n, _, obj in kept]
            columns = []
            for c, code in enumerate(_CURVE_TYPECODES):
                column = array(code, [0]) * count
                view = memoryview(column)
                at = 0
                for (_, start, n, _, _), run_hash in zip(kept, hashes):
                    handle.seek(base + 8 * (c * total + start))
                    piece = view[at : at + n]
                    if handle.readinto(piece) != 8 * n:
                        return None
                    run_hash.update(piece)
                    at += n
                if sys.byteorder == "big":  # the entry is little-endian
                    column.byteswap()
                columns.append(view)
        if any(h.hexdigest() != digest for h, (_, _, _, digest, _) in zip(hashes, kept)):
            return None
        runset = RunSet()
        at = 0
        for line_no, _, n, _, obj in kept:
            obj["points"] = Curve(*(column[at : at + n] for column in columns))
            record = _record_from_obj(obj, line_no)
            check_new_run_id(runset.runs, record.run_id)
            runset.runs[record.run_id] = record
            at += n
    # an entry that cannot be read, is not of this format or fails a
    # digest: the log is parsed instead
    except _DAMAGED:
        return None
    _touch(entry)
    return runset


def _filter_fields(obj: dict, line_no: int) -> tuple[float, float, LrScheme]:
    """The n_params, batch_size_tokens and lr_scheme of an entry's run, as
    its record holds them."""
    return (
        _coerce(obj, "n_params", float, line_no),
        _coerce(obj, "batch_size_tokens", float, line_no),
        LrScheme(obj["lr_scheme"]),
    )


def _store_entry(entry: Path, accepted: list, runset: RunSet) -> None:
    columns = [
        [np.ascontiguousarray(getattr(run.points, name), dtype) for name, dtype in _COLUMNS]
        for run in runset
    ]
    items = []
    for (line_no, obj), run_columns in zip(accepted, columns):
        n = len(run_columns[0])
        run_hash = _run_digest(line_no, n, obj)
        for column in run_columns:
            run_hash.update(column)
        items.append([line_no, n, run_hash.hexdigest(), obj])
    header = json.dumps(items).encode()

    def chunks():
        yield len(header).to_bytes(8, "little")
        yield header
        # each column of all runs end to end, written a run at a time
        for c in range(len(_COLUMNS)):
            for run_columns in columns:
                yield run_columns[c]

    # an unwritable cache only costs the next read a parse
    with contextlib.suppress(OSError):
        entry.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(entry, chunks(), binary=True)
        _touch(entry)
        entries = sorted(
            entry.parent.glob("runs-v*"), key=lambda p: p.stat().st_mtime_ns, reverse=True
        )
        for stale in entries[CACHE_ENTRIES:]:
            stale.unlink()


def _touch(entry: Path) -> None:
    """Mark an entry as just used; the least recently used are dropped first."""
    now = time.time_ns()
    with contextlib.suppress(OSError):
        os.utime(entry, ns=(now, now))


# Checkpoints per block: a run's line is written a block of point rows at a
# time (one json.dumps call each), so its writer never holds the whole line,
# and the generator draws a run's losses a block at a time.  json.dumps of a
# block holds about 500 bytes of encoder chunks a row.
_ROWS_PER_CHUNK = 512


def _line_chunks(run: RunRecord) -> Iterator[str]:
    """The canonical JSON line of one run, without its newline, as chunks of text.

    The line is ``json.dumps`` of the run's fields with sorted keys.  The
    keys before "points", each block of point rows and the keys after
    "points" are separate chunks.
    """
    fields = {
        "run_id": run.run_id,
        "n_params": run.model.n_params,
        "batch_size_tokens": run.batch_size_tokens,
        "lr_peak": run.lr_peak,
        "lr_scheme": run.lr_scheme.value,
        "lr_scale": run.lr_scale,
        "warmup_steps": run.warmup_steps,
        "decay_steps": run.decay_steps,
    }
    if run.model.label:
        fields["label"] = run.model.label
    if run.model.seq_len is not None:
        fields["seq_len"] = run.model.seq_len
    head = json.dumps({k: v for k, v in fields.items() if k < "points"}, sort_keys=True)
    yield head[:-1] + ', "points": ['
    separator = ""
    for rows in _row_blocks(run.points):
        text = json.dumps(list(rows))[1:-1]
        del rows  # the block's rows go before its text is handed on
        if separator:
            yield separator
        separator = ", "
        yield text
    tail = json.dumps({k: v for k, v in fields.items() if k > "points"}, sort_keys=True)
    yield "], " + tail[1:]


def _row_blocks(curve: Curve) -> Iterator[Iterator[tuple[int, float, float]]]:
    """The (step, tokens, loss) rows of a curve as Python numbers, read
    from its columns, a block of _ROWS_PER_CHUNK rows at a time."""
    step, tokens, loss = curve.columns
    for start in range(0, len(curve), _ROWS_PER_CHUNK):
        block = slice(start, start + _ROWS_PER_CHUNK)
        yield zip(step[block].tolist(), tokens[block].tolist(), loss[block].tolist())


def serialize_runs(runset: Iterable[RunRecord]) -> list[str]:
    """Emit one canonical JSON line per run; inverse of parse_runs."""
    return ["".join(_line_chunks(run)) for run in runset]


def write_runs(path: str | Path, runs: Iterable[RunRecord]) -> int:
    """Write the runs as a run log, the lines of serialize_runs, and count them.

    The runs are taken and written one at a time, each line a block of
    point rows at a time, so the writer holds one run and one block, not
    the log or its text.  A log of no runs is a single blank line.
    """
    count = 0

    def chunks():
        nonlocal count
        for run in runs:
            yield from _line_chunks(run)
            yield "\n"
            count += 1
        if not count:
            yield "\n"

    write_atomic(path, chunks())
    return count


def _finite_count(values) -> int:
    """The number of leading finite numbers of a float buffer."""
    # a finite sum has no non-finite term, so only a buffer holding one (or
    # whose sum overflows) is scanned
    if math.isfinite(sum(values)):
        return len(values)
    return next((i for i, value in enumerate(values) if not math.isfinite(value)), len(values))


def finite_prefix(curve: Curve) -> Curve:
    """The leading span of a curve before the first non-finite loss."""
    n = _finite_count(curve.columns[2])
    return curve if n == len(curve) else Curve(*(column[:n] for column in curve.columns))


def has_divergence(curve: Curve) -> bool:
    """True when the curve has a non-finite loss or ends above twice its start."""
    if not len(curve):
        raise InsufficientDataError("an empty curve can neither converge nor diverge")
    loss = curve.columns[2]
    return _finite_count(loss) < len(loss) or loss[-1] > 2.0 * loss[0]


def smooth_curve(
    curve: Curve,
    half_life_tokens: float,
    discard_fraction: float = 0.0,
) -> Curve:
    """Discard the leading transient and smooth the rest with a token-weighted EMA.

    Points with tokens below ``discard_fraction`` of the final token count are
    dropped.  The remaining losses are replaced by a bias-corrected
    exponential moving average whose weight halves every ``half_life_tokens``
    tokens, so with a half-life much longer than the curve the result tends
    to the running mean.  Steps and token counts are left untouched.  The
    recurrence runs on Python floats, one checkpoint at a time, read from
    the curve's buffers, so it never holds the curve as lists.

    Args:
        curve: strictly increasing checkpoints with finite losses.
        half_life_tokens: token distance at which a sample's weight halves.
        discard_fraction: leading fraction of total tokens to drop.

    Returns:
        A new Curve holding the kept steps and tokens and the smoothed losses.

    Raises:
        InsufficientDataError: fewer than two points survive the discard.
        ValidationError: non-finite losses or a non-positive half-life.
    """
    check_positive("half_life_tokens", half_life_tokens)
    if not 0 <= discard_fraction < 1:
        raise ValidationError("discard_fraction must be in [0, 1)")
    step, tokens, loss = curve.columns
    if _finite_count(loss) < len(loss):
        raise ValidationError("smooth_curve requires finite losses; trim with finite_prefix")
    if len(tokens):
        # tokens increase, so the points kept are those from the first at
        # or above the cut
        start = bisect_left(tokens, discard_fraction * tokens[-1])
        step, tokens, loss = step[start:], tokens[start:], loss[start:]
    if len(loss) < 2:
        raise InsufficientDataError(
            f"only {len(loss)} points remain after discarding the first "
            f"{discard_fraction:.0%} of tokens; need at least 2"
        )
    weighted = loss[0]
    weight = 1.0
    out = array("d", [weighted])
    for prev_tokens, cur_tokens, value in zip(tokens, tokens[1:], loss[1:]):
        decay = 0.5 ** ((cur_tokens - prev_tokens) / half_life_tokens)
        weighted = weighted * decay + value
        weight = weight * decay + 1.0
        out.append(weighted / weight)
    return Curve(step, tokens, memoryview(out))


def smooth_run(
    run: RunRecord,
    half_life_fraction: float = DEFAULT_HALF_LIFE_FRACTION,
    discard_fraction: float | None = None,
) -> RunRecord:
    """Apply the default smoothing policy to one run.

    The half-life is a fraction of the run's total tokens and the discard
    span is the larger of ``DEFAULT_DISCARD_FRACTION`` and the warm-up span.
    Non-finite tails (diverged runs) are trimmed before smoothing.
    """
    points = finite_prefix(run.points)
    if len(points) < 2:
        raise InsufficientDataError(f"run {run.run_id}: fewer than 2 finite points")
    total = points.columns[1][-1]
    if discard_fraction is None:
        warm_span = run.warmup_steps * run.batch_size_tokens / total
        discard_fraction = min(0.9, max(DEFAULT_DISCARD_FRACTION, warm_span))
    smoothed = smooth_curve(points, half_life_fraction * total, discard_fraction)
    return replace(run, points=smoothed)


def tokens_at_loss(curve: Curve, target_loss: float) -> float:
    """Tokens at which the curve's running minimum first reaches target_loss.

    Interpolates piecewise-linearly in (log tokens, loss) on the monotone
    envelope of ``curve.loss`` against ``curve.tokens``.  Raises
    PreRangeLossError when the target sits above the first recorded loss and
    UnreachableLossError when it sits below the best loss the curve ever
    attains.
    """
    return loss_inverse(curve)(target_loss)


def loss_inverse(curve: Curve) -> Callable[[float], float]:
    """tokens_at_loss of the curve as a function of the target loss.

    The running minimum is built once, so each target costs one bisection.
    It is taken as ``np.fmin.accumulate`` takes it: a NaN loss is skipped
    once a number has been seen.
    """
    if len(curve) < 2:
        raise InsufficientDataError("need at least 2 points to invert a curve")
    _, tokens, loss = curve.columns
    # the running minimum, negated so that it ascends for bisect
    rising = array("d")
    best = math.nan
    for value in loss:
        if value < best or best != best:
            best = value
        rising.append(-best)
    first, last = -rising[0], -rising[-1]

    def tokens_at(target_loss: float) -> float:
        check_positive("target_loss", target_loss)
        if target_loss > first:
            raise PreRangeLossError(f"target {target_loss} above the first recorded loss {first}")
        if target_loss < last:
            raise UnreachableLossError(
                f"target {target_loss} below the best loss {last} reached by the curve"
            )
        # first checkpoint whose running minimum is at or below the target
        i = bisect_left(rising, -target_loss)
        if i == 0:
            return tokens[0]
        prev_loss, cur_loss = -rising[i - 1], -rising[i]
        prev_tokens, cur_tokens = tokens[i - 1], tokens[i]
        frac = (prev_loss - target_loss) / (prev_loss - cur_loss)
        log_tokens = math.log(prev_tokens) + frac * (math.log(cur_tokens) - math.log(prev_tokens))
        # exp(log(t)) can round past t; the answer stays inside its bracket so
        # that a lower target never needs fewer tokens
        return min(max(math.exp(log_tokens), prev_tokens), cur_tokens)

    return tokens_at
