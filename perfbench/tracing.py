"""In-process tracing of one workload repetition, from the benchmark's side.

``Tracer.install`` swaps each traced public function of ``scalelaw`` for a
wrapper, in every ``scalelaw`` module that binds it, so calls made inside the
package (``frontier_report`` calling ``compute_envelope``) are traced too.
Each call records one span: name, layer, start, end, parent span, workload,
repetition and whether it raised.  Counters read item counts off the call's
arguments and result.  Spans stay in memory until ``uninstall``; the caller
writes them out once at the end.  No code under ``src/`` changes.
"""

from __future__ import annotations

import importlib
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass


def _points(runset) -> int:
    return sum(len(run.points) for run in runset)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _init_starts(args, kwargs) -> int:
    grid = kwargs.get("init_grid")
    return len(grid) if grid is not None else len(sys.modules["scalelaw.lawfit"].default_init_grid())


# (layer, module, function, counter).  A counter maps (args, kwargs, result)
# to named counts that are summed over calls; gauges keep the last value.
TRACED = (
    ("synth", "scalelaw.synth", "simulate_grid", lambda a, k, r: {"points": _points(r)}),
    ("runlog", "scalelaw.runlog", "parse_runs",
     lambda a, k, r: {"runs": len(r), "points": _points(r)}),
    ("runlog", "scalelaw.runlog", "serialize_runs", None),
    ("runlog", "scalelaw.runlog", "smooth_run", None),
    ("frontier", "scalelaw.frontier", "compute_envelope", lambda a, k, r: {"grid_points": len(r)}),
    ("frontier", "scalelaw.frontier", "extract_frontier_points",
     lambda a, k, r: {"frontier_points": len(r)}),
    ("frontier", "scalelaw.frontier", "frontier_laws", None),
    ("bslaw", "scalelaw.bslaw", "default_loss_levels", None),
    ("bslaw", "scalelaw.bslaw", "iso_loss_contour",
     lambda a, k, r: {"levels": len(_arg(a, k, 1, "loss_levels")),
                      "contour_points": sum(len(v) for v in r.values())}),
    ("bslaw", "scalelaw.bslaw", "fit_contour_parabola", None),
    ("bslaw", "scalelaw.bslaw", "fit_bopt_law",
     lambda a, k, r: {"vertices": len(_arg(a, k, 0, "vertices"))}),
    ("lawfit", "scalelaw.lawfit", "samples_from_runs", lambda a, k, r: {"samples": len(r)}),
    ("lawfit", "scalelaw.lawfit", "fit_loss_law",
     lambda a, k, r: {"init_starts": _init_starts(a, k), "r_squared": r.r_squared}),
    ("lrlaw", "scalelaw.lrlaw", "build_surface",
     lambda a, k, r: {"cells_filled": int(sum(math.isfinite(x) for x in r.losses.flat))}),
    ("lrlaw", "scalelaw.lrlaw", "extract_lr_opt", lambda a, k, r: {"samples": len(r)}),
    ("lrlaw", "scalelaw.lrlaw", "fit_gamma", None),
    ("artifact", "scalelaw.artifact", "LawArtifact.load",
     lambda a, k, r: {"bytes": _file_bytes(_arg(a, k, 1, "path"))}),
    ("artifact", "scalelaw.artifact", "LawArtifact.save",
     lambda a, k, r: {"bytes": _file_bytes(_arg(a, k, 1, "path"))}),
    ("advisor", "scalelaw.advisor", "advise_compute", lambda a, k, r: {"calls": 1}),
    ("advisor", "scalelaw.advisor", "advise_data", lambda a, k, r: {"calls": 1}),
)
GAUGES = {"lawfit.r_squared"}
LAYERS = ("import", "cli") + tuple(dict.fromkeys(layer for layer, *_ in TRACED))


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    layer: str
    start: float
    end: float = 0.0
    failed: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span collector for one traced repetition of one workload."""

    def __init__(self, workload: str, repetition: int):
        self.workload = workload
        self.repetition = repetition
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, layer: str):
        span = Span(len(self.spans), self._stack[-1] if self._stack else None, name, layer,
                    time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        except BaseException:
            span.failed = True
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts[name] = value if name in GAUGES else self.counts.get(name, 0) + value

    def _wrap(self, layer: str, name: str, func, counter):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(f"{layer}.{name}", layer):
                result = func(*args, **kwargs)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    tracer.count(f"{layer}.{key}", value)
            return result

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        """Route every traced function through a span-recording wrapper."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "scalelaw"]
        for layer, module_name, qualname, counter in TRACED:
            owner = importlib.import_module(module_name)
            if "." in qualname:  # a classmethod or method of a class
                cls_name, attr = qualname.split(".")
                owner = getattr(owner, cls_name)
                raw = owner.__dict__[attr]
                func = raw.__func__ if isinstance(raw, classmethod) else raw
                wrapped = self._wrap(layer, attr, func, counter)
                self._set(owner, attr, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
                continue
            func = getattr(owner, qualname)
            wrapped = self._wrap(layer, qualname, func, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is func:
                        self._set(module, attr, wrapped)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def self_times(self) -> dict[int, float]:
        """Each span's duration minus the part its child spans cover.

        Spans of one process nest strictly, so the covered part is the sum
        of the direct children's durations.
        """
        own = {s.id: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def records(self) -> list[dict]:
        return [
            {"id": s.id, "parent": s.parent, "name": s.name, "layer": s.layer,
             "start": s.start, "end": s.end, "failed": s.failed,
             "workload": self.workload, "repetition": self.repetition}
            for s in self.spans
        ]


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from ``python -X importtime`` output."""
    times = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            times[parts[2].strip()] = int(parts[1]) / 1e6
    return times
