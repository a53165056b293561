"""Per-layer tracing for the benchmark's traced run.

The benchmark measures the library from outside. In a traced run it
replaces public callables of each layer with timing wrappers, and it
puts every original back in ``finally``. Untraced runs never see a
wrapper.

Each name is patched where its caller looks it up. ``waterfill_job``,
for example, is bound separately in ``repro.core.pd`` and in
``repro.perf.epochs``, so both bindings are wrapped. Methods are patched
on their class, which every caller reaches. A target that no longer
exists (a layer deleted by a later change) is skipped, and its metrics
read 0.

High-frequency calls are aggregated into a count, a total time and a
self time (total minus the time of traced callees). Coarse boundaries
(instance, pass, CLI invocation, ``arrive_many``, ``finish``,
``dual_certificate``, ``realize``) are also kept as spans with a parent
link, held in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

Observer = Callable[["Tracer", tuple, Any], None]


class Tracer:
    """Call counts, total and self times, counters and spans of one run.

    Single-threaded: calls made from any other thread than the one that
    created the tracer pass straight through to the original.
    """

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        #: Outermost time per group: a call nested in a call of the same
        #: group (``arrive_many`` feeding ``arrive``) is not added twice.
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self.spans: list[dict[str, Any]] = []
        self._stack: list[list[Any]] = []
        self._depth: dict[str, int] = {}
        self._owner = threading.get_ident()
        self._t0 = time.perf_counter()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def maximum(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)

    def _push(self, name: str, group: str, span: bool) -> list[Any]:
        depth = self._depth.get(group, 0)
        self._depth[group] = depth + 1
        span_id = None
        now = time.perf_counter()
        if span:
            span_id = len(self.spans)
            parent = next(
                (f[2] for f in reversed(self._stack) if f[2] is not None), None
            )
            self.spans.append(
                {"id": span_id, "name": name, "parent": parent,
                 "start_s": now - self._t0, "end_s": None}
            )
        frame = [name, group, span_id, depth, 0.0, now]
        self._stack.append(frame)
        return frame

    def _pop(self, frame: list[Any]) -> None:
        end = time.perf_counter()
        name, group, span_id, depth, child, start = frame
        self._stack.pop()
        elapsed = end - start
        self._depth[group] = depth
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_time[name] = self.self_time.get(name, 0.0) + elapsed - child
        if depth == 0:
            self.total[group] = self.total.get(group, 0.0) + elapsed
        if self._stack:
            self._stack[-1][4] += elapsed
        if span_id is not None:
            self.spans[span_id]["end_s"] = end - self._t0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A coarse span opened by the benchmark itself."""
        frame = self._push(name, name, True)
        try:
            yield
        finally:
            self._pop(frame)

    def wrap(
        self,
        fn: Callable,
        name: str,
        *,
        group: str | None = None,
        span: bool = False,
        observe: Observer | None = None,
    ) -> Callable:
        tracer = self
        group = group or name

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != tracer._owner:
                return fn(*args, **kwargs)
            frame = tracer._push(name, group, span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._pop(frame)
            if observe is not None:
                observe(tracer, args, result)
            return result

        traced.__perfbench_traced__ = True  # type: ignore[attr-defined]
        return traced


# ----------------------------------------------------------------------
# Observers: counters read off arguments and results
# ----------------------------------------------------------------------
def _grid_refined(tracer: Tracer, args: tuple, fresh: Any) -> None:
    if fresh:
        tracer.count("model.grid_refines")


def _waterfill_outcome(tracer: Tracer, args: tuple, outcome: Any) -> None:
    if outcome.accepted:
        tracer.count("pd.accepted")


def _certificate(tracer: Tracer, args: tuple, cert: Any) -> None:
    tracer.maximum("certificates.ratio_max", float(cert.ratio))


def _cache_get(tracer: Tracer, args: tuple, payload: Any) -> None:
    if payload is not None:
        tracer.count("cache.hits")


def _runner_run(tracer: Tracer, args: tuple, records: Any) -> None:
    stats = args[0].stats
    tracer.count("runner.computed", stats.computed)
    tracer.count("runner.cache_hits", stats.cache_hits)
    for record in records:
        if not record.cached:
            tracer.count(f"runner.eval_s.{record.algorithm}", record.wall_time)


def _wire_decoded(tracer: Tracer, args: tuple, payload: Any) -> None:
    from repro.engine.transport import wire_bytes

    tracer.count("transport.bytes", wire_bytes(args[0]))


#: (module, attribute path, traced name, options). Names sharing a
#: ``group`` time as one layer; ``span`` marks a coarse boundary.
TARGETS: tuple[tuple[str, str, str, dict[str, Any]], ...] = (
    ("repro.model.intervals", "Grid.fresh_points", "model.fresh_points",
     {"group": "model.refine", "observe": _grid_refined}),
    ("repro.model.intervals", "Grid.__init__", "model.grid_init",
     {"group": "model.refine"}),
    ("repro.perf.kernels", "IntervalLoads.split", "model.split",
     {"group": "model.refine"}),
    ("repro.model.intervals", "Grid.covering", "model.covering", {}),
    ("repro.core.pd", "PDScheduler.arrive", "pd.arrive",
     {"group": "pd.arrive_all"}),
    ("repro.core.pd", "PDScheduler.arrive_many", "pd.arrive_many",
     {"group": "pd.arrive_all", "span": True}),
    ("repro.core.pd", "PDScheduler.finish", "pd.finish", {"span": True}),
    ("repro.core.waterfill", "waterfill_job", "waterfill",
     {"observe": _waterfill_outcome}),
    ("repro.core.pd", "waterfill_job", "waterfill",
     {"observe": _waterfill_outcome}),
    ("repro.perf.epochs", "waterfill_job", "waterfill",
     {"observe": _waterfill_outcome}),
    ("repro.perf.kernels", "IntervalLoads.open_speed", "epochs.open_speed", {}),
    ("repro.perf.kernels", "WindowKernel.__init__", "kernels.window_build", {}),
    ("repro.perf.kernels", "WindowKernel.total_at_speed", "kernels.eval", {}),
    ("repro.perf.kernels", "IntervalLoads.insert", "kernels.insert", {}),
    ("repro.perf.kernels", "IntervalLoads.insert_deferred", "kernels.insert", {}),
    ("repro.perf.kernels", "IntervalLoads.flush_suffix", "kernels.suffix_flush", {}),
    ("repro.perf.energy", "schedule_energy", "energy", {}),
    ("repro.perf.energy", "stores_energy", "energy", {}),
    ("repro.analysis.certificates", "dual_certificate", "certificates",
     {"span": True, "observe": _certificate}),
    ("repro.model.schedule", "Schedule.realize", "chen.realize", {"span": True}),
    ("repro.chen.scheduler", "schedule_interval", "chen.interval", {}),
    ("repro.engine.experiment", "ExperimentSpec.requests",
     "experiment.requests", {}),
    ("repro.engine", "aggregate_records", "experiment.aggregate", {}),
    ("repro.engine.experiment", "aggregate_records", "experiment.aggregate", {}),
    ("repro.engine.runner", "BatchRunner.run", "runner.run",
     {"observe": _runner_run}),
    ("repro.engine.cache", "SqliteCache.get", "cache.get",
     {"observe": _cache_get}),
    ("repro.engine.cache", "SqliteCache.put", "cache.put", {}),
    ("repro.engine.runner", "decode_wire", "transport.decode",
     {"observe": _wire_decoded}),
    ("repro.io.cli", "save_json", "io.json", {}),
)


def resolve(module: str, path: str) -> tuple[Any, str, Any] | None:
    """``(owner, attribute, original)`` of one target, or ``None``.

    A method is read from the class's own ``__dict__`` so that restoring
    it puts back exactly the object that was there.
    """
    try:
        owner: Any = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        original = owner.__dict__.get(attr)
    else:
        original = getattr(owner, attr, None)
    if not callable(original):
        return None
    return owner, attr, original


@contextmanager
def installed(tracer: Tracer) -> Iterator[list[str]]:
    """Patch every target with a wrapper feeding ``tracer``.

    Yields the ``module:path`` of each patched target. Every patch is
    restored on exit, whether the body returned or raised.
    """
    patched: list[tuple[Any, str, Any]] = []
    names: list[str] = []
    try:
        for module, path, name, options in TARGETS:
            found = resolve(module, path)
            if found is None:
                continue
            owner, attr, original = found
            patched.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, **options))
            names.append(f"{module}:{path}")
        yield names
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def current_bindings() -> dict[str, Any]:
    """The object each target name is bound to right now."""
    out = {}
    for module, path, _, _ in TARGETS:
        found = resolve(module, path)
        if found is not None:
            out[f"{module}:{path}"] = found[2]
    return out


def is_traced(obj: Any) -> bool:
    return bool(getattr(obj, "__perfbench_traced__", False))
