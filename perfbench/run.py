"""Repository benchmark: PD certified, PD at the settled-grid tier, and
``repro sweep`` cold/warm.

Run from the repository root::

    python3 perfbench/run.py --workload pd-refining --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrapper installed.
Their times are on a reference-speed scale: a fixed interpreter loop is
timed before each unit's set-up and after the unit, and the unit's times
are multiplied by ``REFERENCE_S`` over that loop's time. A shared host
whose speed drifts during a run slows the loop with the unit, and the
scale cancels most of the drift. The raw wall-clock values are
printed beside them and kept in the results file.
``--trace 1`` runs a fixed set of units twice, untraced and then with the
per-layer wrappers of ``tracing.py``, and reports the per-layer table
with the tracing overhead (traced wall over untraced wall).

Every unit's outputs are checked (see ``workloads.py``). A unit that
raises, mismatches the recorded outputs, leaves its workload's regime or
exceeds its wall-clock limit counts as failed. Human-readable report
lines come first, a results file with every sample (and, traced, every
span) goes to ``perfbench/results/``, and the last line of standard
output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The program is imported from ``src/`` next to this directory; without
it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Iterator

from tracing import Tracer, current_bindings, installed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("pd-refining", "pd-settled", "sweep")
THREAD_POOL_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
#: The reference loop's time on an Intel Xeon vCPU of a quiet host, so
#: scaled times read close to wall-clock seconds on such a host.
REFERENCE_S = 1.3e-3
REFERENCE_ITERATIONS = 25_000
REFERENCE_REPEATS = 5
END_TO_END_UNITS = {
    "jobs_per_s": "jobs/s",
    "instance_p50_s": "s",
    "instance_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class UnitTimeout(BaseException):
    """A unit overran its wall-clock limit (a hang is killed, not waited)."""


@contextmanager
def time_limit(seconds: float) -> Iterator[None]:
    def expire(signum: int, frame: Any) -> None:
        raise UnitTimeout(f"unit exceeded its {seconds:g} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: manifest default_seed)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict[str, Any]:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def build_workload(name: str, seed: int, manifest: dict, scratch: Path):
    import workloads

    cfg = manifest["workloads"][name]
    if name == "sweep":
        workers = max(1, min(cfg["max_workers"], os.cpu_count() or 1))
        return workloads.Sweep(cfg, manifest["tolerances"], scratch, seed, workers)
    expected = json.loads((HERE / "expected.json").read_text())[name]
    cls = workloads.PDRefining if name == "pd-refining" else workloads.PDSettled
    return cls(cfg, expected, manifest["tolerances"], seed)


def execute(workload, key: int, inputs: Any, timeout: float, around=None):
    """Run one unit under its time limit, inside ``around`` if given, then
    check it outside; ``(outcome, wall, problems)``."""
    from workloads import reap_children

    start = time.perf_counter()
    try:
        with around or nullcontext(), time_limit(timeout):
            outcome = workload.run(inputs)
    except UnitTimeout as exc:
        reap_children(0.0)
        return None, time.perf_counter() - start, [str(exc)]
    except Exception:
        return None, time.perf_counter() - start, [traceback.format_exc()]
    try:
        problems = workload.check(key, outcome)
    except Exception:
        problems = [traceback.format_exc()]
    return outcome, time.perf_counter() - start, problems


def reference_s() -> float:
    """Median time of the reference loop: a pure-Python loop, because the
    library's hot paths are interpreter-bound, so host speed drift moves
    both alike (a numpy kernel tracked the drift less well)."""
    times = []
    for _ in range(REFERENCE_REPEATS):
        start = time.perf_counter()
        total = 0
        for i in range(REFERENCE_ITERATIONS):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def percentile(values: list[float], q: float) -> float:
    import numpy

    return float(numpy.percentile(values, q)) if values else 0.0


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def timed_run(workload, seconds: float, timeout: float) -> dict[str, Any]:
    """Units until ``seconds`` have passed; end-to-end metrics, with every
    time scaled to the reference speed measured around its unit."""
    setups: list[float] = []
    busy = wall_busy = 0.0
    jobs_ok = 0
    attempted = failed = 0
    errors: list[str] = []
    unit_busy: list[float] = []
    wall_unit_busy: list[float] = []
    warm: list[float] = []
    references: list[float] = []
    workload.warm_up()
    start = time.perf_counter()
    last = 0.0
    for key in workload.keys():
        # Start a unit only if one as long as the last still fits, so a
        # run ends close to ``seconds`` whatever its unit length.
        if attempted and time.perf_counter() - start + last > seconds:
            break
        unit_start = time.perf_counter()
        before = reference_s()
        setup_start = time.perf_counter()
        inputs = workload.setup(key)
        setup_wall = time.perf_counter() - setup_start
        attempted += 1
        outcome, wall, problems = execute(workload, key, inputs, timeout)
        del inputs
        gc.collect()
        reference = (before + reference_s()) / 2
        scale = REFERENCE_S / reference
        references.append(reference)
        last = time.perf_counter() - unit_start
        setups.append(setup_wall * scale)
        unit_wall = outcome.busy_s if outcome is not None else wall
        busy += unit_wall * scale
        wall_busy += unit_wall
        if problems:
            failed += 1
            errors.append(f"unit {key}: " + "; ".join(problems))
            continue
        jobs_ok += outcome.jobs
        unit_busy.append(outcome.busy_s * scale)
        wall_unit_busy.append(outcome.busy_s)
        warm.append(outcome.warm_s * scale)
    metrics = {
        "jobs_per_s": jobs_ok / busy if busy > 0 else 0.0,
        "instance_p50_s": percentile(unit_busy, 50),
        "instance_p90_s": percentile(unit_busy, 90),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    report = {
        "failed_frac": failed / attempted,
        "latency_samples": len(unit_busy),
        "setup_samples": len(setups),
        "wall_jobs_per_s": jobs_ok / wall_busy if wall_busy > 0 else 0.0,
        "wall_instance_p50_s": percentile(wall_unit_busy, 50),
        "reference_ms": 1e3 * statistics.median(references),
    }
    if workload.name == "sweep" and unit_busy:
        report["cold_cells_per_s"] = workload.cells / statistics.median(unit_busy)
        report["warm_cells_per_s"] = workload.cells / statistics.median(warm)
        report["workers"] = workload.workers
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "metrics": {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()},
        "report": report,
        "samples": {
            "setup_s": setups,
            "busy_s": unit_busy,
            "warm_s": warm,
            "wall_busy_s": wall_unit_busy,
            "reference_s": references,
        },
    }


def layer_metrics(
    tracer: Tracer, *, jobs: int, overhead: float, cold_wall: float, workers: int,
    algorithms: list[str], units: dict[str, str],
) -> dict[str, tuple[float, str]]:
    calls, total, counters = tracer.calls, tracer.total, tracer.counters
    fills = calls.get("waterfill", 0)
    evals = calls.get("kernels.eval", 0)
    gets = calls.get("cache.get", 0)
    rejects = max(jobs - fills, 0)
    eval_s = {a: counters.get(f"runner.eval_s.{a}", 0.0) for a in algorithms}
    idle = 0.0
    if calls.get("runner.run") and cold_wall > 0:
        idle = 1.0 - sum(eval_s.values()) / (workers * cold_wall)
    values: dict[str, float] = {
        "model.grid_refines": counters.get("model.grid_refines", 0),
        "model.refine_s": total.get("model.refine", 0.0),
        "model.covering_s": total.get("model.covering", 0.0),
        "pd.arrive_s": total.get("pd.arrive_all", 0.0),
        "pd.finish_s": total.get("pd.finish", 0.0),
        "pd.accepted": counters.get("pd.accepted", 0),
        "epochs.screen_rejects": rejects,
        "epochs.screen_hit_ratio": rejects / jobs if jobs else 0.0,
        "epochs.open_speed_calls": calls.get("epochs.open_speed", 0),
        "epochs.open_speed_s": total.get("epochs.open_speed", 0.0),
        "epochs.self_s": tracer.self_time.get("pd.arrive_many", 0.0),
        "waterfill.calls": fills,
        "waterfill.s": total.get("waterfill", 0.0),
        "kernels.evals": evals,
        "kernels.evals_per_fill": evals / fills if fills else 0.0,
        "kernels.eval_s": total.get("kernels.eval", 0.0),
        "kernels.window_builds": calls.get("kernels.window_build", 0),
        "kernels.window_build_s": total.get("kernels.window_build", 0.0),
        "kernels.inserts": calls.get("kernels.insert", 0),
        "kernels.suffix_flushes": calls.get("kernels.suffix_flush", 0),
        "kernels.suffix_flush_s": total.get("kernels.suffix_flush", 0.0),
        "energy.s": total.get("energy", 0.0),
        "certificates.s": total.get("certificates", 0.0),
        "certificates.ratio_max": counters.get("certificates.ratio_max", 0.0),
        "chen.realize_s": total.get("chen.realize", 0.0),
        "chen.intervals": calls.get("chen.interval", 0),
        "experiment.requests_s": total.get("experiment.requests", 0.0),
        "experiment.aggregate_s": total.get("experiment.aggregate", 0.0),
        "runner.computed": counters.get("runner.computed", 0),
        "runner.cache_hits": counters.get("runner.cache_hits", 0),
        **{f"runner.eval_s.{a}": s for a, s in eval_s.items()},
        "runner.pool_idle_share": idle,
        "cache.gets": gets,
        "cache.get_s": total.get("cache.get", 0.0),
        "cache.puts": calls.get("cache.put", 0),
        "cache.put_s": total.get("cache.put", 0.0),
        "cache.hit_ratio": counters.get("cache.hits", 0) / gets if gets else 0.0,
        "transport.decodes": calls.get("transport.decode", 0),
        "transport.decode_s": total.get("transport.decode", 0.0),
        "transport.bytes": counters.get("transport.bytes", 0),
        "io.json_s": total.get("io.json", 0.0),
        "trace.overhead": overhead,
    }
    return {name: (float(values[name]), unit) for name, unit in units.items()}


@contextmanager
def traced_unit(tracer: Tracer, span_name: str) -> Iterator[None]:
    with installed(tracer), tracer.span(span_name):
        yield


def traced_run(workload, cfg: dict, timeout: float, manifest: dict) -> dict[str, Any]:
    """The same fixed units untraced, then traced; per-layer metrics."""
    workload.warm_up()
    keys_iter = workload.keys()
    keys = [next(keys_iter) for _ in range(cfg["traced_units"])]
    attempted = failed = 0
    errors: list[str] = []
    walls = {"untraced": 0.0, "traced": 0.0}
    tracer = Tracer()
    pd_jobs = cold_wall = 0.0
    span_name = {"pd-refining": "instance", "pd-settled": "pass"}.get(
        workload.name, "round"
    )
    for mode in ("untraced", "traced"):
        for key in keys:
            inputs = workload.setup(key)
            attempted += 1
            around = None
            if mode == "traced":
                around = traced_unit(tracer, span_name)
                workload.tracer = tracer
            try:
                outcome, _, problems = execute(workload, key, inputs, timeout, around)
            finally:
                workload.tracer = None
            if outcome is not None:
                walls[mode] += outcome.busy_s + outcome.warm_s
                if mode == "traced":
                    cold_wall += outcome.busy_s
                    if workload.name != "sweep":
                        pd_jobs += outcome.jobs
            if problems:
                failed += 1
                errors.append(f"{mode} unit {key}: " + "; ".join(problems))
    guard = workload.check_traced(tracer, int(pd_jobs), keys)
    if guard:
        failed += 1
        errors.append("traced: " + "; ".join(guard))
    overhead = walls["traced"] / walls["untraced"] if walls["untraced"] else 0.0
    units = {name: spec["unit"] for name, spec in manifest["per_layer"].items()}
    metrics = layer_metrics(
        tracer,
        jobs=int(pd_jobs),
        overhead=overhead,
        cold_wall=cold_wall,
        workers=getattr(workload, "workers", 1),
        algorithms=manifest["workloads"]["sweep"]["algorithms"],
        units=units,
    )
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "metrics": metrics,
        "report": {
            "failed_frac": failed / attempted,
            "untraced_wall_s": walls["untraced"],
            "traced_wall_s": walls["traced"],
            "patched_targets": len(current_bindings()),
        },
        "spans": tracer.spans,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        return 2
    for var in THREAD_POOL_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))

    manifest = json.loads((HERE / "manifest.json").read_text())
    seed = manifest["default_seed"] if args.seed is None else args.seed
    cfg = manifest["workloads"][args.workload]
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=results))
    try:
        workload = build_workload(args.workload, seed, manifest, scratch)
        if args.trace:
            outcome = traced_run(workload, cfg, cfg["unit_timeout_s"], manifest)
        else:
            outcome = timed_run(workload, args.seconds, cfg["unit_timeout_s"])
    finally:
        from workloads import reap_children, stop_resource_tracker

        reap_children()
        stop_resource_tracker()
        shutil.rmtree(scratch, ignore_errors=True)

    env = environment()
    correct = outcome["failed"] == 0
    record = {
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        **outcome,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome["metrics"].items()},
    }
    out_file = results / f"{args.workload}-seed{seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    print(f"perfbench {args.workload} seed={seed} trace={args.trace} "
          f"nproc={env['nproc']} cpu={env['cpu']!r} python={env['python']} "
          f"numpy={env['numpy']}")
    for name, (value, unit) in outcome["metrics"].items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    for name, value in outcome["report"].items():
        print(f"  {name:28s} {value:14.6g}")
    print(f"  attempted={outcome['attempted']} failed={outcome['failed']} "
          f"results={out_file.relative_to(ROOT)}")
    for error in outcome["errors"]:
        print(f"perfbench: FAILED {error}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
