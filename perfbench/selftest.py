"""Self-checks of the benchmark harness (not of the library).

* Tracing wrappers never leak: every patched binding is restored after
  a traced run, also when the traced body raises, and an untraced unit
  run afterwards feeds no wrapper.
* Both ``waterfill_job`` bindings (``repro.core.pd`` and
  ``repro.perf.epochs``) are patched.
* A wrong recorded output, a regime breach and a hung unit are each
  reported as failures.
* A pooled sweep leaves no process behind: its workers are reaped and
  the resource tracker its shared-memory transport started is stopped.
* ``BENCHMARK.json``, ``manifest.json`` and the harness name the same
  workloads and metrics with the same units.

Run from the repository root (takes a few seconds)::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MANIFEST = json.loads((HERE / "manifest.json").read_text())
TOL = MANIFEST["tolerances"]
SMALL = dict(MANIFEST["workloads"]["pd-refining"], n=60, pool=2)


def small_pd_refining(expected: dict | None = None) -> workloads.PDRefining:
    if expected is None:
        probe = workloads.PDRefining(SMALL, {}, TOL, 0)
        expected = {}
        for key in range(SMALL["pool"]):
            out = probe.run(probe.setup(key)).output
            expected[str(key)] = {"cost": out["cost"], "accepted": out["accepted"]}
    return workloads.PDRefining(SMALL, expected, TOL, 0)


def test_wrappers_restore_and_do_not_leak() -> None:
    before = tracing.current_bindings()
    assert before and not any(tracing.is_traced(f) for f in before.values())
    workload = small_pd_refining()
    tracer = tracing.Tracer()
    with tracing.installed(tracer) as patched:
        assert set(patched) == set(before)
        assert "repro.core.pd:waterfill_job" in patched
        assert "repro.perf.epochs:waterfill_job" in patched
        assert all(tracing.is_traced(f) for f in tracing.current_bindings().values())
        workload.run(workload.setup(0))
    assert tracer.calls.get("waterfill", 0) > 0
    after = tracing.current_bindings()
    assert all(after[name] is before[name] for name in before)

    calls = dict(tracer.calls)
    result = run.timed_run(workload, 0.0, 30)
    assert result["failed"] == 0, result["errors"]
    assert tracer.calls == calls, "an untraced run fed a tracing wrapper"


def test_wrappers_restored_when_body_raises() -> None:
    before = tracing.current_bindings()
    try:
        with tracing.installed(tracing.Tracer()):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    after = tracing.current_bindings()
    assert all(after[name] is before[name] for name in before)


def test_checks_catch_wrong_outputs_and_regime() -> None:
    good = small_pd_refining()
    outcome = good.run(good.setup(1))
    assert good.check(1, outcome) == []
    wrong = {k: dict(v, cost=v["cost"] * (1 + 1e-3)) for k, v in good.expected.items()}
    assert any("cost" in p for p in small_pd_refining(wrong).check(1, outcome))
    outcome.output["grid_size"] = 11
    assert any("regime" in p for p in good.check(1, outcome))


def test_hung_unit_is_killed_and_counted() -> None:
    class Hangs:
        name = "hangs"

        def run(self, inputs):
            while True:
                time.sleep(0.01)

    start = time.perf_counter()
    outcome, _, problems = run.execute(Hangs(), 0, None, 0.3)
    assert outcome is None and problems and "limit" in problems[0]
    assert time.perf_counter() - start < 5


def test_sweep_leaves_no_process() -> None:
    from multiprocessing import resource_tracker

    cfg = dict(MANIFEST["workloads"]["sweep"], seeds=1)
    with tempfile.TemporaryDirectory() as tmp:
        sweep = workloads.Sweep(cfg, TOL, Path(tmp), 0, 2)
        outcome = sweep.run(sweep.setup(0))
        assert not sweep.check(0, outcome)
    tracker = resource_tracker._resource_tracker._pid
    workloads.reap_children()
    workloads.stop_resource_tracker()
    assert not multiprocessing.active_children()
    if tracker is not None:
        try:
            os.kill(tracker, 0)
        except ProcessLookupError:
            pass
        else:
            raise AssertionError(f"resource tracker {tracker} still running")


def test_benchmark_json_matches_harness() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(MANIFEST["workloads"]) == set(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        name: spec["unit"] for name, spec in MANIFEST["per_layer"].items()
    }


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
