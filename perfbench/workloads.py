"""The benchmark's three workloads: inputs, timed region, output checks.

Each workload turns the run's ``--seed`` into a sequence of unit keys,
builds a unit's inputs outside the timed region (``setup``), runs the
user-visible path inside it (``run``) and checks the outputs afterwards
(``check``). The library is called only through public functions of
``repro.workloads``, ``repro.core.pd``, ``repro.analysis.certificates``,
``repro.model.schedule`` and ``repro.io.cli``.

Why these three (see ``manifest.json`` for the one-line reasons):

* ``pd-refining`` is the certified path of ``repro run``/``repro certify``
  on an instance whose grid refines on every arrival;
* ``pd-settled`` is the million-job-tier path of ``examples/pd_1m_jobs.py``
  on a grid that settles early, where the epoch screen decides most jobs;
* ``sweep`` drives ``repro sweep`` through its pool and sqlite cache, cold
  then warm, and is the control that PD kernel work should leave flat.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import multiprocessing
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from tracing import Tracer


@dataclass
class Outcome:
    """What one unit produced.

    ``busy_s`` is the unit's timed latency: it feeds the instance
    percentiles and, with ``jobs``, ``jobs_per_s``. ``warm_s`` is the
    sweep's warm re-run, reported beside them.
    """

    busy_s: float
    jobs: int
    output: dict[str, Any]
    warm_s: float = 0.0


def rel_close(got: float, want: float, rtol: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= rtol * max(abs(want), 1e-300)


def pool_order(seed: int, size: int) -> Iterator[int]:
    """The run's unit keys: a seed-driven permutation of the recorded
    pool, cycled if a run outlasts it."""
    order = random.Random(seed).sample(range(size), size)
    while True:
        yield from order


class PooledPD:
    """A PD workload over a recorded pool of instance seeds."""

    tracer: Tracer | None = None

    def __init__(self, config: dict, expected: dict, tolerances: dict, seed: int):
        self.cfg = config
        self.expected = expected
        self.tol = tolerances
        self.seed = seed

    def keys(self) -> Iterator[int]:
        return pool_order(self.seed, self.cfg["pool"])


class PDRefining(PooledPD):
    """``run_pd`` with library defaults, then the certificate, then the
    Chen + McNaughton realization, on Poisson instances."""

    name = "pd-refining"

    def warm_up(self) -> None:
        from repro.workloads import poisson_instance

        cfg = self.cfg
        self.run(poisson_instance(50, m=cfg["m"], alpha=cfg["alpha"], seed=0))

    def setup(self, key: int):
        from repro.workloads import poisson_instance

        cfg = self.cfg
        return poisson_instance(
            cfg["n"], m=cfg["m"], alpha=cfg["alpha"], seed=key
        )

    def run(self, instance) -> Outcome:
        from repro.analysis import certificates
        from repro.core import pd

        start = time.perf_counter()
        result = pd.run_pd(instance)
        cert = certificates.dual_certificate(result)
        realized = result.schedule.realize()
        wall = time.perf_counter() - start
        schedule = result.schedule
        return Outcome(
            busy_s=wall,
            jobs=instance.n,
            output={
                "cost": float(schedule.cost),
                "accepted": int(np.count_nonzero(result.accepted_mask)),
                "grid_size": int(schedule.grid.size),
                "realized_intervals": len(realized),
                "cert_holds": bool(cert.holds),
                "cert_cost": float(cert.cost),
                "ratio": float(cert.ratio),
            },
        )

    def check(self, key: int, outcome: Outcome) -> list[str]:
        out = outcome.output
        n = outcome.jobs
        problems = []
        if not out["cert_holds"]:
            problems.append(f"Theorem 3 certificate fails (ratio {out['ratio']})")
        if out["cert_cost"] != out["cost"]:
            problems.append("certificate certifies a different cost")
        if out["realized_intervals"] != out["grid_size"]:
            problems.append("realization does not cover every interval")
        want = self.expected.get(str(key))
        if want is None:
            problems.append(f"no recorded expectation for instance seed {key}")
        else:
            if not rel_close(out["cost"], want["cost"], self.tol["cost_rtol"]):
                problems.append(f"cost {out['cost']!r} != recorded {want['cost']!r}")
            if not rel_close(
                out["accepted"], want["accepted"], self.tol["accepted_rtol"]
            ):
                problems.append(
                    f"accepted {out['accepted']} != recorded {want['accepted']}"
                )
        # Regime guard. The first arrival builds the grid; every later
        # refinement adds at most two points, so (N - 1) / 2 arrivals at
        # least refined it.
        refines = (out["grid_size"] - 1) / 2
        if refines < 0.9 * n:
            problems.append(f"regime: only >= {refines:.0f} refines for {n} arrivals")
        if out["accepted"] < 0.9 * n:
            problems.append(f"regime: {out['accepted']}/{n} accepted (< 90%)")
        return problems

    def check_traced(self, tracer: Tracer, jobs: int, keys: list[int]) -> list[str]:
        refines = tracer.counters.get("model.grid_refines", 0)
        if refines < 0.9 * jobs:
            return [f"regime: {refines} grid refines for {jobs} arrivals"]
        return []


class PDSettled(PooledPD):
    """``PDScheduler(batch="epoch").arrive_many`` then ``streaming_cost``
    on slotted instances: the million-job-tier path."""

    name = "pd-settled"

    def warm_up(self) -> None:
        from repro.workloads import slotted_instance

        cfg = self.cfg
        instance = slotted_instance(
            5000, slots=cfg["slots"], m=cfg["m"], alpha=cfg["alpha"], seed=0
        )
        self.run(instance.sorted_by_release().arrays)

    def setup(self, key: int):
        from repro.workloads import slotted_instance

        cfg = self.cfg
        instance = slotted_instance(
            cfg["n"], slots=cfg["slots"], m=cfg["m"], alpha=cfg["alpha"], seed=key
        )
        return instance.sorted_by_release().arrays

    def run(self, arrays) -> Outcome:
        from repro.core import pd

        cfg = self.cfg
        start = time.perf_counter()
        sched = pd.PDScheduler(m=cfg["m"], alpha=cfg["alpha"], batch="epoch")
        sched.arrive_many(arrays)
        cost = sched.streaming_cost()
        wall = time.perf_counter() - start
        points = np.unique(np.concatenate((arrays.releases, arrays.deadlines)))
        return Outcome(
            busy_s=wall,
            jobs=arrays.n,
            output={
                "cost": float(cost),
                "lost_value": float(sched.streaming_lost_value()),
                "grid_size": int(points.size - 1),
            },
        )

    def check(self, key: int, outcome: Outcome) -> list[str]:
        out = outcome.output
        problems = []
        want = self.expected.get(str(key))
        rtol = self.tol["cost_rtol"]
        if want is None:
            problems.append(f"no recorded expectation for instance seed {key}")
        else:
            # The lost value is a sum of continuous random values over
            # the rejected jobs, so matching it pins the decisions; the
            # traced run also counts the accepted jobs exactly.
            for item in ("cost", "lost_value"):
                if not rel_close(out[item], want[item], rtol):
                    problems.append(
                        f"{item} {out[item]!r} != recorded {want[item]!r}"
                    )
        if out["grid_size"] > self.cfg["slots"] + 10:
            problems.append(
                f"regime: grid of {out['grid_size']} intervals for "
                f"{self.cfg['slots']} slots"
            )
        return problems

    def check_traced(self, tracer: Tracer, jobs: int, keys: list[int]) -> list[str]:
        problems = []
        fills = tracer.calls.get("waterfill", 0)
        accepted = tracer.counters.get("pd.accepted", 0)
        if jobs - fills < 0.5 * jobs:
            problems.append(f"regime: screen decided {jobs - fills}/{jobs} (< 50%)")
        if accepted > 0.1 * jobs:
            problems.append(f"regime: {accepted}/{jobs} accepted (> 10%)")
        want = sum(self.expected[str(k)]["accepted"] for k in keys)
        if not rel_close(accepted, want, self.tol["accepted_rtol"]):
            problems.append(f"accepted {accepted} != recorded {want}")
        return problems


FOOTER_COLD = "({cells} cells computed, 0 served from cache)"
FOOTER_WARM = "(0 cells computed, {cells} served from cache)"


class Sweep:
    """``repro sweep`` in-process through ``repro.io.cli.main``: one cold
    invocation on a fresh sqlite cache, then the same invocation warm."""

    name = "sweep"
    #: Set for the traced run only; opens per-invocation spans.
    tracer: Tracer | None = None

    def __init__(
        self, config: dict, tolerances: dict, scratch: Path, seed: int, workers: int
    ):
        self.cfg = config
        self.tol = tolerances
        self.scratch = scratch
        self.workers = workers
        # The sweep's own instance seeds, drawn from the workload seed.
        self.seeds = random.Random(seed).sample(range(10**6), config["seeds"])
        self.cells = config["seeds"] * len(config["alphas"]) * len(config["algorithms"])

    def keys(self) -> Iterator[int]:
        return iter(range(10**9))

    def warm_up(self) -> None:
        """A one-seed serial sweep, so the parent (and the workers it
        forks later) has imported every module the cells use."""
        self.run(self._inputs(self.seeds[:1], 1))

    def setup(self, key: int) -> dict:
        return self._inputs(self.seeds, self.workers)

    def _inputs(self, seeds: list[int], workers: int) -> dict:
        from repro.workloads import poisson_instance

        cfg = self.cfg
        # The instances the CLI will build from the same family and
        # seeds; the output check prices them with run_pd directly.
        instances = {
            alpha: [
                poisson_instance(cfg["n"], m=cfg["m"], alpha=alpha, seed=s)
                for s in seeds
            ]
            for alpha in cfg["alphas"]
        }
        directory = Path(tempfile.mkdtemp(prefix="sweep-", dir=self.scratch))
        argv = [
            "sweep", "poisson",
            "-n", str(cfg["n"]),
            "--alphas", ",".join(str(a) for a in cfg["alphas"]),
            "--ms", str(cfg["m"]),
            "--algorithms", ",".join(cfg["algorithms"]),
            "--seeds", ",".join(str(s) for s in seeds),
            "--workers", str(workers),
            "--cache", str(directory / "cache.sqlite"),
            "--cache-backend", "sqlite",
        ]
        return {"dir": directory, "argv": argv, "instances": instances}

    def invoke(self, inputs: dict, label: str) -> tuple[float, int, str, bytes]:
        from repro.io import cli

        out = inputs["dir"] / f"{label}.json"
        buffer = io.StringIO()
        span = self.tracer.span(label) if self.tracer else contextlib.nullcontext()
        # Every invocation starts from the same collector state, so a
        # full collection left over from earlier work lands in none.
        gc.collect()
        start = time.perf_counter()
        with span, contextlib.redirect_stdout(buffer):
            code = cli.main([*inputs["argv"], "--json", str(out)])
        wall = time.perf_counter() - start
        reap_children()
        return wall, code, buffer.getvalue(), out.read_bytes()

    def run(self, inputs: dict) -> Outcome:
        try:
            cold = self.invoke(inputs, "cold")
            warm = self.invoke(inputs, "warm")
        finally:
            shutil.rmtree(inputs["dir"], ignore_errors=True)
        return Outcome(
            busy_s=cold[0],
            jobs=self.cells * self.cfg["n"],
            output={"cold": cold, "warm": warm, "instances": inputs["instances"]},
            warm_s=warm[0],
        )

    def check(self, key: int, outcome: Outcome) -> list[str]:
        out = outcome.output
        cells = self.cells
        _, code, text, blob = out["cold"]
        problems = []
        if code != 0:
            problems.append(f"cold sweep returned {code}")
        if FOOTER_COLD.format(cells=cells) not in text:
            problems.append("cold sweep did not compute every cell")
        problems += self._check_cells(blob, out["instances"])
        _, wcode, wtext, wblob = out["warm"]
        if wcode != 0:
            problems.append(f"warm sweep returned {wcode}")
        if FOOTER_WARM.format(cells=cells) not in wtext:
            # Regime guard: the warm pass must be all cache hits.
            problems.append("regime: warm sweep hit ratio below 1.0")
        if wblob != blob:
            problems.append("warm cells JSON differs from cold")
        return problems

    def _check_cells(self, blob: bytes, instances: dict) -> list[str]:
        from repro.core import pd

        cfg = self.cfg
        payload = json.loads(blob)
        rows = payload["cells"]
        problems = []
        if len(rows) != len(cfg["alphas"]) * len(cfg["algorithms"]):
            problems.append(f"{len(rows)} aggregated cells")
        for row in rows:
            if row["runs"] != len(self.seeds):
                problems.append(f"cell {row['algorithm']} aggregates {row['runs']} runs")
            if not math.isfinite(row["mean_cost"]):
                problems.append(f"cell {row['algorithm']} has cost {row['mean_cost']}")
            ratio = row["worst_certified_ratio"]
            alpha = row["params"]["alpha"]
            if row["algorithm"] == "pd" and not (
                ratio is not None and ratio <= alpha**alpha * (1 + 1e-7)
            ):
                problems.append(f"pd certificate ratio {ratio} at alpha {alpha}")
            if row["algorithm"] == "pd":
                costs = [pd.run_pd(inst).cost for inst in instances[alpha]]
                want = sum(costs) / len(costs)
                if not rel_close(row["mean_cost"], want, self.tol["cost_rtol"]):
                    problems.append(
                        f"pd mean cost {row['mean_cost']!r} at alpha {alpha} "
                        f"!= run_pd's {want!r}"
                    )
        return problems

    def check_traced(self, tracer: Tracer, jobs: int, keys: list[int]) -> list[str]:
        return []


def reap_children(timeout: float = 10.0) -> None:
    """Wait for every worker process this process started; kill any
    that outlive ``timeout`` (a hung cell after a unit timeout)."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            for child in multiprocessing.active_children():
                child.kill()
                child.join(5)
            return
        time.sleep(0.005)


def stop_resource_tracker() -> None:
    """Stop the ``multiprocessing`` resource tracker, if this process
    started one, and wait for it to exit.

    The sweep's shared-memory result transport starts the tracker. It is
    not a child that ``active_children`` lists, and left alone it outlives
    this process until it reads end-of-file on its pipe. Call it only
    after :func:`reap_children`, when no worker still uses it.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()
    elif getattr(tracker, "_fd", None) is not None:
        os.close(tracker._fd)
        tracker._fd = None
        os.waitpid(tracker._pid, 0)
        tracker._pid = None
