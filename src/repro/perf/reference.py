"""Historical straight-line implementations, kept for parity testing.

The incremental kernels (:mod:`repro.perf.kernels`) promise *bit
parity*: same schedules, same costs, same certificates, same cache
keys as the code they replaced. That promise is only checkable if the
replaced code still exists — so the pre-kernel implementations live
here, verbatim (dense load matrices, per-arrival ``SortedLoads``
rebuilds, full-matrix refinement remaps), exercised exclusively by the
differential tests in ``tests/test_perf_kernels.py`` and available for
ad-hoc A/B measurements via the bench harness.

Deliberately slow. Never import this module from a hot path.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..chen.interval_power import SortedLoads
from ..chen.scheduler import IntervalSchedule, schedule_interval
from ..classical.oa import _EPS as _OA_EPS
from ..classical.oa import _WORK_TOL as _OA_WORK_TOL
from ..classical.oa import oa_plan
from ..classical.timeline import IntervalSet
from ..classical.yds import _EPS as _YDS_EPS
from ..core.pd import JobDecision, PDResult
from ..core.waterfill import _WORK_TOL, WaterfillOutcome, waterfill_job
from ..errors import InvalidParameterError, SolverError
from ..model.intervals import Grid, Refinement
from ..model.job import Instance, Job
from ..model.power import PolynomialPower, PowerFunction
from ..model.schedule import _LOAD_EPS, Schedule
from ..types import FloatArray

__all__ = [
    "PARITY_PAIRS",
    "PDSchedulerReference",
    "oa_segments_reference",
    "realize_reference",
    "run_pd_reference",
    "schedule_energy_reference",
    "waterfill_job_reference",
]

#: Bisection step cap of :func:`waterfill_job_reference`.
_MAX_BISECT = 200

#: Kernel -> reference counterpart, for pairs the ``<name>_reference``
#: naming convention cannot express (a data-structure kernel whose
#: reference twin is the whole scheduler it accelerates). ``repro lint``
#: (RPR3xx) reads this table: every public ``repro.perf`` kernel must
#: resolve to a name defined in this module, and some test must
#: exercise both names together.
PARITY_PAIRS = {
    "IntervalLoads": "run_pd_reference",
    "WindowKernel": "run_pd_reference",
    "schedule_energy": "schedule_energy_reference",
    "stores_energy": "schedule_energy_reference",
    # The arrival-epoch block loop behind PDScheduler.arrive_many
    # (repro.perf.epochs): its twin is the dense per-arrival scheduler,
    # for every block length.
    "DEFAULT_EPOCH_SIZE": "run_pd_reference",
    "arrive_epochs": "run_pd_reference",
}


def schedule_energy_reference(schedule: Schedule) -> float:
    """The historical per-column ``Schedule.energy`` loop, verbatim.

    Replaced by the batched all-columns kernel
    (:func:`repro.perf.energy.schedule_energy`); kept for differential
    testing of that kernel.
    """
    from ..chen.interval_power import interval_energy
    from ..chen.partition import _LOAD_EPS as _part_eps
    from ..model.schedule import _LOAD_EPS as _load_eps

    lengths = schedule.grid.lengths
    power = schedule.instance.power
    m = schedule.instance.m
    cols = np.ascontiguousarray(schedule.loads.T)
    total = 0.0
    for k in range(schedule.grid.size):
        col = cols[k]
        if float(col.sum()) <= _load_eps:
            continue
        active = col[col != 0.0]
        length = float(lengths[k])
        if active.size == 1:
            if float(active[0]) > _part_eps:
                total += (
                    float(np.sum(power.power_array(active / length))) * length
                )
            continue
        total += interval_energy(active, m, length, power)
    return total


def realize_reference(schedule: Schedule) -> list[IntervalSchedule]:
    """The historical per-column ``Schedule.realize`` loop, verbatim.

    Replaced by the walk over the schedule's column-sparse view
    (:attr:`repro.model.schedule.Schedule.columns`); kept for
    differential testing of that path.
    """
    out: list[IntervalSchedule] = []
    for k in range(schedule.grid.size):
        a, b = schedule.grid.interval(k)
        col = schedule.loads[:, k]
        active = np.nonzero(col > _LOAD_EPS)[0]
        out.append(
            schedule_interval(
                col[active],
                job_ids=[int(j) for j in active],
                m=schedule.instance.m,
                start=a,
                end=b,
                power=schedule.instance.power,
            )
        )
    return out


class PDSchedulerReference:
    """The pre-kernel ``PDScheduler``: dense matrices, per-arrival sorts.

    A verbatim copy of the historical online scheduler. Every arrival
    rebuilds one :class:`SortedLoads` cache per window interval from the
    full ``(n, N)`` load matrix, grows both matrices by one row, and
    remaps every row through each grid refinement — O(n·N) per arrival,
    which is exactly the cost profile the incremental kernels remove.
    """

    def __init__(
        self,
        *,
        m: int,
        alpha: float,
        delta: float | None = None,
        power: PowerFunction | None = None,
    ) -> None:
        if m < 1:
            raise InvalidParameterError(f"m must be >= 1, got {m}")

        self.m = m
        if power is None:
            self.power = PolynomialPower(alpha)
            self.delta = (
                float(delta) if delta is not None else self.power.optimal_delta
            )
        else:
            self.power = power
            if delta is None:
                raise InvalidParameterError(
                    "delta must be given explicitly with a custom power "
                    "function (no Theorem 3 default applies)"
                )
            self.delta = float(delta)
        self._alpha = float(alpha)
        if self.delta <= 0.0:
            raise InvalidParameterError(f"delta must be > 0, got {self.delta}")

        self._jobs: list[Job] = []
        self._grid: Grid | None = None
        self._loads: FloatArray = np.zeros((0, 0))
        self._planned: FloatArray = np.zeros((0, 0))
        self._decisions: list[JobDecision] = []
        self._last_release = -np.inf

    def arrive(self, job: Job) -> JobDecision:
        if job.release < self._last_release - 1e-12:
            raise InvalidParameterError(
                f"jobs must arrive in release order: got release {job.release} "
                f"after {self._last_release}"
            )
        self._last_release = max(self._last_release, job.release)
        job_id = len(self._jobs)
        self._jobs.append(job)

        self._refine_grid(job)
        assert self._grid is not None
        ks = list(self._grid.covering(job.release, job.deadline))
        lengths = self._grid.lengths

        caches = [
            SortedLoads(self._loads[:, k], self.m, float(lengths[k])) for k in ks
        ]
        outcome = waterfill_job(
            caches,
            workload=job.workload,
            value=job.value,
            delta=self.delta,
            power=self.power,
        )

        n_new = job_id + 1
        grown = np.zeros((n_new, self._grid.size))
        grown[:job_id] = self._loads
        self._loads = grown
        grown_p = np.zeros((n_new, self._grid.size))
        grown_p[:job_id] = self._planned
        self._planned = grown_p

        if outcome.accepted:
            self._loads[job_id, ks] = outcome.loads
            self._planned[job_id, ks] = outcome.loads
        else:
            self._planned[job_id, ks] = outcome.loads

        decision = JobDecision(
            job_id=job_id,
            accepted=outcome.accepted,
            lam=outcome.lam,
            planned_speed=outcome.speed,
            planned_work=outcome.planned_work,
        )
        self._decisions.append(decision)
        return decision

    def finish(self) -> PDResult:
        if not self._jobs:
            raise InvalidParameterError("no jobs were processed")
        assert self._grid is not None
        instance = Instance(tuple(self._jobs), m=self.m, alpha=self._alpha)
        finished = np.array([d.accepted for d in self._decisions], dtype=bool)
        schedule = Schedule(
            instance=instance,
            grid=self._grid,
            loads=self._loads.copy(),
            finished=finished,
        )
        return PDResult(
            schedule=schedule,
            decisions=tuple(self._decisions),
            lambdas=np.array([d.lam for d in self._decisions]),
            planned_loads=self._planned.copy(),
            delta=self.delta,
        )

    def _refine_grid(self, job: Job) -> None:
        if self._grid is None:
            self._grid = Grid.from_points([job.release, job.deadline])
            self._loads = np.zeros((0, self._grid.size))
            self._planned = np.zeros((0, self._grid.size))
            return
        refinement = self._grid.refine([job.release, job.deadline])
        if refinement.grid.same_as(self._grid):
            return
        self._loads = _remap_rows(self._loads, refinement)
        self._planned = _remap_rows(self._planned, refinement)
        self._grid = refinement.grid


def _remap_rows(matrix: FloatArray, refinement: Refinement) -> FloatArray:
    """Apply a grid refinement to every row of a per-interval matrix."""
    if matrix.shape[0] == 0:
        return np.zeros((0, refinement.grid.size))
    return np.stack([refinement.split_row(row) for row in matrix])


def run_pd_reference(
    instance: Instance, *, delta: float | None = None
) -> PDResult:
    """Run the historical dense-matrix PD on a full instance."""
    ordered = instance.sorted_by_release()
    scheduler = PDSchedulerReference(
        m=ordered.m, alpha=ordered.alpha, delta=delta
    )
    for job in ordered.jobs:
        scheduler.arrive(job)
    return scheduler.finish()


def waterfill_job_reference(
    caches: "Sequence[SortedLoads] | object",
    *,
    workload: float,
    value: float,
    delta: float,
    power: PolynomialPower,
) -> WaterfillOutcome:
    """The historical bisection + Newton water-fill, verbatim.

    Replaced by the exact breakpoint solve of
    :func:`repro.core.waterfill.waterfill_job`; kept for differential
    testing of that solve (same accept/reject, speeds within rounding).
    Prices job ``j`` against the intervals in ``caches``.

    Parameters
    ----------
    caches:
        The frozen pre-arrival assignment of the job's window: either
        one :class:`SortedLoads` per atomic interval (the historical
        shape, still used by the offline solver), or any object
        exposing batched ``total_at_speed(s)`` / ``loads_at_speed(s)``
        queries — in practice a
        :class:`~repro.perf.kernels.WindowKernel`, which evaluates the
        whole window per bisection step instead of looping interval by
        interval. Both shapes produce bit-identical outcomes.
    workload, value:
        The job's ``w_j`` and ``v_j``.
    delta:
        The PD aggressiveness parameter (Theorem 3 uses
        ``alpha**(1-alpha)``).
    power:
        The power function ``P_alpha``.
    """
    if workload <= 0.0:
        raise InvalidParameterError(f"workload must be > 0, got {workload}")
    if delta <= 0.0:
        raise InvalidParameterError(f"delta must be > 0, got {delta}")
    if len(caches) == 0:
        # No interval can host the job (can happen only with a stale
        # grid); the job is rejected at its value.
        return WaterfillOutcome(
            accepted=False,
            lam=value,
            speed=0.0,
            loads=np.zeros(0),
            planned_work=0.0,
        )

    if hasattr(caches, "total_at_speed"):
        total_at_speed = caches.total_at_speed
        loads_at_speed = caches.loads_at_speed
    else:

        def total_at_speed(s: float) -> float:
            return float(sum(c.max_load_at_speed(s) for c in caches))

        def loads_at_speed(s: float) -> FloatArray:
            return np.array(
                [c.max_load_at_speed(s) for c in caches], dtype=np.float64
            )

    # Price cap: lambda <= value <=> planned speed <= s_cap. An infinite
    # value (classical must-finish jobs, the offline solver's block
    # steps, or a near-1 exponent mapping a huge value to inf) means no
    # effective cap: bracket by doubling instead.
    s_cap = (
        power.derivative_inverse(value / (delta * workload))
        if np.isfinite(value)
        else math.inf
    )
    if not np.isfinite(s_cap):
        s_cap = max(1.0, workload)
        for _ in range(200):
            if total_at_speed(s_cap) >= workload:
                break
            s_cap *= 2.0

    placed_at_cap = total_at_speed(s_cap)
    if placed_at_cap < workload * (1.0 - _WORK_TOL):
        # Even at the job's full value the intervals cannot absorb the
        # workload cheaply enough: reject. Record the planned loads for
        # the analysis of unfinished jobs.
        return WaterfillOutcome(
            accepted=False,
            lam=value,
            speed=s_cap,
            loads=loads_at_speed(s_cap),
            planned_work=placed_at_cap,
        )

    # Bracket the clearing speed: total(0) == 0 <= workload <= total(s_cap).
    lo, hi = 0.0, s_cap
    # Shrink the bracket by bisection on the monotone piecewise-linear map.
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        if total_at_speed(mid) >= workload:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-13 * max(1.0, hi):
            break

    # Newton polish on the piecewise-linear structure: the local slope is
    # sum over intervals in the interior regime of (m - d) * l_k, which a
    # symmetric finite difference recovers exactly within a linear piece.
    s = hi
    for _ in range(4):
        t = total_at_speed(s)
        gap = workload - t
        if abs(gap) <= _WORK_TOL * workload:
            break
        h = max(1e-9 * max(s, 1.0), 1e-12)
        slope = (total_at_speed(s + h) - total_at_speed(max(s - h, 0.0))) / (
            s + h - max(s - h, 0.0)
        )
        if slope <= 0.0:
            break
        s = min(max(s + gap / slope, lo), s_cap)

    loads = loads_at_speed(s)
    placed = float(loads.sum())
    if placed <= 0.0:
        # Degenerate: numerical cap hit; treat as rejection.
        return WaterfillOutcome(
            accepted=False, lam=value, speed=s_cap, loads=loads, planned_work=placed
        )
    if abs(placed - workload) > _WORK_TOL * workload:
        # Final exactness fix: scale within the (tiny) residual. The
        # relative correction is bounded by the bisection tolerance, so
        # marginal prices move negligibly.
        loads *= workload / placed
        placed = workload

    lam = delta * workload * power.derivative(s)
    lam = min(lam, value)
    return WaterfillOutcome(
        accepted=True, lam=lam, speed=s, loads=loads, planned_work=placed
    )


def _critical_window_reference(
    instance: Instance, remaining: set, events: list, frozen: IntervalSet
) -> tuple[float, float, float, list[int]]:
    """The historical literal YDS critical-window scan (O(E^2 · n)).

    Replaced by the prefix-workload scan
    :func:`repro.classical.yds._critical_window` (same signature); kept
    for differential testing of it — the parity tests monkeypatch it in
    place of the fast scan and run :func:`repro.classical.yds.yds`.
    """
    eps = _YDS_EPS
    best: tuple[float, float, float, list[int]] | None = None
    for ai in range(len(events)):
        for bi in range(ai + 1, len(events)):
            a, b = events[ai], events[bi]
            inside = [
                j
                for j in remaining
                if instance[j].release >= a - eps
                and instance[j].deadline <= b + eps
            ]
            if not inside:
                continue
            avail = (b - a) - frozen.measure_within(a, b)
            if avail <= eps:
                raise SolverError(
                    f"no available time left in candidate window [{a}, {b}] "
                    "yet jobs remain — inconsistent frozen state"
                )
            g = sum(instance[j].workload for j in inside) / avail
            if best is None or g > best[0] + eps:
                best = (g, a, b, inside)
    if best is None:  # pragma: no cover - remaining non-empty implies a window
        raise SolverError("no critical window found")
    return best


def oa_segments_reference(
    instance: Instance,
) -> tuple[Instance, list[tuple[int, float, float, float]]]:
    """The historical from-scratch OA replan.

    Every arrival epoch re-plans all remaining work with a full YDS plan
    (:func:`repro.classical.oa.oa_plan`) and executes it up to the next
    arrival. Replaced by the lazy-prefix replanner of
    :func:`repro.classical.oa.oa_segments` (same signature and output);
    kept for differential testing of it.
    """
    eps, work_tol = _OA_EPS, _OA_WORK_TOL
    if instance.m != 1:
        raise InvalidParameterError(
            f"run_oa is single-processor; instance has m={instance.m}. "
            "Use run_oa_multiprocessor for m > 1."
        )
    ordered = instance.sorted_by_release()
    n = ordered.n
    releases = ordered.releases
    epochs = sorted(set(releases.tolist()))
    horizon_end = float(ordered.deadlines.max()) if n else 0.0

    remaining = dict(enumerate(ordered.workloads.tolist()))
    deadlines = dict(enumerate(ordered.deadlines.tolist()))
    executed: list[tuple[int, float, float, float]] = []
    known_count = 0
    unfinished: set[int] = set()

    for idx, t in enumerate(epochs):
        t_next = epochs[idx + 1] if idx + 1 < len(epochs) else horizon_end
        while known_count < n and releases[known_count] <= t + eps:
            if remaining[known_count] > work_tol:
                unfinished.add(known_count)
            known_count += 1
        if not unfinished:
            continue
        plan = oa_plan(
            now=t,
            job_ids=list(range(known_count)),
            remaining=remaining,
            deadlines=deadlines,
            alpha=ordered.alpha,
        )
        for job, a, b, speed in plan.segments:
            if a >= t_next - eps:
                break
            hi = min(b, t_next)
            if hi <= a + eps:
                continue
            executed.append((job, a, hi, speed))
            remaining[job] -= (hi - a) * speed
            if remaining[job] < 0.0:
                remaining[job] = 0.0
            if remaining[job] <= work_tol:
                unfinished.discard(job)
    return ordered, executed
