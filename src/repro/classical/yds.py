"""The YDS optimal offline algorithm (Yao, Demers, Shenker; FOCS 1995).

YDS computes the energy-minimal single-processor schedule that finishes
*all* jobs by their deadlines. It repeatedly finds the *critical
interval* — the window ``[a, b]`` maximizing the intensity

    ``g(a, b) = (sum of workloads of jobs with [r_j, d_j] inside [a, b])
                / available time in [a, b]``

— freezes those jobs at speed ``g`` inside the window's still-available
time, and recurses on the rest. We implement the "available time"
formulation: instead of collapsing coordinates, previously frozen regions
are subtracted from the measure of candidate windows, which keeps all
bookkeeping in original time.

The realization runs each critical group EDF (earliest deadline first)
inside its region at the group's constant speed, which is feasible by the
classical YDS argument. Besides the optimal schedule itself, the module
exposes each job's assigned speed — the quantity the Chan–Lam–Li
admission test and the OA marginal analysis need.

Complexity: the critical-interval search of each round evaluates all
O(n^2) candidate windows through precomputed prefix-workload vectors —
streaming one release-event row at a time over a deadline-bucket cumsum
— instead of the historical O(n) membership rescan per window, so a
round costs O(E^2) vectorized work (E = remaining events) rather than
O(E^2 · n) interpreted work. The historical literal scan is kept as
``repro.perf.reference._critical_window_reference`` for differential
testing; the fast scan re-derives
the selected window's intensity with the reference's exact float
operations, so the realized schedules are bit-identical (asserted by
the parity suite, and independently cross-validated against the
convex-programming optimum in the tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidParameterError, SolverError
from ..model.intervals import Grid, grid_for_instance
from ..model.job import Instance
from ..model.schedule import Schedule
from ..types import FloatArray
from .timeline import IntervalSet, edf_execute

__all__ = ["YdsResult", "yds"]

_EPS = 1e-12


@dataclass(frozen=True)
class YdsResult:
    """Output of the YDS algorithm.

    Attributes
    ----------
    schedule:
        The optimal schedule expressed on the instance's atomic grid.
    job_speeds:
        Per-job constant execution speed (the intensity of the job's
        critical group).
    groups:
        The critical groups in discovery order: ``(speed, job_ids,
        region)`` with ``region`` the frozen time set of that round.
    segments:
        Time-resolved EDF execution ``(job, start, end, speed)`` tuples,
        chronologically sorted — the exact trajectory online algorithms
        built on YDS plans follow.
    """

    schedule: Schedule
    job_speeds: FloatArray
    groups: tuple[tuple[float, tuple[int, ...], IntervalSet], ...]
    segments: tuple[tuple[int, float, float, float], ...]

    @property
    def energy(self) -> float:
        return self.schedule.energy


def _critical_window(
    instance: Instance, remaining: set, events: list, frozen: IntervalSet
) -> tuple[float, float, float, list[int]]:
    """Fast critical-window scan over precomputed prefix workloads.

    For every candidate window ``[events[ai], events[bi]]`` the
    contained workload is a prefix sum over a deadline-index bucket
    vector of the jobs released at or after ``events[ai]`` — one
    cumsum per release row instead of an O(n) membership rescan per
    window — and the frozen-time correction is a precomputed cumulative
    measure, so a round is O(E^2) vectorized work and O(E) memory.

    Selection replays the reference scan's exact sequential rule (a
    window wins iff its intensity beats the incumbent by more than
    ``_EPS``, rows in ``ai``-ascending then ``bi``-ascending order) on
    the vectorized intensities, then re-derives the winning window's
    members and intensity with the reference's literal float
    operations — so the value handed to the EDF realization is bitwise
    the reference's.
    """
    ev = np.asarray(events, dtype=np.float64)
    big_e = ev.size
    jobs = sorted(remaining)
    releases = np.array([instance[j].release for j in jobs])
    deadlines = np.array([instance[j].deadline for j in jobs])
    workloads = np.array([instance[j].workload for j in jobs])
    # Job j belongs to window (ai, bi) iff ai <= last_release_index[j]
    # and bi >= first_deadline_index[j] — the index translation of the
    # reference's eps-tolerant membership test.
    last_release = np.searchsorted(ev, releases + _EPS, side="right") - 1
    first_deadline = np.searchsorted(ev, deadlines - _EPS, side="left")
    # Cumulative frozen measure below each event time.
    frozen_below = np.zeros(big_e)
    for part_lo, part_hi in frozen.parts:
        frozen_below += np.clip(np.minimum(ev, part_hi) - part_lo, 0.0, None)

    # Jobs stream out of the bucket vectors as ai rises past their last
    # eligible release row. The float bucket carries the workloads; the
    # integer bucket carries exact membership counts — removal leaves
    # float dust in the workload sums, so emptiness must never be
    # judged from them (a fully frozen window misread as occupied would
    # raise a spurious SolverError).
    bucket = np.zeros(big_e)
    members = np.zeros(big_e, dtype=np.int64)
    np.add.at(bucket, first_deadline, workloads)
    np.add.at(members, first_deadline, 1)
    removal_order = np.argsort(last_release, kind="stable")
    removal_ptr = 0

    best: tuple[int, int] | None = None
    best_val = -math.inf
    for ai in range(big_e - 1):
        while (
            removal_ptr < len(jobs)
            and last_release[removal_order[removal_ptr]] < ai
        ):
            j = removal_order[removal_ptr]
            bucket[first_deadline[j]] -= workloads[j]
            members[first_deadline[j]] -= 1
            removal_ptr += 1
        if removal_ptr == len(jobs):
            break
        inside_work = np.cumsum(bucket)[ai + 1 :]
        valid = np.cumsum(members)[ai + 1 :] > 0
        if not valid.any():
            continue
        avail = (ev[ai + 1 :] - ev[ai]) - (frozen_below[ai + 1 :] - frozen_below[ai])
        if bool(np.any(valid & (avail <= _EPS))):
            bi = int(np.nonzero(valid & (avail <= _EPS))[0][0]) + ai + 1
            raise SolverError(
                f"no available time left in candidate window "
                f"[{float(ev[ai])}, {float(ev[bi])}] "
                "yet jobs remain — inconsistent frozen state"
            )
        intensity = np.full(avail.size, -math.inf)
        intensity[valid] = inside_work[valid] / avail[valid]
        # Replay of the sequential ``g > best + _EPS`` update rule.
        start = 0
        while True:
            better = np.nonzero(intensity[start:] > best_val + _EPS)[0]
            if better.size == 0:
                break
            pos = start + int(better[0])
            best_val = float(intensity[pos])
            best = (ai, ai + 1 + pos)
            start = pos + 1
    if best is None:  # pragma: no cover - remaining non-empty implies a window
        raise SolverError("no critical window found")
    ai, bi = best
    a, b = events[ai], events[bi]
    # Exact re-derivation with the reference's float operations (the
    # vectorized intensities may differ in final ulps — never enough to
    # change the winner beyond an _EPS tie, but the committed speed
    # must be bit-exact).
    inside = [
        j
        for j in remaining
        if instance[j].release >= a - _EPS and instance[j].deadline <= b + _EPS
    ]
    avail = (b - a) - frozen.measure_within(a, b)
    if avail <= _EPS:  # pragma: no cover - caught by the vectorized check
        raise SolverError(
            f"no available time left in candidate window [{a}, {b}] "
            "yet jobs remain — inconsistent frozen state"
        )
    g = sum(instance[j].workload for j in inside) / avail
    return g, a, b, inside


def yds(instance: Instance, *, grid: Grid | None = None) -> YdsResult:
    """Run YDS on a single-processor instance (values are ignored).

    Parameters
    ----------
    instance:
        Must have ``m == 1``. Every job is finished regardless of value.
    grid:
        Optional grid on which to express the resulting schedule; must
        refine the instance's own event grid. Defaults to the instance
        grid.
    """
    if instance.m != 1:
        raise InvalidParameterError(
            f"YDS is a single-processor algorithm; instance has m={instance.m}"
        )
    if instance.n == 0:
        raise InvalidParameterError("YDS needs at least one job")

    remaining = set(range(instance.n))
    frozen = IntervalSet.empty()
    groups: list[tuple[float, tuple[int, ...], IntervalSet]] = []
    job_speed = np.zeros(instance.n)

    while remaining:
        events = sorted(
            {instance[j].release for j in remaining}
            | {instance[j].deadline for j in remaining}
        )
        g, a, b, inside = _critical_window(instance, remaining, events, frozen)
        region = IntervalSet.span(a, b).subtract(frozen)
        groups.append((g, tuple(sorted(inside)), region))
        for j in inside:
            job_speed[j] = g
        frozen = frozen.union(region)
        remaining -= set(inside)

    # Realize every critical group by EDF inside its region.
    all_segments: list[tuple[int, float, float, float]] = []
    for g, job_ids, region in groups:
        segs = edf_execute(
            job_ids=list(job_ids),
            releases=[instance[j].release for j in job_ids],
            deadlines=[instance[j].deadline for j in job_ids],
            workloads=[instance[j].workload for j in job_ids],
            region=region,
            speed=g,
        )
        all_segments.extend(segs)
    all_segments.sort(key=lambda s: (s[1], s[0]))

    target_grid = grid or grid_for_instance(instance)
    loads = _loads_from_segments(instance.n, target_grid, all_segments)
    schedule = Schedule(
        instance=instance,
        grid=target_grid,
        loads=loads,
        finished=np.ones(instance.n, dtype=bool),
    )
    return YdsResult(
        schedule=schedule,
        job_speeds=job_speed,
        groups=tuple(groups),
        segments=tuple(all_segments),
    )


def _loads_from_segments(
    n: int, grid: Grid, segments: list[tuple[int, float, float, float]]
) -> FloatArray:
    """Accumulate segment work into a per-job per-interval load matrix.

    Segments may straddle grid boundaries; the work splits by overlap.
    """
    loads = np.zeros((n, grid.size))
    bounds = grid.boundaries
    for job, start, end, speed in segments:
        k0 = grid.locate(start)
        k1 = grid.locate(end - _EPS) if end - _EPS > start else k0
        for k in range(k0, k1 + 1):
            lo = max(start, float(bounds[k]))
            hi = min(end, float(bounds[k + 1]))
            if hi > lo + _EPS:
                loads[job, k] += (hi - lo) * speed
    return loads


# ----------------------------------------------------------------------
# Engine registration
# ----------------------------------------------------------------------
from ..engine.registry import register_algorithm  # noqa: E402


@register_algorithm(
    "yds",
    online=False,
    multiprocessor=False,
    summary="Yao-Demers-Shenker offline optimum (single processor)",
)
def _run_yds_registered(instance):
    result = yds(instance)
    return result.schedule, result
