"""Optimal Available (OA) — the classical online speed-scaling algorithm.

OA (Yao, Demers, Shenker 1995) maintains, at every moment, the schedule
that would be optimal if no further jobs arrived: whenever a job arrives,
it recomputes the YDS-optimal plan for all *remaining* work (released
jobs' unfinished portions, usable from "now" on) and follows that plan
until the next arrival. Bansal, Kimbrel & Pruhs proved OA is exactly
``alpha**alpha``-competitive — the same constant the paper's PD achieves
*including* job values and multiple processors.

Besides the classic single-processor :func:`run_oa`, the module provides
:func:`oa_plan`, the one-shot planning step (also the building block of
the Chan–Lam–Li profitable scheduler), and a multiprocessor variant
:func:`run_oa_multiprocessor` that substitutes our convex solver for the
Albers–Antoniadis–Greiner exact offline algorithm (see DESIGN.md,
"Substitutions").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidParameterError
from ..model.job import Instance, Job
from ..model.schedule import Schedule
from .execution import schedule_from_segments
from .timeline import IntervalSet, edf_execute
from .yds import YdsResult, _critical_window, yds

__all__ = ["OAResult", "oa_plan", "oa_segments", "run_oa", "run_oa_multiprocessor"]

_EPS = 1e-12
_WORK_TOL = 1e-9


@dataclass(frozen=True)
class OAResult:
    """An OA run: the realized schedule plus the executed segments."""

    schedule: Schedule
    segments: tuple[tuple[int, float, float, float], ...]

    @property
    def energy(self) -> float:
        return self.schedule.energy

    @property
    def cost(self) -> float:
        return self.schedule.cost


def oa_plan(
    *,
    now: float,
    job_ids: list[int],
    remaining: dict[int, float],
    deadlines: dict[int, float],
    alpha: float,
) -> YdsResult:
    """The plan OA commits to at time ``now``: YDS on the remaining work.

    Jobs are re-released at ``now`` (their original releases are in the
    past) and keep their deadlines; values are irrelevant at this layer.
    """
    alive = [
        j
        for j in job_ids
        if remaining.get(j, 0.0) > _WORK_TOL and deadlines[j] > now + _EPS
    ]
    if not alive:
        raise InvalidParameterError("oa_plan called with no remaining work")
    sub = Instance(
        tuple(
            Job(
                release=now,
                deadline=deadlines[j],
                workload=remaining[j],
                value=1.0,
                name=f"plan-{j}",
            )
            for j in alive
        ),
        m=1,
        alpha=alpha,
    )
    result = yds(sub)
    # Re-key the plan's internal ids (positions in `sub`) to caller ids.
    remap = {i: alive[i] for i in range(len(alive))}
    segments = tuple(
        (remap[j], a, b, s) for (j, a, b, s) in result.segments
    )
    speeds = np.zeros(max(job_ids) + 1)
    for i, j in remap.items():
        speeds[j] = result.job_speeds[i]
    return YdsResult(
        schedule=result.schedule,
        job_speeds=speeds,
        groups=result.groups,
        segments=segments,
    )


class _PlanJob:
    """A plan-instance job for the critical-window scan: 3 plain floats."""

    __slots__ = ("release", "deadline", "workload")

    def __init__(self, release: float, deadline: float, workload: float) -> None:
        self.release = release
        self.deadline = deadline
        self.workload = workload


class _PlanView:
    """Indexable shim standing in for a sub-``Instance`` in YDS scans.

    :func:`repro.classical.yds._critical_window` only reads
    ``instance[j].release/.deadline/.workload`` — this view serves the
    exact floats a materialized sub-instance's ``Job`` objects would
    hold, without constructing any of them.
    """

    __slots__ = ("_jobs",)

    def __init__(self, jobs: list[_PlanJob]) -> None:
        self._jobs = jobs

    def __getitem__(self, j: int) -> _PlanJob:
        return self._jobs[j]


def _execute_plan_prefix(
    *,
    now: float,
    t_next: float,
    alive: list[int],
    remaining: dict[int, float],
    deadlines: dict[int, float],
    executed: list[tuple[int, float, float, float]],
    unfinished: set[int],
    alive_pool: set[int],
) -> None:
    """Lazily plan-and-execute one OA epoch: only the prefix before ``t_next``.

    The full replan (``oa_plan`` + segment walk) computes the *entire*
    YDS plan for the remaining work and then discards everything after
    the next arrival. But every plan job shares release ``now``, so the
    YDS rounds have a special structure: each round's critical window is
    ``[now, b_i]`` with ``b_1 < b_2 < ...`` (only windows anchored at the
    common release contain jobs), the frozen set stays one contiguous
    block ``[now, b_i]``, and round ``i``'s EDF segments all live inside
    ``[b_{i-1}, b_i]``. Each round depends only on the rounds before it —
    so the group sequence can be generated lazily and cut off at the
    first round whose window ends at or past ``t_next``: every segment
    the reference would still produce starts at or after that boundary
    and is dropped by its own ``a >= t_next - _EPS`` break. The rounds
    that *are* generated run through the same ``_critical_window`` /
    ``IntervalSet`` / ``edf_execute`` code on the same floats, so the
    executed prefix is bitwise the reference's (asserted by the parity
    suite on every differential case).

    Sub-job ids are positions in ``alive`` (ascending caller ids) — the
    same monotone relabeling ``oa_plan`` applies, so every id-based
    tie-break inside the scan and the EDF heap orders identically.
    """
    view = _PlanView(
        [_PlanJob(now, deadlines[j], remaining[j]) for j in alive]
    )
    rem_sub = set(range(len(alive)))
    frozen = IntervalSet.empty()
    while rem_sub:
        events = sorted(
            {view[j].release for j in rem_sub}
            | {view[j].deadline for j in rem_sub}
        )
        g, a, b, inside = _critical_window(view, rem_sub, events, frozen)
        region = IntervalSet.span(a, b).subtract(frozen)
        job_ids = tuple(sorted(inside))
        frozen = frozen.union(region)
        rem_sub -= set(inside)
        segs = edf_execute(
            job_ids=list(job_ids),
            releases=[view[j].release for j in job_ids],
            deadlines=[view[j].deadline for j in job_ids],
            workloads=[view[j].workload for j in job_ids],
            region=region,
            speed=g,
        )
        for j_sub, sa, sb, speed in segs:
            if sa >= t_next - _EPS:
                return
            hi = min(sb, t_next)
            if hi <= sa + _EPS:
                continue
            job = alive[j_sub]
            executed.append((job, sa, hi, speed))
            remaining[job] -= (hi - sa) * speed
            if remaining[job] < 0.0:
                remaining[job] = 0.0
            if remaining[job] <= _WORK_TOL:
                unfinished.discard(job)
                alive_pool.discard(job)
        if b >= t_next - _EPS:
            # Every later round's segments start at or after this
            # window's end — the reference drops them all.
            return


def oa_segments(
    instance: Instance,
) -> tuple[Instance, list[tuple[int, float, float, float]]]:
    """Simulate OA and return ``(ordered_instance, executed_segments)``.

    The segment-level core of :func:`run_oa`, exposed separately so
    large-scale callers (the bench harness) can consume the executed
    trajectory without materializing the dense schedule matrix.

    Each epoch's YDS plan is generated lazily and stops at the first
    critical interval past the next arrival. The historical from-scratch
    replan (a full :func:`oa_plan` per epoch) is kept as
    :func:`repro.perf.reference.oa_segments_reference`; the parity suite
    asserts the two agree bit for bit.
    """
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

    # Releases are sorted, so the known set is a growing prefix, and
    # the "any work left" test is a maintained set of unfinished known
    # jobs — O(1) per epoch instead of an O(n) rescan. `alive_pool`
    # additionally drops jobs whose deadline has passed (dust below the
    # work tolerance), so building an epoch's alive list costs the size
    # of the *actually alive* set, not of all unfinished bookkeeping.
    known_count = 0
    unfinished: set[int] = set()
    alive_pool: set[int] = set()

    for idx, t in enumerate(epochs):
        t_next = epochs[idx + 1] if idx + 1 < len(epochs) else horizon_end
        while known_count < n and releases[known_count] <= t + _EPS:
            if remaining[known_count] > _WORK_TOL:
                unfinished.add(known_count)
                alive_pool.add(known_count)
            known_count += 1
        if not unfinished:
            continue
        alive = []
        for j in sorted(alive_pool):
            if deadlines[j] > t + _EPS:
                alive.append(j)
            else:
                # A passed deadline never un-passes: prune for good.
                alive_pool.discard(j)
        if not alive:
            # Work remains but nothing is plannable — the exact state in
            # which oa_plan (and so the reference replan) raises.
            raise InvalidParameterError("oa_plan called with no remaining work")
        _execute_plan_prefix(
            now=t,
            t_next=t_next,
            alive=alive,
            remaining=remaining,
            deadlines=deadlines,
            executed=executed,
            unfinished=unfinished,
            alive_pool=alive_pool,
        )

    return ordered, executed


def run_oa(instance: Instance) -> OAResult:
    """Simulate OA on a single-processor instance (all jobs are finished).

    Job values are ignored — OA predates the profitable model. The
    simulation advances from arrival epoch to arrival epoch, executing the
    current plan's EDF segments in between (see :func:`oa_segments`).
    """
    ordered, executed = oa_segments(instance)
    schedule = schedule_from_segments(
        ordered, executed, np.ones(ordered.n, dtype=bool)
    )
    return OAResult(schedule=schedule, segments=tuple(executed))


def run_oa_multiprocessor(instance: Instance) -> OAResult:
    """OA on ``m`` processors via the numeric convex optimum.

    At each arrival epoch the remaining work is re-optimized with the
    block-coordinate convex solver (our stand-in for the exact
    Albers–Antoniadis–Greiner offline algorithm) and the plan's Chen/
    McNaughton realization is executed until the next arrival. Exact on
    ``m == 1`` up to solver tolerance; used by the multiprocessor
    experiments as the natural OA generalization the paper compares
    against conceptually.
    """
    from ..offline.convex import solve_min_energy  # lazy: higher layer

    ordered = instance.sorted_by_release()
    n = ordered.n
    releases = ordered.releases
    epochs = sorted(set(releases.tolist()))
    horizon_end = max(j.deadline for j in ordered.jobs)

    remaining = {j: ordered[j].workload for j in range(n)}
    executed: list[tuple[int, float, float, float]] = []

    for idx, t in enumerate(epochs):
        t_next = epochs[idx + 1] if idx + 1 < len(epochs) else horizon_end
        alive = [
            j
            for j in range(n)
            if releases[j] <= t + _EPS
            and remaining[j] > _WORK_TOL
            and ordered[j].deadline > t + _EPS
        ]
        if not alive:
            continue
        sub = Instance(
            tuple(
                Job(t, ordered[j].deadline, remaining[j], 1.0) for j in alive
            ),
            m=ordered.m,
            alpha=ordered.alpha,
        )
        plan = solve_min_energy(sub)
        for interval_schedule in plan.schedule.realize():
            for seg in interval_schedule.segments:
                if seg.start >= t_next - _EPS:
                    continue
                hi = min(seg.end, t_next)
                if hi <= seg.start + _EPS:
                    continue
                job = alive[seg.job]
                executed.append((job, seg.start, hi, seg.speed))
                remaining[job] -= (hi - seg.start) * seg.speed
                if remaining[job] < 0.0:
                    remaining[job] = 0.0

    schedule = schedule_from_segments(ordered, executed, np.ones(n, dtype=bool))
    return OAResult(schedule=schedule, segments=tuple(executed))


# ----------------------------------------------------------------------
# Engine registration
# ----------------------------------------------------------------------
from ..engine.registry import register_algorithm  # noqa: E402


@register_algorithm(
    "oa",
    online=True,
    multiprocessor=True,
    summary="Optimal Available (alpha^alpha-competitive; m > 1 via dispatch)",
)
def _run_oa_registered(instance):
    result = run_oa(instance) if instance.m == 1 else run_oa_multiprocessor(instance)
    return result.schedule, result
