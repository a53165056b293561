"""The paper's online primal-dual algorithm **PD** (Listing 1).

PD processes jobs in arrival order. For each new job it prices the job's
workload against the atomic intervals of its window using the marginal
energy of Chen et al.'s schedules (water-filling; see
:mod:`repro.core.waterfill`), then either

* **accepts**: fixes the per-interval assignment at the clearing price
  ``lambda_j < v_j`` (the assignment of *earlier* jobs is never moved —
  the structural difference from Optimal Available highlighted by the
  paper's Figure 3), or
* **rejects**: resets the tentative assignment and pays the value
  (``lambda_j = v_j``).

With the parameter ``delta = alpha**(1 - alpha)`` the resulting schedule
is ``alpha**alpha``-competitive on any number of processors (Theorem 3),
and every run carries a machine-checkable certificate: the dual value
``g(lambda~)`` computed by :mod:`repro.analysis.certificates` satisfies
``cost(PD) <= alpha**alpha * g(lambda~) <= alpha**alpha * cost(OPT)``.

Implementation note: the scheduler runs on the incremental kernels of
:mod:`repro.perf.kernels`. Each atomic interval owns a live
:class:`~repro.perf.kernels.IntervalLoads` store (descending-sorted
loads + suffix sums, maintained by sorted insertion on accept and
split-copy on refinement) instead of columns of a dense ``(n, N)``
matrix rebuilt per arrival; the dense matrices are materialized once,
in :meth:`PDScheduler.finish`. There is one driver,
:meth:`PDScheduler.arrive_many` (:meth:`PDScheduler.arrive` is a
one-row run of the same scalar routine): arrivals that refine the grid
run one by one through the scalar path, and once the grid has settled
:mod:`repro.perf.epochs` decides whole blocks with batched passes. The
outputs are bit-identical to the historical implementation (kept as
:class:`repro.perf.reference.PDSchedulerReference` and differentially
tested), while the per-arrival cost drops from O(n·N) to
O(window + split intervals).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidParameterError
from ..model.intervals import Grid
from ..model.job import Instance, Job
from ..model.schedule import Schedule
from ..perf.kernels import IntervalLoads, WindowKernel
from ..types import FloatArray
from .waterfill import waterfill_job

__all__ = ["PDResult", "JobDecision", "PDScheduler", "run_pd"]


@dataclass(frozen=True)
class JobDecision:
    """Per-job record of what PD decided at arrival time.

    Attributes
    ----------
    job_id:
        Index of the job in the (arrival-ordered) instance.
    accepted:
        Whether PD finished the job (``y~_j``).
    lam:
        The dual variable ``lambda~_j``.
    planned_speed:
        The speed ``s~_j`` the job was priced at just before ``lambda_j``
        got fixed (Equation (10)).
    planned_loads:
        For rejected jobs: the loads PD *planned* just before rejecting
        (the paper's ``x̌``), keyed by the grid the job saw at arrival —
        re-expressed on the final grid, see :class:`PDResult`. Empty for
        accepted jobs (their final loads live in the schedule).
    """

    job_id: int
    accepted: bool
    lam: float
    planned_speed: float
    planned_work: float


@dataclass(frozen=True)
class PDResult:
    """Everything a PD run produces.

    ``schedule`` is the realized schedule; ``lambdas`` the dual vector
    ``lambda~`` (in job-id order of ``schedule.instance``);
    ``planned_loads`` holds, for every job, either its final loads
    (accepted) or the loads planned just before rejection (``x̌``), both
    on the final grid — the analysis package consumes these.
    """

    schedule: Schedule
    decisions: tuple[JobDecision, ...]
    lambdas: FloatArray
    planned_loads: FloatArray
    delta: float

    @property
    def cost(self) -> float:
        return self.schedule.cost

    @property
    def accepted_mask(self) -> np.ndarray:
        return self.schedule.finished

    def summary(self) -> str:
        """Human-readable run summary."""
        alpha = self.schedule.instance.alpha
        lines = [
            self.schedule.summary(),
            f"  delta = {self.delta:.6g} (optimal: {alpha ** (1 - alpha):.6g})",
        ]
        return "\n".join(lines)


class PDScheduler:
    """Stateful online scheduler implementing Listing 1.

    Feed jobs in non-decreasing release order — one at a time via
    :meth:`arrive`, or a columnar block via :meth:`arrive_many` (the two
    mix freely) — and read the result off :meth:`finish`. The scheduler
    maintains the grid of atomic intervals induced by the jobs seen so
    far and refines it on each arrival, splitting frozen loads
    proportionally (the paper's load-preserving refinement, Section 3).

    Parameters
    ----------
    m, alpha:
        Machine environment.
    delta:
        Aggressiveness parameter; defaults to the Theorem 3 optimum
        ``alpha**(1 - alpha)`` (required explicitly when ``power``
        overrides the polynomial — no optimal default is known there).
    power:
        Power function override for the water-filling marginals. The
        paper's theory is for ``P(s) = s**alpha``; passing another convex
        :class:`~repro.model.power.PowerFunction` runs the same greedy
        primal-dual machinery in the generalized setting of
        :mod:`repro.general` (Gupta–Krishnaswamy–Pruhs framework). The
        ``alpha`` argument is then only used for result bookkeeping.
    batch:
        Inert. The scheduler picks per-arrival or batched processing
        itself (see :meth:`arrive_many`); the keyword is still accepted,
        and validated (``"arrival"`` or ``"epoch"``), so that callers
        written against the old execution switch keep working.
    """

    def __init__(
        self,
        *,
        m: int,
        alpha: float,
        delta: float | None = None,
        power=None,
        batch: str = "arrival",
    ) -> None:
        if m < 1:
            raise InvalidParameterError(f"m must be >= 1, got {m}")
        if batch not in ("arrival", "epoch"):
            raise InvalidParameterError(
                f"batch must be 'arrival' or 'epoch', got {batch!r}"
            )
        from ..model.power import PolynomialPower

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

        self._grid: Grid | None = None
        #: One live sorted-load store per atomic interval (accepted work).
        self._states: list[IntervalLoads] = []
        #: Per interval, the planned ``(job_id, load)`` entries — final
        #: loads for accepted jobs, the pre-rejection ``x̌`` otherwise.
        self._planned: list[list[tuple[int, float]]] = []
        self._last_release = -np.inf
        #: Total arrivals so far.
        self._count = 0
        #: Jobs and decisions in chunks: job columns (release, deadline,
        #: workload, value) and decision columns (accepted, lam, speed,
        #: planned_work lists). A batched block stores its job columns as
        #: the float arrays it read; scalar arrivals append to one open
        #: chunk of plain lists. Materialized into Job/JobDecision
        #: objects in :meth:`finish`.
        self._chunks: list[tuple] = []
        #: Job objects the caller handed in, by job id; :meth:`finish`
        #: reuses them (names included) instead of rebuilding from the
        #: columns.
        self._given: dict[int, Job] = {}
        #: Intervals whose store has deferred (unflushed) suffix sums.
        self._dirty_suffix: set[int] = set()
        #: Intervals whose cached opening level is stale.
        self._stale_open: set[int] = set()
        #: Per-interval opening-speed envelope for the epoch pre-screen
        #: (length N+1, trailing +inf sentinel); None when grid changed.
        self._opens = None
        #: Grid lengths as a plain float list (cache; None when stale).
        self._len_list: list[float] | None = None

    # ------------------------------------------------------------------
    # Online interface
    # ------------------------------------------------------------------
    def arrive(self, job: Job) -> JobDecision:
        """Process the arrival of ``job`` and commit PD's decision."""
        if job.release < self._last_release - 1e-12:
            raise InvalidParameterError(
                f"jobs must arrive in release order: got release {job.release} "
                f"after {self._last_release}"
            )
        job_id = self._count
        self._arrive_run(
            [float(job.release)],
            [float(job.deadline)],
            [float(job.workload)],
            [float(job.value)],
        )
        self._given[job_id] = job
        _, _, _, _, acc, lam, spd, pw = self._chunks[-1]
        return JobDecision(
            job_id=job_id,
            accepted=acc[-1],
            lam=lam[-1],
            planned_speed=spd[-1],
            planned_work=pw[-1],
        )

    def arrive_many(self, arrays) -> None:
        """Process a columnar block of arrivals (release-ordered).

        Consumed by :func:`repro.perf.epochs.arrive_epochs` in blocks:
        while arrivals keep refining the grid they run one by one through
        the scalar path, and once the grid has settled whole blocks are
        screened and decided with batched numpy passes. Decisions are
        bit-identical to feeding ``arrays.job(i)`` to :meth:`arrive`.
        """
        from ..perf.epochs import arrive_epochs

        arrive_epochs(self, arrays)

    def _arrive_run(self, releases, deadlines, workloads, values) -> int:
        """Run arrivals through the scalar path; return how many ran.

        The columns are plain-float lists of equal length, already
        checked for release order. Each arrival refines the grid, is
        priced by :func:`~repro.core.waterfill.waterfill_job` against a
        :class:`~repro.perf.kernels.WindowKernel` of the live stores, and
        is committed. The run stops right after the first arrival that
        did not refine the grid (the grid has caught up, so the batched
        path can take over). Jobs and decisions are appended to the open
        list chunk, so consecutive runs (and :meth:`arrive` calls) share
        one chunk.
        """
        chunks = self._chunks
        if not chunks or type(chunks[-1][0]) is not list:
            chunks.append(([], [], [], [], [], [], [], []))
        rel_c, dl_c, wl_c, val_c, acc, lam, spd, pw = chunks[-1]
        start = self._count
        m = self.m
        self._flush_suffixes()
        for release, deadline, workload, value in zip(
            releases, deadlines, workloads, values
        ):
            if release > self._last_release:
                self._last_release = release
            refined = self._refine_grid(release, deadline)
            states = self._states
            grid = self._grid
            assert grid is not None
            ks = grid.covering(release, deadline)
            i0, j0 = ks.start, ks.stop
            kernel = WindowKernel(
                states[i0:j0], grid.lengths[i0:j0].tolist(), m
            )
            outcome = waterfill_job(
                kernel,
                workload=workload,
                value=value,
                delta=self.delta,
                power=self.power,
            )
            # Commit: sorted insertion into each interval's live store
            # for an accept; either way the planned loads (``x̌``) are
            # recorded. Exact zeros carry no information (the dense
            # materialization is zero-initialized) and are skipped.
            job_id = self._count
            accepted = outcome.accepted
            for offset, z in enumerate(outcome.loads.tolist()):
                if z == 0.0:
                    continue
                k = i0 + offset
                if accepted:
                    states[k].insert(job_id, z)
                    self._stale_open.add(k)
                self._planned[k].append((job_id, z))
            rel_c.append(release)
            dl_c.append(deadline)
            wl_c.append(workload)
            val_c.append(value)
            acc.append(accepted)
            lam.append(outcome.lam)
            spd.append(outcome.speed)
            pw.append(outcome.planned_work)
            self._count = job_id + 1
            if not refined:
                break
        return self._count - start

    def _materialize(self) -> tuple[Instance, tuple[JobDecision, ...]]:
        """The (instance, decisions) pair, built from the chunks.

        Jobs the caller handed in as objects are reused as they are;
        the others are rebuilt from the columns (same floats, no name).
        """
        decisions = []
        jobs: list[Job] = []
        given = self._given
        job_id = 0
        for rel_l, dl_l, wl_l, val_l, acc, lam, spd, pw in self._chunks:
            if type(rel_l) is not list:  # a batched block's arrays
                rel_l = rel_l.tolist()
                dl_l = dl_l.tolist()
                wl_l = wl_l.tolist()
                val_l = val_l.tolist()
            for t in range(len(acc)):
                decisions.append(
                    JobDecision(
                        job_id=job_id,
                        accepted=acc[t],
                        lam=lam[t],
                        planned_speed=spd[t],
                        planned_work=pw[t],
                    )
                )
                job = given.get(job_id)
                if job is None:
                    job = Job(
                        release=rel_l[t],
                        deadline=dl_l[t],
                        workload=wl_l[t],
                        value=val_l[t],
                    )
                jobs.append(job)
                job_id += 1
        instance = Instance(tuple(jobs), m=self.m, alpha=self._alpha)
        return instance, tuple(decisions)

    def finish(self) -> PDResult:
        """Assemble the final :class:`PDResult` after all arrivals."""
        if self._count == 0:
            raise InvalidParameterError("no jobs were processed")
        assert self._grid is not None
        self._flush_suffixes()
        instance, decisions = self._materialize()
        finished = np.array([d.accepted for d in decisions], dtype=bool)
        n = self._count
        big_n = self._grid.size
        loads = self.snapshot_loads()
        planned = np.zeros((n, big_n))
        for k, entries in enumerate(self._planned):
            for job_id, z in entries:
                planned[job_id, k] = z
        schedule = Schedule(
            instance=instance,
            grid=self._grid,
            loads=loads,
            finished=finished,
        )
        return PDResult(
            schedule=schedule,
            decisions=decisions,
            lambdas=np.array([d.lam for d in decisions]),
            planned_loads=planned,
            delta=self.delta,
        )

    def snapshot_loads(self) -> FloatArray:
        """Dense ``(jobs so far, N)`` view of the committed assignment.

        A materialization of the live per-interval stores on the current
        grid — the matrix the historical implementation carried around
        explicitly. Diagnostics/tests only; O(n·N) per call.
        """
        if self._grid is None:
            return np.zeros((0, 0))
        loads = np.zeros((self._count, self._grid.size))
        for k, state in enumerate(self._states):
            if state.ids:
                loads[state.ids, k] = state.loads
        return loads

    # ------------------------------------------------------------------
    # Streaming cost accessors
    # ------------------------------------------------------------------
    def streaming_energy(self) -> float:
        """Energy of the committed assignment, straight off the live stores.

        Evaluates Equation (6) per interval from the descending-sorted
        :class:`~repro.perf.kernels.IntervalLoads` stores without
        materializing the dense ``(n, N)`` load matrix — the matrix a
        million-job run cannot afford (``finish()`` would allocate tens
        of gigabytes). Bit-identical to ``finish().schedule.energy``
        on every instance where the dense matrix *is* affordable
        (asserted by the parity suite).
        """
        if self._grid is None:
            return 0.0
        from ..perf.energy import stores_energy  # lazy: layering

        self._flush_suffixes()
        return stores_energy(
            self._states, self._grid.lengths, self.m, self.power
        )

    def streaming_lost_value(self) -> float:
        """Sum of values of rejected jobs so far (no dense schedule)."""
        if self._count == 0:
            return 0.0
        values = np.concatenate([c[3] for c in self._chunks])
        finished = np.array([a for c in self._chunks for a in c[4]], dtype=bool)
        return float(values[~finished].sum())

    def streaming_cost(self) -> float:
        """Energy plus lost value of the run so far (Equation (1))."""
        return self.streaming_energy() + self.streaming_lost_value()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _flush_suffixes(self) -> None:
        """Rebuild every deferred suffix sum (epoch-mode bookkeeping)."""
        if self._dirty_suffix:
            for k in self._dirty_suffix:
                self._states[k].flush_suffix()
            self._dirty_suffix.clear()

    def _length_list(self) -> list[float]:
        """Grid lengths as plain floats (cached per grid version).

        Exactly the floats ``float(lengths[k])`` yields — ``tolist`` and
        scalar conversion both round-trip the same float64 — cached so
        the epoch hot loop can slice windows without per-interval numpy
        scalar boxing.
        """
        if self._len_list is None:
            assert self._grid is not None
            self._len_list = self._grid.lengths.tolist()
        return self._len_list

    def _refine_grid(self, release: float, deadline: float) -> bool:
        """Insert the new job's window endpoints, splitting frozen loads.

        A specialized two-point refinement: the generic
        :meth:`~repro.model.intervals.Grid.refine` computes parent and
        fraction arrays for *every* new interval, but an arrival only
        ever splits the (at most two) intervals its endpoints land in
        and possibly extends the span — so the surgery here touches
        exactly those stores and leaves every other store object in
        place. Unsplit intervals keep their exact loads: the reference
        path multiplied them by a fraction that is exactly ``1.0``
        (child and parent read their endpoints from the same boundary
        floats), a bitwise no-op. Split children scale by
        ``(child_end - child_start) / parent_length`` — the same single
        multiply, in the same float order, as
        :meth:`~repro.model.intervals.Refinement.split_row`.
        """
        if self._grid is None:
            self._grid = Grid.from_points([release, deadline])
            self._states = [IntervalLoads() for _ in range(self._grid.size)]
            self._planned = [[] for _ in range(self._grid.size)]
            self._len_list = None
            self._opens = None
            return True
        b = self._grid.boundaries
        fresh = self._grid.fresh_points([release, deadline])
        if not fresh:
            return False

        lo = float(b[0])
        hi = float(b[-1])
        front = sum(1 for p in fresh if p < lo)
        tail = sum(1 for p in fresh if p > hi)
        # Interior points grouped by the old interval they split.
        splits: dict[int, list[float]] = {}
        for p in fresh:
            if lo < p < hi:
                k = int(np.searchsorted(b, p, side="right")) - 1
                splits.setdefault(k, []).append(p)

        merged = np.sort(
            np.concatenate((b, np.asarray(fresh, dtype=np.float64)))
        )
        self._grid = Grid(merged)

        for k in sorted(splits, reverse=True):
            cuts = [float(b[k]), *splits[k], float(b[k + 1])]
            length = float(b[k + 1]) - float(b[k])
            fractions = [
                (cuts[i + 1] - cuts[i]) / length for i in range(len(cuts) - 1)
            ]
            state = self._states[k]
            self._states[k : k + 1] = [state.split(f) for f in fractions]
            entries = self._planned[k]
            self._planned[k : k + 1] = [
                [(job_id, z * f) for job_id, z in entries] for f in fractions
            ]
        if front:
            self._states[0:0] = [IntervalLoads() for _ in range(front)]
            self._planned[0:0] = [[] for _ in range(front)]
        if tail:
            self._states.extend(IntervalLoads() for _ in range(tail))
            self._planned.extend([] for _ in range(tail))
        # Interval indices shifted: drop the caches keyed by them.
        self._len_list = None
        self._opens = None
        return True


def run_pd(instance: Instance, *, delta: float | None = None) -> PDResult:
    """Run PD on a full instance (jobs fed in arrival order).

    This is the main entry point of the library. Jobs are sorted by
    release time (deterministic tie-breaking); the returned result's
    instance reflects that order. The jobs are consumed straight off the
    instance's columns by :meth:`PDScheduler.arrive_many`; when the
    instance already holds ``Job`` objects, the result reuses them, so
    job names survive.

    Examples
    --------
    >>> from repro import Instance, run_pd
    >>> inst = Instance.from_tuples(
    ...     [(0.0, 1.0, 1.0, 0.001), (0.0, 2.0, 1.0, 10.0)], m=1, alpha=2.0
    ... )
    >>> result = run_pd(inst)  # jobs in arrival order: low-value job first
    >>> [bool(a) for a in result.accepted_mask]
    [False, True]
    """
    ordered = instance.sorted_by_release()
    scheduler = PDScheduler(m=ordered.m, alpha=ordered.alpha, delta=delta)
    return _run_ordered(scheduler, ordered)


def _run_ordered(scheduler: PDScheduler, ordered: Instance) -> PDResult:
    """Feed a release-ordered instance to a fresh scheduler and finish.

    The columns go to :meth:`PDScheduler.arrive_many`; when the instance
    already holds ``Job`` objects, the result reuses them.
    """
    if "jobs" in ordered.__dict__:
        scheduler._given = dict(enumerate(ordered.jobs))
    scheduler.arrive_many(ordered.arrays)
    return scheduler.finish()


# ----------------------------------------------------------------------
# Engine registration
# ----------------------------------------------------------------------
from ..engine.registry import register_algorithm  # noqa: E402


def _pd_certificate(result: PDResult):
    from ..analysis.certificates import dual_certificate

    return dual_certificate(result)


@register_algorithm(
    "pd",
    profit_aware=True,
    online=True,
    multiprocessor=True,
    certificate=_pd_certificate,
    summary="the paper's primal-dual algorithm (alpha^alpha-competitive, any m)",
    variant_params={"delta": float},
)
def _run_pd_registered(
    instance: Instance, *, delta: float | None = None
) -> tuple[Schedule, object]:
    result = run_pd(instance, delta=delta)
    return result.schedule, result
