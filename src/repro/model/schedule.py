"""Full-horizon schedules as per-interval work assignments.

Because the set of available jobs is constant inside an atomic interval
and the per-interval scheduler (Chen et al.) is deterministic, a schedule
is fully described by

* an atomic :class:`~repro.model.intervals.Grid`,
* an ``(n, N)`` matrix of per-job per-interval *loads* (units of work), and
* a boolean vector saying which jobs the scheduler claims to finish.

The cost of Equation (1) — energy plus lost value — and the explicit
``(job, processor, start, end, speed)`` realization both derive from this
triple. All algorithms in the library (PD, OA, YDS, the offline solvers)
return their results as a :class:`Schedule`, which makes cross-validation
and rendering uniform.

Every per-interval quantity (``P_k`` of Equation (6), Chen et al.'s
realization, the per-processor speeds) depends only on the jobs that
have work in interval ``k``, and the load matrix is overwhelmingly zero
(each job works inside its own window only). Those consumers therefore
read :attr:`Schedule.columns`, a :class:`ColumnLoads` view that holds
just the nonzero loads grouped by interval, instead of scanning the
dense ``(n, N)`` matrix column by column.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from typing import TYPE_CHECKING

from ..errors import GridMismatchError, InfeasibleScheduleError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..chen.scheduler import IntervalSchedule
from ..types import BoolArray, FloatArray, IntArray
from .intervals import Grid
from .job import Instance

__all__ = ["ColumnLoads", "Schedule", "CostBreakdown"]

#: Work-accounting slack: a job counts as finished when it gets at least
#: ``(1 - _REL_TOL)`` of its workload.
_REL_TOL = 1e-9
_LOAD_EPS = 1e-12


@dataclass(frozen=True)
class CostBreakdown:
    """Cost of a schedule split into its two components (Equation (1))."""

    energy: float
    lost_value: float

    @property
    def total(self) -> float:
        return self.energy + self.lost_value

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"cost {self.total:.6g} = energy {self.energy:.6g} "
            f"+ lost value {self.lost_value:.6g}"
        )


@dataclass(frozen=True)
class ColumnLoads:
    """Column-sparse view of an ``(n, N)`` load matrix.

    Interval ``k``'s nonzero loads are ``vals[indptr[k]:indptr[k + 1]]``,
    owned by the jobs ``rows[indptr[k]:indptr[k + 1]]`` in ascending
    order — the input order a per-column ``np.nonzero`` scan yields, so
    the stable descending sorts downstream break ties exactly as they
    do on the dense column. Exact zeros (``0.0`` and ``-0.0``) are
    dropped; every other value, including negative dust, is kept.
    Dropping zeros changes no bit of any per-interval quantity (kernel
    invariant 1 in ``docs/architecture.md``).
    """

    indptr: IntArray
    rows: IntArray
    vals: FloatArray

    @classmethod
    def from_dense(cls, loads: FloatArray) -> "ColumnLoads":
        """One nonzero pass over a C-contiguous ``(n, N)`` matrix.

        ``flatnonzero`` visits cells row-major (job, then interval); a
        stable sort by interval then groups the cells by column with the
        jobs still ascending. No transposed copy is made.
        """
        big_n = loads.shape[1]
        flat = np.flatnonzero(loads != 0.0).astype(np.int64, copy=False)
        cols = flat % big_n
        flat = flat[np.argsort(cols, kind="stable")]
        indptr = np.zeros(big_n + 1, dtype=np.int64)
        np.cumsum(np.bincount(cols, minlength=big_n), out=indptr[1:])
        return cls(indptr=indptr, rows=flat // big_n, vals=loads.ravel()[flat])


@dataclass(frozen=True)
class Schedule:
    """An immutable full-horizon schedule.

    Attributes
    ----------
    instance:
        The problem instance this schedule serves.
    grid:
        Atomic-interval partition; every job window must be aligned to it.
    loads:
        ``(n, N)`` array; ``loads[j, k]`` is the workload of job ``j``
        processed during interval ``k`` (``x_{jk} * w_j`` in paper
        notation).
    finished:
        ``(n,)`` boolean; the scheduler's claim of which jobs finish. The
        claim is cross-checked against the loads by :meth:`validate`.
    """

    instance: Instance
    grid: Grid
    loads: FloatArray
    finished: BoolArray

    def __post_init__(self) -> None:
        loads = np.ascontiguousarray(self.loads, dtype=np.float64)
        finished = np.ascontiguousarray(self.finished, dtype=bool)
        n, cols = loads.shape if loads.ndim == 2 else (-1, -1)
        if n != self.instance.n or cols != self.grid.size:
            raise GridMismatchError(
                f"loads shape {loads.shape} does not match n={self.instance.n}, "
                f"N={self.grid.size}"
            )
        if finished.shape != (self.instance.n,):
            raise GridMismatchError(
                f"finished shape {finished.shape} does not match n={self.instance.n}"
            )
        object.__setattr__(self, "loads", loads)
        object.__setattr__(self, "finished", finished)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_portions(
        cls, instance: Instance, grid: Grid, portions: FloatArray, finished: BoolArray
    ) -> "Schedule":
        """Build from paper-style portions ``x_{jk}`` (fractions of workload)."""
        x = np.ascontiguousarray(portions, dtype=np.float64)
        loads = x * instance.workloads[:, None]
        return cls(instance=instance, grid=grid, loads=loads, finished=finished)

    @classmethod
    def empty(cls, instance: Instance, grid: Grid) -> "Schedule":
        """The all-rejecting schedule (zero energy, full value loss)."""
        return cls(
            instance=instance,
            grid=grid,
            loads=np.zeros((instance.n, grid.size)),
            finished=np.zeros(instance.n, dtype=bool),
        )

    # ------------------------------------------------------------------
    # Column-sparse view
    # ------------------------------------------------------------------
    @cached_property
    def columns(self) -> ColumnLoads:
        """The nonzero loads grouped by interval (built once, O(n·N))."""
        return ColumnLoads.from_dense(self.loads)

    # ------------------------------------------------------------------
    # Cost (Equation (1))
    # ------------------------------------------------------------------
    @cached_property
    def energy(self) -> float:
        """Total energy: sum of per-interval ``P_k`` values.

        Evaluated by the batched kernel
        (:func:`repro.perf.energy.schedule_energy`) over :attr:`columns`,
        bit-identical to the historical per-column loop — which is
        retained as :func:`repro.perf.reference.schedule_energy_reference`
        and differentially tested against this path.
        """
        from ..perf.energy import schedule_energy  # lazy: layering

        return schedule_energy(
            self.loads,
            self.grid.lengths,
            self.instance.m,
            self.instance.power,
            columns=self.columns,
        )

    @cached_property
    def lost_value(self) -> float:
        """Sum of values of jobs not finished."""
        return float(self.instance.values[~self.finished].sum())

    @property
    def cost(self) -> float:
        """Energy plus lost value."""
        return self.energy + self.lost_value

    def cost_breakdown(self) -> CostBreakdown:
        return CostBreakdown(energy=self.energy, lost_value=self.lost_value)

    # ------------------------------------------------------------------
    # Work accounting
    # ------------------------------------------------------------------
    def work_done(self) -> FloatArray:
        """Per-job total processed work across all intervals."""
        return self.loads.sum(axis=1)

    def portions(self) -> FloatArray:
        """Paper-style ``x_{jk}`` matrix (loads divided by workloads)."""
        return self.loads / self.instance.workloads[:, None]

    def completion_fractions(self) -> FloatArray:
        """Per-job fraction of workload processed, in [0, 1+eps]."""
        return self.work_done() / self.instance.workloads

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self, *, strict_finish: bool = True) -> None:
        """Check model constraints; raise :class:`InfeasibleScheduleError`.

        Verifies: non-negative loads; work only inside availability
        windows; per-interval feasibility (total load fits ``m``
        processors, the largest load fits one processor); and — when
        ``strict_finish`` — that every job claimed finished received its
        full workload.
        """
        if float(self.loads.min(initial=0.0)) < -_LOAD_EPS:
            raise InfeasibleScheduleError("negative load in schedule")

        avail = self.grid.availability_matrix(self.instance)
        stray = np.abs(self.loads[~avail]).sum() if (~avail).any() else 0.0
        if stray > _LOAD_EPS * max(1.0, float(np.abs(self.loads).sum())):
            raise InfeasibleScheduleError(
                "schedule assigns work outside a job's release-deadline window"
            )

        # Speeds are unbounded in the model, so any finite load vector is
        # schedulable; structural constraints (one job per processor, no
        # self-parallelism) are enforced by realization. Guard NaN/inf.
        if not np.all(np.isfinite(self.loads)):
            raise InfeasibleScheduleError("non-finite load in schedule")

        if strict_finish:
            done = self.work_done()
            w = self.instance.workloads
            under = self.finished & (done < w * (1.0 - _REL_TOL) - _LOAD_EPS)
            if under.any():
                j = int(np.nonzero(under)[0][0])
                raise InfeasibleScheduleError(
                    f"job {j} is claimed finished but received only "
                    f"{done[j]:.12g} of {w[j]:.12g} work"
                )

    # ------------------------------------------------------------------
    # Realization
    # ------------------------------------------------------------------
    def realize(self) -> "list[IntervalSchedule]":
        """Explicit per-interval schedules (Chen et al. + McNaughton).

        Each interval realizes its loads above ``_LOAD_EPS``, in
        ascending job order, read off :attr:`columns`; bit-identical to
        the per-column scan kept as
        :func:`repro.perf.reference.realize_reference`.
        """
        from ..chen.scheduler import schedule_interval  # lazy: layering

        cols = self.columns
        keep = cols.vals > _LOAD_EPS
        vals = cols.vals[keep]
        ids = cols.rows[keep].tolist()
        kept = np.concatenate(([0], np.cumsum(keep)))
        offsets = kept[cols.indptr].tolist()
        edges = self.grid.boundaries.tolist()
        m, power = self.instance.m, self.instance.power
        return [
            schedule_interval(
                vals[lo:hi],
                job_ids=ids[lo:hi],
                m=m,
                start=edges[k],
                end=edges[k + 1],
                power=power,
            )
            for k, (lo, hi) in enumerate(zip(offsets, offsets[1:]))
        ]

    def processor_speed_matrix(self) -> FloatArray:
        """``(m, N)`` speeds of the i-th *fastest* processor per interval.

        Row ``i`` is the speed of the (i+1)-th fastest processor — the
        quantity ``s(i, k)`` in Proposition 7 of the paper. Computed from
        the dedicated/pool structure of each interval's nonzero loads
        (dropping zeros changes no bit of it) without materializing
        segments.
        """
        from ..chen.partition import partition_loads  # local: avoid cycle

        m = self.instance.m
        out = np.zeros((m, self.grid.size), dtype=np.float64)
        lengths = self.grid.lengths
        cols = self.columns
        indptr = cols.indptr.tolist()
        for k in range(self.grid.size):
            part = partition_loads(cols.vals[indptr[k] : indptr[k + 1]], m)
            out[:, k] = part.processor_loads() / float(lengths[k])
        return out

    # ------------------------------------------------------------------
    # Rebasing
    # ------------------------------------------------------------------
    def on_grid(self, target: Grid) -> "Schedule":
        """Re-express this schedule on a refinement of its grid.

        Loads split proportionally to sub-interval lengths, which leaves
        speeds, energy, and cost unchanged (the paper's Section 3
        observation). The target must contain every current boundary.
        """
        refinement = self.grid.refine(target.boundaries.tolist())
        if not refinement.grid.same_as(target):
            raise GridMismatchError(
                "target grid is not a refinement of the schedule's grid"
            )
        new_loads = np.stack(
            [refinement.split_row(self.loads[j]) for j in range(self.instance.n)]
        )
        return Schedule(
            instance=self.instance,
            grid=refinement.grid,
            loads=new_loads,
            finished=self.finished,
        )

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def summary(self) -> str:
        """Multi-line human-readable cost and acceptance summary."""
        acc = int(self.finished.sum())
        lines = [
            f"Schedule on {self.instance.m} processor(s), alpha={self.instance.alpha}",
            f"  accepted {acc}/{self.instance.n} jobs",
            f"  {self.cost_breakdown()}",
        ]
        return "\n".join(lines)
