"""Incremental interval-load stores and the window kernel.

The primal-dual water-filling step asks one question per arrival: *how
much new load can each atomic interval of a job's window absorb at a
candidate speed?* The closed form
(:func:`repro.chen.interval_power.max_load_at_speed`) needs each
interval's loads **descending-sorted with suffix sums** — and the
historical implementation rebuilt that cache from the full ``(n, N)``
load matrix on every arrival: an O(n) sort-and-scan per interval per
job, which is exactly why the seed topped out around 200 jobs.

This module maintains the sorted structure *incrementally* across
arrivals instead:

* :class:`IntervalLoads` keeps one interval's positive loads in
  descending order in a Python list. Accepting a job is a sorted
  **insertion** (one C-level ``memmove``); splitting an interval on
  grid refinement is a **split-copy** (scale by the child fraction —
  order is preserved, so no re-sort); suffix sums are rebuilt with the
  exact accumulation order the reference path used, which keeps every
  query bit-identical.
* :class:`WindowKernel` freezes the stores of one job's window and
  answers ``total_at_speed`` / ``loads_at_speed`` with a tight
  ``bisect``-based scalar loop, and hands the exact water-fill the
  sorted loads and suffix sums it derives the window's breakpoints
  from. The exact solve needs only a handful of total evaluations per
  accepted job, and job windows are narrow (a few intervals), so
  there is no batched numpy path.

Bit-parity notes (load-bearing, tested in ``tests/test_perf_kernels``):

* Dropping exact-zero loads is safe: descending sorts put zeros last,
  and trailing zeros contribute exact ``+0.0`` terms to the suffix
  cumsum, which cannot change any bit of any partial sum.
* Scaling a descending array by one positive fraction preserves order
  (monotone rounding), so a split-copy equals re-sorting the scaled
  column.
* The window total accumulates interval by interval, left to right,
  exactly as the reference's Python ``sum`` over ``SortedLoads``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np

from ..errors import InvalidParameterError
from ..types import FloatArray

__all__ = ["IntervalLoads", "WindowKernel"]


class IntervalLoads:
    """One atomic interval's positive loads, sorted descending, live.

    Maintains three aligned structures: ``loads`` (descending),
    ``neg`` (``-loads``, ascending — the ``bisect`` key the water-level
    count uses), and ``ids`` (the owning job of each load). ``suffix``
    holds the suffix sums, ``suffix[d] == sum(loads[d:])``, rebuilt
    after every mutation with the same tail-first accumulation as
    :class:`repro.chen.interval_power.SortedLoads`.
    """

    __slots__ = ("loads", "neg", "ids", "suffix")

    def __init__(self) -> None:
        self.loads: list[float] = []
        self.neg: list[float] = []
        self.ids: list[int] = []
        self.suffix: list[float] = [0.0]

    def __len__(self) -> int:
        return len(self.loads)

    def insert(self, job_id: int, load: float) -> None:
        """Sorted insertion of one accepted load (O(p) memmove)."""
        if not (load > 0.0):
            raise InvalidParameterError(
                f"interval loads must be > 0, got {load}"
            )
        # bisect_right on the ascending negated key == stable descending
        # order: a new job (highest id) lands *after* equal loads, the
        # same tie order as the reference's stable argsort.
        pos = bisect_right(self.neg, -load)
        self.loads.insert(pos, load)
        self.neg.insert(pos, -load)
        self.ids.insert(pos, job_id)
        self._rebuild_suffix()

    def insert_deferred(self, job_id: int, load: float) -> None:
        """Sorted insertion with the suffix rebuild deferred.

        The epoch-batched execution layer accepts many jobs between two
        suffix reads, so rebuilding after every insert repeats O(p) work
        that the next insert throws away. This variant updates only the
        sorted ``loads``/``neg``/``ids`` triplet — identical to
        :meth:`insert`, insertion order and all — and leaves ``suffix``
        stale; the caller must invoke :meth:`flush_suffix` before the
        next suffix read. The flushed suffix is a pure function of the
        final ``loads`` list, so coalescing rebuilds cannot change a
        bit of any subsequent query.
        """
        if not (load > 0.0):
            raise InvalidParameterError(
                f"interval loads must be > 0, got {load}"
            )
        pos = bisect_right(self.neg, -load)
        self.loads.insert(pos, load)
        self.neg.insert(pos, -load)
        self.ids.insert(pos, job_id)

    def flush_suffix(self) -> None:
        """Rebuild the suffix sums after deferred insertions."""
        self._rebuild_suffix()

    def open_speed(self, m: int, length: float) -> float:
        """Smallest speed above which this interval absorbs new load.

        The water level at which ``max_load_at_speed`` turns positive is
        ``t* = min_d suffix[d] / (m - d)`` over the feasible occupancy
        counts ``d`` (a standard identity for the m-machine water-filling
        level: at the consistent ``d*`` the expression equals the level,
        and it is >= the level everywhere else). Any speed at or below
        ``t*/length`` yields exactly zero absorbed load — an *exact*
        threshold, used by the epoch pre-screen as a conservative gate
        (screen errors only reroute jobs, never change a decision).
        Requires a flushed suffix.
        """
        suffix = self.suffix
        p = len(self.loads)
        lim = m if m <= p else p + 1
        best = suffix[0] / m
        for d in range(1, lim):
            c = suffix[d] / (m - d)
            if c < best:
                best = c
        return best / length

    def split(self, fraction: float) -> "IntervalLoads":
        """Split-copy for grid refinement: every load scaled once.

        Matches the reference's load-preserving split bit for bit: the
        child value is ``parent_load * fraction`` (a single multiply),
        and multiplying a descending array by one positive fraction
        keeps it descending, so no re-sort happens — or is needed.
        """
        child = IntervalLoads.__new__(IntervalLoads)
        child.loads = [v * fraction for v in self.loads]
        child.neg = [-v for v in child.loads]
        child.ids = list(self.ids)
        child._rebuild_suffix()
        return child

    def _rebuild_suffix(self) -> None:
        # Tail-first accumulation — the exact operation order of
        # ``np.cumsum(loads[::-1])[::-1]`` in the reference cache.
        suffix = [0.0] * (len(self.loads) + 1)
        acc = 0.0
        for i in range(len(self.loads) - 1, -1, -1):
            acc += self.loads[i]
            suffix[i] = acc
        self.suffix = suffix

    def max_load_at_speed(self, target_speed: float, m: int, length: float) -> float:
        """Scalar water-level query; bit-identical to ``SortedLoads``."""
        if target_speed <= 0.0:
            return 0.0
        target_load = target_speed * length
        d = bisect_left(self.neg, -target_load)
        if d >= m:
            return 0.0
        z = target_load * (m - d) - self.suffix[d]
        if z <= 0.0:
            return 0.0
        return z if z <= target_load else target_load


class WindowKernel:
    """Frozen view of one job window for the exact water-fill.

    Exposes what :func:`repro.core.waterfill.waterfill_job` reads: the
    window total and the per-interval load vector at a candidate speed
    (a tight ``bisect``-based scalar loop over the interval stores), and
    ``rows`` — each interval's descending loads, suffix sums and length —
    from which the water-fill derives the window's breakpoints.
    """

    __slots__ = ("m", "lengths", "_stores", "_scalar")

    def __init__(
        self, stores: "list[IntervalLoads]", lengths: "list[float]", m: int
    ) -> None:
        if m < 1:
            raise InvalidParameterError(f"m must be >= 1, got {m}")
        if len(stores) != len(lengths):
            raise InvalidParameterError(
                f"got {len(stores)} interval stores for {len(lengths)} lengths"
            )
        for length in lengths:
            if not (length > 0.0):
                raise InvalidParameterError(
                    f"interval length must be > 0, got {length}"
                )
        self.m = m
        self.lengths = [float(length) for length in lengths]
        self._stores = stores
        # The query loop's working set, zipped once per window.
        self._scalar = [
            (store.neg, store.suffix, length)
            for store, length in zip(stores, self.lengths)
        ]

    def __len__(self) -> int:
        return len(self.lengths)

    @property
    def rows(self) -> "list[tuple[list[float], list[float], float]]":
        """Per interval: descending loads, suffix sums, length.

        Built on demand: only accepted jobs need the breakpoints.
        """
        return [
            (store.loads, store.suffix, length)
            for store, length in zip(self._stores, self.lengths)
        ]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def total_at_speed(self, speed: float) -> float:
        """Sum of ``max_load_at_speed`` over the window's intervals.

        The builtin ``sum`` over the same per-interval floats, in the same
        order, as the reference's :class:`SortedLoads` loop: bit-equal.
        """
        return float(sum(self._loads(speed)))

    def loads_at_speed(self, speed: float) -> FloatArray:
        """Per-interval load vector at ``speed`` (the final placement)."""
        return np.array(self._loads(speed), dtype=np.float64)

    def _loads(self, speed: float) -> "list[float]":
        if speed <= 0.0:
            return [0.0] * len(self.lengths)
        m = self.m
        out = []
        for neg, suffix, length in self._scalar:
            target = speed * length
            d = bisect_left(neg, -target)
            z = target * (m - d) - suffix[d] if d < m else 0.0
            out.append(0.0 if z <= 0.0 else z if z <= target else target)
        return out
