"""Arrival-epoch batched execution of the primal-dual scheduler.

:meth:`repro.core.pd.PDScheduler.arrive_many` is the one PD driver, and
this module is its block loop. Arrivals are consumed in **epochs** —
blocks of :data:`DEFAULT_EPOCH_SIZE` consecutive jobs read straight off
the :class:`~repro.model.job_arrays.JobArrays` columns — and each block
picks its own processing from what it observes:

* **release-order check** — one ``np.maximum.accumulate`` running-max
  pass per block (same tolerance, same error message, raised at the
  same prefix position as the sequential loop);
* **refinement scan** — the :meth:`~repro.model.intervals.Grid.fresh_points`
  nearness test, vectorized over every window endpoint in the block.
  A block whose first arrival refines the grid hands the run to the
  scheduler's scalar routine, which takes arrivals one by one (grid
  refinement included) for as long as they keep refining: it stops
  right after the first arrival that did not refine, and before any
  arrival that was on the grid already. While the grid is still
  growing (every arrival brings new breakpoints) one run spans the
  whole block; a block that starts on the grid is batched up to its
  first refining arrival, against a grid that provably does not change
  under it. In steady state (the grid has converged to the workload's
  breakpoints) blocks run batched at full width;
* **window lookup** — one vectorized ``np.searchsorted`` for every
  window endpoint in the block, replicating the exact
  ``_boundary_index`` tolerance semantics of ``Grid.covering``;
* **cheap-reject pre-screen** — jobs whose price cap cannot open *any*
  interval of their window are rejected en masse. Per interval the
  exact opening speed is ``IntervalLoads.open_speed`` (the m-machine
  water level); the windowed minimum over the whole block is one
  ``np.minimum.reduceat``. Because accepted work only ever *raises*
  water levels within a refinement-free epoch, the block-start envelope
  stays a valid lower bound throughout the block. The screen is
  advisory: every screened job is *confirmed* by an exact scalar pass
  against the live stores (the same ``s_cap`` scalar and the same
  per-interval ``target*(m-d) - suffix[d]`` query the reference kernel
  evaluates), so a screen error can only reroute a job to the slower
  path, never change its decision;
* **deferred suffix maintenance** — accepts insert with
  :meth:`~repro.perf.kernels.IntervalLoads.insert_deferred` and suffix
  sums are rebuilt lazily, right before the next query that reads them,
  coalescing rebuilds across the epoch (the flushed suffix is a pure
  function of the final loads, so coalescing is bit-invisible);
* **columnar decisions** — accepted/lam/speed/planned-work land in
  per-block columns; ``JobDecision``/``Instance`` objects materialize
  once, in ``finish()``.

A job that survives the screen runs the same scalar water-fill as the
scalar routine (:func:`repro.core.waterfill.waterfill_job` over a
``WindowKernel`` of the live stores) — the same floats in the same
order — so decisions, load stores, planned loads, certificates, record
payloads, and cache keys are byte-identical to the dense per-arrival
twin :func:`repro.perf.reference.run_pd_reference`. The differential
suite (``tests/test_epochs.py``) asserts exactly that, for any block
length, and ``repro lint`` pins every public name here to that twin
(:data:`repro.perf.reference.PARITY_PAIRS`).
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from ..core.waterfill import waterfill_job
from ..errors import InvalidParameterError
from ..model.intervals import _TIME_EPS
from ..model.power import PolynomialPower
from .kernels import WindowKernel

__all__ = ["DEFAULT_EPOCH_SIZE", "arrive_epochs"]

#: Arrival-epoch block length. Large enough to amortize the per-block
#: numpy passes over thousands of arrivals, small enough that the
#: block-start screen envelope stays tight (levels only rise within a
#: block, so an over-long epoch degrades the screen hit rate, never
#: correctness).
DEFAULT_EPOCH_SIZE = 2048

#: Relative safety margin of the (approximate, vectorized) stage-1
#: screen against the exact scalar confirmation. Purely advisory — both
#: kinds of stage-1 error merely reroute a job between the fast and the
#: full path.
_SCREEN_MARGIN = 1e-9


def arrive_epochs(scheduler, arrays) -> None:
    """Feed every job of ``arrays`` to ``scheduler`` in epochs.

    Mutates ``scheduler`` (a :class:`~repro.core.pd.PDScheduler`) into
    exactly the state the sequential ``for i: scheduler.arrive(arrays.job(i))``
    loop would produce — same grid, same stores, same planned loads,
    same decisions — while storing jobs and decisions columnar.
    """
    n = arrays.n
    i = 0
    while i < n:
        i = _process_block(scheduler, arrays, i, min(i + DEFAULT_EPOCH_SIZE, n))


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------
def _near_boundary(b: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Vectorized ``Grid.fresh_points`` nearness test, one point at a time.

    ``True`` where the point snaps to an existing boundary — the exact
    per-point condition of the scalar classifier (searchsorted-left
    neighbours, absolute ``_TIME_EPS`` tolerance).
    """
    idx = np.searchsorted(b, points, side="left")
    size = b.size
    near = np.zeros(points.shape, dtype=bool)
    has_right = idx < size
    near[has_right] = (
        b[idx[has_right]] - points[has_right] <= _TIME_EPS
    )
    has_left = idx > 0
    near[has_left] |= (
        points[has_left] - b[idx[has_left] - 1] <= _TIME_EPS
    )
    return near


def _refresh_opens(sched) -> np.ndarray:
    """The per-interval opening-speed envelope, refreshed incrementally.

    ``opens[k]`` is the exact speed below which interval ``k`` absorbs
    zero load at the *block-start* state; ``opens[N]`` is a ``+inf``
    sentinel so a window's ``reduceat`` endpoint may sit one past the
    last interval. Only intervals dirtied since the last block are
    recomputed (their deferred suffixes flushed first); a grid change
    drops the cache entirely.
    """
    states = sched._states
    size = len(states)
    m = sched.m
    lens = sched._length_list()
    opens = sched._opens
    dirty = sched._dirty_suffix
    if opens is None or opens.size != size + 1:
        opens = np.empty(size + 1, dtype=np.float64)
        opens[size] = np.inf
        stale = range(size)
    else:
        stale = sched._stale_open
    for k in stale:
        state = states[k]
        if k in dirty:
            state.flush_suffix()
        opens[k] = state.open_speed(m, lens[k])
    dirty.clear()
    sched._stale_open.clear()
    sched._opens = opens
    return opens


def _process_block(sched, arrays, lo: int, hi: int) -> int:
    """Process arrivals ``[lo, hi)``; return the next unprocessed index.

    May stop early: at a release-order violation (after processing the
    valid prefix, like the sequential loop would), after the scalar run
    a refining first arrival starts, or at the first refining arrival of
    a batched block (so every later job sees the refined grid).
    """
    releases = arrays.releases
    r = releases[lo:hi]
    prev = sched._last_release
    runmax = np.maximum.accumulate(np.concatenate(((prev,), r)))
    bad = r < runmax[:-1] - 1e-12
    if bad.any():
        stop = int(np.argmax(bad))
        j = lo
        while j < lo + stop:
            j = _process_block(sched, arrays, j, lo + stop)
        raise InvalidParameterError(
            f"jobs must arrive in release order: got release "
            f"{float(r[stop])} after {float(runmax[stop])}"
        )

    grid = sched._grid
    d = arrays.deadlines[lo:hi]
    if grid is None:
        ok = np.zeros(hi - lo, dtype=bool)
    else:
        b = grid.boundaries
        ok = _near_boundary(b, r) & _near_boundary(b, d)
    if not ok[0]:
        # Scalar run, cut before the first arrival already on the grid.
        stop = hi
        if ok[1:].any():
            stop = lo + 1 + int(np.argmax(ok[1:]))
        return lo + sched._arrive_run(
            r[: stop - lo].tolist(),
            d[: stop - lo].tolist(),
            arrays.workloads[lo:stop].tolist(),
            arrays.values[lo:stop].tolist(),
        )
    if not bool(ok.all()):
        hi = lo + int(np.argmin(ok))
        r = r[: hi - lo]
        d = d[: hi - lo]
    cnt = hi - lo
    w = arrays.workloads[lo:hi]
    v = arrays.values[lo:hi]
    sched._last_release = float(runmax[cnt])

    # Batched covering: the exact ``_boundary_index`` computation for
    # every window endpoint at once. The nearness test above implies
    # alignment under the (looser) covering tolerance, but any
    # stragglers are simply routed through ``grid.covering`` below for
    # the historical behavior.
    i_idx = np.searchsorted(b, r - _TIME_EPS, side="left")
    j_idx = np.searchsorted(b, d - _TIME_EPS, side="left")
    size = b.size
    safe_i = np.minimum(i_idx, size - 1)
    safe_j = np.minimum(j_idx, size - 1)
    aligned = (
        (i_idx < size)
        & (np.abs(b[safe_i] - r) <= _TIME_EPS * np.maximum(1.0, np.abs(r)) + _TIME_EPS)
        & (j_idx < size)
        & (np.abs(b[safe_j] - d) <= _TIME_EPS * np.maximum(1.0, np.abs(d)) + _TIME_EPS)
    )

    # Stage-1 screen: exact per-interval opening envelope (frozen at
    # block start), approximate vectorized price caps. Candidates get an
    # exact scalar confirmation below; everyone else takes the full path.
    opens = _refresh_opens(sched)
    delta = sched.delta
    power = sched.power
    nonempty = j_idx > i_idx
    if isinstance(power, PolynomialPower):
        alpha = power.alpha
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            marg = v / (delta * w)
            caps = np.exp(np.log(marg / alpha) / (alpha - 1.0))
        caps = np.where(marg > 0.0, caps, 0.0)
        pairs = np.empty(2 * cnt, dtype=np.intp)
        pairs[0::2] = np.where(nonempty, i_idx, 0)
        pairs[1::2] = np.where(nonempty, j_idx, 1)
        wmin = np.minimum.reduceat(opens, pairs)[0::2]
        candidate = aligned & nonempty & (caps * (1.0 + _SCREEN_MARGIN) < wmin)
    else:
        # No vectorized cap for custom power functions: attempt the
        # exact confirmation on every aligned job instead.
        candidate = aligned & nonempty

    states = sched._states
    planned = sched._planned
    len_list = sched._length_list()
    m = sched.m
    dirty = sched._dirty_suffix
    stale = sched._stale_open
    derivative_inverse = power.derivative_inverse
    base_id = sched._count

    rl = r.tolist()
    dl = d.tolist()
    wl = w.tolist()
    vl = v.tolist()
    il = i_idx.tolist()
    jl = j_idx.tolist()
    cand = candidate.tolist()
    algn = aligned.tolist()
    acc: list[bool] = []
    lam: list[float] = []
    spd: list[float] = []
    pw: list[float] = []

    for t in range(cnt):
        value = vl[t]
        workload = wl[t]
        i0 = il[t]
        j0 = jl[t]
        if cand[t]:
            # Exact zero-load confirmation against the *live* stores:
            # the same scalar cap and the same per-interval water-level
            # query the reference kernel would evaluate at the cap. All
            # zero means the reference outcome is fully determined
            # (reject at value, nothing placed, no state mutation).
            s_cap = derivative_inverse(value / (delta * workload))
            zero = True
            if s_cap > 0.0:
                for k in range(i0, j0):
                    state = states[k]
                    if k in dirty:
                        state.flush_suffix()
                        dirty.discard(k)
                    target = s_cap * len_list[k]
                    dd = bisect_left(state.neg, -target)
                    if dd < m and target * (m - dd) - state.suffix[dd] > 0.0:
                        zero = False
                        break
            if zero:
                acc.append(False)
                lam.append(value)
                spd.append(s_cap)
                pw.append(0.0)
                continue
        # Full scalar water-fill against the live stores (reference
        # floats in reference order).
        if algn[t]:
            ks = range(i0, j0)
        else:  # pragma: no cover - near implies aligned; insurance only
            ks = grid.covering(rl[t], dl[t])
            i0, j0 = ks.start, ks.stop
        if dirty:
            for k in ks:
                if k in dirty:
                    states[k].flush_suffix()
                    dirty.discard(k)
        kernel = WindowKernel(states[i0:j0], len_list[i0:j0], m)
        outcome = waterfill_job(
            kernel,
            workload=workload,
            value=value,
            delta=delta,
            power=power,
        )
        loads = outcome.loads
        accepted = outcome.accepted
        job_id = base_id + t
        for offset in range(j0 - i0):
            z = float(loads[offset])
            if z == 0.0:
                continue
            k = i0 + offset
            if accepted:
                states[k].insert_deferred(job_id, z)
                dirty.add(k)
                stale.add(k)
            planned[k].append((job_id, z))
        acc.append(accepted)
        lam.append(outcome.lam)
        spd.append(outcome.speed)
        pw.append(outcome.planned_work)

    sched._chunks.append((r, d, w, v, acc, lam, spd, pw))
    sched._count = base_id + cnt
    return hi
