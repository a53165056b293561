"""Exact water-filling step of the primal-dual algorithm.

When job ``j`` arrives, Listing 1 of the paper raises the variables
``x_{jk}`` of all atomic intervals inside ``[r_j, d_j)`` *continuously*,
always feeding the intervals whose marginal price

    ``lambda_{jk} = delta * w_j * P'(s_{jk})``

is currently smallest, until either the whole job is placed
(``sum_k x_{jk} = 1``) or the common price reaches the job's value
(rejection). Because every ``P_k`` is convex, this continuous procedure is
equivalent to a *single price query*: find the smallest common price
``lambda`` whose induced per-interval loads sum to the job's workload.

The load an interval accepts at price ``lambda`` is
``z_k(lambda) = max_load_at_speed(s(lambda))`` with
``s(lambda) = P'^{-1}(lambda / (delta * w_j))``, a closed-form
water-level query (see :mod:`repro.chen.interval_power`). Each ``z_k`` is
piecewise linear in ``s`` with at most ``m + 1`` kinks, all known in
closed form from the interval's top ``m`` loads and suffix sums, so the
window total ``s -> sum_k z_k(s)`` is a continuous, non-decreasing
piecewise-linear map with known breakpoints. The clearing speed is found
exactly: binary-search the sorted breakpoints for the linear piece that
holds the workload, then interpolate on that piece — one total at the
price cap plus ``ceil(log2(B+1))`` for ``B`` breakpoints, no iteration
to a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..chen.interval_power import SortedLoads
from ..errors import InvalidParameterError
from ..model.power import PolynomialPower
from ..types import FloatArray

__all__ = ["WaterfillOutcome", "waterfill_job", "window_breakpoints"]

#: Relative tolerance on the placed workload.
_WORK_TOL = 1e-11


@dataclass(frozen=True)
class WaterfillOutcome:
    """Result of pricing one job against the frozen assignment.

    Attributes
    ----------
    accepted:
        Whether the job could be fully placed at a price below its value.
    lam:
        The job's dual variable ``lambda_j``: the clearing price when
        accepted, the job's value when rejected.
    speed:
        The planned speed ``s~_j`` at which the job's marginal was priced
        when ``lambda_j`` got fixed (Equation (10) of the paper).
    loads:
        Per-interval loads. For an accepted job these are the final
        assignment (summing to the workload); for a rejected job these are
        the loads *planned just before rejection* — the paper's ``x̌_{jk}``
        — which the analysis package needs for Propositions 7/8. The
        algorithm itself resets them to zero.
    planned_work:
        Sum of ``loads`` (equals the workload when accepted).
    """

    accepted: bool
    lam: float
    speed: float
    loads: FloatArray
    planned_work: float


def waterfill_job(
    caches: "Sequence[SortedLoads] | object",
    *,
    workload: float,
    value: float,
    delta: float,
    power: PolynomialPower,
) -> WaterfillOutcome:
    """Price job ``j`` against the intervals in ``caches``.

    Parameters
    ----------
    caches:
        The frozen pre-arrival assignment of the job's window: either
        one :class:`SortedLoads` per atomic interval (the historical
        shape, still used by the offline solver), or any object
        exposing window-wide ``total_at_speed(s)`` / ``loads_at_speed(s)``
        queries plus the ``rows`` and ``m`` that
        :func:`window_breakpoints` reads — in practice a
        :class:`~repro.perf.kernels.WindowKernel`. Both shapes produce
        bit-identical outcomes.
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
        m = caches.m
    else:

        def total_at_speed(s: float) -> float:
            return float(sum(c.max_load_at_speed(s) for c in caches))

        def loads_at_speed(s: float) -> FloatArray:
            return np.array(
                [c.max_load_at_speed(s) for c in caches], dtype=np.float64
            )

        m = caches[0].m

    # Price cap: lambda <= value <=> planned speed <= s_cap. An infinite
    # value (classical must-finish jobs, the offline solver's block
    # steps, or a near-1 exponent mapping a huge value to inf) means no
    # effective cap. Then bracket in closed form instead: every interval
    # absorbs at least ``s*l - suffix[0]``, so at twice the speed where
    # those lower bounds sum to ``workload`` the window holds it with
    # room to spare for rounding.
    s_cap = (
        power.derivative_inverse(value / (delta * workload))
        if np.isfinite(value)
        else math.inf
    )
    if not np.isfinite(s_cap):
        rows = _rows(caches)
        held = sum(suffix[0] for _, suffix, _ in rows)
        s_cap = 2.0 * (workload + held) / sum(length for _, _, length in rows)

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

    if placed_at_cap <= workload:
        s = s_cap
    else:
        # Binary-search the breakpoints for the linear piece holding the
        # workload: total(speeds[lo]) < workload <= total(speeds[hi]).
        speeds = [0.0, *window_breakpoints(_rows(caches), m, s_cap), s_cap]
        lo, hi = 0, len(speeds) - 1
        t_lo, t_hi = 0.0, placed_at_cap
        while hi - lo > 1:
            mid = (lo + hi) // 2
            t = total_at_speed(speeds[mid])
            if t >= workload:
                hi, t_hi = mid, t
            else:
                lo, t_lo = mid, t
        s_lo, s_hi = speeds[lo], speeds[hi]
        s = min(s_lo + (workload - t_lo) * (s_hi - s_lo) / (t_hi - t_lo), s_hi)

    loads = loads_at_speed(s)
    placed = float(loads.sum())
    if placed <= 0.0:
        # Degenerate: numerical cap hit; treat as rejection.
        return WaterfillOutcome(
            accepted=False, lam=value, speed=s_cap, loads=loads, planned_work=placed
        )
    if abs(placed - workload) > _WORK_TOL * workload:
        # Final exactness fix: scale within the rounding residual of the
        # interpolation (or of a cap that clears the workload only up to
        # the acceptance tolerance), so marginal prices move negligibly.
        loads *= workload / placed
        placed = workload

    lam = delta * workload * power.derivative(s)
    lam = min(lam, value)
    return WaterfillOutcome(
        accepted=True, lam=lam, speed=s, loads=loads, planned_work=placed
    )


def _rows(caches: "Sequence[SortedLoads] | object") -> list:
    """``(loads, suffix, length)`` per interval, for either window shape."""
    if hasattr(caches, "rows"):
        return caches.rows
    return [(c.sorted_loads, c.suffix, c.length) for c in caches]


def window_breakpoints(
    rows: "Iterable[tuple[Sequence[float], Sequence[float], float]]",
    m: int,
    s_cap: float,
) -> list[float]:
    """Sorted speeds in ``(0, s_cap)`` where the window total bends.

    ``rows`` holds one ``(loads, suffix, length)`` triple per interval:
    the existing loads sorted descending, their suffix sums
    (``suffix[d] == sum(loads[d:])``) and the interval length. At water
    level ``T = s * length`` the interval absorbs

        ``z(T) = clamp(max_{d < m} (T*(m - d) - suffix[d]), 0, T)``

    since the line ``T*(m - d) - suffix[d]`` peaks at ``d = #{loads > T}``,
    the count the closed form uses. Neighbouring lines cross at
    ``T = loads[d]``; the clamp adds the zero crossing (the smallest line
    root) and the cap crossing (the smallest root of
    ``T*(m - d - 1) - suffix[d]``), and ``z`` bends only at those two and
    at the loads strictly between them. An interval with fewer than
    ``m`` positive loads (trailing zeros allowed) has a free processor,
    so ``z = T`` throughout: no breakpoint.
    """
    out: list[float] = []
    for loads, suffix, length in rows:
        if len(loads) < m or not loads[m - 1] > 0.0:
            continue
        zero = suffix[0] / m
        cap = math.inf
        for d in range(1, m):
            level = suffix[d] / (m - d)
            if level < zero:
                zero = level
            level = suffix[d - 1] / (m - d)
            if level < cap:
                cap = level
        inner = (load for load in loads[: m - 1] if zero < load < cap)
        for level in (zero, cap, *inner):
            s = level / length
            if 0.0 < s < s_cap:
                out.append(s)
    out.sort()
    return out
